//! [`Server`]: a running daemon — the [`crate::net`] reactor on a bound
//! listener plus the worker threads draining the admission queue.
//!
//! The worker pool size resolves through the same
//! [`nshard_pool::resolve_threads`] path as every other parallel
//! component, so `NSHARD_THREADS` is the single thread-count knob
//! (see [`nshard_pool::THREADS_ENV`]).

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::net::reactor::Reactor;

use super::Service;

/// A running daemon: the [`crate::net`] reactor plus a worker pool around
/// a [`Service`].
pub struct Server {
    service: Arc<Service>,
    addr: SocketAddr,
    worker_threads: Vec<JoinHandle<()>>,
    reactor: Reactor,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the reactor and worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or creating the reactor's waker.
    pub fn start(service: Arc<Service>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // The reactor first: its setup is the only fallible step left, and
        // failing after the workers exist would leave them parked on
        // `queue.pop()` forever.
        let reactor = Reactor::spawn(Arc::clone(&service), listener)?;
        let worker_threads = (0..service.workers())
            .map(|i| {
                let service = Arc::clone(&service);
                std::thread::Builder::new()
                    .name(format!("nshard-serve-worker-{i}"))
                    .spawn(move || while service.drain_blocking() {})
                    // Panics at start, before any request is taken: no half-staffed daemon.
                    .expect("spawn worker")
            })
            .collect();
        Ok(Self {
            service,
            addr: local,
            worker_threads,
            reactor,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Graceful shutdown: stop accepting, drain the queue, join all
    /// threads. Everything already admitted still gets its response.
    pub fn shutdown(self) {
        self.service.close();
        self.reactor.shutdown();
        for handle in self.worker_threads {
            let _ = handle.join();
        }
    }
}
