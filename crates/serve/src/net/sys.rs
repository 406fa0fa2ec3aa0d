//! Readiness polling over raw OS primitives: `epoll(7)` on Linux, with a
//! portable `poll(2)` fallback — no external crates, just `extern "C"`
//! declarations against the C library the process is already linked to.
//!
//! This is the **only** module in the crate allowed to use `unsafe`
//! (`lib.rs` denies it everywhere else); every unsafe block is a direct
//! syscall wrapper with the invariants stated inline.
//!
//! Both backends have the same level-triggered methods and the platform
//! picks one at compile time under the name [`Poller`]: register a file
//! descriptor with a `usize` token and an [`Interest`], then `wait` for
//! [`Event`]s. Level-triggered semantics keep the reactor simple: a
//! readable socket keeps reporting readable until drained, so a partial
//! read never strands a connection. On Linux the `poll(2)` backend is
//! compiled for the unit tests only, which run both.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io;
use std::os::fd::RawFd;

/// What readiness a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub(crate) const READ: Self = Self {
        read: true,
        write: false,
    };
}

/// One readiness event out of `Poller::wait`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered with.
    pub token: usize,
    /// Readable now (includes peer hang-up: the next read returns 0).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error/hang-up condition; the owner should read/write to discover
    /// the error and close.
    pub error: bool,
}

/// The platform's readiness poller: `epoll(7)` on Linux.
#[cfg(target_os = "linux")]
pub(crate) type Poller = Epoll;
/// The platform's readiness poller: `poll(2)` off Linux.
#[cfg(not(target_os = "linux"))]
pub(crate) type Poller = PollSet;

/// `timeout_ms` as both syscalls take it: negative means "block forever".
fn timeout_arg(timeout_ms: Option<u64>) -> c_int {
    match timeout_ms {
        None => -1,
        Some(ms) => c_int::try_from(ms).unwrap_or(c_int::MAX),
    }
}

// ---------------------------------------------------------------------------
// epoll(7) backend (Linux)
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
const EPOLLIN: u32 = 0x001;
#[cfg(target_os = "linux")]
const EPOLLOUT: u32 = 0x004;
#[cfg(target_os = "linux")]
const EPOLLERR: u32 = 0x008;
#[cfg(target_os = "linux")]
const EPOLLHUP: u32 = 0x010;
#[cfg(target_os = "linux")]
const EPOLLRDHUP: u32 = 0x2000;
#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: c_int = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: c_int = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: c_int = 3;
#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// `struct epoll_event` — packed on x86-64, exactly as `<sys/epoll.h>`
/// declares it.
#[cfg(target_os = "linux")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEventRaw {
    events: u32,
    data: u64,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEventRaw) -> c_int;
    fn epoll_wait(
        epfd: c_int,
        events: *mut EpollEventRaw,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
}

extern "C" {
    fn close(fd: c_int) -> c_int;
}

/// The `epoll(7)` instance.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub(crate) struct Epoll {
    epfd: RawFd,
    buf: Vec<EpollEventRaw>,
}

#[cfg(target_os = "linux")]
impl std::fmt::Debug for EpollEventRaw {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let events = self.events;
        write!(f, "EpollEventRaw({events:#x})")
    }
}

#[cfg(target_os = "linux")]
impl Epoll {
    /// A new epoll instance.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_create1` failure.
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flags integer and returns a new
        // fd or -1; no pointers are involved.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            epfd,
            buf: vec![EpollEventRaw { events: 0, data: 0 }; 256],
        })
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure.
    pub(crate) fn register(
        &mut self,
        fd: RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of an already-registered fd.
    ///
    /// # Errors
    ///
    /// As for [`Epoll::register`].
    pub(crate) fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// As for [`Epoll::register`].
    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut events = EPOLLRDHUP;
        if interest.read {
            events |= EPOLLIN;
        }
        if interest.write {
            events |= EPOLLOUT;
        }
        let mut ev = EpollEventRaw {
            events,
            data: token as u64,
        };
        // SAFETY: `ev` is a valid epoll_event for the duration of the
        // call; the kernel copies it and keeps no reference. For
        // EPOLL_CTL_DEL the pointer is ignored on modern kernels but
        // passing a valid one is always allowed.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks up to `timeout_ms` (`None` = forever) for readiness,
    /// appending events to `out` (which is cleared first). An interrupted
    /// wait (`EINTR`) returns cleanly with no events.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_wait` failure.
    pub(crate) fn wait(&mut self, timeout_ms: Option<u64>, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        // SAFETY: `buf` is a live, properly sized allocation of
        // epoll_event; the kernel writes at most `len` entries.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as c_int,
                timeout_arg(timeout_ms),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for raw in &self.buf[..n as usize] {
            let events = raw.events;
            out.push(Event {
                token: raw.data as usize,
                readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                writable: events & EPOLLOUT != 0,
                error: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closing the epoll fd we own; double-close is impossible
        // because Drop runs once.
        unsafe {
            close(self.epfd);
        }
    }
}

// ---------------------------------------------------------------------------
// poll(2) fallback (portable)
// ---------------------------------------------------------------------------

#[cfg(any(test, not(target_os = "linux")))]
const POLLIN: i16 = 0x001;
#[cfg(any(test, not(target_os = "linux")))]
const POLLOUT: i16 = 0x004;
#[cfg(any(test, not(target_os = "linux")))]
const POLLERR: i16 = 0x008;
#[cfg(any(test, not(target_os = "linux")))]
const POLLHUP: i16 = 0x010;

/// `struct pollfd`, exactly as `<poll.h>` declares it.
#[cfg(any(test, not(target_os = "linux")))]
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFdRaw {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[cfg(target_os = "macos")]
type Nfds = std::ffi::c_uint;
#[cfg(all(not(target_os = "macos"), any(test, not(target_os = "linux"))))]
type Nfds = std::ffi::c_ulong;

#[cfg(any(test, not(target_os = "linux")))]
extern "C" {
    fn poll(fds: *mut PollFdRaw, nfds: Nfds, timeout: c_int) -> c_int;
}

/// The `poll(2)` fallback: an fd list rebuilt per wait — O(n) per call,
/// fine for the fd counts this daemon sees off-Linux. Same methods as
/// the epoll backend; only `wait` can fail here.
#[cfg(any(test, not(target_os = "linux")))]
#[derive(Debug, Default)]
pub(crate) struct PollSet {
    entries: Vec<(RawFd, usize, Interest)>,
    index: std::collections::HashMap<RawFd, usize>,
}

#[cfg(any(test, not(target_os = "linux")))]
impl PollSet {
    pub(crate) fn new() -> io::Result<Self> {
        Ok(Self::default())
    }

    pub(crate) fn register(
        &mut self,
        fd: RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        match self.index.get(&fd) {
            Some(&i) => self.entries[i] = (fd, token, interest),
            None => {
                self.index.insert(fd, self.entries.len());
                self.entries.push((fd, token, interest));
            }
        }
        Ok(())
    }

    pub(crate) fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.register(fd, token, interest)
    }

    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        if let Some(i) = self.index.remove(&fd) {
            self.entries.swap_remove(i);
            if let Some(&(moved_fd, _, _)) = self.entries.get(i) {
                self.index.insert(moved_fd, i);
            }
        }
        Ok(())
    }

    /// # Errors
    ///
    /// The underlying `poll` failure.
    pub(crate) fn wait(&mut self, timeout_ms: Option<u64>, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        let timeout = timeout_arg(timeout_ms);
        if self.entries.is_empty() {
            // Nothing registered: poll(NULL, 0, ...) is legal but a plain
            // sleep serves the same purpose without a syscall wrapper.
            if timeout > 0 {
                std::thread::sleep(std::time::Duration::from_millis(timeout as u64));
            }
            return Ok(());
        }
        let mut fds: Vec<PollFdRaw> = self
            .entries
            .iter()
            .map(|&(fd, _, interest)| {
                let mut events = 0i16;
                if interest.read {
                    events |= POLLIN;
                }
                if interest.write {
                    events |= POLLOUT;
                }
                PollFdRaw {
                    fd,
                    events,
                    revents: 0,
                }
            })
            .collect();
        // SAFETY: `fds` is a live, contiguous pollfd array of exactly
        // `len` entries; the kernel reads `events` and writes `revents`
        // within bounds.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (raw, &(_, token, _)) in fds.iter().zip(&self.entries) {
            if raw.revents == 0 {
                continue;
            }
            out.push(Event {
                token,
                readable: raw.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: raw.revents & POLLOUT != 0,
                error: raw.revents & (POLLERR | POLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// Every backend this platform compiles, by name.
    macro_rules! for_each_backend {
        (|$backend:ident, $poller:ident| $body:block) => {
            #[cfg(target_os = "linux")]
            {
                let $backend = "epoll";
                let mut $poller = Epoll::new().unwrap();
                $body
            }
            {
                let $backend = "poll";
                let mut $poller = PollSet::new().unwrap();
                $body
            }
        };
    }

    #[test]
    fn reports_readable_once_bytes_arrive() {
        for_each_backend!(|backend, poller| {
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

            let mut events = Vec::new();
            poller.wait(Some(0), &mut events).unwrap();
            assert!(events.is_empty(), "{backend:?}: nothing written yet");

            a.write_all(b"x").unwrap();
            poller.wait(Some(1_000), &mut events).unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);

            // Level-triggered: still readable until drained.
            poller.wait(Some(0), &mut events).unwrap();
            assert!(events.iter().any(|e| e.readable), "{backend:?}");
            let mut buf = [0u8; 8];
            let _ = std::io::Read::read(&mut (&b), &mut buf);
            poller.wait(Some(0), &mut events).unwrap();
            assert!(events.is_empty(), "{backend:?}: drained");
        });
    }

    #[test]
    fn write_interest_and_deregister() {
        for_each_backend!(|backend, poller| {
            let (a, _b) = UnixStream::pair().unwrap();
            a.set_nonblocking(true).unwrap();
            let both = Interest {
                read: true,
                write: true,
            };
            poller.register(a.as_raw_fd(), 1, both).unwrap();

            let mut events = Vec::new();
            poller.wait(Some(1_000), &mut events).unwrap();
            assert!(
                events.iter().any(|e| e.token == 1 && e.writable),
                "{backend:?}: an idle socket is writable"
            );

            poller.modify(a.as_raw_fd(), 1, Interest::READ).unwrap();
            poller.wait(Some(0), &mut events).unwrap();
            assert!(
                !events.iter().any(|e| e.writable),
                "{backend:?}: write interest dropped"
            );

            poller.deregister(a.as_raw_fd()).unwrap();
            poller.wait(Some(0), &mut events).unwrap();
            assert!(events.is_empty(), "{backend:?}: deregistered");
        });
    }

    #[test]
    fn peer_hangup_reports_readable() {
        for_each_backend!(|backend, poller| {
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
            drop(a);
            let mut events = Vec::new();
            poller.wait(Some(1_000), &mut events).unwrap();
            assert!(
                events.iter().any(|e| e.token == 3 && e.readable),
                "{backend:?}: hangup must surface as readable (read -> 0)"
            );
            let mut buf = [0u8; 4];
            assert_eq!((&b).read(&mut buf).unwrap(), 0);
        });
    }
}
