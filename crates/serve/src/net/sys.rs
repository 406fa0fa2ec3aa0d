//! Readiness polling over `poll(2)`, on every platform — no external
//! crates, just one `extern "C"` declaration against the C library the
//! process is already linked to.
//!
//! This is the **only** module in the crate allowed to use `unsafe`
//! (`lib.rs` denies it everywhere else), and it holds one unsafe block:
//! the `poll` call, with its invariants stated inline.
//!
//! A [`Poller`] keeps no per-descriptor state across turns: each reactor
//! turn `clear`s it, `watch`es every descriptor it cares about this turn
//! with a `usize` token and an [`Interest`], and `wait`s for [`Event`]s.
//! The buffers are reused from turn to turn. Level-triggered semantics keep
//! the reactor simple: a readable socket keeps reporting readable until
//! drained, so a partial read never strands a connection.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io;
use std::os::fd::RawFd;

/// What readiness a watched descriptor cares about.
#[derive(Debug, Clone, Copy)]
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
    /// The token the fd was watched with.
    pub token: usize,
    /// Readable now. Includes hang-up and error: the owner's next read
    /// returns 0 or the error, and it closes.
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// `struct pollfd`, exactly as `<poll.h>` declares it.
#[repr(C)]
#[derive(Debug)]
struct PollFdRaw {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[cfg(target_os = "macos")]
type Nfds = std::ffi::c_uint;
#[cfg(not(target_os = "macos"))]
type Nfds = std::ffi::c_ulong;

extern "C" {
    fn poll(fds: *mut PollFdRaw, nfds: Nfds, timeout: c_int) -> c_int;
}

/// This turn's wait list: one `pollfd` and one token per watched fd.
#[derive(Debug, Default)]
pub(crate) struct Poller {
    fds: Vec<PollFdRaw>,
    tokens: Vec<usize>,
}

impl Poller {
    /// Empties the wait list, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.fds.clear();
        self.tokens.clear();
    }

    /// Adds `fd` to the wait list under `token`.
    pub(crate) fn watch(&mut self, fd: RawFd, token: usize, interest: Interest) {
        let mut events = 0;
        if interest.read {
            events |= POLLIN;
        }
        if interest.write {
            events |= POLLOUT;
        }
        self.fds.push(PollFdRaw {
            fd,
            events,
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Blocks up to `timeout_ms` for readiness on the wait list, putting
    /// the events in `out` (which is cleared first). An interrupted wait
    /// (`EINTR`) returns cleanly with no events.
    ///
    /// # Errors
    ///
    /// The underlying `poll` failure: `EINVAL` when the list is longer than
    /// the process may hold descriptors (`RLIMIT_NOFILE`).
    pub(crate) fn wait(&mut self, timeout_ms: u64, out: &mut Vec<Event>) -> io::Result<()> {
        out.clear();
        let timeout = c_int::try_from(timeout_ms).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is a live, contiguous pollfd array of exactly
        // `len` entries (a dangling but aligned pointer when empty, which
        // the kernel never reads); the kernel reads `events` and writes
        // `revents` within bounds and keeps no reference after returning.
        let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as Nfds, timeout) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (raw, &token) in self.fds.iter().zip(&self.tokens) {
            if raw.revents == 0 {
                continue;
            }
            out.push(Event {
                token,
                readable: raw.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: raw.revents & POLLOUT != 0,
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

    #[test]
    fn reports_readable_once_bytes_arrive() {
        let mut poller = Poller::default();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.watch(b.as_raw_fd(), 7, Interest::READ);

        let mut events = Vec::new();
        poller.wait(0, &mut events).unwrap();
        assert!(events.is_empty(), "nothing written yet");

        a.write_all(b"x").unwrap();
        poller.wait(1_000, &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        poller.wait(0, &mut events).unwrap();
        assert!(events.iter().any(|e| e.readable));
        let mut buf = [0u8; 8];
        let _ = (&b).read(&mut buf);
        poller.wait(0, &mut events).unwrap();
        assert!(events.is_empty(), "drained");
    }

    #[test]
    fn write_interest_follows_the_watch_list() {
        let mut poller = Poller::default();
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let both = Interest {
            read: true,
            write: true,
        };
        poller.watch(a.as_raw_fd(), 1, both);

        let mut events = Vec::new();
        poller.wait(1_000, &mut events).unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.writable),
            "an idle socket is writable"
        );

        poller.clear();
        poller.watch(a.as_raw_fd(), 1, Interest::READ);
        poller.wait(0, &mut events).unwrap();
        assert!(!events.iter().any(|e| e.writable), "write interest dropped");

        poller.clear();
        poller.wait(0, &mut events).unwrap();
        assert!(events.is_empty(), "an empty list reports nothing");
    }

    #[test]
    fn peer_hangup_reports_readable() {
        let mut poller = Poller::default();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.watch(b.as_raw_fd(), 3, Interest::READ);
        drop(a);
        let mut events = Vec::new();
        poller.wait(1_000, &mut events).unwrap();
        assert!(
            events.iter().any(|e| e.token == 3 && e.readable),
            "hangup must surface as readable (read -> 0)"
        );
        let mut buf = [0u8; 4];
        assert_eq!((&b).read(&mut buf).unwrap(), 0);
    }

    /// The soft `RLIMIT_NOFILE`, as the process sees it.
    fn soft_descriptor_limit() -> usize {
        #[cfg(target_os = "linux")]
        let limit = std::fs::read_to_string("/proc/self/limits")
            .unwrap()
            .lines()
            .find_map(|line| line.strip_prefix("Max open files"))
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        #[cfg(not(target_os = "linux"))]
        let limit = std::process::Command::new("sh")
            .args(["-c", "ulimit -n"])
            .output()
            .ok()
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned());
        let limit = limit.expect("the soft descriptor limit is readable");
        limit
            .parse()
            .unwrap_or_else(|_| panic!("soft descriptor limit {limit:?} is not a count"))
    }

    /// The `poll` call's error path: a list longer than the descriptor
    /// limit is refused with `EINVAL`, which `wait` returns as an error
    /// rather than panicking or reporting no events.
    #[test]
    fn a_list_past_the_descriptor_limit_is_einval() {
        const EINVAL: i32 = 22;
        let limit = soft_descriptor_limit();
        let (a, _b) = UnixStream::pair().unwrap();
        let mut poller = Poller::default();
        for token in 0..=limit {
            poller.watch(a.as_raw_fd(), token, Interest::READ);
        }
        let mut events = Vec::new();
        let err = poller
            .wait(0, &mut events)
            .expect_err("a list past the limit must fail");
        assert_eq!(err.raw_os_error(), Some(EINVAL), "{err:?} at limit {limit}");
    }
}
