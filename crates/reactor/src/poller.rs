//! Readiness polling over Linux `epoll`.
//!
//! The reactor's workers are written against [`Poller`] alone. `epoll`
//! gives O(ready) wakeups — the thing that makes 10k+ sessions cheap.

use crate::sys;
use std::io;
use std::os::unix::io::RawFd;

/// Caller-chosen identity echoed back on every event for a registered
/// descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Which readiness a registration asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable.
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The registration's token.
    pub token: Token,
    /// Readable now (also set on hangup so the owner reads the EOF).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Peer hung up or the descriptor errored; the owner should read to
    /// completion and drop the connection.
    pub hangup: bool,
}

/// Which backend a [`Poller`] runs. Linux `epoll` is the only one; the
/// kind stays a parameter of [`Poller::new`] so callers name it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PollerKind {
    /// Linux `epoll`.
    #[default]
    Epoll,
}

/// A readiness poller over a set of registered descriptors.
pub struct Poller {
    epfd: RawFd,
    scratch: Vec<sys::epoll_event>,
}

impl Poller {
    /// Opens a poller of the given kind.
    pub fn new(_kind: PollerKind) -> io::Result<Poller> {
        Ok(Poller {
            epfd: sys::sys_epoll_create()?,
            scratch: vec![sys::epoll_event { events: 0, u64: 0 }; 1024],
        })
    }

    /// Registers `fd` with the given interest. One registration per
    /// descriptor; use [`Poller::modify`] to change interest.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            epoll_mask(interest),
            token.0,
        )
    }

    /// Changes the interest of a registered descriptor.
    pub fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::sys_epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            epoll_mask(interest),
            token.0,
        )
    }

    /// Removes a descriptor from the set (idempotent enough for the
    /// close path: an unknown fd is reported, not fatal).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (`None` blocks) for readiness, clearing
    /// and refilling `events`. Returns the number of ready descriptors.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<usize> {
        events.clear();
        let n = sys::sys_epoll_wait(self.epfd, &mut self.scratch, timeout_ms.unwrap_or(-1))?;
        for ev in &self.scratch[..n] {
            let mask = ev.events;
            events.push(Event {
                token: Token(ev.u64),
                readable: mask & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                writable: mask & sys::EPOLLOUT != 0,
                hangup: mask & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::sys_close(self.epfd);
    }
}

fn epoll_mask(interest: Interest) -> u32 {
    let mut m = 0;
    if interest.readable {
        m |= sys::EPOLLIN;
    }
    if interest.writable {
        m |= sys::EPOLLOUT;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readability_and_follows_interest_changes() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut p = Poller::new(PollerKind::default()).unwrap();
        p.register(b.as_raw_fd(), Token(7), Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing ready yet: a zero-timeout wait returns empty.
        assert_eq!(p.wait(&mut events, Some(0)).unwrap(), 0);

        a.write_all(b"x").unwrap();
        assert_eq!(p.wait(&mut events, Some(1000)).unwrap(), 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable && !events[0].writable);

        // Modify to write interest: a socket with buffer space is
        // writable immediately.
        p.modify(b.as_raw_fd(), Token(8), Interest::WRITE).unwrap();
        assert_eq!(p.wait(&mut events, Some(1000)).unwrap(), 1);
        assert_eq!(events[0].token, Token(8));
        assert!(events[0].writable);

        p.deregister(b.as_raw_fd()).unwrap();
        assert_eq!(p.wait(&mut events, Some(0)).unwrap(), 0);
    }

    #[test]
    fn reports_hangup_when_peer_closes() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut p = Poller::new(PollerKind::default()).unwrap();
        p.register(b.as_raw_fd(), Token(1), Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        assert_eq!(p.wait(&mut events, Some(1000)).unwrap(), 1);
        assert!(events[0].hangup, "{:?}", events[0]);
        assert!(events[0].readable, "owner must read the EOF");
    }
}
