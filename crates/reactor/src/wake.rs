//! Cross-thread wakeup for a blocked poller.
//!
//! Each reactor worker parks in [`crate::poller::Poller::wait_for`]; anyone
//! handing it work (another worker's mail, a client submission, the
//! shutdown flag) must be able to interrupt that wait. A [`WakeFd`] is
//! a descriptor registered with the worker's poller whose sole job is
//! becoming readable on demand: an `eventfd` (one fd, one counter).

use crate::sys;
use std::io;
use std::os::unix::io::RawFd;

/// A level-triggered doorbell usable from any thread.
#[derive(Debug)]
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Opens the doorbell.
    pub fn new() -> io::Result<WakeFd> {
        Ok(WakeFd {
            fd: sys::sys_eventfd()?,
        })
    }

    /// The descriptor to register for read interest.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Rings the doorbell. Safe from any thread; a full counter (EAGAIN)
    /// already guarantees the sleeper will wake, so it is not an error.
    pub fn wake(&self) {
        let _ = sys::sys_write(self.fd, &1u64.to_ne_bytes());
    }

    /// Drains pending wakeups so the fd stops polling readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        while let Ok(n) = sys::sys_read(self.fd, &mut buf) {
            if n == 0 {
                break;
            }
        }
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        sys::sys_close(self.fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poller::{Interest, Poller, PollerKind, Token};

    #[test]
    fn wakes_a_parked_poller_from_another_thread() {
        let wake = std::sync::Arc::new(WakeFd::new().unwrap());
        let mut p = Poller::new(PollerKind::default()).unwrap();
        p.register(wake.fd(), Token(0), Interest::READ).unwrap();

        let remote = std::sync::Arc::clone(&wake);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            remote.wake();
        });

        let mut events = Vec::new();
        // Generous timeout: the wake must arrive long before it.
        let n = p.wait(&mut events, Some(5_000)).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);
        wake.drain();
        assert_eq!(p.wait(&mut events, Some(0)).unwrap(), 0, "drained");
        t.join().unwrap();
    }
}
