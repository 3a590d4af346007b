//! Raw syscall surface of the reactor: `epoll`, `eventfd`, `prctl`.
//!
//! The build is offline, so there is no `libc` crate to lean on; the
//! reactor declares the handful of C functions it needs directly.
//! Everything here is a thin `unsafe extern` shim plus the constants the
//! poller uses — all policy lives in [`crate::poller`].
//!
//! The one wait is `epoll_pwait2`: its `timespec` timeout has nanosecond
//! resolution, not the whole milliseconds of the older wait, so a worker
//! can sleep exactly to a timer's deadline. It needs Linux ≥ 5.11 and
//! glibc ≥ 2.35; there is no fallback. [`sys_set_timer_slack_ns`] trims
//! the calling thread's timer slack (50 µs by default), which every such
//! sleep would otherwise overshoot by.

#![allow(non_camel_case_types)]

use std::ffi::{c_long, c_ulong};
use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// `struct epoll_event`. On x86-64 Linux the kernel ABI packs it; the
/// attribute is correct (and harmless) on the other Linux targets too.
#[repr(C, packed)]
#[derive(Clone, Copy, Debug)]
pub struct epoll_event {
    /// Event mask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// User data echoed back verbatim (the reactor stores its token).
    pub u64: u64,
}

/// `EPOLLIN`.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`.
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`.
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLL_CTL_ADD`.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `EPOLL_CTL_DEL`.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `EPOLL_CTL_MOD`.
pub const EPOLL_CTL_MOD: i32 = 3;
/// `EPOLL_CLOEXEC`.
pub const EPOLL_CLOEXEC: i32 = 0o2000000;

/// `EFD_CLOEXEC | EFD_NONBLOCK` for [`eventfd`].
pub const EFD_CLOEXEC_NONBLOCK: i32 = 0o2000000 | 0o4000;

/// `PR_SET_TIMERSLACK`.
const PR_SET_TIMERSLACK: i32 = 29;

/// `struct timespec`.
#[repr(C)]
struct timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `sigset_t`, only ever passed as a null pointer.
enum sigset_t {}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
    fn epoll_pwait2(
        epfd: i32,
        events: *mut epoll_event,
        maxevents: i32,
        timeout: *const timespec,
        sigmask: *const sigset_t,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
}

/// `SOL_SOCKET`.
pub const SOL_SOCKET: i32 = 1;
/// `SO_SNDBUF`.
pub const SO_SNDBUF: i32 = 7;

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// `epoll_create1(EPOLL_CLOEXEC)`.
pub fn sys_epoll_create() -> io::Result<RawFd> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// `epoll_ctl`. `event` is ignored by the kernel for `EPOLL_CTL_DEL`.
pub fn sys_epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = epoll_event { events, u64: token };
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// `epoll_pwait2` with a null sigmask, retried on `EINTR`. `None`
/// blocks; a timed-out wait never returns before `timeout` has elapsed.
pub fn sys_epoll_pwait2(
    epfd: RawFd,
    events: &mut [epoll_event],
    timeout: Option<Duration>,
) -> io::Result<usize> {
    let ts = timeout.map(|d| timespec {
        tv_sec: d.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: d.subsec_nanos() as c_long,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const timespec);
    loop {
        let n = unsafe {
            epoll_pwait2(
                epfd,
                events.as_mut_ptr(),
                events.len() as i32,
                ts_ptr,
                std::ptr::null(),
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// `prctl(PR_SET_TIMERSLACK, ns)` for the calling thread. `0` restores
/// the default, so the finest slack is `1`.
pub fn sys_set_timer_slack_ns(ns: u64) -> io::Result<()> {
    cvt(unsafe { prctl(PR_SET_TIMERSLACK, ns as c_ulong) }).map(|_| ())
}

/// `eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
pub fn sys_eventfd() -> io::Result<RawFd> {
    cvt(unsafe { eventfd(0, EFD_CLOEXEC_NONBLOCK) })
}

/// Raw nonblocking `read`; `Ok(0)` is end-of-stream.
pub fn sys_read(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Raw `write`.
pub fn sys_write(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    let n = unsafe { write(fd, buf.as_ptr(), buf.len()) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// `setsockopt` with an `int` value (the kernel doubles buffer-size
/// requests and clamps them to its configured minimum).
pub fn sys_setsockopt_int(fd: RawFd, level: i32, optname: i32, value: i32) -> io::Result<()> {
    let bytes = value.to_ne_bytes();
    cvt(unsafe { setsockopt(fd, level, optname, bytes.as_ptr(), bytes.len() as u32) }).map(|_| ())
}

/// `close`, errors ignored (nothing sane to do with them at drop time).
pub fn sys_close(fd: RawFd) {
    unsafe {
        close(fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_slack_is_set_for_the_calling_thread_only() {
        const PR_GET_TIMERSLACK: i32 = 30;
        let before = unsafe { prctl(PR_GET_TIMERSLACK) };
        let inside = std::thread::spawn(|| {
            sys_set_timer_slack_ns(1).unwrap();
            unsafe { prctl(PR_GET_TIMERSLACK) }
        })
        .join()
        .unwrap();
        assert_eq!(inside, 1);
        assert_eq!(unsafe { prctl(PR_GET_TIMERSLACK) }, before);
    }
}
