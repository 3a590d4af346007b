//! Raw syscall surface of the reactor: `epoll`, `eventfd`.
//!
//! The build container has no crates.io access, so there is no `libc`
//! crate to lean on; the reactor declares the handful of C functions it
//! needs directly. Everything here is a thin `unsafe extern` shim plus
//! the constants the poller uses — all policy lives in
//! [`crate::poller`].

#![allow(non_camel_case_types)]

use std::io;
use std::os::unix::io::RawFd;

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

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32) -> i32;
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

/// `epoll_wait`, retried on `EINTR`. `timeout_ms` of `-1` blocks.
pub fn sys_epoll_wait(
    epfd: RawFd,
    events: &mut [epoll_event],
    timeout_ms: i32,
) -> io::Result<usize> {
    loop {
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
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
