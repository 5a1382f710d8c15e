//! The system calls the standard library lacks: a periodic `timerfd`,
//! so the load generator can block in epoll until the next tick instead
//! of spinning (epoll's own timeout only has millisecond resolution);
//! `SO_LINGER` with a zero timeout, so a finished session leaves no
//! TIME_WAIT socket behind; and the thread and process CPU clocks.

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::os::raw::{c_int, c_long};
use std::time::Duration;

const CLOCK_MONOTONIC: c_int = 1;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const TFD_NONBLOCK: c_int = 0o4000;
const TFD_CLOEXEC: c_int = 0o2000000;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

const SOL_SOCKET: c_int = 1;
const SO_LINGER: c_int = 13;

#[repr(C)]
struct Linger {
    l_onoff: c_int,
    l_linger: c_int,
}

extern "C" {
    fn clock_gettime(clockid: c_int, tp: *mut Timespec) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        name: c_int,
        value: *const std::ffi::c_void,
        len: u32,
    ) -> c_int;
    fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
    fn timerfd_settime(
        fd: c_int,
        flags: c_int,
        new_value: *const Itimerspec,
        old_value: *mut Itimerspec,
    ) -> c_int;
}

/// CPU nanoseconds the calling thread has run, exact to the call (the
/// thread's own `schedstat` lags by up to a scheduler tick).
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU nanoseconds the whole process has run, exited threads included.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

fn cpu_clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid-out timespec the kernel
    // writes once; it keeps no pointer past return.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc < 0 {
        return 0;
    }
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Makes closing `fd` reset the connection instead of sending FIN, so
/// neither end keeps the connection in TIME_WAIT. Call it only once the
/// peer's FIN has arrived: nothing is in flight that a reset could lose.
pub fn reset_on_close(fd: RawFd) -> io::Result<()> {
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: `linger` is a live, properly laid-out struct linger for the
    // duration of the call and `len` is its exact size; the kernel copies
    // it and keeps no pointer past return. A bad `fd` fails with EBADF.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_LINGER,
            std::ptr::addr_of!(linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A nonblocking periodic timer; readable once per elapsed period.
pub struct Ticker {
    file: File,
}

impl Ticker {
    /// Starts a timer that first fires after `period` and then every
    /// `period`.
    pub fn start(period: Duration) -> io::Result<Self> {
        // SAFETY: timerfd_create takes no pointers and returns either a
        // fresh descriptor or -1.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by timerfd_create and nothing
        // else owns it; the File closes it on drop.
        let file = unsafe { File::from_raw_fd(fd) };
        let spec = Timespec {
            tv_sec: c_long::try_from(period.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: c_long::from(period.subsec_nanos()),
        };
        let value = Itimerspec {
            it_interval: Timespec { ..spec },
            it_value: spec,
        };
        // SAFETY: `value` is a live, properly laid-out itimerspec for the
        // duration of the call; a null old_value is allowed, and the
        // kernel keeps no pointer past return.
        let rc = unsafe { timerfd_settime(fd, 0, &value, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { file })
    }

    pub fn fd(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Consumes the pending expirations; returns how many periods ended
    /// since the last call (0 if none).
    pub fn expirations(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        match self.file.read(&mut buf) {
            Ok(8) => u64::from_ne_bytes(buf),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticker_fires_periodically() {
        let mut t = Ticker::start(Duration::from_millis(1)).unwrap();
        assert_eq!(t.expirations(), 0);
        std::thread::sleep(Duration::from_millis(5));
        let n = t.expirations();
        assert!((3..=6).contains(&n), "{n}");
    }
}
