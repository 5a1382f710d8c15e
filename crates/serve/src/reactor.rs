//! Raw, zero-dependency `epoll` bindings: the reactor's syscall floor.
//!
//! The serve reactor multiplexes tens of thousands of sockets per shard
//! thread, which needs readiness notification the standard library does
//! not expose. Rather than pull in an async runtime or an FFI crate,
//! this module declares the syscalls it needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `fcntl`, plus `setsockopt` for buffer
//! sizing and `listen` for the accept backlog) against the libc the
//! standard library already links, and wraps them in a safe, minimal
//! surface:
//!
//! - [`Epoll`] — an owned epoll instance; register/modify/remove
//!   interest per fd with a caller-chosen `u64` token, then
//!   [`wait`](Epoll::wait) for a batch of [`Event`]s. Registration is
//!   **level-triggered**: a readable socket keeps reporting readable
//!   until drained, so a shard loop that under-reads one tick is
//!   corrected the next — no edge-triggered starvation hazards.
//! - [`set_nonblocking`] — `fcntl(F_SETFL, O_NONBLOCK)` on a raw fd.
//! - [`set_send_buffer`] / [`set_recv_buffer`] — `SO_SNDBUF` /
//!   `SO_RCVBUF`, used to bound kernel-side buffering per connection at
//!   100k-connection scale (and by tests to make backpressure prompt).
//! - [`widen_backlog`] — `listen(2)` again on a bound listener with the
//!   largest backlog the kernel allows, since the standard library
//!   listens with 128.
//!
//! This file is the workspace's only sanctioned `unsafe` island:
//! livephase-lint's `safety-comment` rule refuses `unsafe` in any other
//! file, and every block here carries a `// SAFETY:` argument. The rest
//! of the serve crate stays `deny(unsafe_code)`.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::{FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};
use std::time::Duration;

/// `epoll_event` as the kernel ABI lays it out. On x86-64 the kernel
/// declares the struct packed (no padding between the 32-bit event mask
/// and the 64-bit data word); elsewhere it uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: c_uint,
    ) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o200_0000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;
const SO_RCVBUF: c_int = 8;

/// Which readiness a registration asks for. Level-triggered; peer
/// hangup ([`Event::hangup`]) is always watched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only — the steady state of a connection with nothing
    /// queued outbound.
    Read,
    /// Readable and writable — registered while the outbound buffer is
    /// non-empty, dropped back to [`Interest::Read`] once drained (a
    /// level-triggered `EPOLLOUT` on an idle socket would busy-spin).
    ReadWrite,
    /// Writable only — a shedding connection that must drain its typed
    /// error but whose inbound bytes we no longer want.
    Write,
}

impl Interest {
    fn mask(self) -> u32 {
        match self {
            Self::Read => EPOLLIN | EPOLLRDHUP,
            Self::ReadWrite => EPOLLIN | EPOLLOUT | EPOLLRDHUP,
            Self::Write => EPOLLOUT | EPOLLRDHUP,
        }
    }
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Bytes (or an accept) are waiting.
    pub readable: bool,
    /// The socket can take more outbound bytes.
    pub writable: bool,
    /// The peer hung up or the socket errored; readable data may still
    /// be pending (level-triggered reads drain it first).
    pub hangup: bool,
}

/// Reusable event batch buffer for [`Epoll::wait`] — allocated once per
/// shard, never per tick.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity],
            len: 0,
        }
    }

    /// Events delivered by the most recent wait.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the most recent wait delivered nothing (pure tick).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the events of the most recent wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf.iter().take(self.len).map(|raw| {
            // Copy out of the (possibly packed) ABI struct by value;
            // taking references into it would be unaligned.
            let e = *raw;
            let bits = e.events;
            Event {
                token: e.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            }
        })
    }
}

/// An owned epoll instance. Closed on drop; registered fds are *not*
/// owned — callers keep their `TcpStream`s and deregister before close.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a new epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// The raw OS error when the kernel refuses (e.g. fd limit).
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes no pointers; it either yields a
        // fresh descriptor or fails with a negative return.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: the descriptor was just created by epoll_create1 and
        // is owned exclusively here; OwnedFd takes over closing it.
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: mask,
            data: token,
        };
        let epfd = raw(&self.fd);
        // SAFETY: `event` is a live, properly laid-out epoll_event for
        // the duration of the call; the kernel copies it and keeps no
        // pointer past return. `epfd` is owned by self and open.
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` with the given interest and token.
    ///
    /// # Errors
    ///
    /// The raw OS error (e.g. `EEXIST` for a double add).
    pub fn add(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.mask(), token)
    }

    /// Changes an existing registration's interest (and token).
    ///
    /// # Errors
    ///
    /// The raw OS error (e.g. `ENOENT` when `fd` was never added).
    pub fn modify(&self, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.mask(), token)
    }

    /// Removes `fd` from the interest set. (Closing an fd removes it
    /// implicitly, but explicit removal keeps bookkeeping honest.)
    ///
    /// # Errors
    ///
    /// The raw OS error.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // A non-null event pointer is still required by kernels older
        // than 2.6.9; passing a zeroed one is compatible with all.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, filling `events`, for at most `timeout`
    /// (`None` blocks indefinitely). Returns the number of events;
    /// `EINTR` is treated as an empty wake, not an error.
    ///
    /// # Errors
    ///
    /// The raw OS error for anything other than `EINTR`.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => c_int::try_from(d.as_millis()).unwrap_or(c_int::MAX),
        };
        let capacity =
            c_int::try_from(events.buf.len()).unwrap_or_else(|_| unreachable!("bounded capacity"));
        let epfd = raw(&self.fd);
        // SAFETY: `events.buf` is a live, exclusively borrowed slice of
        // `capacity` properly laid-out epoll_events; the kernel writes
        // at most `capacity` entries and keeps no pointer past return.
        let rc = unsafe { epoll_wait(epfd, events.buf.as_mut_ptr(), capacity, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                events.len = 0;
                return Ok(0);
            }
            return Err(err);
        }
        events.len = usize::try_from(rc).unwrap_or(0);
        Ok(events.len)
    }
}

fn raw(fd: &OwnedFd) -> c_int {
    use std::os::fd::AsRawFd;
    fd.as_raw_fd()
}

/// Sets or clears `O_NONBLOCK` on a raw descriptor via `fcntl`.
///
/// # Errors
///
/// The raw OS error from either `fcntl` call.
pub fn set_nonblocking(fd: RawFd, nonblocking: bool) -> io::Result<()> {
    // SAFETY: F_GETFL passes no pointers and does not retain `fd`; the
    // caller guarantees `fd` is a live descriptor it owns.
    let flags = unsafe { fcntl(fd, F_GETFL) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    let want = if nonblocking {
        flags | O_NONBLOCK
    } else {
        flags & !O_NONBLOCK
    };
    if want == flags {
        return Ok(());
    }
    // SAFETY: F_SETFL takes its int argument by value — no pointers,
    // no retention; `fd` is live per the caller.
    let rc = unsafe { fcntl(fd, F_SETFL, want) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

fn set_buffer(fd: RawFd, opt: c_int, bytes: usize) -> io::Result<()> {
    let value: c_int = c_int::try_from(bytes).unwrap_or(c_int::MAX);
    let size = c_uint::try_from(std::mem::size_of::<c_int>())
        .unwrap_or_else(|_| unreachable!("size_of::<c_int>() fits c_uint"));
    // SAFETY: `value` outlives the call and `optlen` states its exact
    // size; the kernel copies the int and keeps no pointer past return.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            std::ptr::addr_of!(value).cast::<c_void>(),
            size,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Caps the kernel send buffer (`SO_SNDBUF`) for a socket. At
/// 100k-connection scale default send buffers dominate memory; the
/// reactor's own bounded outbound queue then carries the backpressure.
///
/// # Errors
///
/// The raw OS error.
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buffer(fd, SO_SNDBUF, bytes)
}

/// Caps the kernel receive buffer (`SO_RCVBUF`) for a socket. Used by
/// backpressure tests to make a non-draining peer overflow promptly.
///
/// # Errors
///
/// The raw OS error.
pub fn set_recv_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buffer(fd, SO_RCVBUF, bytes)
}

/// Re-listens on a listening socket with the largest backlog the kernel
/// allows. `TcpListener::bind` listens with a backlog of 128, so a
/// connect wave wider than that overflows the accept queue and the
/// dropped SYNs retransmit a second later. Linux clamps the request to
/// `net.core.somaxconn` and lets a listening socket change its backlog
/// by calling `listen(2)` again.
///
/// # Errors
///
/// The raw OS error (e.g. `EINVAL` when `fd` is a connected socket).
pub fn widen_backlog(fd: RawFd) -> io::Result<()> {
    // SAFETY: listen takes its arguments by value — no pointers, no
    // retention; an fd that is not a live socket only yields an error.
    let rc = unsafe { listen(fd, c_int::MAX) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let epoll = Epoll::new().unwrap();
        let mut events = Events::with_capacity(8);

        // The idle listener is not readable within a short wait.
        epoll.add(listener.as_raw_fd(), Interest::Read, 1).unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());

        // A connect makes it readable with our token.
        let client = TcpStream::connect(addr).unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.token, 1);
        assert!(ev.readable);

        // Accept; the server end is writable but not readable until the
        // client sends.
        let (server, _) = listener.accept().unwrap();
        epoll
            .add(server.as_raw_fd(), Interest::ReadWrite, 2)
            .unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(n >= 1);
        let ev = events.iter().find(|e| e.token == 2).unwrap();
        assert!(ev.writable && !ev.readable);

        // Bytes from the client flip it readable.
        (&client).write_all(b"ping").unwrap();
        epoll.modify(server.as_raw_fd(), Interest::Read, 2).unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(n >= 1);
        let ev = events.iter().find(|e| e.token == 2).unwrap();
        assert!(ev.readable);

        // Dropping the client raises hangup on the server end.
        drop(client);
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(n >= 1);
        let ev = events.iter().find(|e| e.token == 2).unwrap();
        assert!(ev.hangup);

        epoll.delete(server.as_raw_fd()).unwrap();
        epoll.delete(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn nonblocking_read_returns_would_block() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        set_nonblocking(server.as_raw_fd(), true).unwrap();
        let mut buf = [0u8; 16];
        let err = (&server).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        // Idempotent set, then clear.
        set_nonblocking(server.as_raw_fd(), true).unwrap();
        set_nonblocking(server.as_raw_fd(), false).unwrap();
        drop(client);
    }

    #[test]
    fn socket_buffers_can_be_capped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_send_buffer(client.as_raw_fd(), 4096).unwrap();
        set_recv_buffer(client.as_raw_fd(), 4096).unwrap();
    }

    #[test]
    fn only_a_listener_can_widen_its_backlog() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        widen_backlog(listener.as_raw_fd()).unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        assert!(widen_backlog(server.as_raw_fd()).is_err());
        drop(client);
    }

    #[test]
    fn delete_of_unregistered_fd_errors() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let epoll = Epoll::new().unwrap();
        assert!(epoll.delete(listener.as_raw_fd()).is_err());
    }
}
