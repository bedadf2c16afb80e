//! A minimal `mio`-style readiness shim over raw `epoll`.
//!
//! The workspace has no registry access, so — like the `shims/` crates
//! standing in for parking_lot and crossbeam — this crate binds the four
//! syscalls an event loop needs (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, plus `fcntl` for `O_NONBLOCK`) directly
//! against libc, the same way `decibel-server`'s signal handler binds
//! `signal`. The API is the familiar readiness-polling shape:
//!
//! * [`Poll`] owns the epoll instance; sockets are registered under a
//!   caller-chosen [`Token`] with an [`Interest`] (readable / writable /
//!   both) and a [`Trigger`] (level- or edge-triggered).
//! * [`Poll::poll`] blocks up to a deadline and fills an [`Events`]
//!   buffer; each [`Event`] reports its token plus readable / writable /
//!   error / peer-closed readiness.
//! * [`Waker`] is an `eventfd` registered with the poll, so another
//!   thread can interrupt a blocked `poll` — the cross-thread shutdown
//!   and work-completion signal.
//!
//! Readiness is a *permission to try*, not a promise: consumers perform
//! nonblocking I/O until `WouldBlock` and treat readiness as a hint, which
//! is also why spurious wakeups are harmless. On non-Linux targets the
//! crate compiles but [`Poll::new`] returns `Unsupported`; everything that
//! runs in this workspace (CI included) is Linux.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Caller-chosen identifier attached to a registration; [`Event`]s carry
/// it back. The value is opaque to the poller (it travels through
/// `epoll_data`), so slab indices, fd numbers, or sentinel values all
/// work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// Which readiness a registration asks for. Combine with `|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// No readiness. A registration with `NONE` still reports errors and
    /// peer hangups (epoll always delivers those), which is how an event
    /// loop parks a connection it has stopped reading — e.g. for
    /// backpressure — without losing disconnect notifications.
    pub const NONE: Interest = Interest(0);
    /// Readable readiness (data to read, or peer closed).
    pub const READABLE: Interest = Interest(0b01);
    /// Writable readiness (send buffer has room).
    pub const WRITABLE: Interest = Interest(0b10);

    /// True if the interest includes readable readiness.
    pub fn is_readable(self) -> bool {
        self.0 & Self::READABLE.0 != 0
    }

    /// True if the interest includes writable readiness.
    pub fn is_writable(self) -> bool {
        self.0 & Self::WRITABLE.0 != 0
    }
}

/// The union of two interests.
impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// Level- vs edge-triggered delivery for a registration.
///
/// Level (the default shape this workspace's server uses) re-reports a
/// condition on every poll while it holds, so a consumer may leave bytes
/// unread without losing the wakeup. Edge reports only transitions; the
/// consumer must drain to `WouldBlock` before polling again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Trigger {
    /// Re-report readiness while the condition holds.
    #[default]
    Level,
    /// Report only readiness *transitions* (`EPOLLET`).
    Edge,
}

/// One readiness notification out of [`Poll::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    error: bool,
    read_closed: bool,
}

impl Event {
    /// The token the fd was registered under.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The fd is readable (or the peer closed — a read will say which).
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// The fd is writable.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// The fd is in an error state (`EPOLLERR`); reported regardless of
    /// registered interest.
    pub fn is_error(&self) -> bool {
        self.error
    }

    /// The peer closed its end (`EPOLLHUP`/`EPOLLRDHUP`); reported
    /// regardless of registered interest.
    pub fn is_read_closed(&self) -> bool {
        self.read_closed
    }
}

/// Sets or clears `O_NONBLOCK` on a raw descriptor via `fcntl` — for fds
/// that do not go through std's `set_nonblocking` (accepted sockets do;
/// eventfds are created nonblocking directly).
pub fn set_nonblocking(fd: RawFd, nonblocking: bool) -> io::Result<()> {
    sys::set_nonblocking(fd, nonblocking)
}

/// Requests a kernel send-buffer of at least `bytes` for a socket
/// (`SO_SNDBUF`; the kernel doubles the value and clamps it to
/// `wmem_max`). std exposes no knob for this, and event-loop streamers
/// want one: a bigger send buffer lets a burst (e.g. a multi-chunk scan
/// result) land in kernel space in one sitting instead of bouncing the
/// producer through `WouldBlock`/writable-event cycles. Best-effort by
/// nature — the clamp is invisible here; callers must not rely on the
/// size taking effect.
pub fn set_send_buffer_size(fd: RawFd, bytes: usize) -> io::Result<()> {
    sys::set_send_buffer_size(fd, bytes)
}

/// A reusable buffer of readiness events for [`Poll::poll`].
pub struct Events {
    inner: sys::EventsBuf,
}

impl Events {
    /// A buffer that can carry up to `capacity` events per poll. More
    /// ready fds than `capacity` are not lost — they surface on the next
    /// poll (level-triggered) or stay queued in the kernel (edge).
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            inner: sys::EventsBuf::with_capacity(capacity.max(1)),
        }
    }

    /// Events delivered by the last [`Poll::poll`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.inner.iter()
    }

    /// True if the last poll delivered nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }
}

/// The readiness selector: one epoll instance.
///
/// `Poll` is `Sync` in the narrow sense the server needs — [`Waker::wake`]
/// may be called from any thread — but registration and polling belong to
/// the event-loop thread.
pub struct Poll {
    sys: sys::Selector,
}

impl Poll {
    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Poll> {
        Ok(Poll {
            sys: sys::Selector::new()?,
        })
    }

    /// Registers `fd` for `interest` under `token`. One registration per
    /// fd; use [`Poll::reregister`] to change interest or token.
    pub fn register(
        &self,
        fd: &impl AsRawFd,
        token: Token,
        interest: Interest,
        trigger: Trigger,
    ) -> io::Result<()> {
        self.sys
            .ctl(sys::CtlOp::Add, fd.as_raw_fd(), token, interest, trigger)
    }

    /// Changes an existing registration's interest/token/trigger.
    pub fn reregister(
        &self,
        fd: &impl AsRawFd,
        token: Token,
        interest: Interest,
        trigger: Trigger,
    ) -> io::Result<()> {
        self.sys
            .ctl(sys::CtlOp::Mod, fd.as_raw_fd(), token, interest, trigger)
    }

    /// Removes a registration. Closing the fd deregisters implicitly, but
    /// an explicit deregister keeps the bookkeeping honest while the fd is
    /// still open (e.g. a connection being handed off).
    pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.sys.ctl(
            sys::CtlOp::Del,
            fd.as_raw_fd(),
            Token(0),
            Interest(0),
            Trigger::Level,
        )
    }

    /// Blocks until at least one registered fd is ready, the timeout
    /// elapses (`Ok` with empty `events`), or a [`Waker`] fires. `None`
    /// waits indefinitely. Interrupted waits (`EINTR`) are retried.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        self.sys.wait(&mut events.inner, timeout)
    }
}

/// Cross-thread wakeup for a blocked [`Poll::poll`]: an `eventfd`
/// registered level-triggered under a caller-chosen token. Any thread may
/// call [`Waker::wake`]; the event loop sees a readable event with the
/// waker's token and calls [`Waker::drain`] before acting, so coalesced
/// wakes collapse into one notification.
pub struct Waker {
    sys: sys::WakerFd,
}

impl Waker {
    /// Creates the eventfd and registers it with `poll` under `token`.
    pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
        let sys = sys::WakerFd::new()?;
        poll.register(&sys, token, Interest::READABLE, Trigger::Level)?;
        Ok(Waker { sys })
    }

    /// Wakes the poller (nonblocking, callable from any thread; coalesces
    /// with earlier undrained wakes).
    pub fn wake(&self) -> io::Result<()> {
        self.sys.wake()
    }

    /// Clears pending wakes so the level-triggered registration stops
    /// reporting readable. The event loop calls this when it sees the
    /// waker's token.
    pub fn drain(&self) {
        self.sys.drain()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw Linux bindings: the syscall surface and the structs it needs,
    //! declared against libc symbols (every Linux target links libc; the
    //! workspace deliberately carries no libc *crate*).

    use super::{Event, Interest, Token, Trigger};
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::os::raw::{c_int, c_uint, c_void};
    use std::time::Duration;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;

    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const O_NONBLOCK: c_int = 0o4000;

    const SOL_SOCKET: c_int = 1;
    const SO_SNDBUF: c_int = 7;

    /// `struct epoll_event`. Packed on x86/x86_64 (the kernel ABI there),
    /// naturally aligned elsewhere (aarch64, riscv) — matching libc.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        events: u32,
        data: u64,
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub(super) fn set_nonblocking(fd: RawFd, nonblocking: bool) -> io::Result<()> {
        let flags = unsafe { cvt(fcntl(fd, F_GETFL, 0))? };
        let flags = if nonblocking {
            flags | O_NONBLOCK
        } else {
            flags & !O_NONBLOCK
        };
        unsafe { cvt(fcntl(fd, F_SETFL, flags))? };
        Ok(())
    }

    pub(super) fn set_send_buffer_size(fd: RawFd, bytes: usize) -> io::Result<()> {
        let val: c_int = bytes.min(c_int::MAX as usize) as c_int;
        unsafe {
            cvt(setsockopt(
                fd,
                SOL_SOCKET,
                SO_SNDBUF,
                &val as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as u32,
            ))?;
        }
        Ok(())
    }

    pub(super) enum CtlOp {
        Add,
        Mod,
        Del,
    }

    pub(super) struct Selector {
        epfd: RawFd,
    }

    impl Selector {
        pub(super) fn new() -> io::Result<Selector> {
            let epfd = unsafe { cvt(epoll_create1(EPOLL_CLOEXEC))? };
            Ok(Selector { epfd })
        }

        pub(super) fn ctl(
            &self,
            op: CtlOp,
            fd: RawFd,
            token: Token,
            interest: Interest,
            trigger: Trigger,
        ) -> io::Result<()> {
            let mut bits = EPOLLRDHUP;
            if interest.is_readable() {
                bits |= EPOLLIN;
            }
            if interest.is_writable() {
                bits |= EPOLLOUT;
            }
            if matches!(trigger, Trigger::Edge) {
                bits |= EPOLLET;
            }
            let mut ev = EpollEvent {
                events: bits,
                data: token.0 as u64,
            };
            let op = match op {
                CtlOp::Add => EPOLL_CTL_ADD,
                CtlOp::Mod => EPOLL_CTL_MOD,
                CtlOp::Del => EPOLL_CTL_DEL,
            };
            unsafe { cvt(epoll_ctl(self.epfd, op, fd, &mut ev))? };
            Ok(())
        }

        pub(super) fn wait(
            &self,
            events: &mut EventsBuf,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            // Round the timeout *up* to whole milliseconds: rounding down
            // turns a 0.4 ms deadline into a busy loop.
            let ms: c_int = match timeout {
                None => -1,
                Some(d) => {
                    let ms = d.as_millis() + u128::from(d.subsec_nanos() % 1_000_000 != 0);
                    ms.min(c_int::MAX as u128) as c_int
                }
            };
            loop {
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        events.buf.as_mut_ptr(),
                        events.buf.len() as c_int,
                        ms,
                    )
                };
                if n >= 0 {
                    events.len = n as usize;
                    return Ok(());
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
                // EINTR: retry with the same timeout (a signal-interrupted
                // wait extends an idle deadline by at most one period).
            }
        }
    }

    impl Drop for Selector {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    pub(super) struct EventsBuf {
        buf: Vec<EpollEvent>,
        len: usize,
    }

    impl EventsBuf {
        pub(super) fn with_capacity(capacity: usize) -> EventsBuf {
            EventsBuf {
                buf: vec![EpollEvent { events: 0, data: 0 }; capacity],
                len: 0,
            }
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }

        pub(super) fn iter(&self) -> impl Iterator<Item = Event> + '_ {
            self.buf[..self.len].iter().map(|raw| {
                // Copy out of the (possibly packed) struct before testing
                // bits: references into packed fields are UB.
                let bits = raw.events;
                let data = raw.data;
                Event {
                    token: Token(data as usize),
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & EPOLLERR != 0,
                    read_closed: bits & (EPOLLHUP | EPOLLRDHUP) != 0,
                }
            })
        }
    }

    pub(super) struct WakerFd {
        fd: RawFd,
    }

    impl WakerFd {
        pub(super) fn new() -> io::Result<WakerFd> {
            let fd = unsafe { cvt(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))? };
            Ok(WakerFd { fd })
        }

        pub(super) fn wake(&self) -> io::Result<()> {
            let one: u64 = 1;
            let n = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
            if n == 8 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            // The counter is saturated (u64::MAX - 1 pending wakes): the
            // poller is already as woken as it gets.
            if err.kind() == io::ErrorKind::WouldBlock {
                return Ok(());
            }
            Err(err)
        }

        pub(super) fn drain(&self) {
            let mut count: u64 = 0;
            // Nonblocking: one read clears the whole counter.
            unsafe { read(self.fd, (&mut count as *mut u64).cast(), 8) };
        }
    }

    impl AsRawFd for WakerFd {
        fn as_raw_fd(&self) -> RawFd {
            self.fd
        }
    }

    impl Drop for WakerFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    // The fds are plain integers; cross-thread wake is the whole point.
    unsafe impl Send for Selector {}
    unsafe impl Sync for Selector {}
    unsafe impl Send for WakerFd {}
    unsafe impl Sync for WakerFd {}
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Stub so the workspace still type-checks off-Linux; every
    //! constructor reports `Unsupported`.

    use super::{Event, Interest, Token, Trigger};
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "decibel_netio requires Linux epoll",
        )
    }

    pub(super) fn set_nonblocking(_fd: RawFd, _nonblocking: bool) -> io::Result<()> {
        Err(unsupported())
    }

    pub(super) fn set_send_buffer_size(_fd: RawFd, _bytes: usize) -> io::Result<()> {
        Err(unsupported())
    }

    pub(super) enum CtlOp {
        Add,
        Mod,
        Del,
    }

    pub(super) struct Selector;

    impl Selector {
        pub(super) fn new() -> io::Result<Selector> {
            Err(unsupported())
        }

        pub(super) fn ctl(
            &self,
            _op: CtlOp,
            _fd: RawFd,
            _token: Token,
            _interest: Interest,
            _trigger: Trigger,
        ) -> io::Result<()> {
            Err(unsupported())
        }

        pub(super) fn wait(
            &self,
            _events: &mut EventsBuf,
            _timeout: Option<Duration>,
        ) -> io::Result<()> {
            Err(unsupported())
        }
    }

    pub(super) struct EventsBuf;

    impl EventsBuf {
        pub(super) fn with_capacity(_capacity: usize) -> EventsBuf {
            EventsBuf
        }

        pub(super) fn len(&self) -> usize {
            0
        }

        pub(super) fn iter(&self) -> impl Iterator<Item = Event> + '_ {
            std::iter::empty()
        }
    }

    pub(super) struct WakerFd;

    impl WakerFd {
        pub(super) fn new() -> io::Result<WakerFd> {
            Err(unsupported())
        }

        pub(super) fn wake(&self) -> io::Result<()> {
            Err(unsupported())
        }

        pub(super) fn drain(&self) {}
    }

    impl AsRawFd for WakerFd {
        fn as_raw_fd(&self) -> RawFd {
            -1
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    const LISTENER: Token = Token(0);
    const WAKER: Token = Token(1);
    const CONN: Token = Token(2);

    #[test]
    fn waker_interrupts_a_blocked_poll() {
        let poll = Poll::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&poll, WAKER).unwrap());
        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake().unwrap();
        });
        let mut events = Events::with_capacity(4);
        // Indefinite wait: only the waker can end it.
        poll.poll(&mut events, None).unwrap();
        let tokens: Vec<Token> = events.iter().map(|e| e.token()).collect();
        assert_eq!(tokens, vec![WAKER]);
        waker.drain();
        // Drained: the next poll times out empty.
        poll.poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        t.join().unwrap();
    }

    #[test]
    fn readiness_tracks_accept_data_and_hangup() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poll.register(&listener, LISTENER, Interest::READABLE, Trigger::Level)
            .unwrap();

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events
            .iter()
            .any(|e| e.token() == LISTENER && e.is_readable()));

        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        poll.register(
            &conn,
            CONN,
            Interest::READABLE | Interest::WRITABLE,
            Trigger::Level,
        )
        .unwrap();

        // A fresh socket is writable but not readable.
        poll.poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let ev = events.iter().find(|e| e.token() == CONN).unwrap();
        assert!(ev.is_writable() && !ev.is_readable());

        // Level-triggered: unread data keeps reporting readable.
        client.write_all(b"ping").unwrap();
        for _ in 0..2 {
            poll.poll(&mut events, Some(Duration::from_secs(2)))
                .unwrap();
            let ev = events.iter().find(|e| e.token() == CONN).unwrap();
            assert!(ev.is_readable());
        }
        let mut conn = conn;
        let mut buf = [0u8; 16];
        assert_eq!(conn.read(&mut buf).unwrap(), 4);

        // Peer hangup surfaces as read-closed readiness.
        drop(client);
        poll.poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        let ev = events.iter().find(|e| e.token() == CONN).unwrap();
        assert!(ev.is_read_closed());

        poll.deregister(&conn).unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.iter().all(|e| e.token() != CONN));
    }

    #[test]
    fn edge_trigger_reports_transitions_once() {
        let poll = Poll::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        poll.register(&conn, CONN, Interest::READABLE, Trigger::Edge)
            .unwrap();

        client.write_all(b"x").unwrap();
        let mut events = Events::with_capacity(4);
        poll.poll(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == CONN && e.is_readable()));
        // Edge: without reading, no *new* transition, so the next poll is
        // silent even though bytes remain buffered.
        poll.poll(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn set_nonblocking_controls_would_block() {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut conn, _) = listener.accept().unwrap();
        set_nonblocking(conn.as_raw_fd(), true).unwrap();
        let mut buf = [0u8; 4];
        let err = conn.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }
}
