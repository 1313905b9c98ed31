//! Offline stand-in for the Linux readiness syscalls: `epoll_create1` /
//! `epoll_ctl` / `epoll_wait`, `eventfd`, and `ppoll`.
//!
//! The build environment has no crates-registry access, so — like the other
//! `compat/` crates — this one brings the missing capability in-tree instead
//! of depending on `libc`/`mio`/`polling`. The syscalls are invoked raw
//! (inline `asm!` with per-architecture syscall numbers on x86_64/aarch64,
//! the C `syscall(2)` symbol std already links elsewhere), wrapped in a
//! small safe API:
//!
//! * [`Epoll`] — a readiness set: register fds with a `u64` token, wait for
//!   events with a timeout rounded up to whole milliseconds.
//! * [`EventFd`] — a cross-thread wakeup: any thread [`EventFd::signal`]s,
//!   the reactor sees the fd readable and [`EventFd::drain`]s it.
//! * [`poll_one`] — one-shot readiness probe of a single fd (`ppoll`),
//!   used to detect stale pooled connections without consuming bytes.
//!
//! All `unsafe` in the serving stack lives here; the callers
//! (`doduo-served`'s reactor, `doduo-balance`'s backend pool) stay
//! `forbid(unsafe_code)`-clean.

#![warn(missing_docs)]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

// ---------------------------------------------------------------- syscalls

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const PPOLL: usize = 271;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const PPOLL: usize = 73;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
}

/// Raw 6-argument syscall; returns the kernel's `-errno` convention.
///
/// # Safety
/// The caller must uphold the invoked syscall's contract (valid pointers,
/// correct lengths) exactly as for any FFI call.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall6(
    nr: usize,
    a0: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a0,
        in("rsi") a1,
        in("rdx") a2,
        in("r10") a3,
        in("r8") a4,
        in("r9") a5,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// Raw 6-argument syscall; returns the kernel's `-errno` convention.
///
/// # Safety
/// As for the x86_64 variant: the syscall's own contract applies.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall6(
    nr: usize,
    a0: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") nr,
        inlateout("x0") a0 => ret,
        in("x1") a1,
        in("x2") a2,
        in("x3") a3,
        in("x4") a4,
        in("x5") a5,
        options(nostack),
    );
    ret
}

/// Fallback for Linux architectures without an inline-asm table here:
/// route through the C library's `syscall(2)`, which std already links.
#[cfg(all(target_os = "linux", not(any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod nr {
    pub const READ: usize = 0xffff_0000;
    pub const WRITE: usize = 0xffff_0001;
    pub const PPOLL: usize = 0xffff_0002;
    pub const EPOLL_CTL: usize = 0xffff_0003;
    pub const EPOLL_PWAIT: usize = 0xffff_0004;
    pub const EVENTFD2: usize = 0xffff_0005;
    pub const EPOLL_CREATE1: usize = 0xffff_0006;
}

#[cfg(not(target_os = "linux"))]
compile_error!("the epoll compat shim targets Linux (the only platform this workspace serves on)");

#[cfg(all(target_os = "linux", not(any(target_arch = "x86_64", target_arch = "aarch64"))))]
unsafe fn syscall6(
    nr: usize,
    a0: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
) -> isize {
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut u8) -> i32;
        fn epoll_pwait(
            epfd: i32,
            events: *mut u8,
            max: i32,
            timeout: i32,
            sigmask: *const u8,
        ) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn ppoll(fds: *mut u8, nfds: usize, ts: *const u8, sigmask: *const u8) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    fn errno_result(r: isize) -> isize {
        if r < 0 {
            -(io::Error::last_os_error().raw_os_error().unwrap_or(5) as isize)
        } else {
            r
        }
    }
    match nr {
        x if x == nr::READ => errno_result(read(a0 as i32, a1 as *mut u8, a2)),
        x if x == nr::WRITE => errno_result(write(a0 as i32, a1 as *const u8, a2)),
        x if x == nr::PPOLL => {
            errno_result(ppoll(a0 as *mut u8, a1, a2 as *const u8, a3 as *const u8) as isize)
        }
        x if x == nr::EPOLL_CTL => {
            errno_result(epoll_ctl(a0 as i32, a1 as i32, a2 as i32, a3 as *mut u8) as isize)
        }
        x if x == nr::EPOLL_PWAIT => errno_result(epoll_pwait(
            a0 as i32,
            a1 as *mut u8,
            a2 as i32,
            a3 as i32,
            a4 as *const u8,
        ) as isize),
        x if x == nr::EVENTFD2 => errno_result(eventfd(a0 as u32, a1 as i32) as isize),
        x if x == nr::EPOLL_CREATE1 => errno_result(epoll_create1(a0 as i32) as isize),
        _ => -38, // ENOSYS
    }
}

/// Converts a `-errno` return into `io::Result<usize>`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

// ------------------------------------------------------------------- epoll

/// Readable: data waiting (or, with 0 bytes, EOF).
pub const EPOLLIN: u32 = 0x001;
/// Writable: the send buffer has room again.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hangup: both directions closed (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (must be registered to be reported).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x80000;

/// The kernel's `struct epoll_event`; packed on x86_64 per the ABI.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

/// One readiness event: which conditions fired, for which registration.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Bitmask of `EPOLL*` conditions.
    pub events: u32,
    /// The token passed at registration (`add`/`modify`).
    pub token: u64,
}

impl Event {
    /// True when the fd is readable (or at EOF).
    pub fn readable(&self) -> bool {
        self.events & EPOLLIN != 0
    }

    /// True when the fd is writable.
    pub fn writable(&self) -> bool {
        self.events & EPOLLOUT != 0
    }

    /// True on error/hangup conditions that mean the fd is finished.
    pub fn closed(&self) -> bool {
        self.events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0
    }
}

/// A level-triggered epoll readiness set.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Epoll { fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) } })
    }

    fn ctl(&self, op: usize, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = RawEvent { events: interest, data: token };
        let ptr = if op == EPOLL_CTL_DEL { std::ptr::null_mut() } else { &mut ev as *mut RawEvent };
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as usize,
                op,
                fd as usize,
                ptr as usize,
                0,
                0,
            )
        })
        .map(|_| ())
    }

    /// Registers `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest mask (and token) of a registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the set (safe to call on an already-closed fd).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout` (`None` = forever) and fills `out` with up to
    /// `max` events — `out` is cleared first, so it only ever holds this
    /// wait's batch. Returns the number of events delivered; `0` means
    /// the timeout elapsed. `EINTR` is swallowed and reported as `0`.
    ///
    /// As in `epoll_wait(2)`, the timeout is a minimum: it is rounded *up*
    /// to whole milliseconds, so a deadline under 1 ms away blocks rather
    /// than polls. `Some(Duration::ZERO)` is a non-blocking poll.
    pub fn wait(
        &self,
        out: &mut Vec<Event>,
        max: usize,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        out.clear();
        let max = max.clamp(1, 1024);
        // Stack scratch (12 KiB worst case) — a hot reactor calls this
        // hundreds of times per second and shouldn't pay a heap allocation
        // per wait.
        let mut raw = [RawEvent { events: 0, data: 0 }; 1024];
        let timeout_ms: isize = match timeout {
            None => -1,
            Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as isize,
        };
        let n = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.fd.as_raw_fd() as usize,
                raw.as_mut_ptr() as usize,
                max,
                timeout_ms as usize,
                0,
                8,
            )
        };
        if n == -4 {
            return Ok(0); // EINTR: treat as a timeout tick
        }
        let n = check(n)?;
        for ev in &raw[..n] {
            // A packed struct field can't be referenced in place; copy out.
            let (events, data) = (ev.events, ev.data);
            out.push(Event { events, token: data });
        }
        Ok(n)
    }
}

impl AsRawFd for Epoll {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

// ----------------------------------------------------------------- eventfd

const EFD_CLOEXEC: usize = 0x80000;
const EFD_NONBLOCK: usize = 0x800;

/// A kernel event counter used as a cross-thread wakeup: writers
/// [`EventFd::signal`], the epoll loop sees it readable and
/// [`EventFd::drain`]s. Non-blocking on both ends; sharable via `Arc`.
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// Creates the eventfd (`EFD_CLOEXEC | EFD_NONBLOCK`, counter 0).
    pub fn new() -> io::Result<EventFd> {
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        Ok(EventFd { fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) } })
    }

    /// Adds 1 to the counter, waking any epoll waiting on readability.
    /// Saturation (counter full) still leaves the fd readable, so the wake
    /// is never lost; errors other than `EAGAIN` are reported.
    pub fn signal(&self) -> io::Result<()> {
        let one: u64 = 1;
        let r = unsafe {
            syscall6(
                nr::WRITE,
                self.fd.as_raw_fd() as usize,
                &one as *const u64 as usize,
                8,
                0,
                0,
                0,
            )
        };
        if r == -11 {
            return Ok(()); // EAGAIN: counter saturated — still readable
        }
        check(r).map(|_| ())
    }

    /// Reads and resets the counter; returns it (0 when nothing pending).
    pub fn drain(&self) -> u64 {
        let mut count: u64 = 0;
        let r = unsafe {
            syscall6(
                nr::READ,
                self.fd.as_raw_fd() as usize,
                &mut count as *mut u64 as usize,
                8,
                0,
                0,
                0,
            )
        };
        if r == 8 {
            count
        } else {
            0
        }
    }
}

impl AsRawFd for EventFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

// -------------------------------------------------------------------- poll

/// `poll(2)` readable condition.
pub const POLLIN: u32 = 0x001;
/// `poll(2)` writable condition.
pub const POLLOUT: u32 = 0x004;
/// `poll(2)` error condition (output only).
pub const POLLERR: u32 = 0x008;
/// `poll(2)` hangup condition (output only).
pub const POLLHUP: u32 = 0x010;
/// `poll(2)` peer-closed-write-half condition.
pub const POLLRDHUP: u32 = 0x2000;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    secs: i64,
    nanos: i64,
}

/// Polls one fd for the `interest` conditions (`POLLIN`/`POLLOUT`) with a
/// timeout (`Some(ZERO)` = instant probe). Returns the fired `revents`
/// mask — `0` when the timeout elapsed with nothing ready.
pub fn poll_one(fd: RawFd, interest: u32, timeout: Option<Duration>) -> io::Result<u32> {
    let mut pfd = PollFd { fd, events: interest as i16, revents: 0 };
    let ts;
    let ts_ptr = match timeout {
        None => std::ptr::null::<Timespec>(),
        Some(d) => {
            ts = Timespec { secs: d.as_secs() as i64, nanos: d.subsec_nanos() as i64 };
            &ts as *const Timespec
        }
    };
    let r = unsafe {
        syscall6(nr::PPOLL, &mut pfd as *mut PollFd as usize, 1, ts_ptr as usize, 0, 8, 0)
    };
    if r == -4 {
        return Ok(0); // EINTR
    }
    let n = check(r)?;
    Ok(if n == 0 { 0 } else { pfd.revents as u32 & 0xffff })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    #[test]
    fn eventfd_signal_then_drain() {
        let efd = EventFd::new().expect("eventfd");
        assert_eq!(efd.drain(), 0, "fresh eventfd is empty");
        efd.signal().expect("signal");
        efd.signal().expect("signal");
        assert_eq!(efd.drain(), 2, "counter accumulates signals");
        assert_eq!(efd.drain(), 0, "drain resets");
    }

    #[test]
    fn epoll_sees_socketpair_readability() {
        let ep = Epoll::new().expect("epoll");
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        b.set_nonblocking(true).expect("nonblocking");
        ep.add(b.as_raw_fd(), 7, EPOLLIN | EPOLLRDHUP).expect("add");

        let mut events = Vec::new();
        let n = ep.wait(&mut events, 8, Some(Duration::from_millis(0))).expect("wait");
        assert_eq!(n, 0, "nothing readable yet");

        a.write_all(b"x").expect("write");
        let n = ep.wait(&mut events, 8, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());

        // Level-triggered: an unread byte is reported again, and `events`
        // holds only this wait's batch, not the last one's too.
        let n = ep.wait(&mut events, 8, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!((n, events.len()), (1, 1));
        assert!(events[0].readable());

        let mut buf = [0u8; 8];
        let mut bb = &b;
        assert_eq!(bb.read(&mut buf).expect("read"), 1);
        assert_eq!(ep.wait(&mut events, 8, Some(Duration::ZERO)).expect("wait"), 0);
        assert!(events.is_empty(), "a timed-out wait leaves no stale events");

        // Peer close reports a closed condition.
        drop(a);
        let n = ep.wait(&mut events, 8, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!((n, events.len()), (1, 1));
        assert!(events[0].closed(), "peer close: {:#x}", events[0].events);

        ep.delete(b.as_raw_fd()).expect("delete");
    }

    /// `epoll_wait(2)`'s timeout is a minimum: a wait with nothing ready
    /// blocks at least as long as asked, sub-millisecond waits included —
    /// a reactor whose next deadline is 0.9 ms away must sleep, not spin on
    /// 0 ms polls — while a zero timeout polls.
    #[test]
    fn wait_blocks_at_least_its_timeout() {
        let ep = Epoll::new().expect("epoll");
        let mut events = Vec::new();
        for micros in [300, 900, 1_500, 20_000] {
            let d = Duration::from_micros(micros);
            let start = std::time::Instant::now();
            assert_eq!(ep.wait(&mut events, 8, Some(d)).expect("wait"), 0);
            let took = start.elapsed();
            assert!(took >= d, "wait({d:?}) returned after {took:?}");
        }
        let start = std::time::Instant::now();
        assert_eq!(ep.wait(&mut events, 8, Some(Duration::ZERO)).expect("wait"), 0);
        assert!(start.elapsed() < Duration::from_millis(100), "a zero timeout polls");
    }

    #[test]
    fn epoll_wakes_on_eventfd_from_another_thread() {
        let ep = Epoll::new().expect("epoll");
        let efd = std::sync::Arc::new(EventFd::new().expect("eventfd"));
        ep.add(efd.as_raw_fd(), 1, EPOLLIN).expect("add");
        let remote = std::sync::Arc::clone(&efd);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.signal().expect("signal");
        });
        let mut events = Vec::new();
        let n = ep.wait(&mut events, 8, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 1);
        assert_eq!(efd.drain(), 1);
        t.join().expect("thread");
    }

    #[test]
    fn epoll_modify_switches_interest_to_writable() {
        let ep = Epoll::new().expect("epoll");
        let (_a, b) = UnixStream::pair().expect("socketpair");
        ep.add(b.as_raw_fd(), 3, EPOLLIN).expect("add");
        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, 8, Some(Duration::ZERO)).expect("wait"), 0);
        // An idle socket with send-buffer room is instantly writable.
        ep.modify(b.as_raw_fd(), 3, EPOLLOUT).expect("modify");
        let n = ep.wait(&mut events, 8, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(n, 1);
        assert!(events[0].writable());
    }

    #[test]
    fn poll_one_probes_without_consuming() {
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        assert_eq!(poll_one(b.as_raw_fd(), POLLIN, Some(Duration::ZERO)).expect("poll"), 0);
        a.write_all(b"y").expect("write");
        let r = poll_one(b.as_raw_fd(), POLLIN, Some(Duration::from_secs(5))).expect("poll");
        assert!(r & POLLIN != 0);
        // The probe left the byte in the socket.
        let mut buf = [0u8; 8];
        let mut bb = &b;
        assert_eq!(std::io::Read::read(&mut bb, &mut buf).expect("read"), 1);
        // A closed peer reports HUP-ish conditions.
        drop(a);
        let r = poll_one(b.as_raw_fd(), POLLIN | POLLRDHUP, Some(Duration::from_secs(5)))
            .expect("poll");
        assert!(r & (POLLIN | POLLHUP | POLLRDHUP) != 0);
    }
}
