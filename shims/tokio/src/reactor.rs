//! The reactor: one epoll instance and the timer map, driven by one
//! thread (`tokio-shim-reactor`).
//!
//! A socket operation that returns `WouldBlock` parks its waker here for
//! that direction (read or write) and arms the fd, level-triggered and
//! `EPOLLONESHOT`, for every direction that has a waiter. Because the arm
//! is level-triggered, readiness that arrived between the failed syscall
//! and the arm is still reported, so re-arming cannot lose a wake. When an
//! event fires, the reactor takes the matching wakers, re-arms the fd for
//! any direction still waited on, and wakes them outside the lock.
//!
//! Each handle parks at most one task per direction: reads and writes
//! take `&mut self`, and each listener is accepted from by one loop.
//!
//! Registrations are keyed by a per-handle token, never by fd number:
//! split halves are `dup`s of one socket and fd numbers are reused after
//! close. [`Registered`] removes its entry and its epoll registration in
//! `Drop`, before the fd closes, so a stale event or re-arm can never
//! reach a socket that later gets the same fd number.
//!
//! The same thread fires timers: `epoll_wait`'s timeout is the earliest
//! deadline, and an `eventfd` interrupts the wait only when a newly added
//! deadline becomes the earliest.
//!
//! Linux-only. The four syscalls are declared with `extern "C"` (std
//! already links libc); every `unsafe` call states why it is sound.

use crate::timer::Timers;
use std::collections::HashMap;
use std::ffi::{c_int, c_uint};
use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::ops::Deref;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

// Values from the Linux UAPI headers (identical on every architecture
// whose O_CLOEXEC / O_NONBLOCK are the asm-generic ones, which includes
// x86, x86_64, arm and aarch64).
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLONESHOT: u32 = 1 << 30;

/// `struct epoll_event`; the kernel declares it packed on x86_64 only.
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
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// The epoll `data` of the timer wake-up eventfd; socket tokens count up
/// from 0 and never reach it.
const WAKE_TOKEN: u64 = u64::MAX;

/// Which readiness a parked operation waits for.
#[derive(Clone, Copy)]
pub(crate) enum Direction {
    Read,
    Write,
}

/// The wakers parked on one registered fd.
struct Waiters {
    fd: RawFd,
    read: Option<Waker>,
    write: Option<Waker>,
    /// Whether the fd has been `EPOLL_CTL_ADD`ed (done on first park).
    added: bool,
}

impl Waiters {
    fn interest(&self) -> u32 {
        let mut events = 0;
        if self.read.is_some() {
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if self.write.is_some() {
            events |= EPOLLOUT;
        }
        events
    }
}

pub(crate) struct Reactor {
    epoll: OwnedFd,
    wake: File,
    io: Mutex<HashMap<u64, Waiters>>,
    pub(crate) timers: Timers,
}

fn cvt(rc: c_int) -> io::Result<c_int> {
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(rc)
    }
}

/// Locks one of the reactor's maps. Poisoning is recovered from: every
/// update of these maps is a single insert, remove or take that leaves
/// them valid, and the `Drop` paths that lock them must not panic.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static REACTOR: OnceLock<Reactor> = OnceLock::new();

/// The process-wide reactor; the first call starts its thread.
pub(crate) fn reactor() -> &'static Reactor {
    REACTOR.get_or_init(|| {
        let r = Reactor::new().expect("create epoll reactor");
        // The thread's first `reactor()` call blocks until this
        // initializer has returned.
        std::thread::Builder::new()
            .name("tokio-shim-reactor".into())
            .spawn(|| reactor().run())
            .expect("spawn reactor thread");
        r
    })
}

impl Reactor {
    fn new() -> io::Result<Reactor> {
        // SAFETY: plain syscalls taking integer flags; each returned fd is
        // fresh and immediately given a single owner.
        let (epoll, wake) = unsafe {
            let epoll = OwnedFd::from_raw_fd(cvt(epoll_create1(EPOLL_CLOEXEC))?);
            let wake = File::from_raw_fd(cvt(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK))?);
            (epoll, wake)
        };
        let r = Reactor {
            epoll,
            wake,
            io: Mutex::new(HashMap::new()),
            timers: Timers::default(),
        };
        // The eventfd stays armed (no ONESHOT): it is drained on each wake.
        r.ctl(EPOLL_CTL_ADD, r.wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
        Ok(r)
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, initialized epoll_event for the whole
        // call; the kernel only reads it.
        cvt(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut ev) }).map(drop)
    }

    /// Parks `waker` until `fd` is ready in direction `dir`.
    fn park(&self, token: u64, fd: RawFd, dir: Direction, waker: &Waker) -> io::Result<()> {
        let mut io = lock(&self.io);
        let w = io.entry(token).or_insert(Waiters {
            fd,
            read: None,
            write: None,
            added: false,
        });
        let slot = match dir {
            Direction::Read => &mut w.read,
            Direction::Write => &mut w.write,
        };
        let replaced = slot.replace(waker.clone());
        let op = if w.added {
            EPOLL_CTL_MOD
        } else {
            EPOLL_CTL_ADD
        };
        let armed = self.ctl(op, fd, w.interest() | EPOLLONESHOT, token);
        w.added |= armed.is_ok();
        drop(io);
        // Dropped outside the lock: it may hold the last reference to a
        // task whose future owns sockets, whose `Drop` takes the lock.
        drop(replaced);
        armed
    }

    /// Forgets `token`. Runs under the `io` lock, so once it returns no
    /// event dispatch can re-arm the fd on this token's behalf.
    fn deregister(&self, token: u64) {
        let mut io = lock(&self.io);
        let removed = io.remove(&token);
        if let Some(w) = &removed {
            if w.added {
                // The fd is still open, so this cannot fail in a way that
                // leaves a registration behind.
                let _ = self.ctl(EPOLL_CTL_DEL, w.fd, 0, token);
            }
        }
        drop(io);
        drop(removed); // its wakers, outside the lock (see `park`)
    }

    /// Wakes the reactor thread so it recomputes its `epoll_wait` timeout.
    pub(crate) fn notify(&self) {
        // A full counter (EAGAIN) already means a wake is pending.
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
    }

    fn dispatch(&self, events: &[EpollEvent], woken: &mut Vec<Waker>) {
        let mut io = lock(&self.io);
        for &ev in events {
            let (bits, token) = (ev.events, ev.data);
            if token == WAKE_TOKEN {
                let _ = (&self.wake).read(&mut [0u8; 8]);
                continue;
            }
            // A missing token was deregistered after the event was queued.
            let Some(w) = io.get_mut(&token) else {
                continue;
            };
            if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                woken.extend(w.read.take());
            }
            if bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0 {
                woken.extend(w.write.take());
            }
            let rest = w.interest();
            if rest != 0 {
                let _ = self.ctl(EPOLL_CTL_MOD, w.fd, rest | EPOLLONESHOT, token);
            }
        }
    }

    fn run(&self) -> ! {
        let mut events = [EpollEvent { events: 0, data: 0 }; 256];
        let mut woken = Vec::new();
        loop {
            let next = self.timers.fire_due(Instant::now(), &mut woken);
            woken.drain(..).for_each(Waker::wake);
            // Round up so a deadline is never woken early and re-polled
            // in a spin; -1 blocks until an fd or the eventfd is ready.
            let timeout = next.map_or(-1, |at| {
                let ns = at.saturating_duration_since(Instant::now()).as_nanos();
                ns.div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
            });
            // SAFETY: `events` is a writable buffer of `events.len()`
            // epoll_event slots that outlives the call.
            let n = unsafe {
                epoll_wait(
                    self.epoll.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout,
                )
            };
            match cvt(n) {
                Ok(n) => self.dispatch(&events[..n as usize], &mut woken),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => panic!("epoll_wait: {e}"),
            }
            woken.drain(..).for_each(Waker::wake);
        }
    }
}

/// A nonblocking fd owned together with its reactor registration. `Drop`
/// deregisters before `T` closes the fd.
pub(crate) struct Registered<T: AsRawFd> {
    inner: T,
    token: u64,
}

impl<T: AsRawFd> Registered<T> {
    /// Wraps a handle already in nonblocking mode. Nothing reaches epoll
    /// until an operation would block.
    pub(crate) fn new(inner: T) -> Registered<T> {
        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);
        Registered {
            inner,
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Runs `op`; if it would block, parks the task until the fd is ready
    /// in direction `dir`. `EINTR` retries at once.
    pub(crate) fn poll_io<R>(
        &self,
        cx: &mut Context<'_>,
        dir: Direction,
        mut op: impl FnMut(&T) -> io::Result<R>,
    ) -> Poll<io::Result<R>> {
        loop {
            match op(&self.inner) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    let parked =
                        reactor().park(self.token, self.inner.as_raw_fd(), dir, cx.waker());
                    return match parked {
                        Ok(()) => Poll::Pending,
                        Err(e) => Poll::Ready(Err(e)),
                    };
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                r => return Poll::Ready(r),
            }
        }
    }
}

impl<T: AsRawFd> Deref for Registered<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: AsRawFd> Drop for Registered<T> {
    fn drop(&mut self) {
        // Without a reactor nothing was ever registered.
        if let Some(r) = REACTOR.get() {
            r.deregister(self.token);
        }
    }
}
