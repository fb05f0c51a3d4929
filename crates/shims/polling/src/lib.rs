//! Offline stand-in for the [`polling`](https://crates.io/crates/polling)
//! crate: a minimal portable readiness poller.
//!
//! The build environment has no crates.io access, so this shim provides
//! the subset `dgc-rt-net`'s reactor needs:
//!
//! - [`Poller`] — register sockets under a `usize` key with a read/write
//!   [`Interest`] and [`Poller::wait`] for readiness events. On Linux the
//!   backend is **epoll**, declared directly against the C ABI (no libc
//!   crate). Everywhere else — and on Linux when `DGC_POLL_EMULATION=1`
//!   is set, so the fallback stays testable — a **short-timeout
//!   emulation** backend reports every registered key as ready at a
//!   bounded cadence; since all reactor I/O is nonblocking, spurious
//!   readiness costs only wasted `WouldBlock` syscalls, never blocking.
//! - [`Waker`] — cross-thread wakeup for a parked [`Poller::wait`]
//!   (a nonblocking pipe registered with epoll, or a flag + condvar for
//!   the emulated backend). An atomic flag in front of either makes
//!   wakes coalesce into one signal per [`Waker::clear`].
//! - [`connect_nonblocking`] / [`take_socket_error`] — initiate a TCP
//!   connect without blocking the loop and harvest its completion status
//!   (`SO_ERROR`) once the socket polls writable.
//! - [`raise_nofile_limit`] — best-effort `RLIMIT_NOFILE` bump for
//!   thousand-connection benches.
//!
//! Readiness is **level-triggered**: a key keeps reporting ready until
//! the condition is drained. Callers must tolerate spurious events (the
//! emulated backend produces them by design).

#![warn(missing_docs)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

mod emu;
#[cfg(target_os = "linux")]
mod sys;

/// What readiness a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source is readable (or hung up).
    pub readable: bool,
    /// Wake when the source is writable.
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
    /// Registered but silent (keeps the slot; hears nothing).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness event out of [`Poller::wait`].
///
/// Errors and hangups are folded into `readable`/`writable` (the next
/// read or write on the source surfaces the actual `io::Error`).
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The key the source was registered under.
    pub key: usize,
    /// The source is (possibly spuriously) readable.
    pub readable: bool,
    /// The source is (possibly spuriously) writable.
    pub writable: bool,
}

/// Anything with an OS handle the poller can watch.
pub trait Source {
    /// Raw file descriptor on unix; the emulated backend ignores it.
    fn raw(&self) -> i32;
}

#[cfg(unix)]
impl Source for TcpStream {
    fn raw(&self) -> i32 {
        std::os::unix::io::AsRawFd::as_raw_fd(self)
    }
}

#[cfg(unix)]
impl Source for TcpListener {
    fn raw(&self) -> i32 {
        std::os::unix::io::AsRawFd::as_raw_fd(self)
    }
}

#[cfg(not(unix))]
impl Source for TcpStream {
    fn raw(&self) -> i32 {
        -1
    }
}

#[cfg(not(unix))]
impl Source for TcpListener {
    fn raw(&self) -> i32 {
        -1
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(sys::Epoll),
    Emulated(emu::Emu),
}

/// A readiness multiplexer over nonblocking sockets.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Opens a poller with the best backend for this platform: epoll on
    /// Linux (unless `DGC_POLL_EMULATION=1` forces the fallback), the
    /// short-timeout emulation everywhere else.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let force_emu = std::env::var("DGC_POLL_EMULATION")
                .map(|v| v == "1")
                .unwrap_or(false);
            if !force_emu {
                return Ok(Poller {
                    backend: Backend::Epoll(sys::Epoll::new()?),
                });
            }
        }
        Ok(Poller::emulated())
    }

    /// Opens the portable emulation backend explicitly (used by its own
    /// tests; [`Poller::new`] picks it automatically where epoll is
    /// unavailable).
    pub fn emulated() -> Poller {
        Poller {
            backend: Backend::Emulated(emu::Emu::new()),
        }
    }

    /// True when running on the emulation backend.
    pub fn is_emulated(&self) -> bool {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => false,
            Backend::Emulated(_) => true,
        }
    }

    /// Registers a source under `key` with the given interest.
    pub fn add(&self, src: &impl Source, key: usize, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.add(src.raw(), key, interest),
            Backend::Emulated(e) => e.add(key, interest),
        }
    }

    /// Updates the interest of an already-registered source.
    pub fn modify(&self, src: &impl Source, key: usize, interest: Interest) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.modify(src.raw(), key, interest),
            Backend::Emulated(e) => e.modify(key, interest),
        }
    }

    /// Removes a source. Pass the same `key` it was registered under
    /// (epoll keys off the descriptor; the emulation keys off `key`).
    pub fn delete(&self, src: &impl Source, key: usize) -> io::Result<()> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.delete(src.raw()),
            Backend::Emulated(e) => e.delete(key),
        }
    }

    /// Blocks until at least one event arrives, the timeout elapses, or a
    /// [`Waker`] fires; appends events to `out` and returns how many.
    /// `Ok(0)` means timeout (or a signal). The emulated backend returns
    /// within ~1 ms regardless of `timeout`, reporting every registered
    /// key at its registered interest.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<usize> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => ep.wait(out, timeout),
            Backend::Emulated(e) => e.wait(out, timeout),
        }
    }

    /// Creates the waker for this poller, surfacing as a readable event
    /// on `key` when woken. One waker per poller.
    pub fn waker(&self, key: usize) -> io::Result<Waker> {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(ep) => {
                let pipe = sys::pipe_nonblocking()?;
                ep.add(pipe.read_fd, key, Interest::READ)?;
                Ok(Waker {
                    inner: WakerInner::Pipe(pipe),
                    signalled: AtomicBool::new(false),
                })
            }
            Backend::Emulated(e) => {
                e.set_waker(key);
                Ok(Waker {
                    inner: WakerInner::Flag(e.shared()),
                    signalled: AtomicBool::new(false),
                })
            }
        }
    }
}

enum WakerInner {
    #[cfg(target_os = "linux")]
    Pipe(sys::Pipe),
    Flag(std::sync::Arc<emu::Shared>),
}

/// Wakes a [`Poller::wait`] parked on another thread.
pub struct Waker {
    inner: WakerInner,
    /// Set by the first `wake` after a `clear`: while it is set, the
    /// backend already holds a signal and further wakes are free.
    signalled: AtomicBool,
}

impl Waker {
    /// Interrupts the poller; its next (or current) `wait` reports a
    /// readable event on the waker's key until [`Waker::clear`]. Only
    /// the first wake after a `clear` reaches the backend (one pipe
    /// write, or one condvar notify); the rest cost one atomic swap, so
    /// any number of wakes between two clears is one syscall and one
    /// event.
    pub fn wake(&self) {
        if self.signalled.swap(true, Ordering::AcqRel) {
            return;
        }
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerInner::Pipe(p) => p.signal(),
            WakerInner::Flag(s) => s.wake(),
        }
    }

    /// Drains the wake signal; call when handling the waker's event so
    /// the poller can park again. Work a waker announces must be looked
    /// for *after* this returns.
    pub fn clear(&self) {
        // Drain first, then re-arm. Re-arming first would let a wake
        // land in between: its signal would be drained while the flag
        // stays set, and every later wake would skip the backend.
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerInner::Pipe(p) => {
                p.drain();
            }
            WakerInner::Flag(s) => s.clear(),
        }
        // A swap, not a store: reading the flag synchronizes with the
        // wakes that found it set, so their work is visible here.
        self.signalled.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
impl Waker {
    /// Signals the backend holds: pipe tokens (read out of the pipe) or
    /// the emulation's pending-wake flag.
    fn take_signals(&self) -> usize {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerInner::Pipe(p) => p.drain(),
            WakerInner::Flag(s) => s.woken() as usize,
        }
    }
}

/// Starts a TCP connect without blocking: returns a nonblocking stream
/// whose connect is (usually) still in flight. Poll it for *writable*,
/// then call [`take_socket_error`] to learn whether the connect landed.
///
/// On Linux this is a raw `socket(SOCK_NONBLOCK) + connect` (accepting
/// `EINPROGRESS`); on other platforms it degrades to a bounded blocking
/// `connect_timeout` so the portable fallback stays correct.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    #[cfg(target_os = "linux")]
    {
        sys::connect_nonblocking(addr)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let stream = TcpStream::connect_timeout(addr, Duration::from_millis(500))?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }
}

/// Harvests and clears a socket's pending error (`SO_ERROR`): `Ok(())`
/// if the in-flight connect completed cleanly, the connect error
/// otherwise. Always `Ok` on platforms where [`connect_nonblocking`]
/// already blocked for the result.
pub fn take_socket_error(stream: &TcpStream) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        sys::take_socket_error(stream)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = stream;
        Ok(())
    }
}

/// Best-effort bump of `RLIMIT_NOFILE` to its hard limit; returns the
/// resulting soft limit (0 where unsupported). Thousand-peer benches
/// call this so descriptor counts, not defaults, set the ceiling.
pub fn raise_nofile_limit() -> u64 {
    #[cfg(target_os = "linux")]
    {
        sys::raise_nofile_limit()
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::sync::Arc;
    use std::time::Instant;

    fn wait_for(p: &Poller, mut pred: impl FnMut(&PollEvent) -> bool) -> bool {
        let mut evs = Vec::new();
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(5) {
            evs.clear();
            p.wait(&mut evs, Some(Duration::from_millis(20))).unwrap();
            if evs.iter().any(&mut pred) {
                return true;
            }
        }
        false
    }

    fn poll_accept(listener: &TcpListener) -> TcpStream {
        let start = Instant::now();
        loop {
            match listener.accept() {
                Ok((s, _)) => return s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(start.elapsed() < Duration::from_secs(5), "accept timed out");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("accept failed: {e}"),
            }
        }
    }

    #[test]
    fn listener_and_stream_readiness() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        poller.add(&listener, 7, Interest::READ).unwrap();

        let client = connect_nonblocking(&addr).unwrap();
        assert!(
            wait_for(&poller, |e| e.key == 7 && e.readable),
            "listener never polled readable"
        );
        let server = poll_accept(&listener);
        server.set_nonblocking(true).unwrap();

        poller.add(&client, 8, Interest::BOTH).unwrap();
        assert!(
            wait_for(&poller, |e| e.key == 8 && e.writable),
            "client never polled writable"
        );
        take_socket_error(&client).unwrap();

        (&server).write_all(b"ping").unwrap();
        assert!(
            wait_for(&poller, |e| e.key == 8 && e.readable),
            "client never polled readable after server wrote"
        );
        let mut got = Vec::new();
        let mut buf = [0u8; 16];
        let start = Instant::now();
        while got.len() < 4 {
            match (&client).read(&mut buf) {
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(start.elapsed() < Duration::from_secs(5), "read timed out");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
        assert_eq!(&got, b"ping");

        poller.delete(&client, 8).unwrap();
        poller.delete(&listener, 7).unwrap();
    }

    #[test]
    fn waker_interrupts_wait() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Arc::new(poller.waker(0).unwrap());
        let w2 = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w2.wake();
        });
        assert!(
            wait_for(&poller, |e| e.key == 0 && e.readable),
            "waker never surfaced"
        );
        waker.clear();
        t.join().unwrap();
    }

    /// The platform's poller (which honours `DGC_POLL_EMULATION`) and
    /// the emulation, so both backends run in every leg.
    fn backends() -> Vec<Poller> {
        vec![Poller::new().unwrap(), Poller::emulated()]
    }

    #[test]
    fn wakes_coalesce_into_one_signal_and_one_event() {
        for poller in backends() {
            let waker = poller.waker(0).unwrap();
            for _ in 0..10_000 {
                waker.wake();
            }
            let mut evs = Vec::new();
            poller
                .wait(&mut evs, Some(Duration::from_millis(100)))
                .unwrap();
            assert_eq!(
                evs.iter().filter(|e| e.key == 0).count(),
                1,
                "one readiness event (emulated: {})",
                poller.is_emulated()
            );
            assert_eq!(
                waker.take_signals(),
                1,
                "one signal in the backend (emulated: {})",
                poller.is_emulated()
            );
            waker.clear();
            evs.clear();
            poller
                .wait(&mut evs, Some(Duration::from_millis(5)))
                .unwrap();
            assert!(!evs.iter().any(|e| e.key == 0), "cleared waker still fired");
            // Re-armed: the next wake signals again.
            waker.wake();
            assert!(
                wait_for(&poller, |e| e.key == 0),
                "re-armed waker never fired"
            );
            waker.clear();
        }
    }

    #[test]
    fn wake_racing_clear_never_strands_a_wake() {
        use std::sync::atomic::AtomicU64;
        const WAKES: u64 = 20_000;
        for poller in backends() {
            let waker = Arc::new(poller.waker(0).unwrap());
            // `posted` is raised before each wake and `landed` after it
            // returns; the poller raises `clearing` as it enters each
            // clear and publishes `seen` (everything posted before that
            // clear returned) after it.
            let posted = Arc::new(AtomicU64::new(0));
            let landed = Arc::new(AtomicU64::new(0));
            let clearing = Arc::new(AtomicU64::new(0));
            let seen_by_poller = Arc::new(AtomicU64::new(0));
            let writer = {
                let (waker, posted, landed, clearing, seen) = (
                    Arc::clone(&waker),
                    Arc::clone(&posted),
                    Arc::clone(&landed),
                    Arc::clone(&clearing),
                    Arc::clone(&seen_by_poller),
                );
                std::thread::spawn(move || {
                    let start = Instant::now();
                    let mut clears = 0;
                    for i in 1..=WAKES {
                        // Aim each wake at a clear in progress, or wake
                        // a poller that has taken everything.
                        loop {
                            let c = clearing.load(Ordering::SeqCst);
                            if c > clears || seen.load(Ordering::SeqCst) == i - 1 {
                                clears = c;
                                break;
                            }
                            if start.elapsed() > Duration::from_secs(30) {
                                return; // the poller gave up
                            }
                            std::hint::spin_loop();
                        }
                        posted.store(i, Ordering::SeqCst);
                        waker.wake();
                        landed.store(i, Ordering::SeqCst);
                    }
                })
            };
            let mut seen = 0;
            let mut evs = Vec::new();
            while seen < WAKES {
                let landed_before = landed.load(Ordering::SeqCst);
                evs.clear();
                poller.wait(&mut evs, Some(Duration::from_secs(5))).unwrap();
                if evs.iter().any(|e| e.key == 0) {
                    clearing.fetch_add(1, Ordering::SeqCst);
                    waker.clear();
                    seen = posted.load(Ordering::SeqCst);
                    seen_by_poller.store(seen, Ordering::SeqCst);
                } else {
                    // A wake that returned after the last clear and
                    // before this park must have interrupted it.
                    assert!(
                        landed_before <= seen,
                        "parked past wake {landed_before} (seen {seen}, emulated: {})",
                        poller.is_emulated()
                    );
                }
            }
            writer.join().unwrap();
        }
    }

    #[test]
    fn emulated_backend_reports_registered_interest() {
        let poller = Poller::emulated();
        assert!(poller.is_emulated());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        poller.add(&listener, 3, Interest::READ).unwrap();
        assert!(wait_for(&poller, |e| e.key == 3
            && e.readable
            && !e.writable));
        poller.modify(&listener, 3, Interest::BOTH).unwrap();
        assert!(wait_for(&poller, |e| e.key == 3
            && e.readable
            && e.writable));
        poller.delete(&listener, 3).unwrap();
        let mut evs = Vec::new();
        poller
            .wait(&mut evs, Some(Duration::from_millis(5)))
            .unwrap();
        assert!(!evs.iter().any(|e| e.key == 3), "deleted key still fired");
    }

    #[test]
    fn refused_connect_surfaces_as_error() {
        // Bind-then-drop to learn a (very likely) dead port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        match connect_nonblocking(&addr) {
            Err(_) => {} // refused synchronously: also a pass
            Ok(stream) => {
                let poller = Poller::new().unwrap();
                poller.add(&stream, 1, Interest::BOTH).unwrap();
                assert!(wait_for(&poller, |e| e.key == 1 && (e.writable || e.readable)));
                // Completion status must be an error (connection refused).
                let start = Instant::now();
                loop {
                    match take_socket_error(&stream) {
                        Err(_) => break,
                        Ok(()) => {
                            // Spurious writable before the RST landed.
                            assert!(
                                start.elapsed() < Duration::from_secs(5),
                                "refused connect never surfaced an error"
                            );
                            std::thread::sleep(Duration::from_millis(2));
                            // A zero-byte peek read distinguishes refused from open.
                            let mut b = [0u8; 1];
                            if matches!((&stream).read(&mut b), Err(ref e) if e.kind() != io::ErrorKind::WouldBlock)
                            {
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nofile_limit_is_queryable() {
        // Best-effort: just exercise the call path.
        let _ = raise_nofile_limit();
    }
}
