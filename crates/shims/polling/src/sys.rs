//! Linux backend: epoll, pipes, and nonblocking connect declared
//! directly against the C ABI — the environment has no `libc` crate, so
//! the handful of syscall wrappers the reactor needs live here, with
//! their Linux constant values spelled out.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

use crate::{Interest, PollEvent};

type CInt = i32;

const EPOLL_CLOEXEC: CInt = 0o2000000;
const EPOLL_CTL_ADD: CInt = 1;
const EPOLL_CTL_DEL: CInt = 2;
const EPOLL_CTL_MOD: CInt = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const O_NONBLOCK: CInt = 0o4000;
const O_CLOEXEC: CInt = 0o2000000;

const AF_INET: CInt = 2;
const AF_INET6: CInt = 10;
const SOCK_STREAM: CInt = 1;
const SOCK_NONBLOCK: CInt = 0o4000;
const SOCK_CLOEXEC: CInt = 0o2000000;
const SOL_SOCKET: CInt = 1;
const SO_ERROR: CInt = 4;
const EINPROGRESS: CInt = 115;
const EINTR: CInt = 4;

const RLIMIT_NOFILE: CInt = 7;

/// `struct epoll_event`; packed on x86-64 per the kernel ABI.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn epoll_create1(flags: CInt) -> CInt;
    fn epoll_ctl(epfd: CInt, op: CInt, fd: CInt, event: *mut EpollEvent) -> CInt;
    fn epoll_wait(epfd: CInt, events: *mut EpollEvent, maxevents: CInt, timeout: CInt) -> CInt;
    fn close(fd: CInt) -> CInt;
    fn pipe2(fds: *mut CInt, flags: CInt) -> CInt;
    fn read(fd: CInt, buf: *mut u8, count: usize) -> isize;
    fn write(fd: CInt, buf: *const u8, count: usize) -> isize;
    fn socket(domain: CInt, ty: CInt, protocol: CInt) -> CInt;
    fn connect(fd: CInt, addr: *const u8, len: u32) -> CInt;
    fn getsockopt(fd: CInt, level: CInt, name: CInt, value: *mut u8, len: *mut u32) -> CInt;
    fn getrlimit(resource: CInt, rlim: *mut RLimit) -> CInt;
    fn setrlimit(resource: CInt, rlim: *const RLimit) -> CInt;
}

fn cvt(r: CInt) -> io::Result<CInt> {
    if r < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(r)
    }
}

fn epoll_flags(interest: Interest) -> u32 {
    let mut f = EPOLLRDHUP; // hangups surface as readable
    if interest.readable {
        f |= EPOLLIN;
    }
    if interest.writable {
        f |= EPOLLOUT;
    }
    f
}

/// Level-triggered epoll instance.
pub(crate) struct Epoll {
    epfd: RawFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { epfd })
    }

    fn ctl(&self, op: CInt, fd: RawFd, key: usize, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: epoll_flags(interest),
            data: key as u64,
        };
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    pub(crate) fn add(&self, fd: RawFd, key: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, key, interest)
    }

    pub(crate) fn modify(&self, fd: RawFd, key: usize, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, key, interest)
    }

    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
    }

    pub(crate) fn wait(
        &self,
        out: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let ms: CInt = match timeout {
            None => -1,
            // Round up so sub-millisecond deadlines never busy-spin.
            Some(t) => t.as_nanos().div_ceil(1_000_000).min(CInt::MAX as u128) as CInt,
        };
        const CAP: usize = 1024;
        let mut buf: Vec<EpollEvent> = Vec::with_capacity(CAP);
        let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as CInt, ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.raw_os_error() == Some(EINTR) {
                return Ok(0); // interrupted: caller re-waits
            }
            return Err(e);
        }
        unsafe { buf.set_len(n as usize) };
        let mut pushed = 0;
        for ev in &buf {
            let events = ev.events; // by-value reads handle the packed layout
            let data = ev.data;
            out.push(PollEvent {
                key: data as usize,
                readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
            });
            pushed += 1;
        }
        Ok(pushed)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

/// A nonblocking self-pipe for waking an epoll wait.
pub(crate) struct Pipe {
    pub(crate) read_fd: RawFd,
    write_fd: RawFd,
}

pub(crate) fn pipe_nonblocking() -> io::Result<Pipe> {
    let mut fds = [0 as CInt; 2];
    cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
    Ok(Pipe {
        read_fd: fds[0],
        write_fd: fds[1],
    })
}

impl Pipe {
    pub(crate) fn signal(&self) {
        // EAGAIN means the pipe is full of wake tokens: still readable.
        unsafe { write(self.write_fd, [1u8].as_ptr(), 1) };
    }

    /// Empties the pipe; returns the tokens read.
    pub(crate) fn drain(&self) -> usize {
        let mut buf = [0u8; 64];
        let mut total = 0;
        loop {
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return total;
            }
            total += n as usize;
            if (n as usize) < buf.len() {
                // Short read: the pipe is empty; skip the EAGAIN call.
                return total;
            }
        }
    }
}

impl Drop for Pipe {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

/// Serializes a socket address into `sockaddr_in`/`sockaddr_in6` wire
/// layout: `(domain, bytes, length)`.
fn sockaddr(addr: &SocketAddr) -> (CInt, [u8; 28], u32) {
    let mut buf = [0u8; 28];
    match addr {
        SocketAddr::V4(a) => {
            buf[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
            buf[2..4].copy_from_slice(&a.port().to_be_bytes());
            buf[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, buf, 16)
        }
        SocketAddr::V6(a) => {
            buf[0..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
            buf[2..4].copy_from_slice(&a.port().to_be_bytes());
            buf[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
            buf[8..24].copy_from_slice(&a.ip().octets());
            buf[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, buf, 28)
        }
    }
}

pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let (domain, sa, len) = sockaddr(addr);
    let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
    let r = unsafe { connect(fd, sa.as_ptr(), len) };
    if r != 0 {
        let e = io::Error::last_os_error();
        if e.raw_os_error() != Some(EINPROGRESS) {
            unsafe { close(fd) };
            return Err(e);
        }
    }
    Ok(unsafe { TcpStream::from_raw_fd(fd) })
}

pub(crate) fn take_socket_error(stream: &TcpStream) -> io::Result<()> {
    let fd = stream.as_raw_fd();
    let mut err: CInt = 0;
    let mut len: u32 = std::mem::size_of::<CInt>() as u32;
    cvt(unsafe {
        getsockopt(
            fd,
            SOL_SOCKET,
            SO_ERROR,
            (&mut err as *mut CInt).cast::<u8>(),
            &mut len,
        )
    })?;
    if err == 0 {
        Ok(())
    } else {
        Err(io::Error::from_raw_os_error(err))
    }
}

pub(crate) fn raise_nofile_limit() -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.cur < lim.max {
        let bumped = RLimit {
            cur: lim.max,
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &bumped) } == 0 {
            return lim.max;
        }
    }
    lim.cur
}
