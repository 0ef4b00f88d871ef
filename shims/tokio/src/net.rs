//! TCP over nonblocking sockets, driven by the reactor.
//!
//! Every read, write and accept is tried first; only if it would block
//! does the task park with the reactor, to be polled again when epoll
//! reports the socket ready (see `reactor`). `connect` is nonblocking too:
//! it starts the handshake, waits until the socket is writable, then reads
//! `SO_ERROR`. Each type deregisters its fd in `Drop`, before the fd
//! closes.

use crate::io::{AsyncRead, AsyncWrite};
use crate::reactor::{Direction, Registered};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, ToSocketAddrs};
use std::task::{Context, Poll};

/// A nonblocking TCP connection.
pub struct TcpStream {
    io: Registered<std::net::TcpStream>,
}

impl TcpStream {
    /// Connects to `addr`, trying each resolved address in turn.
    pub async fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<TcpStream> {
        let mut last = None;
        for addr in addr.to_socket_addrs()? {
            match Self::connect_addr(addr).await {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no addresses to connect to")
        }))
    }

    async fn connect_addr(addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream {
            io: Registered::new(sys::start_connect(addr)?),
        };
        // Writable means the handshake has ended; SO_ERROR says how. A wake
        // while still in SYN-SENT shows as NotConnected from
        // getpeername(2) and parks again.
        std::future::poll_fn(|cx| {
            stream.io.poll_io(cx, Direction::Write, |s| {
                if let Some(e) = s.take_error()? {
                    return Err(e);
                }
                match s.peer_addr() {
                    Err(e) if e.kind() == io::ErrorKind::NotConnected => {
                        Err(io::ErrorKind::WouldBlock.into())
                    }
                    r => r.map(drop),
                }
            })
        })
        .await?;
        Ok(stream)
    }

    /// Sets TCP_NODELAY.
    pub fn set_nodelay(&self, nodelay: bool) -> io::Result<()> {
        self.io.set_nodelay(nodelay)
    }

    /// Shuts down the read, write, or both halves of this connection
    /// (maps directly to `shutdown(2)`). Unlike dropping a clone of the
    /// stream, a shutdown takes effect on the underlying socket
    /// immediately, so the peer observes the half-close even while other
    /// handles to the same fd are still alive.
    pub fn shutdown_now(&self, how: std::net::Shutdown) -> io::Result<()> {
        self.io.shutdown(how)
    }

    /// Splits the stream into independently owned read and write halves
    /// (each a `dup`ed handle to the same socket, with its own reactor
    /// registration), so two tasks can pump opposite directions
    /// concurrently.
    pub fn into_split(self) -> io::Result<(OwnedReadHalf, OwnedWriteHalf)> {
        let read = Registered::new(self.io.try_clone()?);
        Ok((OwnedReadHalf { io: read }, OwnedWriteHalf { io: self.io }))
    }

    /// Local socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.io.local_addr()
    }

    /// Remote socket address.
    pub fn peer_addr(&self) -> io::Result<SocketAddr> {
        self.io.peer_addr()
    }
}

impl AsyncRead for TcpStream {
    fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        self.io.poll_io(cx, Direction::Read, |mut s| s.read(buf))
    }
}

impl AsyncWrite for TcpStream {
    fn poll_write(&mut self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        self.io.poll_io(cx, Direction::Write, |mut s| s.write(buf))
    }

    fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        // Kernel TCP sockets have no userspace buffer to flush.
        Poll::Ready(Ok(()))
    }
}

/// The read half of a split [`TcpStream`].
pub struct OwnedReadHalf {
    io: Registered<std::net::TcpStream>,
}

impl AsyncRead for OwnedReadHalf {
    fn poll_read(&mut self, cx: &mut Context<'_>, buf: &mut [u8]) -> Poll<io::Result<usize>> {
        self.io.poll_io(cx, Direction::Read, |mut s| s.read(buf))
    }
}

/// The write half of a split [`TcpStream`].
pub struct OwnedWriteHalf {
    io: Registered<std::net::TcpStream>,
}

impl OwnedWriteHalf {
    /// Shuts down part of the connection; see [`TcpStream::shutdown_now`].
    pub fn shutdown_now(&self, how: std::net::Shutdown) -> io::Result<()> {
        self.io.shutdown(how)
    }
}

impl AsyncWrite for OwnedWriteHalf {
    fn poll_write(&mut self, cx: &mut Context<'_>, buf: &[u8]) -> Poll<io::Result<usize>> {
        self.io.poll_io(cx, Direction::Write, |mut s| s.write(buf))
    }

    fn poll_flush(&mut self, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
        Poll::Ready(Ok(()))
    }
}

/// A nonblocking TCP listener.
pub struct TcpListener {
    io: Registered<std::net::TcpListener>,
}

impl TcpListener {
    /// Binds to `addr` in nonblocking mode.
    pub async fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpListener> {
        let inner = std::net::TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        Ok(TcpListener {
            io: Registered::new(inner),
        })
    }

    /// Local socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.io.local_addr()
    }

    /// Accepts one connection.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, addr) =
            std::future::poll_fn(|cx| self.io.poll_io(cx, Direction::Read, |l| l.accept())).await?;
        stream.set_nonblocking(true)?;
        let stream = TcpStream {
            io: Registered::new(stream),
        };
        Ok((stream, addr))
    }
}

/// The two socket syscalls std has no nonblocking form of.
mod sys {
    use std::ffi::{c_int, c_void};
    use std::io;
    use std::net::SocketAddr;
    use std::os::fd::FromRawFd;

    // Linux UAPI values (asm-generic: x86, x86_64, arm, aarch64).
    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const EINTR: i32 = 4;
    const EINPROGRESS: i32 = 115;

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
    }

    /// `struct sockaddr_in`.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,
        addr: [u8; 4],
        zero: [u8; 8],
    }

    /// `struct sockaddr_in6`.
    #[repr(C)]
    struct SockaddrIn6 {
        family: u16,
        port: u16,
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    /// Opens a nonblocking socket and starts connecting it to `addr`;
    /// the handshake completes (or fails) in the background.
    pub(super) fn start_connect(addr: SocketAddr) -> io::Result<std::net::TcpStream> {
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: plain syscall taking integer arguments.
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned by socket(2) and has no other
        // owner; the stream closes it on every path below.
        let stream = unsafe { std::net::TcpStream::from_raw_fd(fd) };
        let rc = match addr {
            SocketAddr::V4(a) => {
                let sa = SockaddrIn {
                    family: AF_INET as u16,
                    port: a.port().to_be(),
                    addr: a.ip().octets(),
                    zero: [0; 8],
                };
                // SAFETY: `sa` is an initialized sockaddr_in that outlives
                // the call, and `len` is its exact size.
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockaddrIn).cast(),
                        size_of_val(&sa) as u32,
                    )
                }
            }
            SocketAddr::V6(a) => {
                let sa = SockaddrIn6 {
                    family: AF_INET6 as u16,
                    port: a.port().to_be(),
                    flowinfo: a.flowinfo(),
                    addr: a.ip().octets(),
                    scope_id: a.scope_id(),
                };
                // SAFETY: as above, for sockaddr_in6.
                unsafe {
                    connect(
                        fd,
                        (&sa as *const SockaddrIn6).cast(),
                        size_of_val(&sa) as u32,
                    )
                }
            }
        };
        if rc < 0 {
            let e = io::Error::last_os_error();
            // An interrupted nonblocking connect carries on in the
            // background, exactly like one that is in progress.
            if !matches!(e.raw_os_error(), Some(EINPROGRESS | EINTR)) {
                return Err(e);
            }
        }
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on_sync;
    use crate::io::{AsyncReadExt, AsyncWriteExt};
    use std::future::Future;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    /// A connected (client, server) pair through `listener`.
    async fn pair_on(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let client = TcpStream::connect(listener.local_addr().unwrap());
        let client = client.await.unwrap();
        let (server, _) = listener.accept().await.unwrap();
        (client, server)
    }

    async fn pair() -> (TcpStream, TcpStream) {
        pair_on(&TcpListener::bind("127.0.0.1:0").await.unwrap()).await
    }

    #[test]
    fn idle_read_is_not_polled_in_a_loop() {
        block_on_sync(async {
            let (mut client, _server) = pair().await;
            let mut polls = 0;
            let mut buf = [0u8; 8];
            let idle = std::future::poll_fn(|cx| {
                polls += 1;
                client.poll_read(cx, &mut buf)
            });
            let r = crate::time::timeout(Duration::from_millis(100), idle).await;
            assert!(
                r.is_err(),
                "nothing was sent, so the read must stay pending"
            );
            // One poll to park, one when the timeout fires; a 250 µs retry
            // loop would poll about 400 times.
            assert!(polls <= 2, "idle read polled {polls} times");
        });
    }

    #[test]
    fn reused_fd_wakes_the_new_reader() {
        block_on_sync(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            for _ in 0..20 {
                // Park a read on a split read half, then drop it while its
                // write half keeps the socket itself open.
                let (client, _server) = pair_on(&listener).await;
                let (mut r, _w) = client.into_split().unwrap();
                let old_fd = r.io.as_raw_fd();
                let pending =
                    crate::time::timeout(Duration::from_millis(5), r.read(&mut [0u8; 1])).await;
                assert!(pending.is_err());
                drop(r);

                // The new client socket takes the lowest free fd number.
                let (mut client, mut server) = pair_on(&listener).await;
                if client.io.as_raw_fd() != old_fd {
                    // Another thread took the fd number first; try again.
                    continue;
                }
                let reader = crate::spawn(async move {
                    let mut b = [0u8; 5];
                    client.read_exact(&mut b).await.map(|_| b)
                });
                crate::time::sleep(Duration::from_millis(5)).await;
                server.write_all(b"hello").await.unwrap();
                let got = crate::time::timeout(Duration::from_secs(5), reader)
                    .await
                    .expect("the reader on the reused fd must be woken")
                    .unwrap()
                    .unwrap();
                assert_eq!(&got, b"hello");
                return;
            }
            panic!("the fd number was never reused");
        });
    }

    #[test]
    fn split_halves_read_and_write_concurrently() {
        const TOTAL: usize = 4 << 20;
        block_on_sync(async {
            let (client, server) = pair().await;
            // Echo everything back through the server's own split halves.
            crate::spawn(async move {
                let (mut r, mut w) = server.into_split().unwrap();
                let mut buf = vec![0u8; 64 * 1024];
                loop {
                    let n = r.read(&mut buf).await.unwrap();
                    if n == 0 {
                        break;
                    }
                    w.write_all(&buf[..n]).await.unwrap();
                }
            });
            // Far more than both socket buffers hold: this only finishes if
            // the halves make progress at the same time.
            let (mut r, mut w) = client.into_split().unwrap();
            let writer = crate::spawn(async move {
                let chunk = vec![7u8; 64 * 1024];
                for _ in 0..TOTAL / chunk.len() {
                    w.write_all(&chunk).await.unwrap();
                }
                w
            });
            let read_all = async {
                let mut buf = vec![0u8; 64 * 1024];
                let mut got = 0;
                while got < TOTAL {
                    let n = r.read(&mut buf).await.unwrap();
                    assert!(n > 0 && buf[..n].iter().all(|&b| b == 7));
                    got += n;
                }
                got
            };
            let got = crate::time::timeout(Duration::from_secs(20), read_all)
                .await
                .expect("split halves must not deadlock");
            assert_eq!(got, TOTAL);
            writer.await.unwrap();
        });
    }

    #[test]
    fn accept_wakes_on_connect() {
        block_on_sync(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let connector = crate::spawn(async move {
                crate::time::sleep(Duration::from_millis(50)).await;
                TcpStream::connect(addr).await.unwrap()
            });
            let mut polls = 0;
            let mut accept = std::pin::pin!(listener.accept());
            let accepted = std::future::poll_fn(|cx| {
                polls += 1;
                accept.as_mut().poll(cx)
            });
            let (server, peer) = crate::time::timeout(Duration::from_secs(5), accepted)
                .await
                .expect("accept must wake on connect")
                .unwrap();
            let client = connector.await.unwrap();
            assert_eq!(peer, client.local_addr().unwrap());
            assert_eq!(server.peer_addr().unwrap(), client.local_addr().unwrap());
            assert!(polls <= 3, "accept polled {polls} times over a 50 ms wait");
        });
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        block_on_sync(async {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            drop(listener);
            let err = TcpStream::connect(addr)
                .await
                .err()
                .expect("nothing listens");
            assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        });
    }
}
