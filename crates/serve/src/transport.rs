//! Transport: the batch service speaks one line protocol over TCP.
//!
//! [`Listener`] is a bound server socket, [`Conn`] an accepted (or
//! dialed) connection, and [`Endpoint`] the address a client connects
//! to — which doubles as the server's self-wake handle: a shutdown pokes
//! every registered endpoint with a throwaway connection so acceptors
//! blocked in `accept` observe the stop flag instead of waiting for a
//! client that will never come.
//!
//! Connections carry read and write deadlines
//! (`SO_RCVTIMEO`/`SO_SNDTIMEO` via [`Conn::set_read_timeout`] /
//! [`Conn::set_write_timeout`]), which is what lets the server evict
//! dead clients instead of letting them pin handler threads.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Where a service listens, or where a client connects: a TCP
/// `host:port` string, resolved at connect time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    addr: String,
}

impl Endpoint {
    /// A TCP endpoint at `addr` (`host:port`).
    pub fn tcp(addr: impl Into<String>) -> Endpoint {
        Endpoint { addr: addr.into() }
    }

    /// Human-readable `tcp:<addr>` rendering.
    pub fn describe(&self) -> String {
        format!("tcp:{}", self.addr)
    }

    /// Dials the endpoint: resolves the address and applies `timeout` as
    /// a connect deadline per resolved address.
    ///
    /// # Errors
    ///
    /// Resolution or connection failure (the last error when several
    /// resolved addresses all fail).
    pub fn connect(&self, timeout: Duration) -> io::Result<Conn> {
        let mut last: Option<io::Error> = None;
        for sa in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, timeout) {
                Ok(s) => return Ok(Conn::Tcp(s)),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{}: resolved to no addresses", self.addr),
            )
        }))
    }

    /// Best-effort poke: opens and immediately drops a connection so an
    /// acceptor blocked in `accept` wakes up and re-checks its stop
    /// flag. Errors are deliberately swallowed — if nobody is listening
    /// there is nobody left to wake.
    pub fn wake(&self) {
        let _ = self.connect(Duration::from_secs(1));
    }
}

/// A bound TCP listener and the endpoint that dials it.
pub struct Listener {
    listener: TcpListener,
    endpoint: Endpoint,
}

impl Listener {
    /// Binds a TCP listener on `addr` (`host:port`; port 0 picks a free
    /// port — read it back from [`Listener::endpoint`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or a failure to read back the bound
    /// address.
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Endpoint::tcp(connectable(listener.local_addr()?).to_string());
        Ok(Listener { listener, endpoint })
    }

    /// The endpoint clients (and the shutdown wake) connect to. For a
    /// listener bound on an unspecified address (`0.0.0.0` / `::`) the
    /// endpoint substitutes the loopback address, which is where a
    /// self-wake must dial.
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Blocks until the next connection arrives.
    ///
    /// # Errors
    ///
    /// Propagates the accept failure (callers treat these as transient).
    pub fn accept(&self) -> io::Result<Conn> {
        self.listener.accept().map(|(s, _)| Conn::Tcp(s))
    }
}

/// Rewrites an unspecified listen address to the loopback of the same
/// family, preserving the port — the address a local client can dial.
fn connectable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// One accepted or dialed connection. Matching `Conn::Tcp` reaches the
/// stream itself, e.g. for `set_nodelay`.
#[derive(Debug)]
pub enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
}

impl Conn {
    fn stream(&self) -> &TcpStream {
        let Conn::Tcp(s) = self;
        s
    }

    /// A second handle on the same socket (the server splits each
    /// connection into a buffered reader and writer).
    ///
    /// # Errors
    ///
    /// Propagates the descriptor duplication failure.
    pub fn try_clone(&self) -> io::Result<Conn> {
        self.stream().try_clone().map(Conn::Tcp)
    }

    /// Read deadline (`None` blocks forever). Applies to the underlying
    /// socket, so clones share it.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.stream().set_read_timeout(dur)
    }

    /// Write deadline (`None` blocks forever). Applies to the underlying
    /// socket, so clones share it.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.stream().set_write_timeout(dur)
    }
}

// `Read`/`Write` are implemented for `&TcpStream`, so a shared borrow
// of the stream serves both.
impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream().read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream().write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream().flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_describe_their_address() {
        assert_eq!(
            Endpoint::tcp("127.0.0.1:7000").describe(),
            "tcp:127.0.0.1:7000"
        );
    }

    #[test]
    fn unspecified_listen_addresses_become_connectable() {
        let v4: SocketAddr = "0.0.0.0:8080".parse().unwrap();
        assert_eq!(connectable(v4).to_string(), "127.0.0.1:8080");
        let v6: SocketAddr = "[::]:8080".parse().unwrap();
        assert_eq!(connectable(v6).to_string(), "[::1]:8080");
        let fixed: SocketAddr = "192.168.1.1:80".parse().unwrap();
        assert_eq!(
            connectable(fixed),
            fixed,
            "specified addresses pass through"
        );
    }

    #[test]
    fn tcp_listener_reports_a_dialable_endpoint() {
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        let addr = endpoint.describe();
        assert!(addr.starts_with("tcp:127.0.0.1:"), "{addr}");
        assert!(
            !addr.ends_with(":0"),
            "port 0 must resolve to the bound port"
        );
        // Dialing the reported endpoint reaches the listener.
        let client = endpoint.connect(Duration::from_secs(5)).unwrap();
        let accepted = listener.accept().unwrap();
        drop((client, accepted));
    }
}
