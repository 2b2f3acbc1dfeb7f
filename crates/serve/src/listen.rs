//! The listener skeleton the shard, the router and both admin planes
//! share: binding, the accept loop, and the per-connection frame loop.
//!
//! Every accept waits at most [`POLL`], so each loop re-checks its stop
//! condition at least that often; on Linux the wait ends the moment a
//! connection arrives. Every connection runs on its own scoped thread,
//! so one slow peer delays only itself, and the accept loop returns
//! only once every connection thread has ended.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::frame::{self, FrameError, RequestHeader, HEADER_LEN, TRACE_ID_LEN};
use crate::server::Bound;

/// How often blocked loops (accept, idle connection reads, queue pops)
/// wake to re-check the drain flag.
pub(crate) const POLL: Duration = Duration::from_millis(50);
/// Once a frame's first byte arrives, the rest must follow within this
/// window or the connection is dropped with `BadRequest`.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(2);
/// Socket write timeout: a peer that stops reading cannot pin a handler.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Binds the frame listener on `addr` and, when given, the admin
/// listener on `admin`, each with its accept wait bounded. An error
/// names the address that failed.
pub(crate) fn bind(
    addr: &str,
    admin: Option<&str>,
) -> Result<(TcpListener, Option<TcpListener>, Bound), (String, std::io::Error)> {
    let one = |addr: &str| {
        let bound = TcpListener::bind(addr).and_then(|l| {
            bound_accept_wait(&l)?;
            Ok((l.local_addr()?, l))
        });
        bound.map_err(|e| (addr.to_string(), e))
    };
    let (local, listener) = one(addr)?;
    let admin = admin.map(one).transpose()?;
    let bound = Bound {
        addr: local,
        metrics_addr: admin.as_ref().map(|(a, _)| *a),
    };
    Ok((listener, admin.map(|(_, l)| l), bound))
}

/// Bounds each `accept` on `listener` at [`POLL`]. On Linux the
/// socket's receive timeout bounds `accept`, which still returns the
/// moment a connection arrives; the option belongs to the socket, so a
/// second handle can set it.
#[cfg(target_os = "linux")]
fn bound_accept_wait(listener: &TcpListener) -> std::io::Result<()> {
    let handle = TcpStream::from(std::os::fd::OwnedFd::from(listener.try_clone()?));
    handle.set_read_timeout(Some(POLL))
}

/// Bounds each `accept` on `listener` at [`POLL`]: elsewhere the receive
/// timeout need not apply to `accept`, so the listener is polled
/// nonblocking, [`POLL`] apart.
#[cfg(not(target_os = "linux"))]
fn bound_accept_wait(listener: &TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)
}

/// Accepts on a [`bind`] listener until `stop()` holds, serving each
/// connection with `serve` on its own thread; then calls `drain()` and
/// returns once every connection has ended. `connections` names the
/// obs counter of accepted connections and `accept_error` the event
/// logged when an accept fails.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    stop: &dyn Fn() -> bool,
    drain: &dyn Fn(),
    connections: &'static str,
    accept_error: &'static str,
    serve: &(dyn Fn(TcpStream) + Sync),
) {
    std::thread::scope(|s| {
        while !stop() {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    mupod_obs::counter_add(connections, 1);
                    s.spawn(move || serve(stream));
                }
                // The accept wait lapsed with no connection.
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if cfg!(not(target_os = "linux")) {
                        std::thread::sleep(POLL);
                    }
                }
                Err(e) => {
                    mupod_obs::event(
                        mupod_obs::Level::Warn,
                        accept_error,
                        &[("error", &e.to_string())],
                    );
                    std::thread::sleep(POLL);
                }
            }
        }
        drain();
    });
}

/// One request frame, kept exactly as received: the router forwards
/// these bytes untouched, which keeps trace IDs and deadline fields
/// byte-identical across the hop.
pub(crate) struct Frame {
    pub(crate) header: RequestHeader,
    /// Wire trace ID (0 = untraced).
    pub(crate) trace_id: u64,
    /// Header, trace extension and payload.
    pub(crate) raw: Vec<u8>,
}

impl Frame {
    pub(crate) fn payload(&self) -> &[u8] {
        &self.raw[self.raw.len() - self.header.payload_len..]
    }
}

/// Per-connection loop of both fronts: wait for a frame's first byte,
/// read the rest ([`read_frame`]) and hand it to `serve`, until the peer
/// leaves, `serve` returns `false` (close) or `draining()` holds.
/// Returns whether the peer vanished with a transport error.
pub(crate) fn handle_conn(
    mut stream: TcpStream,
    draining: &dyn Fn() -> bool,
    serve: &dyn Fn(&mut TcpStream, Result<Frame, FrameError>) -> bool,
) -> bool {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return false;
    }
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut first = [0u8; 1];
    while !draining() {
        match stream.read(&mut first) {
            Ok(0) => break,
            Ok(_) => {
                let frame = read_frame(&mut stream, first[0]);
                if !serve(&mut stream, frame) {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return true,
        }
    }
    false
}

/// Reads the rest of a frame whose first header byte has arrived; the
/// whole frame must arrive within [`FRAME_READ_TIMEOUT`].
fn read_frame(stream: &mut TcpStream, first: u8) -> Result<Frame, FrameError> {
    let deadline = Instant::now() + FRAME_READ_TIMEOUT;
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    read_remaining(stream, &mut header[1..], deadline)?;
    let h = frame::parse_request_header(&header)?;
    let ext_len = if h.has_trace_id { TRACE_ID_LEN } else { 0 };
    let mut raw = vec![0u8; HEADER_LEN + ext_len + h.payload_len];
    raw[..HEADER_LEN].copy_from_slice(&header);
    read_remaining(stream, &mut raw[HEADER_LEN..], deadline)?;
    let trace_id = match raw[HEADER_LEN..HEADER_LEN + ext_len].try_into() {
        Ok(ext) => frame::decode_trace_id(&ext),
        Err(_) => 0,
    };
    Ok(Frame {
        header: h,
        trace_id,
        raw,
    })
}

/// Reads exactly `buf` from a stream whose read timeout slices the
/// wait, giving up at `deadline`: a short read is a truncated frame.
fn read_remaining(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(FrameError::Truncated);
                }
            }
            Err(_) => return Err(FrameError::Truncated),
        }
    }
    Ok(())
}
