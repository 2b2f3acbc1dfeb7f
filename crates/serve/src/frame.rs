//! The `mupod-serve` wire protocol: fixed 16-byte headers, validated
//! *before* any payload allocation.
//!
//! Both directions use a little-endian binary frame with a 4-byte magic
//! so a stray connection (HTTP probe, port scanner) is rejected from
//! the first bytes, never buffered. Request:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"mupq"
//!      4     1  version (1)
//!      5     1  kind     1 = classify, 2 = chaos-panic (test only),
//!                        3 = health-ping, 4 = reload
//!      6     1  priority 0 = high, 1 = low
//!      7     1  flags    bit 0 = trace-ID extension present
//!      8     4  deadline_ms (u32 LE; 0 = server default)
//!     12     4  payload_len (u32 LE, bytes)
//! ```
//!
//! When [`FLAG_TRACE_ID`] is set, an 8-byte LE trace ID follows the
//! header immediately, **before** the payload and excluded from
//! `payload_len`. The server echoes the ID back in the response frame
//! (response flags live at byte 6; byte 7 stays reserved) and stamps
//! it on every flight-recorder event the request produces, so one ID
//! links a client-side timeout to the server-side lifecycle. Trace ID
//! 0 is reserved to mean "untraced" — senders wanting tracing should
//! pick a nonzero ID. Unknown flag bits are a hard [`FrameError`]:
//! old servers reject rather than silently mis-frame.
//!
//! The classify payload is the image as raw `f32` LE words; its length
//! must equal the served model's input element count exactly — anything
//! else is a [`FrameError`] answered with
//! [`StatusCode::BadRequest`](mupod_runtime::StatusCode::BadRequest).
//! Response frames mirror the layout with magic `b"mups"` and a status
//! byte from the shared [`StatusCode`](mupod_runtime::StatusCode)
//! table; an OK payload is the class index as one `u32` LE, an error
//! payload is a UTF-8 diagnostic.
//!
//! Two control ops ride the same frame, added for the routing front:
//!
//! * **health-ping** (kind 3, empty payload) is answered inline by the
//!   connection handler — it never enters the queue — with an OK frame
//!   whose 1-byte payload is a [`ShardState`]. The router uses it for
//!   active health checking and as the half-open breaker probe.
//! * **reload** (kind 4, 8-byte LE seed payload) asks the shard to
//!   rebuild and recalibrate its network from the seed and swap it in
//!   atomically; the OK payload is the new 8-byte LE model epoch.
//!   Queued and in-flight requests keep executing on whichever network
//!   they dequeued with, so a reload never drops a connection.

use std::time::Duration;

use mupod_runtime::StatusCode;

/// Request-frame magic.
pub const REQ_MAGIC: [u8; 4] = *b"mupq";
/// Response-frame magic.
pub const RESP_MAGIC: [u8; 4] = *b"mups";
/// Only protocol version in existence.
pub const PROTOCOL_VERSION: u8 = 1;
/// Fixed header size, both directions.
pub const HEADER_LEN: usize = 16;
/// Absolute payload ceiling — no model served here comes close, and it
/// bounds what a malicious `payload_len` can make the server allocate.
pub const MAX_PAYLOAD_BYTES: usize = 16 << 20;
/// Flag bit: an 8-byte LE trace ID follows the header.
pub const FLAG_TRACE_ID: u8 = 0b0000_0001;
/// Size of the trace-ID extension when present.
pub const TRACE_ID_LEN: usize = 8;
/// All flag bits this version understands.
const KNOWN_FLAGS: u8 = FLAG_TRACE_ID;

/// What a request asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// Run the image through the model, answer the arg-max class.
    Classify,
    /// Panic the worker that picks this up (fault injection; only
    /// honored when the server runs with `--chaos`).
    ChaosPanic,
    /// Liveness probe answered inline by the connection handler with a
    /// [`ShardState`] byte; never queued, never touches a worker.
    HealthPing,
    /// Rebuild the served network from the 8-byte LE seed in the
    /// payload and hot-swap it (drain-and-swap; see module docs).
    Reload,
}

/// What a shard reports about itself in a health-ping reply payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Serving normally.
    Ok,
    /// Serving, but the load-shedding ladder is above level 0.
    Degraded,
    /// A model reload is in progress; serving continues on the old
    /// network, but a router may prefer other shards.
    Reloading,
    /// Draining; the shard will reject new work.
    Draining,
}

impl ShardState {
    /// The state as its wire byte.
    pub fn wire(self) -> u8 {
        match self {
            ShardState::Ok => 0,
            ShardState::Degraded => 1,
            ShardState::Reloading => 2,
            ShardState::Draining => 3,
        }
    }

    /// Looks a wire byte back up; `None` for unknown bytes.
    pub fn from_wire(byte: u8) -> Option<ShardState> {
        match byte {
            0 => Some(ShardState::Ok),
            1 => Some(ShardState::Degraded),
            2 => Some(ShardState::Reloading),
            3 => Some(ShardState::Draining),
            _ => None,
        }
    }

    /// Whether a router should send classify traffic here.
    pub fn routable(self) -> bool {
        matches!(
            self,
            ShardState::Ok | ShardState::Degraded | ShardState::Reloading
        )
    }
}

/// Admission priority; the load-shedding ladder rejects `Low` first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Normal traffic.
    High,
    /// Best-effort traffic, shed under pressure.
    Low,
}

/// A parsed, validated request header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// Requested operation.
    pub kind: ReqKind,
    /// Admission priority.
    pub priority: Priority,
    /// Per-request deadline in milliseconds; 0 means server default.
    pub deadline_ms: u32,
    /// Payload size in bytes (already bounds-checked).
    pub payload_len: usize,
    /// Whether an 8-byte trace ID follows the header.
    pub has_trace_id: bool,
}

impl RequestHeader {
    /// The request's time budget: its wire deadline, or `default` when
    /// it carries none.
    pub fn budget(&self, default: Duration) -> Duration {
        if self.deadline_ms == 0 {
            default
        } else {
            Duration::from_millis(u64::from(self.deadline_ms))
        }
    }
}

/// A parsed response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHeader {
    /// Outcome from the shared status table.
    pub status: StatusCode,
    /// Payload size in bytes (already bounds-checked).
    pub payload_len: usize,
    /// Whether an 8-byte trace ID follows the header.
    pub has_trace_id: bool,
}

/// Why a frame was rejected. Every variant maps to
/// [`StatusCode::BadRequest`] on the wire; the message payload carries
/// the `Display` text so clients see *which* check failed.
#[derive(Debug)]
pub enum FrameError {
    /// The first four bytes were not the expected magic.
    BadMagic {
        /// The bytes actually received.
        got: [u8; 4],
    },
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown request-kind byte.
    BadKind(u8),
    /// Unknown priority byte.
    BadPriority(u8),
    /// Unknown response status byte.
    BadStatus(u8),
    /// Flag bits this protocol version does not understand.
    BadFlags(u8),
    /// `payload_len` exceeds [`MAX_PAYLOAD_BYTES`].
    Oversized {
        /// Declared payload length.
        len: usize,
    },
    /// The payload length does not match what the served model needs.
    WrongPayloadLen {
        /// Declared payload length in bytes.
        got: usize,
        /// Required payload length in bytes.
        want: usize,
    },
    /// The peer closed or stalled mid-frame.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { got } => write!(f, "bad frame magic {got:?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown request kind {k}"),
            FrameError::BadPriority(p) => write!(f, "unknown priority {p}"),
            FrameError::BadStatus(s) => write!(f, "unknown response status {s}"),
            FrameError::BadFlags(b) => write!(f, "unknown frame flags {b:#04x}"),
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte cap"
                )
            }
            FrameError::WrongPayloadLen { got, want } => {
                write!(f, "payload is {got} bytes, model needs exactly {want}")
            }
            FrameError::Truncated => write!(f, "frame truncated mid-read"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes a classify/chaos request frame.
pub fn encode_request(
    kind: ReqKind,
    priority: Priority,
    deadline_ms: u32,
    image: &[f32],
) -> Vec<u8> {
    encode_request_traced(kind, priority, deadline_ms, None, image)
}

/// Encodes a request frame, optionally carrying a trace ID the server
/// will echo back. `Some(0)` is treated as untraced.
pub fn encode_request_traced(
    kind: ReqKind,
    priority: Priority,
    deadline_ms: u32,
    trace_id: Option<u64>,
    image: &[f32],
) -> Vec<u8> {
    let mut payload = Vec::with_capacity(image.len() * 4);
    for v in image {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    encode_request_raw(kind, priority, deadline_ms, trace_id, &payload)
}

/// Encodes a request frame around an arbitrary raw payload. The
/// classify encoders build their `f32` payload and delegate here; the
/// control ops ([`encode_ping`], [`encode_reload`]) use it directly.
pub fn encode_request_raw(
    kind: ReqKind,
    priority: Priority,
    deadline_ms: u32,
    trace_id: Option<u64>,
    payload: &[u8],
) -> Vec<u8> {
    let trace_id = trace_id.filter(|&id| id != 0);
    let ext = if trace_id.is_some() { TRACE_ID_LEN } else { 0 };
    let mut buf = Vec::with_capacity(HEADER_LEN + ext + payload.len());
    buf.extend_from_slice(&REQ_MAGIC);
    buf.push(PROTOCOL_VERSION);
    buf.push(match kind {
        ReqKind::Classify => 1,
        ReqKind::ChaosPanic => 2,
        ReqKind::HealthPing => 3,
        ReqKind::Reload => 4,
    });
    buf.push(match priority {
        Priority::High => 0,
        Priority::Low => 1,
    });
    buf.push(if trace_id.is_some() { FLAG_TRACE_ID } else { 0 });
    buf.extend_from_slice(&deadline_ms.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    if let Some(id) = trace_id {
        buf.extend_from_slice(&id.to_le_bytes());
    }
    buf.extend_from_slice(payload);
    buf
}

/// Encodes a health-ping request (empty payload, server-default
/// deadline; answered inline, so the deadline is moot anyway).
pub fn encode_ping() -> Vec<u8> {
    encode_request_raw(ReqKind::HealthPing, Priority::High, 0, None, &[])
}

/// Encodes a reload request carrying the new calibration seed.
pub fn encode_reload(seed: u64, deadline_ms: u32) -> Vec<u8> {
    encode_request_raw(
        ReqKind::Reload,
        Priority::High,
        deadline_ms,
        None,
        &seed.to_le_bytes(),
    )
}

/// Decodes a reload request's seed payload; `None` unless it is
/// exactly eight bytes.
pub fn decode_reload_seed(payload: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = payload.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// Parses and validates a request header.
///
/// # Errors
///
/// Any field outside the protocol table returns the matching
/// [`FrameError`]; the oversize check runs **before** the caller
/// allocates a payload buffer.
pub fn parse_request_header(buf: &[u8; HEADER_LEN]) -> Result<RequestHeader, FrameError> {
    if buf[..4] != REQ_MAGIC {
        return Err(FrameError::BadMagic {
            got: [buf[0], buf[1], buf[2], buf[3]],
        });
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(buf[4]));
    }
    let kind = match buf[5] {
        1 => ReqKind::Classify,
        2 => ReqKind::ChaosPanic,
        3 => ReqKind::HealthPing,
        4 => ReqKind::Reload,
        k => return Err(FrameError::BadKind(k)),
    };
    let priority = match buf[6] {
        0 => Priority::High,
        1 => Priority::Low,
        p => return Err(FrameError::BadPriority(p)),
    };
    let flags = buf[7];
    if flags & !KNOWN_FLAGS != 0 {
        return Err(FrameError::BadFlags(flags));
    }
    let deadline_ms = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let payload_len = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]) as usize;
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(FrameError::Oversized { len: payload_len });
    }
    Ok(RequestHeader {
        kind,
        priority,
        deadline_ms,
        payload_len,
        has_trace_id: flags & FLAG_TRACE_ID != 0,
    })
}

/// Decodes a classify payload into `f32` image data.
///
/// # Panics
///
/// Panics if `payload` is not a multiple of four bytes; the header
/// validation guarantees it is.
pub fn decode_image(payload: &[u8]) -> Vec<f32> {
    assert_eq!(payload.len() % 4, 0, "image payload must be whole f32s");
    payload
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Encodes a response frame with an arbitrary payload.
pub fn encode_response(status: StatusCode, payload: &[u8]) -> Vec<u8> {
    encode_response_traced(status, None, payload)
}

/// Encodes a response frame, echoing a trace ID when `Some` and
/// nonzero (response flags live at byte 6; byte 7 stays reserved).
pub fn encode_response_traced(
    status: StatusCode,
    trace_id: Option<u64>,
    payload: &[u8],
) -> Vec<u8> {
    let trace_id = trace_id.filter(|&id| id != 0);
    let ext = if trace_id.is_some() { TRACE_ID_LEN } else { 0 };
    let mut buf = Vec::with_capacity(HEADER_LEN + ext + payload.len());
    buf.extend_from_slice(&RESP_MAGIC);
    buf.push(PROTOCOL_VERSION);
    buf.push(status.wire());
    buf.push(if trace_id.is_some() { FLAG_TRACE_ID } else { 0 });
    buf.push(0);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&[0, 0, 0, 0]);
    if let Some(id) = trace_id {
        buf.extend_from_slice(&id.to_le_bytes());
    }
    buf.extend_from_slice(payload);
    buf
}

/// Encodes the OK response carrying a class index.
pub fn encode_class_response(class: u32) -> Vec<u8> {
    encode_response(StatusCode::Ok, &class.to_le_bytes())
}

/// Parses and validates a response header.
///
/// # Errors
///
/// Returns the matching [`FrameError`] on any malformed field.
pub fn parse_response_header(buf: &[u8; HEADER_LEN]) -> Result<ResponseHeader, FrameError> {
    if buf[..4] != RESP_MAGIC {
        return Err(FrameError::BadMagic {
            got: [buf[0], buf[1], buf[2], buf[3]],
        });
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(buf[4]));
    }
    let status = StatusCode::from_wire(buf[5]).ok_or(FrameError::BadStatus(buf[5]))?;
    let flags = buf[6];
    if flags & !KNOWN_FLAGS != 0 {
        return Err(FrameError::BadFlags(flags));
    }
    let payload_len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(FrameError::Oversized { len: payload_len });
    }
    Ok(ResponseHeader {
        status,
        payload_len,
        has_trace_id: flags & FLAG_TRACE_ID != 0,
    })
}

/// Decodes the 8-byte LE trace-ID extension.
pub fn decode_trace_id(ext: &[u8; TRACE_ID_LEN]) -> u64 {
    u64::from_le_bytes(*ext)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header_of(frame: &[u8]) -> [u8; HEADER_LEN] {
        frame[..HEADER_LEN].try_into().expect("frame has a header")
    }

    #[test]
    fn request_round_trips() {
        let image = [0.5f32, -1.25, 3.0];
        let frame = encode_request(ReqKind::Classify, Priority::Low, 250, &image);
        let h = parse_request_header(&header_of(&frame)).unwrap();
        assert_eq!(h.kind, ReqKind::Classify);
        assert_eq!(h.priority, Priority::Low);
        assert_eq!(h.deadline_ms, 250);
        assert_eq!(h.payload_len, 12);
        assert_eq!(decode_image(&frame[HEADER_LEN..]), image);
    }

    #[test]
    fn response_round_trips() {
        let frame = encode_class_response(7);
        let h = parse_response_header(&header_of(&frame)).unwrap();
        assert_eq!(h.status, StatusCode::Ok);
        assert_eq!(h.payload_len, 4);
        assert_eq!(&frame[HEADER_LEN..], 7u32.to_le_bytes());

        let err = encode_response(StatusCode::ServerBusy, b"queue full");
        let h = parse_response_header(&header_of(&err)).unwrap();
        assert_eq!(h.status, StatusCode::ServerBusy);
        assert_eq!(&err[HEADER_LEN..], b"queue full");
    }

    #[test]
    fn corrupted_headers_are_typed_errors() {
        let good = encode_request(ReqKind::Classify, Priority::High, 0, &[1.0]);
        let mut h = header_of(&good);
        h[0] = b'H'; // an HTTP probe, say
        assert!(matches!(
            parse_request_header(&h),
            Err(FrameError::BadMagic { .. })
        ));

        let mut h = header_of(&good);
        h[4] = 9;
        assert!(matches!(
            parse_request_header(&h),
            Err(FrameError::BadVersion(9))
        ));

        let mut h = header_of(&good);
        h[5] = 77;
        assert!(matches!(
            parse_request_header(&h),
            Err(FrameError::BadKind(77))
        ));

        let mut h = header_of(&good);
        h[6] = 3;
        assert!(matches!(
            parse_request_header(&h),
            Err(FrameError::BadPriority(3))
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_before_allocation() {
        let good = encode_request(ReqKind::Classify, Priority::High, 0, &[1.0]);
        let mut h = header_of(&good);
        h[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            parse_request_header(&h),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn unknown_response_status_is_rejected() {
        let frame = encode_class_response(0);
        let mut h = header_of(&frame);
        h[5] = 99;
        assert!(matches!(
            parse_response_header(&h),
            Err(FrameError::BadStatus(99))
        ));
    }

    #[test]
    fn traced_request_round_trips() {
        let image = [1.0f32, 2.0];
        let frame =
            encode_request_traced(ReqKind::Classify, Priority::High, 100, Some(0xFACE), &image);
        let h = parse_request_header(&header_of(&frame)).unwrap();
        assert!(h.has_trace_id);
        assert_eq!(h.payload_len, 8, "trace ID is excluded from payload_len");
        let ext: [u8; TRACE_ID_LEN] = frame[HEADER_LEN..HEADER_LEN + TRACE_ID_LEN]
            .try_into()
            .unwrap();
        assert_eq!(decode_trace_id(&ext), 0xFACE);
        assert_eq!(decode_image(&frame[HEADER_LEN + TRACE_ID_LEN..]), image);
    }

    #[test]
    fn traced_response_round_trips() {
        let frame = encode_response_traced(StatusCode::Ok, Some(0xFACE), &7u32.to_le_bytes());
        let h = parse_response_header(&header_of(&frame)).unwrap();
        assert!(h.has_trace_id);
        assert_eq!(h.payload_len, 4);
        let ext: [u8; TRACE_ID_LEN] = frame[HEADER_LEN..HEADER_LEN + TRACE_ID_LEN]
            .try_into()
            .unwrap();
        assert_eq!(decode_trace_id(&ext), 0xFACE);
        assert_eq!(&frame[HEADER_LEN + TRACE_ID_LEN..], 7u32.to_le_bytes());
    }

    #[test]
    fn zero_or_absent_trace_id_means_untraced() {
        for frame in [
            encode_request_traced(ReqKind::Classify, Priority::High, 0, None, &[1.0]),
            encode_request_traced(ReqKind::Classify, Priority::High, 0, Some(0), &[1.0]),
            encode_request(ReqKind::Classify, Priority::High, 0, &[1.0]),
        ] {
            let h = parse_request_header(&header_of(&frame)).unwrap();
            assert!(!h.has_trace_id);
            assert_eq!(frame.len(), HEADER_LEN + 4);
        }
        let resp = encode_response_traced(StatusCode::Ok, Some(0), &[]);
        assert!(
            !parse_response_header(&header_of(&resp))
                .unwrap()
                .has_trace_id
        );
        assert_eq!(resp.len(), HEADER_LEN);
    }

    #[test]
    fn control_ops_round_trip() {
        let ping = encode_ping();
        let h = parse_request_header(&header_of(&ping)).unwrap();
        assert_eq!(h.kind, ReqKind::HealthPing);
        assert_eq!(h.payload_len, 0);
        assert_eq!(ping.len(), HEADER_LEN);

        let reload = encode_reload(0xDEAD_BEEF_CAFE, 2_000);
        let h = parse_request_header(&header_of(&reload)).unwrap();
        assert_eq!(h.kind, ReqKind::Reload);
        assert_eq!(h.deadline_ms, 2_000);
        assert_eq!(h.payload_len, 8);
        assert_eq!(
            decode_reload_seed(&reload[HEADER_LEN..]),
            Some(0xDEAD_BEEF_CAFE)
        );
        assert_eq!(decode_reload_seed(&[1, 2, 3]), None);
    }

    #[test]
    fn unknown_op_bytes_are_rejected() {
        let good = encode_ping();
        for op in [0u8, 5, 6, 42, 255] {
            let mut h = header_of(&good);
            h[5] = op;
            assert!(
                matches!(parse_request_header(&h), Err(FrameError::BadKind(k)) if k == op),
                "op {op} must be rejected"
            );
        }
    }

    #[test]
    fn shard_state_wire_round_trips() {
        for state in [
            ShardState::Ok,
            ShardState::Degraded,
            ShardState::Reloading,
            ShardState::Draining,
        ] {
            assert_eq!(ShardState::from_wire(state.wire()), Some(state));
        }
        assert_eq!(ShardState::from_wire(4), None);
        assert!(ShardState::Ok.routable());
        assert!(ShardState::Reloading.routable());
        assert!(!ShardState::Draining.routable());
    }

    #[test]
    fn raw_request_encapsulation_is_byte_identical() {
        // A router that re-encodes a parsed request with
        // `encode_request_raw` must reproduce the original frame
        // byte-for-byte: deadline, flags, trace ID, and payload all
        // survive the hop.
        let image = [0.25f32, -7.5, 11.0];
        let original =
            encode_request_traced(ReqKind::Classify, Priority::Low, 777, Some(0xABCD), &image);
        let h = parse_request_header(&header_of(&original)).unwrap();
        let ext: [u8; TRACE_ID_LEN] = original[HEADER_LEN..HEADER_LEN + TRACE_ID_LEN]
            .try_into()
            .unwrap();
        let reencoded = encode_request_raw(
            h.kind,
            h.priority,
            h.deadline_ms,
            Some(decode_trace_id(&ext)),
            &original[HEADER_LEN + TRACE_ID_LEN..],
        );
        assert_eq!(reencoded, original);
    }

    #[test]
    fn unknown_flag_bits_are_rejected_both_directions() {
        let good = encode_request(ReqKind::Classify, Priority::High, 0, &[1.0]);
        let mut h = header_of(&good);
        h[7] = 0x82;
        assert!(matches!(
            parse_request_header(&h),
            Err(FrameError::BadFlags(0x82))
        ));

        let resp = encode_class_response(0);
        let mut h = header_of(&resp);
        h[6] = 0x04;
        assert!(matches!(
            parse_response_header(&h),
            Err(FrameError::BadFlags(0x04))
        ));
    }
}
