//! The `DCARTNET` wire protocol: length-prefixed, checksummed binary
//! frames over a byte stream.
//!
//! # Frame layout
//!
//! Every frame — request or response — is:
//!
//! ```text
//! magic    8 bytes   b"DCARTNET"
//! len      u32 LE    body length in bytes (capped at MAX_BODY)
//! body     len bytes
//! crc64    u64 LE    wal::checksum over body
//! ```
//!
//! Request body (fixed width):
//!
//! ```text
//! req_id      u64 LE   caller-chosen correlation id, echoed in the response
//! kind        u8       0 get · 1 insert · 2 remove · 3 scan · 4 stats · 5 shutdown
//! budget_ns   u64 LE   deadline budget from arrival (0 = server default)
//! key         8 bytes  big-endian u64 key (fixed width — see below)
//! value       u64 LE   insert value / scan limit; 0 otherwise
//! ```
//!
//! Response body:
//!
//! ```text
//! req_id          u64 LE
//! status          u8      0 ok · 1 rejected · 2 error
//! reject_code     u8      RejectReason::code when rejected, 0xFF otherwise
//! retry_after_ns  u64 LE  bounded retry hint (0 = don't retry)
//! value_present   u8      1 when `value` is meaningful
//! value           u64 LE  read result / displaced value / scan count
//! payload_len     u32 LE  trailing payload (stats JSON); 0 for ops
//! payload         bytes
//! ```
//!
//! # Why keys are fixed-width
//!
//! The executor's tree requires a *prefix-free* key set, and a violating
//! insert aborts the whole in-flight batch — unacceptable when the
//! violator is one misbehaving client among many. Equal-length keys are
//! prefix-free by construction, so the protocol pins `KEY_WIDTH` and the
//! decoder rejects anything else before it can reach the executor.
//!
//! Corruption anywhere (bad magic, truncated frame, flipped bit, absurd
//! length) is a typed [`WireError`], never a panic — pinned by the
//! proptest corruption suite.
//!
//! # Two de-framers, one set of checks
//!
//! [`read_frame`] pulls exactly one frame off a `Read` (four small reads
//! and one body `Vec`) — what clients and tests use, and the reference the
//! differential proptest compares against. The server's connection reader
//! uses [`FrameReader`]: one reusable buffer, one `read` per call, and
//! every complete frame in it parsed in place, as a slice — the same
//! magic, length-cap and checksum checks in the same order, yielding
//! the same [`WireError`] variants, with a partial frame kept for the next
//! call. Encoding writes each frame once: the `*_into` forms append to a
//! caller's buffer (the server's per-connection outbound buffer), and
//! [`encode_request`] / [`encode_response`] are those forms over a fresh
//! `Vec`.

use std::io::{self, Read, Write};

use dcart_engine::{wal, RejectReason};

/// Magic bytes opening every DCARTNET frame (the protocol's only on-wire
/// magic; rule F1 pins its definition to this module).
pub const NET_MAGIC: [u8; 8] = *b"DCARTNET";

/// Fixed key width: 8-byte big-endian u64 keys, the synthetic workloads'
/// encoding. Equal widths keep the key set prefix-free (see module docs).
pub const KEY_WIDTH: usize = 8;

/// Upper bound on a frame body; anything larger is corruption, not data
/// (requests are 34 bytes; stats payloads are small JSON).
pub const MAX_BODY: usize = 1 << 20;

const REQ_BODY: usize = 8 + 1 + 8 + KEY_WIDTH + 8;
const RESP_FIXED: usize = 8 + 1 + 1 + 8 + 1 + 8 + 4;
/// Magic and length in front of a body.
const HEADER: usize = 8 + 4;
/// The checksum behind it.
const TRAILER: usize = 8;

/// What a [`FrameReader`] asks of one `read`, and the buffer it keeps: a
/// full pipelining window of 53-byte requests fits several times over. It
/// grows only for a single frame that declares a longer (still capped)
/// body.
const READ_BUF: usize = 64 * 1024;

/// What a request asks the server to do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RequestKind {
    /// Point read of `key`.
    Get,
    /// Insert/overwrite `key` with `value` (acknowledged only after the
    /// batch is durable in WAL-backed mode).
    Insert,
    /// Remove `key`.
    Remove,
    /// Range scan: up to `value` items starting at `key`.
    Scan,
    /// Server/stats snapshot (answered outside the batch path).
    Stats,
    /// Graceful drain: stop accepting, flush, checkpoint, exit.
    Shutdown,
}

impl RequestKind {
    /// The wire byte for this kind.
    pub fn code(self) -> u8 {
        match self {
            RequestKind::Get => 0,
            RequestKind::Insert => 1,
            RequestKind::Remove => 2,
            RequestKind::Scan => 3,
            RequestKind::Stats => 4,
            RequestKind::Shutdown => 5,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(RequestKind::Get),
            1 => Some(RequestKind::Insert),
            2 => Some(RequestKind::Remove),
            3 => Some(RequestKind::Scan),
            4 => Some(RequestKind::Stats),
            5 => Some(RequestKind::Shutdown),
            _ => None,
        }
    }

    /// Whether this request mutates the tree (and therefore must be
    /// durable before acknowledgement, and is never shed).
    pub fn is_write(self) -> bool {
        matches!(self, RequestKind::Insert | RequestKind::Remove)
    }
}

/// A decoded request frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Request {
    /// Caller-chosen correlation id, echoed back verbatim.
    pub req_id: u64,
    /// Operation.
    pub kind: RequestKind,
    /// Deadline budget in nanoseconds from server-side arrival
    /// (0 = use the server's default budget).
    pub budget_ns: u64,
    /// The key, as a u64 (encoded big-endian on the wire).
    pub key: u64,
    /// Insert value or scan limit.
    pub value: u64,
}

/// Response status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Executed; `value` carries the result.
    Ok,
    /// Admission control rejected the request; `reject` says why.
    Rejected,
    /// Server-side failure (I/O, recovery) — request outcome unknown.
    Error,
}

/// A decoded response frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Response {
    /// Echo of the request's correlation id.
    pub req_id: u64,
    /// Outcome class.
    pub status: Status,
    /// Rejection reason when `status == Rejected`.
    pub reject: Option<RejectReason>,
    /// Bounded retry hint: retry after this many nanoseconds (0 = the
    /// server advises not to retry — e.g. draining).
    pub retry_after_ns: u64,
    /// The operation's result: read value, displaced value, scan count.
    pub value: Option<u64>,
    /// Stats JSON for stats requests; empty for ops.
    pub payload: Vec<u8>,
}

impl Response {
    /// An `Ok` response carrying an operation result.
    pub fn ok(req_id: u64, value: Option<u64>) -> Self {
        Response {
            req_id,
            status: Status::Ok,
            reject: None,
            retry_after_ns: 0,
            value,
            payload: Vec::new(),
        }
    }

    /// A rejection with a bounded retry hint.
    pub fn rejected(req_id: u64, reason: RejectReason, retry_after_ns: u64) -> Self {
        Response {
            req_id,
            status: Status::Rejected,
            reject: Some(reason),
            retry_after_ns,
            value: None,
            payload: Vec::new(),
        }
    }

    /// A server-side error (outcome unknown to the client).
    pub fn error(req_id: u64) -> Self {
        Response {
            req_id,
            status: Status::Error,
            reject: None,
            retry_after_ns: 0,
            value: None,
            payload: Vec::new(),
        }
    }
}

/// Every way a frame can fail to parse. Corrupt input must land here —
/// never in a panic — because the peer is untrusted.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The 8 magic bytes were wrong.
    BadMagic,
    /// The stream ended inside a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_BODY`].
    FrameTooLarge(u32),
    /// The crc64 over the body did not match.
    ChecksumMismatch,
    /// Body shorter/longer than its layout demands.
    BadLength,
    /// Unknown request-kind byte.
    UnknownKind(u8),
    /// Unknown status byte.
    UnknownStatus(u8),
    /// `status == Rejected` but the reject code is not a known reason.
    UnknownReject(u8),
    /// Underlying transport failure.
    Io(io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "frame does not start with DCARTNET"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::FrameTooLarge(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::BadLength => write!(f, "frame body length does not match its layout"),
            WireError::UnknownKind(c) => write!(f, "unknown request kind {c}"),
            WireError::UnknownStatus(c) => write!(f, "unknown response status {c}"),
            WireError::UnknownReject(c) => write!(f, "unknown rejection code {c}"),
            WireError::Io(k) => write!(f, "transport error: {k:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

/// Appends the checksum of the body that starts at `body_at` and runs to
/// the end of `out`.
fn seal(out: &mut Vec<u8>, body_at: usize) {
    let crc = wal::checksum(&out[body_at..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends `req` to `out` as one wire frame.
pub fn encode_request_into(req: &Request, out: &mut Vec<u8>) {
    out.reserve(HEADER + REQ_BODY + TRAILER);
    out.extend_from_slice(&NET_MAGIC);
    out.extend_from_slice(&(REQ_BODY as u32).to_le_bytes());
    let body_at = out.len();
    out.extend_from_slice(&req.req_id.to_le_bytes());
    out.push(req.kind.code());
    out.extend_from_slice(&req.budget_ns.to_le_bytes());
    out.extend_from_slice(&req.key.to_be_bytes());
    out.extend_from_slice(&req.value.to_le_bytes());
    seal(out, body_at);
}

/// Encodes a request as one wire frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + REQ_BODY + TRAILER);
    encode_request_into(req, &mut out);
    out
}

/// Appends `resp` to `out` as one wire frame.
pub fn encode_response_into(resp: &Response, out: &mut Vec<u8>) {
    let body_len = RESP_FIXED + resp.payload.len();
    out.reserve(HEADER + body_len + TRAILER);
    out.extend_from_slice(&NET_MAGIC);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let body_at = out.len();
    out.extend_from_slice(&resp.req_id.to_le_bytes());
    out.push(match resp.status {
        Status::Ok => 0,
        Status::Rejected => 1,
        Status::Error => 2,
    });
    out.push(resp.reject.map_or(0xFF, RejectReason::code));
    out.extend_from_slice(&resp.retry_after_ns.to_le_bytes());
    out.push(u8::from(resp.value.is_some()));
    out.extend_from_slice(&resp.value.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&(resp.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&resp.payload);
    seal(out, body_at);
}

/// Encodes a response as one wire frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + RESP_FIXED + resp.payload.len() + TRAILER);
    encode_response_into(resp, &mut out);
    out
}

fn le_u64(b: &[u8], off: usize) -> Result<u64, WireError> {
    b.get(off..off + 8)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_le_bytes)
        .ok_or(WireError::BadLength)
}

/// Decodes a request body (the de-framed bytes).
pub fn decode_request(body: &[u8]) -> Result<Request, WireError> {
    if body.len() != REQ_BODY {
        return Err(WireError::BadLength);
    }
    let req_id = le_u64(body, 0)?;
    let kind = RequestKind::from_code(body[8]).ok_or(WireError::UnknownKind(body[8]))?;
    let budget_ns = le_u64(body, 9)?;
    let key = body
        .get(17..17 + KEY_WIDTH)
        .and_then(|s| s.try_into().ok())
        .map(u64::from_be_bytes)
        .ok_or(WireError::BadLength)?;
    let value = le_u64(body, 17 + KEY_WIDTH)?;
    Ok(Request { req_id, kind, budget_ns, key, value })
}

/// Decodes a response body (the de-framed bytes).
pub fn decode_response(body: &[u8]) -> Result<Response, WireError> {
    if body.len() < RESP_FIXED {
        return Err(WireError::BadLength);
    }
    let req_id = le_u64(body, 0)?;
    let status = match body[8] {
        0 => Status::Ok,
        1 => Status::Rejected,
        2 => Status::Error,
        c => return Err(WireError::UnknownStatus(c)),
    };
    let reject = match (status, body[9]) {
        (Status::Rejected, c) => {
            Some(RejectReason::from_code(c).ok_or(WireError::UnknownReject(c))?)
        }
        _ => None,
    };
    let retry_after_ns = le_u64(body, 10)?;
    let value = match body[18] {
        0 => None,
        _ => Some(le_u64(body, 19)?),
    };
    let payload_len = body
        .get(27..31)
        .and_then(|s| s.try_into().ok())
        .map(u32::from_le_bytes)
        .ok_or(WireError::BadLength)? as usize;
    let payload = body.get(RESP_FIXED..).ok_or(WireError::BadLength)?;
    if payload.len() != payload_len {
        return Err(WireError::BadLength);
    }
    Ok(Response { req_id, status, reject, retry_after_ns, value, payload: payload.to_vec() })
}

/// Reads one de-framed body from a byte stream, verifying magic, length
/// cap, and checksum. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between frames).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut magic = [0u8; 8];
    // A clean EOF before any magic byte is a closed connection, not an
    // error; EOF after the first byte is a torn frame.
    let mut filled = 0usize;
    while filled < magic.len() {
        match r.read(&mut magic[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    if magic != NET_MAGIC {
        return Err(WireError::BadMagic);
    }
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_le_bytes(len4);
    if len as usize > MAX_BODY {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let mut crc8 = [0u8; 8];
    r.read_exact(&mut crc8)?;
    if wal::checksum(&body) != u64::from_le_bytes(crc8) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(Some(body))
}

/// Writes pre-encoded frame bytes to a stream.
pub fn write_frame<W: Write>(w: &mut W, bytes: &[u8]) -> Result<(), WireError> {
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// The length of the frame that starts `buf`, header and checksum
/// included, once its magic and length prefix are there to check; `None`
/// while they are not.
fn frame_span(buf: &[u8]) -> Result<Option<usize>, WireError> {
    let Some((magic, rest)) = buf.split_first_chunk::<8>() else { return Ok(None) };
    if *magic != NET_MAGIC {
        return Err(WireError::BadMagic);
    }
    let Some(len4) = rest.first_chunk::<4>() else { return Ok(None) };
    let len = u32::from_le_bytes(*len4);
    if len as usize > MAX_BODY {
        return Err(WireError::FrameTooLarge(len));
    }
    Ok(Some(HEADER + len as usize + TRAILER))
}

/// De-frames the front of `buf` in place: the body and how many bytes the
/// frame took, or `None` when `buf` ends before the frame does. The checks
/// and their order are [`read_frame`]'s — magic as soon as eight bytes are
/// there, the length cap before anything is sized by it, the checksum once
/// the frame is complete.
fn parse_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    let Some(span) = frame_span(buf)? else { return Ok(None) };
    let Some((body, crc8)) =
        buf.get(HEADER..span).and_then(|rest| rest.split_last_chunk::<TRAILER>())
    else {
        return Ok(None);
    };
    if wal::checksum(body) != u64::from_le_bytes(*crc8) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(Some((body, span)))
}

/// A connection's read side: one reusable buffer that takes whatever one
/// `read` brings and gives back every complete request in it, keeping a
/// partial frame for the next call.
pub struct FrameReader {
    buf: Vec<u8>,
    /// `buf[start..end]` is received and not yet parsed.
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader { buf: vec![0; READ_BUF], start: 0, end: 0 }
    }
}

impl FrameReader {
    /// Issues one `read` on `r` and appends to `out` every request that is
    /// now complete, in stream order. `Ok(false)` is a clean EOF at a frame
    /// boundary.
    ///
    /// # Errors
    ///
    /// What [`read_frame`] followed by [`decode_request`] would return at
    /// the same point of the stream; the requests in front of the
    /// offending frame are in `out`. A read timeout surfaces as
    /// [`WireError::Io`] with nothing lost: the bytes received so far stay
    /// buffered and the next call continues the frame.
    pub fn read_requests<R: Read>(
        &mut self,
        r: &mut R,
        out: &mut Vec<Request>,
    ) -> Result<bool, WireError> {
        // What is left from the last call is at most one partial frame:
        // slide it to the front, and make room if its (already capped)
        // length says it cannot fit.
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if let Some(span) = frame_span(&self.buf[..self.end])? {
            if span > self.buf.len() {
                self.buf.resize(span, 0);
            }
        }
        let n = loop {
            match r.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => break other?,
            }
        };
        if n == 0 {
            return if self.end == 0 { Ok(false) } else { Err(WireError::Truncated) };
        }
        self.end += n;
        while let Some((body, used)) = parse_frame(&self.buf[self.start..self.end])? {
            out.push(decode_request(body)?);
            self.start += used;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            req_id: 0xDEAD_BEEF,
            kind: RequestKind::Insert,
            budget_ns: 5_000_000,
            key: 42,
            value: 7,
        };
        let framed = encode_request(&req);
        let body = read_frame(&mut framed.as_slice()).expect("valid frame").expect("not EOF");
        assert_eq!(decode_request(&body).expect("decodes"), req);
    }

    #[test]
    fn response_roundtrip_with_payload() {
        let resp = Response {
            req_id: 9,
            status: Status::Ok,
            reject: None,
            retry_after_ns: 0,
            value: Some(123),
            payload: br#"{"queue_depth":3}"#.to_vec(),
        };
        let framed = encode_response(&resp);
        let body = read_frame(&mut framed.as_slice()).expect("valid frame").expect("not EOF");
        assert_eq!(decode_response(&body).expect("decodes"), resp);
    }

    #[test]
    fn rejection_roundtrip() {
        let resp = Response::rejected(4, RejectReason::ShedScan, 1_000_000);
        let framed = encode_response(&resp);
        let body = read_frame(&mut framed.as_slice()).expect("valid frame").expect("not EOF");
        let back = decode_response(&body).expect("decodes");
        assert_eq!(back.reject, Some(RejectReason::ShedScan));
        assert_eq!(back.retry_after_ns, 1_000_000);
    }

    #[test]
    fn clean_eof_is_none_torn_frame_is_truncated() {
        assert_eq!(read_frame(&mut [].as_slice()).expect("clean EOF"), None);
        let framed = encode_request(&Request {
            req_id: 1,
            kind: RequestKind::Get,
            budget_ns: 0,
            key: 1,
            value: 0,
        });
        let torn = &framed[..framed.len() - 3];
        assert_eq!(read_frame(&mut &torn[..]), Err(WireError::Truncated));
    }

    #[test]
    fn flipped_bit_is_checksum_mismatch() {
        let mut framed = encode_request(&Request {
            req_id: 1,
            kind: RequestKind::Get,
            budget_ns: 0,
            key: 1,
            value: 0,
        });
        let mid = 8 + 4 + 2; // inside the body
        framed[mid] ^= 0x40;
        assert_eq!(read_frame(&mut framed.as_slice()), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&NET_MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_frame(&mut bytes.as_slice()), Err(WireError::FrameTooLarge(u32::MAX)));
    }
    /// The frames of one request and one response, byte for byte as the
    /// two-`Vec` encoder before the `*_into` forms produced them: the wire
    /// format did not move.
    #[test]
    fn golden_bytes_of_a_request_and_a_response_frame() {
        let req = Request {
            req_id: 0x0102_0304_0506_0708,
            kind: RequestKind::Insert,
            budget_ns: 5_000_000,
            key: 0x1122_3344_5566_7788,
            value: 0x99aa_bbcc_ddee_ff00,
        };
        #[rustfmt::skip]
        let req_frame: [u8; 53] = [
            0x44, 0x43, 0x41, 0x52, 0x54, 0x4e, 0x45, 0x54, 0x21, 0x00, 0x00, 0x00,
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x01, 0x40, 0x4b, 0x4c,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
            0x88, 0x00, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x71, 0x23, 0x52,
            0x7a, 0x0e, 0x94, 0xf9, 0x52,
        ];
        assert_eq!(encode_request(&req), req_frame);

        let mut resp = Response::rejected(0x0a0b_0c0d_0e0f_1011, RejectReason::ShedScan, 4_000_000);
        resp.value = Some(0x2122_2324_2526_2728);
        resp.payload = b"{\"q\":3}".to_vec();
        #[rustfmt::skip]
        let resp_frame: [u8; 58] = [
            0x44, 0x43, 0x41, 0x52, 0x54, 0x4e, 0x45, 0x54, 0x26, 0x00, 0x00, 0x00,
            0x11, 0x10, 0x0f, 0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x01, 0x02, 0x00, 0x09,
            0x3d, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x28, 0x27, 0x26, 0x25, 0x24,
            0x23, 0x22, 0x21, 0x07, 0x00, 0x00, 0x00, 0x7b, 0x22, 0x71, 0x22, 0x3a,
            0x33, 0x7d, 0x94, 0xdc, 0x45, 0xd2, 0x78, 0x5d, 0xb9, 0xad,
        ];
        assert_eq!(encode_response(&resp), resp_frame);

        // The appending forms add exactly those bytes behind what is there.
        let mut out = vec![0xEE];
        encode_request_into(&req, &mut out);
        encode_response_into(&resp, &mut out);
        assert_eq!(out, [&[0xEE][..], &req_frame, &resp_frame].concat());
    }

    #[test]
    fn frame_reader_takes_every_complete_frame_of_one_read_and_keeps_the_rest() {
        let reqs: Vec<Request> = (0..5u64)
            .map(|i| Request { req_id: i, kind: RequestKind::Get, budget_ns: 0, key: i, value: 0 })
            .collect();
        let stream: Vec<u8> = reqs.iter().flat_map(encode_request).collect();
        // Two and a half frames, then the rest: one read each.
        let cut = 2 * 53 + 20;
        let mut frames = FrameReader::default();
        let mut out = Vec::new();
        assert_eq!(frames.read_requests(&mut &stream[..cut], &mut out), Ok(true));
        assert_eq!(out, reqs[..2]);
        assert_eq!(frames.read_requests(&mut &stream[cut..], &mut out), Ok(true));
        assert_eq!(out, reqs);
        assert_eq!(frames.read_requests(&mut [].as_slice(), &mut out), Ok(false), "clean EOF");
        // EOF inside a frame is a torn frame.
        let mut frames = FrameReader::default();
        let mut torn = &stream[..60];
        assert_eq!(frames.read_requests(&mut torn, &mut out), Ok(true));
        assert_eq!(frames.read_requests(&mut torn, &mut out), Err(WireError::Truncated));
    }

    #[test]
    fn frame_reader_refuses_an_oversized_length_before_its_buffer_grows() {
        let mut bytes = NET_MAGIC.to_vec();
        bytes.extend_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        let mut frames = FrameReader::default();
        let mut out = Vec::new();
        assert_eq!(
            frames.read_requests(&mut bytes.as_slice(), &mut out),
            Err(WireError::FrameTooLarge(MAX_BODY as u32 + 1))
        );
        assert_eq!(frames.buf.len(), READ_BUF);

        // The largest legal body does grow the buffer — to that frame and
        // no further — and is then refused for what it is: not a request.
        let body = vec![7u8; MAX_BODY];
        let mut legal = NET_MAGIC.to_vec();
        legal.extend_from_slice(&(MAX_BODY as u32).to_le_bytes());
        legal.extend_from_slice(&body);
        legal.extend_from_slice(&wal::checksum(&body).to_le_bytes());
        // A slice hands a read what fits: the buffer as it is, then the rest.
        let mut frames = FrameReader::default();
        let mut stream = legal.as_slice();
        assert_eq!(frames.read_requests(&mut stream, &mut out), Ok(true));
        assert_eq!(frames.read_requests(&mut stream, &mut out), Err(WireError::BadLength));
        assert_eq!(frames.buf.len(), HEADER + MAX_BODY + TRAILER);
        assert!(out.is_empty());
    }
}
