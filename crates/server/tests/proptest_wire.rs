//! Property tests for the DCARTNET wire codec: encode→frame→decode is
//! the identity for every request and response, and *no* corruption —
//! truncation, bit flips, random garbage — ever produces anything but a
//! typed [`WireError`]. The peer is untrusted; a panic here is a
//! remote-triggered crash.

use std::io::{Cursor, Read};

use dcart_engine::RejectReason;
use dcart_server::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, FrameReader,
    Request, RequestKind, Response, Status, WireError, NET_MAGIC,
};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = RequestKind> {
    prop_oneof![
        Just(RequestKind::Get),
        Just(RequestKind::Insert),
        Just(RequestKind::Remove),
        Just(RequestKind::Scan),
        Just(RequestKind::Stats),
        Just(RequestKind::Shutdown),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (any::<u64>(), kind_strategy(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(req_id, kind, budget_ns, key, value)| Request { req_id, kind, budget_ns, key, value },
    )
}

fn response_strategy() -> impl Strategy<Value = Response> {
    let reject = prop_oneof![
        Just(RejectReason::Overloaded),
        Just(RejectReason::DeadlineExceeded),
        Just(RejectReason::ShedScan),
        Just(RejectReason::ShedRead),
        Just(RejectReason::Draining),
    ];
    prop_oneof![
        (any::<u64>(), any::<bool>(), any::<u64>())
            .prop_map(|(id, some, v)| Response::ok(id, some.then_some(v))),
        (any::<u64>(), reject, any::<u64>())
            .prop_map(|(id, r, retry)| Response::rejected(id, r, retry)),
        any::<u64>().prop_map(Response::error),
        // An ok response carrying a payload (the stats frame shape).
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..256)).prop_map(|(id, p)| {
            let mut r = Response::ok(id, None);
            r.payload = p;
            r
        }),
    ]
}

/// De-frames `bytes` one frame at a time, returning the decoded body or
/// the typed error.
fn deframe(bytes: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
    read_frame(&mut Cursor::new(bytes))
}

/// What can follow the valid frames of a stream and end it in an error.
fn bad_tail_strategy() -> impl Strategy<Value = Vec<u8>> {
    let frame = || request_strategy().prop_map(|r| encode_request(&r));
    prop_oneof![
        // One flipped bit anywhere in a frame.
        (frame(), any::<usize>(), 0u8..8).prop_map(|(mut f, at, bit)| {
            let at = at % f.len();
            f[at] ^= 1 << bit;
            f
        }),
        // A frame cut short.
        (frame(), any::<usize>()).prop_map(|(mut f, cut)| {
            f.truncate(1 + cut % (f.len() - 1));
            f
        }),
        // Garbage.
        proptest::collection::vec(any::<u8>(), 1..96),
        // A length prefix beyond the cap, and some bytes behind it.
        ((1u32 << 20) + 1..=u32::MAX, proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(len, rest)| [&NET_MAGIC[..], &len.to_le_bytes(), &rest].concat()),
        // Well framed and checksummed, but not a request: wrong body
        // length, or an unknown kind byte.
        proptest::collection::vec(any::<u8>(), 0..80).prop_map(|body| {
            let crc = dcart_engine::wal::checksum(&body);
            [&NET_MAGIC[..], &(body.len() as u32).to_le_bytes(), &body, &crc.to_le_bytes()].concat()
        }),
    ]
}

/// Hands a stream out in reads of the given sizes, cycling through them.
struct Chunked<'a> {
    rest: &'a [u8],
    sizes: &'a [usize],
    next: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = size.min(self.rest.len()).min(buf.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// The requests a stream yields and how it ends (`Ok` on a clean EOF),
/// one frame at a time through `read_frame` + `decode_request`.
fn requests_frame_by_frame(stream: &[u8]) -> (Vec<Request>, Result<(), WireError>) {
    let mut cursor = Cursor::new(stream);
    let mut reqs = Vec::new();
    loop {
        match read_frame(&mut cursor).and_then(|b| b.map(|b| decode_request(&b)).transpose()) {
            Ok(Some(req)) => reqs.push(req),
            Ok(None) => return (reqs, Ok(())),
            Err(e) => return (reqs, Err(e)),
        }
    }
}

/// The same through the connection reader's `FrameReader`, the stream
/// arriving in reads of `sizes` bytes.
fn requests_read_by_read(stream: &[u8], sizes: &[usize]) -> (Vec<Request>, Result<(), WireError>) {
    let mut source = Chunked { rest: stream, sizes, next: 0 };
    let mut frames = FrameReader::default();
    let mut reqs = Vec::new();
    loop {
        match frames.read_requests(&mut source, &mut reqs) {
            Ok(true) => {}
            Ok(false) => return (reqs, Ok(())),
            Err(e) => return (reqs, Err(e)),
        }
    }
}

proptest! {
    #[test]
    fn request_roundtrip_is_identity(req in request_strategy()) {
        let frame = encode_request(&req);
        let body = deframe(&frame).expect("well-formed frame").expect("not EOF");
        let back = decode_request(&body).expect("decodes");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn response_roundtrip_is_identity(resp in response_strategy()) {
        let frame = encode_response(&resp);
        let body = deframe(&frame).expect("well-formed frame").expect("not EOF");
        let back = decode_response(&body).expect("decodes");
        prop_assert_eq!(back.req_id, resp.req_id);
        prop_assert_eq!(back.status, resp.status);
        prop_assert_eq!(back.reject, resp.reject);
        prop_assert_eq!(back.retry_after_ns, resp.retry_after_ns);
        prop_assert_eq!(back.value, resp.value);
        prop_assert_eq!(back.payload, resp.payload);
    }

    /// Any truncation of a valid frame is a typed error (or a clean EOF
    /// for the zero-length prefix) — never a panic, never a bogus decode.
    #[test]
    fn truncation_never_panics(req in request_strategy(), cut in 0usize..64) {
        let frame = encode_request(&req);
        let cut = cut.min(frame.len().saturating_sub(1));
        match deframe(&frame[..cut]) {
            Ok(None) => prop_assert_eq!(cut, 0, "only the empty prefix is a clean EOF"),
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded"),
            Err(_) => {} // typed error: correct
        }
    }

    /// A single flipped bit anywhere in the frame is caught: by the magic
    /// check, the length/cap check, or the checksum. It never yields a
    /// *successfully decoded different request*.
    #[test]
    fn bit_flips_never_yield_wrong_decodes(
        req in request_strategy(),
        byte_idx in 0usize..64,
        bit in 0u8..8,
    ) {
        let mut frame = encode_request(&req);
        let idx = byte_idx % frame.len();
        frame[idx] ^= 1 << bit;
        match deframe(&frame) {
            Err(_) => {}  // typed rejection: correct
            Ok(None) => prop_assert!(false, "corrupt frame read as clean EOF"),
            Ok(Some(body)) => {
                // The only way corruption survives de-framing is a flip
                // inside the length prefix that still frames a checksummed
                // region — impossible with crc64 over the body. If the
                // body did come back, it must decode to the original.
                let back = decode_request(&body).expect("decodes");
                prop_assert_eq!(back, req);
            }
        }
    }

    /// Random garbage through the de-framer: typed errors only.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = deframe(&bytes);
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Back-to-back frames on one stream de-frame in order (the pipelined
    /// client depends on this).
    #[test]
    fn pipelined_frames_deframe_in_order(reqs in proptest::collection::vec(request_strategy(), 1..8)) {
        let mut stream = Vec::new();
        for r in &reqs {
            stream.extend_from_slice(&encode_request(r));
        }
        let mut cursor = Cursor::new(stream.as_slice());
        for expected in &reqs {
            let body = read_frame(&mut cursor).expect("frame").expect("not EOF");
            prop_assert_eq!(&decode_request(&body).expect("decodes"), expected);
        }
        prop_assert!(read_frame(&mut cursor).expect("clean tail").is_none());
    }

    /// The connection reader against the frame-at-a-time reference: any
    /// run of valid request frames, with or without a tail that ends the
    /// stream in an error, arriving in reads of any sizes from one byte to
    /// the whole stream, yields the same requests in the same order and
    /// then the same clean EOF or the same `WireError` variant.
    #[test]
    fn frame_reader_agrees_with_read_frame_at_any_read_sizes(
        reqs in proptest::collection::vec(request_strategy(), 0..12),
        tail in prop_oneof![Just(None), bad_tail_strategy().prop_map(Some)],
        sizes in prop_oneof![
            Just(vec![1usize]),
            Just(vec![usize::MAX]),
            proptest::collection::vec(1usize..120, 1..8),
        ],
    ) {
        let mut stream: Vec<u8> = reqs.iter().flat_map(encode_request).collect();
        stream.extend_from_slice(tail.as_deref().unwrap_or(&[]));
        let reference = requests_frame_by_frame(&stream);
        if tail.is_none() {
            prop_assert_eq!(&reference, &(reqs, Ok(())));
        }
        prop_assert_eq!(requests_read_by_read(&stream, &sizes), reference);
    }
}

#[test]
fn status_codes_are_stable() {
    // Wire stability: these byte values are the protocol.
    assert_eq!(RequestKind::Get.code(), 0);
    assert_eq!(RequestKind::Insert.code(), 1);
    assert_eq!(RequestKind::Remove.code(), 2);
    assert_eq!(RequestKind::Scan.code(), 3);
    assert_eq!(RequestKind::Stats.code(), 4);
    assert_eq!(RequestKind::Shutdown.code(), 5);
    assert_eq!(Status::Ok as u8, 0);
    assert_eq!(Status::Rejected as u8, 1);
    assert_eq!(Status::Error as u8, 2);
}
