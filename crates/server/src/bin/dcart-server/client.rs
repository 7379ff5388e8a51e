//! A pipelined DCARTNET client: one writer (the caller's thread, pacing
//! sends) and one reader thread matching responses to in-flight requests
//! by `req_id`, accumulating latencies and outcome counters.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dcart_engine::time::Clock;
use dcart_server::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, RequestKind, Response,
    Status,
};

/// What the reader knows about an in-flight request.
struct Sent {
    sent_ns: u64,
    kind: RequestKind,
    key: u64,
}

/// Outcome accumulator, shared between writer and reader.
#[derive(Default)]
pub struct Accum {
    pub acked: u64,
    pub acked_writes: u64,
    /// Indexed by `RejectReason::code()`: overloaded, deadline, shed-scan,
    /// shed-read, draining.
    pub rejected: [u64; 5],
    pub errors: u64,
    /// Round-trip latencies of accepted (acked) requests only.
    pub latencies_ns: Vec<u64>,
    /// Keys whose inserts were acknowledged — the durability ledger
    /// `verify-acked` audits after kill + restart.
    pub acked_insert_keys: Vec<u64>,
}

pub struct Client {
    stream: TcpStream,
    pending: Arc<Mutex<BTreeMap<u64, Sent>>>,
    pub accum: Arc<Mutex<Accum>>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
    clock: Arc<dyn Clock>,
}

impl Client {
    pub fn connect(addr: &str, clock: Arc<dyn Clock>) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let pending: Arc<Mutex<BTreeMap<u64, Sent>>> = Arc::default();
        let accum: Arc<Mutex<Accum>> = Arc::default();
        // Answers arrive many to a segment; `read_frame` on the bare socket
        // would be four syscalls for each.
        let mut read_half = BufReader::new(stream.try_clone()?);
        let reader_pending = Arc::clone(&pending);
        let reader_accum = Arc::clone(&accum);
        let reader_clock = Arc::clone(&clock);
        let reader = std::thread::spawn(move || {
            while let Ok(Some(body)) = read_frame(&mut read_half) {
                let Ok(resp) = decode_response(&body) else { return };
                let sent = reader_pending.lock().unwrap().remove(&resp.req_id);
                let mut acc = reader_accum.lock().unwrap();
                match (resp.status, sent) {
                    (Status::Ok, Some(s)) => {
                        acc.acked += 1;
                        acc.latencies_ns.push(reader_clock.now_ns().saturating_sub(s.sent_ns));
                        if s.kind.is_write() {
                            acc.acked_writes += 1;
                        }
                        if s.kind == RequestKind::Insert {
                            acc.acked_insert_keys.push(s.key);
                        }
                    }
                    (Status::Rejected, _) => {
                        let code = resp.reject.map_or(0, |r| r.code()) as usize;
                        acc.rejected[code.min(4)] += 1;
                    }
                    (Status::Error, _) => acc.errors += 1,
                    (Status::Ok, None) => {} // stats/shutdown ack, untracked
                }
            }
        });
        Ok(Client { stream, pending, accum, reader: Some(reader), next_id: 0, clock })
    }

    /// Sends one request, registering it for latency tracking.
    pub fn send(&mut self, kind: RequestKind, key: u64, value: u64, budget_ns: u64) -> bool {
        self.next_id += 1;
        let req = Request { req_id: self.next_id, kind, budget_ns, key, value };
        self.pending
            .lock()
            .unwrap()
            .insert(req.req_id, Sent { sent_ns: self.clock.now_ns(), kind, key });
        if write_frame(&mut self.stream, &encode_request(&req)).is_err() {
            self.pending.lock().unwrap().remove(&req.req_id);
            return false;
        }
        true
    }

    pub fn in_flight(&self) -> usize {
        self.pending.lock().unwrap().len()
    }

    /// Waits (bounded) for in-flight requests to drain, then closes the
    /// connection and returns how many never got an answer.
    pub fn finish(mut self, grace: Duration) -> (Accum, usize) {
        let deadline = self.clock.now_ns() + grace.as_nanos() as u64;
        while self.in_flight() > 0 && self.clock.now_ns() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        // Only once the reader has stopped: an answer it took after the
        // grace period is counted once, as answered, not also as missing.
        let unanswered = self.in_flight();
        let accum = std::mem::take(&mut *self.accum.lock().unwrap());
        (accum, unanswered)
    }
}

/// One synchronous request over a fresh connection (for `stats`,
/// `shutdown`, and `verify-acked` — one outstanding request at a time).
pub fn request_sync(stream: &mut TcpStream, req: &Request) -> Option<Response> {
    write_frame(stream, &encode_request(req)).ok()?;
    loop {
        let body = read_frame(stream).ok()??;
        let resp = decode_response(&body).ok()?;
        if resp.req_id == req.req_id {
            return Some(resp);
        }
    }
}

/// Percentile over raw latencies (nearest-rank on a sorted copy).
pub fn percentile_us(latencies_ns: &[u64], p: f64) -> f64 {
    if latencies_ns.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies_ns.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64 / 1_000.0
}

/// Writes one acked key per line (decimal) — the ledger `verify-acked`
/// audits after a crash.
pub fn write_acked_log(path: &std::path::Path, keys: &[u64]) -> std::io::Result<()> {
    let mut out = String::with_capacity(keys.len() * 8);
    for k in keys {
        out.push_str(&k.to_string());
        out.push('\n');
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    f.sync_all()
}
