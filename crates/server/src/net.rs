//! The TCP front end: a polling acceptor feeding thread-per-connection
//! readers, all funneling into the single coalescing core loop.
//!
//! A request's way through a connection is grouped at every step: the
//! *reader* thread issues one `read` into the connection's
//! [`FrameReader`], decodes every complete frame it brought, and hands the
//! group to [`ServerShared::submit_group`]. Answers — the core loop's
//! acknowledgements as well as the reader's immediate ones (rejections,
//! stats) — are encoded into the connection's [`Outbox`], one byte buffer
//! behind a mutex, so frames never interleave. The *writer* thread sleeps
//! on the outbox's condvar, swaps the buffer for an empty one and issues
//! one `write_all` for everything in it: a 64-op batch costs each
//! connection it touches one wake-up and one syscall. The writer stays a
//! thread of its own so that the send runs beside the core loop, not on
//! it, and so that a peer that stops reading blocks nobody else.
//!
//! Per-connection state is bounded: an outbox that would pass
//! `MAX_OUTBOUND_BYTES` (4 MiB) — a peer that keeps sending and never
//! reads — shuts its connection down, and the acceptor closes at once what
//! it accepts beyond `MAX_CONNECTIONS` (1 024) live connections.
//!
//! Nothing here blocks indefinitely: the acceptor is non-blocking with a
//! poll tick, and connection reads carry a timeout, so SIGINT or a
//! `shutdown` wire request drains the whole stack promptly.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use dcart::DcartError;
use dcart_art::Key;
use dcart_engine::time::Clock;

use crate::core_loop::{Reply, ServerConfig, ServerCore, ServerShared, POLL};
use crate::signal;
use crate::wire::{encode_response_into, FrameReader, Response, WireError};

/// Most answer bytes a connection may have waiting for its writer. Queue
/// slots are released when the core loop takes a request into a batch,
/// not when its answer is written, so without this a peer that keeps
/// sending and never reads would grow the buffer without limit. Beyond it
/// the connection is shut down and what it was owed is dropped.
const MAX_OUTBOUND_BYTES: usize = 4 << 20;

/// Most connections served at a time, two threads each; one accepted
/// beyond that is closed at once.
const MAX_CONNECTIONS: usize = 1024;

/// The outbound buffers a connection keeps between writes do not stay
/// larger than this after a burst.
const KEEP_OUTBOUND_BYTES: usize = 64 * 1024;

/// One connection's outbound side: the encoded answers its writer has not
/// taken yet.
pub struct Outbox {
    outbound: Mutex<Outbound>,
    ready: Condvar,
    /// The connection, to shut it down when the buffer passes its cap.
    stream: TcpStream,
}

struct Outbound {
    bytes: Vec<u8>,
    /// Requests the reader has taken off the socket whose answer has not
    /// been appended yet.
    unanswered: usize,
    /// The reader has returned: nothing more will be owed.
    reader_done: bool,
    /// Over the cap, or the peer is gone: answers are dropped from here on.
    closed: bool,
}

impl Outbox {
    fn new(stream: TcpStream) -> Self {
        Outbox {
            outbound: Mutex::new(Outbound {
                bytes: Vec::new(),
                unanswered: 0,
                reader_done: false,
                closed: false,
            }),
            ready: Condvar::new(),
            stream,
        }
    }

    /// Announces the `n` requests one read brought in, each of which will
    /// be answered by one [`Outbox::push_answer`]. `false` once the
    /// connection is closed: the reader should stop.
    fn announce(&self, n: usize) -> bool {
        let mut out = self.outbound.lock().unwrap_or_else(|e| e.into_inner());
        out.unanswered += n;
        !out.closed
    }

    /// Appends one answer's frame. `true` when the buffer was empty: the
    /// writer may be asleep and is owed a [`Outbox::wake_writer`], which
    /// the caller may put off until it has pushed all it has.
    pub(crate) fn push_answer(&self, resp: &Response) -> bool {
        let mut out = self.outbound.lock().unwrap_or_else(|e| e.into_inner());
        out.unanswered = out.unanswered.saturating_sub(1);
        if out.closed {
            return false;
        }
        let was_empty = out.bytes.is_empty();
        encode_response_into(resp, &mut out.bytes);
        if out.bytes.len() <= MAX_OUTBOUND_BYTES {
            return was_empty;
        }
        drop(out);
        self.close();
        false
    }

    /// Wakes the writer.
    pub(crate) fn wake_writer(&self) {
        self.ready.notify_one();
    }

    /// Closes the connection: what it is owed is dropped, and the socket
    /// is shut down in both directions, which ends a blocked `read` and a
    /// blocked `write` alike.
    fn close(&self) {
        let mut out = self.outbound.lock().unwrap_or_else(|e| e.into_inner());
        out.closed = true;
        out.bytes = Vec::new();
        drop(out);
        let _ = self.stream.shutdown(Shutdown::Both);
        self.ready.notify_one();
    }

    /// The reader has returned. Once every request it took has its answer
    /// in the buffer and the buffer is written, the writer returns too.
    fn reader_done(&self) {
        self.outbound.lock().unwrap_or_else(|e| e.into_inner()).reader_done = true;
        self.ready.notify_one();
    }

    /// The writer: takes whatever has accumulated and writes it with one
    /// call, until the reader is done and nothing is owed any more, or the
    /// connection is closed.
    fn write_loop(&self) {
        let mut batch = Vec::new();
        loop {
            {
                let mut out = self.outbound.lock().unwrap_or_else(|e| e.into_inner());
                while out.bytes.is_empty()
                    && !out.closed
                    && !(out.reader_done && out.unanswered == 0)
                {
                    out = self.ready.wait(out).unwrap_or_else(|e| e.into_inner());
                }
                if out.closed || out.bytes.is_empty() {
                    return;
                }
                // Both buffers keep their capacity from swap to swap.
                std::mem::swap(&mut out.bytes, &mut batch);
            }
            if (&self.stream).write_all(&batch).is_err() {
                return self.close(); // peer gone
            }
            batch.clear();
            batch.shrink_to(KEEP_OUTBOUND_BYTES);
        }
    }
}

/// What the core loop produced by the time it drained.
#[derive(Clone, Copy, Debug)]
pub struct CoreReport {
    /// Cumulative answer digest over every executed batch.
    pub answer_digest: u64,
    /// Digest of the final merged tree.
    pub tree_digest: u64,
}

/// A running server: the bound address plus handles to join at drain.
pub struct ServeHandle {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    core: JoinHandle<Result<CoreReport, DcartError>>,
}

impl ServeHandle {
    /// The address the listener actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (stats, shutdown flag).
    pub fn shared(&self) -> &Arc<ServerShared> {
        &self.shared
    }

    /// Requests graceful drain and blocks until the acceptor and core
    /// have exited, returning the core's final report.
    ///
    /// # Errors
    ///
    /// The first durability error the core hit (an injected crash
    /// surfaces here), or [`DcartError::Recovery`] if a worker panicked.
    pub fn shutdown_and_join(self) -> Result<CoreReport, DcartError> {
        self.shared.request_shutdown();
        self.join()
    }

    /// Blocks until the server drains on its own (SIGINT or a `shutdown`
    /// wire request), returning the core's final report.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ServeHandle::shutdown_and_join`].
    pub fn join(self) -> Result<CoreReport, DcartError> {
        let _ = self.acceptor.join();
        match self.core.join() {
            Ok(report) => report,
            Err(_) => Err(DcartError::Recovery("server core panicked".to_string())),
        }
    }
}

/// Binds `addr`, opens (or recovers) the serving state, and starts the
/// acceptor and core threads. Returns once the server is ready to accept
/// connections. `clock` is the deadline time source — the real wall
/// clock only in the binary (D2 whitelist); tests inject a `TestClock`.
///
/// # Errors
///
/// Bind/listen failures, or any recovery error from the durable state in
/// `config.data_dir`.
pub fn serve(
    config: ServerConfig,
    addr: &str,
    clock: Arc<dyn Clock>,
) -> Result<ServeHandle, DcartError> {
    serve_seeded(config, addr, clock, &[])
}

/// [`serve`], but with initial tree contents for a fresh (non-recovered)
/// server — the deterministic-test and bench entry point.
///
/// # Errors
///
/// Same conditions as [`serve`].
pub fn serve_seeded(
    config: ServerConfig,
    addr: &str,
    clock: Arc<dyn Clock>,
    initial_pairs: &[(Key, u64)],
) -> Result<ServeHandle, DcartError> {
    start(config, addr, clock, initial_pairs, MAX_CONNECTIONS)
}

fn start(
    config: ServerConfig,
    addr: &str,
    clock: Arc<dyn Clock>,
    initial_pairs: &[(Key, u64)],
    max_connections: usize,
) -> Result<ServeHandle, DcartError> {
    let shared = ServerShared::new(config.admission, clock);
    let mut core = ServerCore::open(config, Arc::clone(&shared), initial_pairs)?;
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;

    let core_shared = Arc::clone(&shared);
    let core_thread = std::thread::spawn(move || {
        let err = core.run();
        // Dead or drained either way; make sure waiters wake.
        core_shared.request_shutdown();
        match err {
            Some(e) => Err(e),
            None => {
                let answer_digest = core.answer_digest();
                let tree_digest = core.into_tree_digest()?;
                Ok(CoreReport { answer_digest, tree_digest })
            }
        }
    });

    let accept_shared = Arc::clone(&shared);
    let acceptor = std::thread::spawn(move || {
        accept_loop(&listener, &accept_shared, max_connections);
    });

    Ok(ServeHandle { shared, addr: bound, acceptor, core: core_thread })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>, max_connections: usize) {
    // The live connections' threads. They are not joined when the acceptor
    // returns: each ends by itself once its peer goes idle or away.
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if signal::sigint_received() {
            shared.request_shutdown();
        }
        if shared.is_shutdown() || shared.is_dead() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                conns.retain(|conn| !conn.is_finished());
                if conns.len() >= max_connections {
                    continue; // dropping the stream closes it
                }
                let conn_shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || {
                    // A failed spawn-side setup just drops the stream;
                    // the client sees a clean close.
                    let _ = handle_conn(stream, &conn_shared);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => {
                // Transient accept errors (e.g. aborted handshake): keep
                // serving other connections.
                std::thread::sleep(POLL);
            }
        }
    }
}

fn handle_conn(stream: TcpStream, shared: &Arc<ServerShared>) -> Result<(), WireError> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL))?;
    let outbox = Arc::new(Outbox::new(stream.try_clone()?));

    // Writer: the only thread that writes to the socket.
    let writer_outbox = Arc::clone(&outbox);
    let writer = std::thread::spawn(move || writer_outbox.write_loop());

    let mut read_half = stream;
    let result = reader_loop(&mut read_half, shared, &outbox);
    outbox.reader_done();
    let _ = writer.join();
    result
}

fn reader_loop(
    stream: &mut TcpStream,
    shared: &Arc<ServerShared>,
    outbox: &Arc<Outbox>,
) -> Result<(), WireError> {
    let mut frames = FrameReader::default();
    let mut group = Vec::new();
    let mut immediate = Vec::new();
    loop {
        let read = frames.read_requests(stream, &mut group);
        if !outbox.announce(group.len()) {
            return Ok(()); // over the outbound cap, or the peer is gone
        }
        // Whatever was decoded is submitted and answered, also in front
        // of a frame that then closes the connection.
        if !group.is_empty() {
            shared.submit_group(&group, || Reply::Conn(Arc::clone(outbox)), &mut immediate);
            group.clear();
            let mut wake = false;
            for resp in immediate.drain(..) {
                wake |= outbox.push_answer(&resp);
            }
            if wake {
                outbox.wake_writer();
            }
        }
        match read {
            Ok(true) => {}
            Ok(false) => return Ok(()), // clean EOF at a frame boundary
            Err(WireError::Io(ErrorKind::WouldBlock | ErrorKind::TimedOut)) => {
                // Idle tick. A frame the timeout caught half-way stays in
                // `frames`; the next read continues it.
                if shared.is_shutdown() || shared.is_dead() {
                    return Ok(());
                }
            }
            // Corrupt or truncated input: close this connection. The
            // error is typed all the way here — no panic on hostile bytes.
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use dcart_engine::time::TestClock;

    use super::*;
    use crate::wire::{decode_response, encode_request, read_frame, Request, RequestKind, Status};

    /// A stress test of the outbound buffer, not a model check (the
    /// vendored `loom` has no `Condvar`): several producers push frames
    /// while one writer drains them, and the reader side is closed while
    /// frames are still pending. Every frame must reach the peer exactly
    /// once and whole, each producer's frames in its own order, and the
    /// writer must return.
    #[test]
    fn outbox_under_several_producers_writes_every_frame_once_and_in_order() {
        const PRODUCERS: u64 = 4;
        const FRAMES: u64 = 20_000;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let outbox = Arc::new(Outbox::new(stream));
        assert!(outbox.announce((PRODUCERS * FRAMES) as usize));

        let writer = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || outbox.write_loop())
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let outbox = Arc::clone(&outbox);
                std::thread::spawn(move || {
                    // Like the core loop: wake once per burst, not per push.
                    for burst in 0..FRAMES / 50 {
                        let mut wake = false;
                        for i in 0..50 {
                            wake |= outbox
                                .push_answer(&Response::ok(p << 32 | (burst * 50 + i), Some(p)));
                        }
                        if wake {
                            outbox.wake_writer();
                        }
                    }
                })
            })
            .collect();
        // The reader returns while most frames are still to come.
        outbox.reader_done();
        drop(outbox);

        let mut reader = BufReader::new(peer);
        let mut next = [0u64; PRODUCERS as usize];
        while let Some(body) = read_frame(&mut reader).expect("whole frames only") {
            let resp = decode_response(&body).expect("a response");
            let (p, seq) = ((resp.req_id >> 32) as usize, resp.req_id & 0xffff_ffff);
            assert_eq!(seq, next[p], "producer {p}: a frame lost, repeated or out of order");
            assert_eq!(resp.value, Some(p as u64));
            next[p] += 1;
        }
        assert_eq!(next, [FRAMES; PRODUCERS as usize]);
        for producer in producers {
            producer.join().expect("producer");
        }
        writer.join().expect("the writer returns once nothing is owed");
    }

    fn get(req_id: u64) -> Vec<u8> {
        encode_request(&Request { req_id, kind: RequestKind::Get, budget_ns: 0, key: 1, value: 0 })
    }

    /// Sends one request and reads its answer; `None` if the server closed
    /// the connection instead.
    fn served(stream: &mut TcpStream, req_id: u64) -> Option<u64> {
        stream.write_all(&get(req_id)).ok()?;
        let body = read_frame(stream).ok()??;
        let resp = decode_response(&body).expect("a response");
        assert_eq!(resp.status, Status::Ok);
        Some(resp.req_id)
    }

    /// With room for two connections the third is closed at once, cleanly,
    /// and a new one is served as soon as one of the two has left.
    #[test]
    fn a_connection_beyond_the_cap_is_closed_until_another_leaves() {
        let config = ServerConfig { batch_size: 1, ..ServerConfig::default() };
        let handle =
            start(config, "127.0.0.1:0", Arc::new(TestClock::new()), &[], 2).expect("serve");
        let connect = || TcpStream::connect(handle.local_addr()).expect("connect");
        let (mut first, mut second) = (connect(), connect());
        assert_eq!((served(&mut first, 1), served(&mut second, 2)), (Some(1), Some(2)));

        let mut third = connect();
        assert_eq!(read_frame(&mut third), Ok(None), "closed without a byte");
        assert_eq!(served(&mut second, 3), Some(3), "the others are not disturbed");

        // The server notices a departure when that connection's threads
        // have returned: a moment after the close, so ask until served.
        drop(first);
        let late = (0..500).find_map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            served(&mut connect(), 4)
        });
        assert_eq!(late, Some(4), "served once another has left");
        drop(second);
        handle.shutdown_and_join().expect("drain");
    }
}
