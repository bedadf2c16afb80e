//! The Decibel TCP server: a readiness-driven event loop multiplexing
//! every connection, over a shared [`Arc<Database>`].
//!
//! "Users interact with Decibel by opening a connection to the Decibel
//! server, which creates a session" (§2.2.3). One [`Session`] per
//! connection still holds — but instead of one OS thread per client, a
//! single event-loop thread owns an epoll instance
//! ([`decibel_netio::Poll`]) and every connection's socket, and a small
//! worker pool absorbs the calls that may block. The pieces:
//!
//! * **Per-connection state machine.** Each connection carries an
//!   incremental [`FrameDecoder`] (partial reads resume — there is no
//!   blocking `read_exact` anywhere in the server), a bounded queue of
//!   decoded-but-unstarted requests (a client may pipeline; the queue cap
//!   pauses read interest so an abusive sender backpressures through TCP
//!   instead of growing server memory), and one write buffer.
//! * **Streaming scans: page bytes to socket.** Scan-shaped requests
//!   (`ScanSession`, `Collect`, `MultiScan`) run on the loop as resumable
//!   [`ScanCursor`]s ([`decibel_core::cursor`]). The cursor drives the
//!   engine's slot scan and hands every matched slot to the loop's byte
//!   sink (`SocketSink`), which copies the slot's projected
//!   image from the pinned heap page straight into the connection's write
//!   buffer, framing batches (~[`proto::SCAN_BATCH_BYTES`] each) in place
//!   with [`BatchStream`]. No `Record` is built server-side, nothing is
//!   allocated per row, and the bytes on the wire are exactly those
//!   `Response::Batch(..).encode()` produces (`tests/scan_stream_bytes.rs`).
//!   *Held across sink calls:* the store/shard read locks and one pinned
//!   page — for at most `CHUNKS_PER_LOCK` batches, each ending in one
//!   nonblocking socket write. *Not held:* anything, once the unsent
//!   write-buffer backlog reaches the `STREAM_AHEAD` cap (~2 MiB) and
//!   production parks. A slow client therefore pins a small constant of
//!   server memory and **zero** lock time while stalled — the
//!   backpressure contract the thread-per-client server could not offer
//!   (it materialized whole results to bound lock hold time, at O(result)
//!   memory).
//! * **Worker pool.** Calls that may block — commit (group fsync), merge,
//!   flush, 2PL lock acquisition on checkout/begin/writes — are dispatched
//!   to a small pool.
//!   The job moves the connection's `Session` to the worker and the
//!   completion moves it back (sessions are `Send`), so the loop never
//!   stalls behind a lock or an fsync.
//! * **Deadline wheel.** The idle read timeout ([`Server::with_read_timeout`])
//!   is driven by the poll timeout off a min-heap of per-connection
//!   deadlines (lazy deletion, one live entry per connection) instead of
//!   per-socket `SO_RCVTIMEO`. Expiry behavior is unchanged: the open
//!   transaction rolls back, a typed [`DbError::Timeout`] error frame is
//!   sent best-effort, and the connection closes.
//! * **Auth.** With [`Server::with_auth_token`], the first request on
//!   every connection must be `Auth` carrying the shared secret (compared
//!   in constant time); anything else earns a typed
//!   [`DbError::AuthFailed`] frame and a close. Without a token, stray
//!   `Auth` frames are accepted and ignored, so
//!   [`Client::connect_with_token`](decibel_wire::Client::connect_with_token)
//!   works against any server.
//!
//! Dropping a connection drops its session, which rolls back any open
//! transaction and releases its branch locks — the disconnect semantics
//! the paper asks for ("rolled back if the client crashes or disconnects
//! before committing") fall out of `Session`'s `Drop` impl, exactly as
//! before.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] flips the shared flag and wakes the loop via
//! the cross-thread [`Waker`]. The loop stops accepting, drops every
//! connection (sessions roll back), closes the job channel and joins the
//! workers (in-flight blocking calls complete; their sessions are dropped
//! on return), then exits. The handle finally checkpoints via
//! [`Database::flush`], so a cleanly stopped server restarts with an empty
//! journal suffix. The `decibel-server` binary triggers the same path from
//! SIGTERM/SIGINT.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use decibel_common::error::{DbError, Result};
use decibel_common::ids::BranchId;
use decibel_common::schema::Schema;
use decibel_common::Projection;
use decibel_core::cursor::{MultiScanCursor, RowSink, ScanCursor};
use decibel_core::{Database, Session};
use decibel_netio::{Events, Interest, Poll, Token, Trigger, Waker};
use decibel_obs::{family, Counter, Gauge, Histogram, Registry, Snapshot};
use decibel_wire::frame::{write_frame, FrameDecoder};
use decibel_wire::proto::{self, BatchStream, Hello, Reply, Request, Response};

/// Token of the accept listener.
const LISTENER: Token = Token(0);
/// Token of the shutdown/completion waker.
const WAKER: Token = Token(1);
/// Connection slab index `i` registers under `Token(i + CONN_BASE)`.
const CONN_BASE: usize = 2;

/// Decoded requests a connection may queue before the loop pauses its
/// read interest. Small: pipelining hides round trips with 2–3 requests
/// in flight; dozens would just buy an abusive client server memory.
const MAX_PENDING: usize = 16;

/// Worker threads for blocking session calls. Commits group-fsync across
/// branches, so a handful of workers serves many concurrent writers.
const WORKERS: usize = 4;

/// Per-read scratch size. One socket drain may run many reads; frames
/// larger than this assemble incrementally in the decoder.
const READ_CHUNK: usize = 64 << 10;

/// Scan chunks produced per store-lock acquisition when the client keeps
/// up. Bounds both the lock hold (at most this many ~256 KiB chunks of
/// slot copying and nonblocking write) and how long one connection can hog
/// the loop; a backpressured socket ends the run early regardless.
const CHUNKS_PER_LOCK: usize = 32;

/// Stream-ahead cap: scan chunks keep being produced into the write
/// buffer until this many bytes sit unsent, then production parks until
/// the socket drains below it. Kernel send buffers are small (wmem_max
/// is ~200 KiB on stock Linux), and every park/resume re-acquires the
/// locks and re-plans the scan — buffering a bounded handful of chunks in
/// user space absorbs that for all but the largest results, while a
/// stalled client still pins only this constant (~2 MiB), not O(result).
const STREAM_AHEAD: usize = 8 * proto::SCAN_BATCH_BYTES;

/// A bound, not-yet-serving listener. [`Server::spawn`] starts the event
/// loop and returns the [`ServerHandle`] used to stop it.
pub struct Server {
    listener: TcpListener,
    db: Arc<Database>,
    addr: SocketAddr,
    read_timeout: Option<Duration>,
    auth_token: Option<String>,
    poll: Poll,
    shared: Arc<Shared>,
    /// Registered here, not on the loop thread, so a snapshot taken right
    /// after [`Server::spawn`] already holds the whole `server` family.
    obs: ServerMetrics,
}

/// State shared between the loop thread, the workers, and the handle.
struct Shared {
    shutdown: AtomicBool,
    waker: Waker,
    /// Live-connection gauge: registered sockets currently owned by the
    /// loop. Observable via [`ServerHandle::live_connections`] so tests
    /// can assert churn deregisters cleanly (no fd leak).
    live: AtomicUsize,
    /// The event loop's own metric registry (`server` family). Kept in
    /// the shared state so [`ServerHandle::metrics`] can snapshot it
    /// without talking to the loop thread.
    metrics: Registry,
}

/// The event loop's instruments, all under [`family::SERVER`]. Bound once
/// in [`Server::bind`] and moved into the loop; the hot paths touch
/// pre-resolved cells, never the registry map.
struct ServerMetrics {
    /// Connections ever admitted (the live count is the gauge below).
    conns_total: Counter,
    /// Request frames launched, inline fast-path and worker-bound alike.
    requests: Counter,
    /// Times a streaming scan parked: socket backpressure or the
    /// per-lock chunk budget ran out and the cursor released its locks.
    stream_parks: Counter,
    /// Currently registered connections; its max is the concurrency
    /// high-water mark.
    conns_live: Gauge,
    /// High-water mark of decoded-but-unstarted requests on any one
    /// connection (caps at [`MAX_PENDING`] by construction).
    pipeline_depth: Gauge,
    /// High-water mark of unsent write-buffer bytes on any one
    /// connection (the stream-ahead cap bounds it during scans).
    backlog_bytes: Gauge,
    /// Worker-pool jobs in flight; its max against [`WORKERS`] shows
    /// pool saturation.
    workers_busy: Gauge,
    /// Wall time spent blocked in epoll per loop iteration — the loop's
    /// idle time, not its work time.
    poll_us: Histogram,
}

impl ServerMetrics {
    fn register(registry: &Registry) -> ServerMetrics {
        ServerMetrics {
            conns_total: registry.counter(family::SERVER, "conns_total"),
            requests: registry.counter(family::SERVER, "requests"),
            stream_parks: registry.counter(family::SERVER, "stream_parks"),
            conns_live: registry.gauge(family::SERVER, "conns_live"),
            pipeline_depth: registry.gauge(family::SERVER, "pipeline_depth"),
            backlog_bytes: registry.gauge(family::SERVER, "backlog_bytes"),
            workers_busy: registry.gauge(family::SERVER, "workers_busy"),
            poll_us: registry.histogram(family::SERVER, "poll_us"),
        }
    }
}

impl Server {
    /// Binds a listener for `db` on `addr` (use port 0 for an ephemeral
    /// port; [`Server::local_addr`] reports what was picked) and creates
    /// the epoll instance that will serve it.
    pub fn bind(db: Arc<Database>, addr: impl ToSocketAddrs) -> Result<Server> {
        let listener =
            TcpListener::bind(addr).map_err(|e| DbError::io("binding server listener", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| DbError::io("reading listener address", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| DbError::io("setting listener nonblocking", e))?;
        let poll = Poll::new().map_err(|e| DbError::io("creating epoll instance", e))?;
        poll.register(&listener, LISTENER, Interest::READABLE, Trigger::Level)
            .map_err(|e| DbError::io("registering listener", e))?;
        let waker =
            Waker::new(&poll, WAKER).map_err(|e| DbError::io("creating server waker", e))?;
        let metrics = Registry::new();
        let obs = ServerMetrics::register(&metrics);
        Ok(Server {
            listener,
            db,
            addr,
            read_timeout: None,
            auth_token: None,
            poll,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                waker,
                live: AtomicUsize::new(0),
                metrics,
            }),
            obs,
        })
    }

    /// Sets a per-connection read timeout: a client idle between requests
    /// for longer than `timeout` has its open transaction rolled back
    /// (releasing its branch locks) and is sent a typed
    /// [`DbError::Timeout`] error frame before the connection closes — so
    /// a stalled or vanished client cannot pin locks forever. `None`
    /// (the default) waits indefinitely. A connection mid-request — reply
    /// draining, scan streaming, worker call in flight — is busy, not
    /// idle, no matter how slowly it reads.
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Requires every connection to present `token` (via
    /// [`Request::Auth`]) before its first real request. Compared in
    /// constant time; failures are rejected with a typed
    /// [`DbError::AuthFailed`] frame and a close.
    pub fn with_auth_token(mut self, token: Option<String>) -> Self {
        self.auth_token = token;
        self
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the event loop on a background thread. Returns the handle
    /// that stops it.
    pub fn spawn(self) -> ServerHandle {
        let db = Arc::clone(&self.db);
        let addr = self.addr;
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .name("decibel-evloop".into())
            .spawn(move || {
                EventLoop::new(self).run();
            })
            .expect("spawning server event loop");
        ServerHandle {
            db,
            addr,
            shared,
            thread,
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] for the graceful flag → wake → join →
/// checkpoint sequence.
pub struct ServerHandle {
    db: Arc<Database>,
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The serving address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served database (shared; in-process callers may open their own
    /// sessions beside the network's).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Connections currently registered with the event loop. Disconnects
    /// are processed asynchronously, so tests poll this to assert churn
    /// releases registrations.
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// A point-in-time snapshot of every metric the server can see: the
    /// database registry (`pool` / `wal` / `commit` / `scan` /
    /// `checkpoint` families) merged with the event loop's own `server`
    /// family — the same payload
    /// [`Client::stats`](decibel_wire::Client::stats) receives over the
    /// wire.
    pub fn metrics(&self) -> Snapshot {
        self.db
            .metrics()
            .snapshot()
            .merge(&self.shared.metrics.snapshot())
    }

    /// Gracefully stops the server: no new connections, every live client
    /// socket closes (their sessions drop, rolling back open transactions
    /// and releasing branch locks), the workers drain and join, and the
    /// database is checkpointed via [`Database::flush`] so the next
    /// [`Database::open`] replays an empty journal suffix.
    pub fn shutdown(self) -> Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.shared.waker.wake();
        let _ = self.thread.join();
        // Every session is gone; checkpoint so the shutdown is durable and
        // cheap to reopen.
        self.db.flush()
    }
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// A blocking call dispatched off the loop. `session` is `Some` for
/// session-surface requests (the connection gives its session up until
/// the completion returns it) and `None` for database-surface ones.
struct Job {
    conn: usize,
    generation: u64,
    session: Option<Session>,
    req: Request,
}

/// A finished blocking call: the (possibly returned) session plus the
/// fully encoded response frames to append to the connection's write
/// buffer.
struct Done {
    conn: usize,
    generation: u64,
    session: Option<Session>,
    frames: Vec<u8>,
}

struct WorkerPool {
    tx: Option<Sender<Job>>,
    done_rx: Receiver<Done>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn start(db: &Arc<Database>, schema: &Schema, shared: &Arc<Shared>) -> WorkerPool {
        let (tx, rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..WORKERS)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let done_tx = done_tx.clone();
                let db = Arc::clone(db);
                let schema = schema.clone();
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name(format!("decibel-worker-{i}"))
                    .spawn(move || loop {
                        // Contend only for the receiver, not for job
                        // execution.
                        let job = match rx.lock().unwrap().recv() {
                            Ok(job) => job,
                            Err(_) => return, // channel closed: shutdown
                        };
                        let mut session = job.session;
                        let frames = respond_blocking(&db, &schema, session.as_mut(), job.req);
                        // The loop may have exited (hard shutdown race);
                        // a dead channel just drops the session, which
                        // rolls back — exactly what a dropped connection
                        // deserves.
                        let _ = done_tx.send(Done {
                            conn: job.conn,
                            generation: job.generation,
                            session,
                            frames,
                        });
                        let _ = shared.waker.wake();
                    })
                    .expect("spawning server worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            done_rx,
            handles,
        }
    }

    fn dispatch(&self, job: Job) {
        // Send cannot fail while the pool lives (tx is dropped only in
        // `join`, after the loop stops dispatching).
        self.tx
            .as_ref()
            .expect("worker pool already joined")
            .send(job)
            .expect("worker pool hung up");
    }

    /// Closes the job channel and joins every worker. Queued jobs finish
    /// first (a commit already accepted should hit the journal before the
    /// shutdown checkpoint); their completions are dropped by the caller,
    /// rolling back any returned session.
    fn join(&mut self) {
        self.tx = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Executes one blocking request and encodes its complete response
/// (error frames included — every failure here is an *application* error
/// shipped to the client; the connection stays up).
fn respond_blocking(
    db: &Arc<Database>,
    schema: &Schema,
    session: Option<&mut Session>,
    req: Request,
) -> Vec<u8> {
    let mut out = Vec::new();
    respond_blocking_into(&mut out, db, schema, session, req);
    out
}

/// [`respond_blocking`], appending to an existing buffer — the inline
/// fast path encodes straight into the connection's write buffer.
fn respond_blocking_into(
    out: &mut Vec<u8>,
    db: &Arc<Database>,
    schema: &Schema,
    session: Option<&mut Session>,
    req: Request,
) {
    let start = out.len();
    let enc = match execute_blocking(db, session, req) {
        Ok(reply) => queue_response(out, schema, &Response::Ok(reply)),
        Err(err) => queue_response(out, schema, &Response::Err(err)),
    };
    if let Err(err) = enc {
        // Response encoding failed (schema-mismatched record out of the
        // engine — effectively unreachable). Replace the partial output
        // with one well-formed error frame.
        out.truncate(start);
        let _ = queue_response(out, schema, &Response::Err(err));
    }
}

fn need_session() -> DbError {
    // Unreachable by construction: the loop classifies requests before
    // dispatch and only session-surface jobs carry the session.
    DbError::protocol("internal: session-surface request dispatched without a session")
}

/// Maps one blocking request onto the session / database surface — the
/// same one-for-one mapping the thread-per-client server used.
fn execute_blocking(
    db: &Arc<Database>,
    session: Option<&mut Session>,
    req: Request,
) -> Result<Reply> {
    if let Some(session) = session {
        return Ok(match req {
            Request::CheckoutBranch { name } => Reply::Branch(session.checkout_branch(&name)?),
            Request::CheckoutCommit { commit } => {
                session.checkout_commit(commit)?;
                Reply::Unit
            }
            Request::Branch { name } => Reply::Branch(session.branch(&name)?),
            Request::Begin => {
                session.begin()?;
                Reply::Unit
            }
            Request::Insert { record } => {
                session.insert(record)?;
                Reply::Unit
            }
            Request::Update { record } => {
                session.update(record)?;
                Reply::Unit
            }
            Request::Delete { key } => Reply::Bool(session.delete(key)?),
            Request::Get { key } => Reply::MaybeRecord(session.get(key)?),
            Request::Commit => Reply::Commit(session.commit()?),
            Request::Rollback => {
                session.rollback();
                Reply::Unit
            }
            _ => return Err(need_session()),
        });
    }
    Ok(match req {
        Request::LookupBranch { name } => Reply::Branch(db.branch_id(&name)?),
        Request::Count { version, predicate } => {
            Reply::Scalar(db.read(version).filter(predicate).count()? as f64)
        }
        Request::Aggregate {
            version,
            column,
            agg,
            predicate,
        } => Reply::Scalar(db.read(version).filter(predicate).aggregate(column, agg)?),
        Request::Merge { into, from, policy } => Reply::Merge(db.merge(into, from, policy)?),
        Request::Flush => {
            db.flush()?;
            Reply::Unit
        }
        _ => return Err(need_session()),
    })
}

/// Whether a request's blocking call runs on the session surface (the
/// worker takes the connection's session along).
fn takes_session(req: &Request) -> bool {
    matches!(
        req,
        Request::CheckoutBranch { .. }
            | Request::CheckoutCommit { .. }
            | Request::Branch { .. }
            | Request::Begin
            | Request::Insert { .. }
            | Request::Update { .. }
            | Request::Delete { .. }
            | Request::Get { .. }
            | Request::Commit
            | Request::Rollback
    )
}

/// Encodes `resp` as one frame appended to `out`.
fn queue_response(out: &mut Vec<u8>, schema: &Schema, resp: &Response) -> Result<()> {
    write_frame(out, &resp.encode(schema)?)
}

/// Writes as much buffered output as the socket accepts right now.
/// `Err(())` is a fatal socket error (peer gone): close the connection.
/// On `Ok`, the drain state is whatever `out_pos` vs `outbuf` says.
fn flush_buffer(
    stream: &mut TcpStream,
    outbuf: &mut Vec<u8>,
    out_pos: &mut usize,
) -> std::result::Result<(), ()> {
    while *out_pos < outbuf.len() {
        match stream.write(&outbuf[*out_pos..]) {
            Ok(0) => return Err(()),
            Ok(n) => *out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    if *out_pos == outbuf.len() {
        outbuf.clear();
        *out_pos = 0;
    } else if *out_pos >= proto::SCAN_BATCH_BYTES {
        // Partial drain of a large buffer: reclaim the sent prefix so a
        // long stream to a slow client does not grow the buffer.
        outbuf.drain(..*out_pos);
        *out_pos = 0;
    }
    Ok(())
}

/// Constant-time token comparison: the fold visits every byte of both
/// strings regardless of where (or whether) they differ, so response
/// timing does not leak a matching prefix length.
fn token_matches(expected: &str, presented: &str) -> bool {
    let (a, b) = (expected.as_bytes(), presented.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= (x ^ y) as usize;
    }
    diff == 0
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

/// An in-flight streamed scan: the resumable cursor whose next chunk is
/// produced when — and only when — the write buffer has drained, plus
/// the projection its batch frames are encoded under and the rows per
/// batch that projection's image size buys within
/// [`proto::SCAN_BATCH_BYTES`] (a 2-of-12-column scan packs ~6× the rows
/// of a whole-record one into each frame).
struct Stream {
    cursor: StreamCursor,
    projection: Projection,
    rows_per_batch: usize,
}

enum StreamCursor {
    Records(ScanCursor),
    Annotated(MultiScanCursor),
}

/// The [`RowSink`] of a streamed scan: rows go from the pinned heap page
/// into the connection's write buffer as wire batch frames
/// ([`BatchStream`]) — no `Record`, no per-row allocation, no intermediate
/// payload vector — and every finished frame is pushed at the socket.
///
/// The cursor calls this with the store and shard read locks held, so
/// `row` only copies bytes and `end_chunk` does one nonblocking write; it
/// reports backpressure (ending the lock acquisition) once
/// [`STREAM_AHEAD`] bytes sit unsent, or when the socket is `dead`.
struct SocketSink<'a> {
    frames: BatchStream<'a>,
    stream: &'a mut TcpStream,
    out_pos: &'a mut usize,
    dead: bool,
}

impl RowSink for SocketSink<'_> {
    #[inline]
    fn row(&mut self, slot: &[u8], live: &[BranchId]) -> Result<()> {
        self.frames.push_row(slot, live);
        Ok(())
    }

    fn end_chunk(&mut self, rows: usize) -> Result<bool> {
        self.frames.end_batch(rows);
        let outbuf = self.frames.out();
        if flush_buffer(self.stream, outbuf, self.out_pos).is_err() {
            self.dead = true;
            return Ok(false);
        }
        Ok(outbuf.len() - *self.out_pos < STREAM_AHEAD)
    }
}

/// What a connection is doing between events.
enum Active {
    /// Nothing in flight; the next queued request may start.
    Idle,
    /// A chunked scan is streaming; `session` stays on the connection.
    Streaming(Box<Stream>),
    /// A worker owns the request (and, for session ops, the session);
    /// completion arrives through the done channel.
    Worker,
}

struct Connection {
    stream: TcpStream,
    generation: u64,
    decoder: FrameDecoder,
    /// Decoded request frames not yet started (client pipelining).
    pending: VecDeque<Vec<u8>>,
    /// Write buffer: at most ~one scan chunk plus small replies.
    outbuf: Vec<u8>,
    out_pos: usize,
    session: Option<Session>,
    active: Active,
    interest: Interest,
    authed: bool,
    /// Flush the write buffer, then close (auth rejection path).
    closing: bool,
    last_activity: Instant,
}

impl Connection {
    fn is_busy(&self) -> bool {
        !matches!(self.active, Active::Idle)
            || !self.pending.is_empty()
            || self.out_pos < self.outbuf.len()
    }

    fn desired_interest(&self) -> Interest {
        let mut want = Interest::NONE;
        // Stop reading while the pipeline queue is full (or while
        // draining a rejected connection): bytes back up into the kernel
        // buffer and TCP flow control pushes back on the sender.
        if self.pending.len() < MAX_PENDING && !self.closing {
            want = want | Interest::READABLE;
        }
        if self.out_pos < self.outbuf.len() {
            want = want | Interest::WRITABLE;
        }
        want
    }
}

/// Outcome of pumping a connection: keep it, or close (dropping the
/// session, which rolls back).
#[derive(PartialEq)]
enum Disposition {
    Keep,
    Close,
}

struct EventLoop {
    poll: Poll,
    listener: TcpListener,
    db: Arc<Database>,
    schema: Schema,
    hello_frame: Vec<u8>,
    read_timeout: Option<Duration>,
    auth_token: Option<String>,
    shared: Arc<Shared>,
    workers: WorkerPool,
    conns: Vec<Option<Connection>>,
    free: Vec<usize>,
    next_generation: u64,
    /// Deadline wheel: `(deadline, slot, generation)` min-heap with lazy
    /// deletion — one live entry per connection, re-armed on pop.
    deadlines: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    scratch: Vec<u8>,
    obs: ServerMetrics,
}

impl EventLoop {
    fn new(server: Server) -> EventLoop {
        let schema = server.db.schema();
        let hello = Hello {
            protocol: proto::PROTOCOL_VERSION,
            schema: schema.clone(),
            engine: server.db.engine_kind().name().to_string(),
        };
        let mut hello_frame = Vec::new();
        write_frame(&mut hello_frame, &hello.encode()).expect("encoding hello");
        let workers = WorkerPool::start(&server.db, &schema, &server.shared);
        EventLoop {
            poll: server.poll,
            listener: server.listener,
            db: server.db,
            schema,
            hello_frame,
            read_timeout: server.read_timeout,
            auth_token: server.auth_token,
            shared: server.shared,
            workers,
            conns: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            deadlines: BinaryHeap::new(),
            scratch: vec![0u8; READ_CHUNK],
            obs: server.obs,
        }
    }

    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            // Check the flag *before* blocking, not only after poll
            // returns: a shutdown wake that lands between the post-poll
            // check and this iteration's `waker.drain()` is silently
            // consumed by that drain, and a post-poll check alone would
            // then sleep forever. `shutdown()` stores the flag before
            // waking, so any wake consumed by a previous iteration's
            // drain implies the store is visible to this load.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let timeout = self.next_poll_timeout();
            let span = self.obs.poll_us.start();
            let polled = self.poll.poll(&mut events, timeout);
            span.finish();
            if polled.is_err() {
                // Only unrecoverable epoll failures land here (EINTR is
                // retried inside poll); nothing to serve without a
                // selector.
                break;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Collect first: handling may close connections and reuse
            // slots, and a slot must not see a stale event after reuse.
            let fired: Vec<_> = events.iter().collect();
            for ev in fired {
                match ev.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => self.shared.waker.drain(),
                    Token(t) => {
                        let slot = t - CONN_BASE;
                        self.connection_ready(slot, ev.is_readable(), ev.is_writable());
                    }
                }
            }
            self.drain_completions();
            self.expire_idle();
        }
        self.teardown();
    }

    fn teardown(&mut self) {
        // Order matters: close every connection first (their sessions
        // roll back and release branch locks), then let the workers
        // finish queued jobs — a commit the server already accepted
        // deserves to reach the journal before the shutdown checkpoint —
        // and finally drop their completions (returned sessions roll
        // back on drop).
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close(slot);
            }
        }
        self.workers.join();
        while self.workers.done_rx.try_recv().is_ok() {}
    }

    fn next_poll_timeout(&mut self) -> Option<Duration> {
        self.read_timeout?;
        let now = Instant::now();
        self.deadlines
            .peek()
            .map(|Reverse((when, _, _))| when.saturating_duration_since(now))
    }

    // -- accept ------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (ECONNABORTED, EMFILE): the
                // listener stays registered; level-triggered epoll
                // re-reports pending connections on the next poll, so
                // returning here cannot lose an accept.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        // Request/response round trips are latency-bound; never Nagle
        // them. A failure here means the socket is already dead.
        if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
            return;
        }
        // A generous send buffer lets a multi-chunk scan burst land in
        // kernel space in one lock acquisition instead of bouncing the
        // producer through WouldBlock/resume cycles (each resume re-takes
        // the locks and re-plans the scan). Best-effort: the kernel clamps to wmem_max,
        // and backpressure semantics don't depend on the size.
        {
            use std::os::fd::AsRawFd;
            let _ = decibel_netio::set_send_buffer_size(stream.as_raw_fd(), 4 << 20);
        }
        let generation = self.next_generation;
        self.next_generation += 1;
        let mut conn = Connection {
            stream,
            generation,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            outbuf: self.hello_frame.clone(),
            out_pos: 0,
            session: Some(self.db.session()),
            active: Active::Idle,
            interest: Interest::NONE,
            authed: self.auth_token.is_none(),
            closing: false,
            last_activity: Instant::now(),
        };
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = Token(slot + CONN_BASE);
        conn.interest = conn.desired_interest();
        if self
            .poll
            .register(&conn.stream, token, conn.interest, Trigger::Level)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(conn);
        self.shared.live.fetch_add(1, Ordering::SeqCst);
        self.obs.conns_total.inc();
        self.obs.conns_live.inc();
        if let Some(timeout) = self.read_timeout {
            let deadline = Instant::now() + timeout;
            self.deadlines.push(Reverse((deadline, slot, generation)));
        }
        // The hello usually fits the fresh socket buffer; push it now
        // rather than waiting a poll cycle for the writable event.
        if self.pump(slot) == Disposition::Close {
            self.close(slot);
        }
    }

    // -- per-connection event handling -------------------------------

    fn connection_ready(&mut self, slot: usize, readable: bool, _writable: bool) {
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return; // closed earlier this batch; stale event
        }
        if readable && self.read_ready(slot) == Disposition::Close {
            self.close(slot);
            return;
        }
        // Writability is re-checked by pump itself (it writes until
        // WouldBlock), so both paths converge here.
        if self.pump(slot) == Disposition::Close {
            self.close(slot);
        }
    }

    /// Drains the socket into the frame decoder (stopping early if the
    /// pipeline queue fills) and queues decoded frames.
    fn read_ready(&mut self, slot: usize) -> Disposition {
        let conn = self.conns[slot].as_mut().unwrap();
        loop {
            if conn.pending.len() >= MAX_PENDING || conn.closing {
                return Disposition::Keep; // backpressure: leave bytes in the kernel
            }
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // Peer closed. Anything mid-frame or mid-request dies
                    // with the connection (the session rolls back); a
                    // clean between-frames EOF is just a disconnect.
                    return Disposition::Close;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.feed(&self.scratch[..n]);
                    loop {
                        if conn.pending.len() >= MAX_PENDING {
                            break;
                        }
                        match conn.decoder.next_frame() {
                            Ok(Some(frame)) => conn.pending.push_back(frame),
                            Ok(None) => break,
                            // Broken framing is unrecoverable: close.
                            Err(_) => return Disposition::Close,
                        }
                    }
                    self.obs
                        .pipeline_depth
                        .observe_max(conn.pending.len() as u64);
                    if n < self.scratch.len() {
                        // A short read means the kernel buffer is drained;
                        // skip the syscall that would confirm WouldBlock.
                        // (Level-triggered: anything racing in after this
                        // read re-arms the readable event anyway.)
                        return Disposition::Keep;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Disposition::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Disposition::Close,
            }
        }
    }

    /// Advances a connection's state machine as far as it will go without
    /// blocking: flush the write buffer; produce scan chunks while the
    /// unsent backlog is under [`STREAM_AHEAD`]; start the next queued
    /// request once the buffer fully drains; repeat. This is the single
    /// place the write-gating invariant lives: the write buffer never
    /// holds more than the stream-ahead cap of a scan, or ~one response
    /// otherwise.
    fn pump(&mut self, slot: usize) -> Disposition {
        loop {
            if self.flush_writes(slot) == Disposition::Close {
                return Disposition::Close;
            }
            let conn = self.conns[slot].as_mut().unwrap();
            let backlog = conn.outbuf.len() - conn.out_pos;
            self.obs.backlog_bytes.observe_max(backlog as u64);
            if conn.closing {
                if backlog == 0 {
                    return Disposition::Close; // rejection fully flushed
                }
                break; // keep draining the rejection
            }
            match &mut conn.active {
                Active::Worker => break, // completion will re-pump
                Active::Streaming(_) => {
                    if backlog >= STREAM_AHEAD {
                        break; // buffered far enough ahead: wait for writable
                    }
                    if self.produce_chunks(slot) == Disposition::Close {
                        return Disposition::Close;
                    }
                }
                Active::Idle => {
                    if backlog > 0 {
                        break; // finish the previous response first
                    }
                    // Reads may have stopped early with frames still in
                    // the decoder; surface them now that there is room.
                    while conn.pending.len() < MAX_PENDING {
                        match conn.decoder.next_frame() {
                            Ok(Some(frame)) => conn.pending.push_back(frame),
                            Ok(None) => break,
                            Err(_) => return Disposition::Close,
                        }
                    }
                    match conn.pending.pop_front() {
                        Some(frame) => {
                            if self.start_request(slot, frame) == Disposition::Close {
                                return Disposition::Close;
                            }
                        }
                        None => break, // fully idle
                    }
                }
            }
        }
        self.update_interest(slot);
        Disposition::Keep
    }

    fn flush_writes(&mut self, slot: usize) -> Disposition {
        let conn = self.conns[slot].as_mut().unwrap();
        match flush_buffer(&mut conn.stream, &mut conn.outbuf, &mut conn.out_pos) {
            Ok(()) => Disposition::Keep,
            Err(()) => Disposition::Close,
        }
    }

    /// Streams chunks of the in-flight scan into the socket via the
    /// cursor's single-lock-acquisition byte sink ([`SocketSink`]): each
    /// matched slot's projected image is copied from the pinned page into
    /// the write buffer, each finished batch frame is flushed as far as
    /// the socket accepts, and production continues while the unsent
    /// backlog stays under [`STREAM_AHEAD`]. A backpressured client stops
    /// the run at that cap — releasing the store locks and pinning a
    /// bounded handful of chunks — while a fast reader amortizes lock
    /// acquisition and scan re-planning over [`CHUNKS_PER_LOCK`] chunks.
    fn produce_chunks(&mut self, slot: usize) -> Disposition {
        let schema = &self.schema;
        let conn = self.conns[slot].as_mut().unwrap();
        let mut active = std::mem::replace(&mut conn.active, Active::Idle);
        let Active::Streaming(stream) = &mut active else {
            unreachable!("produce_chunks outside a stream");
        };
        let Stream {
            cursor,
            projection,
            rows_per_batch,
        } = &mut **stream;
        let mut sink = SocketSink {
            frames: BatchStream::new(
                &mut conn.outbuf,
                schema,
                projection,
                matches!(cursor, StreamCursor::Annotated(_)),
                *rows_per_batch,
            ),
            stream: &mut conn.stream,
            out_pos: &mut conn.out_pos,
            dead: false,
        };
        let step = match cursor {
            StreamCursor::Records(c) => c.stream(*rows_per_batch, CHUNKS_PER_LOCK, &mut sink),
            StreamCursor::Annotated(c) => c.stream(*rows_per_batch, CHUNKS_PER_LOCK, &mut sink),
        };
        if step.is_err() {
            // The failing chunk's rows never became a frame.
            sink.frames.abort();
        }
        if sink.dead {
            return Disposition::Close;
        }
        let terminal = match step {
            Ok(true) => {
                let emitted = match cursor {
                    StreamCursor::Records(c) => c.emitted(),
                    StreamCursor::Annotated(c) => c.emitted(),
                };
                Some(Response::Ok(Reply::Rows(emitted)))
            }
            // Not exhausted: socket backpressure or the chunk budget ran
            // out. Park the cursor; pump resumes it when the buffer
            // drains.
            Ok(false) => {
                self.obs.stream_parks.inc();
                conn.active = active;
                None
            }
            // A scan failing mid-stream terminates it with a typed error
            // frame; the client's scan terminal surfaces it. The
            // connection stays up.
            Err(err) => Some(Response::Err(err)),
        };
        if let Some(response) = terminal {
            if queue_response(&mut conn.outbuf, schema, &response).is_err() {
                return Disposition::Close;
            }
        }
        Disposition::Keep
    }

    /// Decodes and launches one queued request. Runs with `active` Idle
    /// and an empty write buffer (pump's invariant).
    fn start_request(&mut self, slot: usize, frame: Vec<u8>) -> Disposition {
        let conn = self.conns[slot].as_mut().unwrap();
        let req = match Request::decode(&frame, &self.schema) {
            Ok(req) => req,
            Err(err) => {
                // A malformed body is the client's bug, not a broken
                // stream: the framing layer already isolated the frame,
                // so report the decode error and keep serving.
                if queue_response(&mut conn.outbuf, &self.schema, &Response::Err(err)).is_err() {
                    return Disposition::Close;
                }
                return Disposition::Keep;
            }
        };
        self.obs.requests.inc();
        // Authentication gate: on a token-protected server the first
        // request must present the token; everything else — including a
        // wrong token — is rejected with a typed error and a close (after
        // the error frame drains).
        if let Request::Auth { token } = &req {
            let ok = match &self.auth_token {
                Some(expected) => token_matches(expected, token),
                None => true, // no-auth server: accept and ignore
            };
            let response = if ok {
                conn.authed = true;
                Response::Ok(Reply::Unit)
            } else {
                conn.closing = true;
                Response::Err(DbError::AuthFailed)
            };
            if queue_response(&mut conn.outbuf, &self.schema, &response).is_err() {
                return Disposition::Close;
            }
            return Disposition::Keep;
        }
        if !conn.authed {
            conn.closing = true;
            let resp = Response::Err(DbError::AuthFailed);
            if queue_response(&mut conn.outbuf, &self.schema, &resp).is_err() {
                return Disposition::Close;
            }
            return Disposition::Keep;
        }
        // Stats is answered on the loop: snapshotting two registries is a
        // handful of relaxed atomic loads, cheaper than a worker round
        // trip. The reply merges the database's families with the event
        // loop's own `server` family.
        if matches!(req, Request::Stats) {
            let snap = self
                .db
                .metrics()
                .snapshot()
                .merge(&self.shared.metrics.snapshot());
            let resp = Response::Ok(Reply::Stats(snap));
            if queue_response(&mut conn.outbuf, &self.schema, &resp).is_err() {
                return Disposition::Close;
            }
            return Disposition::Keep;
        }
        // Inline fast path: inside an open transaction the session already
        // holds the branch's exclusive 2PL lock, so writes and reads on it
        // cannot block on lock acquisition (and rollback only releases
        // locks). Running them on the loop skips the worker round trip —
        // channel, mutex, eventfd wake — which otherwise dominates the
        // latency of these microsecond-scale calls.
        let inline = match &req {
            Request::Rollback => true,
            Request::Insert { .. }
            | Request::Update { .. }
            | Request::Delete { .. }
            | Request::Get { .. } => conn.session.as_ref().is_some_and(|s| s.in_transaction()),
            _ => false,
        };
        if inline {
            respond_blocking_into(
                &mut conn.outbuf,
                &self.db,
                &self.schema,
                conn.session.as_mut(),
                req,
            );
            return Disposition::Keep;
        }
        // A scan-shaped request with an unknown projection column fails
        // here — a typed error frame before any cursor opens or lock is
        // taken — not halfway through a stream.
        if let Request::Collect { projection, .. } | Request::MultiScan { projection, .. } = &req {
            if let Err(err) = projection.validate(&self.schema) {
                if queue_response(&mut conn.outbuf, &self.schema, &Response::Err(err)).is_err() {
                    return Disposition::Close;
                }
                return Disposition::Keep;
            }
        }
        match req {
            // Streamed scans run on the loop: the cursor snapshots what it
            // needs (session overlay clone / version + predicate) and
            // holds locks only inside the cursor's chunk production.
            Request::ScanSession => {
                let cursor = conn
                    .session
                    .as_ref()
                    .expect("session present while idle")
                    .chunked_scan();
                conn.active = Active::Streaming(Box::new(Stream {
                    cursor: StreamCursor::Records(cursor),
                    rows_per_batch: proto::batch_rows(self.schema.record_size()),
                    projection: Projection::All,
                }));
            }
            Request::Collect {
                version,
                predicate,
                projection,
            } => {
                let cursor = self
                    .db
                    .chunked_scan_projected(version, predicate, projection.clone());
                conn.active = Active::Streaming(Box::new(Stream {
                    cursor: StreamCursor::Records(cursor),
                    rows_per_batch: proto::batch_rows(projection.image_size(&self.schema)),
                    projection,
                }));
            }
            // `parallel` is accepted on the wire and ignored: every
            // multi-branch scan streams.
            Request::MultiScan {
                branches,
                predicate,
                projection,
                ..
            } => {
                let cursor =
                    self.db
                        .chunked_multi_scan_projected(branches, predicate, projection.clone());
                conn.active = Active::Streaming(Box::new(Stream {
                    cursor: StreamCursor::Annotated(cursor),
                    rows_per_batch: proto::batch_rows(projection.image_size(&self.schema)),
                    projection,
                }));
            }
            // Everything that can block — 2PL acquisition, commit fsync,
            // merge, flush — goes to the worker pool; session ops take the
            // session along.
            req => {
                let session = if takes_session(&req) {
                    Some(conn.session.take().expect("session present while idle"))
                } else {
                    None
                };
                let job = Job {
                    conn: slot,
                    generation: conn.generation,
                    session,
                    req,
                };
                conn.active = Active::Worker;
                self.obs.workers_busy.inc();
                self.workers.dispatch(job);
            }
        }
        Disposition::Keep
    }

    fn update_interest(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().unwrap();
        let want = conn.desired_interest();
        if want != conn.interest {
            let token = Token(slot + CONN_BASE);
            if self
                .poll
                .reregister(&conn.stream, token, want, Trigger::Level)
                .is_ok()
            {
                conn.interest = want;
            }
        }
    }

    // -- worker completions ------------------------------------------

    fn drain_completions(&mut self) {
        while let Ok(done) = self.workers.done_rx.try_recv() {
            // Every completion frees a worker, whether or not its
            // connection survived the call.
            self.obs.workers_busy.dec();
            let alive = self
                .conns
                .get_mut(done.conn)
                .and_then(Option::as_mut)
                .filter(|c| c.generation == done.generation);
            let Some(conn) = alive else {
                // The connection died while its call ran; dropping `done`
                // drops the returned session, rolling back.
                continue;
            };
            if let Some(session) = done.session {
                conn.session = Some(session);
            }
            conn.outbuf.extend_from_slice(&done.frames);
            conn.active = Active::Idle;
            if self.pump(done.conn) == Disposition::Close {
                self.close(done.conn);
            }
        }
    }

    // -- idle timeout -------------------------------------------------

    fn expire_idle(&mut self) {
        let Some(timeout) = self.read_timeout else {
            return;
        };
        let now = Instant::now();
        while let Some(&Reverse((when, slot, generation))) = self.deadlines.peek() {
            if when > now {
                break;
            }
            self.deadlines.pop();
            let Some(conn) = self
                .conns
                .get_mut(slot)
                .and_then(Option::as_mut)
                .filter(|c| c.generation == generation)
            else {
                continue; // lazy deletion: the connection is gone
            };
            let idle_deadline = conn.last_activity + timeout;
            if idle_deadline > now || conn.is_busy() {
                // Not actually idle: activity since arming, or a request
                // in flight (slow readers draining a scan are busy, not
                // idle). Re-arm.
                let rearm = if conn.is_busy() {
                    now + timeout
                } else {
                    idle_deadline
                };
                self.deadlines.push(Reverse((rearm, slot, generation)));
                continue;
            }
            // Idle past the limit: roll the transaction back so its
            // branch locks free, tell the client why in a typed error
            // frame (best effort — the peer may be gone), and close.
            if let Some(session) = conn.session.as_mut() {
                session.rollback();
            }
            let err = DbError::timeout(
                "connection idle past the server read timeout; transaction rolled back",
            );
            let _ = queue_response(&mut conn.outbuf, &self.schema, &Response::Err(err));
            let _ = self.flush_writes(slot);
            self.close(slot);
        }
    }

    // -- lifecycle ----------------------------------------------------

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poll.deregister(&conn.stream);
            self.free.push(slot);
            self.shared.live.fetch_sub(1, Ordering::SeqCst);
            self.obs.conns_live.dec();
            // `conn` drops here: socket closes; the session (if not out
            // with a worker) rolls back. A session that *is* out with a
            // worker rolls back when its completion is dropped.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decibel_common::ids::BranchId;
    use decibel_common::record::Record;
    use decibel_common::schema::ColumnType;
    use decibel_core::EngineKind;
    use decibel_pagestore::StoreConfig;
    use decibel_wire::frame::read_frame;
    use decibel_wire::Client;

    fn serve_with(configure: impl FnOnce(Server) -> Server) -> (tempfile::TempDir, ServerHandle) {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::create(
            dir.path().join("db"),
            EngineKind::Hybrid,
            Schema::new(2, ColumnType::U32),
            &StoreConfig::test_default(),
        )
        .unwrap();
        let server = configure(Server::bind(db, "127.0.0.1:0").unwrap());
        (dir, server.spawn())
    }

    fn serve() -> (tempfile::TempDir, ServerHandle) {
        serve_with(|s| s)
    }

    #[test]
    fn hello_then_basic_write_read() {
        let (_d, handle) = serve();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(client.engine(), "hybrid");
        assert_eq!(client.schema().num_columns(), 2);
        client.insert(Record::new(1, vec![10, 20])).unwrap();
        client.commit().unwrap();
        assert_eq!(client.get(1).unwrap().unwrap().field(1), 20);
        assert_eq!(client.scan_collect().unwrap().len(), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn disconnect_rolls_back_and_releases_locks() {
        let (_d, handle) = serve();
        {
            let mut a = Client::connect(handle.local_addr()).unwrap();
            a.insert(Record::new(1, vec![1, 1])).unwrap();
            // dropped without commit: the server-side session rolls back
        }
        let mut b = Client::connect(handle.local_addr()).unwrap();
        // The key never existed and the branch lock is free — but the
        // server processes the disconnect asynchronously, so retry briefly.
        let mut ok = false;
        for _ in 0..100 {
            match b.insert(Record::new(1, vec![2, 2])) {
                Ok(()) => {
                    ok = true;
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        assert!(ok, "lock never released after disconnect");
        b.commit().unwrap();
        assert_eq!(b.get(1).unwrap().unwrap().field(0), 2);
        handle.shutdown().unwrap();
    }

    #[test]
    fn connection_churn_releases_registrations() {
        // Regression: the live-connection gauge must track *live*
        // connections, not lifetime connection count — otherwise every
        // past client leaks a registered descriptor until the process
        // hits EMFILE.
        let (_d, handle) = serve();
        for k in 0..20u64 {
            let mut c = Client::connect(handle.local_addr()).unwrap();
            c.insert(Record::new(1000 + k, vec![k, k])).unwrap();
            c.commit().unwrap();
        }
        // Disconnects are processed asynchronously; wait for the loop to
        // deregister them.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let live = handle.live_connections();
            if live == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{live} connection registrations never released"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        handle.shutdown().unwrap();
    }

    #[test]
    fn shutdown_checkpoints_and_unblocks_clients() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("db");
        let config = StoreConfig::test_default();
        let db = Database::create(
            &path,
            EngineKind::Hybrid,
            Schema::new(2, ColumnType::U32),
            &config,
        )
        .unwrap();
        let handle = Server::bind(db, "127.0.0.1:0").unwrap().spawn();
        let addr = handle.local_addr();
        let mut client = Client::connect(addr).unwrap();
        client.insert(Record::new(5, vec![50, 55])).unwrap();
        client.commit().unwrap();
        // A second client sits idle in a blocking read; shutdown must not
        // hang on it.
        let idle = Client::connect(addr).unwrap();
        handle.shutdown().unwrap();
        drop(idle);
        assert!(path.join("CHECKPOINT").exists(), "shutdown checkpoints");
        // Clean restart: the checkpoint covers everything.
        let db = Database::open(&path, &config).unwrap();
        assert_eq!(db.replayed_on_open(), 0);
        assert_eq!(
            db.read(BranchId::MASTER).count().unwrap(),
            1,
            "committed row survives the restart"
        );
    }

    #[test]
    fn typed_errors_cross_the_wire() {
        let (_d, handle) = serve();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.insert(Record::new(1, vec![1, 1])).unwrap();
        client.commit().unwrap();
        let err = client.insert(Record::new(1, vec![2, 2])).unwrap_err();
        assert!(matches!(err, DbError::DuplicateKey { key: 1 }), "{err}");
        let err = client.checkout_branch("nope").unwrap_err();
        assert!(matches!(err, DbError::UnknownBranch(_)), "{err}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn stats_merge_database_and_server_families() {
        let (_d, handle) = serve();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        for k in 0..50u64 {
            client.insert(Record::new(k, vec![k, k])).unwrap();
        }
        client.commit().unwrap();
        assert_eq!(client.scan_collect().unwrap().len(), 50);
        let snap = client.stats().unwrap();
        // Database-side families crossed the wire...
        assert_eq!(snap.counter("commit", "grouped_txns"), 1);
        assert!(snap.histogram("commit", "commit_us").unwrap().count >= 1);
        assert!(snap.counter("scan", "rows_scanned") >= 50);
        // ...merged with the event loop's own family.
        assert!(snap.counter("server", "conns_total") >= 1);
        let (live, live_max) = snap.gauge("server", "conns_live");
        assert_eq!(live, 1);
        assert!(live_max >= 1);
        // 50 inserts + commit + scan + stats, at least.
        assert!(snap.counter("server", "requests") >= 53);
        // The handle-side snapshot sees the same registries in-process.
        let local = handle.metrics();
        assert!(local.counter("server", "requests") >= snap.counter("server", "requests"));
        assert_eq!(local.counter("commit", "grouped_txns"), 1);
        handle.shutdown().unwrap();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        // The state machine decodes the next request while the previous
        // reply drains; send a burst of frames in one write and expect
        // every reply, in order, without interleaving.
        let (_d, handle) = serve();
        let schema = handle.database().schema();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        let hello = read_frame(&mut stream).unwrap().unwrap();
        Hello::decode(&hello).unwrap();
        let mut burst = Vec::new();
        for k in 0..8u64 {
            let req = Request::Insert {
                record: Record::new(k, vec![k, k]),
            };
            write_frame(&mut burst, &req.encode(&schema).unwrap()).unwrap();
        }
        write_frame(&mut burst, &Request::Commit.encode(&schema).unwrap()).unwrap();
        stream.write_all(&burst).unwrap();
        for _ in 0..8 {
            let frame = read_frame(&mut stream).unwrap().unwrap();
            match Response::decode(&frame, &schema).unwrap() {
                Response::Ok(Reply::Unit) => {}
                other => panic!("expected unit ack, got {other:?}"),
            }
        }
        let frame = read_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(
            Response::decode(&frame, &schema).unwrap(),
            Response::Ok(Reply::Commit(_))
        ));
        drop(stream);
        handle.shutdown().unwrap();
    }

    #[test]
    fn auth_token_gates_every_request() {
        let (_d, handle) = serve_with(|s| s.with_auth_token(Some("open sesame".into())));
        let addr = handle.local_addr();

        // Right token: full service.
        let mut ok = Client::connect_with_token(addr, "open sesame").unwrap();
        ok.insert(Record::new(1, vec![1, 1])).unwrap();
        ok.commit().unwrap();

        // Wrong token: typed rejection.
        let err = Client::connect_with_token(addr, "open sesamee")
            .err()
            .unwrap();
        assert!(matches!(err, DbError::AuthFailed), "{err}");

        // No token at all: the first real request is rejected and the
        // connection closes without serving it.
        let mut anon = Client::connect(addr).unwrap();
        let err = anon.get(1).unwrap_err();
        assert!(matches!(err, DbError::AuthFailed), "{err}");
        assert!(anon.get(1).is_err(), "connection must be closed");

        handle.shutdown().unwrap();
    }

    #[test]
    fn no_auth_server_accepts_and_ignores_tokens() {
        let (_d, handle) = serve();
        let mut client = Client::connect_with_token(handle.local_addr(), "whatever").unwrap();
        client.insert(Record::new(9, vec![9, 9])).unwrap();
        client.commit().unwrap();
        handle.shutdown().unwrap();
    }

    #[test]
    fn constant_time_compare_is_exact() {
        assert!(token_matches("", ""));
        assert!(token_matches("abc", "abc"));
        assert!(!token_matches("abc", "abd"));
        assert!(!token_matches("abc", "ab"));
        assert!(!token_matches("ab", "abc"));
        assert!(!token_matches("abc", ""));
        assert!(!token_matches("", "abc"));
    }
}
