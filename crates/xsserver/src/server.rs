//! The event-driven TCP server: one reactor-owned event loop plus a
//! bounded worker pool serving the wire protocol over one
//! [`SharedDatabase`].
//!
//! Concurrency model: a single event-loop thread owns every socket.
//! Sockets are nonblocking and parked in the [`reactor`](crate::reactor)
//! when idle — an idle connection costs a file descriptor and a small
//! buffer, never a thread and never a polling tick. The loop
//! accumulates inbound bytes per connection, decodes complete frames
//! incrementally ([`try_decode_frame`]), and hands each request to the
//! worker pool; workers execute against the database and push the
//! encoded response to a completion queue, waking the loop over its
//! wakeup fd. Responses are written back **in request order** no
//! matter how many requests a connection has in flight — clients may
//! pipeline freely. Jobs from one connection also *execute* strictly
//! in arrival order (at most one in flight per connection; the loop
//! parks the rest on the connection), so a pipelined
//! `PUT_SCHEMA; PUT_DOC` burst observes its own earlier writes; only
//! different connections run concurrently.
//!
//! Backpressure is budgeted per connection: at most
//! [`ServerConfig::max_inflight`] requests may be decoded-but-
//! unanswered and at most [`ServerConfig::max_pending_write_bytes`]
//! response bytes may be queued unwritten. Over either budget the loop
//! stops polling the socket for readability (counted in
//! `net.backpressure_stalls_total`), so a client that pipelines
//! without reading is throttled by TCP itself and server memory stays
//! bounded. Requests already decoded obey the write budget too: the
//! loop hands a connection's next parked job to the pool only once the
//! previous response is queued and the connection's unwritten bytes are
//! under budget — so a stalled reader holds at most one response past
//! its budget, however deep it pipelined.
//!
//! Read operations (`VALIDATE`, `QUERY`, `XQUERY`, `LIST`, `STATS`)
//! run against an immutable epoch snapshot
//! ([`SharedDatabase::read`](xsdb::SharedDatabase::read)) and never
//! block on writers; state transitions (`PUT_*`, `DEL_*`, `UPDATE_*`)
//! are encoded as [`Mutation`]s and committed through
//! [`SharedDatabase::apply`](xsdb::SharedDatabase::apply) — on a
//! durable database each is appended to the write-ahead log before it
//! is acknowledged, under the server's [`Durability`](xsdb::Durability)
//! mode. `SAVE` is a checkpoint
//! ([`SharedDatabase::checkpoint`](xsdb::SharedDatabase::checkpoint)):
//! it folds the log into the paged store of the directory the database
//! was opened on and truncates it. A volatile database has no directory,
//! and answers `SAVE` with [`Status::Unsupported`].
//!
//! Shutdown ([`ServerHandle::shutdown`], or a signal handler calling
//! [`ShutdownRequester::request`]) is graceful and wakeup-fd driven:
//! the flag flips, one byte lands on the wakeup fd, and the loop —
//! blocked in `epoll_wait`, not a sleep — stops accepting, lets
//! in-flight requests finish, sends every connection a
//! [`Status::ShuttingDown`] frame, and exits. When the database is
//! durable a final checkpoint commits the state before
//! [`ServerHandle::shutdown`] returns.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xsdb::{catch_panic, ApplyOutcome, DbError, Mutation, SharedDatabase};
use xsobs::{CounterId, HistogramId, MaxId};

use crate::protocol::{
    encode_frame, encode_payload, max_payload_for, try_decode_frame, FrameError, Opcode, Status,
    HEADER_LEN, MAX_REQUEST_FIELDS, WIRE_VERSION,
};
use crate::reactor::{Event, Interest, Reactor, Waker};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing database work. Connections are **not**
    /// bounded by this: idle connections hold no thread at all.
    pub threads: usize,
    /// Cap on concurrently served connections; beyond it new
    /// connections are refused with [`Status::Busy`].
    pub max_conns: usize,
    /// Mid-frame budget: the longest a started request frame may take
    /// to arrive in full (slowloris/half-open protection). Connections
    /// idle *between* frames are parked free and never time out.
    pub io_timeout: Duration,
    /// Backpressure budget: decoded requests a connection may have
    /// unanswered before the loop stops reading from it.
    pub max_inflight: usize,
    /// Backpressure budget: response bytes a connection may have
    /// queued unwritten before the loop stops reading from it.
    pub max_pending_write_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 64,
            max_conns: 256,
            io_timeout: Duration::from_secs(30),
            max_inflight: 32,
            max_pending_write_bytes: 1 << 20,
        }
    }
}

/// Reactor token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Reactor token of the wakeup fd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection. Tokens are never
/// reused, so a late completion for a closed connection cannot be
/// misdelivered.
const TOKEN_FIRST_CONN: u64 = 2;

/// Write budget for courtesy frames ([`Status::Busy`],
/// [`Status::ShuttingDown`]) sent to connections the server will not
/// serve — short, so a slow peer cannot hold resources.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// How long graceful shutdown waits for in-flight requests and final
/// flushes before force-closing what remains.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// One decoded request on its way to the worker pool.
struct Job {
    token: u64,
    seq: u64,
    tag: u8,
    fields: Vec<String>,
}

/// One encoded response on its way back to the event loop.
struct Completion {
    token: u64,
    seq: u64,
    header: [u8; HEADER_LEN],
    payload: Vec<u8>,
}

/// Everything the event loop, the workers, and the handle share.
struct ServerState {
    shared: SharedDatabase,
    obs: Arc<xsobs::Registry>,
    shutdown: AtomicBool,
    stopped: Mutex<bool>,
    stopped_cv: Condvar,
    /// Jobs any worker may take next: at most one per connection (the
    /// loop dispatches a connection's next job only after the previous
    /// one completed).
    jobs: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    max_conns: usize,
    io_timeout: Duration,
    max_payload: usize,
    max_inflight: u64,
    max_pending_write_bytes: usize,
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn push_job(&self, job: Job) {
        let mut jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        jobs.push_back(job);
        self.job_ready.notify_one();
    }
}

/// The server factory. See [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `addr` and start serving `shared` until
    /// [`ServerHandle::shutdown`]. Pass port 0 for an ephemeral port;
    /// [`ServerHandle::local_addr`] reports the bound address.
    pub fn start(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        shared: SharedDatabase,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let reactor = Reactor::new()?;
        reactor.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let waker = Waker::new(&reactor, TOKEN_WAKER)?;
        let obs = Arc::clone(shared.metrics_registry());
        let max_payload = max_payload_for(shared.read().limits());
        let state = Arc::new(ServerState {
            shared: shared.clone(),
            obs,
            shutdown: AtomicBool::new(false),
            stopped: Mutex::new(false),
            stopped_cv: Condvar::new(),
            jobs: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker,
            max_conns: config.max_conns.max(1),
            io_timeout: config.io_timeout.max(Duration::from_millis(1)),
            max_payload,
            max_inflight: config.max_inflight.max(1) as u64,
            max_pending_write_bytes: config.max_pending_write_bytes.max(HEADER_LEN + 1),
        });
        let mut workers = Vec::with_capacity(config.threads.max(1));
        for i in 0..config.threads.max(1) {
            let state = Arc::clone(&state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("xsserver-worker-{i}"))
                    // Parsing and validation keep explicit stacks, but
                    // query evaluation still recurses with document
                    // depth; give workers the same headroom a main
                    // thread gets instead of the 2 MiB spawn default.
                    // Virtual until touched.
                    .stack_size(16 << 20)
                    .spawn(move || worker_loop(&state))?,
            );
        }
        let event_loop = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("xsserver-loop".to_string())
                .spawn(move || event_loop(state, reactor, listener))?
        };
        Ok(ServerHandle { local_addr, state, event_loop: Some(event_loop), workers, shared })
    }
}

/// A handle a signal handler can use to request shutdown without
/// locks, allocation, or blocking: one atomic store and one raw
/// `write(2)` on the reactor's wakeup fd — both async-signal-safe.
/// The held [`Arc`] keeps the wakeup fd alive for the process
/// lifetime of the handler.
pub struct ShutdownRequester {
    state: Arc<ServerState>,
    wake_fd: std::os::unix::io::RawFd,
}

impl ShutdownRequester {
    /// Request graceful shutdown. Safe to call from a signal handler
    /// and from any thread, any number of times.
    pub fn request(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        Waker::wake_from_signal_handler(self.wake_fd);
    }
}

/// A running server. Dropping the handle stops the server (without the
/// final persistence save); call [`ServerHandle::shutdown`] for the
/// graceful path.
pub struct ServerHandle {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    event_loop: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shared: SharedDatabase,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared database this server serves.
    pub fn shared(&self) -> &SharedDatabase {
        &self.shared
    }

    /// A cheap, clonable-by-construction requester for signal handlers
    /// and other threads that need to trigger the graceful path
    /// without owning the handle.
    pub fn shutdown_requester(&self) -> ShutdownRequester {
        ShutdownRequester { state: Arc::clone(&self.state), wake_fd: self.state.waker.signal_fd() }
    }

    /// Block until the event loop has exited — either because
    /// [`ShutdownRequester::request`] ran (e.g. from a signal handler)
    /// or the loop failed fatally. After this returns,
    /// [`ServerHandle::shutdown`] completes without waiting.
    pub fn wait(&self) {
        let mut stopped = self.state.stopped.lock().unwrap_or_else(|p| p.into_inner());
        while !*stopped {
            stopped = self.state.stopped_cv.wait(stopped).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Graceful shutdown: stop accepting, let in-flight requests
    /// finish, notify every connection, join every thread, then —
    /// when the database is durable — commit a final checkpoint and
    /// report its outcome.
    pub fn shutdown(mut self) -> Result<(), DbError> {
        self.stop_threads();
        if self.shared.is_durable() {
            self.shared.checkpoint()
        } else {
            Ok(())
        }
    }

    /// Signal shutdown over the wakeup fd and join everything.
    fn stop_threads(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.waker.wake();
        if let Some(t) = self.event_loop.take() {
            let _ = t.join();
        }
        // Workers exit once the loop is gone (it dispatches parked jobs
        // until then) and the job queue is empty. Mark it gone — also
        // when it panicked — and wake any parked on the condvar.
        *self.state.stopped.lock().unwrap_or_else(|p| p.into_inner()) = true;
        {
            let _guard = self.state.jobs.lock().unwrap_or_else(|p| p.into_inner());
            self.state.job_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.event_loop.is_some() || !self.workers.is_empty() {
            self.stop_threads();
        }
    }
}

// ---------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------

/// One response frame queued for writing, with a resume offset so a
/// partial `writev` picks up exactly where the socket stalled.
struct PendingWrite {
    header: [u8; HEADER_LEN],
    payload: Vec<u8>,
    written: usize,
}

impl PendingWrite {
    fn total(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

/// A connection's loop-owned state. The lifecycle is a small machine:
/// reading frames → executing (jobs in flight) → writing responses,
/// with all three phases overlapping under pipelining, plus two
/// terminal modes — `close_after_drain` (a framing error was answered;
/// finish in-flight responses, then close) and `closing` (flush what
/// is queued, then close).
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet decoded into frames.
    buf: Vec<u8>,
    /// Sequence number the next decoded request will get.
    next_seq: u64,
    /// Sequence number the next response moved to the write queue must
    /// have — the reorder point that keeps pipelined responses in
    /// request order.
    next_write_seq: u64,
    /// Completed responses waiting for their turn (out-of-order
    /// worker completions).
    done: BTreeMap<u64, ([u8; HEADER_LEN], Vec<u8>)>,
    writes: VecDeque<PendingWrite>,
    pending_write_bytes: usize,
    /// Interest currently registered with the reactor.
    interest: Interest,
    /// Read interest parked because a backpressure budget is exceeded.
    paused: bool,
    /// Peer EOF (or shutdown refused further requests); buffered
    /// complete frames still execute, then the connection drains.
    read_eof: bool,
    /// Flush the write queue, then close (courtesy/goodbye/fatal).
    closing: bool,
    /// A framing error was answered: no more reads; close once every
    /// in-flight response has been queued and flushed.
    close_after_drain: bool,
    /// Counted against `max_conns` (false for Busy rejects).
    admitted: bool,
    /// Decoded requests waiting for their turn to execute.
    parked: VecDeque<Job>,
    /// One of this connection's jobs is with the worker pool.
    running: bool,
    /// When set, the connection is force-closed at this instant —
    /// mid-frame arrival budget or courtesy-write budget.
    deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, admitted: bool) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            next_seq: 0,
            next_write_seq: 0,
            done: BTreeMap::new(),
            writes: VecDeque::new(),
            pending_write_bytes: 0,
            interest: Interest::NONE,
            paused: false,
            read_eof: false,
            closing: false,
            close_after_drain: false,
            admitted,
            parked: VecDeque::new(),
            running: false,
            deadline: None,
        }
    }

    /// Requests decoded but not yet promoted to the write queue.
    fn inflight(&self) -> u64 {
        self.next_seq - self.next_write_seq
    }

    fn over_budget(&self, state: &ServerState) -> bool {
        self.inflight() >= state.max_inflight
            || self.pending_write_bytes >= state.max_pending_write_bytes
    }
}

/// Encode a frame that cannot fail: a status tag and one short
/// message. Used for loop-generated frames (framing errors, Busy,
/// ShuttingDown) where the payload is a bounded string.
fn encode_tiny(tag: u8, msg: &str) -> ([u8; HEADER_LEN], Vec<u8>) {
    let payload = encode_payload(&[msg]);
    let mut header = [0u8; HEADER_LEN];
    header[0] = WIRE_VERSION;
    header[1] = tag;
    header[2..6].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    (header, payload)
}

/// Queue one encoded frame on a connection and update the
/// pending-write gauge.
fn enqueue_write(
    conn: &mut Conn,
    obs: &xsobs::Registry,
    header: [u8; HEADER_LEN],
    payload: Vec<u8>,
) {
    conn.pending_write_bytes += HEADER_LEN + payload.len();
    obs.record_max(MaxId::NetPendingWriteBytesHighWater, conn.pending_write_bytes as u64);
    conn.writes.push_back(PendingWrite { header, payload, written: 0 });
}

/// Deliver a completed response: park it in the reorder buffer and
/// promote everything now in order.
fn deliver(
    conn: &mut Conn,
    obs: &xsobs::Registry,
    seq: u64,
    header: [u8; HEADER_LEN],
    payload: Vec<u8>,
) {
    conn.done.insert(seq, (header, payload));
    while let Some((header, payload)) = conn.done.remove(&conn.next_write_seq) {
        conn.next_write_seq += 1;
        enqueue_write(conn, obs, header, payload);
    }
}

/// Vectored flush of the write queue until empty or `WouldBlock`.
/// `Err` means the connection is dead.
fn flush_writes(conn: &mut Conn, obs: &xsobs::Registry) -> io::Result<()> {
    loop {
        if conn.writes.is_empty() {
            return Ok(());
        }
        // Up to 32 frames (64 iovecs) per writev: header and payload
        // stay separate buffers end to end — no concatenation copy.
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2 * conn.writes.len().min(32));
        for w in conn.writes.iter().take(32) {
            if w.written < HEADER_LEN {
                slices.push(IoSlice::new(&w.header[w.written..]));
                slices.push(IoSlice::new(&w.payload));
            } else {
                let off = w.written - HEADER_LEN;
                slices.push(IoSlice::new(&w.payload[off..]));
            }
        }
        let mut n = match (&conn.stream).write_vectored(&slices) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket wrote zero")),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while n > 0 {
            let Some(front) = conn.writes.front_mut() else { break };
            let left = front.total() - front.written;
            if n >= left {
                n -= left;
                obs.add(CounterId::SrvBytesOut, front.payload.len() as u64);
                conn.pending_write_bytes -= front.total();
                conn.writes.pop_front();
            } else {
                front.written += n;
                n = 0;
            }
        }
    }
}

/// Decode as many complete frames as the budgets allow, dispatching
/// each to the worker pool. Framing errors are answered in-band (in
/// sequence) and flip the connection to `close_after_drain`. Returns
/// how many frames were decoded.
fn parse_frames(conn: &mut Conn, state: &ServerState, token: u64, refuse_new: bool) -> u64 {
    let mut parsed = 0u64;
    // Whether parsing stopped at an *incomplete* frame (as opposed to
    // a budget pause with complete frames still buffered, or an empty
    // buffer): only that case is slowloris territory.
    let mut stalled_mid_frame = false;
    loop {
        if refuse_new
            || conn.closing
            || conn.close_after_drain
            || conn.inflight() >= state.max_inflight
            || conn.pending_write_bytes >= state.max_pending_write_bytes
        {
            break;
        }
        match try_decode_frame(&conn.buf, state.max_payload, MAX_REQUEST_FIELDS) {
            Ok(None) => {
                stalled_mid_frame = !conn.buf.is_empty();
                break;
            }
            Ok(Some(frame)) => {
                conn.buf.drain(..frame.consumed);
                state.obs.add(CounterId::SrvBytesIn, frame.payload_len as u64);
                let seq = conn.next_seq;
                conn.next_seq += 1;
                parsed += 1;
                conn.parked.push_back(Job { token, seq, tag: frame.tag, fields: frame.fields });
            }
            Err(e) => {
                // Framing is lost (or the declaration is hostile):
                // answer in sequence, refuse further reads, and close
                // once earlier in-flight responses have drained.
                state.obs.incr(CounterId::SrvFrameRejections);
                let status = match &e {
                    FrameError::TooLarge { .. } => Status::FrameTooLarge,
                    _ => Status::BadFrame,
                };
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let (header, payload) = encode_tiny(status as u8, &e.to_string());
                deliver(conn, &state.obs, seq, header, payload);
                conn.close_after_drain = true;
                conn.buf.clear();
                break;
            }
        }
    }
    if parsed > 0 {
        state.obs.observe_value(HistogramId::NetPipelineDepth, parsed);
    }
    // A partial frame sits at the head of the buffer: it must complete
    // within the mid-frame budget (slowloris/half-open protection).
    // The deadline is anchored at the partial frame's first sighting
    // and is *not* refreshed by trickled bytes. Idle connections
    // (empty buffer) and backpressure pauses (complete frames waiting
    // for budget — the server's own doing) carry no deadline at all.
    if stalled_mid_frame {
        if conn.deadline.is_none() && !conn.closing && !conn.close_after_drain {
            conn.deadline = Some(Instant::now() + state.io_timeout);
        }
    } else if !conn.closing {
        conn.deadline = None;
    }
    parsed
}

// ---------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------

struct EventLoop {
    state: Arc<ServerState>,
    reactor: Reactor,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    /// Mirror of every `Conn::deadline` that is set, so the wait
    /// timeout is computed over deadlined connections only — parked
    /// idle connections cost nothing per tick.
    deadlines: HashMap<u64, Instant>,
    next_token: u64,
    /// Connections counted against `max_conns`.
    serving: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
}

fn event_loop(state: Arc<ServerState>, reactor: Reactor, listener: TcpListener) {
    let mut lp = EventLoop {
        state: Arc::clone(&state),
        reactor,
        listener,
        conns: HashMap::new(),
        deadlines: HashMap::new(),
        next_token: TOKEN_FIRST_CONN,
        serving: 0,
        draining: false,
        drain_deadline: None,
    };
    lp.run();
    let mut stopped = state.stopped.lock().unwrap_or_else(|p| p.into_inner());
    *stopped = true;
    state.stopped_cv.notify_all();
}

impl EventLoop {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.draining && self.conns.is_empty() {
                return;
            }
            events.clear();
            self.state.obs.incr(CounterId::NetEpollWaits);
            if self.reactor.wait(&mut events, self.next_timeout()).is_err() {
                // A broken selector is unrecoverable; drop everything.
                return;
            }
            self.state.obs.add(CounterId::NetEventsDispatched, events.len() as u64);
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.expire_deadlines();
        }
    }

    /// The wait timeout: the nearest connection deadline or the
    /// shutdown grace deadline; `None` (block forever) when neither
    /// exists — the common all-idle case, which therefore burns zero
    /// CPU.
    fn next_timeout(&self) -> Option<Duration> {
        let nearest = self.deadlines.values().chain(self.drain_deadline.iter()).min()?;
        Some(nearest.saturating_duration_since(Instant::now()))
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.draining {
                drop(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            let admitted = self.serving < self.state.max_conns;
            let mut conn = Conn::new(stream, admitted);
            if admitted {
                self.state.obs.incr(CounterId::SrvConnAccepted);
                self.serving += 1;
                self.state.obs.record_max(MaxId::SrvConnHighWater, self.serving as u64);
            } else {
                // Connection admission: over the cap the peer gets a
                // courtesy Busy frame under a short write budget — the
                // loop never blocks on a peer that won't read it.
                self.state.obs.incr(CounterId::SrvConnRejected);
                let (header, payload) =
                    encode_tiny(Status::Busy as u8, "connection limit reached, retry later");
                enqueue_write(&mut conn, &self.state.obs, header, payload);
                conn.closing = true;
                conn.read_eof = true;
                conn.deadline = Some(Instant::now() + REJECT_WRITE_TIMEOUT);
            }
            let interest = if admitted { Interest::READ } else { Interest::WRITE };
            if self.reactor.register(conn.stream.as_raw_fd(), token, interest).is_err() {
                if admitted {
                    self.serving -= 1;
                }
                continue;
            }
            conn.interest = interest;
            self.conns.insert(token, conn);
            self.settle(token);
        }
    }

    fn waker_ready(&mut self) {
        self.state.waker.drain();
        self.state.obs.incr(CounterId::NetWakeups);
        if self.state.shutting_down() && !self.draining {
            self.begin_drain();
        }
        let completions: Vec<Completion> = {
            let mut c = self.state.completions.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut c)
        };
        for completion in completions {
            // A completion for a closed connection (mid-pipeline
            // disconnect) has nowhere to go; tokens are never reused,
            // so dropping it is always right.
            if let Some(conn) = self.conns.get_mut(&completion.token) {
                conn.running = false;
                deliver(
                    conn,
                    &self.state.obs,
                    completion.seq,
                    completion.header,
                    completion.payload,
                );
                self.settle(completion.token);
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: &Event) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if ev.hangup && !ev.readable && !ev.writable {
            // Pure error/hangup with nothing to read or write: the
            // connection is gone.
            self.close(token);
            return;
        }
        if ev.readable && !self.read_ready(token) {
            return; // closed on read error
        }
        if ev.writable {
            let dead = match self.conns.get_mut(&token) {
                Some(conn) => flush_writes(conn, &self.state.obs).is_err(),
                None => return,
            };
            if dead {
                self.close(token);
                return;
            }
        }
        self.settle(token);
    }

    /// Drain the socket into the connection buffer, decoding frames as
    /// they complete. Returns false if the connection was closed.
    fn read_ready(&mut self, token: u64) -> bool {
        let state = Arc::clone(&self.state);
        let refuse_new = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if conn.read_eof || conn.closing || conn.close_after_drain || conn.over_budget(&state) {
                break;
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.read_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    parse_frames(conn, &state, token, refuse_new);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return false;
                }
            }
        }
        true
    }

    /// Re-evaluate a connection after any progress: flush, apply the
    /// drain/goodbye transitions, close if terminal, recompute
    /// backpressure and reactor interest, and sync the deadline
    /// mirror.
    fn settle(&mut self, token: u64) {
        let state = Arc::clone(&self.state);
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if flush_writes(conn, &state.obs).is_err() {
            self.close(token);
            return;
        }
        // Goodbye: once a connection has nothing in flight during
        // shutdown (or after answering a framing error), queue the
        // farewell and flip to closing.
        if !conn.closing
            && (draining || conn.close_after_drain)
            && conn.inflight() == 0
            && conn.done.is_empty()
        {
            if draining && conn.admitted && !conn.close_after_drain {
                let (header, payload) =
                    encode_tiny(Status::ShuttingDown as u8, "server is shutting down");
                enqueue_write(conn, &state.obs, header, payload);
            }
            conn.closing = true;
            conn.deadline = Some(Instant::now() + REJECT_WRITE_TIMEOUT);
            if flush_writes(conn, &state.obs).is_err() {
                self.close(token);
                return;
            }
        }
        if conn.closing && conn.writes.is_empty() {
            self.close(token);
            return;
        }
        if conn.read_eof
            && !conn.closing
            && conn.inflight() == 0
            && conn.done.is_empty()
            && conn.writes.is_empty()
        {
            self.close(token);
            return;
        }
        // Backpressure: over budget parks the read interest; dropping
        // back under re-arms it and decodes whatever already buffered.
        let over = conn.over_budget(&state);
        if over && !conn.paused {
            conn.paused = true;
            state.obs.incr(CounterId::NetBackpressureStalls);
        } else if !over && conn.paused {
            conn.paused = false;
            if parse_frames(conn, &state, token, draining) > 0 && conn.over_budget(&state) {
                conn.paused = true;
            }
        }
        // Execution: the next parked job starts once the previous one
        // completed and the unwritten responses fit the write budget —
        // during shutdown unconditionally, so decoded requests finish.
        if !conn.running && (draining || conn.pending_write_bytes < state.max_pending_write_bytes) {
            if let Some(job) = conn.parked.pop_front() {
                conn.running = true;
                state.push_job(job);
            }
        }
        let want = Interest {
            readable: !conn.paused && !conn.read_eof && !conn.closing && !conn.close_after_drain,
            writable: !conn.writes.is_empty(),
        };
        if want != conn.interest {
            if self.reactor.modify(conn.stream.as_raw_fd(), token, want).is_err() {
                self.close(token);
                return;
            }
            conn.interest = want;
        }
        match conn.deadline {
            Some(at) => {
                self.deadlines.insert(token, at);
            }
            None => {
                self.deadlines.remove(&token);
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.reactor.deregister(conn.stream.as_raw_fd());
            if conn.admitted {
                self.serving -= 1;
            }
        }
        self.deadlines.remove(&token);
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
        let _ = self.reactor.deregister(self.listener.as_raw_fd());
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                // No new requests: buffered partial frames are
                // abandoned; decoded in-flight requests still finish.
                conn.read_eof = true;
                conn.buf.clear();
            }
            self.settle(token);
        }
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        if let Some(at) = self.drain_deadline {
            if now >= at {
                // Grace exhausted: force-close whatever is left.
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    self.close(token);
                }
                return;
            }
        }
        let expired: Vec<u64> =
            self.deadlines.iter().filter(|(_, at)| now >= **at).map(|(token, _)| *token).collect();
        for token in expired {
            // Mid-frame arrival budget or courtesy-write budget blown:
            // the peer is too slow (or gone); reclaim the slot.
            self.close(token);
        }
    }
}

// ---------------------------------------------------------------------
// Worker pool: database execution
// ---------------------------------------------------------------------

fn worker_loop(state: &ServerState) {
    loop {
        let job = {
            let mut jobs = state.jobs.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if *state.stopped.lock().unwrap_or_else(|p| p.into_inner()) {
                    return;
                }
                jobs = state.job_ready.wait(jobs).unwrap_or_else(|p| p.into_inner());
            }
        };
        let (header, payload) = execute(state, job.tag, &job.fields);
        {
            let mut completions = state.completions.lock().unwrap_or_else(|p| p.into_inner());
            completions.push(Completion { token: job.token, seq: job.seq, header, payload });
        }
        state.waker.wake();
    }
}

/// Execute one well-framed request and encode the response frame.
fn execute(state: &ServerState, tag: u8, fields: &[String]) -> ([u8; HEADER_LEN], Vec<u8>) {
    let (status, out_fields) = match Opcode::from_u8(tag) {
        Some(op) => {
            let mut span = state.obs.span(HistogramId::SrvRequest);
            span.set_detail(op.name());
            // A panic in one request becomes its `ERR_INTERNAL` reply and
            // leaves the worker serving. Reads touch only the state they
            // were handed, and the database's locks ignore poisoning, as
            // the other workers' did when a panic ended this one.
            let result = catch_panic(&state.obs, op.name(), || Ok(dispatch(state, op, fields)))
                .unwrap_or_else(|e| (Status::of(&e), vec![e.to_string()]));
            drop(span);
            state.obs.incr(op_counter(op));
            result
        }
        None => {
            state.obs.incr(CounterId::SrvFrameRejections);
            (Status::UnknownOpcode, vec![format!("opcode 0x{tag:02x} is not assigned")])
        }
    };
    state.obs.incr(CounterId::SrvRequests);
    if !status.is_ok() {
        state.obs.incr(CounterId::SrvRequestErrors);
    }
    let refs: Vec<&str> = out_fields.iter().map(String::as_str).collect();
    match encode_frame(status as u8, &refs) {
        Ok(frame) => frame,
        Err(_) => {
            // The result payload overflows the frame format's u32
            // length field. Nothing has touched the wire, so framing is
            // intact — report the failure in-band and keep the
            // connection.
            state.obs.incr(CounterId::SrvRequestErrors);
            encode_tiny(Status::Internal as u8, "response exceeds the 4 GiB frame cap")
        }
    }
}

fn op_counter(op: Opcode) -> CounterId {
    match op {
        Opcode::Ping => CounterId::SrvOpPing,
        Opcode::PutSchema => CounterId::SrvOpPutSchema,
        Opcode::DelSchema => CounterId::SrvOpDelSchema,
        Opcode::PutDoc => CounterId::SrvOpPutDoc,
        Opcode::DelDoc => CounterId::SrvOpDelDoc,
        Opcode::Validate => CounterId::SrvOpValidate,
        Opcode::Query => CounterId::SrvOpQuery,
        Opcode::Xquery => CounterId::SrvOpXquery,
        Opcode::List => CounterId::SrvOpList,
        Opcode::Stats => CounterId::SrvOpStats,
        Opcode::Save => CounterId::SrvOpSave,
        Opcode::Update => CounterId::SrvOpUpdate,
        Opcode::Explain => CounterId::SrvOpExplain,
    }
}

/// Check a request's field count.
fn arity(op: Opcode, fields: &[String], want: usize) -> Result<(), (Status, Vec<String>)> {
    if fields.len() == want {
        Ok(())
    } else {
        Err((
            Status::BadFrame,
            vec![format!("{} expects {want} field(s), got {}", op.name(), fields.len())],
        ))
    }
}

fn err_response(e: &DbError) -> (Status, Vec<String>) {
    (Status::of(e), vec![e.to_string()])
}

/// Commit one mutation through the durable write path and render the
/// outcome as a response.
fn apply_mutation(state: &ServerState, m: &Mutation) -> (Status, Vec<String>) {
    match state.shared.apply(m) {
        Ok(ApplyOutcome::UpdatedChecked(o)) => (
            Status::Ok,
            vec![o.verdict.to_string(), o.nodes.to_string(), o.revalidated.to_string()],
        ),
        Ok(_) => (Status::Ok, Vec::new()),
        Err(e) => err_response(&e),
    }
}

/// Execute one opcode against the shared database.
fn dispatch(state: &ServerState, op: Opcode, fields: &[String]) -> (Status, Vec<String>) {
    let check = |want: usize| arity(op, fields, want);
    match op {
        Opcode::Ping => {
            if let Err(e) = check(0) {
                return e;
            }
            (Status::Ok, vec!["pong".to_string()])
        }
        Opcode::PutSchema => {
            if let Err(e) = check(2) {
                return e;
            }
            apply_mutation(
                state,
                &Mutation::RegisterSchema { name: fields[0].clone(), xsd: fields[1].clone() },
            )
        }
        Opcode::DelSchema => {
            if let Err(e) = check(1) {
                return e;
            }
            apply_mutation(state, &Mutation::RemoveSchema { name: fields[0].clone() })
        }
        Opcode::PutDoc => {
            if let Err(e) = check(3) {
                return e;
            }
            apply_mutation(
                state,
                &Mutation::Insert {
                    doc: fields[0].clone(),
                    schema: fields[1].clone(),
                    xml: fields[2].clone(),
                },
            )
        }
        Opcode::DelDoc => {
            if let Err(e) = check(1) {
                return e;
            }
            apply_mutation(state, &Mutation::Delete { doc: fields[0].clone() })
        }
        Opcode::Validate => {
            if let Err(e) = check(2) {
                return e;
            }
            match state.shared.read().validate(&fields[0], &fields[1]) {
                Ok(violations) => (Status::Ok, violations.iter().map(|v| v.to_string()).collect()),
                Err(e) => err_response(&e),
            }
        }
        Opcode::Query => {
            if let Err(e) = check(2) {
                return e;
            }
            match state.shared.read().query(&fields[0], &fields[1]) {
                Ok(values) => (Status::Ok, values),
                Err(e) => err_response(&e),
            }
        }
        Opcode::Xquery => {
            if let Err(e) = check(2) {
                return e;
            }
            match state.shared.read().xquery(&fields[0], &fields[1]) {
                Ok(result) => (Status::Ok, vec![result]),
                Err(e) => err_response(&e),
            }
        }
        Opcode::Explain => {
            if let Err(e) = check(2) {
                return e;
            }
            match state.shared.read().explain_query(&fields[0], &fields[1]) {
                Ok(plan) => (Status::Ok, vec![plan]),
                Err(e) => err_response(&e),
            }
        }
        Opcode::Update => {
            if let Err(e) = check(2) {
                return e;
            }
            apply_mutation(
                state,
                &Mutation::Update { doc: fields[0].clone(), update: fields[1].clone() },
            )
        }
        Opcode::List => {
            if let Err(e) = check(0) {
                return e;
            }
            let db = state.shared.read();
            let mut out: Vec<String> = db.schema_names().map(|n| format!("schema:{n}")).collect();
            out.extend(db.document_names().map(|n| format!("doc:{n}")));
            (Status::Ok, out)
        }
        Opcode::Stats => {
            if let Err(e) = check(0) {
                return e;
            }
            (Status::Ok, vec![state.shared.metrics().to_json()])
        }
        Opcode::Save => {
            if let Err(e) = check(0) {
                return e;
            }
            match state.shared.checkpoint() {
                Ok(()) => (Status::Ok, Vec::new()),
                Err(e) => err_response(&e),
            }
        }
    }
}
