//! The event-driven TCP server: [`ServerConfig::threads`] event loops
//! serving the wire protocol over one [`SharedDatabase`].
//!
//! Concurrency model: each event loop is one thread that owns a
//! disjoint set of connections and runs their requests itself (the
//! threading model of memcached). Sockets are nonblocking and parked in
//! the loop's [`reactor`](crate::reactor) when idle — an idle
//! connection costs a file descriptor and a small buffer, never a
//! thread and never a polling tick. The first loop also owns the
//! listener: it admits each connection against
//! [`ServerConfig::max_conns`] (one count shared by every loop) and
//! hands it to the loop with the fewest live connections, through that
//! loop's incoming list and wakeup fd. A loop accumulates inbound bytes
//! per connection, decodes complete frames incrementally
//! ([`try_decode_frame`]), parks them on the connection, and executes
//! them against the database on its own thread: a request crosses no
//! queue and no other thread between its bytes and its response.
//! Jobs from one connection execute strictly in arrival order and their
//! responses are written back **in request order**, so clients may
//! pipeline freely and a pipelined `PUT_SCHEMA; PUT_DOC` burst observes
//! its own earlier writes. Connections that share a loop take turns:
//! each pass runs one parked request per connection, and the loop does
//! not block in `epoll_wait` while a connection still has a runnable
//! request. A slow request therefore delays only the connections on its
//! own loop (`server.queue_wait_ns` shows by how much); connections on
//! other loops run concurrently.
//!
//! Backpressure is budgeted per connection: at most
//! [`ServerConfig::max_inflight`] requests may be decoded-but-
//! unanswered and at most [`ServerConfig::max_pending_write_bytes`]
//! response bytes may be queued unwritten. Over either budget the loop
//! stops polling the socket for readability (counted in
//! `net.backpressure_stalls_total`), so a client that pipelines
//! without reading is throttled by TCP itself and server memory stays
//! bounded. Requests already decoded obey the write budget too: the
//! loop runs a connection's next parked job only once the previous
//! response is queued and the connection's unwritten bytes are under
//! budget — so a stalled reader holds at most one response past its
//! budget, however deep it pipelined.
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
//! the flag flips, one byte lands on the first loop's wakeup fd, and
//! that loop — blocked in `epoll_wait`, not a sleep — stops accepting
//! and wakes the others. Every loop finishes the requests it has
//! decoded, sends each of its connections a [`Status::ShuttingDown`]
//! frame, and exits. When the database is durable a final checkpoint
//! commits the state before [`ServerHandle::shutdown`] returns.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// Threads executing database work: one event loop each, running
    /// the requests of the connections it owns. Connections are **not**
    /// bounded by this: idle connections hold no thread at all, and
    /// connections beyond this count share loops.
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

/// Reactor token of the listening socket (first loop only).
const TOKEN_LISTENER: u64 = 0;
/// Reactor token of a loop's wakeup fd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to a connection. Tokens are never reused within
/// a loop, so a stale runnable entry cannot reach a newer connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Write budget for courtesy frames ([`Status::Busy`],
/// [`Status::ShuttingDown`]) sent to connections the server will not
/// serve — short, so a slow peer cannot hold resources.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// How long graceful shutdown waits for in-flight requests and final
/// flushes before force-closing what remains.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// One parked unit of a connection's work, answered in arrival order.
enum Job {
    /// A decoded request and when it was decoded (the start of its
    /// queue wait).
    Request { tag: u8, fields: Vec<String>, decoded: Instant },
    /// The in-band answer to a framing error; it takes its turn like a
    /// request so responses stay in request order.
    Reply([u8; HEADER_LEN], Vec<u8>),
}

/// What one event loop shares with the acceptor and the handle.
struct LoopShared {
    waker: Waker,
    /// Admitted streams handed to this loop; `None` once it exited.
    incoming: Mutex<Option<Vec<TcpStream>>>,
    /// Admitted connections this loop owns or has been handed.
    live: AtomicUsize,
}

/// Everything the event loops and the handle share.
struct ServerState {
    shared: SharedDatabase,
    obs: Arc<xsobs::Registry>,
    shutdown: AtomicBool,
    /// Event loops that have not exited yet.
    running: Mutex<usize>,
    stopped_cv: Condvar,
    loops: Vec<LoopShared>,
    /// Admitted connections over all loops, against `max_conns`. Only
    /// the acceptor adds, so its check-then-add cannot overshoot.
    serving: AtomicUsize,
    max_conns: usize,
    io_timeout: Duration,
    max_payload: usize,
    max_inflight: usize,
    max_pending_write_bytes: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl ServerState {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// An admitted connection of loop `index` is gone.
    fn release(&self, index: usize) {
        self.serving.fetch_sub(1, Ordering::SeqCst);
        self.loops[index].live.fetch_sub(1, Ordering::SeqCst);
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
        let threads = config.threads.max(1);
        let mut reactors = Vec::with_capacity(threads);
        let mut loops = Vec::with_capacity(threads);
        for _ in 0..threads {
            let reactor = Reactor::new()?;
            let waker = Waker::new(&reactor, TOKEN_WAKER)?;
            loops.push(LoopShared {
                waker,
                incoming: Mutex::new(Some(Vec::new())),
                live: AtomicUsize::new(0),
            });
            reactors.push(reactor);
        }
        reactors[0].register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let state = Arc::new(ServerState {
            obs: Arc::clone(shared.metrics_registry()),
            max_payload: max_payload_for(shared.read().limits()),
            shared: shared.clone(),
            shutdown: AtomicBool::new(false),
            running: Mutex::new(threads),
            stopped_cv: Condvar::new(),
            loops,
            serving: AtomicUsize::new(0),
            max_conns: config.max_conns.max(1),
            io_timeout: config.io_timeout.max(Duration::from_millis(1)),
            max_inflight: config.max_inflight.max(1),
            max_pending_write_bytes: config.max_pending_write_bytes.max(HEADER_LEN + 1),
        });
        let mut handle =
            ServerHandle { local_addr, state: Arc::clone(&state), loops: Vec::new(), shared };
        let mut listener = Some(listener);
        for (index, reactor) in reactors.into_iter().enumerate() {
            let state = Arc::clone(&state);
            let listener = listener.take();
            // Loops run the database work, so they get the headroom a
            // main thread gets instead of the 2 MiB spawn default:
            // parsing and validation keep explicit stacks, but query
            // evaluation still recurses with document depth. Virtual
            // until touched.
            let spawned = std::thread::Builder::new()
                .name(format!("xsserver-loop-{index}"))
                .stack_size(16 << 20)
                .spawn(move || EventLoop::new(state, index, reactor, listener).run());
            // On failure, dropping the handle stops the loops already
            // running.
            handle.loops.push(spawned?);
        }
        Ok(handle)
    }
}

/// A handle a signal handler can use to request shutdown without
/// locks, allocation, or blocking: one atomic store and one raw
/// `write(2)` on the first loop's wakeup fd — both async-signal-safe.
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
    loops: Vec<JoinHandle<()>>,
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
        let wake_fd = self.state.loops[0].waker.signal_fd();
        ShutdownRequester { state: Arc::clone(&self.state), wake_fd }
    }

    /// Block until every event loop has exited — either because
    /// [`ShutdownRequester::request`] ran (e.g. from a signal handler)
    /// or a loop failed fatally. After this returns,
    /// [`ServerHandle::shutdown`] completes without waiting.
    pub fn wait(&self) {
        let mut running = lock(&self.state.running);
        while *running > 0 {
            running = self.state.stopped_cv.wait(running).unwrap_or_else(|p| p.into_inner());
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

    /// Signal shutdown the way a signal handler does and join every
    /// loop.
    fn stop_threads(&mut self) {
        self.shutdown_requester().request();
        for t in self.loops.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.loops.is_empty() {
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
/// reading frames → executing (jobs parked) → writing responses,
/// with all three phases overlapping under pipelining, plus two
/// terminal modes — `close_after_drain` (a framing error was answered;
/// finish the parked jobs, then close) and `closing` (flush what is
/// queued, then close).
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet decoded into frames.
    buf: Vec<u8>,
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
    /// parked job has been answered and flushed.
    close_after_drain: bool,
    /// Counted against `max_conns` (false for Busy rejects).
    admitted: bool,
    /// Decoded requests not yet answered, in arrival order.
    parked: VecDeque<Job>,
    /// The connection is on its loop's runnable queue.
    runnable: bool,
    /// When set, the connection is force-closed at this instant —
    /// mid-frame arrival budget or courtesy-write budget.
    deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, admitted: bool) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            writes: VecDeque::new(),
            pending_write_bytes: 0,
            interest: Interest::NONE,
            paused: false,
            read_eof: false,
            closing: false,
            close_after_drain: false,
            admitted,
            parked: VecDeque::new(),
            runnable: false,
            deadline: None,
        }
    }

    fn over_budget(&self, state: &ServerState) -> bool {
        self.parked.len() >= state.max_inflight
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

/// Decode as many complete frames as the budgets allow, parking each
/// on the connection. A framing error is parked as its in-band answer
/// and flips the connection to `close_after_drain`. Returns how many
/// frames were decoded.
fn parse_frames(conn: &mut Conn, state: &ServerState, refuse_new: bool) -> u64 {
    let mut parsed = 0u64;
    // Whether parsing stopped at an *incomplete* frame (as opposed to
    // a budget pause with complete frames still buffered, or an empty
    // buffer): only that case is slowloris territory.
    let mut stalled_mid_frame = false;
    loop {
        if refuse_new || conn.closing || conn.close_after_drain || conn.over_budget(state) {
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
                parsed += 1;
                let decoded = Instant::now();
                conn.parked.push_back(Job::Request {
                    tag: frame.tag,
                    fields: frame.fields,
                    decoded,
                });
            }
            Err(e) => {
                // Framing is lost (or the declaration is hostile):
                // answer in sequence, refuse further reads, and close
                // once the earlier parked requests are answered.
                state.obs.incr(CounterId::SrvFrameRejections);
                let status = match &e {
                    FrameError::TooLarge { .. } => Status::FrameTooLarge,
                    _ => Status::BadFrame,
                };
                let (header, payload) = encode_tiny(status as u8, &e.to_string());
                conn.parked.push_back(Job::Reply(header, payload));
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
    /// This loop's position in `state.loops`.
    index: usize,
    reactor: Reactor,
    /// The listening socket, owned by the first loop only.
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    /// Mirror of every `Conn::deadline` that is set, so the wait
    /// timeout is computed over deadlined connections only — parked
    /// idle connections cost nothing per tick.
    deadlines: HashMap<u64, Instant>,
    /// Connections whose next parked job may run, in turn order; each
    /// at most once (`Conn::runnable`).
    runnable: VecDeque<u64>,
    next_token: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    fn new(
        state: Arc<ServerState>,
        index: usize,
        reactor: Reactor,
        listener: Option<TcpListener>,
    ) -> EventLoop {
        EventLoop {
            state,
            index,
            reactor,
            listener,
            conns: HashMap::new(),
            deadlines: HashMap::new(),
            runnable: VecDeque::new(),
            next_token: TOKEN_FIRST_CONN,
            draining: false,
            drain_deadline: None,
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.draining && self.conns.is_empty() {
                return;
            }
            events.clear();
            // Runnable jobs are pending: poll, do not block.
            let timeout =
                if self.runnable.is_empty() { self.next_timeout() } else { Some(Duration::ZERO) };
            self.state.obs.incr(CounterId::NetEpollWaits);
            if self.reactor.wait(&mut events, timeout).is_err() {
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
            self.run_pass();
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

    /// Run one parked job of every runnable connection, in turn order:
    /// connections sharing this loop get one request each per pass.
    fn run_pass(&mut self) {
        for _ in 0..self.runnable.len() {
            let Some(token) = self.runnable.pop_front() else { break };
            // A connection closed since it was queued has no entry.
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            conn.runnable = false;
            let (header, payload) = match conn.parked.pop_front() {
                Some(Job::Request { tag, fields, decoded }) => {
                    self.state.obs.observe(HistogramId::SrvQueueWait, decoded.elapsed());
                    execute(&self.state, tag, fields)
                }
                Some(Job::Reply(header, payload)) => (header, payload),
                None => continue,
            };
            enqueue_write(conn, &self.state.obs, header, payload);
            self.settle(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.draining || stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let state = Arc::clone(&self.state);
            if state.serving.load(Ordering::SeqCst) >= state.max_conns {
                // Connection admission: over the cap the peer gets a
                // courtesy Busy frame under a short write budget — the
                // loop never blocks on a peer that won't read it.
                state.obs.incr(CounterId::SrvConnRejected);
                let mut conn = Conn::new(stream, false);
                let (header, payload) =
                    encode_tiny(Status::Busy as u8, "connection limit reached, retry later");
                enqueue_write(&mut conn, &state.obs, header, payload);
                conn.closing = true;
                conn.read_eof = true;
                conn.deadline = Some(Instant::now() + REJECT_WRITE_TIMEOUT);
                self.serve(conn, Interest::WRITE);
                continue;
            }
            let serving = state.serving.fetch_add(1, Ordering::SeqCst) + 1;
            state.obs.incr(CounterId::SrvConnAccepted);
            state.obs.record_max(MaxId::SrvConnHighWater, serving as u64);
            // The loop with the fewest live connections takes it; ties
            // go to the lowest index, so this loop first.
            let target = (0..state.loops.len())
                .min_by_key(|&i| state.loops[i].live.load(Ordering::SeqCst))
                .unwrap_or(self.index);
            let to = &state.loops[target];
            to.live.fetch_add(1, Ordering::SeqCst);
            if target == self.index {
                self.serve(Conn::new(stream, true), Interest::READ);
                continue;
            }
            let handed = match lock(&to.incoming).as_mut() {
                Some(incoming) => {
                    incoming.push(stream);
                    true
                }
                None => false, // that loop has exited: drop the stream
            };
            if handed {
                to.waker.wake();
            } else {
                state.release(target);
            }
        }
    }

    fn waker_ready(&mut self) {
        let state = Arc::clone(&self.state);
        let shared = &state.loops[self.index];
        shared.waker.drain();
        state.obs.incr(CounterId::NetWakeups);
        let handed = lock(&shared.incoming).as_mut().map(std::mem::take).unwrap_or_default();
        for stream in handed {
            if self.draining {
                state.release(self.index);
            } else {
                self.serve(Conn::new(stream, true), Interest::READ);
            }
        }
        if state.shutting_down() && !self.draining {
            self.begin_drain();
        }
    }

    /// Register a new connection with this loop and settle it.
    fn serve(&mut self, mut conn: Conn, interest: Interest) {
        let token = self.next_token;
        self.next_token += 1;
        if self.reactor.register(conn.stream.as_raw_fd(), token, interest).is_err() {
            if conn.admitted {
                self.state.release(self.index);
            }
            return;
        }
        conn.interest = interest;
        self.conns.insert(token, conn);
        self.settle(token);
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
                    parse_frames(conn, &state, refuse_new);
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
    /// backpressure and reactor interest, queue its next job, and sync
    /// the deadline mirror.
    fn settle(&mut self, token: u64) {
        let state = Arc::clone(&self.state);
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if flush_writes(conn, &state.obs).is_err() {
            self.close(token);
            return;
        }
        // Goodbye: once a connection has nothing parked during
        // shutdown (or after answering a framing error), queue the
        // farewell and flip to closing.
        if !conn.closing && (draining || conn.close_after_drain) && conn.parked.is_empty() {
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
        if conn.read_eof && !conn.closing && conn.parked.is_empty() && conn.writes.is_empty() {
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
            if parse_frames(conn, &state, draining) > 0 && conn.over_budget(&state) {
                conn.paused = true;
            }
        }
        // Execution: the next parked job may run once the previous
        // response is queued and the unwritten responses fit the write
        // budget — during shutdown unconditionally, so decoded
        // requests finish.
        if !conn.runnable
            && !conn.parked.is_empty()
            && (draining || conn.pending_write_bytes < state.max_pending_write_bytes)
        {
            conn.runnable = true;
            self.runnable.push_back(token);
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
                self.state.release(self.index);
            }
        }
        self.deadlines.remove(&token);
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + SHUTDOWN_GRACE);
        if let Some(listener) = &self.listener {
            // The acceptor heard the request: stop accepting and pass
            // it on to every other loop.
            let _ = self.reactor.deregister(listener.as_raw_fd());
            for (i, other) in self.state.loops.iter().enumerate() {
                if i != self.index {
                    other.waker.wake();
                }
            }
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                // No new requests: buffered partial frames are
                // abandoned; decoded parked requests still finish.
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

impl Drop for EventLoop {
    /// Runs when the loop exits, also by panic: refuse later hand-offs,
    /// bring the other loops down if this was not a graceful drain, and
    /// count the loop out for [`ServerHandle::wait`].
    fn drop(&mut self) {
        drop(lock(&self.state.loops[self.index].incoming).take());
        if !self.draining {
            self.state.shutdown.store(true, Ordering::SeqCst);
            for other in &self.state.loops {
                other.waker.wake();
            }
        }
        *lock(&self.state.running) -= 1;
        self.state.stopped_cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------

/// A response before framing: its status and its fields.
type Response = (Status, Vec<String>);

/// Execute one well-framed request and encode the response frame.
fn execute(state: &ServerState, tag: u8, fields: Vec<String>) -> ([u8; HEADER_LEN], Vec<u8>) {
    let (status, out_fields) = match Opcode::from_u8(tag) {
        Some(op) => {
            let (counter, histogram) = op_metrics(op);
            let start = state.obs.is_enabled().then(Instant::now);
            // A panic in one request becomes its `ERR_INTERNAL` reply and
            // leaves the loop serving. Reads touch only the state they
            // were handed, and the database's locks ignore poisoning.
            let (Ok(response) | Err(response)) =
                catch_panic(&state.obs, op.name(), || Ok(dispatch(state, op, fields)))
                    .unwrap_or_else(|e| Err(err_response(e)));
            if let Some(start) = start {
                let elapsed = start.elapsed();
                state.obs.observe(histogram, elapsed);
                // The total over all opcodes; the per-opcode histogram
                // already fed the slow-op ring.
                let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
                state.obs.observe_value(HistogramId::SrvRequest, ns);
            }
            state.obs.incr(counter);
            response
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

/// An opcode's request counter and latency histogram.
fn op_metrics(op: Opcode) -> (CounterId, HistogramId) {
    match op {
        Opcode::Ping => (CounterId::SrvOpPing, HistogramId::SrvOpPing),
        Opcode::PutSchema => (CounterId::SrvOpPutSchema, HistogramId::SrvOpPutSchema),
        Opcode::DelSchema => (CounterId::SrvOpDelSchema, HistogramId::SrvOpDelSchema),
        Opcode::PutDoc => (CounterId::SrvOpPutDoc, HistogramId::SrvOpPutDoc),
        Opcode::DelDoc => (CounterId::SrvOpDelDoc, HistogramId::SrvOpDelDoc),
        Opcode::Validate => (CounterId::SrvOpValidate, HistogramId::SrvOpValidate),
        Opcode::Query => (CounterId::SrvOpQuery, HistogramId::SrvOpQuery),
        Opcode::Xquery => (CounterId::SrvOpXquery, HistogramId::SrvOpXquery),
        Opcode::List => (CounterId::SrvOpList, HistogramId::SrvOpList),
        Opcode::Stats => (CounterId::SrvOpStats, HistogramId::SrvOpStats),
        Opcode::Save => (CounterId::SrvOpSave, HistogramId::SrvOpSave),
        Opcode::Update => (CounterId::SrvOpUpdate, HistogramId::SrvOpUpdate),
        Opcode::Explain => (CounterId::SrvOpExplain, HistogramId::SrvOpExplain),
    }
}

/// A request's fields, checked against the opcode's arity.
fn args<const N: usize>(op: Opcode, fields: Vec<String>) -> Result<[String; N], Response> {
    let got = fields.len();
    <[String; N]>::try_from(fields).map_err(|_| {
        (Status::BadFrame, vec![format!("{} expects {N} field(s), got {got}", op.name())])
    })
}

fn err_response(e: DbError) -> Response {
    (Status::of(&e), vec![e.to_string()])
}

/// Commit one mutation through the durable write path and render the
/// outcome as a response.
fn apply_mutation(state: &ServerState, m: Mutation) -> Result<Response, Response> {
    Ok(match state.shared.apply(&m).map_err(err_response)? {
        ApplyOutcome::UpdatedChecked(o) => (
            Status::Ok,
            vec![o.verdict.to_string(), o.nodes.to_string(), o.revalidated.to_string()],
        ),
        _ => (Status::Ok, Vec::new()),
    })
}

/// Execute one opcode against the shared database. The request's
/// fields move into the mutation they describe.
fn dispatch(state: &ServerState, op: Opcode, fields: Vec<String>) -> Result<Response, Response> {
    let db = &state.shared;
    Ok(match op {
        Opcode::Ping => {
            let [] = args(op, fields)?;
            (Status::Ok, vec!["pong".to_string()])
        }
        Opcode::PutSchema => {
            let [name, xsd] = args(op, fields)?;
            apply_mutation(state, Mutation::RegisterSchema { name, xsd })?
        }
        Opcode::DelSchema => {
            let [name] = args(op, fields)?;
            apply_mutation(state, Mutation::RemoveSchema { name })?
        }
        Opcode::PutDoc => {
            let [doc, schema, xml] = args(op, fields)?;
            apply_mutation(state, Mutation::Insert { doc, schema, xml })?
        }
        Opcode::DelDoc => {
            let [doc] = args(op, fields)?;
            apply_mutation(state, Mutation::Delete { doc })?
        }
        Opcode::Update => {
            let [doc, update] = args(op, fields)?;
            apply_mutation(state, Mutation::Update { doc, update })?
        }
        Opcode::Validate => {
            let [schema, xml] = args(op, fields)?;
            let violations = db.read().validate(&schema, &xml).map_err(err_response)?;
            (Status::Ok, violations.iter().map(|v| v.to_string()).collect())
        }
        Opcode::Query => {
            let [doc, path] = args(op, fields)?;
            (Status::Ok, db.read().query(&doc, &path).map_err(err_response)?)
        }
        Opcode::Xquery => {
            let [doc, query] = args(op, fields)?;
            (Status::Ok, vec![db.read().xquery(&doc, &query).map_err(err_response)?])
        }
        Opcode::Explain => {
            let [doc, path] = args(op, fields)?;
            (Status::Ok, vec![db.read().explain_query(&doc, &path).map_err(err_response)?])
        }
        Opcode::List => {
            let [] = args(op, fields)?;
            let db = db.read();
            let mut out: Vec<String> = db.schema_names().map(|n| format!("schema:{n}")).collect();
            out.extend(db.document_names().map(|n| format!("doc:{n}")));
            (Status::Ok, out)
        }
        Opcode::Stats => {
            let [] = args(op, fields)?;
            (Status::Ok, vec![db.metrics().to_json()])
        }
        Opcode::Save => {
            let [] = args(op, fields)?;
            db.checkpoint().map_err(err_response)?;
            (Status::Ok, Vec::new())
        }
    })
}
