//! Hostile-client torture tests for the event-driven server: slowloris
//! trickles, half-open sockets, deep pipelines from clients that stop
//! reading, mid-pipeline disconnects, pipelined-vs-lockstep parity for
//! every opcode, prompt wakeup-fd shutdown — in-process and via a
//! real SIGTERM to the `xsd-serve` binary — and isolation between event
//! loops while one request is held in its WAL fsync.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use xsdb::vfs::{StdVfs, Vfs};
use xsdb::{Database, Durability, SharedDatabase};
use xsserver::client::Client;
use xsserver::protocol::{encode_frame, write_frame, Opcode, Status, HEADER_LEN, WIRE_VERSION};
use xsserver::server::{Server, ServerConfig, ServerHandle};

const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="list">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const DOC: &str = "<list><item>alpha</item><item>beta</item></list>";

fn start(config: ServerConfig) -> (ServerHandle, String) {
    let shared = SharedDatabase::new(Database::new());
    let handle = Server::start("127.0.0.1:0", config, shared).expect("bind");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

fn items_doc(items: usize) -> String {
    let mut xml = String::from("<list>");
    for i in 0..items {
        xml.push_str("<item>payload-");
        xml.push_str(&i.to_string());
        xml.push_str("</item>");
    }
    xml.push_str("</list>");
    xml
}

/// Read one whole response frame — raw bytes, header included.
fn read_raw_frame(s: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    s.read_exact(&mut header)?;
    assert_eq!(header[0], WIRE_VERSION);
    let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as usize;
    let mut frame = header.to_vec();
    frame.resize(HEADER_LEN + len, 0);
    s.read_exact(&mut frame[HEADER_LEN..])?;
    Ok(frame)
}

/// A slowloris client trickles a request one byte at a time. The
/// mid-frame arrival budget is anchored at the first byte of the
/// partial frame and is NOT refreshed by further bytes, so the trickle
/// cannot hold its connection slot forever: the server hangs up once
/// the budget lapses, and keeps serving everyone else meanwhile.
#[test]
fn slowloris_trickle_is_disconnected() {
    let (handle, addr) =
        start(ServerConfig { io_timeout: Duration::from_millis(300), ..Default::default() });

    let mut slow = TcpStream::connect(&addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (header, payload) = encode_frame(Opcode::Ping as u8, &[]).unwrap();
    let mut frame = header.to_vec();
    frame.extend_from_slice(&payload);

    // One byte every 100ms: each write refreshes nothing — the clock
    // started at byte 0.
    let started = Instant::now();
    let mut reaped = false;
    for byte in &frame {
        if slow.write_all(std::slice::from_ref(byte)).is_err() {
            reaped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
        // A healthy client gets service while the trickle drips.
        let mut ok = Client::connect(&addr).expect("connect");
        ok.ping().expect("healthy client during slowloris");
    }
    if !reaped {
        // The frame never completed within the budget; the server
        // must have hung up — the pending read observes it.
        let mut buf = [0u8; 1];
        reaped = matches!(slow.read(&mut buf), Ok(0) | Err(_));
    }
    assert!(reaped, "slowloris connection survived the mid-frame budget");
    assert!(started.elapsed() < Duration::from_secs(8), "reap took implausibly long");

    handle.shutdown().expect("shutdown");
}

/// The mid-frame budget must not touch *idle* connections: a client
/// holding an open connection with no partial frame outstanding can
/// sit past the budget indefinitely and still be served, while a
/// half-open peer that died mid-frame is reaped.
#[test]
fn idle_connections_outlive_the_budget_but_half_open_frames_do_not() {
    let (handle, addr) =
        start(ServerConfig { io_timeout: Duration::from_millis(200), ..Default::default() });

    // Half-open simulation: a partial header, then silence (the peer
    // "died" without FIN — we just never send the rest).
    let mut half_open = TcpStream::connect(&addr).expect("connect");
    half_open.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    half_open.write_all(&[WIRE_VERSION, Opcode::Ping as u8, 0x00]).unwrap();

    // Fully idle: connected, zero bytes sent.
    let mut idle = Client::connect(&addr).expect("connect");
    idle.ping().expect("first ping");

    // Sleep several budgets.
    std::thread::sleep(Duration::from_millis(700));

    // The half-open connection was reaped...
    let mut buf = [0u8; 1];
    assert!(
        matches!(half_open.read(&mut buf), Ok(0) | Err(_)),
        "half-open mid-frame connection survived the budget"
    );
    // ...the idle one was not: it still gets answers.
    idle.ping().expect("idle connection must survive the mid-frame budget");

    handle.shutdown().expect("shutdown");
}

/// A client pipelines 64 requests and stops reading. The per-connection
/// budgets must bound server-side memory: buffered responses never
/// exceed `max_pending_write_bytes` plus one frame, the backpressure
/// stall is visible in `net.backpressure_stalls_total`, and once the
/// client starts reading again every response arrives, in request
/// order, none lost.
#[test]
fn pipeline_deep_then_stop_reading_keeps_memory_bounded() {
    let items = 20_000;
    let budget = 64 * 1024;
    let (handle, addr) = start(ServerConfig {
        max_inflight: 4,
        max_pending_write_bytes: budget,
        ..Default::default()
    });
    let mut setup = Client::connect(&addr).expect("connect");
    setup.put_schema("s", SCHEMA).expect("put_schema");
    setup.put_doc("big", "s", &items_doc(items)).expect("put_doc");

    // One response frame: payload = field count + per-field length
    // prefixes + the item values themselves.
    let frame_bytes: usize = HEADER_LEN
        + 4
        + (0..items).map(|i| 4 + "payload-".len() + i.to_string().len()).sum::<usize>();

    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let depth = 64;
    let mut burst = Vec::new();
    for _ in 0..depth {
        let (header, payload) = encode_frame(Opcode::Query as u8, &["big", "/list/item"]).unwrap();
        burst.extend_from_slice(&header);
        burst.extend_from_slice(&payload);
    }
    s.write_all(&burst).expect("pipelined burst");

    // Stop reading: let the server produce responses into a client
    // that consumes nothing. Kernel socket buffers fill, then the
    // pending-write budget must cap what the server holds in memory.
    std::thread::sleep(Duration::from_millis(800));
    let snap = handle.shared().metrics_registry().snapshot();
    assert!(
        snap.counter(xsobs::CounterId::NetBackpressureStalls) > 0,
        "no backpressure stall recorded while the client refused to read"
    );
    let high_water = snap.max(xsobs::MaxId::NetPendingWriteBytesHighWater) as usize;
    assert!(
        high_water <= budget + frame_bytes,
        "pending writes exceeded the budget: {high_water} > {budget} + {frame_bytes}"
    );
    // Pipelining depth >1 was actually observed at the parser.
    assert!(
        snap.histogram(xsobs::HistogramId::NetPipelineDepth).max > 1,
        "pipeline depth histogram never saw a burst"
    );

    // Resume reading: all 64 responses arrive, in order, complete.
    for i in 0..depth {
        let frame = read_raw_frame(&mut s).unwrap_or_else(|e| panic!("response {i}: {e}"));
        assert_eq!(frame[1], Status::Ok as u8, "response {i} not OK");
        assert_eq!(frame.len(), frame_bytes, "response {i} truncated");
    }

    handle.shutdown().expect("shutdown");
}

/// Clients that vanish mid-pipeline — after the server has parsed and
/// queued their requests — must not wedge, leak, or kill the server.
#[test]
fn mid_pipeline_disconnects_are_harmless() {
    let (handle, addr) = start(ServerConfig::default());
    let mut setup = Client::connect(&addr).expect("connect");
    setup.put_schema("s", SCHEMA).expect("put_schema");
    setup.put_doc("d", "s", DOC).expect("put_doc");

    for round in 0..3 {
        let mut s = TcpStream::connect(&addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut burst = Vec::new();
        for _ in 0..32 {
            let (header, payload) =
                encode_frame(Opcode::Query as u8, &["d", "/list/item"]).unwrap();
            burst.extend_from_slice(&header);
            burst.extend_from_slice(&payload);
        }
        s.write_all(&burst).expect("burst");
        // Read a couple of responses, then vanish with 30 in flight.
        for _ in 0..2 {
            let frame = read_raw_frame(&mut s).expect("early response");
            assert_eq!(frame[1], Status::Ok as u8, "round {round}");
        }
        drop(s);
    }

    // The server keeps serving; late completions for the dead
    // connections were dropped without crashing the loop.
    let mut c = Client::connect(&addr).expect("connect");
    c.ping().expect("ping after mid-pipeline disconnects");
    assert_eq!(c.query("d", "/list/item").expect("query"), ["alpha", "beta"]);

    handle.shutdown().expect("shutdown");
}

/// Every request frame the opcode sequence below produces, sent once in
/// lockstep and once as a single pipelined burst against two fresh
/// servers, must yield byte-identical response frames in the same
/// order. (STATS is compared by status only: its payload is a metrics
/// snapshot and legitimately differs between runs.)
#[test]
fn pipelined_responses_are_byte_identical_to_lockstep() {
    let xq = "for $i in /list/item return $i";
    let sequence: Vec<(Opcode, Vec<&str>)> = vec![
        (Opcode::Ping, vec![]),
        (Opcode::PutSchema, vec!["s", SCHEMA]),
        (Opcode::Validate, vec!["s", DOC]),
        (Opcode::Validate, vec!["s", "<list><wrong/></list>"]),
        (Opcode::PutDoc, vec!["d", "s", DOC]),
        (Opcode::Query, vec!["d", "/list/item"]),
        (Opcode::Xquery, vec!["d", xq]),
        (Opcode::Explain, vec!["d", "/list/item"]),
        (Opcode::Update, vec!["d", "insert node <item>gamma</item> into /list"]),
        (Opcode::Update, vec!["d", r#"insert attribute state="new" into /list"#]),
        (Opcode::Update, vec!["d", r#"replace value of node /list/item[1] with "ALPHA""#]),
        (Opcode::Update, vec!["d", "delete node /list/item[2]"]),
        (Opcode::Update, vec!["d", "insert node <item>zeta</item> into /list"]),
        (Opcode::Update, vec!["d", "insert node <item>zero</item> before /list/item[1]"]),
        (Opcode::Update, vec!["d", "insert node <item>half</item> after /list/item[1]"]),
        (Opcode::Update, vec!["d", "replace node /list/item[2] with <item>HALF</item>"]),
        (Opcode::Query, vec!["d", "/list/item"]),
        (Opcode::List, vec![]),
        (Opcode::Stats, vec![]),
        (Opcode::Save, vec![]),
        (Opcode::DelDoc, vec!["d"]),
        (Opcode::DelSchema, vec!["s"]),
        (Opcode::Query, vec!["d", "/list/item"]),
    ];
    // The sequence covers the full opcode surface.
    let mut covered: Vec<u8> = sequence.iter().map(|(op, _)| *op as u8).collect();
    covered.sort_unstable();
    covered.dedup();
    assert_eq!(covered.len(), Opcode::ALL.len(), "sequence must touch every opcode");

    // Lockstep on a fresh server.
    let (handle_a, addr_a) = start(ServerConfig::default());
    let mut a = TcpStream::connect(&addr_a).expect("connect");
    a.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut lockstep = Vec::with_capacity(sequence.len());
    for (op, fields) in &sequence {
        write_frame(&mut a, *op as u8, fields).expect("write");
        lockstep.push(read_raw_frame(&mut a).expect("read"));
    }
    handle_a.shutdown().expect("shutdown a");

    // One pipelined burst on another fresh server.
    let (handle_b, addr_b) = start(ServerConfig::default());
    let mut b = TcpStream::connect(&addr_b).expect("connect");
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut burst = Vec::new();
    for (op, fields) in &sequence {
        let (header, payload) = encode_frame(*op as u8, fields).unwrap();
        burst.extend_from_slice(&header);
        burst.extend_from_slice(&payload);
    }
    b.write_all(&burst).expect("burst");
    let mut pipelined = Vec::with_capacity(sequence.len());
    for _ in &sequence {
        pipelined.push(read_raw_frame(&mut b).expect("read"));
    }
    handle_b.shutdown().expect("shutdown b");

    for (i, ((op, fields), (lock, pipe))) in
        sequence.iter().zip(lockstep.iter().zip(pipelined.iter())).enumerate()
    {
        if *op == Opcode::Stats {
            assert_eq!(lock[1], pipe[1], "request {i} ({op:?}): status diverged");
            continue;
        }
        assert_eq!(
            lock, pipe,
            "request {i} ({op:?} {fields:?}): pipelined response diverged from lockstep"
        );
    }
}

/// The wakeup-fd shutdown path, measured in-process: with 32 idle
/// connections parked in the reactor, a shutdown request — the exact
/// async-signal-safe call the SIGTERM handler makes — must complete
/// well under the old accept-loop's 50ms polling tick, proving the
/// loop woke from `epoll_wait` instead of noticing a flag on its next
/// tick.
#[test]
fn shutdown_request_completes_well_under_the_old_polling_tick() {
    let (handle, addr) = start(ServerConfig::default());
    let mut idle = Vec::new();
    for _ in 0..32 {
        let mut c = Client::connect(&addr).expect("connect");
        c.ping().expect("ping");
        idle.push(c);
    }

    let requester = handle.shutdown_requester();
    let started = Instant::now();
    requester.request();
    handle.wait();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(50),
        "shutdown took {elapsed:?}; the old polling loop's tick was 50ms — \
         the wakeup fd must beat it"
    );
    handle.shutdown().expect("shutdown");
    drop(idle);
}

/// End-to-end satellite regression: a real SIGTERM to the `xsd-serve`
/// binary travels handler → wakeup fd → event loop → goodbye frames →
/// final checkpoint → clean exit, promptly, with an idle connection
/// parked the whole time.
#[test]
#[cfg(unix)]
fn sigterm_to_the_binary_shuts_down_promptly() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let dir = std::env::temp_dir().join(format!("xsd-serve-sigterm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");

    let mut child = Command::new(env!("CARGO_BIN_EXE_xsd-serve"))
        .args(["--addr", "127.0.0.1:0", "--dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn xsd-serve");
    let stdout = child.stdout.take().expect("stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("startup line").expect("read banner");
    let addr = banner.strip_prefix("xsd-serve listening on ").expect("banner format").to_string();

    // Prove the server works, then leave the connection idle.
    let mut c = Client::connect(&addr).expect("connect");
    c.put_schema("s", SCHEMA).expect("put_schema");
    c.put_doc("d", "s", DOC).expect("put_doc");

    let fired = Instant::now();
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0, "kill failed");

    // The idle connection hears a goodbye frame, not a silent EOF.
    let mut raw = c.into_stream();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let frame = read_raw_frame(&mut raw).expect("goodbye frame");
    assert_eq!(frame[1], Status::ShuttingDown as u8);

    // The process exits promptly (the bound covers the checkpoint; the
    // signal-to-loop hop itself is one epoll_wait).
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "xsd-serve ignored SIGTERM for 5s");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(status.success(), "exit status {status:?}");
    assert!(
        fired.elapsed() < Duration::from_secs(5),
        "shutdown after SIGTERM took {:?}",
        fired.elapsed()
    );

    // The final checkpoint committed: CURRENT exists and the state
    // reloads with the pre-shutdown document.
    assert!(dir.join("CURRENT").exists(), "no CURRENT pointer after SIGTERM checkpoint");
    let reloaded = Database::load_dir(&dir).expect("reload");
    assert_eq!(reloaded.query("d", "/list/item").expect("query"), ["alpha", "beta"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipelined requests on one connection execute with sequential
/// semantics: a burst whose later requests depend on earlier ones
/// (PUT_SCHEMA → PUT_DOC → UPDATE → QUERY) observes every prior
/// effect, even though unrelated connections run concurrently.
#[test]
fn pipelined_requests_have_sequential_semantics() {
    let (handle, addr) = start(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    let results = c
        .pipeline(&[
            (Opcode::PutSchema, vec!["s".into(), SCHEMA.into()]),
            (Opcode::PutDoc, vec!["d".into(), "s".into(), DOC.into()]),
            (Opcode::Update, vec!["d".into(), "insert node <item>gamma</item> into /list".into()]),
            (Opcode::Query, vec!["d".into(), "/list/item".into()]),
        ])
        .expect("pipeline");
    assert_eq!(results.len(), 4);
    for (i, r) in results[..3].iter().enumerate() {
        assert!(r.is_ok(), "request {i}: {r:?}");
    }
    let values = results[3].as_ref().expect("query result");
    assert_eq!(values, &["alpha", "beta", "gamma"]);
    handle.shutdown().expect("shutdown");
}

/// The real filesystem, except that a file sync blocks while the latch
/// is armed: a durable commit can be held inside its WAL fsync.
#[derive(Debug, Default)]
struct LatchVfs {
    inner: StdVfs,
    /// (armed, a sync is blocked on the latch)
    latch: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl LatchVfs {
    fn arm(&self) {
        self.latch.lock().unwrap().0 = true;
    }

    /// Wait until a sync is blocked on the armed latch.
    fn wait_held(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut latch = self.latch.lock().unwrap();
        while !latch.1 {
            assert!(Instant::now() < deadline, "no commit reached the fsync latch");
            latch = self.changed.wait_timeout(latch, Duration::from_millis(50)).unwrap().0;
        }
    }

    fn release(&self) {
        self.latch.lock().unwrap().0 = false;
        self.changed.notify_all();
    }
}

impl Vfs for LatchVfs {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.inner.write(path, data)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_file(path)
    }
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        self.inner.sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> std::io::Result<()> {
        self.inner.write_at(path, offset, data)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        self.inner.read_at(path, offset, len)
    }
    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        self.inner.file_len(path)
    }
    fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.inner.append(path, data)
    }
    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        let mut latch = self.latch.lock().unwrap();
        if latch.0 {
            latch.1 = true;
            self.changed.notify_all();
            while latch.0 {
                latch = self.changed.wait(latch).unwrap();
            }
            latch.1 = false;
        }
        drop(latch);
        self.inner.sync_file(path)
    }
}

/// Hold a `PUT_DOC` in its WAL fsync on one connection and send a
/// `QUERY` on a second. Returns whether the query was answered while
/// the write was still held. Afterwards both are answered, in order,
/// and the write survives a reopen.
fn query_answered_during_held_fsync(threads: usize) -> bool {
    let dir =
        std::env::temp_dir().join(format!("xsserver-held-fsync-{}-{threads}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = Arc::new(LatchVfs::default());
    let (shared, _) =
        SharedDatabase::open_durable_vfs(&dir, Durability::Fsync, vfs.clone()).expect("open");
    let handle =
        Server::start("127.0.0.1:0", ServerConfig { threads, ..Default::default() }, shared)
            .expect("bind");
    let addr = handle.local_addr().to_string();
    // Stays open, so with two loops the writer lands on the second loop
    // and the reader on the first.
    let mut setup = Client::connect(&addr).expect("connect");
    setup.put_schema("s", SCHEMA).expect("put_schema");
    setup.put_doc("d", "s", DOC).expect("put_doc");

    vfs.arm();
    let writer = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.put_doc("held", "s", DOC)
        })
    };
    vfs.wait_held();

    let mut reader = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut reader, Opcode::Query as u8, &["d", "/list/item"]).expect("query");
    let wait = if threads > 1 { Duration::from_secs(5) } else { Duration::from_millis(300) };
    reader.set_read_timeout(Some(wait)).unwrap();
    let early = read_raw_frame(&mut reader).ok();
    let answered = early.is_some();

    vfs.release();
    writer.join().expect("writer thread").expect("held put_doc is acknowledged");
    let frame = match early {
        Some(frame) => frame,
        None => {
            reader.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            read_raw_frame(&mut reader).expect("query answered after the release")
        }
    };
    assert_eq!(frame[1], Status::Ok as u8);
    assert_eq!(setup.query("held", "/list/item").expect("query"), ["alpha", "beta"]);
    handle.shutdown().expect("shutdown");

    let (reopened, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).expect("reopen");
    assert_eq!(reopened.read().query("held", "/list/item").expect("query"), ["alpha", "beta"]);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    answered
}

/// Each event loop runs its own connections' requests: a write held in
/// its fsync on one loop does not delay a read on another.
#[test]
fn a_write_held_in_fsync_does_not_delay_another_loop() {
    assert!(
        query_answered_during_held_fsync(2),
        "a QUERY on a second loop waited for a PUT_DOC held in its fsync"
    );
}

/// The other side of the trade: connections that share a loop wait for
/// each other, so with one loop the read waits for the held write.
#[test]
fn connections_sharing_a_loop_wait_for_each_other() {
    assert!(
        !query_answered_during_held_fsync(1),
        "a QUERY on the only loop was answered while a PUT_DOC on it was held in its fsync"
    );
}

/// Connections that share a loop take turns: a `PING` sent while another
/// connection on the same loop has a deep pipeline of slow queries parked
/// waits for about one of them, not for all of them.
#[test]
fn connections_sharing_a_loop_take_turns() {
    let (handle, addr) = start(ServerConfig { threads: 1, ..Default::default() });
    let mut setup = Client::connect(&addr).expect("connect");
    setup.put_schema("s", SCHEMA).expect("put_schema");
    setup.put_doc("big", "s", &items_doc(20_000)).expect("put_doc");
    // A value predicate over every item: slow to run, one short answer.
    let slow = ["big", "/list/item[. = \"payload-19999\"]"];
    let depth = 32;
    let mut burst = Vec::new();
    for _ in 0..depth {
        let (header, payload) = encode_frame(Opcode::Query as u8, &slow).unwrap();
        burst.extend_from_slice(&header);
        burst.extend_from_slice(&payload);
    }
    let mut a = TcpStream::connect(&addr).expect("connect");
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let started = Instant::now();
    a.write_all(&burst).expect("burst");
    // The first answer proves the burst is parked and running.
    assert_eq!(read_raw_frame(&mut a).expect("first answer")[1], Status::Ok as u8);

    let mut b = Client::connect(&addr).expect("connect");
    let asked = Instant::now();
    b.ping().expect("ping");
    let ping = asked.elapsed();
    for i in 1..depth {
        let frame = read_raw_frame(&mut a).unwrap_or_else(|e| panic!("answer {i}: {e}"));
        assert_eq!(frame[1], Status::Ok as u8, "answer {i}");
    }
    let whole = started.elapsed();
    assert!(
        ping * 4 < whole,
        "the PING took {ping:?}, the 32-query burst it shared the loop with {whole:?}: \
         it waited for the burst instead of taking its turn"
    );
    handle.shutdown().expect("shutdown");
}
