//! End-to-end tests of the TCP server over localhost: every opcode,
//! the malformed/oversized-frame rejection matrix, mid-request
//! disconnects, busy rejection, persistence, and byte-for-byte parity
//! with in-process `Database` calls.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use xsdb::{Database, Durability, SharedDatabase};
use xsserver::client::{Client, ClientError};
use xsserver::protocol::{Opcode, Status, WIRE_VERSION};
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

fn start_default() -> (ServerHandle, String) {
    start(ServerConfig::default())
}

fn expect_status(result: Result<impl std::fmt::Debug, ClientError>, want: Status) {
    match result {
        Err(ClientError::Status { status, .. }) => assert_eq!(status, want),
        other => panic!("expected status {want:?}, got {other:?}"),
    }
}

#[test]
fn every_opcode_round_trips() {
    let (handle, addr) = start_default();
    let mut c = Client::connect(&addr).expect("connect");

    c.ping().expect("ping");
    c.put_schema("s", SCHEMA).expect("put_schema");
    assert_eq!(c.validate("s", DOC).expect("validate"), Vec::<String>::new());
    let violations = c.validate("s", "<list><wrong/></list>").expect("validate invalid");
    assert!(!violations.is_empty());

    c.put_doc("d", "s", DOC).expect("put_doc");
    assert_eq!(c.query("d", "/list/item").expect("query"), ["alpha", "beta"]);
    let xq = c.xquery("d", "for $i in /list/item return $i").expect("xquery");
    assert!(xq.contains("alpha") && xq.contains("beta"), "{xq}");
    let plan = c.explain("d", "/list/item").expect("explain");
    assert!(plan.starts_with("plan /list/item @ stats generation "), "{plan}");
    assert!(plan.contains("strategy=") && plan.contains("actual_rows="), "{plan}");

    let nodes = |r: Result<xsserver::client::UpdateReport, ClientError>| r.expect("update").nodes;
    assert_eq!(nodes(c.update("d", "insert node <item>gamma</item> into /list")), 1);
    // <list> declares no attributes: refused, not planted.
    expect_status(
        c.update("d", r#"insert attribute state="new" into /list"#),
        Status::UpdateStaticallyInvalid,
    );
    assert_eq!(nodes(c.update("d", r#"replace value of node /list/item[1] with "ALPHA""#)), 1);
    assert_eq!(c.query("d", "/list/item").expect("query"), ["ALPHA", "beta", "gamma"]);
    assert_eq!(nodes(c.update("d", "delete node /list/item[2]")), 1);
    assert_eq!(c.query("d", "/list/item").expect("query"), ["ALPHA", "gamma"]);

    let listing = c.list().expect("list");
    assert_eq!(listing, ["schema:s", "doc:d"]);

    let stats = c.stats_json().expect("stats");
    assert!(stats.contains("server.requests_total"), "{stats}");

    // SAVE without a persistence directory is a typed refusal.
    expect_status(c.save(), Status::Unsupported);

    // Referential integrity over the wire.
    expect_status(c.del_schema("s"), Status::SchemaInUse);
    c.del_doc("d").expect("del_doc");
    expect_status(c.del_doc("d"), Status::UnknownDocument);
    c.del_schema("s").expect("del_schema");
    expect_status(c.query("d", "/list/item"), Status::UnknownDocument);

    handle.shutdown().expect("shutdown");
}

#[test]
fn guarded_update_opcodes_round_trip() {
    let (handle, addr) = start_default();
    let mut c = Client::connect(&addr).expect("connect");
    c.put_schema("s", SCHEMA).expect("put_schema");
    c.put_doc("d", "s", DOC).expect("put_doc");

    // Textual UPDATE under an accept verdict: applied with zero
    // revalidation — the static check already proved it safe.
    let r = c.update("d", "insert node <item>gamma</item> into /list").expect("update");
    assert_eq!((r.verdict.as_str(), r.nodes, r.revalidated), ("accept", 1, 0));
    assert_eq!(c.query("d", "/list/item").expect("query"), ["alpha", "beta", "gamma"]);

    // Sibling inserts and replacement, through the same opcode.
    let r = c.update("d", "insert node <item>zero</item> before /list/item[1]").expect("before");
    assert_eq!((r.verdict.as_str(), r.nodes), ("accept", 1));
    let r = c.update("d", "insert node <item>delta</item> after /list/item[4]").expect("after");
    assert_eq!((r.verdict.as_str(), r.nodes), ("accept", 1));
    let r = c.update("d", "replace node /list/item[2] with <item>ALPHA</item>").expect("replace");
    assert_eq!((r.verdict.as_str(), r.nodes), ("accept", 1));
    assert_eq!(
        c.query("d", "/list/item").expect("query"),
        ["zero", "ALPHA", "beta", "gamma", "delta"]
    );

    // A statically invalid update has its own wire status and never
    // touches the document.
    expect_status(
        c.update("d", "insert node <rogue/> into /list"),
        Status::UpdateStaticallyInvalid,
    );
    expect_status(
        c.update("d", "replace node /list/item[1] with <rogue/>"),
        Status::UpdateStaticallyInvalid,
    );
    assert_eq!(
        c.query("d", "/list/item").expect("query"),
        ["zero", "ALPHA", "beta", "gamma", "delta"]
    );

    // The per-opcode and analysis counters are published; the retired
    // opcodes' counters stay in the stable export.
    let stats = c.stats_json().expect("stats");
    for key in [
        "server.op.update_total",
        "server.op.update_insert_before_total",
        "server.op.update_insert_after_total",
        "server.op.update_replace_node_total",
        "analysis.update_checks_total",
        "analysis.update_accept_total",
        "analysis.update_reject_total",
    ] {
        assert!(stats.contains(key), "{key} missing from {stats}");
    }

    handle.shutdown().expect("shutdown");
}

/// The server must return exactly what the in-process calls return —
/// same strings, same order, byte for byte.
#[test]
fn results_are_byte_identical_to_in_process_calls() {
    let (handle, addr) = start_default();
    let mut c = Client::connect(&addr).expect("connect");
    let mut db = Database::new();

    db.register_schema_text("s", SCHEMA).unwrap();
    c.put_schema("s", SCHEMA).unwrap();
    db.insert("d", "s", DOC).unwrap();
    c.put_doc("d", "s", DOC).unwrap();

    for xpath in ["/list/item", "/list", "/list/item[2]", "//item"] {
        let local = db.query("d", xpath).unwrap();
        let remote = c.query("d", xpath).unwrap();
        assert_eq!(local, remote, "query {xpath:?} diverged");
        let local_plan = db.explain_query("d", xpath).unwrap();
        let remote_plan = c.explain("d", xpath).unwrap();
        assert_eq!(local_plan, remote_plan, "explain {xpath:?} diverged");
    }
    for q in ["for $i in /list/item return $i", "for $i in /list/item where $i = 'beta' return $i"]
    {
        assert_eq!(db.xquery("d", q).unwrap(), c.xquery("d", q).unwrap(), "xquery {q:?}");
    }
    let local: Vec<String> =
        db.validate("s", "<list><bad/></list>").unwrap().iter().map(|v| v.to_string()).collect();
    let remote = c.validate("s", "<list><bad/></list>").unwrap();
    assert_eq!(local, remote, "validation rendering diverged");

    // Updates produce identical states, observed through queries.
    let update = "insert node <item>new</item> into /list";
    let local = db.execute_update("d", update).unwrap();
    let remote = c.update("d", update).unwrap();
    assert_eq!(
        (local.verdict.to_string(), local.nodes, local.revalidated),
        (remote.verdict, remote.nodes, remote.revalidated)
    );
    assert_eq!(db.query("d", "/list/item").unwrap(), c.query("d", "/list/item").unwrap());

    handle.shutdown().expect("shutdown");
}

/// Satellite 6 regression: a statically-empty query maps to its own
/// status code, distinct from a syntactically bad XPath.
#[test]
fn statically_empty_query_has_its_own_status() {
    let mut db = Database::with_strict_analysis();
    db.register_schema_text("s", SCHEMA).unwrap();
    db.insert("d", "s", DOC).unwrap();
    let handle = Server::start("127.0.0.1:0", ServerConfig::default(), SharedDatabase::new(db))
        .expect("bind");
    let mut c = Client::connect(handle.local_addr().to_string()).expect("connect");

    expect_status(c.query("d", "/list/nonexistent"), Status::QueryStaticallyEmpty);
    expect_status(c.query("d", "/list/item["), Status::XPath);
    assert_ne!(Status::QueryStaticallyEmpty as u8, Status::XPath as u8);
    // And the valid query still works under strict analysis.
    assert_eq!(c.query("d", "/list/item").unwrap(), ["alpha", "beta"]);

    handle.shutdown().expect("shutdown");
}

/// `order by` over keys that mix numerals and other text (`10`, `10a`,
/// `9`, `abc`, …) used to sort by a comparison that is not transitive,
/// and the sort panicked inside the thread running it; with two
/// threads, two such requests left none to answer a `PING`. Keys now
/// sort by one total order — numerals by value, then text by code
/// point — and a request that panics is answered `ERR_INTERNAL` by a
/// loop that lives on.
#[test]
fn mixed_order_keys_sort_and_leave_every_worker_alive() {
    let config = ServerConfig { threads: 2, ..ServerConfig::default() };
    let (handle, addr) = start(config);
    let mut c = Client::connect_timeout(&addr, Some(Duration::from_secs(3))).expect("connect");
    c.put_schema("s", SCHEMA).expect("put_schema");
    let keys = ["10", "10a", "9", "abc", "100", "9a", "1", "zz", "2", "20b"];
    let items: String = (0..40).map(|i| format!("<item>{}</item>", keys[i % keys.len()])).collect();
    c.put_doc("d", "s", &format!("<list>{items}</list>")).expect("put_doc");

    let sorted = ["1", "2", "9", "10", "100", "10a", "20b", "9a", "abc", "zz"];
    let want: String = sorted.iter().map(|k| format!("<item>{k}</item>").repeat(4)).collect();
    let asc = c.xquery("d", "for $i in /list/item order by $i return $i").expect("ascending");
    assert_eq!(asc, want);
    let desc =
        c.xquery("d", "for $i in /list/item order by $i descending return $i").expect("descending");
    let want: String = sorted.iter().rev().map(|k| format!("<item>{k}</item>").repeat(4)).collect();
    assert_eq!(desc, want);
    c.ping().expect("the loop answers after both sorts");

    handle.shutdown().expect("shutdown");
}

/// Every executed request lands in its opcode's histogram and in the
/// `server.request_ns` total, and every one of them waited in its
/// connection's queue first (`server.queue_wait_ns`).
#[test]
fn per_opcode_histograms_split_the_request_total() {
    use xsdb::xsobs::{HistogramId, Registry};
    let obs = std::sync::Arc::new(Registry::new());
    let shared = SharedDatabase::new(Database::with_metrics_registry(obs.clone()));
    let handle = Server::start("127.0.0.1:0", ServerConfig::default(), shared).expect("bind");
    let mut c = Client::connect(handle.local_addr()).expect("connect");
    c.ping().expect("ping");
    c.put_schema("s", SCHEMA).expect("put_schema");
    c.put_doc("d", "s", DOC).expect("put_doc");
    for _ in 0..3 {
        c.query("d", "/list/item").expect("query");
    }
    expect_status(c.query("nope", "/list/item"), Status::UnknownDocument);
    handle.shutdown().expect("shutdown");

    let snap = obs.snapshot();
    let count = |id: HistogramId| snap.histogram(id).count;
    assert_eq!(count(HistogramId::SrvOpPing), 1);
    assert_eq!(count(HistogramId::SrvOpPutSchema), 1);
    assert_eq!(count(HistogramId::SrvOpPutDoc), 1);
    assert_eq!(count(HistogramId::SrvOpQuery), 4, "a refused request is timed too");
    assert_eq!(count(HistogramId::SrvOpUpdate), 0);
    let per_op: u64 = HistogramId::ALL
        .iter()
        .filter(|id| id.name().starts_with("server.op."))
        .map(|&id| count(id))
        .sum();
    assert_eq!(count(HistogramId::SrvRequest), 7);
    assert_eq!(per_op, 7, "the per-opcode histograms must sum to server.request_ns");
    assert_eq!(count(HistogramId::SrvQueueWait), 7);
}

// ---- raw-socket helpers for the rejection matrix ----

fn raw_frame(version: u8, tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![version, tag];
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

fn fields_payload(fields: &[&[u8]]) -> Vec<u8> {
    let mut out = (fields.len() as u32).to_be_bytes().to_vec();
    for f in fields {
        out.extend_from_slice(&(f.len() as u32).to_be_bytes());
        out.extend_from_slice(f);
    }
    out
}

/// Send raw bytes, read one response frame, return its status tag.
fn send_raw(addr: &str, bytes: &[u8]) -> Option<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(bytes).expect("write");
    let mut header = [0u8; 6];
    s.read_exact(&mut header).ok()?;
    assert_eq!(header[0], WIRE_VERSION);
    Some(header[1])
}

#[test]
fn malformed_and_oversized_frames_are_rejected() {
    let (handle, addr) = start_default();

    // Unknown protocol version.
    let frame = raw_frame(99, Opcode::Ping as u8, &fields_payload(&[]));
    assert_eq!(send_raw(&addr, &frame), Some(Status::BadFrame as u8));

    // Oversized declared payload: rejected before any allocation.
    let mut huge = raw_frame(WIRE_VERSION, Opcode::Ping as u8, &[]);
    huge[2..6].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(send_raw(&addr, &huge), Some(Status::FrameTooLarge as u8));

    // Field count says 3, payload holds 1.
    let mut lying = fields_payload(&[b"only"]);
    lying[..4].copy_from_slice(&3u32.to_be_bytes());
    let frame = raw_frame(WIRE_VERSION, Opcode::List as u8, &lying);
    assert_eq!(send_raw(&addr, &frame), Some(Status::BadFrame as u8));

    // Field length overruns the payload.
    let mut overrun = fields_payload(&[b"x"]);
    overrun[4..8].copy_from_slice(&1000u32.to_be_bytes());
    let frame = raw_frame(WIRE_VERSION, Opcode::List as u8, &overrun);
    assert_eq!(send_raw(&addr, &frame), Some(Status::BadFrame as u8));

    // Trailing garbage after the last field.
    let mut trailing = fields_payload(&[b"x"]);
    trailing.extend_from_slice(b"junk");
    let frame = raw_frame(WIRE_VERSION, Opcode::List as u8, &trailing);
    assert_eq!(send_raw(&addr, &frame), Some(Status::BadFrame as u8));

    // A field that is not UTF-8.
    let frame = raw_frame(WIRE_VERSION, Opcode::DelDoc as u8, &fields_payload(&[&[0xff, 0xfe]]));
    assert_eq!(send_raw(&addr, &frame), Some(Status::BadFrame as u8));

    // Unknown opcode in a well-formed frame: typed refusal, and the
    // connection stays usable for the next request.
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(&raw_frame(WIRE_VERSION, 0x7f, &fields_payload(&[]))).unwrap();
    let mut header = [0u8; 6];
    s.read_exact(&mut header).unwrap();
    assert_eq!(header[1], Status::UnknownOpcode as u8);
    let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as usize;
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).unwrap();
    s.write_all(&raw_frame(WIRE_VERSION, Opcode::Ping as u8, &fields_payload(&[]))).unwrap();
    s.read_exact(&mut header).unwrap();
    assert_eq!(header[1], Status::Ok as u8, "connection must survive an unknown opcode");

    // Wrong arity for a known opcode: typed BadFrame response.
    let frame = raw_frame(WIRE_VERSION, Opcode::PutDoc as u8, &fields_payload(&[b"only-one"]));
    assert_eq!(send_raw(&addr, &frame), Some(Status::BadFrame as u8));

    // The server is still healthy after the whole matrix.
    let mut c = Client::connect(&addr).expect("connect");
    c.ping().expect("ping after matrix");
    let stats = c.stats_json().expect("stats");
    assert!(stats.contains("server.frame_rejections_total"), "{stats}");

    handle.shutdown().expect("shutdown");
}

/// The retired node-level update opcodes (`0x09`–`0x0C`, `0x10`–`0x12`)
/// are unassigned bytes: each gets the typed `ERR_UNKNOWN_OPCODE`
/// refusal, and the same connection goes on answering `PING`.
#[test]
fn retired_update_opcodes_are_unknown_and_the_connection_survives() {
    let (handle, addr) = start_default();
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut header = [0u8; 6];
    let mut read_status = |s: &mut TcpStream| {
        s.read_exact(&mut header).unwrap();
        let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as usize;
        s.read_exact(&mut vec![0u8; len]).unwrap();
        header[1]
    };
    for retired in (0x09..=0x0C).chain(0x10..=0x12) {
        let fields: [&[u8]; 2] = [b"d", b"/list/item"];
        s.write_all(&raw_frame(WIRE_VERSION, retired, &fields_payload(&fields))).unwrap();
        assert_eq!(read_status(&mut s), Status::UnknownOpcode as u8, "opcode 0x{retired:02x}");
        s.write_all(&raw_frame(WIRE_VERSION, Opcode::Ping as u8, &fields_payload(&[]))).unwrap();
        assert_eq!(read_status(&mut s), Status::Ok as u8, "PING after 0x{retired:02x}");
    }
    handle.shutdown().expect("shutdown");
}

/// Regression: response field counts are unbounded. A QUERY matching
/// more nodes than `MAX_REQUEST_FIELDS` (and a LIST of a catalog that
/// large) must decode client-side, not die as "too many fields".
#[test]
fn responses_with_more_fields_than_the_request_cap_decode() {
    let (handle, addr) = start_default();
    let mut c = Client::connect(&addr).expect("connect");
    c.put_schema("s", SCHEMA).expect("put_schema");

    let n = xsserver::protocol::MAX_REQUEST_FIELDS as usize + 36;
    let items: String = (0..n).map(|i| format!("<item>v{i}</item>")).collect();
    c.put_doc("big", "s", &format!("<list>{items}</list>")).expect("put_doc");
    let values = c.query("big", "/list/item").expect("query matching >64 nodes");
    assert_eq!(values.len(), n);
    assert_eq!(values[0], "v0");
    assert_eq!(values[n - 1], format!("v{}", n - 1));

    // Same shape through LIST: >64 catalog entries.
    for i in 0..n {
        c.put_doc(&format!("doc-{i:03}"), "s", DOC).expect("put_doc");
    }
    let listing = c.list().expect("list with >64 entries");
    assert_eq!(listing.len(), 1 + 1 + n); // schema:s + doc big + n docs

    // But a *request* flooding the field cap is still rejected.
    let flood = vec!["x"; xsserver::protocol::MAX_REQUEST_FIELDS as usize + 1];
    expect_status(c.request(Opcode::Query, &flood), Status::BadFrame);

    handle.shutdown().expect("shutdown");
}

/// Shutdown sends the documented `SHUTTING_DOWN` status to idle
/// connections instead of a silent EOF.
#[test]
fn shutdown_notifies_idle_connections() {
    let (handle, addr) = start_default();

    // A served, then idle, raw connection (ping proves a loop owns it).
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(&raw_frame(WIRE_VERSION, Opcode::Ping as u8, &fields_payload(&[]))).unwrap();
    let mut header = [0u8; 6];
    s.read_exact(&mut header).unwrap();
    assert_eq!(header[1], Status::Ok as u8);
    let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as usize;
    let mut payload = vec![0u8; len];
    s.read_exact(&mut payload).unwrap();

    handle.shutdown().expect("shutdown");

    // The goodbye frame is already buffered; read without writing.
    s.read_exact(&mut header).expect("shutting-down frame");
    assert_eq!(header[1], Status::ShuttingDown as u8);
}

#[test]
fn mid_request_disconnects_are_harmless() {
    let (handle, addr) = start_default();

    // Half a header.
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.write_all(&[WIRE_VERSION, Opcode::Ping as u8, 0x00]).unwrap();
    drop(s);

    // Full header promising a payload that never arrives.
    let mut s = TcpStream::connect(&addr).expect("connect");
    s.write_all(
        &raw_frame(WIRE_VERSION, Opcode::Query as u8, &fields_payload(&[b"d", b"/x"]))[..9],
    )
    .unwrap();
    drop(s);

    // Connect and say nothing at all.
    let s = TcpStream::connect(&addr).expect("connect");
    drop(s);

    // The server keeps serving.
    let mut c = Client::connect(&addr).expect("connect");
    c.ping().expect("ping after disconnects");
    handle.shutdown().expect("shutdown");
}

#[test]
fn busy_rejection_when_connection_limit_reached() {
    let (handle, addr) = start(ServerConfig { threads: 1, max_conns: 1, ..Default::default() });

    // First connection occupies the single slot.
    let mut holder = Client::connect(&addr).expect("connect");
    holder.ping().expect("ping");

    // The next connection is refused with a polite BUSY frame.
    let mut rejected = Client::connect(&addr).expect("tcp connect itself succeeds");
    expect_status(rejected.ping(), Status::Busy);

    // Releasing the slot lets new connections in.
    drop(holder);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut c = Client::connect(&addr).expect("connect");
        match c.ping() {
            Ok(()) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
    handle.shutdown().expect("shutdown");
}

#[test]
fn concurrent_connections_with_zero_errors() {
    let (handle, addr) = start_default();
    // doc_items > MAX_REQUEST_FIELDS: every QUERY response carries
    // more fields than the request-side cap (the `--doc-items 65`
    // regression).
    let config = xsserver::loadgen::LoadConfig {
        connections: 32,
        requests_per_conn: 25,
        write_percent: 20,
        doc_items: 80,
        ..xsserver::loadgen::LoadConfig::default()
    };
    xsserver::loadgen::setup(&addr, &config).expect("setup");
    let obs = xsobs::Registry::new();
    let summary = xsserver::loadgen::run(&addr, &config, &obs);
    assert_eq!(summary.errors, 0, "{summary:?}");
    assert_eq!(summary.requests, 32 * 25);
    assert!(obs.snapshot().histogram(xsobs::HistogramId::ClientRequest).count >= 32 * 25);

    // Server-side accounting saw all of it.
    let mut c = Client::connect(&addr).expect("connect");
    let stats = c.stats_json().expect("stats");
    assert!(stats.contains("server.op.query_total"), "{stats}");
    handle.shutdown().expect("shutdown");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xsserver-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn save_opcode_and_shutdown_flush_persist_state() {
    let dir = temp_dir("persist");
    let (shared, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).expect("open");
    let handle = Server::start("127.0.0.1:0", ServerConfig::default(), shared).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");
    c.put_schema("s", SCHEMA).unwrap();
    c.put_doc("d", "s", DOC).unwrap();
    c.save().expect("SAVE opcode");
    let mid = Database::load_dir(&dir).expect("load mid-flight save");
    assert_eq!(mid.query("d", "/list/item").unwrap(), ["alpha", "beta"]);

    // More state after the explicit save; the shutdown flush must
    // capture it.
    c.put_doc("d2", "s", "<list><item>late</item></list>").unwrap();
    drop(c);
    handle.shutdown().expect("shutdown");
    let reloaded = Database::load_dir(&dir).expect("load final save");
    assert_eq!(reloaded.query("d2", "/list/item").unwrap(), ["late"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_unblocks_idle_connections() {
    let (handle, addr) = start_default();
    // An idle client is connected but sends nothing.
    let idle = TcpStream::connect(&addr).expect("connect");
    // Shutdown must complete promptly despite the idle connection.
    let started = std::time::Instant::now();
    handle.shutdown().expect("shutdown");
    assert!(started.elapsed() < Duration::from_secs(5), "shutdown blocked on an idle connection");
    drop(idle);
}
