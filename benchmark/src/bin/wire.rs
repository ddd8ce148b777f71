//! The wire driver: everything a client of `xsd-serve` can observe,
//! measured over TCP against a real server child process, tracing off.
//!
//! One run = one workload: set-up (repeated, median reported), a
//! closed loop of two connections in rounds of a fixed op count, three
//! open-loop rungs on one pipelined connection, then the operator
//! phase (`kill -9`, restarts from identical bytes, restart check).
//! Every response is compared with the generator's expected answer.
//!
//! With `--trace 1` the closed loop is exactly two rounds bracketed by
//! `STATS` snapshots, and the per-layer half this driver can see from
//! outside (sources S and C of the README) goes to a hand-over file for
//! the traced replay to complete.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use xsbench::check::{Class, Expect, Op, Tally};
use xsbench::cli::Args;
use xsbench::report::{json_number, Report};
use xsbench::spec;
use xsbench::stats::{iqr_share, median, quantile};
use xsbench::workload::Session;
use xsserver::protocol::{encode_frame, read_frame, NO_FIELD_CAP};
use xsserver::{Client, ClientError, Opcode, Status};

/// Set-ups per measuring run; the median is `setup_s`.
const SETUPS: usize = 3;
/// Restarts from identical bytes; the median is `recovery_s`. A restart
/// is tens of milliseconds on the query workloads and most of a second
/// on the write workloads, so the count is set by time: restarts go on
/// until a quarter of `--seconds` is spent, within these limits.
const MIN_RESTARTS: usize = 5;
const MAX_RESTARTS: usize = 25;
/// Closed-loop rounds: at least this many when measuring, exactly
/// [`TRACE_ROUNDS`] when collecting `STATS` deltas.
const MIN_ROUNDS: usize = 5;
const TRACE_ROUNDS: usize = 2;
/// Responses larger than this are a protocol error.
const MAX_RESPONSE: usize = 256 << 20;

type Res<T> = Result<T, String>;

// ----------------------------------------------------------- the server

/// An `xsd-serve` child. Dropping it kills the process and waits, so no
/// exit path leaves a server behind.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawn on an ephemeral port over `dir` and wait for the startup
    /// line. `xsobs` stays as shipped (enabled); the flush policy is
    /// `fsync` on every run.
    fn spawn(bin: &Path, dir: &Path) -> Res<Server> {
        let log = std::fs::File::create(dir.with_extension("stderr"))
            .map_err(|e| format!("cannot create server log: {e}"))?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--durability", "fsync", "--threads", "2", "--dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("server has no stdout")?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut server = Server { child, addr: String::new() };
        match (read, line.trim().strip_prefix("xsd-serve listening on ")) {
            (Ok(_), Some(addr)) => server.addr = addr.to_string(),
            _ => {
                return Err(format!(
                    "server did not start (said {line:?}); see {}",
                    dir.with_extension("stderr").display()
                ))
            }
        }
        Ok(server)
    }

    fn connect(&self) -> Res<Client> {
        Client::connect(&self.addr).map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// The server's resident-set high-water mark, from procfs.
    fn peak_rss_mb(&self) -> Res<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM in server status")?;
        Ok(kb / 1024.0)
    }

    /// `kill -9`: no shutdown checkpoint, no flush. The OS page cache
    /// survives, so what follows checks the recovery path, not whether
    /// fsync was honest.
    fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

// ------------------------------------------------------------- checking

/// Send one op in lockstep; a non-OK status is an answer, a transport
/// failure ends the run.
fn exchange(client: &mut Client, op: &Op) -> Res<(Status, Vec<String>)> {
    let refs: Vec<&str> = op.fields.iter().map(String::as_str).collect();
    match client.request(op.opcode, &refs) {
        Ok(fields) => Ok((Status::Ok, fields)),
        Err(ClientError::Status { status, message }) => Ok((status, vec![message])),
        Err(e) => Err(format!("{}: {e}", op.describe())),
    }
}

fn expect_ok(client: &mut Client, opcode: Opcode, fields: &[&str]) -> Res<Vec<String>> {
    client.request(opcode, fields).map_err(|e| format!("{}: {e}", opcode.name()))
}

// --------------------------------------------------------------- set-up

struct Running {
    server: Server,
    session: Session,
    clients: Vec<Client>,
    /// Latency of the `SAVE` that checkpoints the freshly preloaded set.
    preload_save_s: f64,
}

/// Generate inputs, spawn the server, register schemas, preload,
/// checkpoint, and warm with one untimed round.
fn set_up(args: &Args, dir: &Path, tally: &mut Tally) -> Res<Running> {
    let mut session = Session::new(args.workload, args.seed, args.scale);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let server = Server::spawn(&args.server, dir)?;
    let mut clients = vec![server.connect()?, server.connect()?];
    for family in &session.schemas {
        expect_ok(&mut clients[0], Opcode::PutSchema, &[family.schema_name(), family.xsd()])?;
    }
    for op in std::mem::take(&mut session.preload) {
        let (status, fields) = exchange(&mut clients[0], &op)?;
        tally.check("wire", &op, status, &fields);
    }
    let t = Instant::now();
    expect_ok(&mut clients[0], Opcode::Save, &[])?;
    let preload_save_s = t.elapsed().as_secs_f64();
    let warm = spec::warm_ops(spec::round_ops(args.workload, args.scale));
    let warm = run_round(&mut clients, &mut session, warm, None)?;
    tally.absorb(warm.tally);
    Ok(Running { server, session, clients, preload_save_s })
}

// ---------------------------------------------------------- closed loop

struct Round {
    wall_s: f64,
    samples: Vec<(Class, f64)>,
    tally: Tally,
}

/// One connection's part of a round, with when it started and ended.
struct Half {
    start_s: f64,
    end_s: f64,
    samples: Vec<(Class, f64)>,
    tally: Tally,
}

/// One closed-loop round: each connection issues its half of `n` ops,
/// one in flight at a time. `flip` corrupts the expected checksum of
/// that op of connection 0 (the self-test's proof that the checker
/// fires).
fn run_round(
    clients: &mut [Client],
    session: &mut Session,
    n: usize,
    flip: Option<usize>,
) -> Res<Round> {
    let per_conn = n / clients.len();
    let mut batches: Vec<Vec<Op>> = session.streams.iter_mut().map(|s| s.round(per_conn)).collect();
    if let Some(i) = flip {
        let op = &mut batches[0][i.min(per_conn - 1)];
        op.expect = Expect::fields(&["flipped by --flip"]);
    }
    let barrier = Barrier::new(clients.len());
    let origin = Instant::now();
    let halves: Vec<Res<Half>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&batches)
            .map(|(client, ops)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(ops.len());
                    let mut tally = Tally::default();
                    barrier.wait();
                    let start_s = origin.elapsed().as_secs_f64();
                    for op in ops {
                        let t = Instant::now();
                        let (status, fields) = exchange(client, op)?;
                        samples.push((op.class, t.elapsed().as_secs_f64() * 1e3));
                        tally.check("wire", op, status, &fields);
                    }
                    Ok(Half { start_s, end_s: origin.elapsed().as_secs_f64(), samples, tally })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a load thread panicked".into())))
            .collect()
    });
    let mut round = Round { wall_s: 0.0, samples: Vec::new(), tally: Tally::default() };
    let (mut first, mut last) = (f64::MAX, 0.0f64);
    for half in halves {
        let half = half?;
        first = first.min(half.start_s);
        last = last.max(half.end_s);
        round.samples.extend(half.samples);
        round.tally.absorb(half.tally);
    }
    round.wall_s = last - first;
    Ok(round)
}

// ------------------------------------------------------------ open loop

/// One open-loop response as the receiver thread saw it.
struct Arrival {
    op: usize,
    at: Instant,
    status: Status,
    fields: Vec<String>,
}

struct Rung {
    /// Latency from the *scheduled* send time, per answered op.
    latencies_ms: Vec<f64>,
    /// Actual minus scheduled send time, per sent op.
    lags_ms: Vec<f64>,
    /// Whether the rung met the limit with no growing backlog.
    ok: bool,
    tally: Tally,
}

/// One open-loop rung: a sender thread on a fixed schedule and a
/// receiver thread on one pipelined connection. The rung is abandoned
/// at 3x its scheduled length; unsent ops count as failed.
fn run_rung(addr: &str, ops: &[Op], rate: f64, limit_ms: f64) -> Res<Rung> {
    let mut frames = Vec::with_capacity(ops.len());
    for op in ops {
        let refs: Vec<&str> = op.fields.iter().map(String::as_str).collect();
        let (header, payload) = encode_frame(op.opcode as u8, &refs).map_err(|e| e.to_string())?;
        let mut frame = header.to_vec();
        frame.extend_from_slice(&payload);
        frames.push(frame);
    }
    let mut writer: TcpStream =
        Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?.into_stream();
    let mut reader = writer.try_clone().map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let scheduled_end = due(ops.len());
    let abandon_at = start + 3 * (scheduled_end - start);
    let (tx, rx) = mpsc::channel::<usize>();

    let (lags_ms, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> Res<Vec<f64>> {
            let mut lags = Vec::with_capacity(frames.len());
            for (i, frame) in frames.iter().enumerate() {
                if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let now = Instant::now();
                if now > abandon_at {
                    break;
                }
                lags.push(now.duration_since(due(i)).as_secs_f64() * 1e3);
                writer.write_all(frame).map_err(|e| format!("open-loop send failed: {e}"))?;
                if tx.send(i).is_err() {
                    break;
                }
            }
            Ok(lags)
        });
        let receiver = scope.spawn(move || -> Res<Vec<Arrival>> {
            let mut got = Vec::new();
            for i in rx {
                let (tag, fields, _) = read_frame(&mut reader, MAX_RESPONSE, NO_FIELD_CAP)
                    .map_err(|e| format!("open-loop receive failed: {e}"))?;
                let status = Status::from_u8(tag).ok_or(format!("unknown status byte {tag}"))?;
                got.push(Arrival { op: i, at: Instant::now(), status, fields });
            }
            Ok(got)
        });
        let lags = sender.join().unwrap_or_else(|_| Err("the sender thread panicked".into()));
        let got = receiver.join().unwrap_or_else(|_| Err("the receiver thread panicked".into()));
        (lags, got)
    });
    let (lags_ms, received) = (lags_ms?, received?);

    let mut rung = Rung { latencies_ms: Vec::new(), lags_ms, ok: true, tally: Tally::default() };
    for Arrival { op: i, at, status, fields } in &received {
        rung.latencies_ms.push(at.duration_since(due(*i)).as_secs_f64() * 1e3);
        rung.tally.check("wire", &ops[*i], *status, fields);
        // An op still outstanding at the scheduled end for longer than
        // the limit is a backlog, whatever the p90 says.
        let waited_at_end = scheduled_end.saturating_duration_since(due(*i)).as_secs_f64() * 1e3;
        if *at > scheduled_end && waited_at_end > limit_ms {
            rung.ok = false;
        }
    }
    for op in &ops[received.len()..] {
        rung.tally.unanswered(op, "never sent, the rung was abandoned");
    }
    rung.ok &= rung.tally.failed == 0 && quantile(&rung.latencies_ms, 0.9) <= limit_ms;
    Ok(rung)
}

// ------------------------------------------------------- STATS deltas

/// `STATS` counters the per-layer metrics are built from.
struct Stats(String);

impl Stats {
    fn fetch(client: &mut Client) -> Res<Stats> {
        client.stats_json().map(Stats).map_err(|e| format!("STATS: {e}"))
    }

    fn counter(&self, name: &str) -> f64 {
        json_number(&self.0, None, name).unwrap_or(0.0)
    }
}

fn delta(before: &Stats, after: &Stats, name: &str) -> f64 {
    after.counter(name) - before.counter(name)
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The S metrics of one round: `STATS` deltas per op, or as shares.
fn stats_row(before: &Stats, after: &Stats, ops: f64, wal_bytes: f64) -> Vec<(&'static str, f64)> {
    let d = |name: &str| delta(before, after, name);
    let steps =
        d("plan.steps_guided_total") + d("plan.steps_dewey_total") + d("plan.steps_postings_total");
    let checks = d("analysis.update_checks_total");
    vec![
        ("xsserver.epoll_waits_per_op", d("net.epoll_waits_total") / ops),
        ("xsserver.bytes_in_per_op", d("server.bytes_in_total") / ops),
        ("xsserver.bytes_out_per_op", d("server.bytes_out_total") / ops),
        ("xsserver.backpressure_stalls", d("net.backpressure_stalls_total")),
        ("xmlparse.bytes_per_op", d("parse.bytes_total") / ops),
        ("xsmodel.automaton_compilations", d("validate.automaton.compilations_total")),
        (
            "xsmodel.cm_cache_hit_ratio",
            share(d("validate.cm_cache.hits_total"), d("validate.cm_cache.lookups_total")),
        ),
        ("storage.wal_bytes_per_op", wal_bytes / ops),
        ("storage.wal_fsyncs_per_op", d("wal.fsyncs_total") / ops),
        ("xquery.steps_guided_share", share(d("plan.steps_guided_total"), steps)),
        ("xquery.steps_dewey_share", share(d("plan.steps_dewey_total"), steps)),
        ("xquery.steps_postings_share", share(d("plan.steps_postings_total"), steps)),
        ("xquery.pruned_share", share(d("plan.pruned_total"), d("plan.queries_total"))),
        ("xsanalyze.accept_share", share(d("analysis.update_accept_total"), checks)),
        ("xsanalyze.recheck_share", share(d("analysis.update_recheck_total"), checks)),
        ("xsanalyze.reject_share", share(d("analysis.update_reject_total"), checks)),
        (
            "xsanalyze.revalidated_nodes_per_update",
            share(d("analysis.update_revalidate_nodes_total"), checks),
        ),
    ]
}

// ------------------------------------------------------------- the run

fn run(args: &Args) -> Res<Report> {
    let frozen = spec::frozen(args.workload);
    let tmp = args.out.join("tmp");
    let dir = tmp.join(format!("{}-{}", args.workload.name(), args.seed));
    let mut tally = Tally::default();

    // Set-up, several times; the last server is the one measured.
    let setups = if args.trace { 1 } else { SETUPS };
    let (mut setup_s, mut preload_save_s) = (Vec::new(), Vec::new());
    let mut running = None;
    for _ in 0..setups {
        drop(running.take());
        let t = Instant::now();
        let r = set_up(args, &dir, &mut tally)?;
        setup_s.push(t.elapsed().as_secs_f64());
        preload_save_s.push(r.preload_save_s);
        running = Some(r);
    }
    let Running { server, mut session, mut clients, .. } = running.ok_or("no set-up ran")?;

    // Closed loop. A SAVE — the operator's checkpoint — separates the
    // rounds; the last round is left in the write-ahead log, so every
    // restart below replays a tail of the same op count.
    let n = spec::round_ops(args.workload, args.scale);
    let budget = Duration::from_secs_f64(args.seconds);
    let began = Instant::now();
    let (mut rounds, mut save_ms, mut s_rows) = (Vec::<Round>::new(), Vec::new(), Vec::new());
    let (mut page_writes, mut bytes_staged) = (Vec::new(), Vec::new());
    let (mut stored_bytes, mut user_bytes) = (dir_bytes(&dir) as f64, session.user_bytes() as f64);
    let wal_dir = dir.join("wal");
    loop {
        let before = if args.trace { Some(Stats::fetch(&mut clients[0])?) } else { None };
        let wal_before = dir_bytes(&wal_dir);
        let flip = args.flip.filter(|_| rounds.is_empty());
        let mut round = run_round(&mut clients, &mut session, n, flip)?;
        tally.absorb(std::mem::take(&mut round.tally));
        rounds.push(round);
        let wal_after = dir_bytes(&wal_dir);
        let mid = if args.trace { Some(Stats::fetch(&mut clients[0])?) } else { None };
        if let (Some(b), Some(a)) = (&before, &mid) {
            s_rows.push(stats_row(b, a, n as f64, wal_after.saturating_sub(wal_before) as f64));
        }
        let enough = if args.trace {
            rounds.len() >= TRACE_ROUNDS
        } else {
            rounds.len() >= MIN_ROUNDS && began.elapsed() >= budget
        };
        if enough {
            break;
        }
        let t = Instant::now();
        expect_ok(&mut clients[0], Opcode::Save, &[])?;
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        (stored_bytes, user_bytes) = (dir_bytes(&dir) as f64, session.user_bytes() as f64);
        if let Some(m) = &mid {
            let after = Stats::fetch(&mut clients[0])?;
            page_writes.push(delta(m, &after, "storage.page_writes_total"));
            bytes_staged.push(delta(m, &after, "persist.bytes_staged_total"));
        }
    }
    eprintln!(
        "  set-up {:.2?} s; closed loop: {} rounds of {n} ops in {:.2} s, end-of-round SAVE {:.1?} ms",
        setup_s,
        rounds.len(),
        began.elapsed().as_secs_f64(),
        save_ms
    );
    for class in Class::ALL {
        let ms: Vec<f64> =
            rounds.iter().flat_map(|r| &r.samples).filter(|s| s.0 == class).map(|s| s.1).collect();
        if !ms.is_empty() {
            eprintln!(
                "    {:<13} {:>6} ops, p50 {:.3} ms, p90 {:.3} ms",
                class.name(),
                ms.len(),
                quantile(&ms, 0.5),
                quantile(&ms, 0.9)
            );
        }
    }

    // Open loop (per-layer runs only: its percentiles do not repeat
    // well enough on a shared 2-core box to carry a bound). Connection
    // 0's stream continues on one pipelined connection, so its
    // documents keep a single deterministic history.
    let mut rungs = Vec::new();
    for (rate, share) in frozen.rates.iter().zip(spec::RUNG_SHARES).filter(|_| args.trace) {
        let count = ((rate * args.seconds * share) as usize).max(10);
        let ops = session.streams[0].round(count);
        let mut rung = run_rung(&server.addr, &ops, *rate, frozen.limit_ms)?;
        tally.absorb(std::mem::take(&mut rung.tally));
        eprintln!(
            "  rung {rate:.0}/s: {} ops, p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms, send lag p90 {:.3} ms, within limit: {}",
            rung.latencies_ms.len(),
            quantile(&rung.latencies_ms, 0.5),
            quantile(&rung.latencies_ms, 0.9),
            quantile(&rung.latencies_ms, 1.0),
            quantile(&rung.lags_ms, 0.9),
            rung.ok
        );
        rungs.push(rung);
    }
    let pre_kill = if args.trace { Some(Stats::fetch(&mut clients[0])?) } else { None };

    // Operator phase: kill -9, then restart from identical bytes.
    let peak_rss_mb = server.peak_rss_mb()?;
    let (list_expect, checks) = session.restart_checks();
    drop(clients);
    server.kill9();
    let (least, most) = if args.trace { (1, 1) } else { (MIN_RESTARTS, MAX_RESTARTS) };
    let restart_budget = Duration::from_secs_f64(args.seconds / 4.0);
    let restarting = Instant::now();
    let mut recovery_s = Vec::new();
    let mut recovered = None;
    for i in 0..most {
        if i >= least && restarting.elapsed() >= restart_budget {
            break;
        }
        let copy = tmp.join(format!("{}-{}-restart{i}", args.workload.name(), args.seed));
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(&dir, &copy).map_err(|e| format!("cannot copy {}: {e}", dir.display()))?;
        let t = Instant::now();
        let restarted = Server::spawn(&args.server, &copy)?;
        let mut client = restarted.connect()?;
        expect_ok(&mut client, Opcode::Ping, &[])?;
        recovery_s.push(t.elapsed().as_secs_f64());
        // Restart check: the catalog and one checksum query per
        // document must equal what was acknowledged before the kill.
        let list = Op::new(Class::Query, Opcode::List, Vec::new(), list_expect.clone());
        for op in std::iter::once(&list).chain(&checks) {
            let (status, fields) = exchange(&mut client, op)?;
            tally.check("wire", op, status, &fields);
        }
        if args.trace {
            recovered = Some(Stats::fetch(&mut client)?);
        }
        drop(client);
        restarted.kill9();
        let _ = std::fs::remove_dir_all(&copy);
        let _ = std::fs::remove_file(copy.with_extension("stderr"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("  recovery {recovery_s:.3?} s");

    // Metrics.
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let all_ms = |r: &Round| r.samples.iter().map(|s| s.1).collect::<Vec<f64>>();
    let ops_per_s = per_round(&|r| r.samples.len() as f64 / r.wall_s);
    let p50 = per_round(&|r| quantile(&all_ms(r), 0.5));
    let p90 = per_round(&|r| quantile(&all_ms(r), 0.9));
    eprintln!("  per round: ops/s {ops_per_s:.0?}, p50 ms {p50:.3?}, p90 ms {p90:.3?}");
    let mut report =
        Report { attempted: tally.attempted, failed: tally.failed, metrics: Vec::new() };
    if !args.trace {
        report.set("setup_s", median(&setup_s));
        report.set_with_spread("ops_per_s", median(&ops_per_s), iqr_share(&ops_per_s));
        report.set_with_spread("p50_ms", median(&p50), iqr_share(&p50));
        report.set_with_spread("p90_ms", median(&p90), iqr_share(&p90));
        report.set("peak_rss_mb", peak_rss_mb);
        report.set("stored_bytes_per_user_byte", stored_bytes / user_bytes);
        report.set("recovery_s", median(&recovery_s));
    } else {
        for (i, (name, _)) in s_rows[0].iter().enumerate() {
            let column: Vec<f64> = s_rows.iter().map(|row| row[i].1).collect();
            report.set(name, median(&column));
        }
        let pre_kill = pre_kill.ok_or("no STATS before the kill")?;
        let recovered = recovered.ok_or("no STATS after the restart")?;
        let depth = json_number(&pre_kill.0, Some("net.pipeline_depth"), "p50").unwrap_or(0.0);
        report.set("xsserver.pipeline_depth_p50", depth);
        report.set(
            "xsserver.lock_wait_high_water_us",
            pre_kill.counter("server.lock_wait_high_water_ns") / 1e3,
        );
        report.set("storage.checkpoint_page_writes", median(&page_writes));
        report.set("storage.checkpoint_bytes_staged", median(&bytes_staged));
        report.set("storage.recovery_page_reads", recovered.counter("storage.page_reads_total"));
        report.set(
            "storage.recovery_replayed_records",
            recovered.counter("wal.replay_records_total"),
        );
        for class in Class::ALL {
            if class == Class::UpdateReject {
                continue;
            }
            let of_class = per_round(&|r| {
                let ms: Vec<f64> = r.samples.iter().filter(|s| s.0 == class).map(|s| s.1).collect();
                quantile(&ms, 0.5)
            });
            report.set(&format!("client.{}_p50_ms", class.name()), median(&of_class));
        }
        let everything: Vec<f64> = rounds.iter().flat_map(all_ms).collect();
        report.set("client.checkpoint_ms", median(&preload_save_s) * 1e3);
        report.set("client.save_p50_ms", median(&save_ms));
        report.set("client.p99_ms", quantile(&everything, 0.99));
        report.set("client.samples", everything.len() as f64);
        report.set("client.open_lo_p90_ms", quantile(&rungs[0].latencies_ms, 0.9));
        report.set("client.open_mid_p50_ms", quantile(&rungs[1].latencies_ms, 0.5));
        report.set("client.open_mid_p90_ms", quantile(&rungs[1].latencies_ms, 0.9));
        report.set("client.open_hi_p90_ms", quantile(&rungs[2].latencies_ms, 0.9));
        let best = frozen.rates.iter().zip(&rungs).filter(|(_, r)| r.ok).map(|(rate, _)| *rate);
        report.set("client.max_rate_ok_rps", best.fold(0.0, f64::max));
        report.set("client.failed_share", share(tally.failed as f64, tally.attempted as f64));
        report.set("bench.gen_lag_p90_ms", quantile(&rungs[1].lags_ms, 0.9));
        report.set("bench.round_spread", iqr_share(&ops_per_s));
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        report.set("bench.nproc", nproc as f64);
    }
    tally.report();
    Ok(report)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xsbench-wire: {e}");
            return ExitCode::from(64);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xsbench-wire: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} | closed loop: 2 connections, one request in flight each{} | flush policy fsync (sandbox latency, not a device's) | kill -9 keeps the OS cache: the restart check covers recovery, not fsync honesty",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { " | open loop: 1 pipelined connection, 3 rungs" } else { "" }
    );
    let name = args.workload.name();
    if args.trace {
        // The traced replay completes the per-layer set and prints the result line.
        if let Err(e) = report.save(&args.out.join(format!("wire_layer_{name}.tsv"))) {
            eprintln!("xsbench-wire: cannot write the hand-over file: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        print!("{}", report.listing());
        let line = report.json_line();
        if let Err(e) =
            std::fs::write(args.out.join(format!("result_{name}.json")), format!("{line}\n"))
        {
            eprintln!("xsbench-wire: cannot write the result file: {e}");
            return ExitCode::FAILURE;
        }
        println!("{line}");
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xsbench-wire: {} of {} ops failed or were answered wrongly",
            report.failed, report.attempted
        );
        ExitCode::from(2)
    }
}
