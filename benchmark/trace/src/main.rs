//! The traced replay: round 1 of a workload, in process, with a span
//! around every call into a layer crate (all in `adapters.rs`).
//!
//! Three instances see the same ops, op by op, so that all three share
//! the sandbox's fsync weather: the replay with spans on (per-layer
//! self times), the replay with spans off (the recorder's overhead),
//! and the real `SharedDatabase` (untraced whole calls — the ceiling
//! on what any layer saving can buy, and the denominator of
//! `core.unattributed_share`). Every answer of all three is checked
//! against the generator's expectation.
//!
//! The wire driver's per-layer half arrives in a hand-over file; this
//! program adds its own and prints the run's result line.

mod adapters;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use adapters::{Replay, Span};
use xsbench::check::{Class, Op, Tally};
use xsbench::cli::Args;
use xsbench::report::Report;
use xsbench::spec;
use xsbench::stats::median;
use xsbench::workload::{Session, Workload};
use xsserver::Opcode;

type Res<T> = Result<T, String>;

/// Two connections' batches in the order a fair server would see them.
fn interleave(mut batches: Vec<Vec<Op>>) -> Vec<Op> {
    let mut out = Vec::new();
    let mut iters: Vec<_> = batches.drain(..).map(Vec::into_iter).collect();
    loop {
        let before = out.len();
        for it in &mut iters {
            out.extend(it.next());
        }
        if out.len() == before {
            return out;
        }
    }
}

/// The opcodes the workloads issue, each with a `core.*_us` whole call.
const WHOLE_CALLS: [Opcode; 6] = [
    Opcode::PutDoc,
    Opcode::Validate,
    Opcode::DelDoc,
    Opcode::Query,
    Opcode::Xquery,
    Opcode::Update,
];

fn core_metric(opcode: Opcode) -> &'static str {
    match opcode {
        Opcode::PutDoc => "core.insert_us",
        Opcode::Validate => "core.validate_us",
        Opcode::DelDoc => "core.delete_us",
        Opcode::Query => "core.query_us",
        Opcode::Xquery => "core.xquery_us",
        _ => "core.update_us",
    }
}

fn write_trace(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.id,
            s.name,
            s.request,
            s.start_ns,
            s.end_ns,
            s.self_ns
        )?;
    }
    w.flush()
}

fn run(args: &Args) -> Res<Report> {
    let name = args.workload.name();
    let mut report = Report::load(&args.out.join(format!("wire_layer_{name}.tsv")))
        .map_err(|e| format!("cannot read the wire driver's hand-over file: {e}"))?;
    let base = args.out.join("tmp").join(format!("trace-{name}-{}", args.seed));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).map_err(|e| format!("cannot create {}: {e}", base.display()))?;

    let mut session = Session::new(args.workload, args.seed, args.scale);
    let mut traced = Replay::new(&base.join("traced"), true)?;
    let mut plain = Replay::new(&base.join("plain"), false)?;
    let shared = adapters::open_shared(&base.join("shared"), &session.schemas)?;
    for &family in &session.schemas {
        traced.put_schema(family)?;
        plain.put_schema(family)?;
    }

    // Set-up as the wire driver does it: preload, then the warm round.
    let mut tally = Tally::default();
    let n = spec::round_ops(args.workload, args.scale);
    let mut setup = std::mem::take(&mut session.preload);
    let warm = spec::warm_ops(n) / 2;
    setup.extend(interleave(session.streams.iter_mut().map(|s| s.round(warm)).collect()));
    for op in &setup {
        let (status, fields) = traced.request(op);
        tally.check("traced replay", op, status, &fields);
        let (status, fields) = plain.request(op);
        tally.check("plain replay", op, status, &fields);
        let (status, fields) = adapters::whole_call(&shared, op);
        tally.check("SharedDatabase", op, status, &fields);
    }

    // Round 1, measured. Spans from here on feed the metrics.
    let first_span = traced.tracer.len();
    let round = interleave(session.streams.iter_mut().map(|s| s.round(n / 2)).collect());
    let (mut traced_ns, mut plain_ns, mut whole_ns) = (0u64, 0u64, 0u64);
    let (sync_traced, sync_plain) = (traced.sync_ns, plain.sync_ns);
    let mut whole_by_opcode: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, op) in round.iter().enumerate() {
        // Whichever replay goes second finds the code path warm, so the
        // two take turns going first.
        for traced_turn in [i % 2 == 0, i % 2 != 0] {
            let (who, replay, total) = if traced_turn {
                ("traced replay", &mut traced, &mut traced_ns)
            } else {
                ("plain replay", &mut plain, &mut plain_ns)
            };
            let t = Instant::now();
            let answer = replay.request(op);
            *total += t.elapsed().as_nanos() as u64;
            tally.check(who, op, answer.0, &answer.1);
        }

        let t = Instant::now();
        let answer = adapters::whole_call(&shared, op);
        let took = t.elapsed().as_nanos() as u64;
        whole_ns += took;
        whole_by_opcode.entry(core_metric(op.opcode)).or_default().push(took as f64 / 1e3);
        tally.check("SharedDatabase", op, answer.0, &answer.1);
    }
    let last_round_span = traced.tracer.len();

    // xsobs on vs off, on the round's read ops (E11's gate as wall
    // clock): whole passes over them until two seconds are spent.
    let reads: Vec<&Op> = round
        .iter()
        .filter(|op| matches!(op.opcode, Opcode::Query | Opcode::Xquery))
        .take(2_000)
        .collect();
    let (mut on_ns, mut off_ns) = (0u64, 0u64);
    let began = Instant::now();
    for pass in 0.. {
        if reads.is_empty() || (pass > 0 && began.elapsed().as_secs_f64() > 2.0) {
            break;
        }
        for (i, op) in reads.iter().enumerate() {
            // Alternate which side goes first.
            for on in [(i + pass) % 2 == 0, (i + pass) % 2 != 0] {
                adapters::set_observability(&shared, on);
                let t = Instant::now();
                std::hint::black_box(adapters::whole_call(&shared, op));
                *(if on { &mut on_ns } else { &mut off_ns }) += t.elapsed().as_nanos() as u64;
            }
        }
    }
    adapters::set_observability(&shared, true);

    // Probes at the workload's document sizes.
    let largest = traced.documents_by_size().into_iter().next();
    for _ in 0..5 {
        if let Some((_, doc)) = &largest {
            // On mixed_rw the UPDATE requests already carry these spans.
            if args.workload != Workload::MixedRw {
                traced.probe_document(doc);
            }
        }
        if let Some(orders) = session.orders_sample() {
            traced.probe_facets(&orders.leaf_values())?;
        }
    }

    // Per-layer self times: per request, the sum of a stage's spans;
    // over requests, the median.
    let spans = &traced.tracer.spans();
    let measured = |s: &&Span| s.id as usize >= first_span || s.name == "xsmodel.schema_compile";
    let mut per_request: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
    for s in spans.iter().filter(measured) {
        *per_request.entry(s.name).or_default().entry(s.request).or_default() += s.self_ns;
    }
    let stage_us = |stage: &str| -> f64 {
        let Some(by_request) = per_request.get(stage) else { return 0.0 };
        let values: Vec<f64> = by_request.values().map(|&ns| ns as f64 / 1e3).collect();
        if stage == "xsmodel.schema_compile" {
            values.iter().sum()
        } else {
            median(&values)
        }
    };
    let total_ns = |stage: &str| -> u64 {
        spans[first_span..last_round_span]
            .iter()
            .filter(|s| s.name == stage)
            .map(|s| s.self_ns)
            .sum()
    };
    for (metric, _, _) in spec::TRACE_LAYER {
        let whole_call = WHOLE_CALLS.iter().any(|&op| core_metric(op) == *metric);
        if let Some(stage) = metric.strip_suffix("_us").filter(|_| !whole_call) {
            if *metric != "xsserver.wire_overhead_us" {
                report.set(metric, stage_us(stage));
            }
        }
    }
    for opcode in WHOLE_CALLS {
        let metric = core_metric(opcode);
        report.set(metric, whole_by_opcode.get(metric).map_or(0.0, |v| median(v)));
    }
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    report.set(
        "xmlparse.parse_mb_per_s",
        ratio(traced.parsed_bytes as f64 / 1e6, total_ns("xmlparse.parse") as f64 / 1e9),
    );
    report.set(
        "algebra.load_nodes_per_s",
        ratio(traced.loaded_nodes as f64, total_ns("algebra.load") as f64 / 1e9),
    );
    report.set("xdm.nodes_per_doc", traced.nodes_per_doc());
    report.set("storage.relabels", traced.relabels() as f64);
    report
        .set("xquery.work_per_result", ratio(traced.plan_work as f64, traced.plan_results as f64));

    // Reconciliation: the share of the real whole calls that no named
    // stage of the replay accounts for. The frame spans are outside the
    // SharedDatabase call, the request roots are the replay's own glue.
    let staged_ns: u64 = spans[first_span..last_round_span]
        .iter()
        .filter(|s| !s.name.starts_with("request.") && !s.name.starts_with("xsserver."))
        .map(|s| s.self_ns)
        .sum();
    report.set("core.unattributed_share", 1.0 - ratio(staged_ns as f64, whole_ns as f64));
    report.set(
        "xsobs.overhead_share",
        if off_ns > 0 { on_ns as f64 / off_ns as f64 - 1.0 } else { 0.0 },
    );
    let without_sync = |total: u64, sync: u64| total.saturating_sub(sync) as f64;
    report.set(
        "bench.trace_overhead_share",
        ratio(
            without_sync(traced_ns, traced.sync_ns - sync_traced),
            without_sync(plain_ns, plain.sync_ns - sync_plain),
        ) - 1.0,
    );
    // The floor the wire adds on top of the in-process call, for the
    // workload's most frequent op class.
    let dominant = match args.workload {
        Workload::Ingest => (Class::PutDoc, "core.insert_us"),
        _ => (Class::Query, "core.query_us"),
    };
    let wire_us = report.get(&format!("client.{}_p50_ms", dominant.0.name())).unwrap_or(0.0) * 1e3;
    report.set("xsserver.wire_overhead_us", wire_us - report.get(dominant.1).unwrap_or(0.0));

    tally.report();
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    write_trace(&args.out.join(format!("trace_{name}.jsonl")), spans)
        .map_err(|e| format!("cannot write the trace: {e}"))?;
    drop(shared);
    let _ = std::fs::remove_dir_all(&base);
    Ok(report)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xsbench-trace: {e}");
            return ExitCode::from(64);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xsbench-trace: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!("traced replay of round 1, in process (spans from the benchmark's own adapters):");
    print!("{}", report.listing());
    let line = report.json_line();
    let path = args.out.join(format!("result_layer_{}.json", args.workload.name()));
    if let Err(e) = std::fs::write(path, format!("{line}\n")) {
        eprintln!("xsbench-trace: cannot write the result file: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "xsbench-trace: {} of {} ops failed or were answered wrongly",
            report.failed, report.attempted
        );
        ExitCode::from(2)
    }
}
