//! `xsd-bench-client` — closed- and open-loop load generator for
//! `xsd-serve`.
//!
//! ```text
//! xsd-bench-client --addr HOST:PORT [--connections N] [--requests N]
//!                  [--write-percent P] [--doc-items N] [--pipeline N]
//!                  [--rps N] [--retries N] [--backoff-ms MS] [--stats-json]
//! ```
//!
//! Registers the bench schema and one document per connection, then
//! runs `--connections` threads each issuing `--requests` requests
//! (`--write-percent` of them statically checked `UPDATE`s through the
//! commit path, the rest `QUERY` reads) and prints one
//! summary line: requests, errors, wall time, throughput, and
//! p50/p90/p99 latency. By default the loop is closed (the next burst
//! starts when the previous responses land); `--rps N` switches to an
//! open loop offering N requests per second in aggregate on a fixed
//! schedule, with latency measured from each request's *scheduled*
//! send time so a stalling server cannot hide queueing delay behind a
//! slowed-down generator (coordinated omission). `--pipeline N` writes
//! N frames back-to-back before reading responses (default 1).
//! `--retries`/`--backoff-ms` retry `BUSY` rejections and transient
//! connect failures with linear backoff instead of counting them as
//! errors (default: fail fast). `--stats-json` additionally prints the
//! client-side metrics snapshot (`client.request_ns`) to stderr.
//!
//! Exit code: 0 when every request succeeded, 1 otherwise — so scripts
//! can assert "N concurrent connections with zero protocol errors".

use std::process::ExitCode;

use xsdb::cli::out_line;
use xsserver::loadgen::{self, ArrivalMode, LoadConfig};

struct Args {
    addr: String,
    config: LoadConfig,
    stats_json: bool,
}

const USAGE: &str = "usage: xsd-bench-client --addr HOST:PORT [--connections N] \
     [--requests N] [--write-percent P] [--doc-items N] [--pipeline N] [--rps N] \
     [--retries N] [--backoff-ms MS] [--stats-json]\n\
     --write-percent P: share of requests (0..=100, default 10) that are statically \
     checked UPDATEs; the rest are QUERY reads";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { addr: String::new(), config: LoadConfig::default(), stats_json: false };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let num = |flag: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|_| format!("{flag} needs a number\n{USAGE}"))
        };
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--connections" => {
                args.config.connections = num("--connections", value("--connections")?)?
            }
            "--requests" => {
                args.config.requests_per_conn = num("--requests", value("--requests")?)?
            }
            "--write-percent" => {
                let p = num("--write-percent", value("--write-percent")?)?;
                if p > 100 {
                    return Err(format!("--write-percent must be 0..=100\n{USAGE}"));
                }
                args.config.write_percent = p as u8;
            }
            "--doc-items" => args.config.doc_items = num("--doc-items", value("--doc-items")?)?,
            "--pipeline" => {
                let depth = num("--pipeline", value("--pipeline")?)?;
                if depth == 0 {
                    return Err(format!("--pipeline must be at least 1\n{USAGE}"));
                }
                args.config.pipeline = depth;
            }
            "--rps" => {
                let rps = num("--rps", value("--rps")?)?;
                if rps == 0 {
                    return Err(format!("--rps must be at least 1\n{USAGE}"));
                }
                args.config.arrival = ArrivalMode::Open { rps: rps as u64 };
            }
            "--retries" => {
                args.config.retry.retries = num("--retries", value("--retries")?)? as u32
            }
            "--backoff-ms" => {
                args.config.retry.backoff =
                    std::time::Duration::from_millis(
                        num("--backoff-ms", value("--backoff-ms")?)? as u64
                    )
            }
            "--stats-json" => args.stats_json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.addr.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = loadgen::setup(&args.addr, &args.config) {
        eprintln!("xsd-bench-client: setup against {} failed: {e}", args.addr);
        return ExitCode::FAILURE;
    }
    let obs = xsobs::Registry::new();
    let summary = loadgen::run(&args.addr, &args.config, &obs);
    let pacing = match args.config.arrival {
        ArrivalMode::Closed => "closed loop".to_string(),
        ArrivalMode::Open { rps } => format!("open loop @ {rps} rps"),
    };
    out_line(format_args!(
        "xsd-bench-client: {} conns x {} reqs ({}% writes, pipeline {}, {}): {}",
        args.config.connections,
        args.config.requests_per_conn,
        args.config.write_percent,
        args.config.pipeline,
        pacing,
        summary.to_line()
    ));
    if args.stats_json {
        eprintln!("{}", obs.snapshot().to_json());
    }
    if summary.errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
