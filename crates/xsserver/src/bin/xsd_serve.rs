//! `xsd-serve` — the xsdb network daemon.
//!
//! ```text
//! xsd-serve [--addr HOST:PORT] [--dir DIR] [--durability MODE]
//!           [--threads N] [--max-conns N] [--timeout-ms MS]
//!           [--strict-analysis] [--stats-json]
//! ```
//!
//! * `--addr` — listen address (default `127.0.0.1:7070`; port 0 picks
//!   an ephemeral port, reported on the startup line).
//! * `--dir` — persistence directory: the database is opened durable on
//!   it (loaded, replaying the write-ahead-log tail, when it holds a
//!   database), and the `SAVE` opcode and the shutdown write their
//!   checkpoints into it. Every mutation is appended to the write-ahead
//!   log before it is acknowledged. Without it the database is volatile
//!   and `SAVE` answers `ERR_UNSUPPORTED`.
//! * `--durability` — when to acknowledge a logged mutation:
//!   `fsync` (default; fsync per commit before the write is visible
//!   or acked — a failed fsync is reported, not acked), or `async` (no
//!   per-commit fsync; an acknowledged write can be lost in a crash).
//!   Only meaningful with `--dir`.
//! * `--threads` — threads executing database work (default 64): one
//!   event loop each, running the requests of the connections it owns.
//!   Connections are not bounded by this: a loop parks idle
//!   connections in its reactor, so they hold no thread, and
//!   connections beyond this count share loops.
//! * `--max-conns` — connections served concurrently before new ones
//!   are refused with `BUSY` (default 256).
//! * `--timeout-ms` — mid-frame arrival budget per connection
//!   (default 30000): a started request frame must arrive in full
//!   within it. Idle connections never time out.
//! * `--strict-analysis` — reject schemas with static-analysis errors
//!   at `PUT_SCHEMA` time (`Database::set_strict_analysis`).
//! * `--stats-json` — print the final metrics snapshot to stdout after
//!   shutdown.
//!
//! On startup the daemon prints exactly one line to stdout:
//! `xsd-serve listening on <addr>` — scripts (and `check.sh`) parse it
//! to learn the ephemeral port. It exits 0 after a graceful shutdown
//! (SIGTERM or SIGINT), having flushed a final save when `--dir` is
//! set. Signals are routed through the first event loop's wakeup fd:
//! the handler performs one atomic store and one `write(2)` on the
//! wakeup pipe, so shutdown latency is bounded by a single
//! `epoll_wait` return — there is no polling tick anywhere on the
//! path.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use xsdb::cli::out_line;
use xsdb::{Database, Durability, SharedDatabase};
use xsserver::{Server, ServerConfig, ShutdownRequester};

struct Args {
    addr: String,
    dir: Option<String>,
    durability: Durability,
    threads: usize,
    max_conns: usize,
    timeout_ms: u64,
    strict_analysis: bool,
    stats_json: bool,
}

const USAGE: &str = "usage: xsd-serve [--addr HOST:PORT] [--dir DIR] \
     [--durability fsync|async] [--threads N] [--max-conns N] \
     [--timeout-ms MS] [--strict-analysis] [--stats-json]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7070".to_string(),
        dir: None,
        durability: Durability::default(),
        threads: 64,
        max_conns: 256,
        timeout_ms: 30_000,
        strict_analysis: false,
        stats_json: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--dir" => args.dir = Some(value("--dir")?),
            "--durability" => {
                args.durability =
                    value("--durability")?.parse().map_err(|e| format!("{e}\n{USAGE}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|_| format!("--threads needs a number\n{USAGE}"))?
            }
            "--max-conns" => {
                args.max_conns = value("--max-conns")?
                    .parse()
                    .map_err(|_| format!("--max-conns needs a number\n{USAGE}"))?
            }
            "--timeout-ms" => {
                args.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| format!("--timeout-ms needs a number\n{USAGE}"))?
            }
            "--strict-analysis" => args.strict_analysis = true,
            "--stats-json" => args.stats_json = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The running server's shutdown requester, stored once the server is
/// up so the signal handler can reach its wakeup fd.
static REQUESTER: OnceLock<ShutdownRequester> = OnceLock::new();

/// Covers the window between handler installation and the server
/// coming up: a signal landing there is honored right after
/// [`REQUESTER`] is set.
static EARLY_STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: OnceLock::get is an atomic load, and
    // ShutdownRequester::request is one atomic store plus one raw
    // write(2) on the reactor's wakeup fd. No locks, no allocation.
    match REQUESTER.get() {
        Some(requester) => requester.request(),
        None => EARLY_STOP.store(true, Ordering::SeqCst),
    }
}

#[cfg(unix)]
fn install_signal_handlers() {
    // Hand-rolled: the container has no libc crate, but `signal(2)` is
    // in every libc the platform links anyway. Handler only touches an
    // atomic, which is async-signal-safe.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {
    let _ = on_signal; // Ctrl-C delivery differs; rely on process kill.
}

fn run(args: &Args) -> Result<(), String> {
    let shared = match &args.dir {
        Some(dir) => {
            let (shared, report) = SharedDatabase::open_durable(dir, args.durability)
                .map_err(|e| format!("cannot open {dir}: {e}"))?;
            for warning in &report.warnings {
                eprintln!("xsd-serve: {warning}");
            }
            shared
        }
        None => SharedDatabase::new(Database::new()),
    };
    shared.set_strict_analysis(args.strict_analysis);
    let config = ServerConfig {
        threads: args.threads,
        max_conns: args.max_conns,
        io_timeout: Duration::from_millis(args.timeout_ms.max(1)),
        ..ServerConfig::default()
    };
    install_signal_handlers();
    let handle = Server::start(&args.addr, config, shared.clone())
        .map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    // Route signals through the reactor wakeup fd from here on; honor
    // any signal that raced in before the server existed.
    let _ = REQUESTER.set(handle.shutdown_requester());
    if EARLY_STOP.load(Ordering::SeqCst) {
        if let Some(requester) = REQUESTER.get() {
            requester.request();
        }
    }
    out_line(format_args!("xsd-serve listening on {}", handle.local_addr()));
    handle.wait();
    eprintln!("xsd-serve: shutting down");
    handle.shutdown().map_err(|e| format!("final save failed: {e}"))?;
    if args.stats_json {
        out_line(format_args!("{}", shared.metrics().to_json()));
    }
    Ok(())
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
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("xsd-serve: {message}");
            ExitCode::FAILURE
        }
    }
}
