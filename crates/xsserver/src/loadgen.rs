//! A load generator for `xsd-serve`: N connections, each a thread
//! issuing requests with a configurable read/write mix, in one of two
//! arrival modes:
//!
//! * **Closed loop** (default): each connection issues requests
//!   back-to-back — the next burst starts when the previous responses
//!   land. Throughput is whatever the server sustains.
//! * **Open loop** ([`ArrivalMode::Open`]): requests are emitted on a
//!   fixed schedule at an offered aggregate rate, regardless of how
//!   fast responses return, and **latency is measured from the
//!   scheduled send time**, not the actual one. A server that stalls
//!   therefore cannot flatter its own tail by slowing the generator
//!   down — the stall shows up in every delayed request's latency
//!   (this is the standard defense against coordinated omission).
//!
//! Requests go out in pipelined bursts of [`LoadConfig::pipeline`]
//! frames written back-to-back before any response is read (depth 1 =
//! classic lockstep), exercising the server's request-pipelining path.
//!
//! Each connection works against its **own** document (`bench-<i>`),
//! so write requests exercise the global write lock without the runs
//! semantically interfering — reads always see their connection's own
//! writes, and the final [`LoadSummary`] can demand zero errors.
//!
//! Per-request latency is recorded into the `client.request_ns`
//! histogram of the caller's [`xsobs::Registry`] *and* collected
//! exactly, so the summary reports true percentiles rather than
//! bucket midpoints.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use xsobs::HistogramId;

use crate::client::{Client, RetryPolicy};
use crate::protocol::Opcode;

/// The schema every load-generator document validates against.
pub const BENCH_SCHEMA_NAME: &str = "bench";

/// A list of string items — enough structure for queries and updates
/// to traverse, cheap enough to validate thousands of times a second.
pub const BENCH_SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="bench">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

/// Build the document connection `i` works against.
pub fn bench_doc(items: usize) -> String {
    let mut xml = String::with_capacity(16 + items * 24);
    xml.push_str("<bench>");
    for i in 0..items {
        xml.push_str("<item>payload-");
        xml.push_str(&i.to_string());
        xml.push_str("</item>");
    }
    xml.push_str("</bench>");
    xml
}

/// How requests arrive at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalMode {
    /// Back-to-back: send the next burst when the previous one's
    /// responses arrive. Measures sustainable throughput.
    #[default]
    Closed,
    /// Fixed schedule: the fleet offers `rps` requests per second in
    /// aggregate, evenly spaced, with each connection's schedule
    /// phase-shifted so arrivals spread across the interval instead of
    /// bunching. Measures latency at a controlled offered load;
    /// latencies are taken from the schedule, so queueing delay when
    /// the generator falls behind is charged to the server.
    Open {
        /// Offered aggregate requests per second across the fleet.
        rps: u64,
    },
}

/// Load shape for [`run`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Requests each connection issues.
    pub requests_per_conn: usize,
    /// Percentage of requests that are writes (statically checked
    /// `UPDATE`s through the commit path); the rest are reads (`query`).
    pub write_percent: u8,
    /// `<item>` elements per benchmark document.
    pub doc_items: usize,
    /// Frames written back-to-back before reading any response
    /// (pipelining depth; 1 = lockstep, the default).
    pub pipeline: usize,
    /// Closed-loop (default) or open-loop arrivals.
    pub arrival: ArrivalMode,
    /// Retry budget for `BUSY` rejections and transient connect
    /// failures while establishing connections (default: none).
    pub retry: RetryPolicy,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 8,
            requests_per_conn: 200,
            write_percent: 10,
            doc_items: 64,
            pipeline: 1,
            arrival: ArrivalMode::Closed,
            retry: RetryPolicy::default(),
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// Requests completed successfully.
    pub requests: u64,
    /// Requests that failed (transport, protocol, or server error).
    pub errors: u64,
    /// Wall-clock time of the request phase (setup excluded).
    pub elapsed: Duration,
    /// Successful requests per second of wall clock.
    pub throughput_rps: f64,
    /// Latency percentiles over successful requests, in nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile latency in nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile latency in nanoseconds.
    pub p99_ns: u64,
}

impl LoadSummary {
    /// Render the summary as one human-readable line.
    pub fn to_line(&self) -> String {
        format!(
            "{} requests, {} errors, {:.2}s wall, {:.0} req/s, \
             p50 {:.3}ms p90 {:.3}ms p99 {:.3}ms",
            self.requests,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.throughput_rps,
            self.p50_ns as f64 / 1e6,
            self.p90_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
        )
    }
}

/// Register the bench schema and one document per connection. Safe to
/// call against a server that already holds them (duplicate errors
/// from a previous run are tolerated only if content matches — the
/// generator uses deterministic content, so re-runs reuse the state).
pub fn setup(addr: &str, config: &LoadConfig) -> Result<(), crate::client::ClientError> {
    let mut c = Client::connect_with_retry(addr, config.retry)?;
    if let Err(e) = c.put_schema(BENCH_SCHEMA_NAME, BENCH_SCHEMA) {
        if e.status() != Some(crate::protocol::Status::DuplicateSchema) {
            return Err(e);
        }
    }
    let xml = bench_doc(config.doc_items);
    for i in 0..config.connections {
        let name = format!("bench-{i}");
        if let Err(e) = c.put_doc(&name, BENCH_SCHEMA_NAME, &xml) {
            if e.status() != Some(crate::protocol::Status::DuplicateDocument) {
                return Err(e);
            }
        }
    }
    Ok(())
}

/// The request connection `conn` issues at sequence `n`: a
/// deterministic interleave spreading writes evenly through the run
/// instead of front-loading them. Every write is a statically checked
/// `UPDATE`, alternating a value replacement with an insert; both are
/// provably valid, so the server applies them without revalidating.
fn build_request(conn: usize, n: usize, doc: &str, write_percent: u8) -> (Opcode, Vec<String>) {
    let write = (n * 100 + conn * 37) % 100 < write_percent as usize;
    if write {
        let update = if n.is_multiple_of(2) {
            format!(r#"replace value of node /bench/item[1] with "w{conn}-{n}""#)
        } else {
            format!("insert node <item>c{conn}-{n}</item> into /bench")
        };
        (Opcode::Update, vec![doc.to_string(), update])
    } else {
        (Opcode::Query, vec![doc.to_string(), "/bench/item".to_string()])
    }
}

/// Run the load: `connections` threads, each issuing
/// `requests_per_conn` requests against its own document in bursts of
/// `pipeline`, paced by `arrival`. Latencies are recorded into `obs`
/// (histogram `client.request_ns`) and aggregated into the returned
/// [`LoadSummary`].
pub fn run(addr: &str, config: &LoadConfig, obs: &xsobs::Registry) -> LoadSummary {
    let errors = AtomicU64::new(0);
    let started = Instant::now();
    // Open loop: each request k (global sequence within a connection)
    // is due at `started + phase + k*interval`, where interval is the
    // per-connection spacing (connections/rps seconds) and phase
    // staggers connection i by i/rps so aggregate arrivals are evenly
    // spaced at the offered rate.
    let schedule: Option<(Duration, f64)> = match config.arrival {
        ArrivalMode::Closed => None,
        ArrivalMode::Open { rps } => {
            let rps = rps.max(1) as f64;
            let interval = config.connections as f64 / rps;
            Some((Duration::from_secs_f64(1.0 / rps), interval))
        }
    };
    let mut latencies: Vec<u64> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(config.connections);
        for i in 0..config.connections {
            let errors = &errors;
            let obs = &obs;
            handles.push(s.spawn(move || {
                let mut local: Vec<u64> = Vec::with_capacity(config.requests_per_conn);
                let doc = format!("bench-{i}");
                let mut client = match Client::connect_with_retry(addr, config.retry) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add(config.requests_per_conn as u64, Ordering::Relaxed);
                        return local;
                    }
                };
                let pipeline = config.pipeline.max(1);
                let due = |k: usize| -> Option<Instant> {
                    schedule.map(|(unit, interval)| {
                        let offset = unit.mul_f64(i as f64) // phase
                            + Duration::from_secs_f64(interval * k as f64);
                        started + offset
                    })
                };
                let mut n = 0;
                while n < config.requests_per_conn {
                    let burst = pipeline.min(config.requests_per_conn - n);
                    // Latency anchors: the schedule in open-loop mode
                    // (even when we're running late), the actual send
                    // time in closed-loop mode.
                    let anchors: Vec<Instant> = if schedule.is_some() {
                        (0..burst).map(|k| due(n + k).unwrap_or_else(Instant::now)).collect()
                    } else {
                        let now = Instant::now();
                        vec![now; burst]
                    };
                    if let Some(first) = due(n) {
                        let now = Instant::now();
                        if first > now {
                            std::thread::sleep(first - now);
                        }
                    }
                    let requests: Vec<(Opcode, Vec<String>)> = (0..burst)
                        .map(|k| build_request(i, n + k, &doc, config.write_percent))
                        .collect();
                    match client.pipeline(&requests) {
                        Ok(results) => {
                            let done = Instant::now();
                            for (k, outcome) in results.iter().enumerate() {
                                match outcome {
                                    Ok(_) => {
                                        let lat = done.saturating_duration_since(anchors[k]);
                                        let ns = u64::try_from(lat.as_nanos()).unwrap_or(u64::MAX);
                                        obs.observe(HistogramId::ClientRequest, lat);
                                        local.push(ns);
                                    }
                                    Err(_) => {
                                        errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            // The stream is torn: everything still
                            // unsent or unanswered on this connection
                            // is lost.
                            let remaining = (config.requests_per_conn - n) as u64;
                            errors.fetch_add(remaining, Ordering::Relaxed);
                            return local;
                        }
                    }
                    n += burst;
                }
                local
            }));
        }
        for h in handles {
            if let Ok(local) = h.join() {
                latencies.extend(local);
            }
        }
    });
    let elapsed = started.elapsed();
    summarize(latencies, errors.load(Ordering::Relaxed), elapsed)
}

fn summarize(mut latencies: Vec<u64>, errors: u64, elapsed: Duration) -> LoadSummary {
    latencies.sort_unstable();
    // Nearest-rank percentile: the smallest value with at least p of
    // the sample at or below it.
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = (p * latencies.len() as f64).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1]
    };
    let requests = latencies.len() as u64;
    let secs = elapsed.as_secs_f64();
    LoadSummary {
        requests,
        errors,
        elapsed,
        throughput_rps: if secs > 0.0 { requests as f64 / secs } else { 0.0 },
        p50_ns: pct(0.50),
        p90_ns: pct(0.90),
        p99_ns: pct(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_doc_is_valid_against_bench_schema() {
        let mut db = xsdb::Database::new();
        db.register_schema_text(BENCH_SCHEMA_NAME, BENCH_SCHEMA).unwrap();
        let violations = db.validate(BENCH_SCHEMA_NAME, &bench_doc(8)).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        let empty = db.validate(BENCH_SCHEMA_NAME, &bench_doc(0)).unwrap();
        assert!(empty.is_empty(), "{empty:?}");
    }

    #[test]
    fn summary_percentiles_are_exact() {
        let lat: Vec<u64> = (1..=100).collect();
        let s = summarize(lat, 3, Duration::from_secs(2));
        assert_eq!(s.requests, 100);
        assert_eq!(s.errors, 3);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p90_ns, 90);
        assert_eq!(s.p99_ns, 99);
        assert!((s.throughput_rps - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_summary_is_all_zero() {
        let s = summarize(Vec::new(), 0, Duration::from_millis(1));
        assert_eq!(s.requests, 0);
        assert_eq!(s.p99_ns, 0);
    }

    #[test]
    fn request_mix_is_deterministic() {
        // The interleave assigns the write role per connection
        // (`i*37 % 100 < write_percent`): at 10% writes connection 0
        // writes on every request — alternating a value replacement and
        // an insert — while connection 1 only reads.
        let (op, fields) = build_request(0, 0, "bench-0", 10);
        assert_eq!(op, Opcode::Update);
        assert_eq!(fields[1], r#"replace value of node /bench/item[1] with "w0-0""#);
        let (op, fields) = build_request(0, 1, "bench-0", 10);
        assert_eq!(op, Opcode::Update);
        assert_eq!(fields[1], "insert node <item>c0-1</item> into /bench");
        assert!(matches!(build_request(1, 0, "bench-1", 10), (Opcode::Query, _)));
        // 0% writes means every request is a query.
        assert!(matches!(build_request(0, 42, "d", 0), (Opcode::Query, _)));
    }
}
