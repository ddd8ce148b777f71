//! **xsserver** — the concurrent network front-end for [`xsdb`]: a
//! versioned wire protocol, an event-driven TCP server on a hand-rolled
//! readiness reactor, a blocking client library, and a closed- and
//! open-loop load generator. Everything is `std`-only; there is no
//! async runtime and no serialization crate — the protocol is a
//! hand-rolled length-prefixed frame format ([`protocol`]) and the
//! event loop multiplexes with four lines of `epoll(7)` FFI
//! ([`reactor`]).
//!
//! §9 of the paper grounds the formal model in Sedna, a client/server
//! XML DBMS; this crate supplies the client/server part. The server
//! ([`server::Server`]) puts a [`SharedDatabase`](xsdb::SharedDatabase)
//! behind TCP with a fixed number of event-loop threads, each owning a
//! disjoint set of connections (nonblocking, parked in the loop's
//! reactor when idle — an idle connection costs a file descriptor, not
//! a thread). A loop parses pipelined request frames as bytes arrive and
//! executes them itself, with no queue or thread hand-off between a
//! request's bytes and its response; read operations (validate, query,
//! XQuery, catalog, stats) run concurrently across loops against
//! immutable epoch snapshots and never block on writers, while state
//! transitions (inserts, updates, deletes, schema registration and
//! removal) commit one at a time through
//! [`SharedDatabase::apply`](xsdb::SharedDatabase::apply) — appended to
//! a write-ahead log before they are acknowledged when the daemon runs
//! with a persistence directory. Responses are written back in request
//! order, however many are in flight per connection. The observable
//! behavior of every opcode is *identical* to calling the corresponding
//! [`Database`](xsdb::Database) method in process, which the
//! integration suite asserts byte-for-byte.
//!
//! Two binaries ship with the crate:
//!
//! * `xsd-serve` — the daemon: bind an address, optionally open a
//!   persistence directory (recovering the write-ahead-log tail),
//!   serve under a chosen durability mode (`--durability
//!   fsync|async`) until SIGTERM/SIGINT — delivered to the first
//!   event loop over its wakeup fd, so shutdown latency is one
//!   `epoll_wait`, not a polling tick — then checkpoint.
//! * `xsd-bench-client` — the load generator: N connections issuing a
//!   configurable read/write mix, closed-loop by default or open-loop
//!   at a fixed offered rate (`--rps`, latencies measured from the
//!   schedule so coordinated omission cannot flatter the tail), with
//!   optional pipelined bursts (`--pipeline`) and bounded
//!   retry-with-backoff (`--retries`, `--backoff-ms`) for `BUSY`
//!   rejections and transient connect failures.
//!
//! Traffic is observable through the pinned `server.*` and `net.*`
//! metric families (connection counts, per-opcode request counters,
//! byte counters, request-latency histograms in total and per opcode,
//! queue wait, epoll waits, dispatched events, wakeups, pipeline-depth
//! histogram, backpressure stalls) in
//! the same [`xsobs`] registry the database itself records into,
//! exported via the `STATS` opcode or `xsd-serve --stats-json`.

#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{Opcode, Status, WIRE_VERSION};
pub use server::{Server, ServerConfig, ServerHandle, ShutdownRequester};
