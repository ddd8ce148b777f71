//! **xsobs** — the observability core of the workspace.
//!
//! The paper models a database state as a many-sorted algebra whose
//! operations are the ten XDM accessors (§5–6); this crate makes the
//! *cost* of those operations visible. It is deliberately boring
//! infrastructure: atomic counters, fixed-bucket log₂ histograms,
//! scoped span timers, and a bounded ring buffer of slow operations,
//! all hanging off a [`Registry`] that can be process-global
//! ([`global`]) or injected per component, and that degrades to a
//! couple of relaxed atomic loads when disabled.
//!
//! Zero dependencies by design: every crate in the workspace — down to
//! `xmlparse`, which has none otherwise — can record here without
//! widening its dependency cone.
//!
//! # Recording
//!
//! ```
//! use xsobs::{CounterId, HistogramId, MaxId, Registry};
//!
//! let reg = Registry::new();
//! reg.incr(CounterId::ParseDocuments);
//! reg.add(CounterId::ParseBytes, 1024);
//! reg.record_max(MaxId::ParseDepthHighWater, 17);
//! {
//!     let mut span = reg.span(HistogramId::DbInsert);
//!     span.set_detail("orders.xml");
//!     // ... timed work; the span records into the histogram on drop,
//!     // and into the slow-op ring when over the threshold.
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter(CounterId::ParseDocuments), 1);
//! assert_eq!(snap.histogram(HistogramId::DbInsert).count, 1);
//! ```
//!
//! # The snapshot schema is stable
//!
//! [`Snapshot::to_json`] renders every counter, gauge, and histogram
//! under fixed dotted names in a fixed order. That rendering is a
//! **semver-stable schema**: fields are added at the end of their
//! family, never renamed or removed — `fixtures/obs/schema.json` pins
//! it and `scripts/check.sh` diffs it like the lint corpus. Dashboards
//! and tests may match on the field names.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Monotonic event counters, one per instrumented site.
///
/// Names (see [`CounterId::name`]) are dotted and suffixed `_total`,
/// and form part of the stable export schema: variants are only ever
/// appended, never renamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterId {
    /// Documents fully parsed to the end of input.
    ParseDocuments,
    /// Source bytes of fully parsed documents.
    ParseBytes,
    /// Entity/character references expanded while parsing.
    ParseEntityExpansions,
    /// DOM parses that failed with an error.
    ParseErrors,
    /// Content-model cache lookups (`hits + misses == lookups`).
    CmCacheLookups,
    /// Content-model cache lookups answered from the cache.
    CmCacheHits,
    /// Content-model cache lookups that had to compile.
    CmCacheMisses,
    /// Group definitions compiled to automata (cached or not).
    AutomatonCompilations,
    /// States explored by UPA subset constructions.
    UpaSubsetStates,
    /// `string-value` calls answered from a filled memo cell.
    StringValueMemoHits,
    /// `string-value` calls that computed (and filled) a memo cell.
    StringValueMemoFills,
    /// Schemas refused by strict static analysis.
    StrictSchemaRejections,
    /// Queries refused as statically empty by strict analysis.
    StrictQueryRejections,
    /// Completed [`Database::save_dir`](../xsdb) commits.
    PersistSaves,
    /// Completed persisted-directory loads.
    PersistLoads,
    /// fsync calls issued by the durable VFS (files and directories).
    PersistFsyncs,
    /// Bytes staged into a generation directory by saves.
    PersistBytesStaged,
    /// Entries quarantined by lenient loads.
    PersistQuarantined,
    /// Non-fatal warnings recorded by loads.
    PersistRecoveryWarnings,
    /// Stale in-flight save directories swept by loads.
    PersistTempsSwept,
    /// Connections the server accepted and served.
    SrvConnAccepted,
    /// Connections refused at the door (connection limit reached).
    SrvConnRejected,
    /// Requests the server finished (any status).
    SrvRequests,
    /// Requests that finished with a non-OK status.
    SrvRequestErrors,
    /// Frames refused before dispatch: malformed, oversized, or an
    /// unknown opcode/version.
    SrvFrameRejections,
    /// Request payload bytes read off sockets (headers excluded).
    SrvBytesIn,
    /// Response payload bytes written to sockets (headers excluded).
    SrvBytesOut,
    /// `PING` requests served.
    SrvOpPing,
    /// `PUT_SCHEMA` requests served.
    SrvOpPutSchema,
    /// `DEL_SCHEMA` requests served.
    SrvOpDelSchema,
    /// `PUT_DOC` requests served.
    SrvOpPutDoc,
    /// `DEL_DOC` requests served.
    SrvOpDelDoc,
    /// `VALIDATE` requests served.
    SrvOpValidate,
    /// `QUERY` requests served.
    SrvOpQuery,
    /// `XQUERY` requests served.
    SrvOpXquery,
    /// `UPDATE_INSERT` requests served. Retired: the opcode
    /// is unassigned, so this always reads 0; it stays in the
    /// semver-stable export.
    SrvOpUpdateInsert,
    /// `UPDATE_DELETE` requests served. Retired: the opcode
    /// is unassigned, so this always reads 0; it stays in the
    /// semver-stable export.
    SrvOpUpdateDelete,
    /// `UPDATE_SET_ATTR` requests served. Retired: the opcode
    /// is unassigned, so this always reads 0; it stays in the
    /// semver-stable export.
    SrvOpUpdateSetAttr,
    /// `UPDATE_SET_TEXT` requests served. Retired: the opcode
    /// is unassigned, so this always reads 0; it stays in the
    /// semver-stable export.
    SrvOpUpdateSetText,
    /// `LIST` requests served.
    SrvOpList,
    /// `STATS` requests served.
    SrvOpStats,
    /// `SAVE` requests served.
    SrvOpSave,
    /// Pages read (and checksum-verified) by the paged block store.
    StoragePageReads,
    /// Pages written by the paged block store.
    StoragePageWrites,
    /// Logical blocks marked dirty (rewritten onto fresh pages).
    StoragePagesDirty,
    /// Records appended to the write-ahead log.
    WalAppends,
    /// Fsyncs issued by the write-ahead log (group commit batches).
    WalFsyncs,
    /// Records replayed from the log tail during recovery.
    WalReplayRecords,
    /// Replayed records skipped as already checkpointed (their effects
    /// were durable in the paged store before the crash).
    WalReplaySkipped,
    /// Checkpoints taken (log applied to the paged store + truncated).
    WalCheckpoints,
    /// Pages written by checkpoints into the paged store.
    WalCheckpointPages,
    /// Commits whose preparation was found stale under the writer lock
    /// (another writer replaced what its snapshot showed) and was
    /// prepared again there.
    WalCommitRetries,
    /// Waves recovery cut the log tail into: maximal runs of records
    /// naming distinct documents, prepared in parallel and committed in
    /// log order.
    WalReplayWaves,
    /// Replayed records whose speculative preparation was stale or
    /// refused after an earlier record of its wave committed, and were
    /// prepared again against the current state.
    WalReplayReprepared,
    /// Static update checks run (every guarded update, any verdict).
    UpdateChecks,
    /// Update checks that proved the update valid (revalidation skipped).
    UpdateAccepted,
    /// Update checks that were statically undecidable (local recheck ran).
    UpdateRechecked,
    /// Update checks that proved the update invalid (refused untouched).
    UpdateRejected,
    /// Nodes revalidated by post-update rechecks (one per affected
    /// content model).
    UpdateRevalidateNodes,
    /// `UPDATE_INSERT_BEFORE` requests served. Retired: the opcode
    /// is unassigned, so this always reads 0; it stays in the
    /// semver-stable export.
    SrvOpUpdateInsertBefore,
    /// `UPDATE_INSERT_AFTER` requests served. Retired: the opcode
    /// is unassigned, so this always reads 0; it stays in the
    /// semver-stable export.
    SrvOpUpdateInsertAfter,
    /// `UPDATE_REPLACE_NODE` requests served. Retired: the opcode
    /// is unassigned, so this always reads 0; it stays in the
    /// semver-stable export.
    SrvOpUpdateReplaceNode,
    /// `UPDATE` (textual XQuery-Update-lite) requests served.
    SrvOpUpdate,
    /// Queries routed through the cost-based planner.
    PlanQueries,
    /// Steps executed by guided descent (the planner's choice or a
    /// forced strategy).
    PlanStepsGuided,
    /// Steps executed by a Dewey-range scan of the document-order index.
    /// Retired: the planner has no such operator, so this always reads
    /// 0; it stays in the semver-stable export.
    PlanStepsDewey,
    /// Steps executed by an element-name postings probe. Retired: the
    /// planner has no such operator, so this always reads 0; it stays in
    /// the semver-stable export.
    PlanStepsPostings,
    /// Steps answered by a schema-path scan (a merge of the DataGuide
    /// descriptor lists a leading downward run resolves to).
    PlanStepsSchemaPath,
    /// Plans pruned as provably empty (statically or by the DataGuide)
    /// before executing a single operator.
    PlanPruned,
    /// `EXPLAIN` requests served.
    SrvOpExplain,
    /// Times the reactor's event loop blocked in `epoll_wait`/`poll`.
    NetEpollWaits,
    /// Readiness events the reactor dispatched to connection state
    /// machines (listener and wakeup-fd events included).
    NetEventsDispatched,
    /// Cross-thread wakeups delivered over an event loop's wakeup fd:
    /// connection hand-offs from the accepting loop, and shutdown
    /// requests (signals included).
    NetWakeups,
    /// Times a connection exceeded a backpressure budget (in-flight
    /// requests or pending-write bytes) and had its read interest
    /// parked until the budget drained.
    NetBackpressureStalls,
    /// Panics caught in a mutation's preparation or a document's
    /// validation, each turned into a typed error instead of unwinding
    /// the caller.
    PanicsCaught,
}

impl CounterId {
    /// Every counter, in stable export order.
    pub const ALL: [CounterId; 75] = [
        CounterId::ParseDocuments,
        CounterId::ParseBytes,
        CounterId::ParseEntityExpansions,
        CounterId::ParseErrors,
        CounterId::CmCacheLookups,
        CounterId::CmCacheHits,
        CounterId::CmCacheMisses,
        CounterId::AutomatonCompilations,
        CounterId::UpaSubsetStates,
        CounterId::StringValueMemoHits,
        CounterId::StringValueMemoFills,
        CounterId::StrictSchemaRejections,
        CounterId::StrictQueryRejections,
        CounterId::PersistSaves,
        CounterId::PersistLoads,
        CounterId::PersistFsyncs,
        CounterId::PersistBytesStaged,
        CounterId::PersistQuarantined,
        CounterId::PersistRecoveryWarnings,
        CounterId::PersistTempsSwept,
        CounterId::SrvConnAccepted,
        CounterId::SrvConnRejected,
        CounterId::SrvRequests,
        CounterId::SrvRequestErrors,
        CounterId::SrvFrameRejections,
        CounterId::SrvBytesIn,
        CounterId::SrvBytesOut,
        CounterId::SrvOpPing,
        CounterId::SrvOpPutSchema,
        CounterId::SrvOpDelSchema,
        CounterId::SrvOpPutDoc,
        CounterId::SrvOpDelDoc,
        CounterId::SrvOpValidate,
        CounterId::SrvOpQuery,
        CounterId::SrvOpXquery,
        CounterId::SrvOpUpdateInsert,
        CounterId::SrvOpUpdateDelete,
        CounterId::SrvOpUpdateSetAttr,
        CounterId::SrvOpUpdateSetText,
        CounterId::SrvOpList,
        CounterId::SrvOpStats,
        CounterId::SrvOpSave,
        CounterId::StoragePageReads,
        CounterId::StoragePageWrites,
        CounterId::StoragePagesDirty,
        CounterId::WalAppends,
        CounterId::WalFsyncs,
        CounterId::WalReplayRecords,
        CounterId::WalReplaySkipped,
        CounterId::WalCheckpoints,
        CounterId::WalCheckpointPages,
        CounterId::WalCommitRetries,
        CounterId::WalReplayWaves,
        CounterId::WalReplayReprepared,
        CounterId::UpdateChecks,
        CounterId::UpdateAccepted,
        CounterId::UpdateRechecked,
        CounterId::UpdateRejected,
        CounterId::UpdateRevalidateNodes,
        CounterId::SrvOpUpdateInsertBefore,
        CounterId::SrvOpUpdateInsertAfter,
        CounterId::SrvOpUpdateReplaceNode,
        CounterId::SrvOpUpdate,
        CounterId::PlanQueries,
        CounterId::PlanStepsGuided,
        CounterId::PlanStepsDewey,
        CounterId::PlanStepsPostings,
        CounterId::PlanStepsSchemaPath,
        CounterId::PlanPruned,
        CounterId::SrvOpExplain,
        CounterId::NetEpollWaits,
        CounterId::NetEventsDispatched,
        CounterId::NetWakeups,
        CounterId::NetBackpressureStalls,
        CounterId::PanicsCaught,
    ];

    /// Number of counters.
    pub const COUNT: usize = CounterId::ALL.len();

    /// The stable export name.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::ParseDocuments => "parse.documents_total",
            CounterId::ParseBytes => "parse.bytes_total",
            CounterId::ParseEntityExpansions => "parse.entity_expansions_total",
            CounterId::ParseErrors => "parse.errors_total",
            CounterId::CmCacheLookups => "validate.cm_cache.lookups_total",
            CounterId::CmCacheHits => "validate.cm_cache.hits_total",
            CounterId::CmCacheMisses => "validate.cm_cache.misses_total",
            CounterId::AutomatonCompilations => "validate.automaton.compilations_total",
            CounterId::UpaSubsetStates => "analysis.upa.subset_states_total",
            CounterId::StringValueMemoHits => "xdm.string_value.memo_hits_total",
            CounterId::StringValueMemoFills => "xdm.string_value.memo_fills_total",
            CounterId::StrictSchemaRejections => "db.strict.schema_rejections_total",
            CounterId::StrictQueryRejections => "db.strict.query_rejections_total",
            CounterId::PersistSaves => "persist.saves_total",
            CounterId::PersistLoads => "persist.loads_total",
            CounterId::PersistFsyncs => "persist.fsyncs_total",
            CounterId::PersistBytesStaged => "persist.bytes_staged_total",
            CounterId::PersistQuarantined => "persist.quarantined_total",
            CounterId::PersistRecoveryWarnings => "persist.recovery_warnings_total",
            CounterId::PersistTempsSwept => "persist.temps_swept_total",
            CounterId::SrvConnAccepted => "server.connections_accepted_total",
            CounterId::SrvConnRejected => "server.connections_rejected_total",
            CounterId::SrvRequests => "server.requests_total",
            CounterId::SrvRequestErrors => "server.request_errors_total",
            CounterId::SrvFrameRejections => "server.frame_rejections_total",
            CounterId::SrvBytesIn => "server.bytes_in_total",
            CounterId::SrvBytesOut => "server.bytes_out_total",
            CounterId::SrvOpPing => "server.op.ping_total",
            CounterId::SrvOpPutSchema => "server.op.put_schema_total",
            CounterId::SrvOpDelSchema => "server.op.del_schema_total",
            CounterId::SrvOpPutDoc => "server.op.put_doc_total",
            CounterId::SrvOpDelDoc => "server.op.del_doc_total",
            CounterId::SrvOpValidate => "server.op.validate_total",
            CounterId::SrvOpQuery => "server.op.query_total",
            CounterId::SrvOpXquery => "server.op.xquery_total",
            CounterId::SrvOpUpdateInsert => "server.op.update_insert_total",
            CounterId::SrvOpUpdateDelete => "server.op.update_delete_total",
            CounterId::SrvOpUpdateSetAttr => "server.op.update_set_attr_total",
            CounterId::SrvOpUpdateSetText => "server.op.update_set_text_total",
            CounterId::SrvOpList => "server.op.list_total",
            CounterId::SrvOpStats => "server.op.stats_total",
            CounterId::SrvOpSave => "server.op.save_total",
            CounterId::StoragePageReads => "storage.page_reads_total",
            CounterId::StoragePageWrites => "storage.page_writes_total",
            CounterId::StoragePagesDirty => "storage.pages_dirty_total",
            CounterId::WalAppends => "wal.appends_total",
            CounterId::WalFsyncs => "wal.fsyncs_total",
            CounterId::WalReplayRecords => "wal.replay_records_total",
            CounterId::WalReplaySkipped => "wal.replay_skipped_total",
            CounterId::WalCheckpoints => "wal.checkpoints_total",
            CounterId::WalCheckpointPages => "wal.checkpoint_pages_total",
            CounterId::WalCommitRetries => "wal.commit_retries_total",
            CounterId::WalReplayWaves => "wal.replay_waves_total",
            CounterId::WalReplayReprepared => "wal.replay_reprepared_total",
            CounterId::UpdateChecks => "analysis.update_checks_total",
            CounterId::UpdateAccepted => "analysis.update_accept_total",
            CounterId::UpdateRechecked => "analysis.update_recheck_total",
            CounterId::UpdateRejected => "analysis.update_reject_total",
            CounterId::UpdateRevalidateNodes => "analysis.update_revalidate_nodes_total",
            CounterId::SrvOpUpdateInsertBefore => "server.op.update_insert_before_total",
            CounterId::SrvOpUpdateInsertAfter => "server.op.update_insert_after_total",
            CounterId::SrvOpUpdateReplaceNode => "server.op.update_replace_node_total",
            CounterId::SrvOpUpdate => "server.op.update_total",
            CounterId::PlanQueries => "plan.queries_total",
            CounterId::PlanStepsGuided => "plan.steps_guided_total",
            CounterId::PlanStepsDewey => "plan.steps_dewey_total",
            CounterId::PlanStepsPostings => "plan.steps_postings_total",
            CounterId::PlanStepsSchemaPath => "plan.steps_schema_path_total",
            CounterId::PlanPruned => "plan.pruned_total",
            CounterId::SrvOpExplain => "server.op.explain_total",
            CounterId::NetEpollWaits => "net.epoll_waits_total",
            CounterId::NetEventsDispatched => "net.events_dispatched_total",
            CounterId::NetWakeups => "net.wakeups_total",
            CounterId::NetBackpressureStalls => "net.backpressure_stalls_total",
            CounterId::PanicsCaught => "db.panics_caught_total",
        }
    }
}

/// High-water-mark gauges (recorded with `fetch_max`, so they only
/// ever rise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaxId {
    /// Deepest element nesting any parsed document reached.
    ParseDepthHighWater,
    /// Most connections the server had in flight at once
    /// (active + queued).
    SrvConnHighWater,
    /// Longest any caller waited to acquire the shared-database lock
    /// (read or write), in nanoseconds.
    SrvLockWaitHighWater,
    /// Most response bytes any one connection had queued but unwritten
    /// at once — the reactor's pending-write backpressure budget caps
    /// how high this can climb.
    NetPendingWriteBytesHighWater,
}

impl MaxId {
    /// Every gauge, in stable export order.
    pub const ALL: [MaxId; 4] = [
        MaxId::ParseDepthHighWater,
        MaxId::SrvConnHighWater,
        MaxId::SrvLockWaitHighWater,
        MaxId::NetPendingWriteBytesHighWater,
    ];

    /// Number of gauges.
    pub const COUNT: usize = MaxId::ALL.len();

    /// The stable export name.
    pub fn name(self) -> &'static str {
        match self {
            MaxId::ParseDepthHighWater => "parse.depth_high_water",
            MaxId::SrvConnHighWater => "server.connections_high_water",
            MaxId::SrvLockWaitHighWater => "server.lock_wait_high_water_ns",
            MaxId::NetPendingWriteBytesHighWater => "net.pending_write_bytes_high_water",
        }
    }
}

/// Latency histograms, one per instrumented operation, recording
/// nanoseconds into fixed log₂ buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistogramId {
    /// `f`: validate + build + insert one document.
    DbInsert,
    /// Validate one document without storing it.
    DbValidate,
    /// Evaluate one XPath query.
    DbQuery,
    /// Evaluate one FLWOR query.
    DbXquery,
    /// One atomic-commit save of the whole database.
    PersistSave,
    /// One verifying load of a persisted directory's checkpoint (the
    /// write-ahead-log tail is [`HistogramId::WalReplay`]).
    PersistLoad,
    /// xsanalyze: schema well-formedness pass.
    AnalyzeWellformed,
    /// xsanalyze: UPA (determinism) pass.
    AnalyzeUpa,
    /// xsanalyze: type-satisfiability pass.
    AnalyzeSatisfiability,
    /// xsanalyze: declaration-reachability pass.
    AnalyzeReachability,
    /// xsanalyze: static path typing of one query.
    AnalyzePathTyping,
    /// One served request's execution (dispatch against the database),
    /// over all opcodes; the per-opcode `SrvOp*` histograms split it.
    SrvRequest,
    /// Waiting to acquire the shared database's read lock.
    SrvReadLockWait,
    /// Waiting to acquire the shared database's write lock.
    SrvWriteLockWait,
    /// One client-side request round trip (recorded by the load
    /// generator, never by the server).
    ClientRequest,
    /// Records made durable per WAL group-commit fsync (a *count*, not
    /// nanoseconds — recorded via [`Registry::observe_value`]).
    WalBatchRecords,
    /// One durable commit: WAL append through fsync acknowledgement.
    WalCommit,
    /// One recovery replay of the write-ahead-log tail over the
    /// checkpointed state.
    WalReplay,
    /// Cost-based planning of one query (statistics lookups + operator
    /// choice, execution excluded).
    PlanBuild,
    /// Complete frames parsed per readable drain of one connection (a
    /// *count*, not nanoseconds — recorded via
    /// [`Registry::observe_value`]); values above 1 are pipelining.
    NetPipelineDepth,
    /// One request's wait between its frame being decoded and its
    /// execution starting: the turns of earlier requests on its own
    /// connection and of the other connections sharing its event loop.
    SrvQueueWait,
    /// One `PING` request's execution.
    SrvOpPing,
    /// One `PUT_SCHEMA` request's execution.
    SrvOpPutSchema,
    /// One `DEL_SCHEMA` request's execution.
    SrvOpDelSchema,
    /// One `PUT_DOC` request's execution.
    SrvOpPutDoc,
    /// One `DEL_DOC` request's execution.
    SrvOpDelDoc,
    /// One `VALIDATE` request's execution.
    SrvOpValidate,
    /// One `QUERY` request's execution.
    SrvOpQuery,
    /// One `XQUERY` request's execution.
    SrvOpXquery,
    /// One `LIST` request's execution.
    SrvOpList,
    /// One `STATS` request's execution.
    SrvOpStats,
    /// One `SAVE` request's execution.
    SrvOpSave,
    /// One `UPDATE` request's execution.
    SrvOpUpdate,
    /// One `EXPLAIN` request's execution.
    SrvOpExplain,
}

impl HistogramId {
    /// Every histogram, in stable export order.
    pub const ALL: [HistogramId; 34] = [
        HistogramId::DbInsert,
        HistogramId::DbValidate,
        HistogramId::DbQuery,
        HistogramId::DbXquery,
        HistogramId::PersistSave,
        HistogramId::PersistLoad,
        HistogramId::AnalyzeWellformed,
        HistogramId::AnalyzeUpa,
        HistogramId::AnalyzeSatisfiability,
        HistogramId::AnalyzeReachability,
        HistogramId::AnalyzePathTyping,
        HistogramId::SrvRequest,
        HistogramId::SrvReadLockWait,
        HistogramId::SrvWriteLockWait,
        HistogramId::ClientRequest,
        HistogramId::WalBatchRecords,
        HistogramId::WalCommit,
        HistogramId::WalReplay,
        HistogramId::PlanBuild,
        HistogramId::NetPipelineDepth,
        HistogramId::SrvQueueWait,
        HistogramId::SrvOpPing,
        HistogramId::SrvOpPutSchema,
        HistogramId::SrvOpDelSchema,
        HistogramId::SrvOpPutDoc,
        HistogramId::SrvOpDelDoc,
        HistogramId::SrvOpValidate,
        HistogramId::SrvOpQuery,
        HistogramId::SrvOpXquery,
        HistogramId::SrvOpList,
        HistogramId::SrvOpStats,
        HistogramId::SrvOpSave,
        HistogramId::SrvOpUpdate,
        HistogramId::SrvOpExplain,
    ];

    /// Number of histograms.
    pub const COUNT: usize = HistogramId::ALL.len();

    /// The stable export name (values are nanoseconds).
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::DbInsert => "db.insert_ns",
            HistogramId::DbValidate => "db.validate_ns",
            HistogramId::DbQuery => "db.query_ns",
            HistogramId::DbXquery => "db.xquery_ns",
            HistogramId::PersistSave => "persist.save_ns",
            HistogramId::PersistLoad => "persist.load_ns",
            HistogramId::AnalyzeWellformed => "analysis.wellformed_ns",
            HistogramId::AnalyzeUpa => "analysis.upa_ns",
            HistogramId::AnalyzeSatisfiability => "analysis.satisfiability_ns",
            HistogramId::AnalyzeReachability => "analysis.reachability_ns",
            HistogramId::AnalyzePathTyping => "analysis.path_typing_ns",
            HistogramId::SrvRequest => "server.request_ns",
            HistogramId::SrvReadLockWait => "server.read_lock_wait_ns",
            HistogramId::SrvWriteLockWait => "server.write_lock_wait_ns",
            HistogramId::ClientRequest => "client.request_ns",
            HistogramId::WalBatchRecords => "wal.batch_records",
            HistogramId::WalCommit => "wal.commit_ns",
            HistogramId::WalReplay => "wal.replay_ns",
            HistogramId::PlanBuild => "plan.build_ns",
            HistogramId::NetPipelineDepth => "net.pipeline_depth",
            HistogramId::SrvQueueWait => "server.queue_wait_ns",
            HistogramId::SrvOpPing => "server.op.ping_ns",
            HistogramId::SrvOpPutSchema => "server.op.put_schema_ns",
            HistogramId::SrvOpDelSchema => "server.op.del_schema_ns",
            HistogramId::SrvOpPutDoc => "server.op.put_doc_ns",
            HistogramId::SrvOpDelDoc => "server.op.del_doc_ns",
            HistogramId::SrvOpValidate => "server.op.validate_ns",
            HistogramId::SrvOpQuery => "server.op.query_ns",
            HistogramId::SrvOpXquery => "server.op.xquery_ns",
            HistogramId::SrvOpList => "server.op.list_ns",
            HistogramId::SrvOpStats => "server.op.stats_ns",
            HistogramId::SrvOpSave => "server.op.save_ns",
            HistogramId::SrvOpUpdate => "server.op.update_ns",
            HistogramId::SrvOpExplain => "server.op.explain_ns",
        }
    }
}

/// Number of log₂ buckets. Bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 additionally holds 0), so 64 buckets span the
/// whole `u64` range.
const BUCKETS: usize = 64;

/// `floor(log2(max(v, 1)))` — the bucket index for a recorded value.
fn bucket_of(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// One live histogram: count, sum, max, and log₂ buckets, all atomics.
#[derive(Debug)]
struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one histogram.
///
/// Part of the semver-stable snapshot schema: `count`, `sum`, `max`
/// (nanoseconds) are exact; quantiles are bucket upper bounds, so they
/// over-estimate by at most 2×.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations (ns).
    pub sum: u64,
    /// Largest observation (ns).
    pub max: u64,
    buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`.
    /// Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i is 2^(i+1) - 1.
                return if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            }
        }
        self.max
    }
}

/// One entry of the slow-op ring: an operation that exceeded its
/// histogram's slow threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    /// Monotonic sequence number (process lifetime of the registry).
    pub seq: u64,
    /// The histogram name of the operation (see [`HistogramId::name`]).
    pub op: &'static str,
    /// How long it took, in nanoseconds.
    pub ns: u64,
    /// Optional context set via [`Span::set_detail`].
    pub detail: Option<String>,
}

#[derive(Debug)]
struct SlowRing {
    capacity: usize,
    next_seq: u64,
    ops: VecDeque<SlowOp>,
}

/// Default slow-op threshold: 10 ms.
const DEFAULT_SLOW_NS: u64 = 10_000_000;
/// Default slow-op ring capacity.
const DEFAULT_SLOW_CAPACITY: usize = 128;

/// The hub every instrumented site records into.
///
/// A registry is either *enabled* (the default for [`Registry::new`]
/// and the process [`global`]) or *disabled*
/// ([`Registry::disabled`] / [`Registry::set_enabled`]). Disabled,
/// every recording call is a single relaxed atomic load and an early
/// return — spans don't even read the clock — so instrumented code
/// pays effectively nothing.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    counters: [AtomicU64; CounterId::COUNT],
    maxes: [AtomicU64; MaxId::COUNT],
    histograms: [Histogram; HistogramId::COUNT],
    /// Per-histogram slow thresholds in ns (`u64::MAX` disables).
    thresholds: [AtomicU64; HistogramId::COUNT],
    slow: Mutex<SlowRing>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(true),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            maxes: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| Histogram::new()),
            thresholds: std::array::from_fn(|_| AtomicU64::new(DEFAULT_SLOW_NS)),
            slow: Mutex::new(SlowRing {
                capacity: DEFAULT_SLOW_CAPACITY,
                next_seq: 0,
                ops: VecDeque::new(),
            }),
        }
    }

    /// A fresh registry that records nothing until
    /// [`Registry::set_enabled`] turns it on.
    pub fn disabled() -> Self {
        let reg = Registry::new();
        reg.enabled.store(false, Ordering::Relaxed);
        reg
    }

    /// Turn recording on or off. Already-recorded values are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the registry is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if self.is_enabled() {
            self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Raise a high-water gauge to at least `v`.
    #[inline]
    pub fn record_max(&self, id: MaxId, v: u64) {
        if self.is_enabled() {
            self.maxes[id as usize].fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Record a duration into a histogram (and the slow-op ring when
    /// over threshold), without going through a [`Span`].
    pub fn observe(&self, id: HistogramId, elapsed: Duration) {
        if self.is_enabled() {
            self.observe_ns(id, saturating_ns(elapsed), None);
        }
    }

    /// Record a raw value into a histogram — for count-valued families
    /// like [`HistogramId::WalBatchRecords`] where the observation is
    /// not a duration. Never feeds the slow-op ring (the ns thresholds
    /// would be meaningless against counts).
    pub fn observe_value(&self, id: HistogramId, v: u64) {
        if self.is_enabled() {
            self.histograms[id as usize].record(v);
        }
    }

    fn observe_ns(&self, id: HistogramId, ns: u64, detail: Option<String>) {
        self.histograms[id as usize].record(ns);
        if ns >= self.thresholds[id as usize].load(Ordering::Relaxed) {
            // A poisoned ring (panicking thread mid-push) only loses
            // log entries, never corrupts metrics — recover and go on.
            let mut ring = self.slow.lock().unwrap_or_else(|p| p.into_inner());
            ring.next_seq += 1;
            let seq = ring.next_seq;
            if ring.ops.len() >= ring.capacity {
                ring.ops.pop_front();
            }
            ring.ops.push_back(SlowOp { seq, op: id.name(), ns, detail });
        }
    }

    /// Set the slow-op threshold for one histogram (`None` disables
    /// slow logging for it).
    pub fn set_slow_threshold(&self, id: HistogramId, threshold: Option<Duration>) {
        let ns = threshold.map_or(u64::MAX, saturating_ns);
        self.thresholds[id as usize].store(ns, Ordering::Relaxed);
    }

    /// Resize the slow-op ring (oldest entries are dropped if needed).
    pub fn set_slow_capacity(&self, capacity: usize) {
        let mut ring = self.slow.lock().unwrap_or_else(|p| p.into_inner());
        ring.capacity = capacity.max(1);
        while ring.ops.len() > ring.capacity {
            ring.ops.pop_front();
        }
    }

    /// Start a scoped timer that records into `id` when dropped.
    /// On a disabled registry the span is disarmed: no clock read, no
    /// recording.
    pub fn span(&self, id: HistogramId) -> Span<'_> {
        let start = if self.is_enabled() { Some(Instant::now()) } else { None };
        Span { registry: self, id, start, detail: None }
    }

    /// A point-in-time copy of every counter, gauge, histogram, and
    /// the slow-op ring.
    pub fn snapshot(&self) -> Snapshot {
        let slow_ops = {
            let ring = self.slow.lock().unwrap_or_else(|p| p.into_inner());
            ring.ops.iter().cloned().collect()
        };
        Snapshot {
            enabled: self.is_enabled(),
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            maxes: std::array::from_fn(|i| self.maxes[i].load(Ordering::Relaxed)),
            histograms: std::array::from_fn(|i| {
                let h = &self.histograms[i];
                HistogramSnapshot {
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    max: h.max.load(Ordering::Relaxed),
                    buckets: std::array::from_fn(|b| h.buckets[b].load(Ordering::Relaxed)),
                }
            }),
            slow_ops,
        }
    }
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A scoped timer handed out by [`Registry::span`]. Records the
/// elapsed time into its histogram when dropped; if the elapsed time
/// exceeds the histogram's slow threshold, the operation (with its
/// optional detail) is appended to the slow-op ring.
#[derive(Debug)]
pub struct Span<'a> {
    registry: &'a Registry,
    id: HistogramId,
    /// `None` when the registry was disabled at span creation.
    start: Option<Instant>,
    detail: Option<String>,
}

impl Span<'_> {
    /// Attach context shown in the slow-op log (document name, query
    /// text, …). A no-op on a disarmed span, so callers may pass
    /// borrowed data unconditionally without paying for the allocation
    /// when metrics are off.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        if self.start.is_some() {
            self.detail = Some(detail.into());
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = saturating_ns(start.elapsed());
            self.registry.observe_ns(self.id, ns, self.detail.take());
        }
    }
}

/// A point-in-time copy of a [`Registry`].
///
/// The accessors ([`Snapshot::counter`], [`Snapshot::max`],
/// [`Snapshot::histogram`], [`Snapshot::slow_ops`]) and the field
/// names rendered by [`Snapshot::to_json`] / [`Snapshot::to_text`]
/// are **semver-stable**: existing names are never renamed or removed;
/// new ones are only appended.
#[derive(Debug, Clone)]
pub struct Snapshot {
    enabled: bool,
    counters: [u64; CounterId::COUNT],
    maxes: [u64; MaxId::COUNT],
    histograms: [HistogramSnapshot; HistogramId::COUNT],
    slow_ops: Vec<SlowOp>,
}

impl Snapshot {
    /// Whether the registry was recording when the snapshot was taken.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The value of one counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// The value of one high-water gauge.
    pub fn max(&self, id: MaxId) -> u64 {
        self.maxes[id as usize]
    }

    /// One histogram.
    pub fn histogram(&self, id: HistogramId) -> &HistogramSnapshot {
        &self.histograms[id as usize]
    }

    /// The slow-op ring, oldest first.
    pub fn slow_ops(&self) -> &[SlowOp] {
        &self.slow_ops
    }

    /// Render as JSON with the stable field schema (see module docs).
    /// Keys appear in declaration order; a fresh registry renders a
    /// fully deterministic document (`fixtures/obs/schema.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"schema_version\": 1,\n");
        out.push_str(&format!("  \"enabled\": {},\n", self.enabled));
        out.push_str("  \"counters\": {\n");
        for (i, id) in CounterId::ALL.iter().enumerate() {
            let comma = if i + 1 < CounterId::COUNT { "," } else { "" };
            out.push_str(&format!("    \"{}\": {}{comma}\n", id.name(), self.counter(*id)));
        }
        out.push_str("  },\n  \"gauges\": {\n");
        for (i, id) in MaxId::ALL.iter().enumerate() {
            let comma = if i + 1 < MaxId::COUNT { "," } else { "" };
            out.push_str(&format!("    \"{}\": {}{comma}\n", id.name(), self.max(*id)));
        }
        out.push_str("  },\n  \"histograms\": {\n");
        for (i, id) in HistogramId::ALL.iter().enumerate() {
            let comma = if i + 1 < HistogramId::COUNT { "," } else { "" };
            let h = self.histogram(*id);
            out.push_str(&format!(
                "    \"{}\": {{ \"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {} }}{comma}\n",
                id.name(),
                h.count,
                h.sum,
                h.max,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            ));
        }
        out.push_str("  },\n  \"slow_ops\": [");
        for (i, op) in self.slow_ops.iter().enumerate() {
            let comma = if i + 1 < self.slow_ops.len() { "," } else { "" };
            let detail = match &op.detail {
                Some(d) => format!("\"{}\"", json_escape(d)),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "\n    {{ \"seq\": {}, \"op\": \"{}\", \"ns\": {}, \"detail\": {detail} }}{comma}",
                op.seq, op.op, op.ns
            ));
        }
        if !self.slow_ops.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Render as aligned human-readable text.
    pub fn to_text(&self) -> String {
        let width = CounterId::ALL
            .iter()
            .map(|id| id.name().len())
            .chain(MaxId::ALL.iter().map(|id| id.name().len()))
            .chain(HistogramId::ALL.iter().map(|id| id.name().len()))
            .max()
            .unwrap_or(0);
        let mut out = String::with_capacity(2048);
        out.push_str(&format!("metrics ({})\n", if self.enabled { "enabled" } else { "disabled" }));
        for id in CounterId::ALL {
            out.push_str(&format!("{:<width$}  {}\n", id.name(), self.counter(id)));
        }
        for id in MaxId::ALL {
            out.push_str(&format!("{:<width$}  {}\n", id.name(), self.max(id)));
        }
        for id in HistogramId::ALL {
            let h = self.histogram(id);
            out.push_str(&format!(
                "{:<width$}  count={} mean={}ns p99={}ns max={}ns\n",
                id.name(),
                h.count,
                h.mean(),
                h.quantile(0.99),
                h.max,
            ));
        }
        for op in &self.slow_ops {
            out.push_str(&format!(
                "slow #{}: {} took {:.3}ms{}\n",
                op.seq,
                op.op,
                op.ns as f64 / 1e6,
                op.detail.as_deref().map(|d| format!(" ({d})")).unwrap_or_default(),
            ));
        }
        out
    }
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-global registry (enabled by default). Low-level crates
/// with no injection seam — the parser, the string-value memo, the
/// durable VFS — record here; `Database` defaults to it too, so a
/// default database's `metrics()` sees every family.
pub fn global() -> &'static Registry {
    global_arc_ref()
}

/// The process-global registry as a cloneable [`Arc`], for components
/// that hold their registry (`Database`, `ContentModelCache`).
pub fn global_arc() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}

fn global_arc_ref() -> &'static Registry {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = Registry::new();
        reg.incr(CounterId::ParseDocuments);
        reg.add(CounterId::ParseBytes, 100);
        reg.add(CounterId::ParseBytes, 23);
        reg.record_max(MaxId::ParseDepthHighWater, 5);
        reg.record_max(MaxId::ParseDepthHighWater, 3);
        let s = reg.snapshot();
        assert_eq!(s.counter(CounterId::ParseDocuments), 1);
        assert_eq!(s.counter(CounterId::ParseBytes), 123);
        assert_eq!(s.max(MaxId::ParseDepthHighWater), 5);
    }

    #[test]
    fn disabled_registry_records_nothing_and_spans_are_disarmed() {
        let reg = Registry::disabled();
        reg.incr(CounterId::ParseDocuments);
        reg.record_max(MaxId::ParseDepthHighWater, 9);
        reg.observe(HistogramId::DbInsert, Duration::from_millis(50));
        {
            let mut span = reg.span(HistogramId::DbQuery);
            span.set_detail("never recorded");
        }
        let s = reg.snapshot();
        assert!(!s.enabled());
        for id in CounterId::ALL {
            assert_eq!(s.counter(id), 0, "{}", id.name());
        }
        for id in MaxId::ALL {
            assert_eq!(s.max(id), 0, "{}", id.name());
        }
        for id in HistogramId::ALL {
            assert_eq!(s.histogram(id).count, 0, "{}", id.name());
        }
        assert!(s.slow_ops().is_empty());
        // Re-enabling starts recording without losing the structure.
        reg.set_enabled(true);
        reg.incr(CounterId::ParseDocuments);
        assert_eq!(reg.snapshot().counter(CounterId::ParseDocuments), 1);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let reg = Registry::new();
        for ns in [100u64, 200, 300, 400, 100_000] {
            reg.observe(HistogramId::DbInsert, Duration::from_nanos(ns));
        }
        let h = reg.snapshot().histogram(HistogramId::DbInsert).clone();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 101_000);
        assert_eq!(h.max, 100_000);
        assert_eq!(h.mean(), 20_200);
        // p50 falls in the bucket of 200–300 ([256,512) ∪ [128,256)):
        // rank 3 of 5 lands in bucket 8 ([256,511]).
        assert_eq!(h.quantile(0.5), 511);
        // p99 → rank 5 → bucket of 100_000 = [65536,131071].
        assert_eq!(h.quantile(0.99), 131_071);
        // rank clamps to 1 → bucket of 100 = [64,127].
        assert_eq!(h.quantile(0.0), 127);
    }

    #[test]
    fn spans_record_and_slow_ops_ring_is_bounded() {
        let reg = Registry::new();
        reg.set_slow_threshold(HistogramId::DbQuery, Some(Duration::ZERO));
        reg.set_slow_capacity(4);
        for i in 0..10 {
            let mut span = reg.span(HistogramId::DbQuery);
            span.set_detail(format!("op {i}"));
        }
        let s = reg.snapshot();
        assert_eq!(s.histogram(HistogramId::DbQuery).count, 10);
        let slow = s.slow_ops();
        assert_eq!(slow.len(), 4, "ring keeps only the newest entries");
        assert_eq!(slow[0].seq, 7);
        assert_eq!(slow[3].seq, 10);
        assert_eq!(slow[3].detail.as_deref(), Some("op 9"));
        assert!(slow.iter().all(|op| op.op == "db.query_ns"));
    }

    #[test]
    fn slow_threshold_none_disables_logging() {
        let reg = Registry::new();
        reg.set_slow_threshold(HistogramId::DbInsert, None);
        reg.observe(HistogramId::DbInsert, Duration::from_secs(3600));
        assert!(reg.snapshot().slow_ops().is_empty());
    }

    #[test]
    fn json_export_is_schema_stable_and_escapes_details() {
        let empty = Registry::new().snapshot().to_json();
        assert!(empty.contains("\"schema_version\": 1"));
        assert!(empty.contains("\"parse.documents_total\": 0"));
        assert!(empty.contains("\"db.insert_ns\""));
        assert!(empty.contains("\"slow_ops\": []"));

        let reg = Registry::new();
        reg.set_slow_threshold(HistogramId::DbXquery, Some(Duration::ZERO));
        {
            let mut span = reg.span(HistogramId::DbXquery);
            span.set_detail("say \"hi\"\n");
        }
        let populated = reg.snapshot().to_json();
        assert!(populated.contains(r#""detail": "say \"hi\"\n""#), "{populated}");
        // Key sets agree between empty and populated exports.
        assert_eq!(json_keys(&empty), json_keys(&populated));
    }

    #[test]
    fn text_export_mentions_every_family() {
        let text = Registry::new().snapshot().to_text();
        for id in CounterId::ALL {
            assert!(text.contains(id.name()), "{}", id.name());
        }
        for id in HistogramId::ALL {
            assert!(text.contains(id.name()), "{}", id.name());
        }
    }

    #[test]
    fn global_registry_is_shared() {
        assert!(Arc::ptr_eq(&global_arc(), &global_arc()));
        assert!(std::ptr::eq(global(), global_arc().as_ref() as *const Registry));
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let reg = Arc::new(Registry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    for _ in 0..1000 {
                        reg.incr(CounterId::CmCacheLookups);
                        reg.observe(HistogramId::DbValidate, Duration::from_nanos(42));
                    }
                });
            }
        });
        let s = reg.snapshot();
        assert_eq!(s.counter(CounterId::CmCacheLookups), 8000);
        assert_eq!(s.histogram(HistogramId::DbValidate).count, 8000);
        assert_eq!(s.histogram(HistogramId::DbValidate).sum, 8000 * 42);
    }

    /// The `"key":` tokens of a JSON document, in order (used to assert
    /// the export schema is invariant under recorded data).
    fn json_keys(json: &str) -> Vec<String> {
        json.lines()
            .filter_map(|l| {
                let t = l.trim_start();
                let rest = t.strip_prefix('"')?;
                let (key, tail) = rest.split_once('"')?;
                tail.starts_with(':').then(|| key.to_string())
            })
            .collect()
    }
}
