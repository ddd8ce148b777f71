//! The XML database: schemas, documents, queries, and updates, built on
//! the state algebra.
//!
//! §6.1 opens: "Because of frequent insertion of new documents, updating
//! existing documents and deleting obsolete documents, a database evolves
//! through different database states. Each state can be formally
//! represented as a many sorted algebra." [`Database`] is that evolving
//! object. Each stored document has exactly one form, the §9 block
//! storage. Inserting is one streaming pass: the pull parser's events run
//! through the §6.2 core ([`algebra::PushValidator`]), which hands the
//! valid instance's nodes straight to a [`storage::StorageBuilder`], so
//! no DOM or XDM tree is ever built. Validating is the same pass with no
//! sink, and revalidating a stored document walks its descriptors into
//! the core. Queries, updates and `g` (serialization) read the node
//! descriptors directly — §9.2's claim that descriptors plus the
//! descriptive schema answer every accessor.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use algebra::{validate_text, ContentModelCache, LoadOptions, ValidationError};
use storage::{DescPtr, XmlStorage};
use xmlparse::ParseLimits;
use xsmodel::DocumentSchema;

use crate::error::{catch_panic, DbError};
use crate::mutation::ApplyOutcome;
use crate::physical::{build_storage, storage_to_document, validate_storage};
use crate::update::{self, UpdateOutcome};

/// One stored document: its §9 block storage and the schema it
/// validated against.
#[derive(Debug, Clone)]
pub struct StoredDocument {
    /// The schema it validated against.
    pub schema_name: String,
    /// §9 block storage — the document's only stored form.
    pub storage: XmlStorage,
}

/// A mutation computed against one database state and not yet
/// installed: what [`crate::Mutation::prepare`] returns and
/// [`Database::commit`] installs. §6.1 makes a mutation a function from
/// one state to the next, so its value is computed first — parse, `f`,
/// the storage build, an update's apply-on-copy — and installing it is
/// one map insert or removal. It keeps the `Arc`s its preparation read,
/// so a commit can tell whether they are still installed.
#[derive(Debug)]
pub struct Prepared {
    effect: Effect,
    outcome: ApplyOutcome,
}

/// What installing a [`Prepared`] changes, with what its preparation
/// read.
#[derive(Debug)]
enum Effect {
    /// Register `schema` under the absent name `name`.
    RegisterSchema { name: String, schema: Arc<DocumentSchema> },
    /// Remove `schema`, registered as `name` and validating no document.
    RemoveSchema { name: String, schema: Arc<DocumentSchema> },
    /// Install `post` as `name` over `pre` (`None`: the name was
    /// absent), validated against `schema`.
    Put {
        name: String,
        pre: Option<Arc<StoredDocument>>,
        schema: Arc<DocumentSchema>,
        post: Arc<StoredDocument>,
    },
    /// Remove `pre`, stored as `name`.
    Delete { name: String, pre: Arc<StoredDocument> },
}

impl Prepared {
    /// A new document `doc_name`, built against `schema`.
    fn inserted(
        doc_name: &str,
        schema_name: &str,
        schema: &Arc<DocumentSchema>,
        storage: XmlStorage,
    ) -> Prepared {
        let post = StoredDocument { schema_name: schema_name.to_string(), storage };
        Prepared {
            effect: Effect::Put {
                name: doc_name.to_string(),
                pre: None,
                schema: Arc::clone(schema),
                post: Arc::new(post),
            },
            outcome: ApplyOutcome::Inserted,
        }
    }
}

/// [`Database::commit`]'s refusal: another commit replaced something the
/// preparation read since it was prepared. Prepare again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stale;

impl std::fmt::Display for Stale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the state a preparation read has since been replaced")
    }
}

impl std::error::Error for Stale {}

/// An XML database over the formal model: one §6.1 state, a plain value.
/// A clone shares every document, schema and cache by `Arc`, so a
/// mutation of the clone leaves the original observing its own state.
#[derive(Debug, Clone)]
pub struct Database {
    schemas: BTreeMap<String, Arc<DocumentSchema>>,
    /// Stored documents behind `Arc` so a snapshot of the whole
    /// database is a cheap map clone: an update edits a private clone
    /// and commits it by replacing the `Arc`, so a snapshot taken before
    /// it keeps observing the pre-update document forever (the MVCC
    /// readers of [`crate::SharedDatabase`] depend on exactly this). The
    /// copy is block-granular: cloning an [`XmlStorage`] copies one
    /// pointer per §9.2 block and location segment, the edit then copies
    /// only the blocks and segments it dirties, and the snapshot and the
    /// new state share every other block.
    documents: BTreeMap<String, Arc<StoredDocument>>,
    options: LoadOptions,
    /// Hostile-input bounds applied to every XML text this database
    /// parses — [`Database::insert`], [`Database::validate`], their bulk
    /// variants, and documents replayed by [`Database::load_dir`]. The
    /// default is [`ParseLimits::default`], which is generous for
    /// well-behaved producers but bounds depth, input size, attribute
    /// floods, and entity expansion.
    limits: ParseLimits,
    /// When on, registration runs the `xsanalyze` passes and refuses any
    /// schema carrying an error-severity diagnostic (ambiguous content
    /// model, unsatisfiable type, …), and `query`/`xquery` pre-flight the
    /// expression against the document's schema, refusing statically
    /// empty paths before evaluation.
    strict_analysis: bool,
    /// Compiled content models, shared by every load/validate this
    /// database performs — including the worker threads of
    /// [`Database::validate_many`] / [`Database::load_many`]. Each
    /// distinct group definition is compiled once per database lifetime;
    /// the cache is keyed structurally, so it is never invalidated by
    /// inserting or deleting documents (only registering a *different*
    /// schema adds entries).
    cm_cache: Arc<ContentModelCache>,
    /// Where this database's operations record their metrics: latency
    /// spans, strict-analysis rejections, persistence activity, and the
    /// content-model cache traffic. Defaults to the process-global
    /// registry; see [`Database::with_metrics_registry`].
    obs: Arc<xsobs::Registry>,
    /// The last write-ahead-log sequence number folded into this state
    /// (0 when no log is attached). A save stamps it into every catalog
    /// it writes, so recovery skips the records already on disk.
    pub(crate) wal_epoch: u64,
}

impl Default for Database {
    fn default() -> Self {
        Database::with_metrics_registry(xsobs::global_arc())
    }
}

impl Database {
    /// An empty database with paper-faithful validation options.
    pub fn new() -> Self {
        Database::default()
    }

    /// An empty database recording its metrics into `obs` instead of the
    /// process-global registry. The content-model cache is wired to the
    /// same registry. Note that process-wide low-level families
    /// (`parse.*`, `xdm.*`, `persist.fsyncs_total`, automaton and UPA
    /// counters, `analysis.*` timings) always record globally — an
    /// injected registry isolates the per-database families only.
    pub fn with_metrics_registry(obs: Arc<xsobs::Registry>) -> Self {
        Database {
            schemas: BTreeMap::new(),
            documents: BTreeMap::new(),
            options: LoadOptions::default(),
            limits: ParseLimits::default(),
            strict_analysis: false,
            cm_cache: Arc::new(ContentModelCache::with_registry(Arc::clone(&obs))),
            obs,
            wal_epoch: 0,
        }
    }

    /// A point-in-time snapshot of this database's metrics registry —
    /// counters (cache hits/misses, strict rejections, persistence),
    /// high-water gauges, latency histograms, and the slow-op log. For a
    /// default database this is a view of the process-global registry.
    pub fn metrics(&self) -> xsobs::Snapshot {
        self.obs.snapshot()
    }

    /// The metrics registry this database records into (to toggle
    /// recording or tune slow-op thresholds).
    pub fn metrics_registry(&self) -> &xsobs::Registry {
        &self.obs
    }

    /// The metrics registry as a cloneable handle, for components that
    /// outlive a borrow of the database (the shared-database layer, a
    /// network server).
    pub fn metrics_registry_arc(&self) -> Arc<xsobs::Registry> {
        Arc::clone(&self.obs)
    }

    /// An empty database with explicit [`LoadOptions`].
    pub fn with_options(options: LoadOptions) -> Self {
        Database { options, ..Database::default() }
    }

    /// An empty database enforcing explicit [`ParseLimits`] on every
    /// XML text it parses.
    pub fn with_limits(limits: ParseLimits) -> Self {
        Database { limits, ..Database::default() }
    }

    /// The parse limits this database enforces.
    pub fn limits(&self) -> &ParseLimits {
        &self.limits
    }

    /// An empty database with strict static analysis switched on: schema
    /// registration rejects error-severity diagnostics
    /// ([`DbError::SchemaRejected`]) and queries are pre-flighted against
    /// the schema ([`DbError::QueryStaticallyEmpty`]).
    pub fn with_strict_analysis() -> Self {
        Database { strict_analysis: true, ..Database::default() }
    }

    /// Switch strict static analysis on or off. Already-registered
    /// schemas are not re-checked; the flag governs future registrations
    /// and queries.
    pub fn set_strict_analysis(&mut self, on: bool) {
        self.strict_analysis = on;
    }

    /// Whether strict static analysis is on.
    pub fn strict_analysis(&self) -> bool {
        self.strict_analysis
    }

    // --------------------------------------------------------- schemas

    /// Register a schema from XSD text. The schema is parsed (§2–3
    /// abstract syntax) and checked for well-formedness before
    /// registration.
    pub fn register_schema_text(&mut self, name: &str, xsd: &str) -> Result<(), DbError> {
        let schema = xsmodel::parse_schema_text(xsd)?;
        self.register_schema(name, schema)
    }

    /// Register an already-built schema.
    pub fn register_schema(&mut self, name: &str, schema: DocumentSchema) -> Result<(), DbError> {
        let prepared = self.prepare_register_schema(name, schema)?;
        self.commit_current(prepared)?;
        Ok(())
    }

    /// Remove a registered schema.
    ///
    /// Refuses with [`DbError::SchemaInUse`] while any stored document
    /// still validates against it — deleting the documents first (or
    /// never having inserted any) is the only way to retire a schema,
    /// so the referential invariant *every stored document's schema is
    /// registered* can never break. Returns
    /// [`DbError::UnknownSchema`] when no schema has this name.
    pub fn remove_schema(&mut self, name: &str) -> Result<(), DbError> {
        let prepared = self.prepare_remove_schema(name)?;
        self.commit_current(prepared)?;
        Ok(())
    }

    /// Look up a registered schema.
    pub fn schema(&self, name: &str) -> Option<&DocumentSchema> {
        self.schemas.get(name).map(Arc::as_ref)
    }

    /// Names of all registered schemas.
    pub fn schema_names(&self) -> impl Iterator<Item = &str> {
        self.schemas.keys().map(String::as_str)
    }

    // ------------------------------------------------------- documents

    /// Insert a document from XML text, validating it against the named
    /// schema (the paper's `f`).
    pub fn insert(&mut self, doc_name: &str, schema_name: &str, xml: &str) -> Result<(), DbError> {
        let prepared = self.prepare_insert(doc_name, schema_name, xml)?;
        self.commit_current(prepared)?;
        Ok(())
    }

    /// The stored documents, for the persistence layer.
    pub(crate) fn doc_registry(&self) -> &BTreeMap<String, Arc<StoredDocument>> {
        &self.documents
    }

    /// The registered schemas, for the persistence layer.
    pub(crate) fn schema_registry(&self) -> &BTreeMap<String, Arc<DocumentSchema>> {
        &self.schemas
    }

    /// Validate text against a registered schema without storing it.
    pub fn validate(&self, schema_name: &str, xml: &str) -> Result<Vec<ValidationError>, DbError> {
        let schema = self
            .schemas
            .get(schema_name)
            .ok_or_else(|| DbError::UnknownSchema(schema_name.to_string()))?;
        let _span = self.obs.span(xsobs::HistogramId::DbValidate);
        validate_guarded(schema, xml, &self.options, &self.limits, &self.cm_cache, &self.obs)
    }

    /// Validate a batch of documents against one registered schema,
    /// fanning the work across `threads` OS threads (`0` = one per
    /// available core). Returns one entry per input, in input order,
    /// with exactly the value [`Database::validate`] would have
    /// produced for that document — worker scheduling never changes
    /// verdicts, error rules, or error order within a document.
    ///
    /// Worker threads share this database's content-model cache, so
    /// each distinct group definition in the schema is compiled at most
    /// once for the whole batch.
    pub fn validate_many(
        &self,
        schema_name: &str,
        xmls: &[&str],
        threads: usize,
    ) -> Result<Vec<Result<Vec<ValidationError>, DbError>>, DbError> {
        let schema = self
            .schemas
            .get(schema_name)
            .ok_or_else(|| DbError::UnknownSchema(schema_name.to_string()))?;
        let options = &self.options;
        let cache = &self.cm_cache;
        let limits = &self.limits;
        let obs = &self.obs;
        Ok(run_parallel(xmls.len(), threads, |i| {
            let _span = obs.span(xsobs::HistogramId::DbValidate);
            validate_guarded(schema, xmls[i], options, limits, cache, obs)
        }))
    }

    /// Insert a batch of `(document name, schema name, xml)` triples.
    /// Each entry is prepared as an insert (parse, `f`, the storage
    /// build) on `threads` OS threads (`0` = one per available core)
    /// against the state before the batch; the preparations then commit
    /// in input order, and one whose commit is stale or which was
    /// refused after an earlier entry committed is prepared again, so
    /// every outcome is exactly what [`Database::insert`] in input order
    /// would return: the first occurrence of a name wins, later ones
    /// report [`DbError::DuplicateDocument`]. Returns one outcome per
    /// input, in input order; a failed document never partially inserts.
    pub fn load_many(
        &mut self,
        entries: &[(&str, &str, &str)],
        threads: usize,
    ) -> Vec<Result<(), DbError>> {
        let mut outcomes = Vec::with_capacity(entries.len());
        let mut changed = false;
        let done: ControlFlow<Infallible> = self.prepare_then_commit(
            entries.len(),
            threads,
            |db, i| {
                let (name, schema_name, xml) = entries[i];
                db.prepare_insert(name, schema_name, xml)
            },
            |db, i, prepared| {
                let (name, schema_name, xml) = entries[i];
                let outcome = match db.commit_speculative(prepared, changed) {
                    Some(verdict) => verdict.map(drop),
                    None => db.insert(name, schema_name, xml),
                };
                changed |= outcome.is_ok();
                outcomes.push(outcome);
                ControlFlow::Continue(())
            },
        );
        let ControlFlow::Continue(()) = done;
        outcomes
    }

    /// The prepare-in-parallel, commit-in-order pattern behind
    /// [`Database::load_many`], the checkpoint load and the recovery
    /// waves: `prepare(self, i)` runs for every `i < jobs` on `threads`
    /// OS threads (`0` = one per available core) against this state as
    /// it stands, then `commit(self, i, prepared)` runs in index order
    /// with the database mutable, until one breaks.
    pub(crate) fn prepare_then_commit<P: Send, B>(
        &mut self,
        jobs: usize,
        threads: usize,
        prepare: impl Fn(&Database, usize) -> P + Sync,
        mut commit: impl FnMut(&mut Database, usize, P) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let prepared = run_parallel(jobs, threads, |i| prepare(self, i));
        for (i, p) in prepared.into_iter().enumerate() {
            commit(self, i, p)?;
        }
        ControlFlow::Continue(())
    }

    /// The shared compiled-content-model cache (for statistics).
    pub fn content_model_cache(&self) -> &ContentModelCache {
        &self.cm_cache
    }

    /// Access a stored document.
    pub fn document(&self, name: &str) -> Option<&StoredDocument> {
        self.documents.get(name).map(Arc::as_ref)
    }

    /// Serialize a stored document back to XML text (the paper's `g`).
    pub fn serialize(&self, name: &str) -> Result<String, DbError> {
        let doc =
            self.documents.get(name).ok_or_else(|| DbError::UnknownDocument(name.to_string()))?;
        Ok(storage_to_document(&doc.storage)?.to_xml())
    }

    /// Pretty-printed serialization.
    pub fn serialize_pretty(&self, name: &str) -> Result<String, DbError> {
        let doc =
            self.documents.get(name).ok_or_else(|| DbError::UnknownDocument(name.to_string()))?;
        Ok(storage_to_document(&doc.storage)?.to_xml_pretty())
    }

    /// Delete a document. Returns `true` when it existed.
    pub fn delete(&mut self, name: &str) -> bool {
        self.prepare_delete(name).is_ok_and(|prepared| self.commit_current(prepared).is_ok())
    }

    /// Names of all stored documents.
    pub fn document_names(&self) -> impl Iterator<Item = &str> {
        self.documents.keys().map(String::as_str)
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    // --------------------------------------------------------- updates

    /// Re-run whole-document §6.2 validation of a stored document
    /// against its schema. Returns the violations. Every committed state
    /// is valid — insertion runs `f`, and [`Database::execute_update`]
    /// commits only what its static check and local recheck passed — so
    /// this is an audit: the full pass the local recheck is measured
    /// against.
    ///
    /// Re-validation reuses the database's compiled content models, so
    /// only the document pass itself is repeated — no automata are
    /// recompiled.
    pub fn revalidate(&self, doc_name: &str) -> Result<Vec<ValidationError>, DbError> {
        let doc = self
            .documents
            .get(doc_name)
            .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
        let schema = self
            .schemas
            .get(&doc.schema_name)
            .ok_or_else(|| DbError::UnknownSchema(doc.schema_name.clone()))?;
        validate_storage(schema, &doc.storage, &self.options, &self.cm_cache)
    }

    /// Execute an XQuery-Update-lite expression (`insert node … into …`,
    /// `delete node …`, `replace value of node … with …`, …) with static
    /// type-checking: the update is analyzed against the document's
    /// schema *before* it runs ([`xsanalyze::analyze_update`]). This is
    /// the only way to change a stored document's content.
    ///
    /// * **Accept** — provably schema-safe: applied with **no**
    ///   revalidation at all.
    /// * **Reject** — provably invalid: refused with
    ///   [`DbError::UpdateStaticallyInvalid`] before touching the tree.
    /// * **Recheck** — undecidable: applied, then only the affected
    ///   content models are revalidated; a violation returns
    ///   [`DbError::Invalid`] and the document is left as it was.
    ///
    /// Every target is resolved on the pre-state and the edit runs on a
    /// private copy that is committed only once it passed (see the
    /// `update` module); a target of the wrong kind refuses the whole
    /// update with a [`DbError::XQuery`] naming the XQuery Update
    /// Facility error code (XUTY0005, XUTY0006 or XUTY0008).
    pub fn execute_update(
        &mut self,
        doc_name: &str,
        update: &str,
    ) -> Result<UpdateOutcome, DbError> {
        let upd = xquery::parse_update(update)?;
        self.execute_update_expr(doc_name, &upd)
    }

    /// [`Database::execute_update`] over an already-parsed expression.
    pub fn execute_update_expr(
        &mut self,
        doc_name: &str,
        upd: &xquery::UpdateExpr,
    ) -> Result<UpdateOutcome, DbError> {
        let (outcome, prepared) = self.prepare_update(doc_name, upd)?;
        self.commit_current(prepared)?;
        Ok(outcome)
    }

    /// The nodes the target path of `upd` selects in the stored document
    /// `doc_name`, in document order: what [`Database::execute_update`]
    /// resolves on the pre-state before its target-kind checks. The path
    /// runs as a planned [`xquery::QueryPlan`], exactly as `QUERY` runs
    /// it.
    ///
    /// # Errors
    /// [`DbError::UnknownDocument`] when no document is stored as
    /// `doc_name`.
    pub fn update_targets(
        &self,
        doc_name: &str,
        upd: &xquery::UpdateExpr,
    ) -> Result<Vec<DescPtr>, DbError> {
        let doc = self
            .documents
            .get(doc_name)
            .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
        let storage = &doc.storage;
        Ok(self.plan_for(storage, upd.target()).execute(storage).nodes)
    }

    // ------------------------------------------------ prepare and commit

    /// Prepare registering `schema` under `name`: the duplicate-name,
    /// well-formedness and (under strict analysis) static checks.
    pub(crate) fn prepare_register_schema(
        &self,
        name: &str,
        schema: DocumentSchema,
    ) -> Result<Prepared, DbError> {
        if self.schemas.contains_key(name) {
            return Err(DbError::DuplicateSchema(name.to_string()));
        }
        let issues = xsmodel::check(&schema);
        if !issues.is_empty() {
            return Err(DbError::SchemaNotWellFormed(issues));
        }
        if self.strict_analysis {
            let diags = xsanalyze::analyze_schema(&schema);
            if xsanalyze::max_severity(&diags) == Some(xsanalyze::Severity::Error) {
                self.obs.incr(xsobs::CounterId::StrictSchemaRejections);
                return Err(DbError::SchemaRejected(diags));
            }
        }
        Ok(Prepared {
            effect: Effect::RegisterSchema { name: name.to_string(), schema: Arc::new(schema) },
            outcome: ApplyOutcome::Registered,
        })
    }

    /// Prepare removing the schema `name`: it must exist and no stored
    /// document may validate against it.
    pub(crate) fn prepare_remove_schema(&self, name: &str) -> Result<Prepared, DbError> {
        let schema =
            self.schemas.get(name).ok_or_else(|| DbError::UnknownSchema(name.to_string()))?;
        let documents = self.documents_of(name);
        if !documents.is_empty() {
            return Err(DbError::SchemaInUse { schema: name.to_string(), documents });
        }
        Ok(Prepared {
            effect: Effect::RemoveSchema { name: name.to_string(), schema: Arc::clone(schema) },
            outcome: ApplyOutcome::Removed,
        })
    }

    /// The names of the stored documents validated against `schema`.
    fn documents_of(&self, schema: &str) -> Vec<String> {
        self.documents
            .iter()
            .filter(|(_, d)| d.schema_name == schema)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Prepare inserting `xml` as `doc_name`: the duplicate-name and
    /// unknown-schema checks, then one streaming pass that parses, runs
    /// `f` and builds the block storage.
    pub(crate) fn prepare_insert(
        &self,
        doc_name: &str,
        schema_name: &str,
        xml: &str,
    ) -> Result<Prepared, DbError> {
        let schema = self.insert_target(doc_name, schema_name)?;
        let mut span = self.obs.span(xsobs::HistogramId::DbInsert);
        span.set_detail(doc_name);
        let storage = build_storage(schema, xml, &self.options, &self.limits, &self.cm_cache)?;
        Ok(Prepared::inserted(doc_name, schema_name, schema, storage))
    }

    /// Re-check a document decoded from the paged on-disk form against
    /// the registered schema `schema_name`: §6.2 validation of a walk of
    /// its descriptors. Reads only the schema registry, so the
    /// checkpoint load runs it for every document at once.
    pub(crate) fn check_decoded(
        &self,
        doc_name: &str,
        schema_name: &str,
        storage: &XmlStorage,
    ) -> Result<Vec<ValidationError>, DbError> {
        let schema = self
            .schemas
            .get(schema_name)
            .ok_or_else(|| DbError::UnknownSchema(schema_name.to_string()))?;
        let mut span = self.obs.span(xsobs::HistogramId::DbInsert);
        span.set_detail(doc_name);
        validate_storage(schema, storage, &self.options, &self.cm_cache)
    }

    /// Prepare admitting a decoded document that [`Database::check_decoded`]
    /// checked: the duplicate-name and unknown-schema checks first, then
    /// the check's verdict. The *decoded* block storage is what the
    /// database keeps, so later incremental saves stay aligned with the
    /// page layout on disk.
    pub(crate) fn prepare_decoded(
        &self,
        doc_name: &str,
        schema_name: &str,
        storage: XmlStorage,
        checked: Result<Vec<ValidationError>, DbError>,
    ) -> Result<Prepared, DbError> {
        let schema = self.insert_target(doc_name, schema_name)?;
        let violations = checked?;
        if !violations.is_empty() {
            return Err(DbError::Invalid(violations));
        }
        Ok(Prepared::inserted(doc_name, schema_name, schema, storage))
    }

    /// The schema a new document `doc_name` would validate against,
    /// after the duplicate-name and unknown-schema checks.
    fn insert_target(
        &self,
        doc_name: &str,
        schema_name: &str,
    ) -> Result<&Arc<DocumentSchema>, DbError> {
        if self.documents.contains_key(doc_name) {
            return Err(DbError::DuplicateDocument(doc_name.to_string()));
        }
        self.schemas.get(schema_name).ok_or_else(|| DbError::UnknownSchema(schema_name.to_string()))
    }

    /// Prepare deleting `doc_name`, which must be stored.
    pub(crate) fn prepare_delete(&self, doc_name: &str) -> Result<Prepared, DbError> {
        let pre = self
            .documents
            .get(doc_name)
            .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
        Ok(Prepared {
            effect: Effect::Delete { name: doc_name.to_string(), pre: Arc::clone(pre) },
            outcome: ApplyOutcome::Deleted,
        })
    }

    /// Prepare the update `upd` of `doc_name`: the static verdict, then
    /// resolve ([`Database::update_targets`]) → check → copy → edit →
    /// recheck on the pre-state (see the `update` module). A refusal is
    /// counted here, where it is final; a success is counted when it
    /// commits, since a stale preparation is prepared again.
    pub(crate) fn prepare_update(
        &self,
        doc_name: &str,
        upd: &xquery::UpdateExpr,
    ) -> Result<(UpdateOutcome, Prepared), DbError> {
        let Some(pre) = self.documents.get(doc_name) else {
            self.count_update(None);
            return Err(DbError::UnknownDocument(doc_name.to_string()));
        };
        let Some(schema) = self.schemas.get(&pre.schema_name) else {
            self.count_update(None);
            return Err(DbError::UnknownSchema(pre.schema_name.clone()));
        };
        let analysis = xsanalyze::analyze_update(schema, upd);
        if analysis.verdict == xsanalyze::UpdateVerdict::Reject {
            self.count_update(Some(analysis.verdict));
            return Err(DbError::UpdateStaticallyInvalid(analysis.diagnostics));
        }
        let cx = update::Recheck {
            schema,
            options: &self.options,
            cm_cache: &self.cm_cache,
            obs: &self.obs,
        };
        let found = self.update_targets(doc_name, upd)?;
        let (outcome, storage) = update::apply(&pre.storage, upd, found, analysis.verdict, &cx)
            .inspect_err(|_| self.count_update(Some(analysis.verdict)))?;
        let post = StoredDocument { schema_name: pre.schema_name.clone(), storage };
        let prepared = Prepared {
            effect: Effect::Put {
                name: doc_name.to_string(),
                pre: Some(Arc::clone(pre)),
                schema: Arc::clone(schema),
                post: Arc::new(post),
            },
            outcome: ApplyOutcome::UpdatedChecked(outcome),
        };
        Ok((outcome, prepared))
    }

    /// Count one update request under the `update.*` counters: every
    /// request is a check, and one that reached the static analysis
    /// also counts under its verdict.
    fn count_update(&self, verdict: Option<xsanalyze::UpdateVerdict>) {
        self.obs.incr(xsobs::CounterId::UpdateChecks);
        if let Some(verdict) = verdict {
            self.obs.incr(match verdict {
                xsanalyze::UpdateVerdict::Accept => xsobs::CounterId::UpdateAccepted,
                xsanalyze::UpdateVerdict::Recheck => xsobs::CounterId::UpdateRechecked,
                xsanalyze::UpdateVerdict::Reject => xsobs::CounterId::UpdateRejected,
            });
        }
    }

    /// Whether everything `prepared` read is still installed: the slot
    /// it replaces holds the same `Arc` (or is still empty), and the
    /// schema a new document state validated against is still the one
    /// registered. A preparation that is current commits to exactly the
    /// state preparing it against this database would produce.
    pub(crate) fn is_current(&self, prepared: &Prepared) -> bool {
        let same =
            |installed: Option<&Arc<StoredDocument>>, read: Option<&Arc<StoredDocument>>| match (
                installed, read,
            ) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
        match &prepared.effect {
            Effect::RegisterSchema { name, .. } => !self.schemas.contains_key(name),
            Effect::RemoveSchema { name, schema } => {
                self.schemas.get(name).is_some_and(|s| Arc::ptr_eq(s, schema))
                    && self.documents_of(name).is_empty()
            }
            Effect::Put { name, pre, schema, post } => {
                same(self.documents.get(name), pre.as_ref())
                    && self.schemas.get(&post.schema_name).is_some_and(|s| Arc::ptr_eq(s, schema))
            }
            Effect::Delete { name, pre } => same(self.documents.get(name), Some(pre)),
        }
    }

    /// Install a preparation: check that everything it read is still
    /// installed, then make its effect with one map insert or removal.
    /// Commit has no other failure.
    ///
    /// # Errors
    /// [`Stale`] when another commit replaced something the preparation
    /// read; prepare the mutation again against this state.
    pub fn commit(&mut self, prepared: Prepared) -> Result<ApplyOutcome, Stale> {
        if !self.is_current(&prepared) {
            return Err(Stale);
        }
        Ok(self.install(prepared))
    }

    /// Commit a preparation made against an earlier state of this
    /// database, in a batch that prepared every entry against the state
    /// before it (`changed`: whether an earlier entry has committed
    /// since). `None` when the verdict is not the one preparing against
    /// this state would give — the commit was [`Stale`], or a refusal
    /// was prepared before the state changed — and the entry must be
    /// prepared again; otherwise the committed outcome, or the refusal.
    pub(crate) fn commit_speculative(
        &mut self,
        prepared: Result<Prepared, DbError>,
        changed: bool,
    ) -> Option<Result<ApplyOutcome, DbError>> {
        match prepared {
            Ok(prepared) => self.commit(prepared).ok().map(Ok),
            Err(e) if !changed => Some(Err(e)),
            Err(_) => None,
        }
    }

    /// [`Database::commit`] of a preparation made against this very
    /// state, or found current under the lock that keeps it so. Stale is
    /// then a broken invariant, so it is reported, not retried.
    pub(crate) fn commit_current(&mut self, prepared: Prepared) -> Result<ApplyOutcome, DbError> {
        self.commit(prepared).map_err(|Stale| {
            DbError::Corrupt("a preparation went stale on the state it was checked against".into())
        })
    }

    /// Make a current preparation's effect.
    fn install(&mut self, prepared: Prepared) -> ApplyOutcome {
        match prepared.effect {
            Effect::RegisterSchema { name, schema } => drop(self.schemas.insert(name, schema)),
            Effect::RemoveSchema { name, .. } => drop(self.schemas.remove(&name)),
            Effect::Put { name, post, .. } => drop(self.documents.insert(name, post)),
            Effect::Delete { name, .. } => drop(self.documents.remove(&name)),
        }
        if let ApplyOutcome::UpdatedChecked(outcome) = prepared.outcome {
            self.count_update(Some(outcome.verdict));
        }
        prepared.outcome
    }

    // --------------------------------------------------------- queries

    /// Evaluate an XPath over a stored document, returning the string
    /// values of the selected nodes. Runs through the cost-based
    /// planner over the block storage (statistics-driven operator
    /// choice per step, DataGuide pruning of provably-empty paths); the
    /// plan-equivalence harness proves every plan returns the naive
    /// evaluator's node-set.
    pub fn query(&self, doc_name: &str, xpath: &str) -> Result<Vec<String>, DbError> {
        let doc = self
            .documents
            .get(doc_name)
            .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
        let path = xpath::parse(xpath)?;
        self.preflight_xpath(doc, &path)?;
        let mut span = self.obs.span(xsobs::HistogramId::DbQuery);
        span.set_detail(xpath);
        let storage = &doc.storage;
        let plan = self.plan_for(storage, &path);
        Ok(plan.execute(storage).nodes.into_iter().map(|p| storage.string_value(p)).collect())
    }

    /// Plan an XPath over a document's block storage:
    /// static pruning against the DataGuide
    /// ([`xsanalyze::analyze_xpath_in_guide`]), then cost-based operator
    /// choice from the DataGuide's cardinalities. Records the `plan.*` metrics
    /// family.
    fn plan_for(&self, storage: &XmlStorage, path: &xpath::Path) -> xquery::QueryPlan {
        let plan = {
            let _span = self.obs.span(xsobs::HistogramId::PlanBuild);
            let statically_empty =
                !xsanalyze::analyze_xpath_in_guide(storage.schema(), path).is_empty();
            xquery::plan(storage, path, &xquery::PlanOptions { force: None, statically_empty })
        };
        self.obs.incr(xsobs::CounterId::PlanQueries);
        if plan.pruned_from().is_some() {
            self.obs.incr(xsobs::CounterId::PlanPruned);
        } else {
            for sp in plan.steps() {
                self.obs.incr(match sp.strategy {
                    xquery::Strategy::Guided => xsobs::CounterId::PlanStepsGuided,
                    xquery::Strategy::SchemaPath => xsobs::CounterId::PlanStepsSchemaPath,
                });
            }
        }
        plan
    }

    /// `EXPLAIN`: plan an XPath over a stored document, execute the
    /// plan, and render the chosen strategy per step with estimated vs.
    /// actual cardinalities and work.
    pub fn explain_query(&self, doc_name: &str, xpath: &str) -> Result<String, DbError> {
        let doc = self
            .documents
            .get(doc_name)
            .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
        let path = xpath::parse(xpath)?;
        self.preflight_xpath(doc, &path)?;
        let plan = self.plan_for(&doc.storage, &path);
        let exec = plan.execute(&doc.storage);
        Ok(plan.explain(Some(&exec)))
    }

    /// Evaluate a FLWOR query (see the `xquery` crate) over a stored
    /// document, returning the serialized result sequence.
    ///
    /// The `for` source — or a bare path — runs as a planned
    /// [`xquery::QueryPlan`], exactly as `QUERY` runs it (DataGuide
    /// pruning, `plan.*` metrics, the staleness check). The rest reads the
    /// block storage through paths compiled on its DataGuide
    /// ([`xquery::execute_flwor`]); the result equals the generic
    /// evaluator's over the document's XDM tree, byte for byte.
    pub fn xquery(&self, doc_name: &str, query: &str) -> Result<String, DbError> {
        let doc = self
            .documents
            .get(doc_name)
            .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
        let q = xquery::parse_query(query)?;
        if self.strict_analysis {
            if let Some(schema) = self.schemas.get(&doc.schema_name) {
                let diags = xsanalyze::analyze_xquery(schema, &q);
                if !diags.is_empty() {
                    self.obs.incr(xsobs::CounterId::StrictQueryRejections);
                    return Err(DbError::QueryStaticallyEmpty(diags));
                }
            }
        }
        let mut span = self.obs.span(xsobs::HistogramId::DbXquery);
        span.set_detail(query);
        let storage = &doc.storage;
        let source = match &q {
            xquery::Query::Path(path) => path,
            xquery::Query::Flwor(flwor) => &flwor.source,
        };
        let nodes = self.plan_for(storage, source).execute(storage).nodes;
        Ok(match &q {
            xquery::Query::Path(_) => xquery::serialize_nodes(storage, &nodes),
            xquery::Query::Flwor(flwor) => xquery::execute_flwor(storage, flwor, &nodes)?,
        })
    }

    /// Strict-mode pre-flight: refuse an XPath any step of which is
    /// statically empty against the document's schema. A no-op unless
    /// [`Database::set_strict_analysis`] is on.
    fn preflight_xpath(&self, doc: &StoredDocument, path: &xpath::Path) -> Result<(), DbError> {
        if !self.strict_analysis {
            return Ok(());
        }
        if let Some(schema) = self.schemas.get(&doc.schema_name) {
            let diags = xsanalyze::analyze_xpath(schema, path);
            if !diags.is_empty() {
                self.obs.incr(xsobs::CounterId::StrictQueryRejections);
                return Err(DbError::QueryStaticallyEmpty(diags));
            }
        }
        Ok(())
    }
}

/// [`validate_text`] for `VALIDATE` and [`Database::validate_many`], with
/// a panic in the core turned into [`DbError::Panicked`]: hostile input
/// must not take the caller's thread down with it.
fn validate_guarded(
    schema: &DocumentSchema,
    xml: &str,
    options: &LoadOptions,
    limits: &ParseLimits,
    cache: &ContentModelCache,
    obs: &xsobs::Registry,
) -> Result<Vec<ValidationError>, DbError> {
    catch_panic(obs, "validation", || Ok(validate_text(schema, xml, options, limits, Some(cache))?))
}

/// Run `job(0..jobs)` across `threads` scoped OS threads (`0` = one per
/// available core), returning results in job order. Work is distributed
/// by an atomic cursor, so stragglers never idle the pool; each job index
/// runs exactly once, so per-index results are independent of scheduling.
fn run_parallel<T, F>(jobs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = match threads {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
    .min(jobs.max(1));
    if threads <= 1 {
        return (0..jobs).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break local;
                        }
                        local.push((i, job(i)));
                    }
                })
            })
            .collect();
        let joined = workers.into_iter().map(|w| w.join());
        joined.flat_map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic))).collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xmlparse::Document;

    /// Mutable access to a stored document's block storage, beneath the
    /// update path: how tests plant states no public API can produce.
    pub(crate) fn storage_mut<'a>(db: &'a mut Database, name: &str) -> &'a mut XmlStorage {
        &mut Arc::make_mut(db.documents.get_mut(name).unwrap()).storage
    }

    const SCHEMA: &str = r#"
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="BookPublication">
    <xsd:sequence>
      <xsd:element name="Title" type="xsd:string"/>
      <xsd:element name="Author" type="xsd:string" maxOccurs="unbounded"/>
      <xsd:element name="Date" type="xsd:gYear"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="BookStore">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="Book" type="BookPublication" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>"#;

    const DOC: &str = r#"
<BookStore>
  <Book><Title>Foundations of Databases</Title><Author>Abiteboul</Author><Author>Hull</Author><Date>1995</Date></Book>
  <Book><Title>Transaction Processing</Title><Author>Gray</Author><Date>1993</Date></Book>
</BookStore>"#;

    fn db() -> Database {
        let mut db = Database::new();
        db.register_schema_text("books", SCHEMA).unwrap();
        db.insert("store1", "books", DOC).unwrap();
        db
    }

    #[test]
    fn insert_and_query() {
        let db = db();
        assert_eq!(db.len(), 1);
        let titles = db.query("store1", "/BookStore/Book/Title").unwrap();
        assert_eq!(titles, ["Foundations of Databases", "Transaction Processing"]);
        let authors =
            db.query("store1", "/BookStore/Book[Title='Transaction Processing']/Author").unwrap();
        assert_eq!(authors, ["Gray"]);
    }

    #[test]
    fn serialize_round_trips() {
        let db = db();
        let text = db.serialize("store1").unwrap();
        let again = Document::parse(&text).unwrap();
        let orig = Document::parse(DOC).unwrap();
        assert!(algebra::content_equal(&orig, &again));
    }

    #[test]
    fn invalid_documents_are_rejected() {
        let mut db = db();
        let err = db
            .insert("bad", "books", "<BookStore><Book><Title>t</Title></Book></BookStore>")
            .unwrap_err();
        assert!(matches!(err, DbError::Invalid(_)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn unknown_names_error() {
        let mut db = db();
        assert!(matches!(db.insert("x", "nosuch", "<a/>"), Err(DbError::UnknownSchema(_))));
        assert!(matches!(db.serialize("nosuch"), Err(DbError::UnknownDocument(_))));
        assert!(matches!(db.query("nosuch", "/a"), Err(DbError::UnknownDocument(_))));
    }

    #[test]
    fn duplicate_names_error() {
        let mut db = db();
        assert!(matches!(
            db.register_schema_text("books", SCHEMA),
            Err(DbError::DuplicateSchema(_))
        ));
        assert!(matches!(db.insert("store1", "books", DOC), Err(DbError::DuplicateDocument(_))));
    }

    /// Well-formed (distinct names per group level) but violates UPA:
    /// the word "A" is matched by two competing declarations.
    const AMBIGUOUS_SCHEMA: &str = r#"
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="doc" type="T"/>
  <xsd:complexType name="T">
    <xsd:choice>
      <xsd:sequence>
        <xsd:element name="A" type="xsd:string"/>
        <xsd:element name="B" type="xsd:string"/>
      </xsd:sequence>
      <xsd:sequence>
        <xsd:element name="A" type="xsd:string"/>
        <xsd:element name="C" type="xsd:string"/>
      </xsd:sequence>
    </xsd:choice>
  </xsd:complexType>
</xsd:schema>"#;

    #[test]
    fn strict_analysis_rejects_ambiguous_schema() {
        let mut lax = Database::new();
        lax.register_schema_text("amb", AMBIGUOUS_SCHEMA).unwrap();

        let mut strict = Database::with_strict_analysis();
        let err = strict.register_schema_text("amb", AMBIGUOUS_SCHEMA).unwrap_err();
        match err {
            DbError::SchemaRejected(diags) => {
                assert!(diags.iter().any(|d| d.code == "XSA101"), "{diags:?}");
            }
            other => panic!("expected SchemaRejected, got {other:?}"),
        }
        assert!(strict.schema("amb").is_none());
    }

    #[test]
    fn strict_analysis_accepts_clean_schema_and_warnings() {
        let mut db = Database::with_strict_analysis();
        db.register_schema_text("books", SCHEMA).unwrap();
        // Warnings (dead declarations) do not block registration.
        db.register_schema_text(
            "warn",
            r#"
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="doc" type="xsd:string"/>
  <xsd:complexType name="Dead">
    <xsd:sequence><xsd:element name="x" type="xsd:string"/></xsd:sequence>
  </xsd:complexType>
</xsd:schema>"#,
        )
        .unwrap();
    }

    #[test]
    fn strict_analysis_preflights_queries() {
        let mut db = Database::with_strict_analysis();
        db.register_schema_text("books", SCHEMA).unwrap();
        db.insert("store1", "books", DOC).unwrap();

        // A path the schema admits evaluates normally.
        assert_eq!(db.query("store1", "/BookStore/Book/Title").unwrap().len(), 2);
        // A statically-empty step is refused before evaluation.
        let err = db.query("store1", "/BookStore/Book/Isbn").unwrap_err();
        match err {
            DbError::QueryStaticallyEmpty(diags) => {
                assert!(diags.iter().all(|d| d.code == "XSA401"), "{diags:?}");
            }
            other => panic!("expected QueryStaticallyEmpty, got {other:?}"),
        }
        // Same pre-flight for FLWOR queries.
        let err = db
            .xquery("store1", "for $b in /BookStore/Book where $b/Isbn = '1' return $b/Title")
            .unwrap_err();
        assert!(matches!(err, DbError::QueryStaticallyEmpty(_)));
        // Without strict analysis the same query evaluates (to nothing).
        db.set_strict_analysis(false);
        assert!(db.query("store1", "/BookStore/Book/Isbn").unwrap().is_empty());
    }

    #[test]
    fn delete_documents() {
        let mut db = db();
        assert!(db.delete("store1"));
        assert!(!db.delete("store1"));
        assert!(db.is_empty());
    }

    #[test]
    fn remove_schema_enforces_referential_integrity() {
        let mut db = db();
        db.insert("store2", "books", DOC).unwrap();
        // Referenced by two documents: refused, naming both.
        match db.remove_schema("books") {
            Err(DbError::SchemaInUse { schema, documents }) => {
                assert_eq!(schema, "books");
                assert_eq!(documents, ["store1", "store2"]);
            }
            other => panic!("expected SchemaInUse, got {other:?}"),
        }
        assert!(db.schema("books").is_some(), "refusal must not remove");
        // Unknown names are their own error.
        assert!(matches!(db.remove_schema("nosuch"), Err(DbError::UnknownSchema(_))));
        // Once the documents are gone the schema can be retired.
        db.delete("store1");
        db.delete("store2");
        db.remove_schema("books").unwrap();
        assert!(db.schema("books").is_none());
        assert_eq!(db.schema_names().count(), 0);
        // And re-registering under the same name works again.
        db.register_schema_text("books", SCHEMA).unwrap();
        db.insert("store1", "books", DOC).unwrap();
    }

    #[test]
    fn validate_without_storing() {
        let db = db();
        assert!(db.validate("books", DOC).unwrap().is_empty());
        let errs =
            db.validate("books", "<BookStore><Book><Title>t</Title></Book></BookStore>").unwrap();
        assert!(!errs.is_empty());
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn malformed_schema_is_rejected() {
        let mut db = Database::new();
        let err = db
            .register_schema_text(
                "bad",
                r#"<xs:schema xmlns:xs="urn:x"><xs:element name="r" type="NoSuch"/></xs:schema>"#,
            )
            .unwrap_err();
        assert!(matches!(err, DbError::SchemaNotWellFormed(_)));
    }

    #[test]
    fn bad_xpath_is_reported() {
        let db = db();
        assert!(matches!(db.query("store1", "not a path"), Err(DbError::XPath(_))));
    }

    #[test]
    fn validate_many_matches_sequential_validate() {
        let db = db();
        let good = DOC;
        let bad = "<BookStore><Book><Title>t</Title></Book></BookStore>";
        let malformed = "<BookStore><unclosed>";
        let batch = [good, bad, DOC, malformed, bad];
        for threads in [1, 2, 8] {
            let bulk = db.validate_many("books", &batch, threads).unwrap();
            assert_eq!(bulk.len(), batch.len());
            for (res, xml) in bulk.iter().zip(batch) {
                match (res, db.validate("books", xml)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, &b),
                    (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
                    (a, b) => panic!("bulk {a:?} vs sequential {b:?}"),
                }
            }
        }
        assert!(matches!(db.validate_many("nosuch", &batch, 2), Err(DbError::UnknownSchema(_))));
    }

    #[test]
    fn load_many_inserts_in_order_and_reports_per_document() {
        let mut db = db();
        let bad = "<BookStore><Book><Title>t</Title></Book></BookStore>";
        let entries = [
            ("a", "books", DOC),
            ("b", "books", bad),      // invalid: skipped
            ("c", "nosuch", DOC),     // unknown schema: skipped
            ("store1", "books", DOC), // duplicate of the pre-inserted doc
            ("a", "books", DOC),      // duplicate within the batch
            ("d", "books", DOC),
            ("a", "books", "<BookStore>"), // malformed, but the name is taken first
        ];
        let results = db.load_many(&entries, 4);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DbError::Invalid(_))));
        assert!(matches!(results[2], Err(DbError::UnknownSchema(_))));
        assert!(matches!(results[3], Err(DbError::DuplicateDocument(_))));
        assert!(matches!(results[4], Err(DbError::DuplicateDocument(_))));
        assert!(results[5].is_ok());
        assert!(matches!(results[6], Err(DbError::DuplicateDocument(_))), "{:?}", results[6]);
        let names: Vec<_> = db.document_names().collect();
        assert_eq!(names, ["a", "d", "store1"]);
        assert_eq!(db.query("a", "/BookStore/Book/Title").unwrap().len(), 2);
    }

    #[test]
    fn bulk_loads_share_compiled_content_models() {
        let mut db = db();
        let entries: Vec<(String, &str, &str)> =
            (0..20).map(|i| (format!("doc{i}"), "books", DOC)).collect();
        let borrowed: Vec<(&str, &str, &str)> =
            entries.iter().map(|(n, s, x)| (n.as_str(), *s, *x)).collect();
        let results = db.load_many(&borrowed, 4);
        assert!(results.iter().all(Result::is_ok));
        // Two distinct groups in the schema (BookStore content, Book
        // content); everything else must be cache hits.
        let cache = db.content_model_cache();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
        assert!(cache.hits() >= 2 * 20, "hits = {}", cache.hits());
    }

    #[test]
    fn parse_limits_guard_insert_validate_and_bulk_paths() {
        let mut db = Database::with_limits(ParseLimits::default().with_max_depth(3));
        assert_eq!(db.limits().max_depth, 3);
        db.register_schema_text("books", SCHEMA).unwrap();
        // /BookStore/Book/Title nests three deep — admitted.
        db.insert("ok", "books", DOC).unwrap();
        // A depth-4 equivalent via an extra wrapper is rejected as Xml,
        // not a panic or an unbounded stack.
        let bomb = format!("<BookStore><Book>{}</Book></BookStore>", "<Title>t</Title>");
        assert!(db.validate("books", &bomb).is_ok(), "depth 3 admitted");
        let mut nested = String::from("<BookStore><Book><Title>");
        nested.push_str("<x/>");
        nested.push_str("</Title></Book></BookStore>");
        let err = db.validate("books", &nested).unwrap_err();
        assert!(
            matches!(&err, DbError::Xml(e)
                if matches!(e.kind, xmlparse::ErrorKind::DepthLimitExceeded(3))),
            "{err:?}"
        );
        // The bulk paths enforce the same bounds.
        let bulk = db.validate_many("books", &[&nested], 2).unwrap();
        assert!(matches!(&bulk[0], Err(DbError::Xml(_))), "{bulk:?}");
        let res = db.load_many(&[("deep", "books", nested.as_str())], 2);
        assert!(matches!(&res[0], Err(DbError::Xml(_))), "{res:?}");
        assert_eq!(db.len(), 1);
    }
}

#[cfg(test)]
mod update_tests {
    use super::*;

    const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="list">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType mixed="true">
            <xs:sequence/>
            <xs:attribute name="state" type="xs:string"/>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    fn db() -> Database {
        let opts = LoadOptions { require_all_attributes: false, ..LoadOptions::default() };
        let mut db = Database::with_options(opts);
        db.register_schema_text("list", SCHEMA).unwrap();
        db.insert("todo", "list", r#"<list><item state="open">first</item></list>"#).unwrap();
        db
    }

    fn run(db: &mut Database, update: &str) -> usize {
        db.execute_update("todo", update).unwrap().nodes
    }

    #[test]
    fn insert_element_updates_queries_and_serialization() {
        let mut db = db();
        assert_eq!(run(&mut db, "insert node <item>second</item> into /list"), 1);
        assert_eq!(db.query("todo", "/list/item").unwrap(), ["first", "second"]);
        assert!(db.serialize("todo").unwrap().contains("<item>second</item>"));
    }

    #[test]
    fn delete_removes_selected_subtrees() {
        let mut db = db();
        run(&mut db, "insert node <item>second</item> into /list");
        assert_eq!(run(&mut db, "delete node /list/item[1]"), 1);
        assert_eq!(db.query("todo", "/list/item").unwrap(), ["second"]);
    }

    #[test]
    fn delete_never_removes_the_root() {
        let mut db = db();
        let err = db.execute_update("todo", "delete node /list").unwrap_err();
        assert!(matches!(err, DbError::UpdateStaticallyInvalid(_)), "{err}");
        assert_eq!(db.query("todo", "/list/item").unwrap(), ["first"]);
        // A path that also selects the root deletes only what lies under it.
        assert_eq!(run(&mut db, "delete node //*"), 1);
        assert_eq!(db.query("todo", "/list").unwrap(), [""]);
    }

    #[test]
    fn set_attribute_inserts_and_replaces() {
        let mut db = db();
        assert_eq!(run(&mut db, r#"insert attribute state="done" into /list/item"#), 1);
        assert_eq!(db.query("todo", "/list/item/@state").unwrap(), ["done"]);
        // Replacing again works and does not duplicate.
        run(&mut db, r#"insert attribute state="archived" into /list/item"#);
        assert_eq!(db.query("todo", "/list/item/@state").unwrap(), ["archived"]);
    }

    #[test]
    fn revalidate_after_schema_conforming_updates() {
        let mut db = db();
        run(&mut db, "insert node <item>x</item> into /list");
        assert!(db.revalidate("todo").unwrap().is_empty());
    }

    #[test]
    fn schema_violating_updates_never_reach_the_document() {
        let mut db = db();
        let before = db.serialize("todo").unwrap();
        // <list> allows only <item> children; a rogue element is refused.
        let err = db.execute_update("todo", "insert node <rogue/> into /list").unwrap_err();
        assert!(matches!(err, DbError::UpdateStaticallyInvalid(_)), "{err}");
        assert_eq!(db.serialize("todo").unwrap(), before);
        assert!(db.revalidate("todo").unwrap().is_empty());

        // Planted beneath the update path, the same child is what
        // revalidate exists to report.
        let storage = super::tests::storage_mut(&mut db, "todo");
        let list = storage.children(storage.root())[0];
        storage.insert_element(list, None, "rogue").unwrap();
        let errs = db.revalidate("todo").unwrap();
        assert!(errs.iter().any(|e| e.rule == algebra::Rule::R5423GroupMatch), "{errs:?}");
    }

    #[test]
    fn updates_touch_many_nodes_at_once() {
        let mut db = db();
        for i in 0..5 {
            run(&mut db, &format!("insert node <item>t{i}</item> into /list"));
        }
        assert_eq!(run(&mut db, r#"insert attribute state="bulk" into /list/item"#), 6);
        assert_eq!(db.query("todo", "/list/item[@state='bulk']").unwrap().len(), 6);
    }

    #[test]
    fn storage_invariants_hold_after_update_batches() {
        let mut db = db();
        for i in 0..30 {
            run(&mut db, &format!("insert node <item>v{i}</item> into /list"));
        }
        run(&mut db, "delete node /list/item[2]");
        let storage = &db.document("todo").unwrap().storage;
        assert_eq!(storage.check_invariants(), None);
        assert_eq!(storage.relabel_count(), 0);
    }
}

#[cfg(test)]
mod set_text_tests {
    use super::*;

    #[test]
    fn set_text_replaces_content() {
        let mut db = Database::new();
        db.register_schema_text(
            "s",
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                 <xs:element name="r">
                   <xs:complexType>
                     <xs:sequence>
                       <xs:element name="v" type="xs:string" maxOccurs="unbounded"/>
                     </xs:sequence>
                   </xs:complexType>
                 </xs:element>
               </xs:schema>"#,
        )
        .unwrap();
        db.insert("d", "s", "<r><v>old1</v><v>old2</v></r>").unwrap();
        let out = db.execute_update("d", r#"replace value of node /r/v with "new""#).unwrap();
        assert_eq!(out.nodes, 2);
        assert_eq!(db.query("d", "/r/v").unwrap(), ["new", "new"]);
        assert!(db.revalidate("d").unwrap().is_empty());
        let storage = &db.document("d").unwrap().storage;
        assert_eq!(storage.check_invariants(), None);
    }
}

#[cfg(test)]
pub(crate) mod guarded_update_tests {
    use super::*;
    use xsanalyze::UpdateVerdict;

    /// `log` holds `entry*` where `entry` is a plain `xs:string` leaf —
    /// every insert/delete of an `entry` is statically decidable.
    const LOG: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="log">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="entry" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    /// `library` holds `book+`; a `book` is `(title, author?)` — the
    /// optional author makes single inserts run-time dependent.
    const LIB: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="title" type="xs:string"/>
              <xs:element name="author" type="xs:string" minOccurs="0"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    // A private registry per test: the default one is process-global,
    // so parallel tests would see each other's counters.
    pub(crate) fn log_db() -> Database {
        let mut db = Database::with_metrics_registry(Arc::new(xsobs::Registry::new()));
        db.register_schema_text("log", LOG).unwrap();
        db.insert("d", "log", "<log><entry>first</entry><entry>second</entry></log>").unwrap();
        db
    }

    pub(crate) fn lib_db() -> Database {
        let mut db = Database::with_metrics_registry(Arc::new(xsobs::Registry::new()));
        db.register_schema_text("lib", LIB).unwrap();
        db.insert("d", "lib", "<library><book><title>t</title></book></library>").unwrap();
        db
    }

    #[test]
    fn accept_applies_without_any_revalidation() {
        let mut db = log_db();
        let out = db.execute_update("d", "insert node <entry>third</entry> into /log").unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(out.nodes, 1);
        assert_eq!(out.revalidated, 0);
        assert_eq!(db.query("d", "/log/entry").unwrap(), ["first", "second", "third"]);
        let m = db.metrics();
        assert_eq!(m.counter(xsobs::CounterId::UpdateChecks), 1);
        assert_eq!(m.counter(xsobs::CounterId::UpdateAccepted), 1);
        assert_eq!(m.counter(xsobs::CounterId::UpdateRevalidateNodes), 0);
    }

    /// `form` holds `note*` where `note` is a *nillable* `xs:string`
    /// leaf — content-installing updates depend on the run-time nilled
    /// state, which only the local recheck can observe.
    const NIL: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="form">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="note" type="xs:string" nillable="true"
                    minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    pub(crate) fn nil_db() -> Database {
        let mut db = Database::with_metrics_registry(Arc::new(xsobs::Registry::new()));
        db.register_schema_text("nil", NIL).unwrap();
        db.insert("d", "nil", r#"<form><note xsi:nil="true"/><note>kept</note></form>"#).unwrap();
        db
    }

    /// Every node of a stored document in document order: kind, name,
    /// type annotation and string value.
    fn stored_nodes(db: &Database, name: &str) -> Vec<String> {
        let xs = &db.document(name).unwrap().storage;
        let mut out = Vec::new();
        let mut todo = vec![xs.root()];
        while let Some(p) = todo.pop() {
            let (kind, value) = (xs.kind(p), xs.string_value(p));
            out.push(format!("{kind:?} {:?} {:?} {value:?}", xs.node_name(p), xs.type_name(p)));
            todo.extend(xs.children(p).into_iter().rev());
        }
        out
    }

    /// An inserted leaf is stored as `f` stores the same element: a
    /// text-less `xs:string` leaf gets its one empty text node (§6.2
    /// item 5.1.1), so the updated document and the insert of its own
    /// serialization agree on every query and on the stored form.
    #[test]
    fn inserted_leaves_are_stored_as_f_stores_them() {
        for update in [
            "insert node <note/> into /form",
            "insert node <note>x</note> into /form",
            "insert node <note/> before /form/note[2]",
            "insert node <note/> after /form/note[1]",
            "replace node /form/note[2] with <note/>",
        ] {
            let mut db = nil_db();
            db.execute_update("d", update).unwrap();
            let xml = db.serialize("d").unwrap();
            db.insert("again", "nil", &xml).unwrap();
            for path in ["/form/note[last()]/text()", "/form/note/text()", "//text()", "/form/note"]
            {
                let (updated, reinserted) = (db.query("d", path), db.query("again", path));
                assert_eq!(updated.unwrap(), reinserted.unwrap(), "{update}: {path}");
            }
            assert_eq!(stored_nodes(&db, "d"), stored_nodes(&db, "again"), "{update}");
        }
    }

    #[test]
    fn replace_value_on_a_nilled_occurrence_is_rechecked_and_rolled_back() {
        let mut db = nil_db();
        let before = db.serialize("d").unwrap();
        // §6.2 R6Nil: a nilled element admits no content, so this is
        // Recheck (not Accept), and applying it to the nilled first
        // <note> must fail the local recheck and roll back.
        let err = db.execute_update("d", r#"replace value of node /form/note with "x""#);
        assert!(matches!(err, Err(DbError::Invalid(_))), "{err:?}");
        assert_eq!(db.serialize("d").unwrap(), before);
        assert_eq!(db.metrics().counter(xsobs::CounterId::UpdateRechecked), 1);
    }

    #[test]
    fn replace_value_beside_a_nilled_occurrence_commits_after_recheck() {
        let mut db = nil_db();
        // Targeting only the non-nilled second <note> is fine — but the
        // analyzer cannot know which occurrence the path selects, so
        // the verdict stays Recheck and the run-time check decides.
        let out =
            db.execute_update("d", r#"replace value of node /form/note[2] with "x""#).unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Recheck);
        assert!(db.revalidate("d").unwrap().is_empty());
        assert!(db.serialize("d").unwrap().contains("<note>x</note>"));
        assert!(db.serialize("d").unwrap().contains("xsi:nil"));
    }

    #[test]
    fn reject_refuses_before_touching_the_tree() {
        let mut db = log_db();
        let before = db.serialize("d").unwrap();
        let err = db.execute_update("d", "insert node <rogue/> into /log").unwrap_err();
        let DbError::UpdateStaticallyInvalid(diags) = err else {
            panic!("expected static rejection, got {err}");
        };
        assert!(diags.iter().any(|d| d.code == "XSA501"), "{diags:?}");
        assert!(diags.iter().any(|d| d.witness.is_some()), "{diags:?}");
        assert_eq!(db.serialize("d").unwrap(), before);
        assert_eq!(db.metrics().counter(xsobs::CounterId::UpdateRejected), 1);
    }

    #[test]
    fn recheck_revalidates_exactly_the_affected_nodes() {
        let mut db = lib_db();
        let out =
            db.execute_update("d", "insert node <author>Codd</author> into /library/book").unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Recheck);
        // Two local checks, independent of document size: the host
        // <book>'s content model and the new <author>'s own state.
        assert_eq!(out.revalidated, 2);
        assert_eq!(db.query("d", "/library/book/author").unwrap(), ["Codd"]);
        assert!(db.revalidate("d").unwrap().is_empty());
        let m = db.metrics();
        assert_eq!(m.counter(xsobs::CounterId::UpdateRechecked), 1);
        assert_eq!(m.counter(xsobs::CounterId::UpdateRevalidateNodes), 2);
    }

    #[test]
    fn recheck_failure_rolls_the_document_back() {
        let mut db = lib_db();
        db.execute_update("d", "insert node <author>Codd</author> into /library/book").unwrap();
        let before = db.serialize("d").unwrap();
        // A second author can never fit `(title, author?)`; the analysis
        // alone cannot see the existing one, so this applies and the
        // local recheck must catch it and roll back.
        let err = db
            .execute_update("d", "insert node <author>Date</author> into /library/book")
            .unwrap_err();
        assert!(matches!(err, DbError::Invalid(_)), "{err}");
        assert_eq!(db.serialize("d").unwrap(), before);
        assert_eq!(db.query("d", "/library/book/author").unwrap(), ["Codd"]);
        assert!(db.revalidate("d").unwrap().is_empty());
    }

    #[test]
    fn guarded_sibling_inserts_and_replacement() {
        let mut db = log_db();
        let out =
            db.execute_update("d", "insert node <entry>mid</entry> before /log/entry[2]").unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(db.query("d", "/log/entry").unwrap(), ["first", "mid", "second"]);
        let out =
            db.execute_update("d", "insert node <entry>last</entry> after /log/entry[3]").unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(db.query("d", "/log/entry").unwrap(), ["first", "mid", "second", "last"]);
        let out =
            db.execute_update("d", "replace node /log/entry[1] with <entry>zero</entry>").unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(db.query("d", "/log/entry").unwrap(), ["zero", "mid", "second", "last"]);
        // Before the first child: the target has no left sibling.
        let out =
            db.execute_update("d", "insert node <entry>head</entry> before /log/entry[1]").unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(db.query("d", "/log/entry").unwrap(), ["head", "zero", "mid", "second", "last"]);
        let storage = &db.document("d").unwrap().storage;
        assert_eq!(storage.check_invariants(), None);
        assert_eq!(storage.relabel_count(), 0);
    }

    #[test]
    fn deleting_an_optional_child_is_statically_accepted() {
        let mut db = lib_db();
        db.execute_update("d", "insert node <author>Codd</author> into /library/book").unwrap();
        let out = db.execute_update("d", "delete node /library/book/author").unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(out.revalidated, 0);
        assert!(db.query("d", "/library/book/author").unwrap().is_empty());
    }

    #[test]
    fn deleting_a_required_child_is_statically_rejected() {
        let mut db = lib_db();
        let err = db.execute_update("d", "delete node /library/book/title").unwrap_err();
        assert!(matches!(err, DbError::UpdateStaticallyInvalid(_)), "{err}");
        assert_eq!(db.query("d", "/library/book/title").unwrap(), ["t"]);
    }

    #[test]
    fn replace_value_of_a_leaf_is_statically_accepted() {
        let mut db = log_db();
        let out = db
            .execute_update("d", r#"replace value of node /log/entry[1] with "rewritten""#)
            .unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(db.query("d", "/log/entry").unwrap(), ["rewritten", "second"]);
    }

    #[test]
    fn replacing_the_root_with_an_empty_tree_is_rejected() {
        let mut db = lib_db();
        // `library` requires at least one `book`.
        let err = db.execute_update("d", "replace node /library with <library/>").unwrap_err();
        assert!(matches!(err, DbError::UpdateStaticallyInvalid(_)), "{err}");
        assert!(db.revalidate("d").unwrap().is_empty());
    }

    #[test]
    fn parse_errors_surface_as_xquery_errors() {
        let mut db = log_db();
        let err = db.execute_update("d", "insert node garbage").unwrap_err();
        assert!(matches!(err, DbError::XQuery(_)), "{err}");
    }
}
