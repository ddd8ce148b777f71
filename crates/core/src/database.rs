//! The XML database: schemas, documents, queries, and updates, built on
//! the state algebra.
//!
//! §6.1 opens: "Because of frequent insertion of new documents, updating
//! existing documents and deleting obsolete documents, a database evolves
//! through different database states. Each state can be formally
//! represented as a many sorted algebra." [`Database`] is that evolving
//! object. Each stored document has exactly one form, the §9 block
//! storage: inserting runs `f` (validate + build the S-tree), hands the
//! tree to [`XmlStorage::from_tree`] and drops it; queries, updates and
//! `g` (serialization) read the node descriptors directly — §9.2's claim
//! that descriptors plus the descriptive schema answer every accessor.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use algebra::{load_document_cached, ContentModelCache, LoadOptions, Rule, ValidationError};
use storage::{DescPtr, XmlStorage};
use xmlparse::{Document, ParseLimits};
use xpath::eval_guided;
use xsmodel::DocumentSchema;

use crate::error::DbError;
use crate::persist::PersistState;
use crate::physical::storage_to_document;

/// One stored document: its §9 block storage and the schema it
/// validated against.
#[derive(Debug, Clone)]
pub struct StoredDocument {
    /// The schema it validated against.
    pub schema_name: String,
    /// §9 block storage — the document's only stored form.
    pub storage: XmlStorage,
}

/// An XML database over the formal model.
#[derive(Debug)]
pub struct Database {
    schemas: BTreeMap<String, Arc<DocumentSchema>>,
    /// Stored documents behind `Arc` so a snapshot of the whole
    /// database is a cheap map clone: mutators copy-on-write through
    /// [`Arc::make_mut`], so a snapshot taken before a mutation keeps
    /// observing the pre-mutation document forever (the MVCC readers of
    /// [`crate::SharedDatabase`] depend on exactly this). The copy is
    /// block-granular: cloning an [`XmlStorage`] copies one pointer per
    /// §9.2 block and location segment, the mutation then copies only
    /// the blocks and segments it dirties, and the snapshot and the new
    /// state share every other block.
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
    /// What the persistence layer knows about this database's on-disk
    /// mirror: the bound generation (if any), whether the registry
    /// changed since binding, and one page store per document. Interior
    /// mutability because [`Database::save_dir`] takes `&self` (the
    /// shared-database layer saves under its read lock).
    pub(crate) persist: Mutex<PersistState>,
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
            persist: Mutex::new(PersistState::default()),
        }
    }

    /// Record that the schema/document registry diverged from the bound
    /// on-disk generation, forcing the next save to write a fresh one.
    pub(crate) fn touch_registry(&self) {
        self.persist.lock().unwrap_or_else(|p| p.into_inner()).registry_dirty = true;
    }

    /// Record that every mutation up to write-ahead-log sequence `seq`
    /// is reflected in this database's in-memory state; the next save
    /// stamps it into each document's on-disk catalog so recovery can
    /// skip already-persisted records.
    pub(crate) fn note_wal_epoch(&self, seq: u64) {
        let mut state = self.persist.lock().unwrap_or_else(|p| p.into_inner());
        state.wal_epoch = state.wal_epoch.max(seq);
    }

    /// A read-only copy sharing this database's documents (by `Arc`),
    /// schemas, caches, and metrics registry. The copy observes the
    /// state as of this call forever: mutators on the original
    /// copy-on-write. The copy carries *no* persistence binding —
    /// saving through it stages a full generation — because the page
    /// stores mirroring the bound directory must stay aligned with the
    /// primary's storage, not a frozen snapshot's.
    pub(crate) fn snapshot(&self) -> Database {
        Database {
            schemas: self.schemas.clone(),
            documents: self.documents.clone(),
            options: self.options.clone(),
            limits: self.limits.clone(),
            strict_analysis: self.strict_analysis,
            cm_cache: Arc::clone(&self.cm_cache),
            obs: Arc::clone(&self.obs),
            persist: Mutex::new(PersistState::default()),
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
        self.schemas.insert(name.to_string(), Arc::new(schema));
        self.touch_registry();
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
        if !self.schemas.contains_key(name) {
            return Err(DbError::UnknownSchema(name.to_string()));
        }
        let documents: Vec<String> = self
            .documents
            .iter()
            .filter(|(_, d)| d.schema_name == name)
            .map(|(n, _)| n.clone())
            .collect();
        if !documents.is_empty() {
            return Err(DbError::SchemaInUse { schema: name.to_string(), documents });
        }
        self.schemas.remove(name);
        self.touch_registry();
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
        let parsed = Document::parse_with_limits(xml, &self.limits)?;
        self.insert_document(doc_name, schema_name, &parsed)
    }

    /// Insert an already-parsed document.
    pub fn insert_document(
        &mut self,
        doc_name: &str,
        schema_name: &str,
        xml: &Document,
    ) -> Result<(), DbError> {
        if self.documents.contains_key(doc_name) {
            return Err(DbError::DuplicateDocument(doc_name.to_string()));
        }
        let schema = self
            .schemas
            .get(schema_name)
            .ok_or_else(|| DbError::UnknownSchema(schema_name.to_string()))?;
        let storage = {
            let mut span = self.obs.span(xsobs::HistogramId::DbInsert);
            span.set_detail(doc_name);
            ingest(schema, xml, &self.options, &self.cm_cache)?
        };
        self.store(doc_name, schema_name, storage);
        Ok(())
    }

    /// Enter an ingested document into the catalog.
    fn store(&mut self, doc_name: &str, schema_name: &str, storage: XmlStorage) {
        self.documents.insert(
            doc_name.to_string(),
            Arc::new(StoredDocument { schema_name: schema_name.to_string(), storage }),
        );
        self.touch_registry();
    }

    /// Admit a document decoded from the paged on-disk form: re-validate
    /// it through `f` (over `g` of its descriptors) and keep the
    /// *decoded* block storage, so later incremental saves stay aligned
    /// with the page layout on disk.
    pub(crate) fn insert_paged(
        &mut self,
        doc_name: &str,
        schema_name: &str,
        xs: XmlStorage,
    ) -> Result<(), DbError> {
        if self.documents.contains_key(doc_name) {
            return Err(DbError::DuplicateDocument(doc_name.to_string()));
        }
        let schema = self
            .schemas
            .get(schema_name)
            .ok_or_else(|| DbError::UnknownSchema(schema_name.to_string()))?;
        {
            let mut span = self.obs.span(xsobs::HistogramId::DbInsert);
            span.set_detail(doc_name);
            validate_storage(schema, &xs, &self.options, &self.cm_cache)
                .map_err(DbError::Invalid)?;
        }
        self.store(doc_name, schema_name, xs);
        Ok(())
    }

    /// The stored documents, for the persistence layer.
    pub(crate) fn doc_registry(&self) -> &BTreeMap<String, Arc<StoredDocument>> {
        &self.documents
    }

    /// Validate text against a registered schema without storing it.
    pub fn validate(&self, schema_name: &str, xml: &str) -> Result<Vec<ValidationError>, DbError> {
        let schema = self
            .schemas
            .get(schema_name)
            .ok_or_else(|| DbError::UnknownSchema(schema_name.to_string()))?;
        let _span = self.obs.span(xsobs::HistogramId::DbValidate);
        let parsed = Document::parse_with_limits(xml, &self.limits)?;
        Ok(match load_document_cached(schema, &parsed, &self.options, &self.cm_cache) {
            Ok(_) => Vec::new(),
            Err(errs) => errs,
        })
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
            let parsed = Document::parse_with_limits(xmls[i], limits)?;
            Ok(match load_document_cached(schema, &parsed, options, cache) {
                Ok(_) => Vec::new(),
                Err(errs) => errs,
            })
        }))
    }

    /// Insert a batch of `(document name, schema name, xml)` triples.
    /// Parsing and validation (the expensive, read-only part of `f`)
    /// run on `threads` OS threads (`0` = one per available core);
    /// insertion into the catalog is then sequential in input order, so
    /// duplicate-name resolution is deterministic: the first occurrence
    /// of a name wins, later ones report
    /// [`DbError::DuplicateDocument`]. Returns one outcome per input,
    /// in input order; a failed document never partially inserts.
    pub fn load_many(
        &mut self,
        entries: &[(&str, &str, &str)],
        threads: usize,
    ) -> Vec<Result<(), DbError>> {
        let ingested: Vec<Result<XmlStorage, DbError>> = {
            let schemas = &self.schemas;
            let options = &self.options;
            let cache = &self.cm_cache;
            let limits = &self.limits;
            let obs = &self.obs;
            run_parallel(entries.len(), threads, |i| {
                let (name, schema_name, xml) = entries[i];
                let schema = schemas
                    .get(schema_name)
                    .ok_or_else(|| DbError::UnknownSchema(schema_name.to_string()))?;
                let mut span = obs.span(xsobs::HistogramId::DbInsert);
                span.set_detail(name);
                let parsed = Document::parse_with_limits(xml, limits)?;
                ingest(schema, &parsed, options, cache)
            })
        };
        ingested
            .into_iter()
            .zip(entries)
            .map(|(res, &(name, schema_name, _))| {
                let storage = res?;
                if self.documents.contains_key(name) {
                    return Err(DbError::DuplicateDocument(name.to_string()));
                }
                self.store(name, schema_name, storage);
                Ok(())
            })
            .collect()
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
        Ok(storage_to_document(&doc.storage).to_xml())
    }

    /// Pretty-printed serialization.
    pub fn serialize_pretty(&self, name: &str) -> Result<String, DbError> {
        let doc =
            self.documents.get(name).ok_or_else(|| DbError::UnknownDocument(name.to_string()))?;
        Ok(storage_to_document(&doc.storage).to_xml_pretty())
    }

    /// Delete a document. Returns `true` when it existed.
    pub fn delete(&mut self, name: &str) -> bool {
        let existed = self.documents.remove(name).is_some();
        if existed {
            self.touch_registry();
        }
        existed
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

    /// Run `mutate` against `doc_name`'s block storage, copy-on-write
    /// when a snapshot shares it. The shared skeleton of every
    /// `update_*` method.
    fn update_storage<R>(
        &mut self,
        doc_name: &str,
        mutate: impl FnOnce(&mut XmlStorage) -> Result<R, DbError>,
    ) -> Result<R, DbError> {
        let doc = self
            .documents
            .get_mut(doc_name)
            .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
        mutate(&mut Arc::make_mut(doc).storage)
    }

    /// Node-level update: under every node selected by `parent_xpath`,
    /// append a new element (optionally with text content). Returns how
    /// many elements were inserted.
    ///
    /// Updates run on the §9 physical layer and never relabel
    /// (Proposition 1). Like Sedna's untyped updates, the result is not
    /// re-validated automatically — call [`Database::revalidate`] to
    /// check it against the schema again.
    pub fn update_insert_element(
        &mut self,
        doc_name: &str,
        parent_xpath: &str,
        name: &str,
        text: Option<&str>,
    ) -> Result<usize, DbError> {
        let path = xpath::parse(parent_xpath)?;
        Ok(self.insert_into_raw(doc_name, &path, name, text)?.0)
    }

    fn insert_into_raw(
        &mut self,
        doc_name: &str,
        path: &xpath::Path,
        name: &str,
        text: Option<&str>,
    ) -> Result<(usize, Vec<RecheckSite>), DbError> {
        self.update_storage(doc_name, |storage| {
            let parents = eval_guided(storage, path);
            let mut sites = Vec::new();
            for &parent in &parents {
                let last = storage.children(parent).last().copied();
                let new = storage.insert_element(parent, last, name)?;
                if let Some(t) = text {
                    storage.insert_text(new, None, t)?;
                }
                // Both the host's content model and the new element's
                // own obligations (attributes, text, required children)
                // need rechecking — the analyzer only proves the leaf
                // when the host edit is decidable.
                sites.push(recheck_site(storage, parent));
                sites.push(recheck_site(storage, new));
            }
            Ok((parents.len(), sites))
        })
    }

    /// Node-level update: delete every node selected by `xpath`
    /// (subtrees included). Returns how many nodes were deleted.
    pub fn update_delete(&mut self, doc_name: &str, xpath: &str) -> Result<usize, DbError> {
        let path = xpath::parse(xpath)?;
        Ok(self.delete_raw(doc_name, &path)?.0)
    }

    fn delete_raw(
        &mut self,
        doc_name: &str,
        path: &xpath::Path,
    ) -> Result<(usize, Vec<RecheckSite>), DbError> {
        self.update_storage(doc_name, |storage| {
            let root_elem = storage.children(storage.root())[0];
            // Never delete the document or root element.
            let victims: Vec<_> = eval_guided(storage, path)
                .into_iter()
                .filter(|&v| v != storage.root() && v != root_elem)
                .collect();
            let victims = outermost(storage, victims);
            let mut sites = Vec::new();
            for &v in &victims {
                let parent = storage.parent(v);
                storage.delete(v)?;
                if let Some(p) = parent {
                    sites.push(recheck_site(storage, p));
                }
            }
            Ok((victims.len(), sites))
        })
    }

    /// Node-level update: insert a new element immediately before or
    /// after every element selected by `xpath` (as a sibling under the
    /// same parent). Sibling-of-root targets are skipped: the document
    /// node admits exactly one element child.
    fn insert_adjacent_raw(
        &mut self,
        doc_name: &str,
        path: &xpath::Path,
        name: &str,
        text: Option<&str>,
        after: bool,
    ) -> Result<(usize, Vec<RecheckSite>), DbError> {
        self.update_storage(doc_name, |storage| {
            let targets = eval_guided(storage, path);
            let mut inserted = 0;
            let mut sites = Vec::new();
            for &t in &targets {
                if storage.kind(t) != xdm::NodeKind::Element {
                    continue;
                }
                let Some(parent) = storage.parent(t) else { continue };
                if parent == storage.root() {
                    continue; // no siblings of the root element
                }
                let anchor = if after {
                    Some(t)
                } else {
                    let siblings = storage.children(parent);
                    match siblings.iter().position(|&c| c == t) {
                        Some(0) | None => None,
                        Some(i) => Some(siblings[i - 1]),
                    }
                };
                let new = storage.insert_element(parent, anchor, name)?;
                if let Some(txt) = text {
                    storage.insert_text(new, None, txt)?;
                }
                sites.push(recheck_site(storage, parent));
                sites.push(recheck_site(storage, new));
                inserted += 1;
            }
            Ok((inserted, sites))
        })
    }

    /// Node-level update: replace every element selected by `xpath`
    /// with a fresh element `<name>text?</name>` in the same position
    /// (the old subtree is deleted). Replacing the root element is
    /// supported when the schema admits it.
    fn replace_node_raw(
        &mut self,
        doc_name: &str,
        path: &xpath::Path,
        name: &str,
        text: Option<&str>,
    ) -> Result<(usize, Vec<RecheckSite>), DbError> {
        self.update_storage(doc_name, |storage| {
            let targets: Vec<_> = eval_guided(storage, path)
                .into_iter()
                .filter(|&t| storage.kind(t) == xdm::NodeKind::Element)
                .collect();
            let mut replaced = 0;
            let mut sites = Vec::new();
            for &t in &outermost(storage, targets) {
                let Some(parent) = storage.parent(t) else { continue };
                let new = storage.insert_element(parent, Some(t), name)?;
                if let Some(txt) = text {
                    storage.insert_text(new, None, txt)?;
                }
                storage.delete(t)?;
                sites.push(recheck_site(storage, parent));
                sites.push(recheck_site(storage, new));
                replaced += 1;
            }
            Ok((replaced, sites))
        })
    }

    /// Node-level update: set (insert or replace) an attribute on every
    /// element selected by `xpath`. Returns how many elements were
    /// touched.
    pub fn update_set_attribute(
        &mut self,
        doc_name: &str,
        xpath: &str,
        name: &str,
        value: &str,
    ) -> Result<usize, DbError> {
        let path = xpath::parse(xpath)?;
        Ok(self.set_attr_raw(doc_name, &path, name, value)?.0)
    }

    fn set_attr_raw(
        &mut self,
        doc_name: &str,
        path: &xpath::Path,
        name: &str,
        value: &str,
    ) -> Result<(usize, Vec<RecheckSite>), DbError> {
        self.update_storage(doc_name, |storage| {
            let targets = eval_guided(storage, path);
            let mut sites = Vec::new();
            for &t in &targets {
                storage.insert_attribute(t, name, value)?;
                sites.push(recheck_site(storage, t));
            }
            Ok((targets.len(), sites))
        })
    }

    /// Node-level update: replace the text content of every element
    /// selected by `xpath` with a single text node carrying `value`
    /// (existing children are removed). Returns how many elements were
    /// rewritten.
    pub fn update_set_text(
        &mut self,
        doc_name: &str,
        xpath: &str,
        value: &str,
    ) -> Result<usize, DbError> {
        let path = xpath::parse(xpath)?;
        Ok(self.set_text_raw(doc_name, &path, value)?.0)
    }

    fn set_text_raw(
        &mut self,
        doc_name: &str,
        path: &xpath::Path,
        value: &str,
    ) -> Result<(usize, Vec<RecheckSite>), DbError> {
        self.update_storage(doc_name, |storage| {
            let targets: Vec<_> = eval_guided(storage, path)
                .into_iter()
                .filter(|&t| storage.kind(t) == xdm::NodeKind::Element)
                .collect();
            let targets = outermost(storage, targets);
            let mut sites = Vec::new();
            for &t in &targets {
                for c in storage.children(t) {
                    storage.delete(c)?;
                }
                storage.insert_text(t, None, value)?;
                sites.push(recheck_site(storage, t));
            }
            Ok((targets.len(), sites))
        })
    }

    /// Re-run §6.2 validation of a stored document against its schema
    /// (useful after node-level updates). Returns the violations.
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
        Ok(validate_storage(schema, &doc.storage, &self.options, &self.cm_cache)
            .err()
            .unwrap_or_default())
    }

    // ------------------------------------------------- guarded updates

    /// Execute an XQuery-Update-lite expression (`insert node … into …`,
    /// `delete node …`, `replace value of node … with …`, …) with static
    /// type-checking: the update is analyzed against the document's
    /// schema *before* it runs ([`xsanalyze::analyze_update`]).
    ///
    /// * **Accept** — provably schema-safe: applied with **no**
    ///   revalidation at all.
    /// * **Reject** — provably invalid: refused with
    ///   [`DbError::UpdateStaticallyInvalid`] before touching the tree.
    /// * **Recheck** — undecidable: applied, then only the affected
    ///   content models are revalidated; a violation rolls the document
    ///   back and returns [`DbError::Invalid`].
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
        self.obs.incr(xsobs::CounterId::UpdateChecks);
        let doc = self
            .documents
            .get(doc_name)
            .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
        let schema = Arc::clone(
            self.schemas
                .get(&doc.schema_name)
                .ok_or_else(|| DbError::UnknownSchema(doc.schema_name.clone()))?,
        );
        let before = Arc::clone(doc);
        let analysis = xsanalyze::analyze_update(&schema, upd);
        match analysis.verdict {
            xsanalyze::UpdateVerdict::Reject => {
                self.obs.incr(xsobs::CounterId::UpdateRejected);
                return Err(DbError::UpdateStaticallyInvalid(analysis.diagnostics));
            }
            xsanalyze::UpdateVerdict::Accept => self.obs.incr(xsobs::CounterId::UpdateAccepted),
            xsanalyze::UpdateVerdict::Recheck => self.obs.incr(xsobs::CounterId::UpdateRechecked),
        }
        let (nodes, sites) = self.apply_update_raw(doc_name, upd)?;
        if analysis.verdict == xsanalyze::UpdateVerdict::Accept {
            return Ok(UpdateOutcome { verdict: analysis.verdict, nodes, revalidated: 0 });
        }
        // Recheck: revalidate exactly the content models the edit
        // touched — one per distinct affected node — instead of the
        // whole document.
        let mut unique: Vec<RecheckSite> = Vec::new();
        for s in sites {
            if !unique.iter().any(|(p, _)| *p == s.0) {
                unique.push(s);
            }
        }
        let mut errors = Vec::new();
        // Identity constraints (ID uniqueness, IDREF resolution) are
        // document-global: a local content-model check cannot see a
        // duplicate ID two subtrees away, so such schemas always take
        // the whole-document pass.
        let mut needs_full_pass = xsanalyze::schema_involves_identity(&schema);
        let revalidated = unique.len();
        {
            let doc = self
                .documents
                .get(doc_name)
                .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
            let storage = &doc.storage;
            for (node, names) in &unique {
                self.obs.incr(xsobs::CounterId::UpdateRevalidateNodes);
                if names.is_empty() {
                    // The affected parent is the document node (root
                    // replacement): exactly one element child, with the
                    // declared root name and a valid shallow state.
                    let kids: Vec<_> = storage
                        .children(storage.root())
                        .into_iter()
                        .filter(|&c| storage.kind(c) == xdm::NodeKind::Element)
                        .collect();
                    let good_root = kids.len() == 1
                        && storage.node_name(kids[0]) == Some(schema.root.name.as_str());
                    if good_root {
                        errors.extend(check_node_against(
                            &schema,
                            &self.options,
                            &self.cm_cache,
                            storage,
                            kids[0],
                            &schema.root.ty,
                            &format!("/{}", schema.root.name),
                        ));
                    } else {
                        errors.push(ValidationError::new(
                            Rule::RootName,
                            "/",
                            format!("document must hold exactly one <{}>", schema.root.name),
                        ));
                    }
                } else {
                    match type_at_name_path(&schema, names) {
                        Some(ty) => errors.extend(check_node_against(
                            &schema,
                            &self.options,
                            &self.cm_cache,
                            storage,
                            *node,
                            ty,
                            &format!("/{}", names.join("/")),
                        )),
                        // The schema types this element ambiguously (or
                        // not at all): fall back to a whole-document pass.
                        None => needs_full_pass = true,
                    }
                }
            }
        }
        if needs_full_pass {
            errors.extend(self.revalidate(doc_name)?);
        }
        if errors.is_empty() {
            Ok(UpdateOutcome { verdict: analysis.verdict, nodes, revalidated })
        } else {
            // Roll back: the pre-update snapshot observes the document
            // as it was (copy-on-write kept it untouched).
            self.documents.insert(doc_name.to_string(), before);
            Err(DbError::Invalid(errors))
        }
    }

    /// Guarded node-level update: insert `<name>text?</name>` as the
    /// immediately preceding sibling of every element selected by
    /// `target_xpath`. Statically checked; see [`Database::execute_update`].
    pub fn update_insert_before(
        &mut self,
        doc_name: &str,
        target_xpath: &str,
        name: &str,
        text: Option<&str>,
    ) -> Result<UpdateOutcome, DbError> {
        let target = xpath::parse(target_xpath)?;
        self.execute_update_expr(
            doc_name,
            &xquery::UpdateExpr::InsertBefore {
                name: name.to_string(),
                text: text.map(str::to_string),
                target,
            },
        )
    }

    /// Guarded node-level update: insert `<name>text?</name>` as the
    /// immediately following sibling of every element selected by
    /// `target_xpath`. Statically checked; see [`Database::execute_update`].
    pub fn update_insert_after(
        &mut self,
        doc_name: &str,
        target_xpath: &str,
        name: &str,
        text: Option<&str>,
    ) -> Result<UpdateOutcome, DbError> {
        let target = xpath::parse(target_xpath)?;
        self.execute_update_expr(
            doc_name,
            &xquery::UpdateExpr::InsertAfter {
                name: name.to_string(),
                text: text.map(str::to_string),
                target,
            },
        )
    }

    /// Guarded node-level update: replace every element selected by
    /// `target_xpath` with a fresh `<name>text?</name>` in place.
    /// Statically checked; see [`Database::execute_update`].
    pub fn update_replace_node(
        &mut self,
        doc_name: &str,
        target_xpath: &str,
        name: &str,
        text: Option<&str>,
    ) -> Result<UpdateOutcome, DbError> {
        let target = xpath::parse(target_xpath)?;
        self.execute_update_expr(
            doc_name,
            &xquery::UpdateExpr::ReplaceNode {
                target,
                name: name.to_string(),
                text: text.map(str::to_string),
            },
        )
    }

    /// Dispatch a parsed update expression onto the raw (unchecked)
    /// structural appliers, collecting the affected recheck sites.
    fn apply_update_raw(
        &mut self,
        doc_name: &str,
        upd: &xquery::UpdateExpr,
    ) -> Result<(usize, Vec<RecheckSite>), DbError> {
        use xquery::UpdateExpr as U;
        match upd {
            U::InsertInto { name, text, target } => {
                self.insert_into_raw(doc_name, target, name, text.as_deref())
            }
            U::InsertBefore { name, text, target } => {
                self.insert_adjacent_raw(doc_name, target, name, text.as_deref(), false)
            }
            U::InsertAfter { name, text, target } => {
                self.insert_adjacent_raw(doc_name, target, name, text.as_deref(), true)
            }
            U::InsertAttribute { attr, value, target } => {
                self.set_attr_raw(doc_name, target, attr, value)
            }
            U::Delete { target } => self.delete_raw(doc_name, target),
            U::ReplaceNode { target, name, text } => {
                self.replace_node_raw(doc_name, target, name, text.as_deref())
            }
            U::ReplaceValue { target, value } => self.set_text_raw(doc_name, target, value),
        }
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
        let plan = self.plan_for(storage, &path, None);
        Ok(plan.execute(storage).nodes.into_iter().map(|p| storage.string_value(p)).collect())
    }

    /// Plan an XPath over a document's block storage:
    /// static pruning against the DataGuide
    /// ([`xsanalyze::analyze_xpath_in_guide`]), then cost-based operator
    /// choice from the catalog statistics. Records the `plan.*` metrics
    /// family.
    fn plan_for(
        &self,
        storage: &XmlStorage,
        path: &xpath::Path,
        force: Option<xquery::Strategy>,
    ) -> xquery::QueryPlan {
        let plan = {
            let _span = self.obs.span(xsobs::HistogramId::PlanBuild);
            let statically_empty =
                !xsanalyze::analyze_xpath_in_guide(storage.schema(), path).is_empty();
            xquery::plan(storage, path, &xquery::PlanOptions { force, statically_empty })
        };
        self.obs.incr(xsobs::CounterId::PlanQueries);
        if plan.pruned_from().is_some() {
            self.obs.incr(xsobs::CounterId::PlanPruned);
        } else {
            for sp in plan.steps() {
                self.obs.incr(match sp.strategy {
                    xquery::Strategy::Guided => xsobs::CounterId::PlanStepsGuided,
                    xquery::Strategy::Dewey => xsobs::CounterId::PlanStepsDewey,
                    xquery::Strategy::Postings => xsobs::CounterId::PlanStepsPostings,
                });
            }
        }
        plan
    }

    /// `EXPLAIN`: plan an XPath over a stored document, execute the
    /// plan, and render the chosen strategy per step with estimated vs.
    /// actual cardinalities and work.
    pub fn explain_query(&self, doc_name: &str, xpath: &str) -> Result<String, DbError> {
        self.explain_query_forced(doc_name, xpath, None)
    }

    /// [`Database::explain_query`] with every step pinned to one
    /// strategy (how the benchmarks compare the planner's choice
    /// against each forced alternative).
    pub fn explain_query_forced(
        &self,
        doc_name: &str,
        xpath: &str,
        force: Option<xquery::Strategy>,
    ) -> Result<String, DbError> {
        let doc = self
            .documents
            .get(doc_name)
            .ok_or_else(|| DbError::UnknownDocument(doc_name.to_string()))?;
        let path = xpath::parse(xpath)?;
        self.preflight_xpath(doc, &path)?;
        let plan = self.plan_for(&doc.storage, &path, force);
        let exec = plan.execute(&doc.storage);
        Ok(plan.explain(Some(&exec)))
    }

    /// Evaluate a FLWOR query (see the `xquery` crate) over a stored
    /// document, returning the serialized result sequence.
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
        let nodes = xquery::evaluate(&storage, &q)?;
        Ok(xquery::nodes_to_string(&nodes))
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

/// The outcome of a guarded update ([`Database::execute_update`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The static verdict the update ran under. Never
    /// [`xsanalyze::UpdateVerdict::Reject`] — a rejected update returns
    /// [`DbError::UpdateStaticallyInvalid`] instead of an outcome.
    pub verdict: xsanalyze::UpdateVerdict,
    /// How many nodes the update touched (inserted, deleted, replaced,
    /// or rewritten, per the operation's own counting).
    pub nodes: usize,
    /// How many content models were locally revalidated after the edit.
    /// Always `0` under an `Accept` verdict — that is the point of the
    /// static check.
    pub revalidated: usize,
}

/// One affected parent: the node whose local validity the update may
/// have disturbed, plus its element-name path from the root (empty for
/// the document node) so its schema type can be re-derived statically.
type RecheckSite = (DescPtr, Vec<String>);

/// The members of `targets` that no other member contains, in document
/// order: deleting or replacing an ancestor subsumes its descendants,
/// whose descriptors are freed with it. Decided on the labels alone —
/// ancestors sort before their descendants, and a kept node's
/// descendants follow it contiguously.
fn outermost(storage: &XmlStorage, mut targets: Vec<DescPtr>) -> Vec<DescPtr> {
    targets.sort_by(|&a, &b| storage.cmp_doc_order(a, b));
    let mut kept: Vec<DescPtr> = Vec::with_capacity(targets.len());
    for t in targets {
        if !kept.last().is_some_and(|&k| k == t || storage.is_ancestor(k, t)) {
            kept.push(t);
        }
    }
    kept
}

/// Build the recheck site for `node`: walk ancestors collecting element
/// names root-first (the document node contributes nothing).
fn recheck_site(storage: &XmlStorage, node: DescPtr) -> RecheckSite {
    let mut names = Vec::new();
    let mut cur = Some(node);
    while let Some(n) = cur {
        if let Some(name) = storage.node_name(n) {
            names.push(name.to_string());
        }
        cur = storage.parent(n);
    }
    names.reverse();
    (node, names)
}

/// Resolve the schema type of the element reached by `names` (a
/// root-first element-name path). `None` when the path leaves the
/// schema or a name is ambiguously typed inside its content model —
/// callers then fall back to a whole-document pass.
fn type_at_name_path<'a>(
    schema: &'a DocumentSchema,
    names: &[String],
) -> Option<&'a xsmodel::Type> {
    let mut iter = names.iter();
    if iter.next()? != &schema.root.name {
        return None;
    }
    let mut ty = &schema.root.ty;
    for name in iter {
        let ctd = schema.complex_of(ty)?;
        let xsmodel::ComplexTypeDefinition::ComplexContent { content, .. } = ctd else {
            return None;
        };
        let decls: Vec<_> =
            content.element_declarations().into_iter().filter(|d| &d.name == name).collect();
        let first = *decls.first()?;
        // Several declarations of one name are fine only when they all
        // agree on a single named type.
        if decls.len() > 1 {
            let reference = first.ty.name();
            if reference.is_none() || decls.iter().any(|d| d.ty.name() != reference) {
                return None;
            }
        }
        ty = &first.ty;
    }
    Some(ty)
}

/// Shallow-revalidate one element against its schema type: attributes,
/// character content, and the immediate child-name sequence — exactly
/// the §6.2 obligations local to a single node. Grandchildren were not
/// touched by the update, so their own checks still hold.
fn check_node_against(
    schema: &DocumentSchema,
    options: &LoadOptions,
    cm_cache: &ContentModelCache,
    storage: &XmlStorage,
    node: DescPtr,
    ty: &xsmodel::Type,
    path: &str,
) -> Vec<ValidationError> {
    use xsmodel::ComplexTypeDefinition as Ctd;
    let mut errors = Vec::new();
    let attrs: Vec<(String, String)> = storage
        .attributes(node)
        .into_iter()
        .map(|a| (storage.node_name(a).unwrap_or_default().to_string(), storage.string_value(a)))
        .collect();
    let kids = storage.children(node);
    let child_names: Vec<String> = kids
        .iter()
        .filter(|&&c| storage.kind(c) == xdm::NodeKind::Element)
        .map(|&c| storage.node_name(c).unwrap_or_default().to_string())
        .collect();
    let text: String = kids
        .iter()
        .filter(|&&c| storage.kind(c) == xdm::NodeKind::Text)
        .map(|&c| storage.string_value(c))
        .collect();

    // §6.2 item 6.1: a nilled element has no content — and, conversely,
    // no content obligations, so the child/text checks below are
    // waived. Attributes are still checked: items 6.2/6.3 keep them
    // even when nilled.
    let nilled = storage.nilled(node) == Some(true);
    if nilled && !kids.is_empty() {
        errors.push(ValidationError::new(Rule::R6Nil, path, "nilled element must have no content"));
    }

    if let Some(st) = schema.simple_of(ty) {
        if let Some((name, _)) = attrs.first() {
            errors.push(ValidationError::new(
                Rule::R531Attributes,
                path,
                format!("simple-typed element admits no attributes (found {name:?})"),
            ));
        }
        if nilled {
            return errors;
        }
        if let Some(child) = child_names.first() {
            errors.push(ValidationError::new(
                Rule::R511SimpleValue,
                path,
                format!("simple-typed element admits no element children (found <{child}>)"),
            ));
        }
        if let Err(e) = st.validate(&text) {
            errors.push(ValidationError::new(Rule::R511SimpleValue, path, e.to_string()));
        }
        return errors;
    }
    let Some(ctd) = schema.complex_of(ty) else {
        errors.push(ValidationError::new(
            Rule::TypeUsage,
            path,
            format!("type {:?} is not defined", ty.name().unwrap_or("<anonymous>")),
        ));
        return errors;
    };

    // 5.3.1: attributes of either variant.
    let declared = ctd.attributes();
    for (name, value) in &attrs {
        match declared.get(name.as_str()) {
            None => errors.push(ValidationError::new(
                Rule::R531Attributes,
                path,
                format!("attribute {name:?} is not declared"),
            )),
            Some(ty_name) => match schema.simple_types.get(ty_name) {
                None => errors.push(ValidationError::new(
                    Rule::TypeUsage,
                    path,
                    format!("attribute {name:?} has undefined type {ty_name:?}"),
                )),
                Some(st) => {
                    if let Err(e) = st.validate(value) {
                        errors.push(ValidationError::new(
                            Rule::R531Attributes,
                            path,
                            format!("attribute {name:?}: {e}"),
                        ));
                    }
                }
            },
        }
    }
    if options.require_all_attributes {
        for name in declared.keys() {
            if !attrs.iter().any(|(n, _)| n == name) {
                errors.push(ValidationError::new(
                    Rule::R531Attributes,
                    path,
                    format!("required attribute {name:?} is missing"),
                ));
            }
        }
    }

    if nilled {
        return errors;
    }
    match ctd {
        Ctd::SimpleContent { base, .. } => {
            if let Some(child) = child_names.first() {
                errors.push(ValidationError::new(
                    Rule::R511SimpleValue,
                    path,
                    format!("simple-content element admits no element children (found <{child}>)"),
                ));
            }
            match schema.simple_types.get(base) {
                None => errors.push(ValidationError::new(
                    Rule::TypeUsage,
                    path,
                    format!("simple content base {base:?} is not defined"),
                )),
                Some(st) => {
                    if let Err(e) = st.validate(&text) {
                        errors.push(ValidationError::new(
                            Rule::R511SimpleValue,
                            path,
                            e.to_string(),
                        ));
                    }
                }
            }
        }
        Ctd::ComplexContent { mixed, content, .. } => {
            let ignorable =
                options.ignore_ignorable_whitespace && text.chars().all(char::is_whitespace);
            if !mixed && !text.is_empty() && !ignorable {
                errors.push(ValidationError::new(
                    Rule::R5421NoText,
                    path,
                    format!("text {text:?} in non-mixed content"),
                ));
            }
            if content.is_empty_content() {
                if let Some(child) = child_names.first() {
                    errors.push(ValidationError::new(
                        Rule::R541EmptyContent,
                        path,
                        format!("empty content admits no element children (found <{child}>)"),
                    ));
                }
            } else {
                match cm_cache.get_or_compile(content) {
                    Err(e) => errors.push(ValidationError::new(
                        Rule::R5423GroupMatch,
                        path,
                        e.to_string(),
                    )),
                    Ok(cm) => {
                        let names: Vec<&str> = child_names.iter().map(String::as_str).collect();
                        if let xsmodel::MatchOutcome::Reject { position, expected } =
                            cm.match_children(&names)
                        {
                            let found = names
                                .get(position)
                                .map(|n| format!("<{n}>"))
                                .unwrap_or_else(|| "end of content".to_string());
                            let expected = if expected.is_empty() {
                                "nothing".to_string()
                            } else {
                                expected.join(", ")
                            };
                            errors.push(ValidationError::new(
                                Rule::R5423GroupMatch,
                                path,
                                format!(
                                    "at child {position}: found {found}, \
                                     expected one of {{{expected}}}"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    errors
}

/// The paper's `f` followed by the physical build: validate `xml`
/// against `schema`, hand the transient S-tree to
/// [`XmlStorage::from_tree`], and drop it.
fn ingest(
    schema: &DocumentSchema,
    xml: &Document,
    options: &LoadOptions,
    cache: &ContentModelCache,
) -> Result<XmlStorage, DbError> {
    let loaded = load_document_cached(schema, xml, options, cache).map_err(DbError::Invalid)?;
    Ok(XmlStorage::from_tree(&loaded.store, loaded.doc))
}

/// Whole-document §6.2 validation of a stored document: `f` over `g`
/// of its descriptors.
fn validate_storage(
    schema: &DocumentSchema,
    storage: &XmlStorage,
    options: &LoadOptions,
    cache: &ContentModelCache,
) -> Result<(), Vec<ValidationError>> {
    load_document_cached(schema, &storage_to_document(storage), options, cache).map(drop)
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
    let results = Mutex::new(Vec::with_capacity(jobs));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    local.push((i, job(i)));
                }
                results.lock().unwrap_or_else(|p| p.into_inner()).append(&mut local);
            });
        }
    });
    let mut indexed = results.into_inner().unwrap_or_else(|p| p.into_inner());
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        ];
        let results = db.load_many(&entries, 4);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(DbError::Invalid(_))));
        assert!(matches!(results[2], Err(DbError::UnknownSchema(_))));
        assert!(matches!(results[3], Err(DbError::DuplicateDocument(_))));
        assert!(matches!(results[4], Err(DbError::DuplicateDocument(_))));
        assert!(results[5].is_ok());
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

    #[test]
    fn insert_element_updates_queries_and_serialization() {
        let mut db = db();
        let n = db.update_insert_element("todo", "/list", "item", Some("second")).unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.query("todo", "/list/item").unwrap(), ["first", "second"]);
        assert!(db.serialize("todo").unwrap().contains("<item>second</item>"));
    }

    #[test]
    fn delete_removes_selected_subtrees() {
        let mut db = db();
        db.update_insert_element("todo", "/list", "item", Some("second")).unwrap();
        let n = db.update_delete("todo", "/list/item[1]").unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.query("todo", "/list/item").unwrap(), ["second"]);
    }

    #[test]
    fn delete_never_removes_the_root() {
        let mut db = db();
        assert_eq!(db.update_delete("todo", "/list").unwrap(), 0);
        assert_eq!(db.query("todo", "/list/item").unwrap(), ["first"]);
    }

    #[test]
    fn set_attribute_inserts_and_replaces() {
        let mut db = db();
        let n = db.update_set_attribute("todo", "/list/item", "state", "done").unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.query("todo", "/list/item/@state").unwrap(), ["done"]);
        // Replacing again works and does not duplicate.
        db.update_set_attribute("todo", "/list/item", "state", "archived").unwrap();
        assert_eq!(db.query("todo", "/list/item/@state").unwrap(), ["archived"]);
    }

    #[test]
    fn revalidate_after_schema_conforming_updates() {
        let mut db = db();
        db.update_insert_element("todo", "/list", "item", Some("x")).unwrap();
        assert!(db.revalidate("todo").unwrap().is_empty());
    }

    #[test]
    fn revalidate_detects_schema_violations_introduced_by_updates() {
        let mut db = db();
        // <list> allows only <item> children; inject a rogue element.
        db.update_insert_element("todo", "/list", "rogue", None).unwrap();
        let errs = db.revalidate("todo").unwrap();
        assert!(errs.iter().any(|e| e.rule == algebra::Rule::R5423GroupMatch), "{errs:?}");
    }

    #[test]
    fn updates_touch_many_nodes_at_once() {
        let mut db = db();
        for i in 0..5 {
            db.update_insert_element("todo", "/list", "item", Some(&format!("t{i}"))).unwrap();
        }
        let n = db.update_set_attribute("todo", "/list/item", "state", "bulk").unwrap();
        assert_eq!(n, 6);
        assert_eq!(db.query("todo", "/list/item[@state='bulk']").unwrap().len(), 6);
    }

    #[test]
    fn storage_invariants_hold_after_update_batches() {
        let mut db = db();
        for i in 0..30 {
            db.update_insert_element("todo", "/list", "item", Some(&format!("v{i}"))).unwrap();
        }
        db.update_delete("todo", "/list/item[2]").unwrap();
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
        let n = db.update_set_text("d", "/r/v", "new").unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.query("d", "/r/v").unwrap(), ["new", "new"]);
        assert!(db.revalidate("d").unwrap().is_empty());
        let storage = &db.document("d").unwrap().storage;
        assert_eq!(storage.check_invariants(), None);
    }
}

#[cfg(test)]
mod guarded_update_tests {
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
    fn log_db() -> Database {
        let mut db = Database::with_metrics_registry(Arc::new(xsobs::Registry::new()));
        db.register_schema_text("log", LOG).unwrap();
        db.insert("d", "log", "<log><entry>first</entry><entry>second</entry></log>").unwrap();
        db
    }

    fn lib_db() -> Database {
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

    fn nil_db() -> Database {
        let mut db = Database::with_metrics_registry(Arc::new(xsobs::Registry::new()));
        db.register_schema_text("nil", NIL).unwrap();
        db.insert("d", "nil", r#"<form><note xsi:nil="true"/><note>kept</note></form>"#).unwrap();
        db
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
        let out = db.update_insert_before("d", "/log/entry[2]", "entry", Some("mid")).unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(db.query("d", "/log/entry").unwrap(), ["first", "mid", "second"]);
        let out = db.update_insert_after("d", "/log/entry[3]", "entry", Some("last")).unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(db.query("d", "/log/entry").unwrap(), ["first", "mid", "second", "last"]);
        let out = db.update_replace_node("d", "/log/entry[1]", "entry", Some("zero")).unwrap();
        assert_eq!(out.verdict, UpdateVerdict::Accept);
        assert_eq!(db.query("d", "/log/entry").unwrap(), ["zero", "mid", "second", "last"]);
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
