//! Every call the traced replay makes into a layer crate, in one file.
//!
//! The spans are recorded *here*, in the benchmark's own code, around
//! the crates' public functions, in the order `xsserver::server`,
//! `SharedDatabase::apply` and `Database` make those calls today
//! (in-program spans are ROADMAP item 4, not this benchmark's job).
//! When layers merge or a function moves, this is the file a later
//! `benchmark` issue re-points; nothing else in the benchmark names a
//! layer crate's items.
//!
//! A span's name is the stem of the metric it feeds:
//! `xmlparse.parse` → `xmlparse.parse_us`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use algebra::{load_document_cached, ContentModelCache, LoadOptions, LoadedDocument};
use storage::vfs::StdVfs;
use storage::{Wal, XmlStorage};
use xmlparse::{Document, ParseLimits};
use xquery::UpdateExpr;
use xsanalyze::UpdateVerdict;
use xsbench::check::Op;
use xsbench::gen::Family;
use xsdb::Mutation;
use xsmodel::DocumentSchema;
use xsserver::protocol::{self, MAX_REQUEST_FIELDS};
use xsserver::{Opcode, Status};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the trace.
    pub id: u32,
    /// Layer and stage, e.g. `storage.from_tree`.
    pub name: &'static str,
    /// The request it belongs to; spans of one request share this.
    pub request: u32,
    /// The span that caused it.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Duration minus the part of the interval child spans cover.
    pub self_ns: u64,
}

/// A span as recorded on the hot path: two clock reads and one push.
struct RawSpan {
    name: &'static str,
    request: u32,
    parent: Option<u32>,
    start: Instant,
    end: Instant,
}

/// In-memory span recorder. Switched off it reads no clock at all, so
/// the same replay run twice measures the recorder's own overhead.
pub struct Tracer {
    on: bool,
    origin: Instant,
    raw: Vec<RawSpan>,
    innermost: Option<u32>,
    request: u32,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        let raw = Vec::with_capacity(if on { 1 << 18 } else { 0 });
        Tracer { on, origin: Instant::now(), raw, innermost: None, request: 0 }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Open the root span of the next request.
    pub fn begin_request(&mut self, name: &'static str) -> Option<u32> {
        self.request += 1;
        self.begin(name)
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.raw.len() as u32;
        let now = Instant::now();
        self.raw.push(RawSpan {
            name,
            request: self.request,
            parent: self.innermost,
            start: now,
            end: now,
        });
        self.innermost = Some(id);
        Some(id)
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, token: Option<u32>) {
        let Some(id) = token else { return };
        let span = &mut self.raw[id as usize];
        span.end = Instant::now();
        self.innermost = span.parent;
    }

    /// The finished trace: offsets from the trace's start, and each
    /// span's self time (its duration minus its children's).
    pub fn spans(&self) -> Vec<Span> {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let mut child_ns = vec![0u64; self.raw.len()];
        for s in &self.raw {
            if let Some(p) = s.parent {
                child_ns[p as usize] += (s.end - s.start).as_nanos() as u64;
            }
        }
        self.raw
            .iter()
            .enumerate()
            .map(|(i, s)| Span {
                id: i as u32,
                name: s.name,
                request: s.request,
                parent: s.parent,
                start_ns: ns(s.start),
                end_ns: ns(s.end),
                self_ns: ((s.end - s.start).as_nanos() as u64).saturating_sub(child_ns[i]),
            })
            .collect()
    }
}

macro_rules! span {
    ($tracer:expr, $name:expr, $body:expr) => {{
        let token = $tracer.begin($name);
        let out = $body;
        $tracer.end(token);
        out
    }};
}

/// One stored document in both forms, as `StoredDocument` holds them.
struct Stored {
    schema: String,
    loaded: LoadedDocument,
    storage: XmlStorage,
}

type Catalog = BTreeMap<String, Arc<Stored>>;

/// The replayed server: the same state `Database` + `SharedDatabase`
/// keep (schemas, documents in both stored forms, the published epoch,
/// the write-ahead log), driven through the crates' public functions.
pub struct Replay {
    /// The recorder.
    pub tracer: Tracer,
    schemas: BTreeMap<String, Arc<DocumentSchema>>,
    docs: Catalog,
    epoch: Mutex<Arc<Catalog>>,
    cache: Arc<ContentModelCache>,
    options: LoadOptions,
    limits: ParseLimits,
    wal: Wal,
    max_payload: usize,
    /// Time spent in `Wal::sync`, kept even with the recorder off so the
    /// sandbox's fsync weather can be taken out of the overhead ratio.
    pub sync_ns: u64,
    /// `PlanExecution::work` and nodes returned, summed over `QUERY`s.
    pub plan_work: u64,
    /// See [`Replay::plan_work`].
    pub plan_results: u64,
    /// Bytes parsed and nodes loaded, for the two throughput metrics.
    pub parsed_bytes: u64,
    /// See [`Replay::parsed_bytes`].
    pub loaded_nodes: u64,
}

fn internal(e: impl std::fmt::Display) -> (Status, Vec<String>) {
    (Status::Internal, vec![e.to_string()])
}

impl Replay {
    /// An empty database logging to `wal_dir`.
    pub fn new(wal_dir: &Path, traced: bool) -> Result<Replay, String> {
        let limits = ParseLimits::default();
        let (wal, _) = Wal::open(&StdVfs, wal_dir, storage::DEFAULT_ROTATE_BYTES)
            .map_err(|e| e.to_string())?;
        Ok(Replay {
            tracer: Tracer::new(traced),
            schemas: BTreeMap::new(),
            docs: Catalog::new(),
            epoch: Mutex::new(Arc::new(Catalog::new())),
            cache: Arc::new(ContentModelCache::new()),
            options: LoadOptions::default(),
            max_payload: protocol::max_payload_for(&limits),
            limits,
            wal,
            sync_ns: 0,
            plan_work: 0,
            plan_results: 0,
            parsed_bytes: 0,
            loaded_nodes: 0,
        })
    }

    /// Register a schema (set-up; feeds `xsmodel.schema_compile_us`).
    pub fn put_schema(&mut self, family: Family) -> Result<(), String> {
        let root = self.tracer.begin_request("request.PUT_SCHEMA");
        let schema = span!(self.tracer, "xsmodel.schema_compile", {
            let schema = xsmodel::parse_schema_text(family.xsd()).map_err(|e| e.to_string())?;
            let issues = xsmodel::check(&schema);
            if !issues.is_empty() {
                return Err(format!("schema {} is not well-formed", family.schema_name()));
            }
            schema
        });
        self.schemas.insert(family.schema_name().to_string(), Arc::new(schema));
        self.tracer.end(root);
        Ok(())
    }

    /// Serve one request the way the server does: decode the frame,
    /// dispatch, encode the response. Returns what the client would see.
    pub fn request(&mut self, op: &Op) -> (Status, Vec<String>) {
        let refs: Vec<&str> = op.fields.iter().map(String::as_str).collect();
        let Ok((header, payload)) = protocol::encode_frame(op.opcode as u8, &refs) else {
            return internal("request does not fit a frame");
        };
        let mut wire = header.to_vec();
        wire.extend_from_slice(&payload);

        let root = self.tracer.begin_request(request_name(op.opcode));
        let decoded = span!(
            self.tracer,
            "xsserver.decode_frame",
            protocol::try_decode_frame(&wire, self.max_payload, MAX_REQUEST_FIELDS)
        );
        let (status, fields) = match decoded {
            Ok(Some(frame)) => self.dispatch(op.opcode, &frame.fields),
            _ => internal("request frame did not decode"),
        };
        span!(self.tracer, "xsserver.encode_frame", {
            let refs: Vec<&str> = fields.iter().map(String::as_str).collect();
            let _ = std::hint::black_box(protocol::encode_frame(status as u8, &refs));
        });
        self.tracer.end(root);
        (status, fields)
    }

    fn dispatch(&mut self, opcode: Opcode, f: &[String]) -> (Status, Vec<String>) {
        match opcode {
            Opcode::PutDoc => self.put_doc(&f[0], &f[1], &f[2]),
            Opcode::Validate => self.validate(&f[0], &f[1]),
            Opcode::DelDoc => self.del_doc(&f[0]),
            Opcode::Query => self.query(&f[0], &f[1]),
            Opcode::Xquery => self.xquery(&f[0], &f[1]),
            Opcode::Update => self.update(&f[0], &f[1]),
            other => internal(format!("the replay does not serve {}", other.name())),
        }
    }

    // -------------------------------------------------- SharedDatabase

    /// `SharedDatabase::read`: clone the epoch pointer under its lock.
    fn snapshot(&mut self) -> Arc<Catalog> {
        span!(self.tracer, "core.snapshot_acquire", {
            Arc::clone(&self.epoch.lock().unwrap_or_else(|p| p.into_inner()))
        })
    }

    /// The front of `SharedDatabase::apply`: encode the mutation,
    /// append it, fsync it (durability `fsync`).
    fn log(&mut self, mutation: impl FnOnce() -> Mutation) -> Result<(), (Status, Vec<String>)> {
        let payload = span!(self.tracer, "core.mutation_encode", mutation().encode());
        span!(self.tracer, "storage.wal_append", self.wal.append(&StdVfs, &payload))
            .map_err(internal)?;
        let token = self.tracer.begin("storage.wal_sync");
        let t = Instant::now();
        let synced = self.wal.sync(&StdVfs);
        self.sync_ns += t.elapsed().as_nanos() as u64;
        self.tracer.end(token);
        synced.map(|_| ()).map_err(internal)
    }

    /// The back of `SharedDatabase::apply`: publish a fresh epoch, then
    /// let go of the previous one (which frees whatever only it held).
    fn publish(&mut self) {
        let old = span!(self.tracer, "core.publish", {
            let next = Arc::new(self.docs.clone());
            std::mem::replace(&mut *self.epoch.lock().unwrap_or_else(|p| p.into_inner()), next)
        });
        span!(self.tracer, "core.release_old", drop(old));
    }

    // -------------------------------------------------------- Database

    /// `Database::insert`.
    fn put_doc(&mut self, doc: &str, schema_name: &str, xml: &str) -> (Status, Vec<String>) {
        let logged = self.log(|| Mutation::Insert {
            doc: doc.to_string(),
            schema: schema_name.to_string(),
            xml: xml.to_string(),
        });
        if let Err(e) = logged {
            return e;
        }
        let parsed = match span!(
            self.tracer,
            "xmlparse.parse",
            Document::parse_with_limits(xml, &self.limits)
        ) {
            Ok(p) => p,
            Err(e) => return (Status::Xml, vec![e.to_string()]),
        };
        self.parsed_bytes += xml.len() as u64;
        let Some(schema) = self.schemas.get(schema_name).cloned() else {
            return (Status::UnknownSchema, vec![schema_name.to_string()]);
        };
        let loaded = span!(
            self.tracer,
            "algebra.load",
            load_document_cached(&schema, &parsed, &self.options, &self.cache)
        );
        let loaded = match loaded {
            Ok(l) => l,
            Err(errors) => {
                return (Status::Invalid, errors.iter().map(|e| e.to_string()).collect())
            }
        };
        self.loaded_nodes += loaded.store.len() as u64;
        let storage = span!(
            self.tracer,
            "storage.from_tree",
            XmlStorage::from_tree(&loaded.store, loaded.doc)
        );
        let stored = Stored { schema: schema_name.to_string(), loaded, storage };
        self.docs.insert(doc.to_string(), Arc::new(stored));
        self.publish();
        (Status::Ok, Vec::new())
    }

    /// `Database::validate` on a read snapshot.
    fn validate(&mut self, schema_name: &str, xml: &str) -> (Status, Vec<String>) {
        let _snapshot = self.snapshot();
        let Some(schema) = self.schemas.get(schema_name).cloned() else {
            return (Status::UnknownSchema, vec![schema_name.to_string()]);
        };
        let parsed = match span!(
            self.tracer,
            "xmlparse.parse",
            Document::parse_with_limits(xml, &self.limits)
        ) {
            Ok(p) => p,
            Err(e) => return (Status::Xml, vec![e.to_string()]),
        };
        self.parsed_bytes += xml.len() as u64;
        let loaded = span!(
            self.tracer,
            "algebra.load",
            load_document_cached(&schema, &parsed, &self.options, &self.cache)
        );
        match loaded {
            Ok(l) => {
                self.loaded_nodes += l.store.len() as u64;
                (Status::Ok, Vec::new())
            }
            Err(errors) => (Status::Ok, errors.iter().map(|e| e.to_string()).collect()),
        }
    }

    /// `Database::delete`.
    fn del_doc(&mut self, doc: &str) -> (Status, Vec<String>) {
        if let Err(e) = self.log(|| Mutation::Delete { doc: doc.to_string() }) {
            return e;
        }
        if self.docs.remove(doc).is_none() {
            return (Status::UnknownDocument, vec![doc.to_string()]);
        }
        self.publish();
        (Status::Ok, Vec::new())
    }

    /// `Database::query`: parse, pre-flight against the DataGuide, plan,
    /// execute, string values.
    fn query(&mut self, doc: &str, expr: &str) -> (Status, Vec<String>) {
        let snapshot = self.snapshot();
        let Some(stored) = snapshot.get(doc) else {
            return (Status::UnknownDocument, vec![doc.to_string()]);
        };
        let storage = &stored.storage;
        let path = match span!(self.tracer, "xpath.parse", xpath::parse(expr)) {
            Ok(p) => p,
            Err(e) => return (Status::XPath, vec![e.to_string()]),
        };
        let statically_empty = span!(
            self.tracer,
            "xsanalyze.path_typing",
            !xsanalyze::analyze_xpath_in_guide(storage.schema(), &path).is_empty()
        );
        let plan = span!(
            self.tracer,
            "xquery.plan",
            xquery::plan(storage, &path, &xquery::PlanOptions { force: None, statically_empty })
        );
        let exec = span!(self.tracer, "xquery.execute", plan.execute(storage));
        self.plan_work += exec.work;
        self.plan_results += exec.nodes.len() as u64;
        let values = span!(
            self.tracer,
            "storage.string_value",
            exec.nodes.iter().map(|&p| storage.string_value(p)).collect::<Vec<String>>()
        );
        (Status::Ok, values)
    }

    /// `Database::xquery`: parse, evaluate over block storage, serialize.
    fn xquery(&mut self, doc: &str, text: &str) -> (Status, Vec<String>) {
        let snapshot = self.snapshot();
        let Some(stored) = snapshot.get(doc) else {
            return (Status::UnknownDocument, vec![doc.to_string()]);
        };
        let query = match span!(self.tracer, "xquery.parse_query", xquery::parse_query(text)) {
            Ok(q) => q,
            Err(e) => return (Status::XQuery, vec![e.to_string()]),
        };
        let nodes =
            match span!(self.tracer, "xquery.evaluate", xquery::evaluate(&&stored.storage, &query))
            {
                Ok(n) => n,
                Err(e) => return (Status::XQuery, vec![e.to_string()]),
            };
        let out = span!(self.tracer, "xquery.serialize", xquery::nodes_to_string(&nodes));
        (Status::Ok, vec![out])
    }

    /// `Database::execute_update`: parse, static verdict, then — unless
    /// rejected — copy both stored forms (a snapshot always shares the
    /// document), resolve the target, mutate block storage, rebuild the
    /// tree from it. The local revalidation of a Recheck verdict is
    /// private to `xsdb` and has no public entry point; it stays in
    /// `core.unattributed_share`.
    fn update(&mut self, doc: &str, text: &str) -> (Status, Vec<String>) {
        let logged =
            self.log(|| Mutation::Update { doc: doc.to_string(), update: text.to_string() });
        if let Err(e) = logged {
            return e;
        }
        let upd = match span!(self.tracer, "xquery.parse_update", xquery::parse_update(text)) {
            Ok(u) => u,
            Err(e) => return (Status::XQuery, vec![e.to_string()]),
        };
        let Some(shared) = self.docs.get(doc).cloned() else {
            return (Status::UnknownDocument, vec![doc.to_string()]);
        };
        let Some(schema) = self.schemas.get(&shared.schema).cloned() else {
            return (Status::UnknownSchema, vec![shared.schema.clone()]);
        };
        let analysis = span!(
            self.tracer,
            "xsanalyze.update_verdict",
            xsanalyze::analyze_update(&schema, &upd)
        );
        if analysis.verdict == UpdateVerdict::Reject {
            let message =
                analysis.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("; ");
            return (Status::UpdateStaticallyInvalid, vec![message]);
        }
        // `Arc::make_mut` on a document the published epoch shares.
        let loaded = span!(self.tracer, "xdm.tree_clone", shared.loaded.clone());
        let mut storage = span!(self.tracer, "storage.clone", shared.storage.clone());
        drop(shared);
        let targets =
            span!(self.tracer, "xpath.eval_guided", xpath::eval_guided(&storage, upd.target()));
        let mutated = span!(self.tracer, "storage.mutate", mutate(&mut storage, &upd, &targets));
        let nodes = match mutated {
            Ok(n) => n,
            Err(e) => return internal(e),
        };
        let (store, root) =
            span!(self.tracer, "core.storage_to_tree", xsdb::storage_to_tree(&storage));
        span!(self.tracer, "xdm.tree_drop", drop(loaded));
        let schema_name = self.docs[doc].schema.clone();
        let stored =
            Stored { schema: schema_name, loaded: LoadedDocument { store, doc: root }, storage };
        self.docs.insert(doc.to_string(), Arc::new(stored));
        self.publish();
        // One recheck site per touched element for replace-value.
        let revalidated = if analysis.verdict == UpdateVerdict::Recheck { nodes } else { 0 };
        (Status::Ok, vec![analysis.verdict.to_string(), nodes.to_string(), revalidated.to_string()])
    }

    // ------------------------------------------------------------ probes

    /// Stored documents, largest first by node count: `(nodes, name)`.
    pub fn documents_by_size(&self) -> Vec<(usize, String)> {
        let mut all: Vec<(usize, String)> =
            self.docs.iter().map(|(n, d)| (d.loaded.store.len(), n.clone())).collect();
        all.sort_by(|a, b| b.cmp(a));
        all
    }

    /// Mean node count of the stored documents.
    pub fn nodes_per_doc(&self) -> f64 {
        let total: usize = self.docs.values().map(|d| d.loaded.store.len()).sum();
        total as f64 / self.docs.len().max(1) as f64
    }

    /// Relabelled nodes over all stored documents (Proposition 1: 0).
    pub fn relabels(&self) -> u64 {
        self.docs.values().map(|d| d.storage.relabel_count()).sum()
    }

    /// Clone and drop both stored forms of `doc` and serialize it (the
    /// paper's `g`), as a request of its own. On workloads without
    /// updates this is where the clone/drop costs at the workload's
    /// document size come from.
    pub fn probe_document(&mut self, doc: &str) {
        let Some(stored) = self.docs.get(doc).cloned() else { return };
        let root = self.tracer.begin_request("request.PROBE");
        let tree = span!(self.tracer, "xdm.tree_clone", stored.loaded.clone());
        let blocks = span!(self.tracer, "storage.clone", stored.storage.clone());
        span!(self.tracer, "xdm.tree_drop", drop(tree));
        drop(blocks);
        span!(self.tracer, "algebra.serialize", {
            std::hint::black_box(
                algebra::serialize_tree(&stored.loaded.store, stored.loaded.doc).to_xml(),
            );
        });
        self.tracer.end(root);
    }

    /// Validate every `(element, text)` leaf value against the simple
    /// type the orders schema declares for it — the facet share of
    /// `algebra.load`, through `xstypes`' public entry point.
    pub fn probe_facets(&mut self, leaves: &[(&str, &str)]) -> Result<(), String> {
        let Some(schema) = self.schemas.get(Family::Orders.schema_name()).cloned() else {
            return Ok(());
        };
        let mut types = BTreeMap::new();
        for (element, type_name) in xsbench::gen::ORDERS_LEAF_TYPES {
            let ty =
                schema.simple_types.get(type_name).ok_or(format!("no simple type {type_name}"))?;
            types.insert(element, ty);
        }
        let root = self.tracer.begin_request("request.PROBE");
        let bad = span!(self.tracer, "xstypes.facet_check", {
            leaves.iter().filter(|(element, text)| types[element].validate(text).is_err()).count()
        });
        self.tracer.end(root);
        if bad == 0 {
            Ok(())
        } else {
            Err(format!("{bad} generated leaf values fail their declared simple type"))
        }
    }
}

/// The storage edits of `insert_into_raw`, `delete_raw` and
/// `set_text_raw` — the three update kinds the generator emits.
fn mutate(
    storage: &mut XmlStorage,
    upd: &UpdateExpr,
    targets: &[storage::DescPtr],
) -> Result<usize, String> {
    let fail = |e: storage::StorageError| e.to_string();
    match upd {
        UpdateExpr::InsertInto { name, text, .. } => {
            for &parent in targets {
                let last = storage.children(parent).last().copied();
                let new = storage.insert_element(parent, last, name).map_err(fail)?;
                if let Some(t) = text {
                    storage.insert_text(new, None, t.as_str()).map_err(fail)?;
                }
            }
        }
        UpdateExpr::Delete { .. } => {
            for &victim in targets {
                storage.delete(victim).map_err(fail)?;
            }
        }
        UpdateExpr::ReplaceValue { value, .. } => {
            for &t in targets {
                for c in storage.children(t) {
                    storage.delete(c).map_err(fail)?;
                }
                storage.insert_text(t, None, value.as_str()).map_err(fail)?;
            }
        }
        other => return Err(format!("the replay does not apply {other}")),
    }
    Ok(targets.len())
}

fn request_name(opcode: Opcode) -> &'static str {
    match opcode {
        Opcode::PutDoc => "request.PUT_DOC",
        Opcode::Validate => "request.VALIDATE",
        Opcode::DelDoc => "request.DEL_DOC",
        Opcode::Query => "request.QUERY",
        Opcode::Xquery => "request.XQUERY",
        Opcode::Update => "request.UPDATE",
        _ => "request.OTHER",
    }
}

/// The untraced whole call through `SharedDatabase`, as the server's
/// `dispatch` makes it. Returns what the client would see.
pub fn whole_call(shared: &xsdb::SharedDatabase, op: &Op) -> (Status, Vec<String>) {
    let f = &op.fields;
    let fail = |e: xsdb::DbError| (Status::of(&e), vec![e.to_string()]);
    match op.opcode {
        Opcode::PutDoc => {
            let m = Mutation::Insert { doc: f[0].clone(), schema: f[1].clone(), xml: f[2].clone() };
            shared.apply(&m).map(|_| (Status::Ok, Vec::new())).unwrap_or_else(fail)
        }
        Opcode::DelDoc => shared
            .apply(&Mutation::Delete { doc: f[0].clone() })
            .map(|_| (Status::Ok, Vec::new()))
            .unwrap_or_else(fail),
        Opcode::Update => {
            let m = Mutation::Update { doc: f[0].clone(), update: f[1].clone() };
            match shared.apply(&m) {
                Ok(xsdb::ApplyOutcome::UpdatedChecked(o)) => (
                    Status::Ok,
                    vec![o.verdict.to_string(), o.nodes.to_string(), o.revalidated.to_string()],
                ),
                Ok(_) => internal("UPDATE did not report a checked outcome"),
                Err(e) => fail(e),
            }
        }
        Opcode::Validate => shared
            .read()
            .validate(&f[0], &f[1])
            .map(|v| (Status::Ok, v.iter().map(|e| e.to_string()).collect()))
            .unwrap_or_else(fail),
        Opcode::Query => {
            shared.read().query(&f[0], &f[1]).map(|v| (Status::Ok, v)).unwrap_or_else(fail)
        }
        Opcode::Xquery => {
            shared.read().xquery(&f[0], &f[1]).map(|v| (Status::Ok, vec![v])).unwrap_or_else(fail)
        }
        other => internal(format!("the replay does not serve {}", other.name())),
    }
}

/// Open the durable database the whole calls run against, with the
/// schemas registered.
pub fn open_shared(dir: &Path, schemas: &[Family]) -> Result<xsdb::SharedDatabase, String> {
    let (shared, _) = xsdb::SharedDatabase::open_durable(dir, xsdb::Durability::Fsync)
        .map_err(|e| e.to_string())?;
    for family in schemas {
        let m = Mutation::RegisterSchema {
            name: family.schema_name().to_string(),
            xsd: family.xsd().to_string(),
        };
        shared.apply(&m).map_err(|e| e.to_string())?;
    }
    Ok(shared)
}

/// Switch the `xsobs` registry the database records into on or off.
pub fn set_observability(shared: &xsdb::SharedDatabase, on: bool) {
    shared.metrics_registry().set_enabled(on);
}
