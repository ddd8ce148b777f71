//! Database persistence: crash-safe saves and verifying loads.
//!
//! # Layout (manifest version 3)
//!
//! ```text
//! <dir>/CURRENT                       — commit pointer: "v3 gen-<N> <sha256 of manifest>"
//! <dir>/gen-<N>/manifest.xml          — schema + document registry
//! <dir>/gen-<N>/schemas/<file>.xsd    — one XSD per schema (via xsmodel::write_schema)
//! <dir>/gen-<N>/documents/<file>.xsp  — one paged block store per document
//! <dir>/gen-<N>/documents/<file>.xspm — its committed logical→physical map
//! <dir>/.tmp-<N>/…                    — an in-flight save (never read, cleaned up)
//! ```
//!
//! # Atomic-commit protocol
//!
//! A *full* save (a [`Store`]'s first save, or any save of a state whose
//! schema/document registry changed since) stages the complete new generation
//! under `<dir>/.tmp-<N>` — every document written page by page into a
//! [`storage::PageStore`] and committed inside the staging tree, every
//! file fsynced, every directory fsynced — renames it to `<dir>/gen-<N>`,
//! and then commits with a single atomic rename of the `CURRENT` pointer.
//! `CURRENT` records the SHA-256 of the manifest; the manifest records
//! the SHA-256 of every schema file; each document's page store verifies
//! itself (a checksum per page, plus a self-checksummed map). A crash at
//! *any* intermediate step leaves `CURRENT` pointing at the old, complete
//! generation; a torn write of any file is caught at load time.
//!
//! When the state holds the catalog the bound generation's manifest
//! records — the same schema names bound to the same schema values, the
//! same document names under the same schema names — [`Store::save`]
//! skips the staging protocol entirely. What it writes is the difference
//! between two state values, by identity: a document whose `Arc` is the
//! one the store saved (or loaded) last costs **zero** write operations,
//! and a changed document re-writes its catalog page and the pages of
//! every §9 block and location segment that is not the allocation saved
//! last ([`storage::paged::SavedPages`]) — for a one-node update, one
//! block — plus one map rename. This holds for any two states, not
//! only for a state and its descendant. Shadow paging makes the map rename
//! the per-document commit point, so a crash leaves that document
//! loadable as its complete old or complete new state. The commit unit
//! of an incremental save is the document; cross-document atomicity is
//! only provided by full saves.
//!
//! Version 3 is the only layout read: a `CURRENT` pointer naming any
//! other version is refused with [`DbError::Corrupt`] (the version-1 and
//! version-2 layouts held whole-document XML text, a second stored form).
//!
//! Loading replays schema registration and re-validates every decoded
//! block storage through `f` (over `g` of its descriptors) on the way in
//! — a persisted database cannot smuggle an invalid document past `f`.
//! Under [`LoadPolicy::Strict`] any failure
//! aborts the load; under [`LoadPolicy::Lenient`] corrupt, invalid, or
//! missing schemas/documents are quarantined in the [`LoadReport`] and
//! the rest of the database loads.
//!
//! # Parallel recovery
//!
//! Recovery ([`Recovery`]) keeps the result of the sequential fold and
//! spreads its work over every core. Documents are independent, so each
//! checkpointed document is read, checksummed, decoded and re-validated
//! on a worker thread, and the documents then enter the catalog one at
//! a time in manifest order. The write-ahead-log tail replays in waves
//! of records naming distinct documents: a wave is prepared in parallel
//! against the state before it and committed in log order (see
//! [`replay_wal_records`]).

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

use algebra::ValidationError;
use storage::paged::SavedPages;
use storage::{PageStore, WalRecord, XmlStorage, PAGE_SIZE};
use xmlparse::{Document, Element};
use xsmodel::DocumentSchema;

use crate::checksum::sha256_hex;
use crate::database::{Database, StoredDocument};
use crate::error::DbError;
use crate::mutation::{is_deterministic_rejection, Mutation};
use crate::vfs::{StdVfs, Vfs};

/// The subdirectory of a database directory holding its write-ahead
/// log segments (see [`crate::SharedDatabase::open_durable`]).
pub(crate) const WAL_SUBDIR: &str = "wal";

/// How a load ([`Store::open`], [`Database::load_dir_report`]) reacts to
/// a damaged entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadPolicy {
    /// Any corrupt, invalid, or missing file aborts the whole load
    /// (the historical all-or-nothing behavior).
    #[default]
    Strict,
    /// Damaged schemas/documents are quarantined in the [`LoadReport`];
    /// everything intact still loads. Only a damaged manifest or
    /// `CURRENT` pointer — the integrity roots — aborts the load.
    Lenient,
}

/// What kind of entry was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineKind {
    /// A schema file (its dependent documents are quarantined too).
    Schema,
    /// A document file.
    Document,
}

/// One entry the lenient loader refused to admit, and why.
#[derive(Debug)]
pub struct Quarantine {
    /// Schema or document.
    pub kind: QuarantineKind,
    /// The registry name from the manifest.
    pub name: String,
    /// The on-disk file backing the entry, when the manifest named one.
    pub file: Option<PathBuf>,
    /// The failure that caused the quarantine.
    pub error: DbError,
}

/// The outcome report of a load ([`Store::open`], [`Database::load_dir_report`]).
#[derive(Debug, Default)]
pub struct LoadReport {
    /// The generation that was loaded (`None` when nothing was: a
    /// fresh [`crate::SharedDatabase::open_durable`] directory).
    pub generation: Option<u64>,
    /// Entries refused under [`LoadPolicy::Lenient`].
    pub quarantined: Vec<Quarantine>,
    /// Non-fatal observations (e.g. a write-ahead log that stopped
    /// replaying early under [`LoadPolicy::Lenient`]).
    pub warnings: Vec<String>,
    /// Stale in-flight save directories removed before loading.
    pub cleaned_temps: Vec<PathBuf>,
}

impl LoadReport {
    /// True when nothing was quarantined and nothing was worth warning
    /// about.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.warnings.is_empty()
    }
}

/// The generation a [`Store`] last wrote or loaded: saves can skip the
/// staging protocol while `CURRENT` still names it.
#[derive(Debug)]
struct Binding {
    gen: u64,
    /// The exact `CURRENT` contents, re-verified before every
    /// incremental save so a concurrent writer is never clobbered.
    current_line: String,
}

/// Per-document persistence state: the file names inside the bound
/// generation, the page store mirroring them, and what those pages hold.
#[derive(Debug)]
struct DocPersist {
    file: String,
    map: String,
    /// The schema name the manifest records for the document.
    schema: String,
    store: PageStore,
    /// The document the pages hold, by identity: while it is installed
    /// a save skips the document.
    doc: Weak<StoredDocument>,
    /// Its blocks and location segments, by identity.
    pages: SavedPages,
    /// The write-ahead-log epoch stamped into the document's on-disk
    /// catalog by its last committed save: every logged mutation with a
    /// sequence number at or below it is reflected in the pages, so
    /// recovery skips those records for this document.
    saved_epoch: u64,
}

/// The on-disk mirror of a database directory: which generation it
/// holds, and one page store per document. It belongs to whoever saves
/// — a [`crate::SharedDatabase`]'s writer, or a caller holding a plain
/// [`Database`] — not to the state it saves. It may be given any state:
/// a save writes the difference between that state and the one saved (or
/// opened) last, by identity.
///
/// ```
/// use xsdb::{Database, Store};
///
/// let dir = std::env::temp_dir().join(format!("xsdb-store-doc-{}", std::process::id()));
/// let mut db = Database::new();
/// db.register_schema_text("s", r#"
///   <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
///     <xs:element name="n" type="xs:string"/>
///   </xs:schema>"#).unwrap();
/// db.insert("d", "s", "<n>a</n>").unwrap();
/// let mut store = Store::new(&dir);
/// store.save(&db).unwrap(); // a full generation
/// db.execute_update("d", r#"replace value of node /n with "b""#).unwrap();
/// store.save(&db).unwrap(); // only the changed block's pages
/// let (_, reopened, _) = Store::open(&dir, Default::default()).unwrap();
/// assert_eq!(reopened.query("d", "/n").unwrap(), ["b"]);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    bound: Option<Binding>,
    /// The schemas of the state last saved or loaded, by identity.
    schemas: BTreeMap<String, Weak<DocumentSchema>>,
    docs: BTreeMap<String, DocPersist>,
}

/// Encode an arbitrary name as a filesystem-safe file stem.
fn file_stem(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
            out.push(c);
        } else {
            out.push_str(&format!("%{:04X}", c as u32));
        }
    }
    out
}

/// Parse `gen-<N>` / `.tmp-<N>` directory names.
fn generation_of(name: &str) -> Option<u64> {
    name.strip_prefix("gen-").or_else(|| name.strip_prefix(".tmp-"))?.parse().ok()
}

/// The manifest layout version this build writes and reads.
const LAYOUT_VERSION: &str = "3";

/// The generation and recorded manifest digest named by a `CURRENT`
/// pointer.
///
/// The format is exact — `v3 gen-<N> <64 hex>\n`, single spaces, one
/// trailing newline — so that *any* single-byte change to the pointer
/// is detected as corruption rather than silently tolerated. A pointer
/// of the right shape naming another layout version is refused by name.
fn parse_current(text: &str) -> Result<(u64, String), DbError> {
    let corrupt = || DbError::Corrupt("unrecognized CURRENT pointer".into());
    let line = text.strip_suffix('\n').ok_or_else(corrupt)?;
    let mut parts = line.split(' ');
    let (magic, gen_name, digest) = (parts.next(), parts.next(), parts.next());
    match (magic, gen_name, digest, parts.next()) {
        (Some(magic), Some(gen_name), Some(digest), None) if !line.contains('\n') => {
            let version = magic
                .strip_prefix('v')
                .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(corrupt)?;
            if version != LAYOUT_VERSION {
                return Err(DbError::Corrupt(format!(
                    "unsupported layout version {version} (this build reads v{LAYOUT_VERSION} only)"
                )));
            }
            let number = gen_name.strip_prefix("gen-").ok_or_else(corrupt)?;
            if number.is_empty() || !number.bytes().all(|b| b.is_ascii_digit()) {
                return Err(DbError::Corrupt(format!("CURRENT names {gen_name:?}")));
            }
            let gen = number
                .parse()
                .map_err(|_| DbError::Corrupt(format!("CURRENT names {gen_name:?}")))?;
            if digest.len() != 64 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(DbError::Corrupt("CURRENT carries a malformed digest".into()));
            }
            Ok((gen, digest.to_ascii_lowercase()))
        }
        _ => Err(corrupt()),
    }
}

/// Reject manifest `file` attributes that could escape the generation
/// directory (a hostile manifest must not become a path traversal).
fn safe_file_name(file: &str) -> Result<(), DbError> {
    if file.is_empty()
        || file.contains('/')
        || file.contains('\\')
        || file.contains("..")
        || file.starts_with('.')
    {
        return Err(DbError::Corrupt(format!("unsafe file name {file:?} in manifest")));
    }
    Ok(())
}

fn required_attr(entry: &Element, attr: &str, what: &str) -> Result<String, DbError> {
    entry
        .attribute(attr)
        .map(str::to_string)
        .ok_or_else(|| DbError::Corrupt(format!("{what} entry without {attr}")))
}

/// Verify `bytes` against a lowercase-hex SHA-256 from the manifest.
fn verify_checksum(path: &Path, bytes: &[u8], expected: &str) -> Result<(), DbError> {
    let actual = sha256_hex(bytes);
    if actual != expected.to_ascii_lowercase() {
        return Err(DbError::Checksum {
            path: path.to_path_buf(),
            expected: expected.to_string(),
            actual,
        });
    }
    Ok(())
}

fn utf8(path: &Path, bytes: Vec<u8>) -> Result<String, DbError> {
    String::from_utf8(bytes)
        .map_err(|_| DbError::Corrupt(format!("{} is not valid UTF-8", path.display())))
}

/// What a write-ahead-log replay did.
#[derive(Debug, Default)]
struct WalReplaySummary {
    /// Highest sequence number observed across catalogs and records —
    /// the epoch the recovered database is at.
    max_seq: u64,
    /// A lenient-mode message when replay stopped before the end.
    stopped: Option<String>,
}

/// One decoded record of a replay wave, and whether its document's
/// catalog epoch already covers it.
struct Pending<'a> {
    rec: &'a WalRecord,
    m: Mutation,
    covered: bool,
}

/// The document a record reads and writes; `None` for a schema record,
/// whose preparation reads the whole registry.
fn document_of(m: &Mutation) -> Option<&str> {
    match m {
        Mutation::Insert { doc, .. } | Mutation::Delete { doc } | Mutation::Update { doc, .. } => {
            Some(doc)
        }
        Mutation::RegisterSchema { .. } | Mutation::RemoveSchema { .. } => None,
    }
}

/// Re-apply recovered write-ahead-log records to `db` in log order,
/// with their preparations spread over every core.
///
/// The log is cut into *waves*: maximal runs of consecutive records
/// that name distinct documents, at most four per worker. A schema
/// record is a wave of its own, since its preparation reads the whole
/// registry. A document record's preparation reads only its own
/// document slot and the schema registry, and no other record of its
/// wave writes either, so every record of a wave is prepared in
/// parallel ([`Mutation::prepare`]: parse, `f`, the static verdict, the
/// recheck) against the state before the wave, and the preparations
/// then commit in log order. A commit that is [`crate::Stale`], or a
/// refusal prepared before an earlier record of its wave committed, is
/// prepared again against the current state before it counts
/// (`wal.replay_reprepared_total`), so every verdict is the one the
/// sequential fold would reach and the recovered state equals it.
///
/// `doc_epoch` reports the on-disk catalog epoch of a document (0 when
/// unknown): a document-scoped record with `seq <= doc_epoch(doc)` is
/// already folded into the pages and is skipped. A record the database
/// *rejects* deterministically (duplicate/unknown name, invalid
/// document, refused update) is skipped too. The write path prepares a
/// mutation before logging it and never logs a rejection, so such a
/// record is either one whose effect already reached the paged store (a
/// registry record that survived a crash between a checkpoint's save
/// and its log truncation) or one written by an older binary, which
/// logged before it applied. Run `SAVE` (a checkpoint) before switching
/// binaries, so no log record outlives the binary that wrote it.
/// Environmental failures (I/O, corruption) abort under
/// [`LoadPolicy::Strict`] and stop the replay with a warning under
/// [`LoadPolicy::Lenient`]; no record after the failing one commits.
fn replay_wal_records(
    db: &mut Database,
    records: &[WalRecord],
    doc_epoch: impl Fn(&str) -> u64,
    policy: LoadPolicy,
    summary: &mut WalReplaySummary,
) -> Result<(), DbError> {
    let obs = xsobs::global();
    let _span = obs.span(xsobs::HistogramId::WalReplay);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut wave: Vec<Pending> = Vec::new();
    for rec in records {
        let m = match Mutation::decode(&rec.payload) {
            Ok(m) => m,
            Err(e) => {
                if replay_wave(db, &mut wave, workers, policy, summary)?.is_continue() {
                    obs.incr(xsobs::CounterId::WalReplayRecords);
                    stop(rec.seq, e, policy, summary)?;
                }
                return Ok(());
            }
        };
        let covered = m.doc_name().is_some_and(|doc| rec.seq <= doc_epoch(doc));
        let doc = document_of(&m);
        let barrier = !covered && doc.is_none();
        let clash = !covered && wave.iter().any(|p| !p.covered && document_of(&p.m) == doc);
        let cut = barrier || clash || wave.len() >= 4 * workers;
        if cut && replay_wave(db, &mut wave, workers, policy, summary)?.is_break() {
            return Ok(());
        }
        wave.push(Pending { rec, m, covered });
        if barrier && replay_wave(db, &mut wave, workers, policy, summary)?.is_break() {
            return Ok(());
        }
    }
    replay_wave(db, &mut wave, workers, policy, summary).map(drop)
}

/// Replay one wave (see [`replay_wal_records`]) and empty it. Breaks
/// when a lenient replay stopped.
fn replay_wave(
    db: &mut Database,
    wave: &mut Vec<Pending>,
    workers: usize,
    policy: LoadPolicy,
    summary: &mut WalReplaySummary,
) -> Result<ControlFlow<()>, DbError> {
    if wave.is_empty() {
        return Ok(ControlFlow::Continue(()));
    }
    let obs = xsobs::global();
    obs.incr(xsobs::CounterId::WalReplayWaves);
    let wave = std::mem::take(wave);
    let mut changed = false;
    let flow = db.prepare_then_commit(
        wave.len(),
        workers,
        |db, i| (!wave[i].covered).then(|| wave[i].m.prepare(db)),
        |db, i, prepared| {
            let Pending { rec, m, .. } = &wave[i];
            obs.incr(xsobs::CounterId::WalReplayRecords);
            summary.max_seq = summary.max_seq.max(rec.seq);
            let Some(prepared) = prepared else {
                obs.incr(xsobs::CounterId::WalReplaySkipped);
                return ControlFlow::Continue(());
            };
            let verdict = db.commit_speculative(prepared, changed).unwrap_or_else(|| {
                obs.incr(xsobs::CounterId::WalReplayReprepared);
                m.apply(db)
            });
            match verdict {
                Ok(_) => {
                    changed = true;
                    ControlFlow::Continue(())
                }
                Err(e) if is_deterministic_rejection(&e) => {
                    obs.incr(xsobs::CounterId::WalReplaySkipped);
                    ControlFlow::Continue(())
                }
                Err(e) => ControlFlow::Break((rec.seq, e)),
            }
        },
    );
    match flow {
        ControlFlow::Continue(()) => Ok(ControlFlow::Continue(())),
        ControlFlow::Break((seq, e)) => {
            stop(seq, e, policy, summary)?;
            Ok(ControlFlow::Break(()))
        }
    }
}

/// Stop a replay at record `seq`, which failed with `e`: an error under
/// [`LoadPolicy::Strict`], a warning under [`LoadPolicy::Lenient`].
fn stop(
    seq: u64,
    e: DbError,
    policy: LoadPolicy,
    summary: &mut WalReplaySummary,
) -> Result<(), DbError> {
    match policy {
        LoadPolicy::Strict => Err(e),
        LoadPolicy::Lenient => {
            summary.stopped = Some(format!("wal replay stopped at record {seq}: {e}"));
            Ok(())
        }
    }
}

/// A document decoded from its page store by a checkpoint-load worker,
/// with the verdict of its re-check.
struct Decoded {
    schema: String,
    storage: XmlStorage,
    checked: Result<Vec<ValidationError>, DbError>,
    persist: DocPersist,
}

/// Decode one manifest `<document>` entry: open its self-verifying map,
/// read and checksum every page, decode the blocks, check the storage
/// invariants, and re-validate it through `f` against its registered
/// schema. Reads only the files and the schema registry, so the
/// checkpoint load runs it for every entry at once.
fn decode_document(
    db: &Database,
    entry: &Element,
    docs_dir: &Path,
    dead_schemas: &[String],
    vfs: &dyn Vfs,
) -> Result<Decoded, DbError> {
    let schema = required_attr(entry, "schema", "document")?;
    if dead_schemas.contains(&schema) {
        return Err(DbError::UnknownSchema(schema));
    }
    let file = required_attr(entry, "file", "document")?;
    safe_file_name(&file)?;
    let map = required_attr(entry, "map", "document")?;
    safe_file_name(&map)?;
    let store = PageStore::open(vfs, &docs_dir.join(&map))?;
    let (storage, saved_epoch, pages) =
        storage::paged::load_with_epoch(&store, vfs, &docs_dir.join(&file))?;
    let checked = db.check_decoded(entry.attribute("name").unwrap_or_default(), &schema, &storage);
    // The document's `Arc` exists once it is admitted.
    let doc = Weak::new();
    let persist = DocPersist { file, map, schema: schema.clone(), store, doc, pages, saved_epoch };
    Ok(Decoded { schema, storage, checked, persist })
}

/// A recovery in progress: the checkpointed state a directory's
/// `CURRENT` names (or an empty database, for a directory never
/// checkpointed), then the write-ahead-log tail replayed over it.
pub(crate) struct Recovery {
    db: Database,
    report: LoadReport,
    /// Bound to the generation the checkpoint was loaded from.
    store: Store,
    summary: WalReplaySummary,
}

impl Recovery {
    /// Nothing checkpointed in `dir`: the log alone is the state.
    pub(crate) fn fresh(dir: &Path) -> Recovery {
        Recovery {
            db: Database::new(),
            report: LoadReport::default(),
            store: Store::new(dir),
            summary: WalReplaySummary::default(),
        }
    }

    /// Load the checkpoint `dir`'s `CURRENT` names: sweep stale temps,
    /// verify the digest chain to the manifest, register the schemas in
    /// manifest order, then decode and re-check every document on every
    /// core ([`decode_document`]) and admit them one at a time in
    /// manifest order — a duplicate name is refused before its
    /// validation verdict, as a sequential load would.
    pub(crate) fn checkpoint(
        dir: &Path,
        policy: LoadPolicy,
        vfs: &dyn Vfs,
    ) -> Result<Recovery, DbError> {
        // An associated fn has no database yet, so recovery metrics go
        // to the process-global registry.
        let mut span = xsobs::global().span(xsobs::HistogramId::PersistLoad);
        span.set_detail(dir.display().to_string());
        let mut report = LoadReport::default();

        // Stale-temp cleanup: uncommitted saves are garbage by protocol.
        if let Ok(entries) = vfs.read_dir(dir) {
            for entry in entries {
                let Some(name) = entry.file_name().and_then(|n| n.to_str()) else { continue };
                if name.starts_with(".tmp-") && vfs.remove_dir_all(&entry).is_ok() {
                    report.cleaned_temps.push(entry.clone());
                }
                if name == "CURRENT.tmp" && vfs.remove_file(&entry).is_ok() {
                    report.cleaned_temps.push(entry.clone());
                }
            }
        }

        // CURRENT → generation → manifest, with a digest chain
        // protecting each hop.
        let current_path = dir.join("CURRENT");
        let bytes = vfs.read(&current_path).map_err(|e| DbError::io(&current_path, e))?;
        let current_text = utf8(&current_path, bytes)?;
        let (gen, manifest_digest) = parse_current(&current_text)?;
        let root_dir = dir.join(format!("gen-{gen}"));
        let manifest_path = root_dir.join("manifest.xml");
        let manifest_bytes =
            vfs.read(&manifest_path).map_err(|e| DbError::io(&manifest_path, e))?;
        verify_checksum(&manifest_path, &manifest_bytes, &manifest_digest)?;
        let manifest = Document::parse(&utf8(&manifest_path, manifest_bytes)?)
            .map_err(|e| DbError::Corrupt(format!("{}: {e}", manifest_path.display())))?;
        if manifest.root().name != "xsdb".into() {
            return Err(DbError::Corrupt(format!(
                "{}: root element is <{}>, expected <xsdb>",
                manifest_path.display(),
                manifest.root().name
            )));
        }
        if manifest.root().attribute("version") != Some(LAYOUT_VERSION) {
            return Err(DbError::Corrupt(format!(
                "{}: expected manifest version {LAYOUT_VERSION}",
                manifest_path.display()
            )));
        }
        report.generation = Some(gen);

        let mut db = Database::new();
        // Schemas that failed to load; their documents quarantine too.
        let mut dead_schemas: Vec<String> = Vec::new();

        for entry in manifest.root().children_named("schema") {
            let name = required_attr(entry, "name", "schema")?;
            let mut load = || -> Result<(), DbError> {
                let file = required_attr(entry, "file", "schema")?;
                safe_file_name(&file)?;
                let path = root_dir.join("schemas").join(&file);
                let bytes = vfs.read(&path).map_err(|e| DbError::io(&path, e))?;
                verify_checksum(&path, &bytes, &required_attr(entry, "sha256", "schema")?)?;
                db.register_schema_text(&name, &utf8(&path, bytes)?)
            };
            if let Err(error) = load() {
                match policy {
                    LoadPolicy::Strict => return Err(error),
                    LoadPolicy::Lenient => {
                        dead_schemas.push(name.clone());
                        report.quarantined.push(Quarantine {
                            kind: QuarantineKind::Schema,
                            file: entry.attribute("file").map(|f| root_dir.join("schemas").join(f)),
                            name,
                            error,
                        });
                    }
                }
            }
        }

        let docs_dir = root_dir.join("documents");
        let entries: Vec<&Element> = manifest.root().children_named("document").collect();
        let mut docs: BTreeMap<String, DocPersist> = BTreeMap::new();
        let flow = db.prepare_then_commit(
            entries.len(),
            0,
            |db, i| decode_document(db, entries[i], &docs_dir, &dead_schemas, vfs),
            |db, i, decoded| {
                let entry = entries[i];
                let name = match required_attr(entry, "name", "document") {
                    Ok(name) => name,
                    Err(e) => return ControlFlow::Break(e),
                };
                let admitted = decoded.and_then(|d| {
                    let prepared = db.prepare_decoded(&name, &d.schema, d.storage, d.checked)?;
                    db.commit_current(prepared)?;
                    let doc = db.doc_registry().get(&name).map_or_else(Weak::new, Arc::downgrade);
                    docs.insert(name.clone(), DocPersist { doc, ..d.persist });
                    Ok(())
                });
                match (admitted, policy) {
                    (Ok(()), _) => ControlFlow::Continue(()),
                    (Err(error), LoadPolicy::Strict) => ControlFlow::Break(error),
                    (Err(error), LoadPolicy::Lenient) => {
                        report.quarantined.push(Quarantine {
                            kind: QuarantineKind::Document,
                            file: entry.attribute("file").map(|f| docs_dir.join(f)),
                            name,
                            error,
                        });
                        ControlFlow::Continue(())
                    }
                }
            },
        );
        if let ControlFlow::Break(error) = flow {
            return Err(error);
        }
        let summary = WalReplaySummary {
            max_seq: docs.values().map(|d| d.saved_epoch).max().unwrap_or(0),
            ..WalReplaySummary::default()
        };
        let store = Store {
            dir: dir.to_path_buf(),
            bound: Some(Binding { gen, current_line: current_text }),
            schemas: identities(db.schema_registry()),
            docs,
        };
        Ok(Recovery { db, report, store, summary })
    }

    /// Replay the write-ahead-log tail over the loaded state
    /// ([`replay_wal_records`]): records a checkpoint already folded
    /// into a document's pages are skipped by its catalog epoch.
    pub(crate) fn replay(
        &mut self,
        records: &[WalRecord],
        policy: LoadPolicy,
    ) -> Result<(), DbError> {
        let docs = &self.store.docs;
        let epoch = |doc: &str| docs.get(doc).map_or(0, |d| d.saved_epoch);
        replay_wal_records(&mut self.db, records, epoch, policy, &mut self.summary)?;
        self.report.warnings.extend(self.summary.stopped.take());
        Ok(())
    }

    /// The recovered database, the store mirroring its directory, and
    /// the report. A cleanly-loaded checkpoint leaves the store bound to
    /// its generation, so the very next save can be incremental (or
    /// free) — unless replayed records changed the catalog, in which
    /// case the next save stages a fresh generation.
    pub(crate) fn finish(self) -> (Store, Database, LoadReport) {
        let Recovery { mut db, report, mut store, summary } = self;
        if !report.quarantined.is_empty() {
            store = Store::new(&store.dir);
        }
        db.wal_epoch = summary.max_seq;
        if report.generation.is_some() {
            let obs = xsobs::global();
            obs.incr(xsobs::CounterId::PersistLoads);
            obs.add(xsobs::CounterId::PersistQuarantined, report.quarantined.len() as u64);
            obs.add(xsobs::CounterId::PersistRecoveryWarnings, report.warnings.len() as u64);
            obs.add(xsobs::CounterId::PersistTempsSwept, report.cleaned_temps.len() as u64);
        }
        (store, db, report)
    }
}

impl Store {
    /// A store for `dir` that mirrors nothing yet: its first save stages
    /// a full generation there.
    pub fn new(dir: impl AsRef<Path>) -> Store {
        Store {
            dir: dir.as_ref().to_path_buf(),
            bound: None,
            schemas: BTreeMap::new(),
            docs: BTreeMap::new(),
        }
    }

    /// Open the database saved in `dir`: load the checkpoint `CURRENT`
    /// names, re-validating every document, then replay the
    /// write-ahead-log tail over it. Returns the store bound to the
    /// loaded generation, the database, and the load report. Under
    /// [`LoadPolicy::Strict`] any corrupt, invalid or missing file
    /// aborts the load.
    pub fn open(
        dir: impl AsRef<Path>,
        policy: LoadPolicy,
    ) -> Result<(Store, Database, LoadReport), DbError> {
        Store::open_vfs(dir.as_ref(), policy, &StdVfs)
    }

    /// [`Store::open`] over an explicit [`Vfs`] (fault injection and
    /// crash testing).
    pub fn open_vfs(
        dir: &Path,
        policy: LoadPolicy,
        vfs: &dyn Vfs,
    ) -> Result<(Store, Database, LoadReport), DbError> {
        let mut recovery = Recovery::checkpoint(dir, policy, vfs)?;
        let wal_dir = dir.join(WAL_SUBDIR);
        if vfs.exists(&wal_dir) {
            match storage::wal::replay(vfs, &wal_dir) {
                Ok(records) => recovery.replay(&records, policy)?,
                Err(e) => match policy {
                    LoadPolicy::Strict => return Err(e.into()),
                    LoadPolicy::Lenient => {
                        recovery.report.warnings.push(format!("write-ahead log not replayed: {e}"));
                    }
                },
            }
        }
        Ok(recovery.finish())
    }

    /// Save `db` into the store's directory with the atomic-commit
    /// protocol described in the module docs. When the store holds the
    /// generation on disk and `db` holds the catalog it saved last, only
    /// the pages of changed blocks are written — a save with nothing to
    /// write performs zero write operations. `db` may be any state: one
    /// edited apart from the state saved last is saved as it is.
    pub fn save(&mut self, db: &Database) -> Result<(), DbError> {
        self.save_vfs(db, &StdVfs)
    }

    /// [`Store::save`] over an explicit [`Vfs`] (fault injection and
    /// crash testing).
    pub fn save_vfs(&mut self, db: &Database, vfs: &dyn Vfs) -> Result<(), DbError> {
        let obs = db.metrics_registry();
        let mut span = obs.span(xsobs::HistogramId::PersistSave);
        span.set_detail(self.dir.display().to_string());
        if !self.try_incremental_save(db, vfs)? {
            self.full_save(db, vfs)?;
        }
        obs.incr(xsobs::CounterId::PersistSaves);
        Ok(())
    }

    /// The cheap path: the store is bound, `db` holds the catalog it
    /// saved last, and `CURRENT` on disk is still the pointer the store
    /// wrote — commit only the documents that are not the ones saved.
    /// Returns false when a full save is needed.
    fn try_incremental_save(&mut self, db: &Database, vfs: &dyn Vfs) -> Result<bool, DbError> {
        let Some(binding) = &self.bound else { return Ok(false) };
        if !self.holds_catalog_of(db) {
            return Ok(false);
        }
        // Another process (or another store) may have advanced the
        // directory; re-read the pointer before trusting the binding.
        let Ok(on_disk) = vfs.read(&self.dir.join("CURRENT")) else { return Ok(false) };
        if on_disk != binding.current_line.as_bytes() {
            return Ok(false);
        }
        let docs_dir = self.dir.join(format!("gen-{}", binding.gen)).join("documents");
        let wal_epoch = db.wal_epoch;
        for (name, stored) in db.doc_registry() {
            // An equal catalog holds equal names, so every name has its
            // page store; the full path would handle a miss.
            let Some(doc) = self.docs.get_mut(name) else { return Ok(false) };
            if std::ptr::eq(doc.doc.as_ptr(), Arc::as_ptr(stored)) {
                continue;
            }
            let data_path = docs_dir.join(&doc.file);
            let pages = storage::paged::save_changed(
                &stored.storage,
                &doc.pages,
                vfs,
                &mut doc.store,
                &data_path,
                wal_epoch,
            )?;
            doc.store.commit(vfs, &docs_dir.join(&doc.map))?;
            doc.doc = Arc::downgrade(stored);
            doc.pages = pages;
            doc.saved_epoch = wal_epoch;
        }
        Ok(true)
    }

    /// Whether `db` holds the catalog the bound generation's manifest
    /// records: the same schema names bound to the very schema values
    /// saved, and the same document names under the same schema names.
    fn holds_catalog_of(&self, db: &Database) -> bool {
        let (schemas, docs) = (db.schema_registry(), db.doc_registry());
        schemas.len() == self.schemas.len()
            && docs.len() == self.docs.len()
            && schemas.iter().zip(&self.schemas).all(|((name, schema), (saved_name, saved))| {
                name == saved_name && std::ptr::eq(Arc::as_ptr(schema), saved.as_ptr())
            })
            && docs.iter().zip(&self.docs).all(|((name, stored), (saved_name, saved))| {
                name == saved_name && stored.schema_name == saved.schema
            })
    }

    /// Stage, publish, and commit a complete new generation of `db`, then
    /// bind the store to it.
    fn full_save(&mut self, db: &Database, vfs: &dyn Vfs) -> Result<(), DbError> {
        let obs = db.metrics_registry();
        let io = |path: &Path| {
            let path = path.to_path_buf();
            move |e: std::io::Error| DbError::Io { path, source: e }
        };
        let dir: &Path = &self.dir;
        // The binding is re-established only after a successful commit.
        self.bound = None;
        self.schemas.clear();
        self.docs.clear();
        vfs.create_dir_all(dir).map_err(io(dir))?;
        // Pick the next generation: one past everything visible, whether
        // committed (gen-*), in-flight (.tmp-*), or recorded in CURRENT.
        let mut gen = 0u64;
        for entry in vfs.read_dir(dir).map_err(io(dir))? {
            if let Some(name) = entry.file_name().and_then(|n| n.to_str()) {
                if let Some(n) = generation_of(name) {
                    gen = gen.max(n);
                }
            }
        }
        let current_path = dir.join("CURRENT");
        if vfs.exists(&current_path) {
            let text = utf8(&current_path, vfs.read(&current_path).map_err(io(&current_path))?)?;
            if let Ok((n, _)) = parse_current(&text) {
                gen = gen.max(n);
            }
        }
        let gen = gen + 1;

        // Stage the complete new generation under .tmp-<gen>.
        let tmp = dir.join(format!(".tmp-{gen}"));
        if vfs.exists(&tmp) {
            vfs.remove_dir_all(&tmp).map_err(io(&tmp))?;
        }
        let schemas_dir = tmp.join("schemas");
        let docs_dir = tmp.join("documents");
        vfs.create_dir_all(&schemas_dir).map_err(io(&schemas_dir))?;
        vfs.create_dir_all(&docs_dir).map_err(io(&docs_dir))?;

        let mut manifest = Element::new("xsdb")
            .with_attribute("version", LAYOUT_VERSION)
            .with_attribute("generation", gen.to_string());
        for (name, schema) in db.schema_registry() {
            let file = format!("{}.xsd", file_stem(name));
            let bytes = xsmodel::write_schema(schema).into_bytes();
            let path = schemas_dir.join(&file);
            vfs.write(&path, &bytes).map_err(io(&path))?;
            obs.add(xsobs::CounterId::PersistBytesStaged, bytes.len() as u64);
            manifest.children.push(xmlparse::Node::Element(
                Element::new("schema")
                    .with_attribute("name", name)
                    .with_attribute("file", file)
                    .with_attribute("sha256", sha256_hex(&bytes)),
            ));
        }
        for (name, stored) in db.doc_registry() {
            let stem = file_stem(name);
            let file = format!("{stem}.xsp");
            let map = format!("{stem}.xspm");
            let data_path = docs_dir.join(&file);
            let map_path = docs_dir.join(&map);
            let xs = &stored.storage;
            let mut store = PageStore::new();
            let pages =
                storage::paged::save_full_epoch(xs, vfs, &mut store, &data_path, db.wal_epoch)?;
            store.commit(vfs, &map_path)?;
            obs.add(xsobs::CounterId::PersistBytesStaged, store.page_count() * PAGE_SIZE as u64);
            manifest.children.push(xmlparse::Node::Element(
                Element::new("document")
                    .with_attribute("name", name.clone())
                    .with_attribute("schema", stored.schema_name.clone())
                    .with_attribute("file", file.clone())
                    .with_attribute("map", map.clone()),
            ));
            let persist = DocPersist {
                file,
                map,
                schema: stored.schema_name.clone(),
                store,
                doc: Arc::downgrade(stored),
                pages,
                saved_epoch: db.wal_epoch,
            };
            self.docs.insert(name.clone(), persist);
        }
        let manifest_bytes = Document::from_root(manifest).to_xml_pretty().into_bytes();
        let manifest_digest = sha256_hex(&manifest_bytes);
        let manifest_path = tmp.join("manifest.xml");
        vfs.write(&manifest_path, &manifest_bytes).map_err(io(&manifest_path))?;
        obs.add(xsobs::CounterId::PersistBytesStaged, manifest_bytes.len() as u64);
        vfs.sync_dir(&schemas_dir).map_err(io(&schemas_dir))?;
        vfs.sync_dir(&docs_dir).map_err(io(&docs_dir))?;
        vfs.sync_dir(&tmp).map_err(io(&tmp))?;

        // Publish the generation directory, then commit by atomically
        // replacing the CURRENT pointer.
        let gen_dir = dir.join(format!("gen-{gen}"));
        if vfs.exists(&gen_dir) {
            vfs.remove_dir_all(&gen_dir).map_err(io(&gen_dir))?;
        }
        vfs.rename(&tmp, &gen_dir).map_err(io(&gen_dir))?;
        vfs.sync_dir(dir).map_err(io(dir))?;

        let current_tmp = dir.join("CURRENT.tmp");
        let pointer = format!("v{LAYOUT_VERSION} gen-{gen} {manifest_digest}\n");
        vfs.write(&current_tmp, pointer.as_bytes()).map_err(io(&current_tmp))?;
        vfs.rename(&current_tmp, &current_path).map_err(io(&current_path))?;
        vfs.sync_dir(dir).map_err(io(dir))?;

        // Best-effort cleanup of everything the new generation obsoletes:
        // older generations and stale temps. A failure (or crash) here is
        // harmless — loads ignore all of it.
        if let Ok(entries) = vfs.read_dir(dir) {
            for entry in entries {
                let Some(name) = entry.file_name().and_then(|n| n.to_str()) else { continue };
                match generation_of(name) {
                    Some(n) if n != gen => {
                        let _ = vfs.remove_dir_all(&entry);
                    }
                    _ if name == "CURRENT.tmp" => {
                        let _ = vfs.remove_file(&entry);
                    }
                    _ => {}
                }
            }
        }
        self.bound = Some(Binding { gen, current_line: pointer });
        self.schemas = identities(db.schema_registry());
        Ok(())
    }
}

/// The identities of a state's schemas.
fn identities(
    schemas: &BTreeMap<String, Arc<DocumentSchema>>,
) -> BTreeMap<String, Weak<DocumentSchema>> {
    schemas.iter().map(|(name, schema)| (name.clone(), Arc::downgrade(schema))).collect()
}

/// One-shot forms of [`Store`], for callers that save or load once.
impl Database {
    /// Save under `dir` (created if needed) as a complete new generation
    /// — the atomic-commit protocol of the module docs. Saving the
    /// states of one database repeatedly is cheaper through a [`Store`],
    /// which writes only what changed since its last save.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<(), DbError> {
        Store::new(dir).save(self)
    }

    /// [`Database::save_dir`] over an explicit [`Vfs`] (fault injection
    /// and crash testing).
    pub fn save_dir_vfs(&self, dir: &Path, vfs: &dyn Vfs) -> Result<(), DbError> {
        Store::new(dir).save_vfs(self, vfs)
    }

    /// Load a database previously saved under `dir`, strictly: any
    /// corrupt, invalid, or missing file aborts the load. Every document
    /// is re-validated against its schema ([`Store::open`]).
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Database, DbError> {
        Database::load_dir_report(dir, LoadPolicy::Strict).map(|(db, _)| db)
    }

    /// Load with an explicit [`LoadPolicy`], returning the database and
    /// a [`LoadReport`] describing quarantines, warnings, and cleanup.
    pub fn load_dir_report(
        dir: impl AsRef<Path>,
        policy: LoadPolicy,
    ) -> Result<(Database, LoadReport), DbError> {
        Store::open(dir, policy).map(|(_, db, report)| (db, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xsdb-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="Year">
    <xs:restriction base="xs:integer">
      <xs:minInclusive value="1900"/>
      <xs:maxInclusive value="2100"/>
    </xs:restriction>
  </xs:simpleType>
  <xs:element name="log">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="entry" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="year" type="Year"/>
              <xs:element name="text" type="xs:string"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    fn current_gen_dir(dir: &Path) -> PathBuf {
        let text = fs::read_to_string(dir.join("CURRENT")).unwrap();
        let (gen, _) = parse_current(&text).unwrap();
        dir.join(format!("gen-{gen}"))
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.insert(
            "journal",
            "log",
            "<log><entry><year>1995</year><text>hello</text></entry></log>",
        )
        .unwrap();
        db.insert("empty", "log", "<log/>").unwrap();
        db.save_dir(&dir).unwrap();

        let restored = Database::load_dir(&dir).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.query("journal", "/log/entry/text").unwrap(), ["hello"]);
        // User-defined simple types survived the schema round trip.
        let errs = restored
            .validate("log", "<log><entry><year>1850</year><text>x</text></entry></log>")
            .unwrap();
        assert!(!errs.is_empty(), "Year facet must survive persistence");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_saves_advance_the_generation() {
        let dir = temp_dir("generations");
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.save_dir(&dir).unwrap();
        db.insert("j", "log", "<log/>").unwrap();
        db.save_dir(&dir).unwrap();
        let (restored, report) = Database::load_dir_report(&dir, LoadPolicy::Strict).unwrap();
        assert_eq!(report.generation, Some(2));
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(restored.len(), 1);
        // The obsolete generation was cleaned up after commit.
        assert!(!dir.join("gen-1").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_resaves_neither_restage_nor_advance_the_generation() {
        let dir = temp_dir("clean-resave");
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.insert("j", "log", "<log><entry><year>2000</year><text>t</text></entry></log>").unwrap();
        let mut store = Store::new(&dir);
        store.save(&db).unwrap();
        let before = fs::read_to_string(dir.join("CURRENT")).unwrap();
        store.save(&db).unwrap();
        store.save(&db).unwrap();
        assert_eq!(fs::read_to_string(dir.join("CURRENT")).unwrap(), before);
        assert!(dir.join("gen-1").exists());
        assert!(!dir.join("gen-2").exists(), "clean re-save must not restage");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn updates_are_saved_incrementally_in_place() {
        let dir = temp_dir("incremental");
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.insert("j", "log", "<log><entry><year>2000</year><text>t</text></entry></log>").unwrap();
        let mut store = Store::new(&dir);
        store.save(&db).unwrap();
        db.execute_update("j", r#"replace value of node /log/entry/text with "patched""#).unwrap();
        store.save(&db).unwrap();
        // The update committed into the existing generation.
        assert!(dir.join("gen-1").exists());
        assert!(!dir.join("gen-2").exists());
        let restored = Database::load_dir(&dir).unwrap();
        assert_eq!(restored.query("j", "/log/entry/text").unwrap(), ["patched"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reloaded_databases_keep_saving_incrementally() {
        let dir = temp_dir("reload-incremental");
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.insert("j", "log", "<log><entry><year>2000</year><text>t</text></entry></log>").unwrap();
        db.save_dir(&dir).unwrap();
        // A store opened from disk is bound to the generation it read,
        // so its saves are incremental too.
        let (mut store, mut db2, _) = Store::open(&dir, LoadPolicy::Strict).unwrap();
        db2.execute_update("j", r#"replace value of node /log/entry/text with "again""#).unwrap();
        store.save(&db2).unwrap();
        assert!(dir.join("gen-1").exists());
        assert!(!dir.join("gen-2").exists());
        let restored = Database::load_dir(&dir).unwrap();
        assert_eq!(restored.query("j", "/log/entry/text").unwrap(), ["again"]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A database with the `log` schema and one entry in `j`.
    fn journal() -> Database {
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.insert("j", "log", "<log><entry><year>2000</year><text>t</text></entry></log>").unwrap();
        db
    }

    /// `db` with the entry's text replaced by `text`.
    fn retitled(db: &Database, text: &str) -> Database {
        let mut next = db.clone();
        let update = format!(r#"replace value of node /log/entry/text with "{text}""#);
        next.execute_update("j", &update).unwrap();
        next
    }

    #[test]
    fn a_store_saves_either_line_of_states_in_either_order() {
        let base = journal();
        // Two states edited apart from one saved state, by one update
        // each: neither descends from the other.
        let (a, b) = (retitled(&base, "line a"), retitled(&base, "line b"));
        for (first, second, want) in [(&a, &b, "line b"), (&b, &a, "line a")] {
            let dir = temp_dir("two-lines");
            let mut store = Store::new(&dir);
            store.save(&base).unwrap();
            store.save(first).unwrap();
            store.save(second).unwrap();
            assert!(!dir.join("gen-2").exists(), "an update must save incrementally");
            let restored = Database::load_dir(&dir).unwrap();
            assert_eq!(restored.query("j", "/log/entry/text").unwrap(), [want]);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_name_deleted_and_inserted_again_between_saves_saves_the_new_document() {
        for (schema, same) in [("log", true), ("log2", false)] {
            let dir = temp_dir("reinsert");
            let mut db = journal();
            db.register_schema_text("log2", SCHEMA).unwrap();
            let mut store = Store::new(&dir);
            store.save(&db).unwrap();
            assert!(db.delete("j"));
            let xml = "<log><entry><year>2001</year><text>new</text></entry>\
                       <entry><year>2002</year><text>newer</text></entry></log>";
            db.insert("j", schema, xml).unwrap();
            store.save(&db).unwrap();
            // The same catalog saves in place; another schema name for
            // the document is a new manifest.
            assert_eq!(dir.join("gen-2").exists(), !same, "schema {schema}");
            let restored = Database::load_dir(&dir).unwrap();
            assert_eq!(restored.query("j", "/log/entry/text").unwrap(), ["new", "newer"]);
            assert_eq!(restored.document("j").unwrap().schema_name, schema);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_schema_replaced_under_its_name_stages_a_new_generation() {
        let dir = temp_dir("schema-replace");
        let mut db = journal();
        db.register_schema_text("s", SCHEMA).unwrap();
        let mut store = Store::new(&dir);
        store.save(&db).unwrap();
        db.remove_schema("s").unwrap();
        let strings = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="n" type="xs:string"/>
</xs:schema>"#;
        db.register_schema_text("s", strings).unwrap();
        store.save(&db).unwrap();
        assert!(dir.join("gen-2").exists());
        let restored = Database::load_dir(&dir).unwrap();
        assert!(restored.validate("s", "<n>x</n>").unwrap().is_empty());
        assert_eq!(restored.query("j", "/log/entry/text").unwrap(), ["t"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn awkward_names_are_encoded() {
        let dir = temp_dir("names");
        let mut db = Database::new();
        db.register_schema_text(
            "my schema/α",
            "<xs:schema xmlns:xs=\"urn:x\"><xs:element name=\"r\" type=\"xs:string\"/></xs:schema>",
        )
        .unwrap();
        db.insert("doc:1 ☂", "my schema/α", "<r>ok</r>").unwrap();
        db.save_dir(&dir).unwrap();
        let restored = Database::load_dir(&dir).unwrap();
        assert_eq!(restored.query("doc:1 ☂", "/r").unwrap(), ["ok"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn naive_tampering_is_caught_by_checksums() {
        let dir = temp_dir("tamper-checksum");
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.insert("j", "log", "<log><entry><year>2000</year><text>t</text></entry></log>").unwrap();
        db.save_dir(&dir).unwrap();
        let doc_path = current_gen_dir(&dir).join("documents").join("j.xsp");
        let mut bytes = fs::read(&doc_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&doc_path, bytes).unwrap();
        match Database::load_dir(&dir) {
            Err(DbError::Checksum { path, .. }) => assert!(path.ends_with("j.xsp"), "{path:?}"),
            other => panic!("expected checksum failure, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_revalidates_documents() {
        let dir = temp_dir("tamper");
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.insert("j", "log", "<log><entry><year>2000</year><text>t</text></entry></log>").unwrap();
        db.save_dir(&dir).unwrap();
        // No update can commit a facet violation, so plant one beneath
        // the update path: a consistent-but-invalid document that only
        // validation can catch on the way back in.
        let xs = crate::database::tests::storage_mut(&mut db, "j");
        let year = xpath::eval_guided(xs, &xpath::parse("/log/entry/year/text()").unwrap());
        xs.set_text(year[0], "1492").unwrap();
        db.save_dir(&dir).unwrap();
        match Database::load_dir(&dir) {
            Err(DbError::Invalid(errs)) => {
                assert!(errs.iter().any(|e| e.rule == algebra::Rule::R511SimpleValue));
            }
            other => panic!("expected validation failure, got {other:?}"),
        }
        // Lenient mode loads the rest and quarantines the invalid doc.
        let (restored, report) = Database::load_dir_report(&dir, LoadPolicy::Lenient).unwrap();
        assert_eq!(restored.len(), 0);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].name, "j");
        assert!(matches!(report.quarantined[0].error, DbError::Invalid(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_current_pointer_is_an_io_error() {
        let dir = temp_dir("missing");
        assert!(matches!(Database::load_dir(&dir), Err(DbError::Io { .. })));
        // The error names the file it could not read.
        let shown = Database::load_dir(&dir).unwrap_err().to_string();
        assert!(shown.contains("CURRENT"), "{shown}");
    }

    #[test]
    fn stale_temps_are_cleaned_on_load() {
        let dir = temp_dir("stale");
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.save_dir(&dir).unwrap();
        fs::create_dir_all(dir.join(".tmp-9").join("documents")).unwrap();
        fs::write(dir.join(".tmp-9").join("manifest.xml"), "garbage").unwrap();
        fs::write(dir.join("CURRENT.tmp"), "torn poi").unwrap();
        let (_, report) = Database::load_dir_report(&dir, LoadPolicy::Strict).unwrap();
        assert_eq!(report.cleaned_temps.len(), 2, "{report:?}");
        assert!(!dir.join(".tmp-9").exists());
        assert!(!dir.join("CURRENT.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn other_layout_versions_are_refused_by_name() {
        let dir = temp_dir("v2");
        let mut db = Database::new();
        db.register_schema_text("log", SCHEMA).unwrap();
        db.insert("j", "log", "<log/>").unwrap();
        db.save_dir(&dir).unwrap();
        // A well-formed pointer of an older (or newer) layout generation.
        let pointer = fs::read_to_string(dir.join("CURRENT")).unwrap();
        for other in ["v2", "v4"] {
            fs::write(dir.join("CURRENT"), pointer.replacen("v3", other, 1)).unwrap();
            for policy in [LoadPolicy::Strict, LoadPolicy::Lenient] {
                match Database::load_dir_report(&dir, policy) {
                    Err(DbError::Corrupt(msg)) => {
                        assert!(msg.contains("unsupported layout version"), "{msg}");
                        assert!(msg.contains(&other[1..]), "{msg}");
                    }
                    other => panic!("expected a layout-version refusal, got {other:?}"),
                }
            }
        }
        // A version-1 directory has no CURRENT pointer at all: its
        // top-level manifest is not consulted.
        fs::remove_file(dir.join("CURRENT")).unwrap();
        fs::write(dir.join("manifest.xml"), r#"<xsdb version="1"/>"#).unwrap();
        assert!(matches!(Database::load_dir(&dir), Err(DbError::Io { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_stem_is_stable_and_safe() {
        assert_eq!(file_stem("plain-name_1"), "plain-name_1");
        assert_eq!(file_stem("a b"), "a%0020b");
        assert_eq!(file_stem("x/y"), "x%002Fy");
        assert_ne!(file_stem("a b"), file_stem("a_b"));
    }

    #[test]
    fn current_pointer_parsing_rejects_malformed_input() {
        assert!(parse_current("").is_err());
        assert!(parse_current("v1 gen-2 abc").is_err());
        assert!(parse_current("v3 gen-x 0000").is_err());
        assert!(parse_current("v4 gen-2 abc").is_err());
        assert!(parse_current(&format!("v3 gen-3 {}", "a".repeat(63))).is_err());
        assert!(parse_current(&format!("v3 gen-3 {} extra", "a".repeat(64))).is_err());
        assert!(parse_current(&format!("v2 gen-3 {}\n", "a".repeat(64))).is_err());
        assert!(parse_current(&format!("v03 gen-3 {}\n", "a".repeat(64))).is_err());
        let (gen, digest) = parse_current(&format!("v3 gen-3 {}\n", "A".repeat(64))).unwrap();
        assert_eq!(gen, 3);
        assert_eq!(digest, "a".repeat(64));
        let (gen, _) = parse_current(&format!("v3 gen-12 {}\n", "b".repeat(64))).unwrap();
        assert_eq!(gen, 12);
    }

    #[test]
    fn hostile_manifest_file_names_are_rejected() {
        for bad in ["../escape.xml", "a/b.xml", "", ".hidden", "c\\d.xml", "x..y"] {
            assert!(safe_file_name(bad).is_err(), "{bad:?} accepted");
        }
        assert!(safe_file_name("plain%0020name.xml").is_ok());
    }
}
