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
//! A *full* save (the first save into a directory, or any save after the
//! schema/document registry changed) stages the complete new generation
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
//! When the registry has *not* changed since the database was bound to a
//! generation (by the save or load that produced it),
//! [`Database::save_dir`] skips the staging protocol entirely: documents
//! whose block storage is untouched cost **zero** write operations, and
//! a document with a one-node update re-writes only the pages of the
//! dirtied block plus one map rename. Shadow paging makes the map rename
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

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use storage::{PageStore, WalRecord, PAGE_SIZE};
use xmlparse::{Document, Element};

use crate::checksum::sha256_hex;
use crate::database::Database;
use crate::error::DbError;
use crate::mutation::{is_deterministic_rejection, ApplyOutcome, Mutation};
use crate::vfs::{StdVfs, Vfs};

/// The subdirectory of a database directory holding its write-ahead
/// log segments (see [`crate::SharedDatabase::open_durable`]).
pub(crate) const WAL_SUBDIR: &str = "wal";

/// How [`Database::load_dir_report`] reacts to a damaged entry.
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

/// The outcome report of a [`Database::load_dir_report`] call.
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

/// The on-disk generation a database is bound to: saves into the same
/// directory can skip the staging protocol while this pointer still
/// names the generation we wrote or loaded.
#[derive(Debug)]
pub(crate) struct Binding {
    dir: PathBuf,
    gen: u64,
    /// The exact `CURRENT` contents, re-verified before every
    /// incremental save so a concurrent writer is never clobbered.
    current_line: String,
}

/// Per-document persistence state: the file names inside the bound
/// generation, the page store mirroring them, and the
/// [`XmlStorage::tick`] watermark of the last committed save.
#[derive(Debug)]
pub(crate) struct DocPersist {
    file: String,
    map: String,
    store: PageStore,
    watermark: u64,
    /// The write-ahead-log epoch stamped into the document's on-disk
    /// catalog by its last committed save: every logged mutation with a
    /// sequence number at or below it is reflected in the pages, so
    /// recovery skips those records for this document.
    saved_epoch: u64,
}

/// Everything [`Database::save_dir`] knows between calls.
#[derive(Debug, Default)]
pub(crate) struct PersistState {
    bound: Option<Binding>,
    /// Set by every schema/document (de)registration; forces the next
    /// save to stage a fresh generation.
    pub(crate) registry_dirty: bool,
    docs: BTreeMap<String, DocPersist>,
    /// The highest write-ahead-log sequence number applied to the
    /// in-memory state (0 when the database is not WAL-attached). The
    /// next save stamps it into every catalog it writes.
    pub(crate) wal_epoch: u64,
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
pub(crate) struct WalReplaySummary {
    /// Highest sequence number observed across catalogs and records —
    /// the epoch the recovered database is at.
    pub(crate) max_seq: u64,
    /// Whether a replayed record changed the schema/document registry
    /// (the next save must then stage a fresh generation).
    pub(crate) registry_changed: bool,
    /// A lenient-mode message when replay stopped before the end.
    pub(crate) stopped: Option<String>,
}

/// Re-apply recovered write-ahead-log records to `db` in log order.
///
/// `doc_epoch` reports the on-disk catalog epoch of a document (0 when
/// unknown): a document-scoped record with `seq <= doc_epoch(doc)` is
/// already folded into the pages and is skipped. A record the database
/// *rejects* deterministically (duplicate/unknown name, invalid
/// document, bad XPath) is skipped too — rejection is replay's proof
/// the record never took effect or already did. Environmental failures
/// (I/O, corruption) abort under [`LoadPolicy::Strict`] and stop the
/// replay with a warning under [`LoadPolicy::Lenient`].
pub(crate) fn replay_wal_records(
    db: &mut Database,
    records: &[WalRecord],
    doc_epoch: impl Fn(&str) -> u64,
    policy: LoadPolicy,
    summary: &mut WalReplaySummary,
) -> Result<(), DbError> {
    let obs = xsobs::global();
    for rec in records {
        obs.incr(xsobs::CounterId::WalReplayRecords);
        let m = match Mutation::decode(&rec.payload) {
            Ok(m) => m,
            Err(e) => match policy {
                LoadPolicy::Strict => return Err(e),
                LoadPolicy::Lenient => {
                    summary.stopped =
                        Some(format!("wal replay stopped at record {}: {e}", rec.seq));
                    return Ok(());
                }
            },
        };
        summary.max_seq = summary.max_seq.max(rec.seq);
        if let Some(doc) = m.doc_name() {
            if rec.seq <= doc_epoch(doc) {
                obs.incr(xsobs::CounterId::WalReplaySkipped);
                continue;
            }
        }
        match m.apply(db) {
            Ok(ApplyOutcome::Deleted(false)) => {
                obs.incr(xsobs::CounterId::WalReplaySkipped);
            }
            Ok(_) => {
                if m.changes_registry() {
                    summary.registry_changed = true;
                }
            }
            Err(e) if is_deterministic_rejection(&e) => {
                obs.incr(xsobs::CounterId::WalReplaySkipped);
            }
            Err(e) => match policy {
                LoadPolicy::Strict => return Err(e),
                LoadPolicy::Lenient => {
                    summary.stopped =
                        Some(format!("wal replay stopped at record {}: {e}", rec.seq));
                    return Ok(());
                }
            },
        }
    }
    Ok(())
}

impl Database {
    /// Save schemas and documents under `dir` (created if needed) with
    /// the atomic-commit protocol described in the module docs. When the
    /// database is already bound to `dir` and the registry is unchanged,
    /// only dirtied pages are written — a save with nothing to write
    /// performs zero write operations.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<(), DbError> {
        self.save_dir_vfs(dir.as_ref(), &StdVfs)
    }

    /// [`Database::save_dir`] over an explicit [`Vfs`] (fault injection
    /// and crash testing).
    pub fn save_dir_vfs(&self, dir: &Path, vfs: &dyn Vfs) -> Result<(), DbError> {
        let obs = self.metrics_registry();
        let mut span = obs.span(xsobs::HistogramId::PersistSave);
        span.set_detail(dir.display().to_string());
        let mut state = self.persist.lock().unwrap_or_else(|p| p.into_inner());
        if !self.try_incremental_save(&mut state, dir, vfs)? {
            self.full_save(&mut state, dir, vfs)?;
        }
        obs.incr(xsobs::CounterId::PersistSaves);
        Ok(())
    }

    /// The cheap path: the database is bound to this directory, the
    /// registry is unchanged, and `CURRENT` on disk is still the pointer
    /// we wrote — commit only the documents whose storage ticked past
    /// their watermark. Returns false when a full save is needed.
    fn try_incremental_save(
        &self,
        state: &mut PersistState,
        dir: &Path,
        vfs: &dyn Vfs,
    ) -> Result<bool, DbError> {
        let Some(binding) = &state.bound else { return Ok(false) };
        if binding.dir != dir || state.registry_dirty {
            return Ok(false);
        }
        // Another process (or another handle) may have advanced the
        // directory; re-read the pointer before trusting the binding.
        let current_path = dir.join("CURRENT");
        let Ok(on_disk) = vfs.read(&current_path) else { return Ok(false) };
        if on_disk != binding.current_line.as_bytes() {
            return Ok(false);
        }
        let names = self.doc_registry();
        if names.len() != state.docs.len() || names.keys().any(|n| !state.docs.contains_key(n)) {
            return Ok(false);
        }
        let docs_dir = dir.join(format!("gen-{}", binding.gen)).join("documents");
        let wal_epoch = state.wal_epoch;
        for (name, stored) in names {
            // The lookup was verified above; a miss means the state
            // diverged mid-save, and the full path handles it safely.
            let Some(doc) = state.docs.get_mut(name) else { return Ok(false) };
            let xs = &stored.storage;
            if xs.tick() > doc.watermark {
                let data_path = docs_dir.join(&doc.file);
                storage::paged::save_dirty_epoch(
                    xs,
                    vfs,
                    &mut doc.store,
                    &data_path,
                    doc.watermark,
                    wal_epoch,
                    doc.saved_epoch != wal_epoch,
                )?;
                doc.store.commit(vfs, &docs_dir.join(&doc.map))?;
                doc.watermark = xs.tick();
                doc.saved_epoch = wal_epoch;
            }
        }
        Ok(true)
    }

    /// Stage, publish, and commit a complete new generation, then bind
    /// the database to it.
    fn full_save(
        &self,
        state: &mut PersistState,
        dir: &Path,
        vfs: &dyn Vfs,
    ) -> Result<(), DbError> {
        let obs = self.metrics_registry();
        let io = |path: &Path| {
            let path = path.to_path_buf();
            move |e: std::io::Error| DbError::Io { path, source: e }
        };
        // The binding is re-established only after a successful commit.
        state.bound = None;
        state.docs.clear();
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
        for name in self.schema_names() {
            let schema = self
                .schema(name)
                .ok_or_else(|| DbError::Corrupt(format!("schema {name:?} vanished mid-save")))?;
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
        for (name, stored) in self.doc_registry() {
            let stem = file_stem(name);
            let file = format!("{stem}.xsp");
            let map = format!("{stem}.xspm");
            let data_path = docs_dir.join(&file);
            let map_path = docs_dir.join(&map);
            let xs = &stored.storage;
            let mut store = PageStore::new();
            storage::paged::save_full_epoch(xs, vfs, &mut store, &data_path, state.wal_epoch)?;
            store.commit(vfs, &map_path)?;
            obs.add(xsobs::CounterId::PersistBytesStaged, store.page_count() * PAGE_SIZE as u64);
            manifest.children.push(xmlparse::Node::Element(
                Element::new("document")
                    .with_attribute("name", name.clone())
                    .with_attribute("schema", stored.schema_name.clone())
                    .with_attribute("file", file.clone())
                    .with_attribute("map", map.clone()),
            ));
            state.docs.insert(
                name.clone(),
                DocPersist { file, map, store, watermark: xs.tick(), saved_epoch: state.wal_epoch },
            );
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
        state.bound = Some(Binding { dir: dir.to_path_buf(), gen, current_line: pointer });
        state.registry_dirty = false;
        Ok(())
    }

    /// Load a database previously written by [`Database::save_dir`],
    /// strictly: any corrupt, invalid, or missing file aborts the load.
    /// Every document is re-validated against its schema.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Database, DbError> {
        Database::load_dir_vfs(dir.as_ref(), LoadPolicy::Strict, &StdVfs).map(|(db, _)| db)
    }

    /// Load with an explicit [`LoadPolicy`], returning the database and
    /// a [`LoadReport`] describing quarantines, warnings, and cleanup.
    pub fn load_dir_report(
        dir: impl AsRef<Path>,
        policy: LoadPolicy,
    ) -> Result<(Database, LoadReport), DbError> {
        Database::load_dir_vfs(dir.as_ref(), policy, &StdVfs)
    }

    /// [`Database::load_dir_report`] over an explicit [`Vfs`].
    pub fn load_dir_vfs(
        dir: &Path,
        policy: LoadPolicy,
        vfs: &dyn Vfs,
    ) -> Result<(Database, LoadReport), DbError> {
        // An associated fn has no database yet, so recovery metrics go
        // to the process-global registry.
        let obs = xsobs::global();
        let mut span = obs.span(xsobs::HistogramId::PersistLoad);
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
        let mut doc_states: BTreeMap<String, DocPersist> = BTreeMap::new();
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

        for entry in manifest.root().children_named("document") {
            let name = required_attr(entry, "name", "document")?;
            let mut load = || -> Result<(), DbError> {
                let schema = required_attr(entry, "schema", "document")?;
                if dead_schemas.contains(&schema) {
                    return Err(DbError::UnknownSchema(schema));
                }
                let file = required_attr(entry, "file", "document")?;
                safe_file_name(&file)?;
                let path = root_dir.join("documents").join(&file);
                // Open the self-verifying map, decode the block storage
                // page by page, and re-validate it through `f`. The
                // *decoded* storage (not a rebuild) is what the database
                // keeps: later incremental saves must stay aligned with
                // the page layout on disk.
                let map = required_attr(entry, "map", "document")?;
                safe_file_name(&map)?;
                let map_path = root_dir.join("documents").join(&map);
                let store = PageStore::open(vfs, &map_path)?;
                let (xs, saved_epoch) = storage::paged::load_with_epoch(&store, vfs, &path)?;
                let watermark = xs.tick();
                db.insert_paged(&name, &schema, xs)?;
                doc_states
                    .insert(name.clone(), DocPersist { file, map, store, watermark, saved_epoch });
                Ok(())
            };
            if let Err(error) = load() {
                match policy {
                    LoadPolicy::Strict => return Err(error),
                    LoadPolicy::Lenient => report.quarantined.push(Quarantine {
                        kind: QuarantineKind::Document,
                        file: entry.attribute("file").map(|f| root_dir.join("documents").join(f)),
                        name,
                        error,
                    }),
                }
            }
        }
        // Replay the write-ahead-log tail over the loaded state: records
        // a checkpoint already folded into a document's pages are
        // skipped by its catalog epoch; deterministic rejections
        // (duplicate/unknown names, invalid content) mean the record's
        // effect is already present (or never was) and are skipped too.
        let mut replay = WalReplaySummary {
            max_seq: doc_states.values().map(|d| d.saved_epoch).max().unwrap_or(0),
            ..WalReplaySummary::default()
        };
        let wal_dir = dir.join(WAL_SUBDIR);
        if vfs.exists(&wal_dir) {
            match storage::wal::replay(vfs, &wal_dir) {
                Ok(records) => {
                    let epochs: BTreeMap<&str, u64> =
                        doc_states.iter().map(|(n, d)| (n.as_str(), d.saved_epoch)).collect();
                    replay_wal_records(
                        &mut db,
                        &records,
                        |doc| epochs.get(doc).copied().unwrap_or(0),
                        policy,
                        &mut replay,
                    )?;
                    report.warnings.extend(replay.stopped.clone());
                }
                Err(e) => match policy {
                    LoadPolicy::Strict => return Err(e.into()),
                    LoadPolicy::Lenient => {
                        report.warnings.push(format!("write-ahead log not replayed: {e}"));
                    }
                },
            }
        }

        // A cleanly-loaded directory leaves the database bound to its
        // generation, so the very next save can be incremental (or free)
        // — unless replayed records changed the registry, in which case
        // the next save must stage a fresh generation.
        if report.quarantined.is_empty() {
            *db.persist.lock().unwrap_or_else(|p| p.into_inner()) = PersistState {
                bound: Some(Binding { dir: dir.to_path_buf(), gen, current_line: current_text }),
                registry_dirty: replay.registry_changed,
                docs: doc_states,
                wal_epoch: 0,
            };
        }
        db.note_wal_epoch(replay.max_seq);
        obs.incr(xsobs::CounterId::PersistLoads);
        obs.add(xsobs::CounterId::PersistQuarantined, report.quarantined.len() as u64);
        obs.add(xsobs::CounterId::PersistRecoveryWarnings, report.warnings.len() as u64);
        obs.add(xsobs::CounterId::PersistTempsSwept, report.cleaned_temps.len() as u64);
        Ok((db, report))
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
        db.save_dir(&dir).unwrap();
        let before = fs::read_to_string(dir.join("CURRENT")).unwrap();
        db.save_dir(&dir).unwrap();
        db.save_dir(&dir).unwrap();
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
        db.save_dir(&dir).unwrap();
        db.update_set_text("j", "/log/entry/text", "patched").unwrap();
        db.save_dir(&dir).unwrap();
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
        // A fresh handle loaded from disk is bound to the generation it
        // read, so its saves are incremental too.
        let mut db2 = Database::load_dir(&dir).unwrap();
        db2.update_set_text("j", "/log/entry/text", "again").unwrap();
        db2.save_dir(&dir).unwrap();
        assert!(dir.join("gen-1").exists());
        assert!(!dir.join("gen-2").exists());
        let restored = Database::load_dir(&dir).unwrap();
        assert_eq!(restored.query("j", "/log/entry/text").unwrap(), ["again"]);
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
        // Node-level updates are not re-validated automatically, so a
        // facet-violating update persists a consistent-but-invalid
        // document — validation is the layer that must catch it on the
        // way back in.
        db.update_set_text("j", "/log/entry/year", "1492").unwrap();
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
