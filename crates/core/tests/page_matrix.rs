//! Page-granular durability matrix for the v3 paged layout.
//!
//! The v2 suite (`crash_matrix.rs`) exercises *full* saves. This file
//! pins down what the page layer added on top:
//!
//! - a clean re-save is a no-op — **zero** write operations through
//!   the Vfs (the regression this PR exists to fix);
//! - an *incremental* save (one dirty node) torn at any operation k
//!   still reloads as exactly the old or the new state;
//! - flipping a byte anywhere in a generation directory after an
//!   incremental save is either caught by a typed checksum error or
//!   provably harmless (the load succeeds with the right content —
//!   the flip landed in a freed page);
//! - a single-node update writes O(1) pages no matter how large the
//!   document is (`storage.page_writes` counter);
//! - a large document opens lazily — the catalog and one block list
//!   can be read without touching most data pages
//!   (`storage.page_reads` counter);
//! - a read fault at any operation of a reopen — whichever worker of
//!   the parallel document load it lands in — fails a strict load
//!   whole and quarantines exactly the faulted entry in a lenient one.
//!
//! The page counters are process-global, so every test here grabs one
//! shared lock; the file deliberately contains *only* page-counter-
//! sensitive tests (each integration test file is its own process).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use xsdb::storage::paged::{save_full, PagedXml};
use xsdb::storage::{PageStore, XmlStorage};
use xsdb::xsobs::{global, CounterId};
use xsdb::{
    algebra, Database, DbError, Durability, FaultyVfs, LoadPolicy, Mutation, SharedDatabase,
    StdVfs, Store, Vfs,
};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="log">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="entry" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xsdb-page-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn log_xml(entries: usize) -> String {
    let mut s = String::from("<log>");
    for i in 0..entries {
        s.push_str(&format!("<entry>entry number {i}</entry>"));
    }
    s.push_str("</log>");
    s
}

/// A database with one `journal` document of `entries` entries.
fn journal_db(entries: usize) -> Database {
    let mut db = Database::new();
    db.register_schema_text("log", SCHEMA).unwrap();
    db.insert("journal", "log", &log_xml(entries)).unwrap();
    db
}

fn db_equiv(a: &Database, b: &Database) -> bool {
    let docs_a: Vec<&str> = a.document_names().collect();
    let docs_b: Vec<&str> = b.document_names().collect();
    docs_a == docs_b
        && docs_a.iter().all(|name| {
            let xa = xsdb::Document::parse(&a.serialize(name).unwrap()).unwrap();
            let xb = xsdb::Document::parse(&b.serialize(name).unwrap()).unwrap();
            algebra::content_equal(&xa, &xb)
        })
}

/// Save `entries`-sized old state, reopen it (binding a store to the
/// directory), patch one entry, and return (dir, store, loaded-db,
/// old-copy, new-copy).
fn incremental_setup(tag: &str, entries: usize) -> (PathBuf, Store, Database, Database, Database) {
    let dir = temp_dir(tag);
    journal_db(entries).save_dir(&dir).unwrap();
    let old = Database::load_dir(&dir).unwrap();
    let (store, mut db, _) = Store::open(&dir, LoadPolicy::Strict).unwrap();
    let update = r#"replace value of node /log/entry[2] with "patched""#;
    assert_eq!(db.execute_update("journal", update).unwrap().nodes, 1);
    let mut new = Database::new();
    new.register_schema_text("log", SCHEMA).unwrap();
    new.insert("journal", "log", &db.serialize("journal").unwrap()).unwrap();
    (dir, store, db, old, new)
}

// ------------------------------------------------- satellite 1: no-op

/// A save with nothing dirty performs **zero** write operations and
/// leaves `CURRENT` (and the generation) untouched — both straight
/// after a full save and after a fresh load of the directory.
#[test]
fn clean_resave_performs_zero_vfs_writes() {
    let _g = lock();
    let dir = temp_dir("noop");
    let db = journal_db(12);
    let mut store = Store::new(&dir);
    store.save(&db).unwrap();
    let current = fs::read_to_string(dir.join("CURRENT")).unwrap();

    // Same store and state, nothing changed since its own save.
    let counter = FaultyVfs::counting();
    store.save_vfs(&db, &counter).unwrap();
    assert_eq!(counter.write_ops(), 0, "clean re-save wrote to disk");

    // A freshly opened store and state are just as clean.
    let (mut store2, db2, _) = Store::open(&dir, LoadPolicy::Strict).unwrap();
    let counter = FaultyVfs::counting();
    store2.save_vfs(&db2, &counter).unwrap();
    assert_eq!(counter.write_ops(), 0, "re-save after load wrote to disk");

    assert_eq!(fs::read_to_string(dir.join("CURRENT")).unwrap(), current);
    assert!(!dir.join("gen-2").exists(), "clean saves must not advance the generation");
    let _ = fs::remove_dir_all(&dir);
}

// -------------------------------------- incremental-save crash matrix

fn count_incremental_ops(tag: &str) -> u64 {
    let (dir, mut store, db, _, _) = incremental_setup(tag, 40);
    let counter = FaultyVfs::counting();
    store.save_vfs(&db, &counter).unwrap();
    let ops = counter.ops();
    let _ = fs::remove_dir_all(&dir);
    ops
}

#[test]
fn incremental_save_crashed_at_any_operation_reloads_old_or_new() {
    let _g = lock();
    let total = count_incremental_ops("icount");
    assert!(total > 0, "incremental save with a dirty node must do work");
    for k in 0..total {
        let (dir, mut store, db, old, new) = incremental_setup("imatrix", 40);
        let vfs = FaultyVfs::crash_at(k);
        let save_result = store.save_vfs(&db, &vfs);
        let loaded = Database::load_dir(&dir).unwrap_or_else(|e| {
            panic!("crash at op {k}: load failed: {e} (save: {save_result:?})")
        });
        let is_old = db_equiv(&loaded, &old);
        let is_new = db_equiv(&loaded, &new);
        assert!(is_old || is_new, "crash at op {k}: torn state (save: {save_result:?})");
        if save_result.is_ok() && vfs.crashed() {
            // Can't happen: a crash makes every later op fail.
            unreachable!();
        }
        if save_result.is_ok() {
            assert!(is_new, "crash at op {k}: Ok save but old state loaded");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn incremental_save_error_at_any_operation_reloads_old_or_new() {
    let _g = lock();
    let total = count_incremental_ops("ecount");
    for k in 0..total {
        let (dir, mut store, db, old, new) = incremental_setup("ematrix", 40);
        let save_result = store.save_vfs(&db, &FaultyVfs::error_at(k));
        let loaded =
            Database::load_dir(&dir).unwrap_or_else(|e| panic!("error at op {k}: load: {e}"));
        match save_result {
            Err(_) => assert!(
                db_equiv(&loaded, &old) || db_equiv(&loaded, &new),
                "error at op {k}: aborted incremental save left a torn state"
            ),
            Ok(()) => assert!(
                db_equiv(&loaded, &new),
                "error at op {k}: Ok save but the new state did not load"
            ),
        }
        // Whatever happened, a retry on a freshly opened store must
        // converge.
        let (mut store, mut retry, _) = Store::open(&dir, LoadPolicy::Strict).unwrap();
        retry
            .execute_update("journal", r#"replace value of node /log/entry[2] with "patched""#)
            .unwrap();
        store.save(&retry).unwrap();
        assert!(db_equiv(&Database::load_dir(&dir).unwrap(), &new));
        let _ = fs::remove_dir_all(&dir);
    }
}

// ------------------------------------- read faults in a parallel load

/// Four journals of different sizes under one schema, saved.
fn journals_dir(tag: &str) -> (PathBuf, Database) {
    let dir = temp_dir(tag);
    let mut db = Database::new();
    db.register_schema_text("log", SCHEMA).unwrap();
    for (i, entries) in [3usize, 40, 7, 120].into_iter().enumerate() {
        db.insert(&format!("j{i}"), "log", &log_xml(entries)).unwrap();
    }
    db.save_dir(&dir).unwrap();
    (dir, db)
}

/// A transient read fault at every operation of a reopen, whichever
/// worker of the parallel document load it lands in. `Strict` returns
/// an error and never a partial database. `Lenient` fails only when the
/// fault hits an integrity root (`CURRENT`, the manifest); otherwise it
/// quarantines exactly the faulted entry — the document whose file the
/// fault hit, or the schema and every document that needs it — and
/// every other document equals the checkpoint.
#[test]
fn a_read_fault_at_any_operation_of_a_parallel_load_is_contained() {
    let _g = lock();
    let (dir, saved) = journals_dir("read-faults");
    let counter = FaultyVfs::counting();
    let (_, clean, report) = Store::open_vfs(&dir, LoadPolicy::Strict, &counter).unwrap();
    assert!(report.is_clean() && db_equiv(&clean, &saved));
    let total = counter.ops();
    let injected = |e: &DbError| match e {
        DbError::Io { path, source } if source.to_string().contains("injected") => {
            Some(path.clone())
        }
        _ => None,
    };
    let (mut strict_errors, mut quarantined_docs) = (0, 0);
    for k in 0..total {
        match Store::open_vfs(&dir, LoadPolicy::Strict, &FaultyVfs::error_at(k)) {
            Err(e) => {
                assert!(injected(&e).is_some(), "strict, fault at op {k}: {e}");
                strict_errors += 1;
            }
            Ok((_, db, _)) => {
                assert!(db_equiv(&db, &saved), "strict, fault at op {k}: partial load")
            }
        }
        let (_, db, report) =
            match Store::open_vfs(&dir, LoadPolicy::Lenient, &FaultyVfs::error_at(k)) {
                Ok(loaded) => loaded,
                Err(e) => {
                    let path =
                        injected(&e).unwrap_or_else(|| panic!("lenient, fault at op {k}: {e}"));
                    let root = path.ends_with("CURRENT") || path.ends_with("manifest.xml");
                    assert!(root, "lenient, fault at op {k} aborted on {}", path.display());
                    continue;
                }
            };
        let lost: Vec<&str> = report
            .quarantined
            .iter()
            .filter(|q| q.kind == xsdb::QuarantineKind::Document)
            .map(|q| q.name.as_str())
            .collect();
        match report.quarantined.first() {
            None => {}
            Some(q) if q.kind == xsdb::QuarantineKind::Schema => {
                assert!(injected(&q.error).is_some(), "op {k}: {:?}", q.error);
                assert_eq!(lost.len(), saved.len(), "op {k}: a dead schema keeps no document");
            }
            Some(q) => {
                let path = injected(&q.error).unwrap_or_else(|| panic!("op {k}: {:?}", q.error));
                let stem = path.file_stem().and_then(|s| s.to_str());
                assert_eq!(stem, Some(q.name.as_str()), "op {k}: quarantined the wrong entry");
                assert_eq!(report.quarantined.len(), 1, "op {k}: {report:?}");
                quarantined_docs += 1;
            }
        }
        let kept: Vec<&str> = saved.document_names().filter(|n| !lost.contains(n)).collect();
        assert_eq!(db.document_names().collect::<Vec<_>>(), kept, "op {k}");
        for name in kept {
            assert_eq!(db.serialize(name).unwrap(), saved.serialize(name).unwrap(), "op {k}");
        }
    }
    assert!(strict_errors > 0, "no fault ever reached the load");
    assert!(quarantined_docs > 0, "no fault ever landed in a document");
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------------- byte-flip walking

fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// After an in-place incremental save the generation contains freed
/// (garbage) pages, so not every flip is *fatal* — but every flip must
/// be either caught with a typed error or provably harmless: the load
/// succeeds with content equal to the committed state. Never a panic,
/// never silently wrong data. Both policies.
#[test]
fn byte_flips_after_incremental_save_are_caught_or_harmless() {
    let _g = lock();
    let (dir, mut store, db, _, new) = incremental_setup("flip", 40);
    store.save(&db).unwrap();
    for file in files_under(&dir) {
        let original = fs::read(&file).unwrap();
        assert!(!original.is_empty(), "{file:?} empty");
        let probes = [(0usize, 0x01u8), (original.len() / 2, 0x40), (original.len() - 1, 0x80)];
        for (pos, mask) in probes {
            let mut mutated = original.clone();
            mutated[pos] ^= mask;
            fs::write(&file, &mutated).unwrap();
            match Database::load_dir(&dir) {
                Ok(loaded) => assert!(
                    db_equiv(&loaded, &new),
                    "flip {mask:#x}@{pos} in {file:?} loaded with WRONG content"
                ),
                Err(DbError::Checksum { .. } | DbError::Corrupt(_) | DbError::Io { .. }) => {}
                Err(other) => {
                    panic!("flip {mask:#x}@{pos} in {file:?}: untyped error {other:?}")
                }
            }
            match Database::load_dir_report(&dir, LoadPolicy::Lenient) {
                Ok((loaded, report)) => assert!(
                    db_equiv(&loaded, &new) || !report.quarantined.is_empty(),
                    "flip {mask:#x}@{pos} in {file:?}: lenient load silently wrong"
                ),
                Err(DbError::Checksum { .. } | DbError::Corrupt(_) | DbError::Io { .. }) => {}
                Err(other) => {
                    panic!("lenient flip in {file:?}: untyped error {other:?}")
                }
            }
            fs::write(&file, &original).unwrap();
        }
    }
    assert!(db_equiv(&Database::load_dir(&dir).unwrap(), &new));
    let _ = fs::remove_dir_all(&dir);
}

// --------------------------------------------- O(1) pages per update

/// The page-write cost of an incremental save after patching a single
/// node: measured via the global `storage.page_writes` counter.
fn pages_for_single_update(entries: usize) -> u64 {
    let (dir, mut store, mut db, _, _) = incremental_setup("o1", entries);
    // incremental_setup already patched entry[2]; patch again so the
    // measured save carries exactly one fresh dirty node.
    store.save(&db).unwrap();
    db.execute_update("journal", r#"replace value of node /log/entry[2] with "patched again""#)
        .unwrap();
    let before = global().snapshot().counter(CounterId::StoragePageWrites);
    store.save(&db).unwrap();
    let delta = global().snapshot().counter(CounterId::StoragePageWrites) - before;
    let _ = fs::remove_dir_all(&dir);
    delta
}

#[test]
fn single_node_update_writes_constant_pages_as_the_document_grows() {
    let _g = lock();
    let small = pages_for_single_update(8);
    let medium = pages_for_single_update(256);
    let large = pages_for_single_update(2048);
    assert!(small > 0, "a dirty node must write at least one page");
    assert_eq!(small, medium, "update cost grew from 8 to 256 entries");
    assert_eq!(medium, large, "update cost grew from 256 to 2048 entries");
    assert!(large <= 8, "single-node update wrote {large} pages — not O(1)-ish");

    // …while a full save of the large document really is large, so the
    // equality above is meaningful.
    let dir = temp_dir("o1full");
    let before = global().snapshot().counter(CounterId::StoragePageWrites);
    journal_db(2048).save_dir(&dir).unwrap();
    let full = global().snapshot().counter(CounterId::StoragePageWrites) - before;
    assert!(full > 4 * large, "full save ({full} pages) should dwarf an update ({large})");
    let _ = fs::remove_dir_all(&dir);
}

/// The pages `SharedDatabase::checkpoint` writes (its
/// `wal.checkpoint_pages_total` delta) for a `journal` of `entries`
/// entries: (the first checkpoint, a later one after a one-node update).
fn shared_checkpoint_pages(entries: usize) -> (u64, u64) {
    let dir = temp_dir("shared-o1");
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    sh.apply(&Mutation::RegisterSchema { name: "log".into(), xsd: SCHEMA.into() }).unwrap();
    let xml = log_xml(entries);
    sh.apply(&Mutation::Insert { doc: "journal".into(), schema: "log".into(), xml }).unwrap();
    let checkpoint = || {
        let before = sh.metrics().counter(CounterId::WalCheckpointPages);
        sh.checkpoint().unwrap();
        sh.metrics().counter(CounterId::WalCheckpointPages) - before
    };
    let full = checkpoint();
    let update = r#"replace value of node /log/entry[2] with "patched""#;
    sh.apply(&Mutation::Update { doc: "journal".into(), update: update.into() }).unwrap();
    let incremental = checkpoint();
    drop(sh);
    let _ = fs::remove_dir_all(&dir);
    (full, incremental)
}

/// The writer of a `SharedDatabase` keeps the store its checkpoints
/// save through, so a checkpoint after a one-node update is as cheap as
/// a plain incremental save, whatever the document's size.
#[test]
fn shared_checkpoints_after_a_single_node_update_write_constant_pages() {
    let _g = lock();
    let (_, small) = shared_checkpoint_pages(256);
    let (full, large) = shared_checkpoint_pages(2048);
    assert!(small > 0, "a dirty node must write at least one page");
    assert_eq!(small, large, "checkpoint cost grew from 256 to 2048 entries");
    assert!(large <= 8, "a one-node update's checkpoint wrote {large} pages — not O(1)-ish");
    assert!(full > 4 * large, "the first checkpoint ({full} pages) should dwarf an update's");
}

// -------------------------------------------------------- lazy opens

/// Opening a committed document and scanning one (small) block list
/// reads only a sliver of its pages; a full materialization reads
/// them all. Measured via `storage.page_reads`.
#[test]
fn large_documents_open_lazily_without_reading_every_page() {
    let _g = lock();
    let dir = temp_dir("lazy");
    fs::create_dir_all(&dir).unwrap();
    let data = dir.join("doc.xsp");
    let map = dir.join("doc.xspm");
    let vfs = StdVfs;

    // One small `meta` element and thousands of entries: the meta block
    // list stays tiny while the document does not.
    let mut s = xsdb::xdm::NodeStore::new();
    let doc = s.new_document(None);
    let log = s.new_element(doc, "log");
    let meta = s.new_element(log, "meta");
    s.new_text(meta, "about this log");
    for i in 0..4000 {
        let e = s.new_element(log, "entry");
        s.new_text(e, format!("entry number {i}"));
    }
    let xs = XmlStorage::from_tree(&s, doc);
    let mut store = PageStore::new();
    save_full(&xs, &vfs, &mut store, &data).unwrap();
    store.commit(&vfs, &map).unwrap();
    let total_pages = store.page_count();
    assert!(total_pages > 50, "document too small to prove anything: {total_pages} pages");

    let before = global().snapshot().counter(CounterId::StoragePageReads);
    let px = PagedXml::open(&vfs, &data, &map).unwrap();
    let open_reads = global().snapshot().counter(CounterId::StoragePageReads) - before;
    assert!(
        open_reads * 10 < total_pages,
        "open read {open_reads} of {total_pages} pages — not lazy"
    );

    // Scanning the one-instance meta list stays cheap too.
    let sn = px.schema().resolve_path(&["log", "meta"]).unwrap();
    let before = global().snapshot().counter(CounterId::StoragePageReads);
    let texts = px.scan_texts(&vfs, &data, sn).unwrap();
    let scan_reads = global().snapshot().counter(CounterId::StoragePageReads) - before;
    assert_eq!(texts.len(), 1);
    assert!(
        (open_reads + scan_reads) * 10 < total_pages,
        "open+scan read {} of {total_pages} pages",
        open_reads + scan_reads
    );

    // Full materialization, by contrast, visits (at least) every live page.
    let before = global().snapshot().counter(CounterId::StoragePageReads);
    let full = px.load(&vfs, &data).unwrap();
    let full_reads = global().snapshot().counter(CounterId::StoragePageReads) - before;
    assert_eq!(full.len(), xs.len());
    assert!(
        full_reads > open_reads + scan_reads,
        "full load ({full_reads} reads) should dwarf lazy access"
    );
    let _ = fs::remove_dir_all(&dir);
}

// Keep the Vfs import obviously used even if assertions above change.
#[test]
fn page_layer_is_vfs_mediated() {
    let _g = lock();
    let dir = temp_dir("mediated");
    fs::create_dir_all(&dir).unwrap();
    let counter = FaultyVfs::counting();
    let db = journal_db(64);
    db.save_dir_vfs(&dir, &counter).unwrap();
    let writes = counter.write_ops();
    assert!(writes > 10, "paged save should flow through the Vfs: {writes} writes");
    let vfs: &dyn Vfs = &counter;
    let text = fs::read_to_string(dir.join("CURRENT")).unwrap();
    let gen = text.split(' ').nth(1).unwrap();
    let docs = dir.join(gen).join("documents");
    let px = PagedXml::open(vfs, &docs.join("journal.xsp"), &docs.join("journal.xspm")).unwrap();
    assert!(px.block_count() > 0);
    let _ = fs::remove_dir_all(&dir);
}
