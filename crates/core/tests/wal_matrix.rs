//! The crash-matrix property suite for the write-ahead log.
//!
//! Where `crash_matrix.rs` proves the *save protocol* commits
//! atomically, this suite proves the *commit protocol* does: a durable
//! [`SharedDatabase`] is driven through a scripted sequence of logged
//! mutations (with a checkpoint in the middle), a fault is injected at
//! every VFS operation along the way, and recovery must always yield a
//! **prefix** of the script — every acknowledged commit present,
//! nothing half-applied, never a torn hybrid. A byte-flip walk over
//! the log segments asserts corruption surfaces as a typed error or,
//! when the flip is indistinguishable from a torn tail, as a clean
//! prefix. A dedicated fsync-failure matrix proves a commit whose
//! record never reached the device is reported, not acknowledged.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use xsdb::{
    algebra, Database, DbError, Durability, FaultyVfs, Mutation, SharedDatabase, StdVfs, Vfs,
};

const SCHEMA_LOG: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="log">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="entry" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const SCHEMA_NOTE: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="note" type="xs:string"/>
</xs:schema>"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xsdb-walmx-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The scripted workload: every loggable mutation kind, exercising
/// both registry-level and node-level (typed `UPDATE`) transitions.
fn script() -> Vec<Mutation> {
    vec![
        Mutation::RegisterSchema { name: "log".into(), xsd: SCHEMA_LOG.into() },
        Mutation::Insert {
            doc: "journal".into(),
            schema: "log".into(),
            xml: "<log><entry>one</entry><entry>two</entry></log>".into(),
        },
        Mutation::Update {
            doc: "journal".into(),
            update: r#"replace value of node /log/entry[1] with "rewritten""#.into(),
        },
        Mutation::RegisterSchema { name: "notes".into(), xsd: SCHEMA_NOTE.into() },
        Mutation::Insert {
            doc: "memo".into(),
            schema: "notes".into(),
            xml: "<note>remember</note>".into(),
        },
        Mutation::Update {
            doc: "journal".into(),
            update: "insert node <entry>appended</entry> into /log".into(),
        },
        Mutation::Update {
            doc: "journal".into(),
            update: "insert node <entry>zero</entry> before /log/entry[1]".into(),
        },
        Mutation::Delete { doc: "memo".into() },
        Mutation::Update { doc: "journal".into(), update: "delete node /log/entry[2]".into() },
    ]
}

/// After which script step the checkpoint runs.
const CHECKPOINT_AFTER: usize = 5;

/// The in-memory state after the first `k` script mutations.
fn state_after(k: usize) -> Database {
    let mut db = Database::new();
    for m in script().iter().take(k) {
        m.apply(&mut db).unwrap();
    }
    db
}

/// Content-equality of two whole databases: same schema and document
/// names, and each pair of documents content-equal.
fn db_equiv(a: &Database, b: &Database) -> bool {
    let schemas_a: Vec<&str> = a.schema_names().collect();
    let schemas_b: Vec<&str> = b.schema_names().collect();
    let docs_a: Vec<&str> = a.document_names().collect();
    let docs_b: Vec<&str> = b.document_names().collect();
    if schemas_a != schemas_b || docs_a != docs_b {
        return false;
    }
    docs_a.iter().all(|name| {
        let xa = xsdb::Document::parse(&a.serialize(name).unwrap()).unwrap();
        let xb = xsdb::Document::parse(&b.serialize(name).unwrap()).unwrap();
        algebra::content_equal(&xa, &xb)
    })
}

/// Which script prefix a recovered database equals, if any.
fn matching_prefix(db: &Database, len: usize) -> Option<usize> {
    (0..=len).find(|&k| db_equiv(db, &state_after(k)))
}

/// Drive the scripted workload against `dir` through `vfs`. Returns
/// how many mutations were acknowledged (`Ok` from `apply`) before the
/// first error, or the full count. `stop_on_error` ends the run at the
/// first failure (the error-matrix discipline: a sane client stops or
/// retries; it does not plough on past an unacknowledged commit).
fn run_script(dir: &Path, vfs: Arc<dyn Vfs>, durability: Durability, stop_on_error: bool) -> usize {
    let Ok((shared, _)) = SharedDatabase::open_durable_vfs(dir, durability, vfs) else {
        return 0;
    };
    let mut acked = 0;
    for (i, m) in script().iter().enumerate() {
        match shared.apply(m) {
            Ok(_) => acked += 1,
            Err(_) if stop_on_error => return acked,
            Err(_) => {}
        }
        if i + 1 == CHECKPOINT_AFTER {
            let _ = shared.checkpoint();
        }
    }
    acked
}

/// Recover `dir` with the real filesystem.
fn recover(dir: &Path) -> SharedDatabase {
    let (shared, _) = SharedDatabase::open_durable(dir, Durability::Fsync)
        .unwrap_or_else(|e| panic!("recovery failed: {e}"));
    shared
}

/// How many VFS operations the full scripted run performs.
fn count_script_ops(tag: &str) -> u64 {
    let dir = temp_dir(tag);
    let counter = Arc::new(FaultyVfs::counting());
    let acked = run_script(&dir, counter.clone(), Durability::Fsync, false);
    assert_eq!(acked, script().len(), "clean run must ack everything");
    let ops = counter.ops();
    let _ = fs::remove_dir_all(&dir);
    ops
}

/// How many fsyncs the full scripted run performs.
fn count_script_syncs(tag: &str) -> u64 {
    let dir = temp_dir(tag);
    let counter = Arc::new(FaultyVfs::counting());
    run_script(&dir, counter.clone(), Durability::Fsync, false);
    let syncs = counter.sync_ops();
    let _ = fs::remove_dir_all(&dir);
    syncs
}

#[test]
fn crash_at_every_operation_recovers_an_acknowledged_prefix() {
    let total = count_script_ops("ccount");
    assert!(total > 20, "scripted run unexpectedly small: {total} ops");
    let len = script().len();
    for k in 0..total {
        let dir = temp_dir("crash");
        let acked = run_script(&dir, Arc::new(FaultyVfs::crash_at(k)), Durability::Fsync, false);
        let recovered = recover(&dir);
        let snap = recovered.read();
        let prefix = matching_prefix(&snap, len)
            .unwrap_or_else(|| panic!("crash at op {k}: recovered state equals no script prefix"));
        assert!(
            prefix >= acked,
            "crash at op {k}: {acked} commits were acknowledged but only \
             {prefix} survived recovery"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn transient_error_at_every_operation_recovers_an_acknowledged_prefix() {
    let total = count_script_ops("ecount");
    let len = script().len();
    for k in 0..total {
        let dir = temp_dir("error");
        let acked = run_script(&dir, Arc::new(FaultyVfs::error_at(k)), Durability::Fsync, true);
        let recovered = recover(&dir);
        let snap = recovered.read();
        let prefix = matching_prefix(&snap, len)
            .unwrap_or_else(|| panic!("error at op {k}: recovered state equals no script prefix"));
        assert!(
            prefix >= acked,
            "error at op {k}: {acked} commits acknowledged, {prefix} recovered"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn fsync_failure_reports_not_durable_instead_of_acking() {
    let total = count_script_syncs("scount");
    assert!(total >= script().len() as u64, "expected one fsync per commit, saw {total}");
    let len = script().len();
    let mut saw_apply_failure = false;
    for n in 0..total {
        let dir = temp_dir("fsync");
        let vfs: Arc<dyn Vfs> = Arc::new(FaultyVfs::fsync_error_at(n));
        let Ok((shared, _)) = SharedDatabase::open_durable_vfs(&dir, Durability::Fsync, vfs) else {
            let _ = fs::remove_dir_all(&dir);
            continue;
        };
        let mut acked = 0;
        for (i, m) in script().iter().enumerate() {
            match shared.apply(m) {
                Ok(_) => acked += 1,
                Err(_) => {
                    saw_apply_failure = true;
                    // The unacknowledged mutation must be invisible to
                    // readers: the snapshot equals exactly the acked
                    // prefix.
                    assert!(
                        db_equiv(&shared.read(), &state_after(acked)),
                        "fsync fault {n}: a failed commit leaked into reader snapshots"
                    );
                    break;
                }
            }
            if i + 1 == CHECKPOINT_AFTER {
                let _ = shared.checkpoint();
            }
        }
        drop(shared);
        // And recovery never loses an acknowledged commit either.
        let recovered = recover(&dir);
        let snap = recovered.read();
        let prefix = matching_prefix(&snap, len)
            .unwrap_or_else(|| panic!("fsync fault {n}: recovery is not a prefix"));
        assert!(prefix >= acked, "fsync fault {n}: acked {acked}, recovered {prefix}");
        let _ = fs::remove_dir_all(&dir);
    }
    assert!(saw_apply_failure, "the fsync matrix never hit a commit-path fsync");
}

fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .collect();
    out.sort();
    out
}

#[test]
fn byte_flips_in_the_log_are_typed_errors_or_clean_prefixes() {
    // Build a directory whose WAL holds the post-checkpoint tail.
    let dir = temp_dir("bitflip");
    let acked = run_script(&dir, Arc::new(StdVfs), Durability::Fsync, false);
    let len = script().len();
    assert_eq!(acked, len);
    let files = wal_files(&dir);
    assert!(!files.is_empty(), "scripted run left no log segments");
    let mut typed_errors = 0usize;
    for file in files {
        let original = fs::read(&file).unwrap();
        assert!(!original.is_empty());
        let mut probes: Vec<(usize, u8)> = vec![
            (0, 0x01),
            (0, 0x80),
            (original.len() / 3, 0x01),
            (original.len() / 2, 0x04),
            (2 * original.len() / 3, 0x10),
            (original.len() - 1, 0x01),
            (original.len() - 1, 0x80),
        ];
        probes.dedup();
        for (pos, mask) in probes {
            let mut mutated = original.clone();
            mutated[pos] ^= mask;
            fs::write(&file, &mutated).unwrap();
            match SharedDatabase::open_durable(&dir, Durability::Fsync) {
                // A flip that forges a shorter log is indistinguishable
                // from a torn tail; recovery may only drop a suffix,
                // never garble.
                Ok((shared, _)) => {
                    assert!(
                        matching_prefix(&shared.read(), len).is_some(),
                        "flip {mask:#x}@{pos} in {file:?} recovered a non-prefix state"
                    );
                }
                Err(DbError::Corrupt(_) | DbError::Checksum { .. } | DbError::Io { .. }) => {
                    typed_errors += 1;
                }
                Err(other) => {
                    panic!("flip {mask:#x}@{pos} in {file:?}: untyped error {other:?}")
                }
            }
            fs::write(&file, &original).unwrap();
        }
        // Restoring the bytes restores the full state.
        assert!(db_equiv(&recover(&dir).read(), &state_after(len)));
    }
    assert!(typed_errors > 0, "no probe tripped the frame digest");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn async_mode_recovers_prefixes_under_crashes_too() {
    for durability in [Durability::Async] {
        let total = count_script_ops("gcount");
        let len = script().len();
        // The full matrix runs under fsync; under async probe a spread
        // of crash points (its ack guarantee is weaker, but the
        // never-torn property must hold identically).
        for k in [0, total / 4, total / 2, 3 * total / 4, total - 1] {
            let dir = temp_dir("modes");
            run_script(&dir, Arc::new(FaultyVfs::crash_at(k)), durability, false);
            let recovered = recover(&dir);
            assert!(
                matching_prefix(&recovered.read(), len).is_some(),
                "{durability:?} crash at op {k}: recovered state is not a script prefix"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// A record tagged with a retired untyped update (tags 5–11) cannot be
/// replayed faithfully: recovery — from the log alone, or over a
/// checkpoint — stops with a typed `Corrupt` naming the tag instead of
/// skipping the record.
#[test]
fn a_retired_update_record_stops_recovery() {
    for checkpointed in [false, true] {
        let dir = temp_dir(&format!("retired-{checkpointed}"));
        let (shared, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        for m in script().iter().take(2) {
            shared.apply(m).unwrap();
        }
        if checkpointed {
            shared.checkpoint().unwrap();
        }
        drop(shared);
        // The old `UpdateSetText` record: tag 8, then doc, xpath, value.
        let mut payload = vec![8u8];
        for field in ["journal", "/log/entry[1]", "rewritten"] {
            payload.extend_from_slice(&(field.len() as u32).to_le_bytes());
            payload.extend_from_slice(field.as_bytes());
        }
        let wal_dir = dir.join("wal");
        let (mut wal, _) =
            xsdb::storage::wal::Wal::open(&StdVfs, &wal_dir, xsdb::storage::DEFAULT_ROTATE_BYTES)
                .unwrap();
        wal.append(&StdVfs, &payload).unwrap();
        wal.sync(&StdVfs).unwrap();
        drop(wal);
        match SharedDatabase::open_durable(&dir, Durability::Fsync) {
            Err(DbError::Corrupt(what)) => assert!(what.contains("tag 8"), "{what}"),
            Err(other) => panic!("checkpointed={checkpointed}: expected Corrupt, got {other}"),
            Ok(_) => panic!("checkpointed={checkpointed}: a retired record was replayed"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
