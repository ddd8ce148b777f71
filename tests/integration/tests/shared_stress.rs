//! Stress tests for `SharedDatabase`: many reader threads interleaved
//! with writers over one shared handle, asserting that every reader
//! observes a consistent snapshot (never a torn state) and that the
//! lock-wait instrumentation records traffic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use xsdb::{ApplyOutcome, Database, DbError, Durability, Mutation, SharedDatabase, StdVfs};

/// The durable tests count appends on the process-global
/// `wal.appends_total`, so they take turns.
static DURABLE: Mutex<()> = Mutex::new(());

fn durable_turn() -> MutexGuard<'static, ()> {
    DURABLE.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xsdb-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The mutations the write-ahead log under `dir` holds.
fn logged(dir: &Path) -> Vec<Mutation> {
    xsdb::storage::wal::replay(&StdVfs, &dir.join("wal"))
        .unwrap()
        .iter()
        .map(|rec| Mutation::decode(&rec.payload).unwrap())
        .collect()
}

fn retries(sh: &SharedDatabase) -> u64 {
    sh.metrics().counter(xsobs::CounterId::WalCommitRetries)
}

const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="list">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="item" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

fn shared() -> SharedDatabase {
    let mut db = Database::new();
    db.register_schema_text("s", SCHEMA).unwrap();
    SharedDatabase::new(db)
}

/// Insert document `name` with the text `xml` through the logged path.
fn put(sh: &SharedDatabase, name: &str, xml: String) {
    let m = Mutation::Insert { doc: name.into(), schema: "s".into(), xml };
    assert_eq!(sh.apply(&m).unwrap(), ApplyOutcome::Inserted);
}

/// Delete the stored document `name` through the logged path.
fn delete(sh: &SharedDatabase, name: &str) {
    let m = Mutation::Delete { doc: name.into() };
    assert_eq!(sh.apply(&m).unwrap(), ApplyOutcome::Deleted);
}

fn doc(items: usize, tag: &str) -> String {
    let mut xml = String::from("<list>");
    for i in 0..items {
        xml.push_str(&format!("<item>{tag}-{i}</item>"));
    }
    xml.push_str("</list>");
    xml
}

/// Readers hammer queries while writers insert/delete/update. Every
/// query result must be one of the states a writer actually produced —
/// in particular, the item count of a document must always match one
/// whole write, never a mixture.
#[test]
fn readers_see_only_whole_states() {
    let sh = shared();
    put(&sh, "d", doc(10, "v0"));
    let torn = AtomicUsize::new(0);
    let reads = AtomicUsize::new(0);
    let replace = &Mutex::new(());
    std::thread::scope(|s| {
        // 6 readers × many iterations.
        for _ in 0..6 {
            let sh = sh.clone();
            let torn = &torn;
            let reads = &reads;
            s.spawn(move || {
                for i in 0..300 {
                    // Between a writer's delete and its insert the
                    // committed state holds no `d`; read the next one.
                    let db = loop {
                        let db = sh.read();
                        if db.document("d").is_some() {
                            break db;
                        }
                        std::thread::yield_now();
                    };
                    // Periodically check full consistency of the
                    // snapshot: it serializes, and the serialization
                    // validates clean against the schema (the §8
                    // round trip under the shared read lock).
                    if i % 50 == 0 {
                        let xml = db.serialize("d").unwrap();
                        assert!(db.validate("s", &xml).unwrap().is_empty(), "torn serialize");
                    }
                    let values = db.query("d", "/list/item").unwrap();
                    reads.fetch_add(1, Ordering::Relaxed);
                    // Writers only ever install whole documents of 10
                    // or 25 items; a torn read would show otherwise.
                    if values.len() != 10 && values.len() != 25 {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                    // All items of one read come from the same write.
                    let tags: std::collections::BTreeSet<&str> =
                        values.iter().filter_map(|v| v.split('-').next()).collect();
                    if tags.len() > 1 {
                        torn.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        // 2 writers alternating whole-document replacements: a delete
        // and an insert, one writer's pair at a time.
        for w in 0..2 {
            let sh = sh.clone();
            s.spawn(move || {
                for i in 0..40 {
                    let (n, tag) = if (i + w) % 2 == 0 { (10, "v0") } else { (25, "v1") };
                    let _pair = replace.lock().unwrap();
                    delete(&sh, "d");
                    put(&sh, "d", doc(n, tag));
                }
            });
        }
    });
    assert_eq!(torn.load(Ordering::Relaxed), 0, "a reader observed a torn state");
    assert_eq!(reads.load(Ordering::Relaxed), 6 * 300);
    // The instrumentation saw the traffic.
    let snap = sh.metrics();
    assert!(snap.histogram(xsobs::HistogramId::SrvReadLockWait).count >= 6 * 300);
    assert!(snap.histogram(xsobs::HistogramId::SrvWriteLockWait).count >= 2 * 40);
}

/// Concurrent writers against disjoint documents: all succeed, and the
/// final catalog holds exactly the union.
#[test]
fn disjoint_writers_all_land() {
    let sh = shared();
    std::thread::scope(|s| {
        for t in 0..8 {
            let sh = sh.clone();
            s.spawn(move || {
                for i in 0..20 {
                    let name = format!("doc-{t}-{i}");
                    put(&sh, &name, doc(3, "x"));
                }
            });
        }
    });
    let db = sh.read();
    assert_eq!(db.document_names().count(), 8 * 20);
    for t in 0..8 {
        for i in 0..20 {
            assert_eq!(db.query(&format!("doc-{t}-{i}"), "/list/item").unwrap().len(), 3);
        }
    }
}

/// remove_schema under concurrency: while documents exist the removal
/// is refused with SchemaInUse; after the last delete it succeeds
/// exactly once. The retry loop mirrors how a server client would use
/// the API.
#[test]
fn remove_schema_races_with_deletes() {
    let sh = shared();
    for i in 0..50 {
        put(&sh, &format!("d{i}"), doc(1, "x"));
    }
    std::thread::scope(|s| {
        {
            let sh = sh.clone();
            s.spawn(move || {
                for i in 0..50 {
                    delete(&sh, &format!("d{i}"));
                }
            });
        }
        let sh = sh.clone();
        s.spawn(move || loop {
            match sh.apply(&Mutation::RemoveSchema { name: "s".into() }) {
                Ok(outcome) => {
                    assert_eq!(outcome, ApplyOutcome::Removed);
                    break;
                }
                Err(DbError::SchemaInUse { schema, documents }) => {
                    assert_eq!(schema, "s");
                    assert!(!documents.is_empty());
                    std::thread::yield_now();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        });
    });
    let db = sh.read();
    assert_eq!(db.schema_names().count(), 0);
    assert_eq!(db.document_names().count(), 0);
}

/// MVCC pinning: a snapshot taken before a burst of writes observes
/// the same state for its entire lifetime, no matter how much writers
/// churn underneath it — and a fresh snapshot sees the final state.
#[test]
fn held_snapshots_stay_frozen_under_churn() {
    let sh = shared();
    put(&sh, "d", doc(10, "v0"));
    let pinned = sh.read();
    std::thread::scope(|s| {
        let writer = sh.clone();
        s.spawn(move || {
            for i in 0..60 {
                delete(&writer, "d");
                put(&writer, "d", doc(25, &format!("w{i}")));
            }
        });
        for _ in 0..300 {
            let values = pinned.query("d", "/list/item").unwrap();
            assert_eq!(values.len(), 10, "a held snapshot changed under a writer");
            assert!(values.iter().all(|v| v.starts_with("v0-")), "{values:?}");
        }
    });
    // The pinned snapshot is still the old world; a new one is not.
    assert_eq!(pinned.query("d", "/list/item").unwrap().len(), 10);
    assert_eq!(sh.read().query("d", "/list/item").unwrap().len(), 25);
}

/// The durable commit path under concurrency: four threads race
/// `apply` on one fsync-per-commit log while a reader asserts every
/// observable document is whole; recovery then replays every
/// acknowledged commit.
#[test]
fn concurrent_durable_appliers_recover_completely() {
    let _turn = durable_turn();
    let dir = std::env::temp_dir().join(format!(
        "xsdb-stress-wal-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let sh = sh.clone();
            scope.spawn(move || {
                for i in 0..15 {
                    sh.apply(&Mutation::Insert {
                        doc: format!("doc-{t}-{i}"),
                        schema: "s".into(),
                        xml: doc(3, "x"),
                    })
                    .unwrap();
                }
            });
        }
        let reader = sh.clone();
        scope.spawn(move || {
            for _ in 0..100 {
                let db = reader.read();
                let names: Vec<String> = db.document_names().map(str::to_string).collect();
                for name in names {
                    // Every document a snapshot lists is completely
                    // there — never a half-committed insert.
                    assert_eq!(db.query(&name, "/list/item").unwrap().len(), 3, "{name}");
                }
            }
        });
    });
    assert_eq!(sh.read().document_names().count(), 4 * 15);
    let wal_commits = sh.metrics().counter(xsobs::CounterId::WalAppends);
    assert_eq!(wal_commits, 1 + 4 * 15, "every apply must hit the log exactly once");
    drop(sh);
    // Recovery replays the full acknowledged history.
    let (again, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    let db = again.read();
    assert_eq!(db.document_names().count(), 4 * 15);
    for t in 0..4 {
        for i in 0..15 {
            assert_eq!(db.query(&format!("doc-{t}-{i}"), "/list/item").unwrap().len(), 3);
        }
    }
    drop(db);
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Guarded updates under live concurrent traffic: writers drive the
/// analyze-first update path (Accept commits without revalidation,
/// Reject refuses without touching the tree) while readers hammer
/// queries. Afterwards no descriptor was ever relabeled — Proposition
/// 1 holds under churn, not just in single-threaded microtests — the
/// storage invariants hold, and a full §6.2 revalidation is clean.
#[test]
fn guarded_updates_never_relabel_under_live_traffic() {
    let sh = shared();
    put(&sh, "d", doc(4, "seed"));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let sh = sh.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    let values = sh.read().query("d", "/list/item").unwrap();
                    // Rejected updates never surface: every observed
                    // item came from the seed or a committed insert.
                    assert!(values.iter().all(|v| v.contains('-')), "{values:?}");
                    assert!(values.len() >= 4);
                }
            });
        }
        for w in 0..2 {
            let sh = sh.clone();
            s.spawn(move || {
                let update = |text: String| Mutation::Update { doc: "d".into(), update: text };
                for i in 0..40 {
                    let append = update(format!("insert node <item>w{w}-{i}</item> into /list"));
                    let ApplyOutcome::UpdatedChecked(out) = sh.apply(&append).unwrap() else {
                        panic!("an update reports an update outcome");
                    };
                    // `item*` admits any append: provably valid, so the
                    // commit skipped revalidation entirely.
                    assert_eq!(out.revalidated, 0);
                    // A provably-invalid update is refused up front.
                    let rogue = update("insert node <rogue/> into /list".into());
                    assert!(sh.apply(&rogue).is_err());
                }
            });
        }
    });
    let db = sh.read();
    assert_eq!(db.query("d", "/list/item").unwrap().len(), 4 + 2 * 40);
    let storage = &db.document("d").unwrap().storage;
    assert_eq!(storage.relabel_count(), 0, "Proposition 1 violated under live traffic");
    assert!(storage.check_invariants().is_none());
    assert!(db.revalidate("d").unwrap().is_empty());
}

/// A panicking writer must not poison the shared handle for everyone
/// else: subsequent readers and writers keep working.
#[test]
fn lock_survives_a_panicking_holder() {
    let sh = shared();
    put(&sh, "d", doc(2, "x"));
    let sh2 = sh.clone();
    let result = std::thread::spawn(move || {
        let _guard = sh2.read();
        panic!("deliberate panic while holding the read lock");
    })
    .join();
    assert!(result.is_err());
    // The handle still serves both lock modes.
    assert_eq!(sh.read().query("d", "/list/item").unwrap().len(), 2);
    put(&sh, "e", doc(1, "y"));
    assert_eq!(sh.read().document_names().count(), 2);
}

/// Two writers race appends into one document. Each preparation reads a
/// snapshot the other writer may commit over first; that commit finds
/// it stale and prepares it again under the lock, so no append is lost
/// and none lands twice — in memory and after recovery.
#[test]
fn racing_updates_of_one_document_are_never_lost() {
    const PER_WRITER: usize = 200;
    let _turn = durable_turn();
    let dir = temp_dir("lost-updates");
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Async).unwrap();
    sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
    sh.apply(&Mutation::Insert { doc: "d".into(), schema: "s".into(), xml: doc(0, "x") }).unwrap();
    let before = retries(&sh);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for w in 0..2 {
            let (sh, start) = (&sh, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..PER_WRITER {
                    let update = format!("insert node <item>w{w}-{i}</item> into /list");
                    sh.apply(&Mutation::Update { doc: "d".into(), update }).unwrap();
                }
            });
        }
    });
    let items = |sh: &SharedDatabase| sh.read().query("d", "/list/item").unwrap();
    assert_eq!(items(&sh).len(), 2 * PER_WRITER);
    assert!(retries(&sh) > before, "two writers on one document never conflicted");
    assert!(sh.read().revalidate("d").unwrap().is_empty());
    let in_memory = items(&sh);
    drop(sh);
    let (again, _) = SharedDatabase::open_durable(&dir, Durability::Async).unwrap();
    assert_eq!(items(&again), in_memory, "recovery diverged from the acknowledged state");
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two writers race to insert the same document name: exactly one wins,
/// the other is refused as a duplicate, and only the winner is logged.
#[test]
fn racing_inserts_of_one_name_commit_once() {
    const ROUNDS: usize = 30;
    let _turn = durable_turn();
    let dir = temp_dir("double-insert");
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Async).unwrap();
    sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
    for round in 0..ROUNDS {
        let name = format!("p{round}");
        let start = Barrier::new(2);
        let outcomes: Vec<Result<_, DbError>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|w| {
                    let (sh, start, name) = (&sh, &start, &name);
                    s.spawn(move || {
                        let xml = doc(500, &format!("w{w}"));
                        start.wait();
                        sh.apply(&Mutation::Insert { doc: name.clone(), schema: "s".into(), xml })
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 1, "{name}: {outcomes:?}");
        assert!(
            outcomes.iter().any(|o| matches!(o, Err(DbError::DuplicateDocument(_)))),
            "{name}: {outcomes:?}"
        );
    }
    let inserts: Vec<String> = logged(&dir)
        .into_iter()
        .filter_map(|m| match m {
            Mutation::Insert { doc, .. } => Some(doc),
            _ => None,
        })
        .collect();
    let expected: Vec<String> = (0..ROUNDS).map(|r| format!("p{r}")).collect();
    assert_eq!(inserts, expected, "one log record per name, the winner's");
    let snapshot = |sh: &SharedDatabase| -> Vec<(String, Vec<String>)> {
        let db = sh.read();
        expected.iter().map(|n| (n.clone(), db.query(n, "/list/item").unwrap())).collect()
    };
    let in_memory = snapshot(&sh);
    drop(sh);
    let (again, _) = SharedDatabase::open_durable(&dir, Durability::Async).unwrap();
    assert_eq!(snapshot(&again), in_memory, "recovery diverged from the acknowledged state");
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers of disjoint documents never invalidate each other's
/// preparations: no commit is prepared twice.
#[test]
fn disjoint_appliers_never_retry() {
    let mut db = Database::with_metrics_registry(Arc::new(xsobs::Registry::new()));
    db.register_schema_text("s", SCHEMA).unwrap();
    let sh = SharedDatabase::new(db);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for w in 0..2 {
            let (sh, start) = (&sh, &start);
            s.spawn(move || {
                let name = format!("doc-{w}");
                start.wait();
                sh.apply(&Mutation::Insert {
                    doc: name.clone(),
                    schema: "s".into(),
                    xml: doc(0, "x"),
                })
                .unwrap();
                for i in 0..100 {
                    let update = format!("insert node <item>{w}-{i}</item> into /list");
                    sh.apply(&Mutation::Update { doc: name.clone(), update }).unwrap();
                }
            });
        }
    });
    for w in 0..2 {
        assert_eq!(sh.read().query(&format!("doc-{w}"), "/list/item").unwrap().len(), 100);
    }
    assert_eq!(retries(&sh), 0);
}
