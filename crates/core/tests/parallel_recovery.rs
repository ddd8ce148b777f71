//! Parallel recovery is the sequential fold.
//!
//! Recovery cuts the write-ahead-log tail into waves of records naming
//! distinct documents, prepares each wave on every core against the
//! state before it, and commits in log order. This suite recovers
//! seeded adversarial logs through [`SharedDatabase::open_durable`] and
//! compares the result with an oracle that applies the same records one
//! at a time ([`Mutation::apply`] in log order, skipping what a
//! document's checkpoint epoch covers and what the database refuses):
//! the document and schema lists, each document's serialization, its
//! storage invariants and a clean `revalidate`, and the number of
//! skipped records must all be equal.
//!
//! The logs mix what makes a wave go wrong if it is cut badly: a name
//! deleted and re-inserted inside one wave window, back-to-back updates
//! of one document (the later ones refused once the document is full),
//! schema register/remove barriers, refused records appended raw as an
//! older binary logged them, and — after a checkpoint whose truncation
//! never happened — records at or below a document's catalog epoch.
//!
//! The replay counters are process-global, so every test here holds
//! one lock.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use xsdb::storage::{wal, Wal, WalRecord, DEFAULT_ROTATE_BYTES};
use xsdb::xsobs::{self, CounterId};
use xsdb::{Database, Durability, Mutation, SharedDatabase, StdVfs};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn counter(id: CounterId) -> u64 {
    xsobs::global().snapshot().counter(id)
}

/// At most five entries: an appended entry passes the static check
/// (`Recheck`) and fails the local recheck once the log is full, so an
/// update's verdict depends on the updates before it.
const LOG: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="log">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="entry" type="xs:string" minOccurs="0" maxOccurs="5"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const NOTE: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="note" type="xs:string"/>
</xs:schema>"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xsdb-parallel-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small deterministic generator (xorshift64*), so every case is
/// reproducible from its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

fn register(name: &str, xsd: &str) -> Mutation {
    Mutation::RegisterSchema { name: name.into(), xsd: xsd.into() }
}

fn remove(name: &str) -> Mutation {
    Mutation::RemoveSchema { name: name.into() }
}

fn insert(doc: &str, schema: &str, xml: &str) -> Mutation {
    Mutation::Insert { doc: doc.into(), schema: schema.into(), xml: xml.into() }
}

fn delete(doc: &str) -> Mutation {
    Mutation::Delete { doc: doc.into() }
}

fn update(doc: &str, update: &str) -> Mutation {
    Mutation::Update { doc: doc.into(), update: update.into() }
}

/// The scripted hazards, then `n` seeded records over a pool of four
/// `log` documents and two `note` documents. About a third of the
/// records are refused when replayed in order.
fn script(seed: u64, n: usize) -> Vec<Mutation> {
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut out = vec![
        register("log", LOG),
        insert("d0", "log", "<log><entry>first</entry></log>"),
        insert("d1", "log", "<log/>"),
        // Deleted and re-inserted inside one wave window.
        update("d1", "insert node <entry>one</entry> into /log"),
        delete("d0"),
        insert("d0", "log", "<log><entry>second</entry><entry>life</entry></log>"),
        update("d0", "insert node <entry>tail</entry> into /log"),
        // Back-to-back updates of one document; the last ones overflow
        // `maxOccurs` and are refused by the recheck.
        update("d1", "insert node <entry>a</entry> into /log"),
        update("d1", "insert node <entry>b</entry> into /log"),
        update("d1", "insert node <entry>c</entry> into /log"),
        update("d1", "insert node <entry>d</entry> into /log"),
        update("d1", "insert node <entry>e</entry> into /log"),
        update("d1", r#"replace value of node /log/entry[1] with "first""#),
        // Schema barriers, with refusals on both sides.
        insert("n0", "note", "<note>too early</note>"),
        register("note", NOTE),
        insert("n0", "note", "<note>x</note>"),
        remove("note"),
        register("note", NOTE),
        delete("n0"),
        remove("note"),
        insert("n1", "note", "<note>gone</note>"),
        register("note", NOTE),
    ];
    let logs = ["d0", "d1", "d2", "d3"];
    let notes = ["n0", "n1"];
    for k in 0..n {
        let doc = logs[rng.below(4) as usize];
        let m = match rng.below(16) {
            0 | 1 => insert(doc, "log", &format!("<log><entry>i{k}</entry></log>")),
            2 => insert(doc, "log", "<log><bogus/></log>"),
            3 => insert(doc, "log", "<log>"),
            4 | 5 => delete(doc),
            6..=8 => update(doc, &format!("insert node <entry>u{k}</entry> into /log")),
            9 => update(doc, "delete node /log/entry[1]"),
            10 => update(doc, &format!(r#"replace value of node /log/entry[last()] with "r{k}""#)),
            11 => update(doc, "insert node <bogus/> into /log"),
            12 => insert(notes[rng.below(2) as usize], "note", &format!("<note>{k}</note>")),
            13 => delete(notes[rng.below(2) as usize]),
            14 => register("note", NOTE),
            _ => remove("note"),
        };
        out.push(m);
    }
    out
}

/// Append `mutations` to the log under `dir` exactly as given — the
/// refused ones too, as a binary that logged before it applied did.
fn append_raw(dir: &Path, mutations: &[Mutation]) {
    let (mut log, _) = Wal::open(&StdVfs, &dir.join("wal"), DEFAULT_ROTATE_BYTES).unwrap();
    for m in mutations {
        log.append(&StdVfs, &m.encode()).unwrap();
    }
    log.sync(&StdVfs).unwrap();
}

/// The sequential fold: each record in log order, skipped when its
/// document's checkpoint epoch covers it, applied otherwise, refusals
/// skipped. Returns how many records it skipped.
fn oracle(db: &mut Database, records: &[WalRecord], epochs: &BTreeMap<String, u64>) -> u64 {
    let mut skipped = 0;
    for rec in records {
        let m = Mutation::decode(&rec.payload).unwrap();
        if m.doc_name().is_some_and(|doc| rec.seq <= epochs.get(doc).copied().unwrap_or(0)) {
            skipped += 1;
            continue;
        }
        if m.apply(db).is_err() {
            skipped += 1;
        }
    }
    skipped
}

/// Recover `dir` through `open_durable` and compare it with `expected`:
/// the lists, every document, and the skipped-record count.
fn assert_recovers_to(dir: &Path, expected: &Database, oracle_skipped: u64, case: &str) {
    let records = wal::replay(&StdVfs, &dir.join("wal")).unwrap().len() as u64;
    let (skipped, replayed) =
        (counter(CounterId::WalReplaySkipped), counter(CounterId::WalReplayRecords));
    let (sh, report) = SharedDatabase::open_durable(dir, Durability::Fsync).unwrap();
    assert!(report.is_clean(), "{case}: {report:?}");
    assert_eq!(
        counter(CounterId::WalReplayRecords) - replayed,
        records,
        "{case}: records replayed"
    );
    assert_eq!(counter(CounterId::WalReplaySkipped) - skipped, oracle_skipped, "{case}: skipped");
    let got = sh.read();
    let names = |db: &Database| db.document_names().map(str::to_string).collect::<Vec<_>>();
    let schemas = |db: &Database| db.schema_names().map(str::to_string).collect::<Vec<_>>();
    assert_eq!(names(&got), names(expected), "{case}: LIST");
    assert_eq!(schemas(&got), schemas(expected), "{case}: schemas");
    for name in expected.document_names() {
        assert_eq!(
            got.serialize(name).unwrap(),
            expected.serialize(name).unwrap(),
            "{case}: {name}"
        );
        let stored = got.document(name).unwrap();
        assert_eq!(stored.storage.check_invariants(), None, "{case}: {name}");
        assert_eq!(stored.schema_name, expected.document(name).unwrap().schema_name, "{case}");
        assert!(got.revalidate(name).unwrap().is_empty(), "{case}: {name} revalidates");
    }
}

/// No `CURRENT`: the raw log is the only state, and every record is
/// replayed over an empty database.
#[test]
fn a_log_without_a_checkpoint_recovers_to_the_sequential_fold() {
    let _g = lock();
    let reprepared = counter(CounterId::WalReplayReprepared);
    for seed in 1..=12 {
        let dir = temp_dir(&format!("raw-{seed}"));
        let mutations = script(seed, 60);
        append_raw(&dir, &mutations);
        let records = wal::replay(&StdVfs, &dir.join("wal")).unwrap();
        let mut expected = Database::new();
        let skipped = oracle(&mut expected, &records, &BTreeMap::new());
        assert!(skipped > 0 && skipped < records.len() as u64, "seed {seed}: {skipped} skipped");
        assert_recovers_to(&dir, &expected, skipped, &format!("raw seed {seed}"));
        let _ = fs::remove_dir_all(&dir);
    }
    // Refusals that follow a commit in their wave were prepared again.
    assert!(counter(CounterId::WalReplayReprepared) > reprepared);
}

/// A checkpoint saved but never truncated: the records it folded in
/// are still in the log (each at or below its document's catalog
/// epoch), followed by a raw tail.
#[test]
fn a_log_over_an_untruncated_checkpoint_recovers_to_the_sequential_fold() {
    let _g = lock();
    for seed in 1..=8 {
        let dir = temp_dir(&format!("checkpointed-{seed}"));
        let mutations = script(seed, 40);
        let (head, tail) = mutations.split_at(mutations.len() / 2);
        let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        for m in head {
            let _ = sh.apply(m);
        }
        // Keep the log's bytes, checkpoint, then put them back: the
        // state a crash between the save and the truncation leaves.
        let wal_dir = dir.join("wal");
        let segments: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(&wal_dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        let epoch = wal::replay(&StdVfs, &wal_dir).unwrap().last().map_or(0, |r| r.seq);
        sh.checkpoint().unwrap();
        drop(sh);
        let mut expected = Database::load_dir(&dir).unwrap();
        for (path, bytes) in &segments {
            fs::write(path, bytes).unwrap();
        }
        append_raw(&dir, tail);

        let records = wal::replay(&StdVfs, &wal_dir).unwrap();
        assert!(records.iter().any(|r| r.seq <= epoch), "seed {seed}: nothing at or below epoch");
        let epochs: BTreeMap<String, u64> =
            expected.document_names().map(|name| (name.to_string(), epoch)).collect();
        let skipped = oracle(&mut expected, &records, &epochs);
        assert_recovers_to(&dir, &expected, skipped, &format!("checkpointed seed {seed}"));
        let _ = fs::remove_dir_all(&dir);
    }
}

/// On a log whose records all name distinct documents no preparation
/// goes stale and none is refused, so nothing is prepared twice; the
/// log still spans several waves. Updates of one document that all
/// commit are cut into one wave each, so they are not prepared twice
/// either.
#[test]
fn distinct_names_are_never_prepared_twice() {
    let _g = lock();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let dir = temp_dir("distinct");
    let mut mutations = vec![register("log", LOG)];
    mutations.extend(
        (0..40).map(|i| insert(&format!("d{i}"), "log", &format!("<log><entry>{i}</entry></log>"))),
    );
    append_raw(&dir, &mutations);
    let (reprepared, waves) =
        (counter(CounterId::WalReplayReprepared), counter(CounterId::WalReplayWaves));
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    assert_eq!(sh.read().len(), 40);
    assert_eq!(counter(CounterId::WalReplayReprepared) - reprepared, 0);
    let at_least = 1 + 40_u64.div_ceil(4 * workers);
    assert!(counter(CounterId::WalReplayWaves) - waves >= at_least, "fewer than {at_least} waves");
    drop(sh);
    let _ = fs::remove_dir_all(&dir);

    let mut mutations = vec![register("log", LOG), insert("d", "log", "<log/>")];
    mutations
        .extend((0..4).map(|i| update("d", &format!("insert node <entry>{i}</entry> into /log"))));
    append_raw(&dir, &mutations);
    let (reprepared, waves) =
        (counter(CounterId::WalReplayReprepared), counter(CounterId::WalReplayWaves));
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    assert_eq!(sh.read().query("d", "/log/entry").unwrap(), ["0", "1", "2", "3"]);
    assert_eq!(counter(CounterId::WalReplayReprepared) - reprepared, 0);
    assert_eq!(counter(CounterId::WalReplayWaves) - waves, 6, "one wave per record");
    let _ = fs::remove_dir_all(&dir);
}

/// A reopen reads the log once and counts each replayed record once:
/// five records after a checkpoint raise `wal.replay_records_total` by
/// exactly five.
#[test]
fn each_replayed_record_is_counted_once() {
    let _g = lock();
    let dir = temp_dir("count-once");
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    sh.apply(&register("log", LOG)).unwrap();
    sh.checkpoint().unwrap();
    for i in 0..5 {
        sh.apply(&insert(&format!("d{i}"), "log", "<log/>")).unwrap();
    }
    drop(sh);
    let before = counter(CounterId::WalReplayRecords);
    let (again, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    assert_eq!(counter(CounterId::WalReplayRecords) - before, 5);
    assert_eq!(again.read().len(), 5);
    let _ = fs::remove_dir_all(&dir);
}
