//! The commit protocol of [`SharedDatabase::apply`]: prepare against a
//! read snapshot, check under the writer lock that what the preparation
//! read is still installed, log, install, publish.
//!
//! Two properties are pinned here. A mutation that is refused never
//! reaches the write-ahead log: no append, no byte, nothing to replay.
//! And a preparation that went stale is never installed: its commit
//! reports [`Stale`], and preparing again over the new state keeps both
//! edits.
//!
//! The log test reads the process-global `wal.appends_total` counter,
//! so it is the only test in this binary that opens a durable handle.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use xsdb::{xsobs, Database, DbError, Durability, Mutation, SharedDatabase, Stale};

/// `library` holds `book+`; a `book` is `(title, author?)` with an `id`
/// attribute. A second author passes the static analysis and fails the
/// local recheck.
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
            <xs:attribute name="id" type="xs:string"/>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const DOC: &str =
    r#"<library><book id="b1"><title>T</title><author>Codd</author></book></library>"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xsdb-commit-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Total bytes of every write-ahead-log segment under `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir.join("wal"))
        .map(|entries| entries.map(|e| e.unwrap().metadata().unwrap().len()).sum())
        .unwrap_or(0)
}

fn appends() -> u64 {
    xsobs::global().snapshot().counter(xsobs::CounterId::WalAppends)
}

fn insert(doc: &str, schema: &str, xml: &str) -> Mutation {
    Mutation::Insert { doc: doc.into(), schema: schema.into(), xml: xml.into() }
}

fn update(doc: &str, update: &str) -> Mutation {
    Mutation::Update { doc: doc.into(), update: update.into() }
}

/// Every kind of refusal leaves the log exactly as it was: no append is
/// counted, no byte is written, and a reopen has no record to replay.
#[test]
fn rejections_never_reach_the_log() {
    let dir = temp_dir("rejections");
    let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    sh.apply(&Mutation::RegisterSchema { name: "lib".into(), xsd: LIB.into() }).unwrap();
    sh.apply(&insert("d", "lib", DOC)).unwrap();
    // Fold the setup into the paged store, so the log starts empty.
    sh.checkpoint().unwrap();
    let bytes = wal_bytes(&dir);
    let before = appends();

    type Check = fn(&DbError) -> bool;
    let rejections: [(Mutation, Check); 11] = [
        (insert("m", "lib", "<library><book>"), |e| matches!(e, DbError::Xml(_))),
        (insert("i", "lib", "<library/>"), |e| matches!(e, DbError::Invalid(_))),
        (insert("d", "lib", DOC), |e| matches!(e, DbError::DuplicateDocument(_))),
        (insert("u", "nosuch", DOC), |e| matches!(e, DbError::UnknownSchema(_))),
        (update("d", "insert node <rogue/> into /library"), |e| {
            matches!(e, DbError::UpdateStaticallyInvalid(_))
        }),
        (update("d", "insert node <author>Date</author> into /library/book"), |e| {
            matches!(e, DbError::Invalid(_))
        }),
        (
            update("d", "insert node <author/> into /library/book/title/text()"),
            |e| matches!(e, DbError::XQuery(q) if q.reason.starts_with("XUTY0005")),
        ),
        (
            update("d", "insert node <author/> before /library/book/@id"),
            |e| matches!(e, DbError::XQuery(q) if q.reason.starts_with("XUTY0006")),
        ),
        (
            update("d", "replace node /library/book/@id with <author/>"),
            |e| matches!(e, DbError::XQuery(q) if q.reason.starts_with("XUTY0008")),
        ),
        (Mutation::Delete { doc: "missing".into() }, |e| matches!(e, DbError::UnknownDocument(_))),
        (Mutation::RegisterSchema { name: "lib".into(), xsd: LIB.into() }, |e| {
            matches!(e, DbError::DuplicateSchema(_))
        }),
    ];
    for (m, expected) in &rejections {
        let err = sh.apply(m).expect_err("the mutation must be refused");
        assert!(expected(&err), "{m:?} refused with {err}");
        assert_eq!(appends(), before, "{m:?} reached the log");
        assert_eq!(wal_bytes(&dir), bytes, "{m:?} wrote log bytes");
    }
    assert_eq!(sh.read().serialize("d").unwrap(), DOC);
    drop(sh);

    let replayed = xsobs::global().snapshot().counter(xsobs::CounterId::WalReplayRecords);
    let (again, report) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
    assert!(report.is_clean());
    let after = xsobs::global().snapshot().counter(xsobs::CounterId::WalReplayRecords);
    assert_eq!(after, replayed, "the reopen replayed a record");
    assert_eq!(again.read().serialize("d").unwrap(), DOC);
    let _ = fs::remove_dir_all(&dir);
}

/// A preparation read one state of a document; another update committed
/// over it first. Its commit reports `Stale` and installs nothing, and
/// preparing it again over the new state keeps both edits.
#[test]
fn a_stale_update_is_prepared_again() {
    let mut db = Database::with_metrics_registry(Arc::new(xsobs::Registry::new()));
    db.register_schema_text("lib", LIB).unwrap();
    db.insert("d", "lib", r#"<library><book id="b1"><title>T</title></book></library>"#).unwrap();
    let first = update("d", r#"replace value of node /library/book/title with "Relational""#);
    let second = update("d", "insert node <author>Codd</author> into /library/book");

    let prepared = first.prepare(&db).unwrap();
    second.apply(&mut db).unwrap();
    assert_eq!(db.commit(prepared).unwrap_err(), Stale);
    // The stale commit installed nothing: only the second edit shows.
    assert_eq!(db.query("d", "/library/book/title").unwrap(), ["T"]);

    let again = first.prepare(&db).unwrap();
    db.commit(again).unwrap();
    assert_eq!(db.query("d", "/library/book/title").unwrap(), ["Relational"]);
    assert_eq!(db.query("d", "/library/book/author").unwrap(), ["Codd"]);
    assert!(db.revalidate("d").unwrap().is_empty());
    assert_eq!(db.document("d").unwrap().storage.check_invariants(), None);
    // Two update requests committed, each counted once; the stale
    // preparation counted nothing.
    let m = db.metrics();
    assert_eq!(m.counter(xsobs::CounterId::UpdateChecks), 2);
    assert_eq!(
        m.counter(xsobs::CounterId::UpdateAccepted) + m.counter(xsobs::CounterId::UpdateRechecked),
        2
    );
}

/// The same race for an insert: a preparation taken before another
/// writer inserted the same name goes stale, and is refused.
#[test]
fn a_snapshot_preparation_goes_stale_under_a_concurrent_commit() {
    let mut db = Database::with_metrics_registry(Arc::new(xsobs::Registry::new()));
    db.register_schema_text("lib", LIB).unwrap();
    let put = insert("d", "lib", r#"<library><book id="b1"><title>T</title></book></library>"#);
    let prepared = put.prepare(&db).unwrap();
    put.apply(&mut db).unwrap();
    // The name is taken now: the preparation is stale, and preparing it
    // again is refused as a duplicate.
    assert_eq!(db.commit(prepared).unwrap_err(), Stale);
    assert!(matches!(put.prepare(&db), Err(DbError::DuplicateDocument(_))));
    assert_eq!(db.document_names().count(), 1);
}
