//! End-to-end database scenarios: several documents and schemas in one
//! database, the full update → revalidate → persist → reload → query
//! lifecycle — the "database evolving through states" of §6.1 exercised
//! through the public façade only.

use xsdb::{content_equal, Database, DbError, Document, LoadOptions};

const BOOKS_XSD: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Book">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
      <xs:element name="year" type="xs:gYear"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="books">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" type="Book" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const NOTES_XSD: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="notes">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="note" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType mixed="true">
            <xs:sequence>
              <xs:element name="em" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

fn seeded() -> Database {
    let mut db = Database::new();
    db.register_schema_text("books", BOOKS_XSD).unwrap();
    db.register_schema_text("notes", NOTES_XSD).unwrap();
    db.insert(
        "shelf",
        "books",
        "<books><book><title>Foundations</title><year>1995</year></book></books>",
    )
    .unwrap();
    db.insert("pad", "notes", "<notes><note>remember <em>this</em></note></notes>").unwrap();
    db
}

#[test]
fn multiple_schemas_and_documents_coexist() {
    let db = seeded();
    assert_eq!(db.schema_names().collect::<Vec<_>>(), ["books", "notes"]);
    assert_eq!(db.document_names().collect::<Vec<_>>(), ["pad", "shelf"]);
    assert_eq!(db.query("shelf", "/books/book/title").unwrap(), ["Foundations"]);
    assert_eq!(db.query("pad", "/notes/note/em").unwrap(), ["this"]);
    // A document cannot be validated against the wrong schema.
    let errs = db
        .validate("notes", "<books><book><title>t</title><year>2000</year></book></books>")
        .unwrap();
    assert!(!errs.is_empty());
}

#[test]
fn full_lifecycle_update_persist_reload() {
    let dir = std::env::temp_dir().join(format!(
        "xsdb-flow-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut db = seeded();
    // An update that would leave an empty, schema-invalid book is
    // refused before it reaches the document…
    let before = db.serialize("shelf").unwrap();
    assert!(db.execute_update("shelf", "insert node <book/> into /books").is_err());
    assert_eq!(db.serialize("shelf").unwrap(), before);
    assert!(db.revalidate("shelf").unwrap().is_empty());
    // …while schema-conforming ones commit.
    db.execute_update("shelf", r#"replace value of node /books/book/title with "Transactions""#)
        .unwrap();
    db.execute_update("shelf", r#"replace value of node /books/book/year with "1993""#).unwrap();
    assert!(db.revalidate("shelf").unwrap().is_empty());

    // Persist and reload (reload re-runs f on everything).
    db.save_dir(&dir).unwrap();
    let restored = Database::load_dir(&dir).unwrap();
    assert_eq!(restored.query("shelf", "/books/book/title").unwrap(), ["Transactions"]);
    assert_eq!(restored.query("shelf", "/books/book/year").unwrap(), ["1993"]);
    // Serializations are content-equal across the save/load boundary.
    let a = Document::parse(&db.serialize("shelf").unwrap()).unwrap();
    let b = Document::parse(&restored.serialize("shelf").unwrap()).unwrap();
    assert!(content_equal(&a, &b));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn xquery_and_xpath_see_the_same_database_state() {
    let mut db = seeded();
    db.execute_update("shelf", r#"replace value of node /books/book/title with "Zen""#).unwrap();
    let via_xpath = db.query("shelf", "/books/book/title").unwrap();
    let via_xquery =
        db.xquery("shelf", "for $b in /books/book return <t>{$b/title/text()}</t>").unwrap();
    assert_eq!(via_xpath, ["Zen"]);
    assert_eq!(via_xquery, "<t>Zen</t>");
    // A new text node, resolved through the same descriptors.
    db.execute_update("pad", "insert node <em>too</em> into /notes/note").unwrap();
    assert_eq!(db.query("pad", "/notes/note/em").unwrap(), ["this", "too"]);
    assert_eq!(
        db.xquery("pad", "for $e in /notes/note/em return $e").unwrap(),
        "<em>this</em><em>too</em>"
    );
}

#[test]
fn delete_and_reinsert_under_the_same_name() {
    let mut db = seeded();
    assert!(db.delete("shelf"));
    assert!(matches!(db.query("shelf", "/books"), Err(DbError::UnknownDocument(_))));
    db.insert("shelf", "books", "<books/>").unwrap();
    assert_eq!(db.query("shelf", "/books/book").unwrap().len(), 0);
}

#[test]
fn relaxed_and_strict_databases_disagree_exactly_on_attributes() {
    let xsd = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="e">
    <xs:complexType>
      <xs:sequence/>
      <xs:attribute name="must" type="xs:string"/>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;
    let doc = "<e/>";
    let mut strict = Database::new();
    strict.register_schema_text("s", xsd).unwrap();
    assert!(!strict.validate("s", doc).unwrap().is_empty());
    let mut relaxed = Database::with_options(LoadOptions {
        require_all_attributes: false,
        ..LoadOptions::default()
    });
    relaxed.register_schema_text("s", xsd).unwrap();
    assert!(relaxed.validate("s", doc).unwrap().is_empty());
}
