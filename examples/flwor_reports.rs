//! FLWOR queries — the paper's §11 future work ("a simple semantics of a
//! data manipulation language like XQuery") in action: build reports
//! from a validated document, over both the logical tree and the §9
//! block storage.
//!
//! Run with `cargo run --example flwor_reports`.

use xsdb::Database;

const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Publication">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
      <xs:element name="author" type="xs:string" maxOccurs="unbounded"/>
      <xs:element name="year" type="xs:gYear"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:ID"/>
  </xs:complexType>
  <xs:element name="library">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" type="Publication" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const DOC: &str = r#"
<library>
  <book id="b1"><title>Foundations of Databases</title><author>Abiteboul</author><author>Hull</author><author>Vianu</author><year>1995</year></book>
  <book id="b2"><title>A Relational Model of Data for Large Shared Data Banks</title><author>Codd</author><year>1970</year></book>
  <book id="b3"><title>The Complexity of Relational Query Languages</title><author>Codd</author><year>1982</year></book>
  <book id="b4"><title>Transaction Processing</title><author>Gray</author><author>Reuter</author><year>1993</year></book>
</library>"#;

fn main() {
    let mut db = Database::new();
    db.register_schema_text("lib", SCHEMA).unwrap();
    db.insert("main", "lib", DOC).unwrap();

    println!("— all Codd publications, newest first —");
    let report = db
        .xquery(
            "main",
            r#"for $b in /library/book
               where $b/author = "Codd"
               order by $b/year descending
               return <pub year="{$b/year}">{$b/title/text()}</pub>"#,
        )
        .unwrap();
    println!("{report}\n");

    println!("— catalog cards with let bindings —");
    let report = db
        .xquery(
            "main",
            r#"for $b in /library/book
               let $t := $b/title
               let $y := $b/year
               order by $t
               return <card ref="{$b/@id}"><t>{$t/text()}</t><y>{$y/text()}</y></card>"#,
        )
        .unwrap();
    for line in report.split("</card>").filter(|l| !l.is_empty()) {
        println!("{line}</card>");
    }
    println!();

    println!("— block storage vs the rebuilt XDM tree (the test oracle) —");
    let q = r#"for $b in /library/book
               where $b/year > "1980" and $b/year < "1994"
               return <hit>{$b/title/text()} ({$b/year/text()})</hit>"#;
    let physical = db.xquery("main", q).unwrap();
    let (store, doc) = xsdb::storage_to_tree(&db.document("main").unwrap().storage);
    let tree = xsdb::xpath::XdmTree { store: &store, doc };
    let parsed = xsdb::xquery::parse_query(q).unwrap();
    let logical = xsdb::xquery::nodes_to_string(&xsdb::xquery::evaluate(&tree, &parsed).unwrap());
    assert_eq!(logical, physical);
    println!("{physical}");
    println!("\nlogical and physical evaluation agree ✓");
}
