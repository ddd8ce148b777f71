//! The paper's running example end to end: Examples 1–7 — nillable
//! elements, choice groups, mixed content, simple content with
//! attributes — with §6.2 rule-cited validation errors.
//!
//! Run with `cargo run --example bookstore`.

use xsdb::{Database, LoadOptions};

/// A schema combining the constructions of the paper's Examples 1–6:
/// a nillable Comment (Example 1), a sequence group (Example 2), a
/// repeated choice (Example 3), attributes (Example 4), simple content
/// (Example 5), and a mixed complex type (Example 6).
const SHOP_XSD: &str = r#"
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Price">
    <xsd:simpleContent>
      <xsd:extension base="xsd:decimal">
        <xsd:attribute name="currency" type="xsd:string"/>
      </xsd:extension>
    </xsd:simpleContent>
  </xsd:complexType>
  <xsd:element name="Shop">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="Comment" type="xsd:string" nillable="true"/>
        <xsd:choice minOccurs="0" maxOccurs="unbounded">
          <xsd:element name="Book">
            <xsd:complexType mixed="true">
              <xsd:sequence>
                <xsd:element name="Title" type="xsd:string"/>
                <xsd:element name="Price" type="Price"/>
              </xsd:sequence>
              <xsd:attribute name="InStock" type="xsd:boolean"/>
              <xsd:attribute name="Reviewer" type="xsd:string"/>
            </xsd:complexType>
          </xsd:element>
          <xsd:element name="Magazine" type="xsd:string"/>
        </xsd:choice>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>"#;

const GOOD: &str = r#"
<Shop>
  <Comment xsi:nil="true"/>
  <Book InStock="true" Reviewer="codd">annotated <Title>Foundations of Databases</Title>
    inner text <Price currency="USD">59.99</Price> trailing</Book>
  <Magazine>SIGMOD Record</Magazine>
  <Book InStock="false" Reviewer="date"><Title>An Introduction to Database Systems</Title><Price currency="EUR">49.50</Price></Book>
</Shop>"#;

fn main() {
    let mut db = Database::new();
    db.register_schema_text("shop", SHOP_XSD).expect("schema registers");

    // A valid document exercising nil, mixed content, choice, and
    // simple content with attributes.
    db.insert("main", "shop", GOOD).expect("valid document");
    println!("document accepted");

    println!("\nmixed-content Book string-values:");
    for value in db.query("main", "/Shop/Book").unwrap() {
        println!("  {value:?}");
    }

    println!("\nprices with currency:");
    let prices = db.query("main", "/Shop/Book/Price").unwrap();
    let currencies = db.query("main", "/Shop/Book/Price/@currency").unwrap();
    for (p, c) in prices.iter().zip(&currencies) {
        println!("  {p} {c}");
    }

    // The nilled Comment: nilled(end) = true, typed-value = () — both
    // answered by the stored node descriptor (§9.2).
    let storage = &db.document("main").unwrap().storage;
    let root = storage.children(storage.root())[0];
    let comment = storage.children(root)[0];
    let types = xsdb::xstypes::TypeRegistry::with_builtins();
    println!(
        "\nComment: nilled = {:?}, typed-value = {:?}",
        storage.nilled(comment),
        storage.typed_value(comment, &types)
    );
    assert_eq!(storage.nilled(comment), Some(true));
    assert!(storage.typed_value(comment, &types).is_empty());

    // Now a rogue's gallery of invalid documents, each violating a
    // different §6.2 requirement.
    let cases: &[(&str, &str)] = &[
        ("wrong root name (§3)", "<Store><Comment/></Store>"),
        ("nil on content (item 6)", r#"<Shop><Comment xsi:nil="true">text</Comment></Shop>"#),
        (
            "bad decimal in simple content (item 5.1.1)",
            r#"<Shop><Comment/><Book InStock="true" Reviewer="x"><Title>t</Title><Price currency="USD">cheap</Price></Book></Shop>"#,
        ),
        ("choice admits no such element (item 5.4.2.3)", "<Shop><Comment/><DVD/></Shop>"),
        ("undeclared attribute (item 7)", r#"<Shop bogus="1"><Comment/></Shop>"#),
        (
            "missing declared attribute (item 5.3.1)",
            r#"<Shop><Comment/><Book InStock="true"><Title>t</Title><Price currency="USD">1</Price></Book></Shop>"#,
        ),
    ];
    println!("\ninvalid documents and the rules they violate:");
    for (what, xml) in cases {
        let violations = db.validate("shop", xml).expect("schema known");
        assert!(!violations.is_empty(), "{what} should be invalid");
        println!("  {what}:");
        for v in violations.iter().take(2) {
            println!("    {v}");
        }
    }

    // The same missing-attribute document is fine in relaxed mode
    // (the paper drops REQUIRED/OPTIONAL "for simplicity"; we offer both
    // readings).
    let mut relaxed = Database::with_options(LoadOptions {
        require_all_attributes: false,
        ..LoadOptions::default()
    });
    relaxed.register_schema_text("shop", SHOP_XSD).unwrap();
    let missing_attr = cases.last().unwrap().1;
    assert!(relaxed.validate("shop", missing_attr).unwrap().is_empty());
    println!("\nrelaxed attribute mode accepts the missing-attribute document");
}
