//! The tree-free §6.2 core against the tree-building loader, its
//! oracle. Every document runs both ways — the core over the parser's
//! events (what `VALIDATE` and `PUT_DOC` run) and `load_document` over a
//! DOM, identity checks on — and the suite checks that:
//!
//! * the verdicts agree, on generated corpora of every family, an
//!   `xs:ID`/`xs:IDREF` schema, and single-mutation invalid documents;
//! * a document with one violation gets exactly the loader's one error:
//!   rule, `/a/b[n]` path and message — and after random edits, any
//!   document gets exactly the loader's error list;
//! * malformed and over-limit text is the parser's `DbError::Xml` and
//!   counts under `parse.errors_total`;
//! * the storage the core builds passes `check_invariants` and is the
//!   storage `from_tree(load_document(..))` builds, down to the bytes
//!   of its paged encoding;
//! * the storage walk (`revalidate`) agrees with the parsed text on every
//!   stored document.

use std::path::{Path, PathBuf};

use bench::Family;
use proptest::prelude::*;
use xsdb::algebra::{validate_text, LoadOptions, Rule, ValidationError};
use xsdb::storage::paged::save_full;
use xsdb::storage::{PageStore, XmlStorage};
use xsdb::xmlparse::ParseLimits;
use xsdb::xsobs::{global, CounterId};
use xsdb::{load_document, parse_schema_text, Database, DbError, Document, DocumentSchema, StdVfs};

/// Orders: named simple types with patterns, enumerations, digit and
/// length facets, a nillable element and an attribute.
const ORDERS_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="OrderId"><xs:restriction base="xs:string"><xs:pattern value="ORD-[0-9]{6}"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="Sku"><xs:restriction base="xs:string"><xs:pattern value="[A-Z]{3}-[0-9]{4}"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="Status"><xs:restriction base="xs:string">
    <xs:enumeration value="new"/><xs:enumeration value="paid"/><xs:enumeration value="shipped"/>
  </xs:restriction></xs:simpleType>
  <xs:simpleType name="Money"><xs:restriction base="xs:decimal"><xs:totalDigits value="10"/><xs:fractionDigits value="2"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="Qty"><xs:restriction base="xs:positiveInteger"><xs:maxInclusive value="999"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="Label"><xs:restriction base="xs:string"><xs:minLength value="3"/><xs:maxLength value="40"/></xs:restriction></xs:simpleType>
  <xs:complexType name="Item">
    <xs:sequence>
      <xs:element name="sku" type="Sku"/>
      <xs:element name="qty" type="Qty"/>
      <xs:element name="price" type="Money"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Order">
    <xs:sequence>
      <xs:element name="customer" type="Label"/>
      <xs:element name="status" type="Status" nillable="true"/>
      <xs:element name="item" type="Item" maxOccurs="unbounded"/>
      <xs:element name="total" type="Money"/>
    </xs:sequence>
    <xs:attribute name="id" type="OrderId"/>
  </xs:complexType>
  <xs:element name="orders">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="order" type="Order" minOccurs="0" maxOccurs="unbounded"/>
        <xs:element name="note" type="Label" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

/// Cross references: `xs:ID` on attributes and elements, `xs:IDREF` and
/// lists of `xs:IDREF` on elements.
const IDS_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="Refs"><xs:list itemType="xs:IDREF"/></xs:simpleType>
  <xs:complexType name="Chapter">
    <xs:sequence>
      <xs:element name="key" type="xs:ID" minOccurs="0"/>
      <xs:element name="title" type="xs:string"/>
      <xs:element name="see" type="xs:IDREF" minOccurs="0" maxOccurs="unbounded"/>
      <xs:element name="also" type="Refs" minOccurs="0"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:ID"/>
  </xs:complexType>
  <xs:element name="report">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="chapter" type="Chapter" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

fn orders(n: usize, seed: u64) -> String {
    let mut out = String::from("<orders>");
    for i in 0..n.max(1) {
        let k = seed as usize + i;
        out.push_str(&format!(r#"<order id="ORD-{:06}"><customer>client {k}</customer>"#, k));
        if k.is_multiple_of(3) {
            out.push_str(r#"<status xsi:nil="true"/>"#);
        } else {
            out.push_str(&format!("<status>{}</status>", ["new", "paid", "shipped"][k % 3]));
        }
        for j in 0..1 + k % 3 {
            out.push_str(&format!(
                "<item><sku>ABC-{:04}</sku><qty>{}</qty><price>{}.{:02}</price></item>",
                (k + j) % 10_000,
                1 + (k + j) % 999,
                k % 500,
                j
            ));
        }
        out.push_str(&format!("<total>{}.50</total></order>", k % 1000));
    }
    out.push_str("<note>end of batch</note></orders>");
    out
}

fn chapters(n: usize, seed: u64) -> String {
    let mut out = String::from("<report>");
    for i in 0..n.max(2) {
        let next = (i + 1) % n.max(2);
        out.push_str(&format!(r#"<chapter id="c{i}">"#));
        if (i as u64 + seed).is_multiple_of(2) {
            out.push_str(&format!("<key>k{i}</key>"));
        }
        out.push_str(&format!("<title>t{seed}</title><see>c{next}</see><also>c0 c{next}</also>"));
        out.push_str("</chapter>");
    }
    out.push_str("</report>");
    out
}

/// A corpus: name, schema text, and a generator by size and seed.
type Corpus = (&'static str, &'static str, Box<dyn Fn(usize, u64) -> String>);

/// Every corpus.
fn corpora() -> Vec<Corpus> {
    let mut all: Vec<Corpus> = Family::ALL
        .into_iter()
        .map(|f| {
            let generate: Box<dyn Fn(usize, u64) -> String> =
                Box::new(move |size, seed| f.generate(size, seed));
            (f.name(), f.schema_text(), generate)
        })
        .collect();
    all.push(("orders", ORDERS_XSD, Box::new(|size, seed| orders(size / 12, seed))));
    all.push(("ids", IDS_XSD, Box::new(|size, seed| chapters(size / 8, seed))));
    all
}

/// The loader's outcome: parse error text, or its violations.
fn oracle(schema: &DocumentSchema, xml: &str) -> Result<Vec<ValidationError>, String> {
    let doc = Document::parse(xml).map_err(|e| e.to_string())?;
    Ok(load_document(schema, &doc).err().unwrap_or_default())
}

/// The core's outcome over the same text.
fn core(schema: &DocumentSchema, xml: &str) -> Result<Vec<ValidationError>, String> {
    let opts = LoadOptions::default();
    validate_text(schema, xml, &opts, &ParseLimits::default(), None).map_err(|e| e.to_string())
}

fn database(name: &str, xsd: &str) -> Database {
    let mut db = Database::new();
    db.register_schema_text(name, xsd).unwrap();
    db
}

/// Store `xml` through `PUT_DOC`'s path, and check the stored form
/// against `from_tree(load_document(..))` and the storage walk.
fn check_stored(db: &mut Database, schema: &DocumentSchema, name: &str, xml: &str) {
    let schema_name = db.schema_names().next().unwrap().to_string();
    db.insert(name, &schema_name, xml).unwrap();
    let streamed = &db.document(name).unwrap().storage;
    assert_eq!(streamed.check_invariants(), None, "{name}");
    let loaded = load_document(schema, &Document::parse(xml).unwrap()).unwrap();
    let oracle = XmlStorage::from_tree(&loaded.store, loaded.doc);
    assert_eq!(format!("{streamed:?}"), format!("{oracle:?}"), "{name}: stored form differs");
    // The storage walk agrees with the parsed text.
    assert_eq!(db.revalidate(name).unwrap(), [], "{name}");
    assert_eq!(db.validate(&schema_name, &db.serialize(name).unwrap()).unwrap(), [], "{name}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn agrees_on_valid_documents(size in 10usize..400, seed in 0u64..5000) {
        for (family, xsd, generate) in corpora() {
            let schema = parse_schema_text(xsd).unwrap();
            let xml = generate(size, seed);
            prop_assert_eq!(oracle(&schema, &xml), Ok(Vec::new()), "{}: oracle", family);
            prop_assert_eq!(core(&schema, &xml), Ok(Vec::new()), "{}: core", family);
            check_stored(&mut database(family, xsd), &schema, family, &xml);
        }
    }

    #[test]
    fn agrees_on_mutated_documents(size in 20usize..200, seed in 0u64..5000, flip in 0usize..50) {
        // Rename the `flip`-th <Author> of a flat document to <Writer>:
        // one violation, reported identically.
        let schema = parse_schema_text(Family::Flat.schema_text()).unwrap();
        let xml = Family::Flat.generate(size, seed);
        let mutated = replace_nth(&xml, "Author", "Writer", flip);
        let want = oracle(&schema, &mutated);
        prop_assert_eq!(core(&schema, &mutated), want.clone());
        if mutated != xml {
            prop_assert_eq!(want.map(|e| e.len()), Ok(1));
        }
    }
}

/// Rename the `n`-th `<tag>…</tag>` element (0-based) to `to`; the text
/// is unchanged when there are fewer.
fn replace_nth(xml: &str, tag: &str, to: &str, n: usize) -> String {
    let open = format!("<{tag}>");
    let Some((at, _)) = xml.match_indices(&open).nth(n) else {
        return xml.to_string();
    };
    let close = format!("</{tag}>");
    let end = at + xml[at..].find(&close).unwrap();
    format!(
        "{}<{to}>{}</{to}>{}",
        &xml[..at],
        &xml[at + open.len()..end],
        &xml[end + close.len()..]
    )
}

/// Remove the `n`-th `<tag>…</tag>` element (0-based).
fn drop_nth(xml: &str, tag: &str, n: usize) -> String {
    let open = format!("<{tag}>");
    let (at, _) = xml.match_indices(&open).nth(n).unwrap();
    let close = format!("</{tag}>");
    let end = at + xml[at..].find(&close).unwrap() + close.len();
    format!("{}{}", &xml[..at], &xml[end..])
}

/// Replace the `n`-th occurrence of `from`.
fn edit_nth(xml: &str, from: &str, to: &str, n: usize) -> String {
    let (at, _) = xml.match_indices(from).nth(n).unwrap();
    format!("{}{to}{}", &xml[..at], &xml[at + from.len()..])
}

#[test]
fn single_violations_match_the_loader_exactly() {
    let flat = Family::Flat.generate(200, 7);
    let deep = Family::Deep.generate(200, 7);
    let mixed = Family::Mixed.generate(200, 7);
    let choice = Family::Choice.generate(200, 7);
    let ords = orders(6, 1);
    let ids = chapters(4, 0);
    let cases: Vec<(&str, &str, String, Rule)> = vec![
        // Rename an element.
        (
            "flat",
            Family::Flat.schema_text(),
            replace_nth(&flat, "Title", "Heading", 3),
            Rule::R5423GroupMatch,
        ),
        (
            "deep",
            Family::Deep.schema_text(),
            replace_nth(&deep, "heading", "title", 2),
            Rule::R5423GroupMatch,
        ),
        (
            "choice",
            Family::Choice.schema_text(),
            replace_nth(&choice, "one", "two", 1),
            Rule::R5423GroupMatch,
        ),
        ("orders", ORDERS_XSD, replace_nth(&ords, "customer", "client", 2), Rule::R5423GroupMatch),
        // Drop a required child.
        ("flat", Family::Flat.schema_text(), drop_nth(&flat, "ISBN", 4), Rule::R5423GroupMatch),
        (
            "flat",
            Family::Flat.schema_text(),
            drop_nth(&flat, "Publisher", 5),
            Rule::R5423GroupMatch,
        ),
        ("orders", ORDERS_XSD, drop_nth(&ords, "total", 0), Rule::R5423GroupMatch),
        ("choice", Family::Choice.schema_text(), drop_nth(&choice, "hi", 0), Rule::R5423GroupMatch),
        // A value outside the type's facets.
        (
            "flat",
            Family::Flat.schema_text(),
            edit_nth(&flat, "<Date>19", "<Date>x9", 2),
            Rule::R511SimpleValue,
        ),
        ("orders", ORDERS_XSD, edit_nth(&ords, "<qty>", "<qty>-", 1), Rule::R511SimpleValue),
        ("orders", ORDERS_XSD, edit_nth(&ords, "<sku>ABC", "<sku>abc", 3), Rule::R511SimpleValue),
        (
            "orders",
            ORDERS_XSD,
            edit_nth(&ords, "<customer>client 1<", "<customer>c1<", 0),
            Rule::R511SimpleValue,
        ),
        (
            "orders",
            ORDERS_XSD,
            edit_nth(&ords, r#"id="ORD-"#, r#"id="ORDER-"#, 2),
            Rule::R531Attributes,
        ),
        (
            "choice",
            Family::Choice.schema_text(),
            edit_nth(&choice, "<lo>", "<lo>-x", 0),
            Rule::R511SimpleValue,
        ),
        // An undeclared attribute.
        (
            "flat",
            Family::Flat.schema_text(),
            edit_nth(&flat, "<Book>", r#"<Book extra="1">"#, 1),
            Rule::R7NoOtherNodes,
        ),
        (
            "orders",
            ORDERS_XSD,
            edit_nth(&ords, "<item>", r#"<item n="2">"#, 2),
            Rule::R7NoOtherNodes,
        ),
        (
            "flat",
            Family::Flat.schema_text(),
            edit_nth(&flat, "<Title>", r#"<Title lang="en">"#, 0),
            Rule::R7NoOtherNodes,
        ),
        // xsi:nil on a non-nillable declaration.
        (
            "flat",
            Family::Flat.schema_text(),
            edit_nth(&flat, "<Title>", r#"<Title xsi:nil="true">"#, 2),
            Rule::R6Nil,
        ),
        (
            "orders",
            ORDERS_XSD,
            edit_nth(&ords, "<order ", r#"<order xsi:nil="1" "#, 1),
            Rule::R6Nil,
        ),
        // Content in a nilled element.
        (
            "orders",
            ORDERS_XSD,
            edit_nth(
                &ords,
                r#"<status xsi:nil="true"/>"#,
                r#"<status xsi:nil="true">new</status>"#,
                0,
            ),
            Rule::R6Nil,
        ),
        // Text in element-only content.
        (
            "flat",
            Family::Flat.schema_text(),
            edit_nth(&flat, "<Book>", "<Book>stray", 3),
            Rule::R5421NoText,
        ),
        (
            "deep",
            Family::Deep.schema_text(),
            edit_nth(&deep, "</heading>", "</heading>words", 1),
            Rule::R5421NoText,
        ),
        (
            "orders",
            ORDERS_XSD,
            edit_nth(&ords, "</item>", "</item><!-- c -->x", 0),
            Rule::R5421NoText,
        ),
        // An element inside simple content.
        (
            "mixed",
            Family::Mixed.schema_text(),
            edit_nth(&mixed, "<b>", "<b><i/>", 2),
            Rule::R511SimpleValue,
        ),
        // A duplicate ID and a dangling IDREF.
        ("ids", IDS_XSD, edit_nth(&ids, "<key>k0</key>", "<key>c3</key>", 0), Rule::IdUnique),
        ("ids", IDS_XSD, edit_nth(&ids, "<see>c1</see>", "<see>c9</see>", 0), Rule::IdRefTarget),
        ("ids", IDS_XSD, edit_nth(&ids, "<also>c0 ", "<also>c7 ", 1), Rule::IdRefTarget),
        ("ids", IDS_XSD, edit_nth(&ids, "<key>k2</key>", "<key>c0</key>", 0), Rule::IdUnique),
    ];
    for (family, xsd, xml, rule) in cases {
        let schema = parse_schema_text(xsd).unwrap();
        let want = oracle(&schema, &xml).unwrap();
        assert_eq!(want.len(), 1, "{family}: the mutation must break one rule: {want:?}");
        assert_eq!(want[0].rule, rule, "{family}: {want:?}");
        assert_eq!(core(&schema, &xml).unwrap(), want, "{family}: {xml}");
        // The database's paths give the same error.
        let mut db = database(family, xsd);
        assert_eq!(db.validate(family, &xml).unwrap(), want, "{family}: VALIDATE");
        match db.insert("d", family, &xml) {
            Err(DbError::Invalid(errors)) => assert_eq!(errors, want, "{family}: PUT_DOC"),
            other => panic!("{family}: PUT_DOC gave {other:?}"),
        }
        assert!(db.is_empty());
    }
}

/// A xorshift step: the edits below repeat exactly.
fn next(state: &mut u64) -> usize {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state as usize
}

#[test]
fn random_edits_give_the_loaders_errors() {
    const EDITS: [&str; 9] = [
        "x",
        " ",
        "<!--c-->",
        "<![CDATA[ ]]>",
        "<b/>",
        "&amp;",
        r#" xsi:nil="true""#,
        r#" id="c0""#,
        "</",
    ];
    let mut state = 0x9e37_79b9_7f4a_7c15;
    let mut compared = 0;
    for (family, xsd, generate) in corpora() {
        let schema = parse_schema_text(xsd).unwrap();
        for seed in 0..25 {
            let xml = generate(60, seed);
            for _ in 0..40 {
                let mut edited = xml.clone();
                for _ in 0..1 + next(&mut state) % 2 {
                    let at = next(&mut state) % edited.len();
                    match next(&mut state) % (EDITS.len() + 2) {
                        // Delete a short range, or copy a tag elsewhere.
                        k if k == EDITS.len() => {
                            let end = (at + next(&mut state) % 12).min(edited.len());
                            edited.replace_range(at..end, "");
                        }
                        k if k > EDITS.len() => {
                            let from = next(&mut state) % edited.len();
                            if let Some(open) = edited[from..].find('<').map(|o| from + o) {
                                let close = open + edited[open..].find('>').unwrap();
                                let tag = edited[open..=close].to_string();
                                edited.insert_str(at, &tag);
                            }
                        }
                        k => edited.insert_str(at, EDITS[k]),
                    }
                }
                let want = oracle(&schema, &edited);
                assert_eq!(core(&schema, &edited), want, "{family}: {edited}");
                compared += usize::from(want.is_ok());
            }
        }
    }
    // Most edits keep the text well-formed, so the validators are compared.
    assert!(compared > 1_000, "only {compared} well-formed edits");
}

#[test]
fn identity_errors_match_check_identity_in_number_and_order() {
    let schema = parse_schema_text(IDS_XSD).unwrap();
    let base = chapters(6, 0);
    let several = edit_nth(
        &edit_nth(
            &edit_nth(&base, r#"id="c3""#, r#"id="c1""#, 0),
            "<see>c2</see>",
            "<see>x</see>",
            0,
        ),
        "<key>k4</key>",
        "<key>c1</key>",
        0,
    );
    for xml in [base.clone(), several] {
        assert_eq!(core(&schema, &xml), oracle(&schema, &xml), "{xml}");
    }
    let errors = core(&schema, &edit_nth(&base, r#"id="c3""#, r#"id="c1""#, 0)).unwrap();
    assert_eq!(errors[0].path, "/report[1]/chapter[4]/@id");
}

#[test]
fn malformed_and_over_limit_input_is_the_parsers_error() {
    let schema_text = Family::Flat.schema_text();
    let valid = Family::Flat.generate(60, 3);
    let limits = [
        ParseLimits::default(),
        ParseLimits::default().with_max_depth(2),
        ParseLimits::default().with_max_input_bytes(100),
        ParseLimits::default().with_max_attributes(1),
    ];
    let texts = [
        "<BookStore><Book></BookStore>".to_string(),
        "<BookStore>".to_string(),
        String::new(),
        "<BookStore/><BookStore/>".to_string(),
        "<BookStore>&bogus;</BookStore>".to_string(),
        // A violation before the parse error: the parse error wins.
        "<BookStore>stray<Book></BookStore>".to_string(),
        valid.clone(),
        valid.replacen("<Book>", r#"<Book a="1" b="2">"#, 1),
    ];
    for limits in limits {
        let mut db = Database::with_limits(limits.clone());
        db.register_schema_text("flat", schema_text).unwrap();
        for xml in &texts {
            let want = Document::parse_with_limits(xml, &limits).err().map(|e| e.to_string());
            let Some(want) = want else { continue };
            let before = global().snapshot().counter(CounterId::ParseErrors);
            match db.validate("flat", xml) {
                Err(DbError::Xml(e)) => assert_eq!(e.to_string(), want, "{xml}"),
                other => panic!("VALIDATE {xml:?} under {limits:?} gave {other:?}"),
            }
            match db.insert("d", "flat", xml) {
                Err(DbError::Xml(e)) => assert_eq!(e.to_string(), want, "{xml}"),
                other => panic!("PUT_DOC {xml:?} under {limits:?} gave {other:?}"),
            }
            // Other tests parse concurrently; this one counted twice.
            let after = global().snapshot().counter(CounterId::ParseErrors);
            assert!(after >= before + 2, "{xml:?}: parse errors {before} → {after}");
            assert!(db.is_empty());
        }
    }
}

/// The committed files of a storage's paged encoding, in a fresh
/// directory.
fn pages(xs: &XmlStorage, dir: &Path) -> Vec<Vec<u8>> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let (data, map) = (dir.join("doc.pages"), dir.join("doc.map"));
    let mut store = PageStore::new();
    save_full(xs, &StdVfs, &mut store, &data).unwrap();
    store.commit(&StdVfs, &map).unwrap();
    let files = vec![std::fs::read(&data).unwrap(), std::fs::read(&map).unwrap()];
    let _ = std::fs::remove_dir_all(dir);
    files
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xsdb-streaming-{tag}-{}", std::process::id()))
}

#[test]
fn streamed_pages_are_byte_identical_to_from_tree() {
    for (family, xsd, generate) in corpora() {
        let schema = parse_schema_text(xsd).unwrap();
        for (size, seed) in [(12, 1), (300, 2), (2_000, 3)] {
            let xml = generate(size, seed);
            let mut db = database(family, xsd);
            db.insert("d", family, &xml).unwrap();
            let loaded = load_document(&schema, &Document::parse(&xml).unwrap()).unwrap();
            let oracle = XmlStorage::from_tree(&loaded.store, loaded.doc);
            let streamed = &db.document("d").unwrap().storage;
            assert_eq!(streamed.check_invariants(), None);
            assert_eq!(
                pages(streamed, &scratch("core")),
                pages(&oracle, &scratch("oracle")),
                "{family} size {size}: paged encodings differ"
            );
        }
    }
}

#[test]
fn the_storage_walk_agrees_with_the_parsed_text_on_every_stored_document() {
    for (family, xsd, generate) in corpora() {
        let schema = parse_schema_text(xsd).unwrap();
        let mut db = database(family, xsd);
        for seed in 0..8 {
            check_stored(&mut db, &schema, &format!("{family}{seed}"), &generate(150, seed));
        }
        let names: Vec<String> = db.document_names().map(str::to_string).collect();
        for name in names {
            let text = db.serialize(&name).unwrap();
            assert_eq!(db.revalidate(&name).unwrap(), core(&schema, &text).unwrap(), "{name}");
        }
    }
}

/// `choice(seq(A, B), seq(A, C))` with the two `A`s declared as `a1` and
/// `a2`: a model that breaks Unique Particle Attribution, so the name
/// `A` does not tell which particle a child `A` takes.
fn ambiguous_xsd(a1: &str, a2: &str) -> String {
    format!(
        r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="doc"><xs:complexType><xs:choice>
    <xs:sequence><xs:element name="A" type="{a1}"/><xs:element name="B" type="xs:string"/></xs:sequence>
    <xs:sequence><xs:element name="A" type="{a2}"/><xs:element name="C" type="xs:string"/></xs:sequence>
  </xs:choice></xs:complexType></xs:element>
</xs:schema>"#
    )
}

/// The core fixes a child's declaration when it reads the child, where
/// the loader once took the declarations of an accepting path. Element
/// Declarations Consistent makes the two the same: a model that gives a
/// name two types is refused when it is registered, and an ambiguous
/// model that gives it one type validates either branch on every path.
#[test]
fn ambiguous_models_are_validated_exactly_or_refused() {
    let mut db = Database::new();
    let err = db.register_schema_text("mixed", &ambiguous_xsd("xs:int", "xs:string")).unwrap_err();
    match err {
        DbError::SchemaNotWellFormed(issues) => {
            assert_eq!(issues.len(), 1, "{issues:?}");
            assert_eq!(issues[0].code(), "XSA007");
        }
        other => panic!("expected SchemaNotWellFormed, got {other:?}"),
    }
    assert!(db.schema_names().next().is_none());

    let xsd = ambiguous_xsd("xs:int", "xs:int");
    let schema = parse_schema_text(&xsd).unwrap();
    let mut db = database("amb", &xsd);
    for (i, xml) in ["<doc><A>1</A><B/></doc>", "<doc><A>2</A><C/></doc>"].iter().enumerate() {
        assert_eq!(oracle(&schema, xml), Ok(vec![]), "{xml}");
        assert_eq!(core(&schema, xml), Ok(vec![]), "{xml}");
        check_stored(&mut db, &schema, &format!("d{i}"), xml);
    }
    for xml in ["<doc><A>x</A><C/></doc>", "<doc><A>1</A><D/></doc>", "<doc><A>1</A></doc>"] {
        let want = oracle(&schema, xml).unwrap();
        assert_eq!(want.len(), 1, "{xml}: {want:?}");
        assert_eq!(core(&schema, xml).unwrap(), want, "{xml}");
        assert_eq!(db.validate("amb", xml).unwrap(), want, "{xml}");
    }
}
