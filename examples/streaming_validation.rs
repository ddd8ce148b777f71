//! The tree-free §6.2 core vs tree-building validation on a large
//! generated document: same verdicts, one pass, no DOM and no S-tree.
//! `VALIDATE` runs this core over the parser's events, and `PUT_DOC`
//! runs it with a sink that builds the block storage.
//!
//! Run with `cargo run --release --example streaming_validation`.

use std::time::Instant;

use xsdb::algebra::{validate_text, LoadOptions};
use xsdb::xmlparse::ParseLimits;
use xsdb::{load_document, parse_schema_text, Document};

const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Reading">
    <xs:sequence>
      <xs:element name="sensor" type="xs:NCName"/>
      <xs:element name="value" type="xs:decimal"/>
      <xs:element name="at" type="xs:dateTime"/>
    </xs:sequence>
  </xs:complexType>
  <xs:element name="telemetry">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="reading" type="Reading" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

fn generate(readings: usize) -> String {
    let mut out = String::from("<telemetry>");
    for i in 0..readings {
        out.push_str(&format!(
            "<reading><sensor>s{}</sensor><value>{}.{:02}</value>\
             <at>2026-07-{:02}T{:02}:{:02}:{:02}Z</at></reading>",
            i % 32,
            i % 500,
            i % 100,
            1 + i % 28,
            i % 24,
            i % 60,
            (i * 7) % 60,
        ));
    }
    out.push_str("</telemetry>");
    out
}

fn main() {
    let schema = parse_schema_text(SCHEMA).expect("schema parses");
    let (opts, limits) = (LoadOptions::default(), ParseLimits::default());

    for &readings in &[1_000usize, 10_000, 100_000] {
        let xml = generate(readings);
        println!("\n{readings} readings ({} KiB of XML)", xml.len() / 1024);

        let t = Instant::now();
        let streamed = validate_text(&schema, &xml, &opts, &limits, None).expect("well-formed");
        let stream_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(streamed.is_empty(), "{:?}", streamed.first());
        println!("  streaming (parse+validate, no tree): {stream_ms:8.2} ms");

        let t = Instant::now();
        let doc = Document::parse(&xml).expect("well-formed");
        let parse_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let loaded = load_document(&schema, &doc).expect("valid");
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        println!("  DOM parse:                           {parse_ms:8.2} ms");
        println!("  tree-building f (validate+annotate): {load_ms:8.2} ms");
        println!(
            "  S-tree: {} nodes; streaming speedup vs parse+f: {:.1}x",
            loaded.store.len(),
            (parse_ms + load_ms) / stream_ms
        );
    }

    // Both paths agree on invalid input: the same error, path and
    // message.
    let bad = generate(10).replace("<value>5.05</value>", "<value>not-a-number</value>");
    let streamed = validate_text(&schema, &bad, &opts, &limits, None).expect("well-formed");
    let treed = match load_document(&schema, &Document::parse(&bad).unwrap()) {
        Err(errs) => errs,
        Ok(_) => panic!("should be invalid"),
    };
    println!("\ninvalid document:");
    println!("  streaming: {}", streamed[0]);
    println!("  tree:      {}", treed[0]);
    assert_eq!(streamed, treed);
}
