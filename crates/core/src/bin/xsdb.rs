//! `xsdb` — command-line front door to the library.
//!
//! ```text
//! xsdb validate  <schema.xsd> <doc.xml>          # §6.2 validation, rule-cited errors
//! xsdb query     <schema.xsd> <doc.xml> <xpath>  # XPath string values
//! xsdb xquery    <schema.xsd> <doc.xml> <flwor>  # FLWOR, serialized result
//! xsdb roundtrip <schema.xsd> <doc.xml>          # check g(f(X)) =_c X (§8)
//! xsdb inspect   <schema.xsd> <doc.xml>          # tree + descriptive-schema stats (§9)
//! ```

use std::process::ExitCode;

use xsdb::cli::out_line;
use xsdb::{check_roundtrip, parse_schema_text, Database, DbError, Document, DocumentSchema};

/// The name the one document is stored under.
const DOC: &str = "doc";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: xsdb <validate|query|xquery|roundtrip|inspect> <schema.xsd> <doc.xml> [expr]"
        .to_string()
}

/// A database holding only `schema`, as `"schema"`.
fn with_schema(schema: DocumentSchema) -> Result<Database, String> {
    let mut db = Database::new();
    db.register_schema("schema", schema).map_err(|e| e.to_string())?;
    Ok(db)
}

/// A database holding the document text `xml`, validated against
/// `schema`, as [`DOC`].
fn stored(schema: DocumentSchema, xml: &str) -> Result<Database, String> {
    let mut db = with_schema(schema)?;
    match db.insert(DOC, "schema", xml) {
        Ok(()) => Ok(db),
        Err(DbError::Invalid(errors)) => Err(format!("document invalid: {}", errors[0])),
        Err(e) => Err(e.to_string()),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().ok_or_else(usage)?.as_str();
    let schema_path = args.get(1).ok_or_else(usage)?;
    let doc_path = args.get(2).ok_or_else(usage)?;
    let schema_text = std::fs::read_to_string(schema_path)
        .map_err(|e| format!("cannot read {schema_path}: {e}"))?;
    let doc_text =
        std::fs::read_to_string(doc_path).map_err(|e| format!("cannot read {doc_path}: {e}"))?;
    let schema = parse_schema_text(&schema_text).map_err(|e| e.to_string())?;
    let issues = xsdb::xsmodel::check(&schema);
    if !issues.is_empty() {
        let lines: Vec<String> = issues.iter().map(|i| format!("  {i}")).collect();
        return Err(format!("schema is not well-formed:\n{}", lines.join("\n")));
    }

    match command {
        "validate" => {
            let errors =
                with_schema(schema)?.validate("schema", &doc_text).map_err(|e| e.to_string())?;
            if errors.is_empty() {
                out_line(format_args!("valid"));
                return Ok(());
            }
            for e in &errors {
                eprintln!("{e}");
            }
            Err(format!("{} violation(s)", errors.len()))
        }
        "query" => {
            let expr = args.get(3).ok_or_else(usage)?;
            let db = stored(schema, &doc_text)?;
            for value in db.query(DOC, expr).map_err(|e| e.to_string())? {
                out_line(format_args!("{value}"));
            }
            Ok(())
        }
        "xquery" => {
            let expr = args.get(3).ok_or_else(usage)?;
            let db = stored(schema, &doc_text)?;
            out_line(format_args!("{}", db.xquery(DOC, expr).map_err(|e| e.to_string())?));
            Ok(())
        }
        "roundtrip" => {
            match check_roundtrip(&schema, &Document::parse(&doc_text).map_err(|e| e.to_string())?)
            {
                Ok(_) => {
                    out_line(format_args!("g(f(X)) =_c X holds"));
                    Ok(())
                }
                Err(e) => Err(format!("round trip failed: {e}")),
            }
        }
        "inspect" => {
            let db = stored(schema, &doc_text)?;
            let storage = &db.document(DOC).ok_or("document vanished")?.storage;
            out_line(format_args!("document nodes:        {}", storage.len()));
            out_line(format_args!("descriptive schema:    {} nodes", storage.schema().len()));
            out_line(format_args!(
                "compression ratio:     {:.0}x",
                storage.len() as f64 / storage.schema().len() as f64
            ));
            out_line(format_args!("storage blocks:        {}", storage.block_count()));
            let max_nid = storage
                .subtree(storage.root())
                .into_iter()
                .map(|p| storage.nid(p).byte_len())
                .max()
                .unwrap_or(0);
            out_line(format_args!("max label length:      {max_nid} bytes"));
            out_line(format_args!(
                "string value (64B):    {:.64}",
                storage.string_value(storage.root())
            ));
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}
