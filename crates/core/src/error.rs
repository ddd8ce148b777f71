//! Database-level errors.

use std::fmt;
use std::path::PathBuf;

use algebra::ValidationError;
use xsmodel::SchemaIssue;

/// Anything that can go wrong at the [`crate::Database`] surface.
#[derive(Debug)]
#[non_exhaustive]
pub enum DbError {
    /// The XML text failed to parse.
    Xml(xmlparse::Error),
    /// The schema document failed to parse.
    Schema(xsmodel::XsdError),
    /// The schema parsed but is not well-formed (§2–3 requirements).
    SchemaNotWellFormed(Vec<SchemaIssue>),
    /// Strict analysis rejected the schema: at least one error-severity
    /// diagnostic (ambiguous, unsatisfiable, …). All diagnostics are
    /// carried, warnings included.
    SchemaRejected(Vec<xsanalyze::Diagnostic>),
    /// Strict analysis proved the query statically empty: some step can
    /// select nothing in any document valid against the schema.
    QueryStaticallyEmpty(Vec<xsanalyze::Diagnostic>),
    /// A schema name is already registered.
    DuplicateSchema(String),
    /// The schema cannot be removed while stored documents still
    /// validate against it.
    SchemaInUse {
        /// The schema that was asked to be removed.
        schema: String,
        /// Names of the documents still referencing it (sorted).
        documents: Vec<String>,
    },
    /// No schema registered under this name.
    UnknownSchema(String),
    /// A document name is already in the database.
    DuplicateDocument(String),
    /// No document stored under this name.
    UnknownDocument(String),
    /// The document failed §6.2 validation.
    Invalid(Vec<ValidationError>),
    /// Static update type-checking proved the update invalid: it was
    /// refused without touching the document. The diagnostics carry the
    /// `XSA5xx` findings; a content-model rejection includes the
    /// shortest witness word that reproduces the violation.
    UpdateStaticallyInvalid(Vec<xsanalyze::Diagnostic>),
    /// An XPath expression failed to parse.
    XPath(xpath::XPathError),
    /// An XQuery expression failed to parse or evaluate, or an update
    /// selected a target of the wrong kind (XUTY0005, XUTY0006 or
    /// XUTY0008; nothing was applied).
    XQuery(xquery::XQueryError),
    /// Filesystem failure during save/load, naming the path involved.
    Io {
        /// The file or directory the operation failed on.
        path: PathBuf,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// A persisted file's bytes do not hash to the checksum recorded
    /// for it (torn write, bit rot, or tampering).
    Checksum {
        /// The file that failed verification.
        path: PathBuf,
        /// The recorded (expected) SHA-256, lowercase hex.
        expected: String,
        /// The SHA-256 the bytes actually hash to.
        actual: String,
    },
    /// A persisted database directory is structurally broken.
    Corrupt(String),
    /// A checkpoint was asked of a volatile [`crate::SharedDatabase`]:
    /// it was opened on no directory, so there is nowhere to save.
    Volatile,
    /// Preparing a mutation or validating a document panicked. The
    /// panic was caught before it could unwind the caller's thread or
    /// poison a lock, nothing was installed or logged, and it was counted
    /// under `db.panics_caught_total`. The text names the step and the
    /// panic's message.
    Panicked(String),
}

impl DbError {
    /// Build an [`DbError::Io`] from a path and an `std::io::Error`.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        DbError::Io { path: path.into(), source }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Xml(e) => e.fmt(f),
            DbError::Schema(e) => e.fmt(f),
            DbError::SchemaNotWellFormed(issues) => {
                write!(f, "schema is not well-formed: ")?;
                for (i, issue) in issues.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    issue.fmt(f)?;
                }
                Ok(())
            }
            DbError::SchemaRejected(diags) => {
                let errors =
                    diags.iter().filter(|d| d.severity == xsanalyze::Severity::Error).count();
                write!(f, "strict analysis rejected the schema ({errors} errors): ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    d.fmt(f)?;
                }
                Ok(())
            }
            DbError::QueryStaticallyEmpty(diags) => {
                write!(f, "query is statically empty against the schema: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    d.fmt(f)?;
                }
                Ok(())
            }
            DbError::DuplicateSchema(n) => write!(f, "schema {n:?} is already registered"),
            DbError::SchemaInUse { schema, documents } => {
                write!(
                    f,
                    "schema {schema:?} is still referenced by {} document(s): ",
                    documents.len()
                )?;
                for (i, d) in documents.iter().take(5).enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{d:?}")?;
                }
                if documents.len() > 5 {
                    write!(f, ", …")?;
                }
                Ok(())
            }
            DbError::UnknownSchema(n) => write!(f, "no schema named {n:?}"),
            DbError::DuplicateDocument(n) => write!(f, "document {n:?} already exists"),
            DbError::UnknownDocument(n) => write!(f, "no document named {n:?}"),
            DbError::Invalid(errs) => {
                write!(f, "document is not schema-valid ({} violations): ", errs.len())?;
                if let Some(first) = errs.first() {
                    first.fmt(f)?;
                }
                Ok(())
            }
            DbError::UpdateStaticallyInvalid(diags) => {
                write!(f, "update is statically invalid: ")?;
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    d.fmt(f)?;
                }
                Ok(())
            }
            DbError::XPath(e) => e.fmt(f),
            DbError::XQuery(e) => e.fmt(f),
            DbError::Io { path, source } => {
                write!(f, "i/o error at {}: {source}", path.display())
            }
            DbError::Checksum { path, expected, actual } => write!(
                f,
                "checksum mismatch for {}: manifest records {expected}, file hashes to {actual}",
                path.display()
            ),
            DbError::Corrupt(what) => write!(f, "corrupt database directory: {what}"),
            DbError::Volatile => {
                f.write_str("the database was opened without a directory to save into")
            }
            DbError::Panicked(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Run `f`, a step that must not take its caller down: a panic inside it
/// becomes [`DbError::Panicked`] naming `step`, counted under
/// `db.panics_caught_total` in `obs`. Guard only a step that leaves
/// nothing half-changed when it unwinds. The database guards steps that
/// read shared state and build private values; the one lock they take,
/// the content-model cache's, guards a map of complete entries and
/// ignores poisoning. The server guards each request the same way.
pub fn catch_panic<T>(
    obs: &xsobs::Registry,
    step: &str,
    f: impl FnOnce() -> Result<T, DbError>,
) -> Result<T, DbError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        obs.incr(xsobs::CounterId::PanicsCaught);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a non-text payload".to_string());
        Err(DbError::Panicked(format!("{step} panicked: {message}")))
    })
}

impl From<xmlparse::Error> for DbError {
    fn from(e: xmlparse::Error) -> Self {
        DbError::Xml(e)
    }
}

impl From<xsmodel::XsdError> for DbError {
    fn from(e: xsmodel::XsdError) -> Self {
        DbError::Schema(e)
    }
}

impl From<xpath::XPathError> for DbError {
    fn from(e: xpath::XPathError) -> Self {
        DbError::XPath(e)
    }
}

impl From<xquery::XQueryError> for DbError {
    fn from(e: xquery::XQueryError) -> Self {
        DbError::XQuery(e)
    }
}

impl From<storage::StorageError> for DbError {
    fn from(e: storage::StorageError) -> Self {
        match e {
            storage::StorageError::Io { path, source } => DbError::Io { path, source },
            storage::StorageError::PageChecksum { path, expected, actual, .. } => {
                DbError::Checksum { path, expected, actual }
            }
            other => DbError::Corrupt(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caught_panics_are_typed_and_counted() {
        let obs = xsobs::Registry::new();
        let fine: Result<u8, DbError> = catch_panic(&obs, "step", || Ok(7));
        assert_eq!(fine.unwrap(), 7);
        let caught: Result<(), DbError> = catch_panic(&obs, "step", || panic!("boom {}", 1));
        match caught {
            Err(DbError::Panicked(what)) => assert_eq!(what, "step panicked: boom 1"),
            other => panic!("{other:?}"),
        }
        assert_eq!(obs.snapshot().counter(xsobs::CounterId::PanicsCaught), 1);
    }

    #[test]
    fn display_variants() {
        assert!(DbError::UnknownSchema("s".into()).to_string().contains("\"s\""));
        assert!(DbError::DuplicateDocument("d".into()).to_string().contains("already"));
    }

    #[test]
    fn io_errors_name_the_file() {
        let e = DbError::io(
            "/some/dir/manifest.xml",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        let shown = e.to_string();
        assert!(shown.contains("/some/dir/manifest.xml"), "{shown}");
        assert!(shown.contains("gone"), "{shown}");
    }

    #[test]
    fn checksum_errors_name_file_and_both_digests() {
        let e = DbError::Checksum {
            path: "/db/documents/j.xml".into(),
            expected: "aa".repeat(32),
            actual: "bb".repeat(32),
        };
        let shown = e.to_string();
        assert!(shown.contains("/db/documents/j.xml"), "{shown}");
        assert!(shown.contains(&"aa".repeat(32)) && shown.contains(&"bb".repeat(32)), "{shown}");
    }
}
