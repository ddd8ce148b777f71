//! The loggable state transitions of the database — one enum variant
//! per §6.1 algebra operation that evolves the state.
//!
//! A [`Mutation`] is the unit the write-ahead log records. It runs in
//! two steps. [`Mutation::prepare`] is pure: it reads one database state
//! and computes the next one's difference — the checks, the one-pass
//! parse, `f` and storage build, an update's apply-on-copy — as a
//! [`Prepared`].
//! [`Database::commit`] installs that with one map insert or removal,
//! after checking that what the preparation read is still installed.
//! [`Mutation::apply`] is both steps on one state, and recovery
//! re-applies decoded payloads in log order through it. Preparing is
//! deterministic given the state it reads, so replaying a prefix of the
//! log over the matching on-disk state reproduces the exact in-memory
//! state the writer had — the property the crash matrix asserts.
//!
//! A mutation the database rejects (duplicate name, unknown name,
//! invalid document, a refused update) fails in `prepare`, so the
//! shared write path never logs it. Replay still skips a record that
//! fails deterministically rather than aborting: that makes replay
//! idempotent when a registry record's effect already reached the
//! on-disk state (a crash between a checkpoint's save and its log
//! truncation), and it keeps logs written by older binaries, which
//! logged rejected mutations too, replayable. A record that does not
//! decode — including one tagged with a retired node-level update (tags
//! 5–11) — is corruption, not a rejection: it stops recovery.

use crate::database::{Database, Prepared};
use crate::error::DbError;

/// One durable state transition, as written to the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Register a schema from XSD text.
    RegisterSchema {
        /// Registry name.
        name: String,
        /// The XSD source text.
        xsd: String,
    },
    /// Remove a registered schema.
    RemoveSchema {
        /// Registry name.
        name: String,
    },
    /// Insert a document, validating against a registered schema.
    Insert {
        /// Document name.
        doc: String,
        /// Schema to validate against.
        schema: String,
        /// The document text.
        xml: String,
    },
    /// Delete a stored document.
    Delete {
        /// Document name.
        doc: String,
    },
    /// Parse and run one XQuery-Update-lite expression (`insert node …
    /// into …`, `delete node …`, `replace value of node … with …`, …)
    /// under the static type-check.
    Update {
        /// Document name.
        doc: String,
        /// The update expression text.
        update: String,
    },
}

/// What applying a [`Mutation`] did, for reporting back to a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// A schema was registered.
    Registered,
    /// A schema was removed.
    Removed,
    /// A document was inserted.
    Inserted,
    /// A document was deleted. Deleting a document that is not stored
    /// is refused with [`DbError::UnknownDocument`] instead.
    Deleted,
    /// A statically type-checked update ran; the outcome carries the
    /// verdict it ran under and how much revalidation it cost.
    UpdatedChecked(crate::update::UpdateOutcome),
}

const TAG_REGISTER_SCHEMA: u8 = 1;
const TAG_REMOVE_SCHEMA: u8 = 2;
const TAG_INSERT: u8 = 3;
const TAG_DELETE: u8 = 4;
/// Tags 5–11 carried the retired node-level update mutations, which
/// [`Mutation::Update`] replaces. They are never reused, and a record
/// bearing one is refused: its semantics can no longer be replayed
/// faithfully.
const RETIRED_TAGS: std::ops::RangeInclusive<u8> = 5..=11;
const TAG_UPDATE: u8 = 12;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn corrupt() -> DbError {
        DbError::Corrupt("truncated or malformed mutation record".into())
    }

    fn u8(&mut self) -> Result<u8, DbError> {
        let b = *self.buf.get(self.pos).ok_or_else(Self::corrupt)?;
        self.pos += 1;
        Ok(b)
    }

    fn str(&mut self) -> Result<String, DbError> {
        let end = self.pos.checked_add(4).ok_or_else(Self::corrupt)?;
        let raw = self.buf.get(self.pos..end).ok_or_else(Self::corrupt)?;
        let len = u32::from_le_bytes(raw.try_into().map_err(|_| Self::corrupt())?) as usize;
        let data_end = end.checked_add(len).ok_or_else(Self::corrupt)?;
        let bytes = self.buf.get(end..data_end).ok_or_else(Self::corrupt)?;
        self.pos = data_end;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DbError::Corrupt("mutation record field is not UTF-8".into()))
    }

    fn finish(self) -> Result<(), DbError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DbError::Corrupt("trailing bytes after mutation record".into()))
        }
    }
}

impl Mutation {
    /// Serialize to the payload form the write-ahead log stores: a tag
    /// byte followed by `u32`-length-prefixed UTF-8 fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Mutation::RegisterSchema { name, xsd } => {
                out.push(TAG_REGISTER_SCHEMA);
                put_str(&mut out, name);
                put_str(&mut out, xsd);
            }
            Mutation::RemoveSchema { name } => {
                out.push(TAG_REMOVE_SCHEMA);
                put_str(&mut out, name);
            }
            Mutation::Insert { doc, schema, xml } => {
                out.push(TAG_INSERT);
                put_str(&mut out, doc);
                put_str(&mut out, schema);
                put_str(&mut out, xml);
            }
            Mutation::Delete { doc } => {
                out.push(TAG_DELETE);
                put_str(&mut out, doc);
            }
            Mutation::Update { doc, update } => {
                out.push(TAG_UPDATE);
                put_str(&mut out, doc);
                put_str(&mut out, update);
            }
        }
        out
    }

    /// Decode a payload written by [`Mutation::encode`]. Any deviation
    /// — unknown tag, truncated field, trailing bytes, non-UTF-8 — is a
    /// typed [`DbError::Corrupt`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<Mutation, DbError> {
        let mut c = Cursor { buf: payload, pos: 0 };
        let m = match c.u8()? {
            TAG_REGISTER_SCHEMA => Mutation::RegisterSchema { name: c.str()?, xsd: c.str()? },
            TAG_REMOVE_SCHEMA => Mutation::RemoveSchema { name: c.str()? },
            TAG_INSERT => Mutation::Insert { doc: c.str()?, schema: c.str()?, xml: c.str()? },
            TAG_DELETE => Mutation::Delete { doc: c.str()? },
            TAG_UPDATE => Mutation::Update { doc: c.str()?, update: c.str()? },
            tag if RETIRED_TAGS.contains(&tag) => {
                return Err(DbError::Corrupt(format!(
                    "mutation tag {tag} is a retired node-level update; it cannot be replayed"
                )));
            }
            tag => {
                return Err(DbError::Corrupt(format!("unknown mutation tag {tag}")));
            }
        };
        c.finish()?;
        Ok(m)
    }

    /// The document this mutation is scoped to, when its whole effect
    /// is confined to one stored document's content. Recovery uses this
    /// to skip records already reflected in that document's on-disk
    /// epoch; registry-shaped mutations (schema changes, insert,
    /// delete) return `None` and rely on deterministic rejection
    /// instead.
    pub fn doc_name(&self) -> Option<&str> {
        match self {
            Mutation::Update { doc, .. } => Some(doc),
            _ => None,
        }
    }

    /// Compute this mutation against `db` without changing it: every
    /// check, and for an insert the one-pass parse, `f` and storage build, for
    /// an update the static verdict and resolve → copy → edit → recheck.
    /// The dispatch the write path and the recovery path share, so a
    /// replayed record runs exactly the code the original call did.
    ///
    /// # Errors
    /// Whatever the mutation is refused with; nothing has changed.
    pub fn prepare(&self, db: &Database) -> Result<Prepared, DbError> {
        match self {
            Mutation::RegisterSchema { name, xsd } => {
                db.prepare_register_schema(name, xsmodel::parse_schema_text(xsd)?)
            }
            Mutation::RemoveSchema { name } => db.prepare_remove_schema(name),
            Mutation::Insert { doc, schema, xml } => db.prepare_insert(doc, schema, xml),
            Mutation::Delete { doc } => db.prepare_delete(doc),
            Mutation::Update { doc, update } => {
                Ok(db.prepare_update(doc, &xquery::parse_update(update)?)?.1)
            }
        }
    }

    /// Apply this mutation to a database: [`Mutation::prepare`] then
    /// [`Database::commit`] on the same state.
    pub fn apply(&self, db: &mut Database) -> Result<ApplyOutcome, DbError> {
        let prepared = self.prepare(db)?;
        db.commit_current(prepared)
    }
}

/// Whether a replayed record's failure is a deterministic rejection
/// (the mutation never took effect, first time and every time) rather
/// than an environmental failure worth surfacing.
pub(crate) fn is_deterministic_rejection(e: &DbError) -> bool {
    !matches!(e, DbError::Io { .. } | DbError::Checksum { .. } | DbError::Corrupt(_))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Mutation> {
        vec![
            Mutation::RegisterSchema { name: "s".into(), xsd: "<xs/>".into() },
            Mutation::RemoveSchema { name: "s".into() },
            Mutation::Insert { doc: "d".into(), schema: "s".into(), xml: "<r/>".into() },
            Mutation::Delete { doc: "d".into() },
            Mutation::Update { doc: "d".into(), update: "insert node <x>t</x> into /r".into() },
            Mutation::Update {
                doc: "☂ doc".into(),
                update: r#"replace value of node /r with "ü""#.into(),
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        for m in samples() {
            let encoded = m.encode();
            assert_eq!(Mutation::decode(&encoded).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn truncations_and_flips_are_typed_errors() {
        for m in samples() {
            let encoded = m.encode();
            for cut in 0..encoded.len() {
                // Every strict prefix must fail loudly or decode to a
                // different, complete value — never panic.
                let _ = Mutation::decode(&encoded[..cut]);
            }
            let mut trailing = encoded.clone();
            trailing.push(0);
            assert!(
                matches!(Mutation::decode(&trailing), Err(DbError::Corrupt(_))),
                "trailing byte accepted for {m:?}"
            );
        }
        assert!(matches!(Mutation::decode(&[99]), Err(DbError::Corrupt(_))));
        assert!(matches!(Mutation::decode(&[]), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn retired_tags_are_corruption_naming_the_tag() {
        // The payload shape of the old `UpdateDelete` record.
        let mut payload = vec![6];
        put_str(&mut payload, "d");
        put_str(&mut payload, "/r/x");
        for tag in RETIRED_TAGS {
            payload[0] = tag;
            match Mutation::decode(&payload) {
                Err(DbError::Corrupt(what)) => {
                    assert!(what.contains(&format!("tag {tag}")), "{what}");
                    assert!(what.contains("retired"), "{what}");
                }
                other => panic!("tag {tag} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn doc_scope_and_registry_classification() {
        let update = Mutation::Update { doc: "d".into(), update: "delete node /r/x".into() };
        assert_eq!(update.doc_name(), Some("d"));
        let insert = Mutation::Insert { doc: "d".into(), schema: "s".into(), xml: "<r/>".into() };
        assert_eq!(insert.doc_name(), None);
    }

    #[test]
    fn rejection_classification() {
        assert!(is_deterministic_rejection(&DbError::DuplicateDocument("d".into())));
        assert!(is_deterministic_rejection(&DbError::UnknownSchema("s".into())));
        // A statically rejected update never took effect; replay must
        // skip it rather than abort recovery.
        assert!(is_deterministic_rejection(&DbError::UpdateStaticallyInvalid(Vec::new())));
        assert!(!is_deterministic_rejection(&DbError::Corrupt("x".into())));
        assert!(!is_deterministic_rejection(&DbError::io("/p", std::io::Error::other("boom"))));
    }
}
