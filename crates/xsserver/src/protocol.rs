//! The xsserver wire protocol: versioned, length-prefixed frames.
//!
//! # Frame layout (version 1)
//!
//! Every message — request and response alike — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       1     protocol version (0x01)
//! 1       1     tag: opcode (request) or status code (response)
//! 2       4     payload length N, big-endian u32
//! 6       N     payload
//! ```
//!
//! The payload is a list of UTF-8 strings:
//!
//! ```text
//! 0       4     field count C, big-endian u32
//! …       4+len each field: big-endian u32 length, then the bytes
//! ```
//!
//! Requests carry an [`Opcode`] tag and the operation's arguments as
//! fields; responses carry a [`Status`] tag and either the result
//! fields (status `OK`) or a single human-readable error message.
//! Both sides enforce a hard cap on the declared payload length
//! *before* allocating — the server derives its cap from the
//! database's [`ParseLimits`](xsdb::xmlparse::ParseLimits) (see
//! [`max_payload_for`]), so a hostile frame cannot request more memory
//! than a hostile document could.
//!
//! Field counts are capped asymmetrically: no opcode takes more than a
//! handful of arguments, so the **server** additionally rejects
//! requests declaring more than [`MAX_REQUEST_FIELDS`] fields, while
//! **responses** are unbounded in field count (`QUERY` returns one
//! field per matched node, `LIST` one per catalog entry, `VALIDATE`
//! one per violation) and are limited only by the payload-size cap —
//! which also structurally bounds the count, since every field costs
//! at least four payload bytes.
//!
//! Status codes are a **stable** mapping of [`DbError`] variants
//! ([`Status::of`]): in particular a strict-analysis pre-flight
//! rejection is its own code ([`Status::QueryStaticallyEmpty`]), so
//! clients can distinguish "provably empty by the schema" from
//! "failed".

use std::io::{self, Read, Write};

use xsdb::DbError;

/// The wire protocol version this build speaks.
pub const WIRE_VERSION: u8 = 1;

/// Bytes in a frame header (version, tag, payload length).
pub const HEADER_LEN: usize = 6;

/// Maximum number of fields a *request* payload may declare. No opcode
/// takes more than a handful of arguments, so the server rejects
/// anything past this as malformed. Responses are **not** subject to
/// this cap — result sets (`QUERY` matches, `LIST` entries, `VALIDATE`
/// violations) are unbounded and limited only by the payload-size cap.
pub const MAX_REQUEST_FIELDS: u32 = 64;

/// Field-count cap that disables per-count rejection, for decoding
/// response frames: the count is still structurally bounded by the
/// payload length (≥ 4 bytes per field).
pub const NO_FIELD_CAP: u32 = u32::MAX;

/// The server's payload cap for a database running under `limits`:
/// the largest document the database would parse anyway, plus slack
/// for names and expressions.
pub fn max_payload_for(limits: &xsdb::xmlparse::ParseLimits) -> usize {
    limits.max_input_bytes.saturating_add(64 * 1024)
}

/// Request opcodes. The discriminants are the wire bytes and never
/// change; new opcodes are only ever appended. Bytes `0x09`–`0x0C` and
/// `0x10`–`0x12` belonged to the retired node-level update opcodes,
/// which [`Opcode::Update`] replaces: they are never reassigned and
/// answer `ERR_UNKNOWN_OPCODE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; responds `OK ["pong"]`.
    Ping = 0x01,
    /// `[name, xsd]` — register a schema (the §2–3 syntax front door).
    PutSchema = 0x02,
    /// `[name]` — remove a schema (refused while documents use it).
    DelSchema = 0x03,
    /// `[doc, schema, xml]` — validate + insert a document (`f`, §6.2).
    PutDoc = 0x04,
    /// `[doc]` — delete a stored document.
    DelDoc = 0x05,
    /// `[schema, xml]` — validate without storing; returns one field
    /// per violation (empty payload = valid).
    Validate = 0x06,
    /// `[doc, xpath]` — evaluate an XPath; returns the string values.
    Query = 0x07,
    /// `[doc, flwor]` — evaluate a FLWOR query; returns one field.
    Xquery = 0x08,
    /// `[]` — list the catalog; returns `schema:<name>` and
    /// `doc:<name>` fields.
    List = 0x0D,
    /// `[]` — the server's metrics snapshot as one JSON field.
    Stats = 0x0E,
    /// `[]` — persist the database to the server's `--dir` now.
    Save = 0x0F,
    /// `[doc, update_text]` — parse and run one XQuery-Update-lite
    /// expression under the static type-check; returns
    /// `[verdict, nodes, revalidated]`.
    Update = 0x13,
    /// `[doc, xpath]` — plan, execute, and explain an XPath: one field
    /// holding the chosen per-step strategies with estimated vs. actual
    /// cardinalities and work.
    Explain = 0x14,
}

impl Opcode {
    /// Every opcode, in wire-byte order.
    pub const ALL: [Opcode; 13] = [
        Opcode::Ping,
        Opcode::PutSchema,
        Opcode::DelSchema,
        Opcode::PutDoc,
        Opcode::DelDoc,
        Opcode::Validate,
        Opcode::Query,
        Opcode::Xquery,
        Opcode::List,
        Opcode::Stats,
        Opcode::Save,
        Opcode::Update,
        Opcode::Explain,
    ];

    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|op| *op as u8 == b)
    }

    /// The protocol-spec name (as documented and logged).
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "PING",
            Opcode::PutSchema => "PUT_SCHEMA",
            Opcode::DelSchema => "DEL_SCHEMA",
            Opcode::PutDoc => "PUT_DOC",
            Opcode::DelDoc => "DEL_DOC",
            Opcode::Validate => "VALIDATE",
            Opcode::Query => "QUERY",
            Opcode::Xquery => "XQUERY",
            Opcode::List => "LIST",
            Opcode::Stats => "STATS",
            Opcode::Save => "SAVE",
            Opcode::Update => "UPDATE",
            Opcode::Explain => "EXPLAIN",
        }
    }
}

/// Response status codes. The discriminants are the wire bytes and
/// never change. `1..=18` mirror [`DbError`] variants one-to-one
/// ([`Status::of`]); `30..` are protocol-level failures the database
/// never sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Status {
    /// Success; the payload is the result.
    Ok = 0,
    /// The XML text failed to parse.
    Xml = 1,
    /// The schema document failed to parse.
    SchemaParse = 2,
    /// The schema parsed but is not well-formed (§2–3).
    SchemaNotWellFormed = 3,
    /// Strict analysis rejected the schema at registration.
    SchemaRejected = 4,
    /// Strict analysis proved the query statically empty — distinct
    /// from every failure code, so clients can tell "empty by schema"
    /// from "failed".
    QueryStaticallyEmpty = 5,
    /// The schema name is already registered.
    DuplicateSchema = 6,
    /// No schema under this name.
    UnknownSchema = 7,
    /// The document name already exists.
    DuplicateDocument = 8,
    /// No document under this name.
    UnknownDocument = 9,
    /// The document failed §6.2 validation.
    Invalid = 10,
    /// The XPath expression failed to parse.
    XPath = 11,
    /// The XQuery expression failed to parse or evaluate, or an update
    /// selected a target of the wrong kind (XUTY0005/6/8).
    XQuery = 12,
    /// Filesystem failure during SAVE.
    Io = 13,
    /// A persisted file failed checksum verification.
    Checksum = 14,
    /// The persisted directory is structurally broken.
    Corrupt = 15,
    /// The schema is still referenced by stored documents.
    SchemaInUse = 16,
    /// A database error this protocol revision has no code for.
    Internal = 17,
    /// Static update type-checking proved the update invalid; it was
    /// refused before touching the document.
    UpdateStaticallyInvalid = 18,
    /// The frame was malformed (bad version, bad payload structure,
    /// wrong arity, non-UTF-8 field).
    BadFrame = 30,
    /// The opcode byte is not assigned.
    UnknownOpcode = 31,
    /// The declared payload exceeds the server's cap.
    FrameTooLarge = 32,
    /// The connection limit is reached; retry later.
    Busy = 33,
    /// The server is shutting down.
    ShuttingDown = 34,
    /// The operation is not available (e.g. SAVE with no `--dir`).
    Unsupported = 35,
}

impl Status {
    /// Every status, in wire-byte order.
    pub const ALL: [Status; 25] = [
        Status::Ok,
        Status::Xml,
        Status::SchemaParse,
        Status::SchemaNotWellFormed,
        Status::SchemaRejected,
        Status::QueryStaticallyEmpty,
        Status::DuplicateSchema,
        Status::UnknownSchema,
        Status::DuplicateDocument,
        Status::UnknownDocument,
        Status::Invalid,
        Status::XPath,
        Status::XQuery,
        Status::Io,
        Status::Checksum,
        Status::Corrupt,
        Status::SchemaInUse,
        Status::Internal,
        Status::UpdateStaticallyInvalid,
        Status::BadFrame,
        Status::UnknownOpcode,
        Status::FrameTooLarge,
        Status::Busy,
        Status::ShuttingDown,
        Status::Unsupported,
    ];

    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        Status::ALL.iter().copied().find(|s| *s as u8 == b)
    }

    /// True for [`Status::Ok`].
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }

    /// The stable wire-level name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::Xml => "ERR_XML",
            Status::SchemaParse => "ERR_SCHEMA_PARSE",
            Status::SchemaNotWellFormed => "ERR_SCHEMA_NOT_WELL_FORMED",
            Status::SchemaRejected => "ERR_SCHEMA_REJECTED",
            Status::QueryStaticallyEmpty => "ERR_QUERY_STATICALLY_EMPTY",
            Status::DuplicateSchema => "ERR_DUPLICATE_SCHEMA",
            Status::UnknownSchema => "ERR_UNKNOWN_SCHEMA",
            Status::DuplicateDocument => "ERR_DUPLICATE_DOCUMENT",
            Status::UnknownDocument => "ERR_UNKNOWN_DOCUMENT",
            Status::Invalid => "ERR_INVALID",
            Status::XPath => "ERR_XPATH",
            Status::XQuery => "ERR_XQUERY",
            Status::Io => "ERR_IO",
            Status::Checksum => "ERR_CHECKSUM",
            Status::Corrupt => "ERR_CORRUPT",
            Status::SchemaInUse => "ERR_SCHEMA_IN_USE",
            Status::Internal => "ERR_INTERNAL",
            Status::UpdateStaticallyInvalid => "ERR_UPDATE_STATICALLY_INVALID",
            Status::BadFrame => "ERR_BAD_FRAME",
            Status::UnknownOpcode => "ERR_UNKNOWN_OPCODE",
            Status::FrameTooLarge => "ERR_FRAME_TOO_LARGE",
            Status::Busy => "ERR_BUSY",
            Status::ShuttingDown => "ERR_SHUTTING_DOWN",
            Status::Unsupported => "ERR_UNSUPPORTED",
        }
    }

    /// The stable status for a database error. Every present-day
    /// [`DbError`] variant has its own code; variants added later map
    /// to [`Status::Internal`] until assigned one.
    pub fn of(e: &DbError) -> Status {
        match e {
            DbError::Xml(_) => Status::Xml,
            DbError::Schema(_) => Status::SchemaParse,
            DbError::SchemaNotWellFormed(_) => Status::SchemaNotWellFormed,
            DbError::SchemaRejected(_) => Status::SchemaRejected,
            DbError::QueryStaticallyEmpty(_) => Status::QueryStaticallyEmpty,
            DbError::DuplicateSchema(_) => Status::DuplicateSchema,
            DbError::SchemaInUse { .. } => Status::SchemaInUse,
            DbError::UnknownSchema(_) => Status::UnknownSchema,
            DbError::DuplicateDocument(_) => Status::DuplicateDocument,
            DbError::UnknownDocument(_) => Status::UnknownDocument,
            DbError::Invalid(_) => Status::Invalid,
            DbError::UpdateStaticallyInvalid(_) => Status::UpdateStaticallyInvalid,
            DbError::XPath(_) => Status::XPath,
            DbError::XQuery(_) => Status::XQuery,
            DbError::Io { .. } => Status::Io,
            DbError::Checksum { .. } => Status::Checksum,
            DbError::Corrupt(_) => Status::Corrupt,
            DbError::Volatile => Status::Unsupported,
            _ => Status::Internal,
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (includes mid-frame EOF).
    Io(io::Error),
    /// The peer closed the connection cleanly before any frame byte.
    Eof,
    /// The frame declares an unsupported protocol version.
    BadVersion(u8),
    /// The declared payload exceeds the reader's cap.
    TooLarge {
        /// Bytes the header declared.
        declared: usize,
        /// The reader's cap.
        max: usize,
    },
    /// The payload structure is inconsistent with its length, has too
    /// many fields, or a field is not UTF-8.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {WIRE_VERSION})")
            }
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame declares {declared} payload bytes, cap is {max}")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encode a field list into payload bytes.
pub fn encode_payload(fields: &[&str]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + fields.iter().map(|f| 4 + f.len()).sum::<usize>());
    out.extend_from_slice(&(fields.len() as u32).to_be_bytes());
    for f in fields {
        out.extend_from_slice(&(f.len() as u32).to_be_bytes());
        out.extend_from_slice(f.as_bytes());
    }
    out
}

/// Decode payload bytes into fields. `max_fields` is the decoder's
/// field-count cap: [`MAX_REQUEST_FIELDS`] when reading requests,
/// [`NO_FIELD_CAP`] when reading responses.
pub fn decode_payload(bytes: &[u8], max_fields: u32) -> Result<Vec<String>, FrameError> {
    let mut at = 0usize;
    let take4 = |at: &mut usize| -> Result<u32, FrameError> {
        let end = at.checked_add(4).ok_or(FrameError::Malformed("length overflow"))?;
        if end > bytes.len() {
            return Err(FrameError::Malformed("truncated length prefix"));
        }
        let v = u32::from_be_bytes([bytes[*at], bytes[*at + 1], bytes[*at + 2], bytes[*at + 3]]);
        *at = end;
        Ok(v)
    };
    let count = take4(&mut at)?;
    if count > max_fields {
        return Err(FrameError::Malformed("too many fields"));
    }
    // Every field costs at least its 4-byte length prefix, so a count
    // the payload cannot possibly hold is a lie — reject it before
    // sizing the Vec from an attacker-controlled number.
    if count as usize > bytes.len().saturating_sub(4) / 4 {
        return Err(FrameError::Malformed("field count exceeds payload"));
    }
    let mut fields = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = take4(&mut at)? as usize;
        let end = at.checked_add(len).ok_or(FrameError::Malformed("length overflow"))?;
        if end > bytes.len() {
            return Err(FrameError::Malformed("field length exceeds payload"));
        }
        let s = std::str::from_utf8(&bytes[at..end])
            .map_err(|_| FrameError::Malformed("field is not UTF-8"))?;
        fields.push(s.to_string());
        at = end;
    }
    if at != bytes.len() {
        return Err(FrameError::Malformed("trailing bytes after last field"));
    }
    Ok(fields)
}

/// One frame decoded from an in-memory byte stream by
/// [`try_decode_frame`].
#[derive(Debug)]
pub struct DecodedFrame {
    /// The tag byte (opcode or status).
    pub tag: u8,
    /// The decoded payload fields.
    pub fields: Vec<String>,
    /// Total bytes the frame occupied (header + payload) — what the
    /// caller must drain from its buffer.
    pub consumed: usize,
    /// Payload bytes (what the wire byte counters record).
    pub payload_len: usize,
}

/// Incrementally decode one frame from the front of `buf` — the shape
/// a nonblocking read loop needs: bytes accumulate in a buffer and are
/// parsed once a whole frame is present.
///
/// Returns `Ok(None)` when `buf` holds only a frame prefix (read more
/// and retry), `Ok(Some(frame))` when a whole frame was decoded (drain
/// `frame.consumed` bytes and retry for pipelined successors), and
/// `Err` when the prefix already proves the stream is bad — oversized
/// declaration, wrong version, malformed payload. Errors are stable
/// against rereads: the same buffer yields the same error.
pub fn try_decode_frame(
    buf: &[u8],
    max_payload: usize,
    max_fields: u32,
) -> Result<Option<DecodedFrame>, FrameError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf[0] != WIRE_VERSION {
        return Err(FrameError::BadVersion(buf[0]));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let tag = buf[1];
    let len = u32::from_be_bytes([buf[2], buf[3], buf[4], buf[5]]) as usize;
    if len > max_payload {
        return Err(FrameError::TooLarge { declared: len, max: max_payload });
    }
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    let fields = decode_payload(&buf[HEADER_LEN..total], max_fields)?;
    Ok(Some(DecodedFrame { tag, fields, consumed: total, payload_len: len }))
}

/// Encode one frame as `(header, payload)` — separate buffers so the
/// caller can hand both to one vectored write without concatenating.
/// Fails with [`io::ErrorKind::InvalidData`] when the payload exceeds
/// the format's `u32` length field.
pub fn encode_frame(tag: u8, fields: &[&str]) -> io::Result<([u8; HEADER_LEN], Vec<u8>)> {
    let payload = encode_payload(fields);
    if payload.len() > u32::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("payload of {} bytes exceeds the u32 frame length field", payload.len()),
        ));
    }
    let mut header = [0u8; HEADER_LEN];
    header[0] = WIRE_VERSION;
    header[1] = tag;
    header[2..6].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    Ok((header, payload))
}

/// Write one frame; returns the payload length in bytes (what the
/// byte counters record — headers excluded). Fails with
/// [`io::ErrorKind::InvalidData`] — before writing a single byte, so
/// framing stays intact — when the encoded payload exceeds the
/// format's `u32` length field.
pub fn write_frame(w: &mut impl Write, tag: u8, fields: &[&str]) -> io::Result<usize> {
    let (header, payload) = encode_frame(tag, fields)?;
    w.write_all(&header)?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(payload.len())
}

/// Read one whole frame: `(tag, fields, payload_len)`. Returns
/// [`FrameError::Eof`] only when the peer closed before the first
/// header byte. `max_fields` is the field-count cap
/// ([`MAX_REQUEST_FIELDS`] for requests, [`NO_FIELD_CAP`] for
/// responses).
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
    max_fields: u32,
) -> Result<(u8, Vec<String>, usize), FrameError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Err(FrameError::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    read_frame_continue(first[0], r, max_payload, max_fields)
}

/// Read the rest of a frame whose first header byte (the version) has
/// already been consumed — the shape the server's idle-aware read loop
/// needs.
pub fn read_frame_continue(
    version: u8,
    r: &mut impl Read,
    max_payload: usize,
    max_fields: u32,
) -> Result<(u8, Vec<String>, usize), FrameError> {
    if version != WIRE_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let mut rest = [0u8; HEADER_LEN - 1];
    r.read_exact(&mut rest)?;
    let tag = rest[0];
    let len = u32::from_be_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
    if len > max_payload {
        return Err(FrameError::TooLarge { declared: len, max: max_payload });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let fields = decode_payload(&payload, max_fields)?;
    Ok((tag, fields, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips() {
        for fields in [vec![], vec![""], vec!["a"], vec!["doc", "/a/b", "héllo\n\"x\""]] {
            let enc = encode_payload(&fields);
            let dec = decode_payload(&enc, MAX_REQUEST_FIELDS).unwrap();
            assert_eq!(dec, fields);
        }
    }

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, Opcode::Query as u8, &["doc", "/a"]).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + n);
        let (tag, fields, len) =
            read_frame(&mut buf.as_slice(), 1 << 20, MAX_REQUEST_FIELDS).unwrap();
        assert_eq!(tag, Opcode::Query as u8);
        assert_eq!(fields, ["doc", "/a"]);
        assert_eq!(len, n);
    }

    #[test]
    fn field_cap_applies_to_requests_but_not_responses() {
        // A response with far more fields than MAX_REQUEST_FIELDS —
        // the shape of a QUERY matching many nodes — must decode
        // cleanly under the response cap and be rejected under the
        // request cap.
        let many: Vec<String> = (0..MAX_REQUEST_FIELDS * 3).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = many.iter().map(String::as_str).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, Status::Ok as u8, &refs).unwrap();
        let (tag, fields, _) = read_frame(&mut buf.as_slice(), 1 << 20, NO_FIELD_CAP).unwrap();
        assert_eq!(tag, Status::Ok as u8);
        assert_eq!(fields, many);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1 << 20, MAX_REQUEST_FIELDS),
            Err(FrameError::Malformed("too many fields"))
        ));
    }

    #[test]
    fn lying_field_count_cannot_drive_allocation() {
        // Even with no field cap, a 4-byte payload declaring u32::MAX
        // fields is structurally impossible (each field needs ≥ 4
        // bytes) and must be rejected before the Vec is sized.
        let floods = u32::MAX.to_be_bytes().to_vec();
        assert!(matches!(
            decode_payload(&floods, NO_FIELD_CAP),
            Err(FrameError::Malformed("field count exceeds payload"))
        ));
    }

    #[test]
    fn oversized_declaration_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x01, &[]).unwrap();
        // Patch the length field to claim 4 GiB − 1.
        buf[2..6].copy_from_slice(&u32::MAX.to_be_bytes());
        match read_frame(&mut buf.as_slice(), 1024, MAX_REQUEST_FIELDS) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Field length exceeding the payload.
        let mut bad = encode_payload(&["abc"]);
        bad[4..8].copy_from_slice(&100u32.to_be_bytes());
        assert!(matches!(decode_payload(&bad, MAX_REQUEST_FIELDS), Err(FrameError::Malformed(_))));
        // Trailing garbage.
        let mut trailing = encode_payload(&["x"]);
        trailing.push(0);
        assert!(matches!(
            decode_payload(&trailing, MAX_REQUEST_FIELDS),
            Err(FrameError::Malformed(_))
        ));
        // Too many fields for a request.
        let floods = (MAX_REQUEST_FIELDS + 1).to_be_bytes().to_vec();
        assert!(matches!(
            decode_payload(&floods, MAX_REQUEST_FIELDS),
            Err(FrameError::Malformed(_))
        ));
        // Non-UTF-8 field.
        let mut nonutf = encode_payload(&[]);
        nonutf[0..4].copy_from_slice(&1u32.to_be_bytes());
        nonutf.extend_from_slice(&2u32.to_be_bytes());
        nonutf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            decode_payload(&nonutf, MAX_REQUEST_FIELDS),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn incremental_decode_matches_blocking_reads_at_every_prefix() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Opcode::Query as u8, &["doc", "/a/b"]).unwrap();
        // Every strict prefix is Incomplete (except the version byte,
        // which is valid), never an error.
        for cut in 0..buf.len() {
            match try_decode_frame(&buf[..cut], 1 << 20, MAX_REQUEST_FIELDS) {
                Ok(None) => {}
                other => panic!("prefix of {cut} bytes decoded to {other:?}"),
            }
        }
        let frame = try_decode_frame(&buf, 1 << 20, MAX_REQUEST_FIELDS).unwrap().unwrap();
        assert_eq!(frame.tag, Opcode::Query as u8);
        assert_eq!(frame.fields, ["doc", "/a/b"]);
        assert_eq!(frame.consumed, buf.len());
        assert_eq!(frame.payload_len, buf.len() - HEADER_LEN);
    }

    #[test]
    fn incremental_decode_leaves_pipelined_successors_in_place() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Opcode::Ping as u8, &[]).unwrap();
        let first_len = buf.len();
        write_frame(&mut buf, Opcode::List as u8, &[]).unwrap();
        let frame = try_decode_frame(&buf, 1 << 20, MAX_REQUEST_FIELDS).unwrap().unwrap();
        assert_eq!(frame.tag, Opcode::Ping as u8);
        assert_eq!(frame.consumed, first_len);
        let rest = &buf[frame.consumed..];
        let second = try_decode_frame(rest, 1 << 20, MAX_REQUEST_FIELDS).unwrap().unwrap();
        assert_eq!(second.tag, Opcode::List as u8);
        assert_eq!(second.consumed, rest.len());
    }

    #[test]
    fn incremental_decode_rejects_from_the_earliest_provable_byte() {
        // Bad version: provable from byte 0.
        assert!(matches!(
            try_decode_frame(&[9], 1024, MAX_REQUEST_FIELDS),
            Err(FrameError::BadVersion(9))
        ));
        // Oversized declaration: provable from the full header, before
        // any payload arrives.
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x01, &[]).unwrap();
        buf[2..6].copy_from_slice(&u32::MAX.to_be_bytes());
        match try_decode_frame(&buf[..HEADER_LEN], 1024, MAX_REQUEST_FIELDS) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Malformed payload: only provable once the whole frame is in.
        let mut lie = Vec::new();
        write_frame(&mut lie, Opcode::Ping as u8, &["abc"]).unwrap();
        lie[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&100u32.to_be_bytes());
        assert!(matches!(
            try_decode_frame(&lie, 1 << 20, MAX_REQUEST_FIELDS),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn encode_frame_agrees_with_write_frame() {
        let (header, payload) = encode_frame(Opcode::Query as u8, &["doc", "/a"]).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, Opcode::Query as u8, &["doc", "/a"]).unwrap();
        let mut joined = header.to_vec();
        joined.extend_from_slice(&payload);
        assert_eq!(joined, buf);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x01, &[]).unwrap();
        buf[0] = 9;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024, MAX_REQUEST_FIELDS),
            Err(FrameError::BadVersion(9))
        ));
    }

    #[test]
    fn opcode_and_status_bytes_are_stable() {
        // The wire bytes are a compatibility contract: a renumbering
        // must fail here, not in production.
        assert_eq!(Opcode::Ping as u8, 0x01);
        assert_eq!(Opcode::Save as u8, 0x0F);
        assert_eq!(Opcode::Update as u8, 0x13);
        assert_eq!(Opcode::Explain as u8, 0x14);
        assert_eq!(Status::Ok as u8, 0);
        assert_eq!(Status::QueryStaticallyEmpty as u8, 5);
        assert_eq!(Status::SchemaInUse as u8, 16);
        assert_eq!(Status::UpdateStaticallyInvalid as u8, 18);
        assert_eq!(Status::BadFrame as u8, 30);
        assert_eq!(Status::Unsupported as u8, 35);
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op as u8), Some(op));
        }
        for st in Status::ALL {
            assert_eq!(Status::from_u8(st as u8), Some(st));
        }
        assert_eq!(Opcode::from_u8(0x7f), None);
        // The retired node-level update bytes stay unassigned.
        for retired in (0x09..=0x0C).chain(0x10..=0x12) {
            assert_eq!(Opcode::from_u8(retired), None, "0x{retired:02x}");
        }
        assert_eq!(Status::from_u8(0x7f), None);
    }

    #[test]
    fn every_db_error_variant_has_a_distinct_status() {
        use xsdb::DbError;
        let samples: Vec<DbError> = vec![
            DbError::DuplicateSchema("s".into()),
            DbError::UnknownSchema("s".into()),
            DbError::DuplicateDocument("d".into()),
            DbError::UnknownDocument("d".into()),
            DbError::SchemaInUse { schema: "s".into(), documents: vec!["d".into()] },
            DbError::Corrupt("x".into()),
            DbError::io("/p", io::Error::new(io::ErrorKind::NotFound, "gone")),
            DbError::Checksum { path: "/p".into(), expected: "a".into(), actual: "b".into() },
            DbError::Invalid(Vec::new()),
            DbError::SchemaNotWellFormed(Vec::new()),
            DbError::SchemaRejected(Vec::new()),
            DbError::QueryStaticallyEmpty(Vec::new()),
            DbError::UpdateStaticallyInvalid(Vec::new()),
        ];
        let codes: Vec<u8> = samples.iter().map(|e| Status::of(e) as u8).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "statuses collide: {codes:?}");
        assert!(!codes.contains(&(Status::Internal as u8)));
    }
}
