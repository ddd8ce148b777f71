//! A write-ahead log behind the [`Vfs`] trait.
//!
//! Mutations become durable the moment their log record is fsynced —
//! long before any page of the shadow-paged store ([`crate::paged`])
//! is rewritten. The log is the simplest structure that survives a
//! power cut: append-only segments of length-prefixed, SHA-256-framed
//! records. Everything else in this module follows from making that
//! survival *checkable*:
//!
//! * **Frame format.** `[u32 LE payload_len][u64 LE seq][32-byte
//!   SHA-256 of seq ‖ payload][payload]`. The checksum makes any
//!   complete frame self-validating — covering the sequence number so
//!   a flipped seq byte cannot silently re-order replay; the sequence
//!   number makes replay order checkable and lets recovery skip
//!   records whose effects are already durable in the paged store
//!   (the catalog records the *epoch* — the highest applied sequence —
//!   per document).
//! * **Torn-tail rule.** An *incomplete* frame at the very end of the
//!   newest segment is what a crash mid-append produces: it is
//!   silently dropped (the database recovers to the pre-record state —
//!   old-or-new, never half). An incomplete frame anywhere *else*, or
//!   a complete frame whose payload does not hash to its header, is
//!   [`StorageError::Corrupt`] — that is bit rot or tampering, not a
//!   crash, and must never be silently dropped.
//! * **Group commit.** [`Wal::append`] does not fsync;
//!   [`Wal::sync`] makes every appended record durable with one
//!   `sync_file`. Callers batch: under load many commits share a
//!   single fsync (the `wal.batch_records` histogram records how
//!   many).
//! * **Segments.** When the current segment passes `rotate_bytes` the
//!   log syncs it and starts `wal-<k+1>.log`. Segment indices only
//!   ever grow — even across [`Wal::truncate`] — so a crash that
//!   removes some-but-not-all segments still leaves files whose index
//!   order equals their sequence order.
//!
//! A checkpoint — applying the logged mutations into the paged layout
//! and truncating the log — needs the schema-aware upper layers, so
//! this module supplies only its storage half ([`Wal::truncate`]); the
//! core crate's `SharedDatabase::checkpoint` drives a `save_dir`
//! (which stamps the epoch into every paged catalog) and then calls
//! it.

use std::path::{Path, PathBuf};

use crate::checksum::sha256;
use crate::error::StorageError;
use crate::vfs::Vfs;

/// Bytes before the payload: `u32` length + `u64` sequence + SHA-256.
const FRAME_HEADER: usize = 4 + 8 + 32;

/// Default segment rotation threshold (1 MiB).
pub const DEFAULT_ROTATE_BYTES: u64 = 1 << 20;

/// One record recovered from the log by [`Wal::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's sequence number (strictly increasing, never 0).
    pub seq: u64,
    /// The application payload (an encoded mutation, to this crate
    /// just bytes).
    pub payload: Vec<u8>,
}

/// An open write-ahead log positioned for appending.
///
/// All durability decisions are the caller's: `append` only buffers in
/// the OS, `sync` is the commit point. The log itself never reads the
/// clock and never spawns threads — group commit policy lives in the
/// core crate.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    /// Index of the segment new appends go to.
    seg: u64,
    /// Bytes successfully appended to the current segment.
    seg_len: u64,
    /// Sequence number the next append will take (starts at 1).
    next_seq: u64,
    /// Records appended since the last successful [`Wal::sync`].
    pending: u64,
    rotate_bytes: u64,
    /// Set when a failed append could not be repaired: the tail of the
    /// current segment may be torn mid-file, so further appends would
    /// write unrecoverable garbage after it.
    poisoned: bool,
}

impl Wal {
    /// Open (creating if necessary) the log in `dir`, replaying every
    /// intact record. A torn tail on the newest segment is dropped; any
    /// other damage is a typed error. New appends always start a fresh
    /// segment, so recovery never writes after torn bytes.
    pub fn open(
        vfs: &dyn Vfs,
        dir: &Path,
        rotate_bytes: u64,
    ) -> Result<(Wal, Vec<WalRecord>), StorageError> {
        vfs.create_dir_all(dir).map_err(|e| StorageError::io(dir, e))?;
        let mut segments: Vec<(u64, PathBuf)> = vfs
            .read_dir(dir)
            .map_err(|e| StorageError::io(dir, e))?
            .into_iter()
            .filter_map(|p| Some((segment_index(&p)?, p)))
            .collect();
        segments.sort();

        let mut records = Vec::new();
        let mut last_seq = 0u64;
        for (pos, (index, path)) in segments.iter().enumerate() {
            let newest = pos + 1 == segments.len();
            let bytes = vfs.read(path).map_err(|e| StorageError::io(path, e))?;
            read_segment(path, *index, &bytes, newest, &mut last_seq, &mut records)?;
        }

        let seg = segments.last().map_or(0, |(index, _)| index + 1);
        let wal = Wal {
            dir: dir.to_path_buf(),
            seg,
            seg_len: 0,
            next_seq: last_seq + 1,
            pending: 0,
            rotate_bytes: rotate_bytes.max(1),
            poisoned: false,
        };
        Ok((wal, records))
    }

    /// The sequence number of the last appended (or replayed) record;
    /// 0 when the log has never held one.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Raise the next sequence number to at least `next` — used after
    /// recovery so sequences stay monotonic across checkpoints that
    /// truncated the records they were seeded from.
    pub fn reserve_seq(&mut self, next: u64) {
        self.next_seq = self.next_seq.max(next.max(1));
    }

    fn seg_path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("wal-{index}.log"))
    }

    /// Append one record, returning its sequence number. NOT yet
    /// durable — call [`Wal::sync`] (the rotation fsync inside this
    /// method only covers the *previous* segment). A failed append
    /// consumes nothing: the torn tail is repaired in place and the
    /// same sequence number is reused on retry.
    pub fn append(&mut self, vfs: &dyn Vfs, payload: &[u8]) -> Result<u64, StorageError> {
        if self.poisoned {
            return Err(StorageError::corrupt(
                "write-ahead log poisoned by an unrepaired torn append; reopen to recover",
            ));
        }
        if self.seg_len >= self.rotate_bytes {
            let old = self.seg_path(self.seg);
            vfs.sync_file(&old).map_err(|e| StorageError::io(&old, e))?;
            xsobs::global().incr(xsobs::CounterId::WalFsyncs);
            self.seg += 1;
            self.seg_len = 0;
        }

        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&frame_digest(seq, payload));
        frame.extend_from_slice(payload);

        let path = self.seg_path(self.seg);
        if let Err(e) = vfs.append(&path, &frame) {
            // The append may have torn: an unknown prefix of the frame
            // can be on disk. Rewrite the segment back to its known
            // good length so a retry (or a later record) never lands
            // after garbage.
            if !self.repair_tail(vfs) {
                self.poisoned = true;
            }
            return Err(StorageError::io(&path, e));
        }
        self.next_seq += 1;
        self.seg_len += frame.len() as u64;
        self.pending += 1;
        xsobs::global().incr(xsobs::CounterId::WalAppends);
        Ok(seq)
    }

    /// Truncate the current segment back to `seg_len` bytes after a
    /// failed append. Returns whether the segment is verifiably clean.
    fn repair_tail(&self, vfs: &dyn Vfs) -> bool {
        let path = self.seg_path(self.seg);
        if !vfs.exists(&path) {
            return self.seg_len == 0;
        }
        match vfs.file_len(&path) {
            Ok(len) if len == self.seg_len => true,
            Ok(_) => {
                let clean = vfs
                    .read(&path)
                    .and_then(|bytes| vfs.write(&path, &bytes[..self.seg_len as usize]));
                clean.is_ok()
            }
            Err(_) => false,
        }
    }

    /// Make every appended record durable (one fsync, however many
    /// records are pending) and return the durable high-water sequence.
    ///
    /// A failed fsync poisons the log: after it, the kernel may have
    /// silently dropped the dirty pages, so whether the tail is on disk
    /// is unknowable. Every later append errors until [`Wal::truncate`]
    /// (a checkpoint) or a reopen re-establishes a known-durable state
    /// — retrying a commit whose durability is unknown could otherwise
    /// diverge recovered history from acknowledged history.
    pub fn sync(&mut self, vfs: &dyn Vfs) -> Result<u64, StorageError> {
        if self.pending > 0 {
            let path = self.seg_path(self.seg);
            if let Err(e) = vfs.sync_file(&path) {
                self.poisoned = true;
                return Err(StorageError::io(&path, e));
            }
            let obs = xsobs::global();
            obs.incr(xsobs::CounterId::WalFsyncs);
            obs.observe_value(xsobs::HistogramId::WalBatchRecords, self.pending);
            self.pending = 0;
        }
        Ok(self.last_seq())
    }

    /// Drop every log segment — the storage half of a checkpoint,
    /// called only after the records' effects are durable in the paged
    /// store. Sequence numbers and segment indices keep growing, so a
    /// crash that removes only some segments leaves a log whose
    /// surviving records are all stale (skipped via their epochs) and
    /// still in order.
    pub fn truncate(&mut self, vfs: &dyn Vfs) -> Result<(), StorageError> {
        let mut segments: Vec<(u64, PathBuf)> = vfs
            .read_dir(&self.dir)
            .map_err(|e| StorageError::io(&self.dir, e))?
            .into_iter()
            .filter_map(|p| Some((segment_index(&p)?, p)))
            .collect();
        segments.sort();
        for (_, path) in &segments {
            vfs.remove_file(path).map_err(|e| StorageError::io(path, e))?;
        }
        vfs.sync_dir(&self.dir).map_err(|e| StorageError::io(&self.dir, e))?;
        self.seg += 1;
        self.seg_len = 0;
        self.pending = 0;
        self.poisoned = false;
        Ok(())
    }
}

/// The frame checksum: SHA-256 over the sequence number and payload,
/// so a flipped byte anywhere but the length prefix is detected
/// directly (a flipped length shifts the digest's input and is caught
/// the same way, or reads past the end — the torn-tail case).
fn frame_digest(seq: u64, payload: &[u8]) -> [u8; 32] {
    let mut input = Vec::with_capacity(8 + payload.len());
    input.extend_from_slice(&seq.to_le_bytes());
    input.extend_from_slice(payload);
    sha256(&input)
}

/// Parse `wal-<k>.log` file names.
fn segment_index(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// Decode every frame of one segment, appending to `records`.
fn read_segment(
    path: &Path,
    index: u64,
    bytes: &[u8],
    newest: bool,
    last_seq: &mut u64,
    records: &mut Vec<WalRecord>,
) -> Result<(), StorageError> {
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        let header = match rest.get(..FRAME_HEADER) {
            Some(h) => h,
            None if newest => return Ok(()), // torn tail: crash mid-append
            None => {
                return Err(StorageError::corrupt(format!(
                    "wal segment {index}: truncated frame header at offset {off} \
                     in a non-final segment ({})",
                    path.display()
                )))
            }
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let seq = u64::from_le_bytes([
            header[4], header[5], header[6], header[7], header[8], header[9], header[10],
            header[11],
        ]);
        let payload = match rest.get(FRAME_HEADER..FRAME_HEADER + len) {
            Some(p) => p,
            None if newest => return Ok(()), // torn tail: payload cut short
            None => {
                return Err(StorageError::corrupt(format!(
                    "wal segment {index}: frame at offset {off} declares {len} payload bytes \
                     past the end of a non-final segment ({})",
                    path.display()
                )))
            }
        };
        if frame_digest(seq, payload) != header[12..44] {
            return Err(StorageError::corrupt(format!(
                "wal segment {index}: record seq {seq} at offset {off} fails its checksum ({})",
                path.display()
            )));
        }
        if seq <= *last_seq {
            return Err(StorageError::corrupt(format!(
                "wal segment {index}: record seq {seq} at offset {off} does not advance \
                 past {} ({})",
                *last_seq,
                path.display()
            )));
        }
        *last_seq = seq;
        records.push(WalRecord { seq, payload: payload.to_vec() });
        off += FRAME_HEADER + len;
    }
    Ok(())
}

/// Convenience for tests and recovery probes: replay without keeping
/// the log open.
pub fn replay(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<WalRecord>, StorageError> {
    if !vfs.exists(dir) {
        return Ok(Vec::new());
    }
    Wal::open(vfs, dir, DEFAULT_ROTATE_BYTES).map(|(_, records)| records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultyVfs, StdVfs};
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xsdb-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payloads(records: &[WalRecord]) -> Vec<&[u8]> {
        records.iter().map(|r| r.payload.as_slice()).collect()
    }

    #[test]
    fn append_sync_reopen_round_trips() {
        let dir = temp_dir("roundtrip");
        let vfs = StdVfs;
        let (mut wal, replayed) = Wal::open(&vfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(wal.last_seq(), 0);
        assert_eq!(wal.append(&vfs, b"alpha").unwrap(), 1);
        assert_eq!(wal.append(&vfs, b"beta").unwrap(), 2);
        assert_eq!(wal.sync(&vfs).unwrap(), 2);
        assert_eq!(wal.append(&vfs, b"").unwrap(), 3, "empty payloads are legal");
        wal.sync(&vfs).unwrap();

        let (wal2, replayed) = Wal::open(&vfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(payloads(&replayed), [b"alpha".as_slice(), b"beta", b""]);
        assert_eq!(replayed.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(wal2.last_seq(), 3, "sequences continue across reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = temp_dir("rotate");
        let vfs = StdVfs;
        // Tiny rotation threshold: every record starts a new segment.
        let (mut wal, _) = Wal::open(&vfs, &dir, 8).unwrap();
        for i in 0..5u8 {
            wal.append(&vfs, &[b'a' + i; 16]).unwrap();
        }
        wal.sync(&vfs).unwrap();
        let segs = fs::read_dir(&dir).unwrap().count();
        assert!(segs >= 4, "expected several segments, got {segs}");
        let (_, replayed) = Wal::open(&vfs, &dir, 8).unwrap();
        assert_eq!(replayed.len(), 5);
        assert_eq!(replayed[4].payload, vec![b'e'; 16]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_on_newest_segment_is_dropped() {
        let dir = temp_dir("torn");
        let vfs = StdVfs;
        let (mut wal, _) = Wal::open(&vfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        wal.append(&vfs, b"kept").unwrap();
        wal.sync(&vfs).unwrap();
        // Simulate a crash mid-append: half a frame lands at the tail.
        let seg = dir.join("wal-0.log");
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0x17; 20]); // shorter than a header
        fs::write(&seg, &bytes).unwrap();

        let (_, replayed) = Wal::open(&vfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(payloads(&replayed), [b"kept".as_slice()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_frame_in_an_older_segment_is_typed_corruption() {
        let dir = temp_dir("torn-mid");
        let vfs = StdVfs;
        let (mut wal, _) = Wal::open(&vfs, &dir, 8).unwrap();
        wal.append(&vfs, &[1u8; 16]).unwrap();
        wal.append(&vfs, &[2u8; 16]).unwrap(); // rotates: two segments
        wal.sync(&vfs).unwrap();
        let first = dir.join("wal-0.log");
        let bytes = fs::read(&first).unwrap();
        fs::write(&first, &bytes[..bytes.len() - 3]).unwrap();
        let err = Wal::open(&vfs, &dir, 8).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_byte_is_a_typed_error_or_a_prefix_state() {
        let dir = temp_dir("flip");
        let vfs = StdVfs;
        let (mut wal, _) = Wal::open(&vfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        wal.append(&vfs, b"first record").unwrap();
        wal.append(&vfs, b"second record").unwrap();
        wal.sync(&vfs).unwrap();
        let seg = dir.join("wal-0.log");
        let clean = fs::read(&seg).unwrap();
        let full: Vec<Vec<u8>> =
            replay(&vfs, &dir).unwrap().into_iter().map(|r| r.payload).collect();
        assert_eq!(full.len(), 2);
        for i in 0..clean.len() {
            let mut bent = clean.clone();
            bent[i] ^= 0x40;
            fs::write(&seg, &bent).unwrap();
            match replay(&vfs, &dir) {
                Err(StorageError::Corrupt(_)) => {}
                Err(other) => panic!("flip at {i}: unexpected error {other}"),
                Ok(records) => {
                    // A flip in the final frame's length field is
                    // indistinguishable from a torn tail — recovery
                    // must then be exactly a prefix of the real log.
                    let got: Vec<Vec<u8>> = records.into_iter().map(|r| r.payload).collect();
                    assert!(
                        got == full[..got.len()],
                        "flip at {i}: recovered a non-prefix state {got:?}"
                    );
                    assert!(got.len() < full.len(), "flip at {i} went unnoticed");
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_clears_records_and_keeps_sequences_growing() {
        let dir = temp_dir("truncate");
        let vfs = StdVfs;
        let (mut wal, _) = Wal::open(&vfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        wal.append(&vfs, b"a").unwrap();
        wal.append(&vfs, b"b").unwrap();
        wal.sync(&vfs).unwrap();
        wal.truncate(&vfs).unwrap();
        assert_eq!(wal.last_seq(), 2, "truncation forgets bytes, not sequences");
        assert_eq!(wal.append(&vfs, b"c").unwrap(), 3);
        wal.sync(&vfs).unwrap();
        let (_, replayed) = Wal::open(&vfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(payloads(&replayed), [b"c".as_slice()]);
        assert_eq!(replayed[0].seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reserve_seq_never_goes_backwards() {
        let dir = temp_dir("reserve");
        let vfs = StdVfs;
        let (mut wal, _) = Wal::open(&vfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        wal.reserve_seq(10);
        assert_eq!(wal.append(&vfs, b"x").unwrap(), 10);
        wal.reserve_seq(4); // lower reservations are ignored
        assert_eq!(wal.append(&vfs, b"y").unwrap(), 11);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_append_consumes_nothing_and_retries_cleanly() {
        let dir = temp_dir("retry");
        StdVfs.create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&StdVfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        wal.append(&StdVfs, b"good").unwrap();
        // Fault the very next vfs operation: the append errors without
        // tearing (Error mode writes nothing).
        let faulty = FaultyVfs::error_at(0);
        assert!(wal.append(&faulty, b"lost").is_err());
        assert_eq!(wal.last_seq(), 1, "failed append did not consume a sequence");
        assert_eq!(wal.append(&StdVfs, b"retried").unwrap(), 2);
        wal.sync(&StdVfs).unwrap();
        let (_, replayed) = Wal::open(&StdVfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(payloads(&replayed), [b"good".as_slice(), b"retried"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_torn_append_recovers_to_the_old_state() {
        let dir = temp_dir("crash-append");
        StdVfs.create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&StdVfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        wal.append(&StdVfs, b"durable").unwrap();
        wal.sync(&StdVfs).unwrap();
        let crash = FaultyVfs::crash_at(0);
        assert!(wal.append(&crash, b"torn-away-record").is_err());
        // Process "died"; a fresh open on the real fs sees only the
        // durable record — the torn half-frame is dropped.
        let (_, replayed) = Wal::open(&StdVfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        assert_eq!(payloads(&replayed), [b"durable".as_slice()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_is_reported_not_swallowed() {
        let dir = temp_dir("fsync-fail");
        StdVfs.create_dir_all(&dir).unwrap();
        let (mut wal, _) = Wal::open(&StdVfs, &dir, DEFAULT_ROTATE_BYTES).unwrap();
        let faulty = FaultyVfs::fsync_error_at(0);
        wal.append(&faulty, b"record").unwrap();
        assert!(wal.sync(&faulty).is_err(), "the injected fsync failure must surface");
        // The records are still pending; a later sync retries the fsync.
        assert_eq!(wal.sync(&StdVfs).unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_of_a_missing_directory_is_empty() {
        let dir = temp_dir("missing");
        assert!(replay(&StdVfs, &dir).unwrap().is_empty());
    }
}
