//! A small virtual filesystem behind the persistence layers.
//!
//! Neither the page store ([`crate::pages`]) nor the database
//! `save_dir`/`load_dir` paths in the core crate touch `std::fs`
//! directly — every operation goes through a [`Vfs`], so the
//! crash-matrix tests can substitute [`FaultyVfs`] and fail or "crash"
//! the save at any chosen syscall. [`StdVfs`] is the real
//! implementation; its `write` fsyncs the file before returning and
//! `sync_dir` fsyncs a directory, which is what makes the rename-commit
//! protocol durable rather than merely atomic.
//!
//! The positioned operations (`read_at` / `write_at` / `file_len`) are
//! what the paged layer is built on: a single-node update touches a
//! handful of page-sized `write_at` calls instead of rewriting whole
//! files. They have conservative whole-file default implementations so
//! a [`Vfs`] written before pages existed keeps working unchanged.

use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Filesystem operations needed by the persistence layers.
///
/// All operations are fallible; implementations must not panic. `write`
/// and `write_at` are required to be durable (data reaches the device
/// before they return), and `rename` is required to be atomic — the
/// properties the commit protocols are built on. A `Vfs` is shared by
/// the worker threads of a parallel recovery, so it is `Send + Sync`.
pub trait Vfs: std::fmt::Debug + Send + Sync {
    /// Create a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Create or replace a file with `data`, fsyncing it.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Read a file fully.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically rename `from` to `to` (replacing a file at `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Remove a directory tree.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// List the entries (full paths) of a directory.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Fsync a directory so renames/creations inside it are durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Whether a path exists (never errors; failures read as absent).
    fn exists(&self, path: &Path) -> bool;

    /// Write `data` at byte `offset`, creating the file if missing and
    /// extending it if the write reaches past the end; fsyncs. The
    /// default implementation splices into a whole-file rewrite.
    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut bytes = if self.exists(path) { self.read(path)? } else { Vec::new() };
        let offset = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "offset overflow"))?;
        let end = offset
            .checked_add(data.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "offset overflow"))?;
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[offset..end].copy_from_slice(data);
        self.write(path, &bytes)
    }

    /// Read exactly `len` bytes at byte `offset` (erring with
    /// `UnexpectedEof` when the file is shorter).
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let bytes = self.read(path)?;
        let offset = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "offset overflow"))?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past end of file"))?;
        Ok(bytes[offset..end].to_vec())
    }

    /// Current length of a file in bytes.
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(self.read(path)?.len() as u64)
    }

    /// Append `data` to the end of a file, creating it if missing,
    /// WITHOUT fsyncing — durability is deferred to [`Vfs::sync_file`]
    /// so a log can batch many appends under one fsync. The default
    /// implementation splices onto a whole-file durable rewrite, which
    /// keeps the `append` + no-op `sync_file` pair correct for a `Vfs`
    /// written before logs existed.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut bytes = if self.exists(path) { self.read(path)? } else { Vec::new() };
        bytes.extend_from_slice(data);
        self.write(path, &bytes)
    }

    /// Fsync a file's contents so prior [`Vfs::append`]s are durable.
    /// The default is a no-op, correct only because the default
    /// `append` is already durable.
    fn sync_file(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl Vfs for StdVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut file = fs::File::create(path)?;
        file.write_all(data)?;
        file.sync_all()?;
        xsobs::global().incr(xsobs::CounterId::PersistFsyncs);
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::remove_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> =
            fs::read_dir(path)?.map(|entry| entry.map(|e| e.path())).collect::<io::Result<_>>()?;
        out.sort();
        Ok(out)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it persists the
        // directory entries themselves (POSIX semantics; a no-op where
        // unsupported).
        fs::File::open(path)?.sync_all()?;
        xsobs::global().incr(xsobs::CounterId::PersistFsyncs);
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        // Positioned write into an existing (or growing) file — the
        // rest of the file must survive, so explicitly no truncation.
        let mut file =
            fs::OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(data)?;
        file.sync_all()?;
        xsobs::global().incr(xsobs::CounterId::PersistFsyncs);
        Ok(())
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut file = fs::File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        // Deliberately no fsync: the write-ahead log batches appends
        // and makes them durable with one `sync_file` per group.
        let mut file = fs::OpenOptions::new().append(true).create(true).open(path)?;
        file.write_all(data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::OpenOptions::new().read(true).open(path)?.sync_all()?;
        xsobs::global().incr(xsobs::CounterId::PersistFsyncs);
        Ok(())
    }
}

/// How [`FaultyVfs`] misbehaves once its fault point is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The N-th operation fails with an injected I/O error; subsequent
    /// operations proceed normally (a transient fault).
    Error,
    /// The N-th operation "crashes the process": a `write` tears (a
    /// prefix of the data reaches the disk, no fsync), every other
    /// operation does nothing, and all subsequent operations fail too.
    Crash,
}

/// Deterministic fault injection over [`StdVfs`].
///
/// Counts operations and injects a fault at operation index `fault_at`
/// (0-based). With [`FaultMode::Crash`], a faulting `write` (or
/// `write_at`) leaves a *torn* file behind — half the bytes — which is
/// exactly the state a power cut can produce and what the page/manifest
/// checksums must catch.
#[derive(Debug)]
pub struct FaultyVfs {
    inner: StdVfs,
    fault_at: u64,
    mode: FaultMode,
    ops: AtomicU64,
    write_ops: AtomicU64,
    sync_ops: AtomicU64,
    fsync_fault_at: u64,
    crashed: AtomicBool,
}

impl FaultyVfs {
    fn with_fault(fault_at: u64, mode: FaultMode, fsync_fault_at: u64) -> Self {
        FaultyVfs {
            inner: StdVfs,
            fault_at,
            mode,
            ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            sync_ops: AtomicU64::new(0),
            fsync_fault_at,
            crashed: AtomicBool::new(false),
        }
    }

    /// Fail (transiently) at 0-based operation `fault_at`.
    pub fn error_at(fault_at: u64) -> Self {
        FaultyVfs::with_fault(fault_at, FaultMode::Error, u64::MAX)
    }

    /// Crash at 0-based operation `fault_at` (and stay down).
    pub fn crash_at(fault_at: u64) -> Self {
        FaultyVfs::with_fault(fault_at, FaultMode::Crash, u64::MAX)
    }

    /// Fail (transiently) at the 0-based `n`-th fsync — `sync_file` or
    /// `sync_dir` — while every other operation proceeds normally. This
    /// is the "disk acked the write but refused the flush" failure a
    /// durable log must report as *not durable* rather than ack.
    pub fn fsync_error_at(n: u64) -> Self {
        FaultyVfs::with_fault(u64::MAX, FaultMode::Error, n)
    }

    /// A counting pass-through that never faults — run a save through it
    /// to learn how many operations the crash matrix must enumerate.
    pub fn counting() -> Self {
        FaultyVfs::error_at(u64::MAX)
    }

    /// Operations attempted so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Mutating operations attempted so far (`create_dir_all`, `write`,
    /// `write_at`, `rename`, `remove_file`, `remove_dir_all`). A clean
    /// re-save must leave this at zero.
    pub fn write_ops(&self) -> u64 {
        self.write_ops.load(Ordering::SeqCst)
    }

    /// Fsync operations (`sync_file` + `sync_dir`) attempted so far.
    pub fn sync_ops(&self) -> u64 {
        self.sync_ops.load(Ordering::SeqCst)
    }

    /// Whether the simulated crash has happened.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    fn injected() -> io::Error {
        io::Error::other("injected fault")
    }

    /// Account for one operation; `Err` means the fault fires now.
    fn tick(&self) -> io::Result<()> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(io::Error::other("simulated crash: filesystem gone"));
        }
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if n == self.fault_at {
            if self.mode == FaultMode::Crash {
                self.crashed.store(true, Ordering::SeqCst);
            }
            return Err(Self::injected());
        }
        Ok(())
    }

    /// A mutating operation is being attempted (faulting or not).
    fn tick_write(&self) -> io::Result<()> {
        self.write_ops.fetch_add(1, Ordering::SeqCst);
        self.tick()
    }

    /// An fsync is being attempted: counts against the dedicated fsync
    /// fault point *in addition to* the ordinary operation counter.
    fn tick_sync(&self) -> io::Result<()> {
        let n = self.sync_ops.fetch_add(1, Ordering::SeqCst);
        if n == self.fsync_fault_at {
            return Err(io::Error::other("injected fsync failure"));
        }
        Ok(())
    }
}

impl Vfs for FaultyVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.tick_write()?;
        self.inner.create_dir_all(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.tick_write() {
            Ok(()) => self.inner.write(path, data),
            Err(e) => {
                // A crashing write tears: a prefix of the data lands on
                // disk without fsync. A transient error writes nothing.
                if self.mode == FaultMode::Crash && self.crashed() {
                    let _ = fs::write(path, &data[..data.len() / 2]);
                }
                Err(e)
            }
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.tick()?;
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.tick_write()?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.tick_write()?;
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.tick_write()?;
        self.inner.remove_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.tick()?;
        self.inner.read_dir(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.tick()?;
        self.tick_sync()?;
        self.inner.sync_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        // Existence probes are not failure points: a crashed process
        // doesn't observe anything, and the crash matrix only needs
        // mutating/reading operations to be enumerable.
        self.inner.exists(path)
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        match self.tick_write() {
            Ok(()) => self.inner.write_at(path, offset, data),
            Err(e) => {
                // A crashing positioned write tears the same way a
                // whole-file one does: half the bytes land at `offset`.
                if self.mode == FaultMode::Crash && self.crashed() {
                    let _ = StdVfs.write_at(path, offset, &data[..data.len() / 2]);
                }
                Err(e)
            }
        }
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.tick()?;
        self.inner.read_at(path, offset, len)
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.tick()?;
        self.inner.file_len(path)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.tick_write() {
            Ok(()) => self.inner.append(path, data),
            Err(e) => {
                // A crashing append tears exactly like a crashing
                // write: a prefix of the record reaches the disk.
                if self.mode == FaultMode::Crash && self.crashed() {
                    let _ = self.inner.append(path, &data[..data.len() / 2]);
                }
                Err(e)
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.tick()?;
        self.tick_sync()?;
        self.inner.sync_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xsdb-vfs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_round_trips() {
        let dir = temp_dir("std");
        let vfs = StdVfs;
        let file = dir.join("x.txt");
        vfs.write(&file, b"hello").unwrap();
        assert_eq!(vfs.read(&file).unwrap(), b"hello");
        assert!(vfs.exists(&file));
        let renamed = dir.join("y.txt");
        vfs.rename(&file, &renamed).unwrap();
        assert!(!vfs.exists(&file));
        assert_eq!(vfs.read_dir(&dir).unwrap(), vec![renamed.clone()]);
        vfs.sync_dir(&dir).unwrap();
        vfs.remove_file(&renamed).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn positioned_ops_round_trip_and_extend() {
        let dir = temp_dir("at");
        let vfs = StdVfs;
        let file = dir.join("pages.bin");
        vfs.write_at(&file, 0, b"aaaa").unwrap();
        vfs.write_at(&file, 8, b"bbbb").unwrap(); // extends with a hole
        assert_eq!(vfs.file_len(&file).unwrap(), 12);
        vfs.write_at(&file, 2, b"XX").unwrap(); // in-place overwrite
        assert_eq!(vfs.read_at(&file, 0, 4).unwrap(), b"aaXX");
        assert_eq!(vfs.read_at(&file, 8, 4).unwrap(), b"bbbb");
        assert!(vfs.read_at(&file, 10, 4).is_err(), "short read is an error");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_positioned_ops_match_the_overrides() {
        // A Vfs with only the nine base operations gets working
        // positioned ops for free.
        #[derive(Debug)]
        struct Basic(StdVfs);
        impl Vfs for Basic {
            fn create_dir_all(&self, p: &Path) -> io::Result<()> {
                self.0.create_dir_all(p)
            }
            fn write(&self, p: &Path, d: &[u8]) -> io::Result<()> {
                self.0.write(p, d)
            }
            fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
                self.0.read(p)
            }
            fn rename(&self, a: &Path, b: &Path) -> io::Result<()> {
                self.0.rename(a, b)
            }
            fn remove_file(&self, p: &Path) -> io::Result<()> {
                self.0.remove_file(p)
            }
            fn remove_dir_all(&self, p: &Path) -> io::Result<()> {
                self.0.remove_dir_all(p)
            }
            fn read_dir(&self, p: &Path) -> io::Result<Vec<PathBuf>> {
                self.0.read_dir(p)
            }
            fn sync_dir(&self, p: &Path) -> io::Result<()> {
                self.0.sync_dir(p)
            }
            fn exists(&self, p: &Path) -> bool {
                self.0.exists(p)
            }
        }
        let dir = temp_dir("default-at");
        let vfs = Basic(StdVfs);
        let file = dir.join("f");
        vfs.write_at(&file, 3, b"xyz").unwrap();
        assert_eq!(vfs.file_len(&file).unwrap(), 6);
        assert_eq!(vfs.read_at(&file, 0, 6).unwrap(), b"\0\0\0xyz");
        assert!(vfs.read_at(&file, 4, 3).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_mode_fails_once_then_recovers() {
        let dir = temp_dir("error-mode");
        let vfs = FaultyVfs::error_at(1);
        let a = dir.join("a");
        let b = dir.join("b");
        vfs.write(&a, b"1").unwrap(); // op 0
        assert!(vfs.write(&b, b"2").is_err()); // op 1: injected
        assert!(!b.exists(), "transient error writes nothing");
        vfs.write(&b, b"2").unwrap(); // op 2: recovered
        assert_eq!(vfs.ops(), 3);
        assert_eq!(vfs.write_ops(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mode_tears_the_write_and_stays_down() {
        let dir = temp_dir("crash-mode");
        let vfs = FaultyVfs::crash_at(0);
        let a = dir.join("a");
        assert!(vfs.write(&a, b"0123456789").is_err());
        assert!(vfs.crashed());
        assert_eq!(fs::read(&a).unwrap(), b"01234", "crash leaves a torn prefix");
        assert!(vfs.read(&a).is_err(), "everything after the crash fails");
        assert!(vfs.rename(&a, &dir.join("b")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mode_tears_positioned_writes_in_place() {
        let dir = temp_dir("crash-at");
        let file = dir.join("pages.bin");
        StdVfs.write(&file, &[b'.'; 16]).unwrap();
        let vfs = FaultyVfs::crash_at(0);
        assert!(vfs.write_at(&file, 4, b"ABCDEFGH").is_err());
        let bytes = fs::read(&file).unwrap();
        assert_eq!(&bytes[..8], b"....ABCD", "half the data landed at the offset");
        assert_eq!(&bytes[8..], b"........", "the rest of the file is untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_defers_durability_to_sync_file() {
        let dir = temp_dir("append");
        let vfs = StdVfs;
        let file = dir.join("log");
        vfs.append(&file, b"one").unwrap();
        vfs.append(&file, b"two").unwrap();
        assert_eq!(vfs.read(&file).unwrap(), b"onetwo");
        vfs.sync_file(&file).unwrap();
        assert!(vfs.sync_file(&dir.join("missing")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_append_and_sync_file_are_durable_together() {
        #[derive(Debug)]
        struct Basic(StdVfs);
        impl Vfs for Basic {
            fn create_dir_all(&self, p: &Path) -> io::Result<()> {
                self.0.create_dir_all(p)
            }
            fn write(&self, p: &Path, d: &[u8]) -> io::Result<()> {
                self.0.write(p, d)
            }
            fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
                self.0.read(p)
            }
            fn rename(&self, a: &Path, b: &Path) -> io::Result<()> {
                self.0.rename(a, b)
            }
            fn remove_file(&self, p: &Path) -> io::Result<()> {
                self.0.remove_file(p)
            }
            fn remove_dir_all(&self, p: &Path) -> io::Result<()> {
                self.0.remove_dir_all(p)
            }
            fn read_dir(&self, p: &Path) -> io::Result<Vec<PathBuf>> {
                self.0.read_dir(p)
            }
            fn sync_dir(&self, p: &Path) -> io::Result<()> {
                self.0.sync_dir(p)
            }
            fn exists(&self, p: &Path) -> bool {
                self.0.exists(p)
            }
        }
        let dir = temp_dir("default-append");
        let vfs = Basic(StdVfs);
        let file = dir.join("log");
        vfs.append(&file, b"aa").unwrap();
        vfs.append(&file, b"bb").unwrap();
        assert_eq!(vfs.read(&file).unwrap(), b"aabb");
        vfs.sync_file(&file).unwrap(); // no-op, but must not error
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mode_tears_appends() {
        let dir = temp_dir("crash-append");
        let file = dir.join("log");
        StdVfs.append(&file, b"intact").unwrap();
        let vfs = FaultyVfs::crash_at(0);
        assert!(vfs.append(&file, b"ABCDEFGH").is_err());
        assert_eq!(fs::read(&file).unwrap(), b"intactABCD", "half the record landed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_error_mode_fails_only_the_chosen_fsync() {
        let dir = temp_dir("fsync-fault");
        let vfs = FaultyVfs::fsync_error_at(1);
        let file = dir.join("log");
        vfs.append(&file, b"record").unwrap();
        vfs.sync_file(&file).unwrap(); // fsync 0: fine
        assert!(vfs.sync_file(&file).is_err(), "fsync 1 is injected");
        vfs.sync_file(&file).unwrap(); // transient: recovers
        assert_eq!(vfs.sync_ops(), 3);
        assert!(!vfs.crashed());
        // Ordinary writes never fault in this mode.
        vfs.write(&dir.join("other"), b"x").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn counting_vfs_never_faults() {
        let dir = temp_dir("counting");
        let vfs = FaultyVfs::counting();
        for i in 0..10 {
            vfs.write(&dir.join(format!("f{i}")), b"x").unwrap();
        }
        let n = vfs.read_dir(&dir).unwrap().len() as u64;
        assert_eq!(n, 10);
        assert_eq!(vfs.ops(), 11);
        assert_eq!(vfs.write_ops(), 10, "read_dir is not a write op");
        assert!(!vfs.crashed());
        let _ = fs::remove_dir_all(&dir);
    }
}
