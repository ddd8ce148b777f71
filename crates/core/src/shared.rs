//! A thread-safe, shareable database handle — the concurrency layer a
//! network front-end (or any embedder) serves traffic through.
//!
//! §6.1 of the paper models the database as one evolving algebra, and a
//! mutation as a function from one state to the next; a DBMS like Sedna
//! (§9) exposes that single object to many concurrent clients.
//! [`SharedDatabase`] is that bridge. It holds exactly one state value,
//! the last committed [`Database`] behind an `Arc`, and a commit builds
//! the next value from it and publishes it:
//!
//! * **Readers never block and are never blocked.** [`SharedDatabase::read`]
//!   clones the `Arc` of the current state. Every `&self` accessor
//!   ([`Database::validate`], [`Database::query`],
//!   [`Database::xquery`], [`Database::serialize`], the catalog
//!   listings) runs against that frozen state for as long as the guard
//!   lives, no matter how many writers commit meanwhile. A state is
//!   cheap to copy: documents sit behind `Arc`s and writers
//!   copy-on-write.
//! * **Writers prepare in parallel and commit through one mutex.**
//!   [`SharedDatabase::apply`] is the durable write path. It first
//!   *prepares* the mutation ([`Mutation::prepare`]) against a read
//!   snapshot, without the lock: every check, the parse, `f` and the
//!   storage build of an insert, the apply-on-copy and recheck of an
//!   update. A refusal returns here: nothing was locked, nothing logged.
//!   Then, under the writer mutex, it
//!   1. takes the current state;
//!   2. checks that everything the preparation read (the `Arc`s of the
//!      document and schema it used, the absence of an inserted name) is
//!      still installed there ([`Database::commit`]'s staleness check),
//!      or else prepares the mutation once more against it, where
//!      nothing can move (`wal.commit_retries_total` counts these);
//!   3. appends the encoded record to the log, and fsyncs it under
//!      [`Durability::Fsync`];
//!   4. clones the state and commits the preparation into the clone —
//!      one map insert or removal — stamping it with the record's
//!      sequence number;
//!   5. swaps the clone in as the current state.
//!
//!   The state it replaced is dropped after both locks are released.
//!   A crash at any point recovers the complete old or complete new
//!   state of every acknowledged commit, and a mutation that fails
//!   never reaches the log. There is no other write path: every change
//!   of state is a logged [`Mutation`].
//!
//! # Durability modes
//!
//! A database opened with [`SharedDatabase::open_durable`] attaches a
//! write-ahead log under `<dir>/wal`. The writer owns the log and the
//! on-disk mirror of `<dir>` ([`Store`]) together; a volatile handle
//! ([`SharedDatabase::new`]) has neither. [`Durability`] picks one of two
//! acknowledgment disciplines:
//!
//! * [`Durability::Fsync`] — every commit fsyncs its record *before*
//!   the mutation is published or acknowledged: a reader never sees a
//!   write a crash could erase. A failed fsync means the mutation is
//!   **not published and not acknowledged** (and the log refuses
//!   further appends until a checkpoint).
//! * [`Durability::Async`] — no per-commit fsync at all; records reach
//!   the device at segment rotation and checkpoints. Fastest, and the
//!   only mode in which an acknowledged commit can be lost in a crash.
//!
//! [`SharedDatabase::checkpoint`] folds the current state into the paged
//! store of the directory the handle was opened on ([`Store::save`],
//! under the writer lock — readers keep reading their snapshots) and
//! then truncates that directory's log, so recovery replays only the
//! tail written since. It takes no path: the log it truncates and the
//! store it saves are one directory's by construction. A volatile handle
//! refuses it with [`DbError::Volatile`].
//!
//! Lock acquisition is instrumented: the time callers spend entering
//! `read` and the writer lock of `apply` is recorded into the `server.read_lock_wait_ns` /
//! `server.write_lock_wait_ns` histograms and the
//! `server.lock_wait_high_water_ns` gauge, and the whole commit path
//! into `wal.commit_ns`.
//!
//! ```
//! use xsdb::{Database, Mutation, SharedDatabase};
//!
//! let mut db = Database::new();
//! db.register_schema_text("greetings", r#"
//!   <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
//!     <xs:element name="greeting" type="xs:string"/>
//!   </xs:schema>"#).unwrap();
//! let shared = SharedDatabase::new(db);
//!
//! let reader = shared.clone();
//! std::thread::scope(|s| {
//!     s.spawn(move || {
//!         // Readers evaluate against an immutable snapshot.
//!         let _ = reader.read().document_names().count();
//!     });
//!     let xml = "<greeting>hi</greeting>".to_string();
//!     let put = Mutation::Insert { doc: "hello".into(), schema: "greetings".into(), xml };
//!     shared.apply(&put).unwrap();
//! });
//! assert_eq!(shared.read().query("hello", "/greeting").unwrap(), ["hi"]);
//! ```

use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use storage::Wal;

use crate::database::{Database, Prepared};
use crate::error::{catch_panic, DbError};
use crate::mutation::{ApplyOutcome, Mutation};
use crate::persist::{LoadPolicy, LoadReport, Recovery, Store, WAL_SUBDIR};
use crate::vfs::{StdVfs, Vfs};

/// When a logged mutation is acknowledged relative to its record
/// reaching the device. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Fsync the record before publishing or acknowledging. A failed
    /// fsync leaves the mutation unpublished and unacknowledged.
    #[default]
    Fsync,
    /// Never fsync per commit (rotation and checkpoints only).
    Async,
}

impl std::str::FromStr for Durability {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fsync" => Ok(Durability::Fsync),
            "async" => Ok(Durability::Async),
            other => Err(format!("unknown durability mode {other:?} (fsync|async)")),
        }
    }
}

/// What only the writer of a durable handle touches: the write-ahead log
/// of the directory the handle was opened on, and the on-disk mirror of
/// that same directory, which checkpoints save through.
#[derive(Debug)]
struct Durable {
    wal: Wal,
    store: Store,
}

#[derive(Debug)]
struct Inner {
    /// The last committed state: what readers clone.
    current: Mutex<Arc<Database>>,
    /// Held by one commit or checkpoint at a time; `None` for a volatile
    /// handle.
    writer: Mutex<Option<Durable>>,
    /// `None` for a volatile handle.
    durability: Option<Durability>,
    vfs: Arc<dyn Vfs>,
    obs: Arc<xsobs::Registry>,
}

/// A cloneable, thread-safe handle to one [`Database`].
///
/// Clones share the same underlying database (and its metrics
/// registry). See the [module docs](self) for the concurrency and
/// durability disciplines.
#[derive(Debug, Clone)]
pub struct SharedDatabase {
    inner: Arc<Inner>,
}

/// An immutable snapshot of the last committed state, returned by
/// [`SharedDatabase::read`]. Holding it never blocks writers; writers
/// never change what it observes.
#[derive(Debug)]
pub struct ReadSnapshot {
    db: Arc<Database>,
}

impl Deref for ReadSnapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl SharedDatabase {
    /// Wrap a database for shared, **volatile** use (no write-ahead
    /// log). The handle records its lock-wait metrics into the
    /// database's own registry.
    pub fn new(db: Database) -> Self {
        SharedDatabase::with_writer(db, None, None, Arc::new(StdVfs))
    }

    fn with_writer(
        db: Database,
        writer: Option<Durable>,
        durability: Option<Durability>,
        vfs: Arc<dyn Vfs>,
    ) -> Self {
        let obs = db.metrics_registry_arc();
        SharedDatabase {
            inner: Arc::new(Inner {
                current: Mutex::new(Arc::new(db)),
                writer: Mutex::new(writer),
                durability,
                vfs,
                obs,
            }),
        }
    }

    /// Open (or create) a **durable** database at `dir`: load the paged
    /// store if one exists, replay the write-ahead-log tail over it,
    /// and attach the log so every [`SharedDatabase::apply`] is
    /// recorded before it is acknowledged. Returns the load report
    /// (empty for a fresh directory).
    pub fn open_durable(
        dir: impl AsRef<Path>,
        durability: Durability,
    ) -> Result<(SharedDatabase, LoadReport), DbError> {
        SharedDatabase::open_durable_vfs(dir.as_ref(), durability, Arc::new(StdVfs))
    }

    /// [`SharedDatabase::open_durable`] over an explicit [`Vfs`]
    /// (fault injection and crash testing).
    pub fn open_durable_vfs(
        dir: &Path,
        durability: Durability,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(SharedDatabase, LoadReport), DbError> {
        // The checkpoint first, then the log — opened once, and its
        // records handed to the replay.
        let mut recovery = if vfs.exists(&dir.join("CURRENT")) {
            Recovery::checkpoint(dir, LoadPolicy::Strict, &*vfs)?
        } else {
            // Never checkpointed: the log is the only state there is.
            vfs.create_dir_all(dir).map_err(|e| DbError::io(dir, e))?;
            Recovery::fresh(dir)
        };
        let wal_dir = dir.join(WAL_SUBDIR);
        let (mut wal, records) = Wal::open(&*vfs, &wal_dir, storage::DEFAULT_ROTATE_BYTES)?;
        recovery.replay(&records, LoadPolicy::Strict)?;
        let (store, db, report) = recovery.finish();
        // Sequences stay monotonic across restarts even when a
        // checkpoint truncated the records they were seeded from.
        wal.reserve_seq(db.wal_epoch.max(wal.last_seq()) + 1);
        let writer = Durable { wal, store };
        Ok((SharedDatabase::with_writer(db, Some(writer), Some(durability), vfs), report))
    }

    /// Acquire a read snapshot: the complete database state as of the
    /// last commit. Never blocks on writers (beyond the instant of
    /// cloning the state pointer) and never observes a half-applied
    /// mutation.
    pub fn read(&self) -> ReadSnapshot {
        let start = self.lock_clock();
        let db = Arc::clone(&self.current());
        self.record_wait(xsobs::HistogramId::SrvReadLockWait, start);
        ReadSnapshot { db }
    }

    /// Turn strict analysis ([`Database::set_strict_analysis`]) on or off
    /// for later writes and reads. A process setting, not state: it is
    /// not logged, and a reopened database starts without it.
    pub fn set_strict_analysis(&self, on: bool) {
        let writer = self.writer();
        let mut next = Database::clone(&self.current());
        next.set_strict_analysis(on);
        self.publish(next, writer);
    }

    /// Commit one mutation: prepare it against a read snapshot, check
    /// under the writer lock that what it read is still installed,
    /// append its record to the write-ahead log and make it as durable
    /// as the [`Durability`] mode promises, then commit it into a copy
    /// of the current state and publish that copy to readers.
    ///
    /// On a volatile handle (no log) the append is skipped. A mutation
    /// the database rejects (duplicate name, invalid document, refused
    /// update, deletion of a missing document, …) is refused by the
    /// preparation, before the lock is taken: it returns the rejection,
    /// leaves the state unchanged and writes no log record.
    pub fn apply(&self, m: &Mutation) -> Result<ApplyOutcome, DbError> {
        self.apply_with(m, |db| m.prepare(db))
    }

    /// [`SharedDatabase::apply`] with `prepare` standing in for
    /// [`Mutation::prepare`]; the record logged is still `m`'s.
    fn apply_with(
        &self,
        m: &Mutation,
        prepare: impl Fn(&Database) -> Result<Prepared, DbError>,
    ) -> Result<ApplyOutcome, DbError> {
        let commit_clock = self.lock_clock();
        // The expensive part — the one-pass parse, `f` and storage
        // build, an update's apply-on-copy — runs here, outside the
        // writer lock. A panic in it is refused like any rejection.
        let obs = &self.inner.obs;
        let mut prepared = catch_panic(obs, "preparation", || prepare(&self.read()))?;
        let payload = self.inner.durability.map(|_| m.encode());
        let start = self.lock_clock();
        let mut writer = self.writer();
        self.record_wait(xsobs::HistogramId::SrvWriteLockWait, start);
        // Only writers replace the current state, so it holds still
        // while the writer lock is held.
        let db = Arc::clone(&self.current());
        if !db.is_current(&prepared) {
            // Another writer replaced what the snapshot showed. Prepare
            // again, against the current state and under the lock:
            // nothing can move under this one, so it commits or is
            // refused.
            obs.incr(xsobs::CounterId::WalCommitRetries);
            // Caught here too, so a panic cannot poison the lock.
            prepared = catch_panic(obs, "preparation", || prepare(&db))?;
        }
        let seq = match (&mut *writer, payload) {
            (Some(Durable { wal, .. }), Some(payload)) => {
                // (the storage layer counts the append into
                // `wal.appends_total`)
                let seq = wal.append(&*self.inner.vfs, &payload)?;
                if self.inner.durability == Some(Durability::Fsync) {
                    // Record first, state second: a failed fsync means
                    // the mutation is neither published nor acknowledged.
                    wal.sync(&*self.inner.vfs)?;
                }
                Some(seq)
            }
            _ => None,
        };
        let mut next = Database::clone(&db);
        let outcome = next.commit_current(prepared)?;
        if let Some(seq) = seq {
            next.wal_epoch = seq;
        }
        self.publish(next, writer);
        if let (Some(t), Some(_)) = (commit_clock, seq) {
            obs.observe(xsobs::HistogramId::WalCommit, t.elapsed());
        }
        Ok(outcome)
    }

    /// Checkpoint: save the current state into the directory the handle
    /// was opened on ([`Store::save`], incremental against the state
    /// saved or recovered last) and then truncate its write-ahead log.
    /// Runs under the writer lock — concurrent readers keep their
    /// snapshots; a crash between the save and the truncate is harmless
    /// (the surviving records are skipped via their epochs on replay).
    ///
    /// # Errors
    /// [`DbError::Volatile`] on a handle made by [`SharedDatabase::new`],
    /// which has no directory; otherwise the save's or the truncation's
    /// failure.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let obs = &self.inner.obs;
        let global = xsobs::global();
        let pages_before = global.snapshot().counter(xsobs::CounterId::StoragePageWrites);
        let mut writer = self.writer();
        let Some(Durable { wal, store }) = &mut *writer else { return Err(DbError::Volatile) };
        let db = Arc::clone(&self.current());
        store.save_vfs(&db, &*self.inner.vfs)?;
        wal.truncate(&*self.inner.vfs)?;
        drop(writer);
        let pages_after = global.snapshot().counter(xsobs::CounterId::StoragePageWrites);
        obs.incr(xsobs::CounterId::WalCheckpoints);
        obs.add(xsobs::CounterId::WalCheckpointPages, pages_after.saturating_sub(pages_before));
        Ok(())
    }

    /// Whether this handle carries a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.inner.durability.is_some()
    }

    /// The metrics registry shared with the wrapped database.
    pub fn metrics_registry(&self) -> &Arc<xsobs::Registry> {
        &self.inner.obs
    }

    /// A point-in-time snapshot of the shared metrics registry, without
    /// taking the database lock.
    pub fn metrics(&self) -> xsobs::Snapshot {
        self.inner.obs.snapshot()
    }

    fn current(&self) -> MutexGuard<'_, Arc<Database>> {
        self.inner.current.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn writer(&self) -> MutexGuard<'_, Option<Durable>> {
        self.inner.writer.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Publish `next` as the current state, and release the writer lock.
    fn publish(&self, next: Database, writer: MutexGuard<'_, Option<Durable>>) {
        let next = Arc::new(next);
        let retired = std::mem::replace(&mut *self.current(), next);
        drop(writer);
        // Free the superseded state outside both locks: when no reader
        // still holds it, this drop releases every block the new state
        // copied, and neither readers nor the next writer wait for that.
        drop(retired);
    }

    fn lock_clock(&self) -> Option<Instant> {
        self.inner.obs.is_enabled().then(Instant::now)
    }

    fn record_wait(&self, id: xsobs::HistogramId, start: Option<Instant>) {
        if let Some(start) = start {
            let elapsed = start.elapsed();
            self.inner.obs.observe(id, elapsed);
            self.inner.obs.record_max(
                xsobs::MaxId::SrvLockWaitHighWater,
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="n" type="xs:string"/>
</xs:schema>"#;

    fn shared() -> SharedDatabase {
        let mut db = Database::new();
        db.register_schema_text("s", SCHEMA).unwrap();
        SharedDatabase::new(db)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xsdb-shared-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn put(doc: &str, xml: &str) -> Mutation {
        Mutation::Insert { doc: doc.into(), schema: "s".into(), xml: xml.into() }
    }

    #[test]
    fn clones_see_each_others_writes() {
        let a = shared();
        let b = a.clone();
        a.apply(&put("d", "<n>x</n>")).unwrap();
        assert_eq!(b.read().query("d", "/n").unwrap(), ["x"]);
        let deleted = b.apply(&Mutation::Delete { doc: "d".into() }).unwrap();
        assert_eq!(deleted, ApplyOutcome::Deleted);
        assert!(a.read().is_empty());
    }

    #[test]
    fn concurrent_readers_share_the_lock() {
        let sh = shared();
        sh.apply(&put("d", "<n>x</n>")).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sh = &sh;
                s.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(sh.read().query("d", "/n").unwrap(), ["x"]);
                    }
                });
            }
        });
    }

    #[test]
    fn lock_waits_are_recorded() {
        let db = Database::with_metrics_registry(Arc::new(xsobs::Registry::new()));
        let sh = SharedDatabase::new(db);
        // One snapshot for the preparation, one turn of the writer lock.
        sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
        let snap = sh.metrics();
        assert_eq!(snap.histogram(xsobs::HistogramId::SrvReadLockWait).count, 1);
        assert_eq!(snap.histogram(xsobs::HistogramId::SrvWriteLockWait).count, 1);
    }

    #[test]
    fn disabled_registry_records_no_lock_waits() {
        let reg = Arc::new(xsobs::Registry::disabled());
        let sh = SharedDatabase::new(Database::with_metrics_registry(Arc::clone(&reg)));
        sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.histogram(xsobs::HistogramId::SrvReadLockWait).count, 0);
        assert_eq!(snap.histogram(xsobs::HistogramId::SrvWriteLockWait).count, 0);
    }

    #[test]
    fn read_snapshots_are_frozen_at_acquisition() {
        let sh = shared();
        sh.apply(&Mutation::Insert {
            doc: "d".into(),
            schema: "s".into(),
            xml: "<n>before</n>".into(),
        })
        .unwrap();
        let snap = sh.read();
        sh.apply(&Mutation::Update {
            doc: "d".into(),
            update: r#"replace value of node /n with "after""#.into(),
        })
        .unwrap();
        // The old snapshot still sees the old value; a new one sees
        // the new value.
        assert_eq!(snap.query("d", "/n").unwrap(), ["before"]);
        assert_eq!(sh.read().query("d", "/n").unwrap(), ["after"]);
    }

    #[test]
    fn rejected_mutations_leave_state_and_log_replayable() {
        let dir = temp_dir("rejects");
        let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
        sh.apply(&Mutation::Insert { doc: "d".into(), schema: "s".into(), xml: "<n>v</n>".into() })
            .unwrap();
        // A duplicate insert is rejected and changes nothing…
        let err = sh
            .apply(&Mutation::Insert {
                doc: "d".into(),
                schema: "s".into(),
                xml: "<n>other</n>".into(),
            })
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateDocument(_)));
        // …and leaves no record: the log holds the two accepted
        // mutations only, and recovery reproduces the accepted state.
        let records = storage::wal::replay(&StdVfs, &dir.join(WAL_SUBDIR)).unwrap();
        assert_eq!(records.len(), 2, "{records:?}");
        drop(sh);
        let (again, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        assert_eq!(again.read().query("d", "/n").unwrap(), ["v"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `f` runs before the writer lock is taken. While this thread holds
    /// the lock, another thread's insert of an invalid document is
    /// refused without waiting, and a valid one is validated and built
    /// (its `db.insert` span ends) and then waits only for the commit.
    #[test]
    fn preparation_runs_outside_the_writer_lock() {
        use std::sync::mpsc;
        use std::time::Duration;
        const PATIENCE: Duration = Duration::from_secs(60);
        let reg = Arc::new(xsobs::Registry::new());
        let mut db = Database::with_metrics_registry(Arc::clone(&reg));
        db.register_schema_text("s", SCHEMA).unwrap();
        let sh = SharedDatabase::new(db);
        let inserts = || reg.snapshot().histogram(xsobs::HistogramId::DbInsert).count;
        let insert = |doc: &str, xml: &str| Mutation::Insert {
            doc: doc.into(),
            schema: "s".into(),
            xml: xml.into(),
        };
        std::thread::scope(|s| {
            // Taken inside the scope, so a failed assertion releases it
            // before the scope joins the blocked writer.
            let guard = sh.inner.writer.lock().unwrap();
            let (sh, insert) = (&sh, &insert);
            let (tx, rx) = mpsc::channel();
            s.spawn(move || tx.send(sh.apply(&insert("bad", "<n><x/></n>"))).unwrap());
            let refused = rx.recv_timeout(PATIENCE).expect("a refusal waited for the lock");
            assert!(matches!(refused, Err(DbError::Invalid(_))), "{refused:?}");

            let built = inserts();
            let writer = s.spawn(|| sh.apply(&insert("good", "<n>v</n>")));
            let start = Instant::now();
            while inserts() == built {
                assert!(start.elapsed() < PATIENCE, "the valid document was never built");
                std::thread::yield_now();
            }
            // Built, but not committed: the commit needs the lock.
            assert!(!writer.is_finished());
            assert!(sh.read().document("good").is_none());
            drop(guard);
            assert_eq!(writer.join().unwrap().unwrap(), ApplyOutcome::Inserted);
        });
        assert_eq!(sh.read().query("good", "/n").unwrap(), ["v"]);
        assert_eq!(sh.metrics().counter(xsobs::CounterId::WalCommitRetries), 0);
    }

    /// Total bytes of the files under `dir`.
    fn dir_bytes(dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| match e.file_type().unwrap().is_dir() {
                true => dir_bytes(&e.path()),
                false => e.metadata().unwrap().len(),
            })
            .sum()
    }

    /// Serializes the tests that panic on purpose, which share the
    /// global `db.panics_caught_total`.
    static PANICS: Mutex<()> = Mutex::new(());

    #[test]
    fn a_panicking_preparation_is_refused_like_any_rejection() {
        let _serial = PANICS.lock().unwrap_or_else(|p| p.into_inner());
        let dir = temp_dir("panic");
        let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
        let insert =
            Mutation::Insert { doc: "d".into(), schema: "s".into(), xml: "<n>v</n>".into() };
        let caught = || sh.metrics().counter(xsobs::CounterId::PanicsCaught);
        let (before, logged) = (caught(), dir_bytes(&dir));
        // The insert, with a preparation that panics.
        let panicking =
            |_: &Database| -> Result<Prepared, DbError> { panic!("a preparation went wrong") };
        match sh.apply_with(&insert, panicking) {
            Err(DbError::Panicked(what)) => {
                assert!(what.contains("a preparation went wrong"), "{what}")
            }
            other => panic!("a panicking preparation gave {other:?}"),
        }
        assert_eq!(caught(), before + 1);
        assert_eq!(dir_bytes(&dir), logged, "the log gained a record");
        assert!(!sh.inner.writer.is_poisoned());
        // The next mutation commits, and the reopened log holds it.
        assert_eq!(sh.apply(&insert).unwrap(), ApplyOutcome::Inserted);
        drop(sh);
        let (again, report) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        assert!(report.is_clean());
        assert_eq!(again.read().query("d", "/n").unwrap(), ["v"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_preparation_panicking_under_the_writer_lock_does_not_poison_it() {
        let _serial = PANICS.lock().unwrap_or_else(|p| p.into_inner());
        let sh = shared();
        let insert =
            Mutation::Insert { doc: "d".into(), schema: "s".into(), xml: "<n>v</n>".into() };
        let calls = std::sync::atomic::AtomicUsize::new(0);
        // The first preparation is made stale before the lock is taken,
        // so the second runs under it — and panics there.
        let outcome = sh.apply_with(&insert, |db| {
            if calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                let prepared = insert.prepare(db);
                sh.apply(&Mutation::RemoveSchema { name: "s".into() }).unwrap();
                sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() })
                    .unwrap();
                prepared
            } else {
                panic!("under the lock")
            }
        });
        assert!(matches!(outcome, Err(DbError::Panicked(_))), "{outcome:?}");
        assert!(!sh.inner.writer.is_poisoned());
        assert_eq!(sh.apply(&insert).unwrap(), ApplyOutcome::Inserted);
    }

    #[test]
    fn durable_commits_survive_without_a_checkpoint() {
        let dir = temp_dir("durable");
        for durability in [Durability::Fsync, Durability::Async] {
            let _ = std::fs::remove_dir_all(&dir);
            let (sh, report) = SharedDatabase::open_durable(&dir, durability).unwrap();
            assert!(report.is_clean());
            sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
            sh.apply(&Mutation::Insert {
                doc: "d".into(),
                schema: "s".into(),
                xml: "<n>kept</n>".into(),
            })
            .unwrap();
            drop(sh); // no checkpoint: the log is the only state
            let (again, _) = SharedDatabase::open_durable(&dir, durability).unwrap();
            assert_eq!(again.read().query("d", "/n").unwrap(), ["kept"]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_the_log_and_recovery_still_agrees() {
        let dir = temp_dir("checkpoint");
        let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
        sh.apply(&Mutation::Insert { doc: "d".into(), schema: "s".into(), xml: "<n>a</n>".into() })
            .unwrap();
        sh.checkpoint().unwrap();
        // The log is empty after a checkpoint…
        let wal_dir = dir.join(WAL_SUBDIR);
        let leftover = storage::wal::replay(&StdVfs, &wal_dir).unwrap();
        assert!(leftover.is_empty(), "{leftover:?}");
        // …and post-checkpoint commits land in the fresh tail.
        sh.apply(&Mutation::Update {
            doc: "d".into(),
            update: r#"replace value of node /n with "b""#.into(),
        })
        .unwrap();
        drop(sh);
        let (again, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        assert_eq!(again.read().query("d", "/n").unwrap(), ["b"]);
        // Idempotent: loading twice replays to the same state.
        drop(again);
        let (thrice, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        assert_eq!(thrice.read().query("d", "/n").unwrap(), ["b"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_saves_into_the_directory_the_handle_opened() {
        let dir = temp_dir("owned-dir");
        let (sh, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        sh.apply(&Mutation::RegisterSchema { name: "s".into(), xsd: SCHEMA.into() }).unwrap();
        for (doc, text) in [("a", "one"), ("b", "two"), ("c", "three")] {
            sh.apply(&put(doc, &format!("<n>{text}</n>"))).unwrap();
        }
        sh.checkpoint().unwrap();
        drop(sh);
        // Every document comes back from the checkpoint alone: the log
        // tail is empty.
        assert!(storage::wal::replay(&StdVfs, &dir.join(WAL_SUBDIR)).unwrap().is_empty());
        let (again, report) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        assert!(report.is_clean(), "{report:?}");
        let db = again.read();
        assert_eq!(db.document_names().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(db.query("c", "/n").unwrap(), ["three"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_volatile_handle_refuses_to_checkpoint() {
        let sh = shared();
        sh.apply(&put("d", "<n>x</n>")).unwrap();
        assert!(matches!(sh.checkpoint(), Err(DbError::Volatile)));
        assert_eq!(sh.read().query("d", "/n").unwrap(), ["x"]);
    }

    #[test]
    fn durability_mode_parsing() {
        assert_eq!("fsync".parse::<Durability>().unwrap(), Durability::Fsync);
        assert_eq!("async".parse::<Durability>().unwrap(), Durability::Async);
        assert!("never".parse::<Durability>().is_err());
        // `group` published a write before it was durable; it is gone.
        let refused = "group".parse::<Durability>().unwrap_err();
        assert!(refused.contains("fsync|async"), "{refused}");
    }
}
