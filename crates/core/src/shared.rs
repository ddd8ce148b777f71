//! A thread-safe, shareable database handle — the concurrency layer a
//! network front-end (or any embedder) serves traffic through.
//!
//! §6.1 of the paper models the database as one evolving algebra; a
//! DBMS like Sedna (§9) exposes that single object to many concurrent
//! clients. [`SharedDatabase`] is that bridge, built as a
//! single-writer, snapshot-reader design:
//!
//! * **Readers never block and are never blocked.** [`SharedDatabase::read`]
//!   clones an `Arc` of the last *committed epoch* — an immutable
//!   snapshot of the whole database. Every `&self` accessor
//!   ([`Database::validate`], [`Database::query`],
//!   [`Database::xquery`], [`Database::serialize`], the catalog
//!   listings) runs against that frozen state for as long as the guard
//!   lives, no matter how many writers commit meanwhile. Snapshots are
//!   cheap: documents sit behind `Arc`s and writers copy-on-write.
//! * **Writers serialize through one mutex** and commit by publishing
//!   a fresh epoch snapshot. [`SharedDatabase::apply`] is the durable
//!   write path: it encodes the [`Mutation`], appends it to the
//!   write-ahead log, applies it, and publishes — so a crash at any
//!   point recovers the complete old or complete new state of every
//!   acknowledged commit. [`SharedDatabase::write`] remains as the
//!   legacy escape hatch for direct, *unlogged* mutation (volatile
//!   databases, tests); it republishes the epoch on guard drop.
//!
//! # Durability modes
//!
//! A database opened with [`SharedDatabase::open_durable`] attaches a
//! write-ahead log under `<dir>/wal` and offers three acknowledgment
//! disciplines ([`Durability`]):
//!
//! * [`Durability::Fsync`] — every commit fsyncs its record *before*
//!   the mutation is applied or acknowledged. A failed fsync means the
//!   mutation is **not applied and not acknowledged** (and the log
//!   refuses further appends until a checkpoint), so the client is
//!   never told "done" about a write that might not survive.
//! * [`Durability::Group`] — the mutation applies and publishes
//!   immediately, but the acknowledgment waits for a group fsync that
//!   covers every record appended so far: concurrent committers share
//!   one fsync (the `wal.batch_records` histogram shows the batch
//!   sizes).
//! * [`Durability::Async`] — no per-commit fsync at all; records reach
//!   the device at segment rotation and checkpoints. Fastest, and the
//!   only mode in which an acknowledged commit can be lost in a crash.
//!
//! [`SharedDatabase::checkpoint`] folds the log into the paged store
//! ([`Database::save_dir`] under the writer lock — readers keep
//! reading their snapshots) and then truncates the log, so recovery
//! replays only the tail written since.
//!
//! Lock acquisition is instrumented: the time callers spend entering
//! `read`/`write` is recorded into the `server.read_lock_wait_ns` /
//! `server.write_lock_wait_ns` histograms and the
//! `server.lock_wait_high_water_ns` gauge, and the whole commit path
//! into `wal.commit_ns`.
//!
//! ```
//! use xsdb::{Database, SharedDatabase};
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
//!     shared.write().insert("hello", "greetings", "<greeting>hi</greeting>").unwrap();
//! });
//! assert_eq!(shared.read().query("hello", "/greeting").unwrap(), ["hi"]);
//! ```

use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use storage::Wal;

use crate::database::Database;
use crate::error::DbError;
use crate::mutation::{ApplyOutcome, Mutation};
use crate::persist::{replay_wal_records, LoadPolicy, LoadReport, WalReplaySummary, WAL_SUBDIR};
use crate::vfs::{StdVfs, Vfs};

/// When a logged mutation is acknowledged relative to its record
/// reaching the device. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Fsync the record before applying or acknowledging. A failed
    /// fsync leaves the mutation unapplied and unacknowledged.
    #[default]
    Fsync,
    /// Apply immediately; acknowledge after a shared group fsync.
    Group,
    /// Never fsync per commit (rotation and checkpoints only).
    Async,
}

impl std::str::FromStr for Durability {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fsync" => Ok(Durability::Fsync),
            "group" => Ok(Durability::Group),
            "async" => Ok(Durability::Async),
            other => Err(format!("unknown durability mode {other:?} (fsync|group|async)")),
        }
    }
}

/// The write-ahead log and everything needed to drive it.
#[derive(Debug)]
struct WalHandle {
    wal: Mutex<Wal>,
    vfs: Arc<dyn Vfs + Send + Sync>,
    durability: Durability,
    /// Highest sequence number known durable — the group-commit gate:
    /// a committer whose sequence is already covered piggybacks on the
    /// fsync another committer issued.
    durable: Mutex<u64>,
}

#[derive(Debug)]
struct Inner {
    /// The evolving algebra — writers mutate it under this mutex.
    primary: Mutex<Database>,
    /// The last committed epoch: what readers snapshot.
    epoch: Mutex<Arc<Database>>,
    /// The durability layer; `None` for volatile handles.
    wal: Option<WalHandle>,
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

/// An immutable snapshot of the last committed epoch, returned by
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

/// Exclusive, *unlogged* access to the primary database, returned by
/// [`SharedDatabase::write`]. Dropping the guard publishes the state
/// as the new committed epoch. Mutations made through it bypass the
/// write-ahead log — prefer [`SharedDatabase::apply`] on durable
/// handles.
#[derive(Debug)]
pub struct WriteGuard<'a> {
    db: MutexGuard<'a, Database>,
    epoch: &'a Mutex<Arc<Database>>,
    /// The epoch this guard's publish superseded. Fields drop in
    /// declaration order, so it is freed only after `db` has released
    /// the writer lock.
    retired: Option<Arc<Database>>,
}

impl Deref for WriteGuard<'_> {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

impl DerefMut for WriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Database {
        &mut self.db
    }
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        // Clone outside the epoch lock: readers must only ever wait
        // for the pointer swap, never for the snapshot construction.
        let next = Arc::new(self.db.snapshot());
        let mut epoch = self.epoch.lock().unwrap_or_else(|p| p.into_inner());
        self.retired = Some(std::mem::replace(&mut *epoch, next));
    }
}

impl SharedDatabase {
    /// Wrap a database for shared, **volatile** use (no write-ahead
    /// log). The handle records its lock-wait metrics into the
    /// database's own registry.
    pub fn new(db: Database) -> Self {
        let obs = db.metrics_registry_arc();
        let epoch = Arc::new(db.snapshot());
        SharedDatabase {
            inner: Arc::new(Inner {
                primary: Mutex::new(db),
                epoch: Mutex::new(epoch),
                wal: None,
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
        vfs: Arc<dyn Vfs + Send + Sync>,
    ) -> Result<(SharedDatabase, LoadReport), DbError> {
        let committed = vfs.exists(&dir.join("CURRENT"));
        let (mut db, report) = if committed {
            // load_dir_vfs replays the WAL tail internally, skipping
            // records already folded into each document's epoch.
            Database::load_dir_vfs(dir, LoadPolicy::Strict, &*vfs)?
        } else {
            vfs.create_dir_all(dir).map_err(|e| DbError::io(dir, e))?;
            (Database::new(), LoadReport::default())
        };
        let wal_dir = dir.join(WAL_SUBDIR);
        let (mut wal, records) = Wal::open(&*vfs, &wal_dir, storage::DEFAULT_ROTATE_BYTES)?;
        if !committed && !records.is_empty() {
            // Crash before the first checkpoint: the log is the only
            // state there is.
            let mut summary = WalReplaySummary::default();
            replay_wal_records(&mut db, &records, |_| 0, LoadPolicy::Strict, &mut summary)?;
            db.note_wal_epoch(summary.max_seq);
        }
        // Sequences stay monotonic across restarts even when a
        // checkpoint truncated the records they were seeded from.
        let epoch_seq = db.persist.lock().unwrap_or_else(|p| p.into_inner()).wal_epoch;
        wal.reserve_seq(epoch_seq.max(wal.last_seq()) + 1);
        let obs = db.metrics_registry_arc();
        let epoch = Arc::new(db.snapshot());
        Ok((
            SharedDatabase {
                inner: Arc::new(Inner {
                    primary: Mutex::new(db),
                    epoch: Mutex::new(epoch),
                    wal: Some(WalHandle {
                        wal: Mutex::new(wal),
                        vfs,
                        durability,
                        durable: Mutex::new(0),
                    }),
                    obs,
                }),
            },
            report,
        ))
    }

    /// Acquire a read snapshot: the complete database state as of the
    /// last committed epoch. Never blocks on writers (beyond the
    /// instant of cloning the epoch pointer) and never observes a
    /// half-applied mutation.
    pub fn read(&self) -> ReadSnapshot {
        let start = self.lock_clock();
        let db = Arc::clone(&self.inner.epoch.lock().unwrap_or_else(|p| p.into_inner()));
        self.record_wait(xsobs::HistogramId::SrvReadLockWait, start);
        ReadSnapshot { db }
    }

    /// Acquire the exclusive writer lock for a direct, unlogged state
    /// transition. The new state is published to readers when the
    /// guard drops. On a durable handle prefer
    /// [`SharedDatabase::apply`], which logs the mutation first.
    pub fn write(&self) -> WriteGuard<'_> {
        let start = self.lock_clock();
        let db = self.inner.primary.lock().unwrap_or_else(|p| p.into_inner());
        self.record_wait(xsobs::HistogramId::SrvWriteLockWait, start);
        WriteGuard { db, epoch: &self.inner.epoch, retired: None }
    }

    /// Commit one mutation: append its record to the write-ahead log,
    /// make it as durable as the [`Durability`] mode promises, apply
    /// it to the primary, and publish the new epoch to readers.
    ///
    /// On a volatile handle (no log) this is apply-and-publish only.
    /// A mutation the database rejects (duplicate name, invalid
    /// document, …) returns the rejection and leaves the state
    /// unchanged; its log record replays as the same rejection and is
    /// skipped by recovery.
    pub fn apply(&self, m: &Mutation) -> Result<ApplyOutcome, DbError> {
        let commit_clock = self.lock_clock();
        let start = self.lock_clock();
        let mut db = self.inner.primary.lock().unwrap_or_else(|p| p.into_inner());
        self.record_wait(xsobs::HistogramId::SrvWriteLockWait, start);
        let seq = match &self.inner.wal {
            Some(w) => {
                let payload = m.encode();
                let mut wal = w.wal.lock().unwrap_or_else(|p| p.into_inner());
                // (the storage layer counts the append into
                // `wal.appends_total`)
                let seq = wal.append(&*w.vfs, &payload)?;
                if w.durability == Durability::Fsync {
                    // Record first, state second: a failed fsync means
                    // the mutation is neither applied nor acknowledged.
                    let high = wal.sync(&*w.vfs)?;
                    let mut durable = w.durable.lock().unwrap_or_else(|p| p.into_inner());
                    *durable = (*durable).max(high);
                }
                Some(seq)
            }
            None => None,
        };
        let outcome = m.apply(&mut db)?;
        if let Some(seq) = seq {
            db.note_wal_epoch(seq);
        }
        // As in `WriteGuard::drop`: build the snapshot before taking
        // the epoch lock, so readers wait only for a pointer swap.
        let next = Arc::new(db.snapshot());
        let mut epoch = self.inner.epoch.lock().unwrap_or_else(|p| p.into_inner());
        let retired = std::mem::replace(&mut *epoch, next);
        drop(epoch);
        drop(db);
        // Free the superseded epoch outside both locks: when no reader
        // still holds it, this drop releases every block the new epoch
        // copied, and neither readers nor the next writer wait for that.
        drop(retired);
        if let (Some(w), Some(seq)) = (&self.inner.wal, seq) {
            if w.durability == Durability::Group {
                // The group-commit gate: whoever arrives first fsyncs
                // for everyone appended so far; the rest see their
                // sequence already covered and return immediately.
                let mut durable = w.durable.lock().unwrap_or_else(|p| p.into_inner());
                if *durable < seq {
                    let mut wal = w.wal.lock().unwrap_or_else(|p| p.into_inner());
                    let high = wal.sync(&*w.vfs)?;
                    *durable = (*durable).max(high);
                }
            }
        }
        if let Some(t) = commit_clock {
            if self.inner.wal.is_some() {
                self.inner.obs.observe(xsobs::HistogramId::WalCommit, t.elapsed());
            }
        }
        Ok(outcome)
    }

    /// Checkpoint into `dir`: fold the in-memory state into the paged
    /// store ([`Database::save_dir`], incremental when bound) and then
    /// truncate the write-ahead log. Runs under the writer lock —
    /// concurrent readers keep their snapshots; a crash between the
    /// save and the truncate is harmless (the surviving records are
    /// skipped via their epochs on replay).
    pub fn checkpoint(&self, dir: impl AsRef<Path>) -> Result<(), DbError> {
        let obs = &self.inner.obs;
        let global = xsobs::global();
        let pages_before = global.snapshot().counter(xsobs::CounterId::StoragePageWrites);
        let db = self.inner.primary.lock().unwrap_or_else(|p| p.into_inner());
        match &self.inner.wal {
            Some(w) => {
                db.save_dir_vfs(dir.as_ref(), &*w.vfs)?;
                let mut wal = w.wal.lock().unwrap_or_else(|p| p.into_inner());
                wal.truncate(&*w.vfs)?;
            }
            None => db.save_dir(dir)?,
        }
        let pages_after = global.snapshot().counter(xsobs::CounterId::StoragePageWrites);
        obs.incr(xsobs::CounterId::WalCheckpoints);
        obs.add(xsobs::CounterId::WalCheckpointPages, pages_after.saturating_sub(pages_before));
        Ok(())
    }

    /// Whether this handle carries a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.inner.wal.is_some()
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

    #[test]
    fn clones_see_each_others_writes() {
        let a = shared();
        let b = a.clone();
        a.write().insert("d", "s", "<n>x</n>").unwrap();
        assert_eq!(b.read().query("d", "/n").unwrap(), ["x"]);
        assert!(b.write().delete("d"));
        assert!(a.read().is_empty());
    }

    #[test]
    fn concurrent_readers_share_the_lock() {
        let sh = shared();
        sh.write().insert("d", "s", "<n>x</n>").unwrap();
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
        drop(sh.read());
        drop(sh.write());
        let snap = sh.metrics();
        assert_eq!(snap.histogram(xsobs::HistogramId::SrvReadLockWait).count, 1);
        assert_eq!(snap.histogram(xsobs::HistogramId::SrvWriteLockWait).count, 1);
    }

    #[test]
    fn disabled_registry_records_no_lock_waits() {
        let reg = Arc::new(xsobs::Registry::disabled());
        let sh = SharedDatabase::new(Database::with_metrics_registry(Arc::clone(&reg)));
        drop(sh.read());
        drop(sh.write());
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
        sh.apply(&Mutation::UpdateSetText {
            doc: "d".into(),
            xpath: "/n".into(),
            value: "after".into(),
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
        // …and recovery over the log (which contains its record)
        // reproduces the accepted state.
        drop(sh);
        let (again, _) = SharedDatabase::open_durable(&dir, Durability::Fsync).unwrap();
        assert_eq!(again.read().query("d", "/n").unwrap(), ["v"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_commits_survive_without_a_checkpoint() {
        let dir = temp_dir("durable");
        for durability in [Durability::Fsync, Durability::Group] {
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
        sh.checkpoint(&dir).unwrap();
        // The log is empty after a checkpoint…
        let wal_dir = dir.join(WAL_SUBDIR);
        let leftover = storage::wal::replay(&StdVfs, &wal_dir).unwrap();
        assert!(leftover.is_empty(), "{leftover:?}");
        // …and post-checkpoint commits land in the fresh tail.
        sh.apply(&Mutation::UpdateSetText {
            doc: "d".into(),
            xpath: "/n".into(),
            value: "b".into(),
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
    fn durability_mode_parsing() {
        assert_eq!("fsync".parse::<Durability>().unwrap(), Durability::Fsync);
        assert_eq!("group".parse::<Durability>().unwrap(), Durability::Group);
        assert_eq!("async".parse::<Durability>().unwrap(), Durability::Async);
        assert!("never".parse::<Durability>().is_err());
    }
}
