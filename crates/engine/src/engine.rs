//! The engine proper: transactions, reads, writes, checkpoints, crash
//! simulation, and the compliance seams.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ccdb_btree::{BTree, SplitPolicy, StructureHooks, TimeRank};
use ccdb_common::sync::{Mutex, RwLock};
use ccdb_common::{ClockRef, Duration, Error, Lsn, RelId, Result, Timestamp, TxnId};
use ccdb_storage::{BufferPool, BufferStats, DiskManager, PageStore, TupleVersion, WriteTime};
use ccdb_wal::log::MasterRecord;
use ccdb_wal::{PageOp, PageOpSink, RelMetaOp, WalRecord, WalWriter};

use crate::catalog::Catalog;
use crate::commit::CommitPipeline;
use crate::hooks::EngineHooks;
use crate::recovery::{self, RecoveryReport};

/// Default bound on the lazy-timestamping queue before committers start
/// draining it incrementally (see [`EngineConfig::stamp_queue_limit`]).
pub const DEFAULT_STAMP_QUEUE_LIMIT: usize = 1024;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Directory holding the database file, WAL, master record, catalog.
    pub dir: PathBuf,
    /// Buffer-pool capacity in 4 KiB pages.
    pub cache_pages: usize,
    /// Whether WAL flushes fsync (benchmarks disable; the workspace crash
    /// model is process-level).
    pub fsync: bool,
    /// Group commit: committers enqueue their WAL record and a leader
    /// flushes the whole batch with one fsync + one WORM tail-mirror
    /// append. Disabling reverts to one flush per commit (the baseline).
    pub group_commit: bool,
    /// How long a flush leader stalls waiting for the batch to fill (µs).
    /// 0 flushes immediately — batching still happens naturally because
    /// followers accumulate while the leader's fsync is in flight.
    pub flush_interval_us: u64,
    /// Target batch size that ends the leader's stall early.
    pub group_size: usize,
    /// Lazy-timestamping queue bound: beyond this, committers drain the
    /// queue incrementally instead of waiting for the next checkpoint.
    pub stamp_queue_limit: usize,
}

impl EngineConfig {
    /// Convenience constructor (fsync on, group commit on).
    pub fn new(dir: impl Into<PathBuf>, cache_pages: usize) -> EngineConfig {
        EngineConfig {
            dir: dir.into(),
            cache_pages,
            fsync: true,
            group_commit: true,
            flush_interval_us: 0,
            group_size: 8,
            stamp_queue_limit: DEFAULT_STAMP_QUEUE_LIMIT,
        }
    }

    /// Disables fsync (benchmark configurations).
    pub fn no_fsync(mut self) -> EngineConfig {
        self.fsync = false;
        self
    }

    /// Disables group commit (per-commit flush — the pre-pipeline baseline).
    pub fn no_group_commit(mut self) -> EngineConfig {
        self.group_commit = false;
        self
    }

    /// Sets the leader's batch-formation stall and target batch size.
    pub fn group_commit_window(
        mut self,
        flush_interval_us: u64,
        group_size: usize,
    ) -> EngineConfig {
        self.flush_interval_us = flush_interval_us;
        self.group_size = group_size;
        self
    }
}

/// Aggregate engine statistics for the experiment harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Buffer-pool counters.
    pub buffer: BufferStats,
    /// Buffer-pool hit rate (0.0 when no fetches yet).
    pub buffer_hit_rate: f64,
    /// WAL length in bytes.
    pub wal_bytes: u64,
    /// Pages ever allocated in the database file.
    pub db_pages: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted.
    pub aborts: u64,
    /// Group-commit batches flushed (each is one fsync + one tail-mirror
    /// append).
    pub group_commit_batches: u64,
    /// Transactions made durable through the group-commit pipeline.
    pub group_commit_txns: u64,
    /// Fsyncs avoided by batching (`group_commit_txns - group_commit_batches`).
    pub fsyncs_saved: u64,
    /// Current lazy-timestamping queue length.
    pub stamp_queue_len: usize,
    /// Transactions currently in flight (begun, neither committed nor
    /// aborted).
    pub active_txns: u64,
}

/// Number of shards in the active-transaction table.
const TXN_SHARDS: usize = 16;

/// Sharded map of active transactions: commits/aborts/writes of different
/// transactions touch different shards and never contend.
struct TxnTable {
    shards: Vec<Mutex<HashMap<TxnId, TxnState>>>,
    /// Lock-free mirror of the total entry count, so [`EngineStats`] and the
    /// service layer's admission/metrics paths can read the in-flight
    /// transaction count without touching any shard lock.
    count: AtomicU64,
}

impl TxnTable {
    fn new() -> TxnTable {
        TxnTable {
            shards: (0..TXN_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            count: AtomicU64::new(0),
        }
    }

    fn shard(&self, txn: TxnId) -> &Mutex<HashMap<TxnId, TxnState>> {
        &self.shards[(txn.0 as usize) % TXN_SHARDS]
    }

    fn insert(&self, txn: TxnId, state: TxnState) {
        if self.shard(txn).lock().insert(txn, state).is_none() {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn remove(&self, txn: TxnId) -> Option<TxnState> {
        let removed = self.shard(txn).lock().remove(&txn);
        if removed.is_some() {
            self.count.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    fn contains(&self, txn: TxnId) -> bool {
        self.shard(txn).lock().contains_key(&txn)
    }

    fn track_write(&self, txn: TxnId, rel: RelId, key: &[u8]) -> Result<()> {
        let mut shard = self.shard(txn).lock();
        let state = shard
            .get_mut(&txn)
            .ok_or_else(|| Error::InvalidTransactionState(format!("{txn} is not active")))?;
        if state.prepared {
            return Err(Error::InvalidTransactionState(format!(
                "{txn} is prepared (2PC) and may no longer write"
            )));
        }
        state.writes.push((rel, key.to_vec()));
        Ok(())
    }

    /// Marks `txn` prepared; errors if it is not active or already prepared.
    fn set_prepared(&self, txn: TxnId) -> Result<()> {
        let mut shard = self.shard(txn).lock();
        let state = shard
            .get_mut(&txn)
            .ok_or_else(|| Error::InvalidTransactionState(format!("{txn} is not active")))?;
        if state.prepared {
            return Err(Error::InvalidTransactionState(format!("{txn} is already prepared")));
        }
        state.prepared = true;
        Ok(())
    }

    /// Transactions currently in the prepared (in-doubt) state, sorted.
    fn prepared(&self) -> Vec<TxnId> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().iter().filter(|(_, st)| st.prepared).map(|(t, _)| *t));
        }
        out.sort();
        out
    }

    fn len(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Lock-free: whether any transaction is tracked, per the mirror count.
    /// Used on the commit hot path as the group-commit contention hint;
    /// [`TxnTable::is_empty`] is the shard-locked exact check.
    fn any_active(&self) -> bool {
        self.count.load(Ordering::Relaxed) != 0
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    fn active(&self) -> Vec<(TxnId, Lsn)> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.lock().iter().map(|(t, st)| (*t, st.begin_lsn)));
        }
        out
    }

    fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
        self.count.store(0, Ordering::Relaxed);
    }
}

/// The built-in relation holding per-relation retention periods — the
/// paper's **Expiry relation** (Section VIII), stored as an ordinary
/// transaction-time relation so changes to retention policy are themselves
/// auditable.
pub const EXPIRY_RELATION: &str = "sys.expiry";

struct TxnState {
    begin_lsn: Lsn,
    writes: Vec<(RelId, Vec<u8>)>,
    /// In the prepared state of a cross-shard two-phase commit: writes are
    /// durable, further writes are rejected, and only a coordinator
    /// decision (commit or abort) may resolve the transaction.
    prepared: bool,
}

pub(crate) struct EngineSink {
    wal: Arc<WalWriter>,
}

impl PageOpSink for EngineSink {
    fn log_page_op(&self, txn: TxnId, op: &PageOp) -> Result<Lsn> {
        self.wal.append(&WalRecord::Page { txn, op: op.clone() })
    }

    fn log_rel_meta(&self, rel: RelId, meta: &RelMetaOp) -> Result<Lsn> {
        self.wal.append(&WalRecord::RelMeta { rel, meta: *meta })
    }
}

/// The transaction-time database engine.
///
/// # Lock hierarchy (acquire top-to-bottom, never upward)
///
/// 1. engine maps — `catalog` / `trees` / `txns` shard / `commit_times`
/// 2. tree operation lock (`BTree::op`, per relation)
/// 3. buffer-pool shard lock
/// 4. page latch (`PageRef` RwLock)
/// 5. WAL writer internal lock (via append / the pool's write barrier)
///
/// The commit pipeline's locks rank with the engine maps (level 1) and are
/// never held while taking a tree or pool lock. See DESIGN.md §9.
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    pub(crate) clock: ClockRef,
    pub(crate) disk: Arc<DiskManager>,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) wal: Arc<WalWriter>,
    pub(crate) master: MasterRecord,
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) trees: RwLock<HashMap<RelId, Arc<BTree>>>,
    txns: TxnTable,
    /// Commit times of transactions whose versions are not all stamped yet.
    /// Readers resolve `Pending` versions here without blocking writers.
    pub(crate) commit_times: RwLock<HashMap<TxnId, Timestamp>>,
    /// Lazy-timestamping work queue (FIFO: drained front-first so stamping
    /// respects commit order).
    #[allow(clippy::type_complexity)]
    stamp_queue: Mutex<VecDeque<(TxnId, Timestamp, Vec<(RelId, Vec<u8>)>)>>,
    /// Lock-free mirror of `stamp_queue.len()` for [`EngineStats`].
    stamp_queue_depth: AtomicUsize,
    /// Serializes stampers (checkpoint drains vs incremental drains).
    stamper: Mutex<()>,
    /// Group-commit coordination (sequencing, leader flush, finalize order).
    pipeline: CommitPipeline,
    pub(crate) next_txn: AtomicU64,
    last_commit_us: AtomicU64,
    pub(crate) hooks: RwLock<Option<Arc<dyn EngineHooks>>>,
    pub(crate) tree_hooks: RwLock<Option<Arc<dyn StructureHooks>>>,
    sink: Arc<EngineSink>,
    commits: AtomicU64,
    aborts: AtomicU64,
    /// Report of the recovery performed at open (None for a clean start).
    pub(crate) recovery_report: Mutex<Option<RecoveryReport>>,
}

impl Engine {
    /// Opens (or creates) a database with a bare disk store.
    pub fn open(cfg: EngineConfig, clock: ClockRef) -> Result<Engine> {
        Engine::open_wrapped(cfg, clock, |d| d, None, None)
    }

    /// Opens a database, letting the caller wrap the page store (the
    /// compliance plugin) and install hooks *before* recovery runs — crash
    /// recovery must itself be compliance-logged.
    pub fn open_wrapped(
        cfg: EngineConfig,
        clock: ClockRef,
        wrap: impl FnOnce(Arc<DiskManager>) -> Arc<dyn PageStore>,
        engine_hooks: Option<Arc<dyn EngineHooks>>,
        tree_hooks: Option<Arc<dyn StructureHooks>>,
    ) -> Result<Engine> {
        let disk = Self::open_disk(&cfg)?;
        let store = wrap(disk.clone());
        Engine::open_with_store(cfg, clock, disk, store, engine_hooks, tree_hooks)
    }

    /// Opens the database file for a directory (so callers can build a page
    /// store wrapper — the compliance plugin — before opening the engine).
    pub fn open_disk(cfg: &EngineConfig) -> Result<Arc<DiskManager>> {
        std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| Error::io("creating database directory", e))?;
        Ok(Arc::new(DiskManager::open(cfg.dir.join("db.pages"))?))
    }

    /// Opens a database over a pre-built store stack. `disk` must be the
    /// manager underlying `store`.
    pub fn open_with_store(
        cfg: EngineConfig,
        clock: ClockRef,
        disk: Arc<DiskManager>,
        store: Arc<dyn PageStore>,
        engine_hooks: Option<Arc<dyn EngineHooks>>,
        tree_hooks: Option<Arc<dyn StructureHooks>>,
    ) -> Result<Engine> {
        let pool = Arc::new(BufferPool::new(store, clock.clone(), cfg.cache_pages));
        let wal = Arc::new(WalWriter::open(cfg.dir.join("wal.log"))?);
        wal.set_sync(cfg.fsync);
        {
            let wal_for_barrier = wal.clone();
            pool.set_write_barrier(Arc::new(move |page: &ccdb_storage::Page| {
                wal_for_barrier.flush_up_to(page.lsn())
            }));
        }
        let master = MasterRecord::at(cfg.dir.join("wal.master"));
        let catalog = Catalog::load(&cfg.dir.join("catalog.bin"))?;
        let next_txn = catalog.txn_high_water.max(1);
        let sink = Arc::new(EngineSink { wal: wal.clone() });
        let marker = cfg.dir.join("clean.shutdown");
        let was_clean = marker.exists();
        if was_clean {
            let _ = std::fs::remove_file(&marker);
        }
        let engine = Engine {
            cfg,
            clock,
            disk,
            pool,
            wal,
            master,
            catalog: RwLock::new(catalog),
            trees: RwLock::new(HashMap::new()),
            txns: TxnTable::new(),
            commit_times: RwLock::new(HashMap::new()),
            stamp_queue: Mutex::new(VecDeque::new()),
            stamp_queue_depth: AtomicUsize::new(0),
            stamper: Mutex::new(()),
            pipeline: CommitPipeline::new(),
            next_txn: AtomicU64::new(next_txn),
            last_commit_us: AtomicU64::new(0),
            hooks: RwLock::new(engine_hooks),
            tree_hooks: RwLock::new(tree_hooks),
            sink,
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            recovery_report: Mutex::new(None),
        };
        let has_log = engine.wal.end_lsn() > Lsn::ZERO;
        if has_log {
            let unclean = !was_clean;
            let report = recovery::run(&engine, unclean)?;
            *engine.recovery_report.lock() = Some(report);
        } else {
            engine.build_trees()?;
        }
        if engine.catalog.read().by_name(EXPIRY_RELATION).is_none() {
            engine.create_relation(EXPIRY_RELATION, SplitPolicy::KeyOnly)?;
        }
        Ok(engine)
    }

    /// Instantiates `BTree` handles for every cataloged relation.
    pub(crate) fn build_trees(&self) -> Result<()> {
        let mut trees = self.trees.write();
        trees.clear();
        let catalog = self.catalog.read();
        for info in catalog.relations() {
            let tree = Arc::new(BTree::open(
                self.pool.clone(),
                self.clock.clone(),
                info.rel,
                info.policy,
                info.root,
                info.historical.clone(),
            ));
            tree.set_sink(self.sink.clone());
            if let Some(h) = self.tree_hooks.read().clone() {
                tree.set_hooks(h);
            }
            trees.insert(info.rel, tree);
        }
        Ok(())
    }

    // --- catalog ----------------------------------------------------------

    /// Creates a relation. The fresh root page is force-logged and flushed so
    /// recovery can always rebuild the tree.
    pub fn create_relation(&self, name: &str, policy: SplitPolicy) -> Result<RelId> {
        let tree = BTree::create(self.pool.clone(), self.clock.clone(), RelId(0), policy)?;
        let root = tree.root();
        // Log + flush the root page image so the relation is recoverable.
        {
            let frame = self.pool.fetch(root)?;
            let mut page = frame.write();
            let rel_placeholder = page.rel_id();
            let _ = rel_placeholder;
            let lsn = self.wal.append(&WalRecord::Page {
                txn: TxnId::NONE,
                op: PageOp::SetImage { pgno: root, image: page.as_bytes().to_vec() },
            })?;
            page.set_lsn(lsn);
        }
        let rel = {
            let mut catalog = self.catalog.write();
            let rel = catalog.create(name, policy, root)?;
            catalog.save(&self.catalog_path())?;
            rel
        };
        // Rebuild the tree handle with the real RelId and fix the root page's
        // relation field.
        {
            let frame = self.pool.fetch(root)?;
            let mut page = frame.write();
            page.set_rel_id(rel);
            let lsn = self.wal.append(&WalRecord::Page {
                txn: TxnId::NONE,
                op: PageOp::SetImage { pgno: root, image: page.as_bytes().to_vec() },
            })?;
            page.set_lsn(lsn);
            self.pool.mark_dirty(&mut page);
        }
        self.wal.flush()?;
        self.pool.flush_page(root)?;
        let tree = Arc::new(BTree::open(
            self.pool.clone(),
            self.clock.clone(),
            rel,
            policy,
            root,
            Vec::new(),
        ));
        tree.set_sink(self.sink.clone());
        if let Some(h) = self.tree_hooks.read().clone() {
            tree.set_hooks(h);
        }
        self.trees.write().insert(rel, tree);
        Ok(rel)
    }

    /// Resolves a relation name.
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.catalog.read().by_name(name).map(|i| i.rel)
    }

    /// The tree handle for a relation.
    pub fn tree(&self, rel: RelId) -> Result<Arc<BTree>> {
        self.trees
            .read()
            .get(&rel)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("relation {rel}")))
    }

    /// Names and ids of all user relations (excluding `sys.*`).
    pub fn user_relations(&self) -> Vec<(String, RelId)> {
        self.catalog
            .read()
            .relations()
            .filter(|i| !i.name.starts_with("sys."))
            .map(|i| (i.name.clone(), i.rel))
            .collect()
    }

    fn catalog_path(&self) -> PathBuf {
        self.cfg.dir.join("catalog.bin")
    }

    /// Synchronizes catalog root/historical fields from the live trees and
    /// persists it.
    pub(crate) fn save_catalog(&self) -> Result<()> {
        let trees = self.trees.read();
        let mut catalog = self.catalog.write();
        for (rel, tree) in trees.iter() {
            if let Some(info) = catalog.get_mut(*rel) {
                info.root = tree.root();
                info.historical = tree.historical_pages();
            }
        }
        catalog.txn_high_water = self.next_txn.load(Ordering::SeqCst);
        catalog.save(&self.catalog_path())
    }

    // --- transactions -------------------------------------------------------

    /// Starts a transaction.
    pub fn begin(&self) -> Result<TxnId> {
        let txn = TxnId(self.next_txn.fetch_add(1, Ordering::SeqCst) + 1);
        let begin_lsn = self.wal.append(&WalRecord::Begin { txn })?;
        self.txns.insert(txn, TxnState { begin_lsn, writes: Vec::new(), prepared: false });
        if let Some(h) = self.hooks.read().clone() {
            h.on_begin(txn)?;
        }
        Ok(txn)
    }

    fn tree_and_track(&self, txn: TxnId, rel: RelId, key: &[u8]) -> Result<Arc<BTree>> {
        self.txns.track_write(txn, rel, key)?;
        self.tree(rel)
    }

    /// Writes a new version of `(rel, key)` within `txn`. INSERT and UPDATE
    /// are the same operation in a transaction-time database.
    pub fn write(&self, txn: TxnId, rel: RelId, key: &[u8], value: &[u8]) -> Result<()> {
        self.wal.append(&WalRecord::Insert {
            txn,
            rel,
            key: key.to_vec(),
            end_of_life: false,
            value: value.to_vec(),
        })?;
        let tree = self.tree_and_track(txn, rel, key)?;
        tree.insert(key, WriteTime::Pending(txn), false, value.to_vec())
    }

    /// Deletes `(rel, key)` within `txn` by inserting an end-of-life version.
    pub fn delete(&self, txn: TxnId, rel: RelId, key: &[u8]) -> Result<()> {
        self.wal.append(&WalRecord::Insert {
            txn,
            rel,
            key: key.to_vec(),
            end_of_life: true,
            value: Vec::new(),
        })?;
        let tree = self.tree_and_track(txn, rel, key)?;
        tree.insert(key, WriteTime::Pending(txn), true, Vec::new())
    }

    /// Commits `txn`, returning its commit time. The commit time is strictly
    /// greater than every earlier commit time (required for version order and
    /// the auditor's commit-time monotonicity check).
    ///
    /// The commit runs through the three-phase group-commit pipeline (see
    /// `commit.rs`): **sequence** (timestamp + WAL append + ticket, one
    /// critical section so all three orders coincide), **group durability**
    /// (leader flushes the batch with a single fsync + a single WORM
    /// tail-mirror append; followers park), and **ticket-ordered finalize**
    /// (publish the commit time, enqueue stamping work, fire `on_commit` —
    /// so `STAMP_TRANS` records reach the compliance log in commit order).
    ///
    /// An error leaves the commit outcome *indeterminate*: the record may or
    /// may not have become durable before the failure (same contract as the
    /// previous per-commit `append_flush` path; the crash-torture harness
    /// models this as "uncertain").
    pub fn commit(&self, txn: TxnId) -> Result<Timestamp> {
        let state = self
            .txns
            .remove(txn)
            .ok_or_else(|| Error::InvalidTransactionState(format!("{txn} is not active")))?;

        // Phase 1: sequence. Timestamp order == WAL order == ticket order.
        let ((t, lsn), ticket) = self.pipeline.sequence(|| {
            let now = self.clock.now().0;
            let prev = self
                .last_commit_us
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |last| Some(now.max(last + 1)))
                .expect("fetch_update closure always returns Some");
            let t = Timestamp(now.max(prev + 1));
            let lsn = self.wal.append(&WalRecord::Commit { txn, commit_time: t })?;
            Ok((t, lsn))
        })?;

        // Phase 2: group durability (or the per-commit-flush baseline).
        // "Other transactions are open" is the contention hint that lets an
        // uncontended leader skip the batch-formation stall (our own txn was
        // already removed from the table above, so the count is only peers).
        let durable = if self.cfg.group_commit {
            self.pipeline.wait_durable(
                &self.wal,
                lsn,
                self.cfg.flush_interval_us,
                self.cfg.group_size,
                self.txns.any_active(),
            )
        } else {
            self.wal.flush()
        };

        // Phase 3: finalize in ticket order. The turn advances even on
        // failure, otherwise later committers would wait forever.
        let turn = self.pipeline.await_turn(ticket);
        let result = (|| {
            durable?;
            self.commit_times.write().insert(txn, t);
            self.stamp_queue.lock().push_back((txn, t, state.writes));
            self.stamp_queue_depth.fetch_add(1, Ordering::Relaxed);
            self.commits.fetch_add(1, Ordering::Relaxed);
            if let Some(h) = self.hooks.read().clone() {
                h.on_commit(txn, t)?;
            }
            Ok(t)
        })();
        self.pipeline.finish_turn(turn);

        if result.is_ok() {
            self.maybe_drain_stamp_queue()?;
        }
        result
    }

    /// Prepares `txn` for a cross-shard two-phase commit: flushes the WAL up
    /// to (and including) a `Prepare` record, after which the transaction is
    /// **in-doubt** — it may no longer write, and only the coordinator's
    /// decision resolves it through the ordinary [`Engine::commit`] /
    /// [`Engine::abort`] paths. The prepared state survives a crash:
    /// recovery re-registers prepared transactions instead of rolling them
    /// back, and the reopened engine refuses to quiesce until each is
    /// resolved.
    pub fn prepare(&self, txn: TxnId) -> Result<()> {
        self.txns.set_prepared(txn)?;
        self.wal.append_flush(&WalRecord::Prepare { txn })?;
        Ok(())
    }

    /// Transactions in the prepared (in-doubt) state, sorted — after a crash
    /// these are the transactions whose fate the 2PC coordinator must drive
    /// to a decision before the shard can quiesce.
    pub fn indoubt_txns(&self) -> Vec<TxnId> {
        self.txns.prepared()
    }

    /// Re-registers an in-doubt transaction found by crash recovery: its
    /// pending versions were redone and kept, its write set rebuilt from the
    /// WAL. The transaction occupies its original id in the table (marked
    /// prepared) so the normal commit/abort paths can resolve it.
    pub(crate) fn reinstate_indoubt(
        &self,
        txn: TxnId,
        begin_lsn: Lsn,
        writes: Vec<(RelId, Vec<u8>)>,
    ) {
        self.txns.insert(txn, TxnState { begin_lsn, writes, prepared: true });
    }

    /// Aborts `txn`, rolling back its writes (physical removal of its pending
    /// versions — in a transaction-time DB an aborted write never existed).
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let state = self
            .txns
            .remove(txn)
            .ok_or_else(|| Error::InvalidTransactionState(format!("{txn} is not active")))?;
        for (rel, key) in state.writes.iter().rev() {
            let tree = self.tree(*rel)?;
            // Remove every pending version this txn wrote under the key
            // (idempotent; multiple writes leave multiple versions).
            while tree.remove_version(key, TimeRank::pending(txn))?.is_some() {}
        }
        self.wal.append_flush(&WalRecord::Abort { txn })?;
        self.aborts.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = self.hooks.read().clone() {
            h.on_abort(txn)?;
        }
        Ok(())
    }

    // --- reads --------------------------------------------------------------

    fn resolve_commit(&self, time: WriteTime) -> Option<Timestamp> {
        match time {
            WriteTime::Committed(t) => Some(t),
            WriteTime::Pending(writer) => self.commit_times.read().get(&writer).copied(),
        }
    }

    /// Reads the current version of `(rel, key)` as seen by `txn`
    /// (own pending writes are visible; other in-flight writes are not).
    ///
    /// Concurrency note: between snapshotting the version chain and checking
    /// `commit_times`, the lazy stamper may stamp a committed writer's
    /// version (`Pending(w)` → `Committed(t)`) and retire `w` from
    /// `commit_times`. The stale snapshot would then hide an acknowledged
    /// commit. Detect the signature of that race — a skipped `Pending`
    /// version whose writer is neither active nor awaiting stamping — and
    /// re-read; aborting writers can trigger a harmless extra pass.
    pub fn read(&self, txn: TxnId, rel: RelId, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let tree = self.tree(rel)?;
        let mut out: Option<Vec<u8>> = None;
        for attempt in 0..3 {
            let versions = tree.versions(key)?;
            // Newest-first scan; `racy` records a skipped Pending version
            // *newer* than the one returned.
            let mut racy = false;
            out = None;
            for v in versions.iter().rev() {
                let visible = match v.time {
                    WriteTime::Pending(writer) => {
                        let vis = writer == txn || self.commit_times.read().contains_key(&writer);
                        if !vis && !self.txns.contains(writer) {
                            // Writer is gone: either stamped meanwhile
                            // (race) or mid-abort (benign). Re-read to
                            // disambiguate.
                            racy = true;
                        }
                        vis
                    }
                    WriteTime::Committed(_) => true,
                };
                if visible {
                    if !v.end_of_life {
                        out = Some(v.value.clone());
                    }
                    break;
                }
            }
            if !racy || attempt == 2 {
                break;
            }
        }
        Ok(out)
    }

    /// Reads the latest committed version (no transaction context).
    pub fn read_latest(&self, rel: RelId, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.read(TxnId::NONE, rel, key)
    }

    /// Temporal read: the value of `(rel, key)` as of time `t`, consulting
    /// both the live tree and on-disk historical (time-split) pages.
    #[allow(clippy::type_complexity)]
    pub fn read_as_of(&self, rel: RelId, key: &[u8], t: Timestamp) -> Result<Option<Vec<u8>>> {
        let mut best: Option<(Timestamp, bool, Vec<u8>)> = None;
        let mut consider = |v: &TupleVersion, commit: Timestamp| {
            if commit <= t && best.as_ref().map(|(bt, _, _)| commit > *bt).unwrap_or(true) {
                best = Some((commit, v.end_of_life, v.value.clone()));
            }
        };
        let tree = self.tree(rel)?;
        for v in tree.versions(key)? {
            if let Some(ct) = self.resolve_commit(v.time) {
                consider(&v, ct);
            }
        }
        for v in self.historical_versions(rel, key)? {
            if let Some(ct) = self.resolve_commit(v.time) {
                consider(&v, ct);
            }
        }
        Ok(best.and_then(|(_, eol, val)| if eol { None } else { Some(val) }))
    }

    /// All versions of `(rel, key)` on historical (time-split) pages still on
    /// conventional media.
    pub fn historical_versions(&self, rel: RelId, key: &[u8]) -> Result<Vec<TupleVersion>> {
        let tree = self.tree(rel)?;
        let mut out = Vec::new();
        for pgno in tree.historical_pages() {
            let frame = self.pool.fetch(pgno)?;
            let page = frame.read();
            for cell in page.cells() {
                let v = TupleVersion::decode_cell(cell)?;
                if v.key == key {
                    out.push(v);
                }
            }
        }
        Ok(out)
    }

    /// Scans the current committed version of every key in `[lo, hi]`
    /// (inclusive), as seen by `txn`.
    #[allow(clippy::type_complexity)]
    pub fn range_current(
        &self,
        txn: TxnId,
        rel: RelId,
        lo: &[u8],
        hi: &[u8],
        f: &mut dyn FnMut(&[u8], &[u8]) -> Result<()>,
    ) -> Result<()> {
        let tree = self.tree(rel)?;
        let mut current_key: Option<Vec<u8>> = None;
        let mut current_best: Option<TupleVersion> = None;
        #[allow(clippy::type_complexity)]
        let mut emit = |key: &Option<Vec<u8>>, best: &Option<TupleVersion>| -> Result<()> {
            if let (Some(k), Some(v)) = (key, best) {
                if !v.end_of_life {
                    f(k, &v.value)?;
                }
            }
            Ok(())
        };
        tree.scan_range((lo, TimeRank::MIN), (hi, TimeRank::MAX), &mut |v| {
            if current_key.as_deref() != Some(&v.key[..]) {
                emit(&current_key, &current_best)?;
                current_key = Some(v.key.clone());
                current_best = None;
            }
            let visible = match v.time {
                WriteTime::Pending(writer) => {
                    writer == txn || self.commit_times.read().contains_key(&writer)
                }
                WriteTime::Committed(_) => true,
            };
            if visible {
                current_best = Some(v.clone());
            }
            Ok(())
        })?;
        emit(&current_key, &current_best)?;
        Ok(())
    }

    // --- retention (the Expiry relation) -------------------------------------

    /// Sets the retention period for `rel_name` (a write to the Expiry
    /// relation inside `txn`, so the change is itself version-tracked and
    /// auditable).
    pub fn set_retention(&self, txn: TxnId, rel_name: &str, period: Duration) -> Result<()> {
        let expiry =
            self.rel_id(EXPIRY_RELATION).ok_or_else(|| Error::NotFound(EXPIRY_RELATION.into()))?;
        self.write(txn, expiry, rel_name.as_bytes(), &period.0.to_le_bytes())
    }

    /// The current retention period for `rel_name`, if one is set.
    pub fn retention(&self, rel_name: &str) -> Result<Option<Duration>> {
        let expiry =
            self.rel_id(EXPIRY_RELATION).ok_or_else(|| Error::NotFound(EXPIRY_RELATION.into()))?;
        Ok(self.read_latest(expiry, rel_name.as_bytes())?.map(|v| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&v[..8]);
            Duration(u64::from_le_bytes(b))
        }))
    }

    // --- maintenance ----------------------------------------------------------

    /// Runs the lazy timestamper: stamps the pending versions of committed
    /// transactions. Returns the number of versions stamped. Stampers are
    /// serialized by an internal mutex; the queue is drained front-first so
    /// stamping respects commit order.
    pub fn run_stamper(&self) -> Result<usize> {
        let _serial = self.stamper.lock();
        self.drain_stamps(usize::MAX)
    }

    /// Incremental stamp-queue drain invoked by committers when the queue
    /// exceeds [`EngineConfig::stamp_queue_limit`]: drains it down to half
    /// the limit so a long-running workload cannot grow it without bound.
    /// Skips silently when another stamper holds the serializing mutex.
    fn maybe_drain_stamp_queue(&self) -> Result<()> {
        let limit = self.cfg.stamp_queue_limit;
        if limit == 0 || self.stamp_queue.lock().len() <= limit {
            return Ok(());
        }
        let Some(_serial) = self.stamper.try_lock() else {
            return Ok(()); // someone else is already draining
        };
        let len = self.stamp_queue.lock().len();
        let target = limit / 2;
        if len > target {
            self.drain_stamps(len - target)?;
        }
        Ok(())
    }

    /// Stamps up to `max_txns` queued transactions (front-first). Caller
    /// must hold the `stamper` mutex.
    fn drain_stamps(&self, max_txns: usize) -> Result<usize> {
        let mut stamped = 0;
        let mut drained = 0;
        while drained < max_txns {
            let Some((txn, t, writes)) = self.stamp_queue.lock().pop_front() else {
                break;
            };
            self.stamp_queue_depth.fetch_sub(1, Ordering::Relaxed);
            drained += 1;
            let mut seen: Vec<(RelId, &[u8])> = Vec::new();
            for (rel, key) in &writes {
                if seen.contains(&(*rel, key.as_slice())) {
                    continue;
                }
                seen.push((*rel, key.as_slice()));
                let tree = self.tree(*rel)?;
                stamped += tree.stamp(key, txn, t)?;
            }
            self.commit_times.write().remove(&txn);
        }
        Ok(stamped)
    }

    /// Current lazy-timestamping queue length (bounded-queue regression
    /// tests and [`EngineStats`]); lock-free.
    pub fn stamp_queue_len(&self) -> usize {
        self.stamp_queue_depth.load(Ordering::Relaxed)
    }

    /// Transactions currently in flight; lock-free (the service layer polls
    /// this from admission control and the metrics scraper).
    pub fn active_txn_count(&self) -> u64 {
        self.txns.len()
    }

    /// Flushes every page dirty since `cutoff` (the regret-interval sweep).
    pub fn flush_dirtied_before(&self, cutoff: Timestamp) -> Result<usize> {
        self.pool.flush_dirtied_before(cutoff)
    }

    /// Takes a checkpoint: drains the stamper, flushes all dirty pages,
    /// writes the checkpoint record and the master pointer, persists the
    /// catalog.
    pub fn checkpoint(&self) -> Result<()> {
        self.run_stamper()?;
        self.wal.flush()?;
        self.pool.flush_all()?;
        let active: Vec<(TxnId, Lsn)> = self.txns.active();
        let lsn = self.wal.append_flush(&WalRecord::Checkpoint { active })?;
        self.master.store(lsn)?;
        self.save_catalog()
    }

    /// Quiesces for audit: no active transactions may remain; drains the
    /// stamper and flushes everything ("waiting for the current [transactions]
    /// to finish and their dirty pages to reach disk … the audit must wait
    /// for these lazy updates to reach disk as well").
    pub fn quiesce(&self) -> Result<()> {
        if !self.txns.is_empty() {
            return Err(Error::Invalid(
                "cannot quiesce with active transactions (audit admits no new work)".into(),
            ));
        }
        self.checkpoint()
    }

    /// Simulates a crash: every volatile structure vanishes. The engine is
    /// unusable afterwards; reopen the directory to run recovery.
    pub fn crash(&self) {
        self.pool.drop_all_without_flush();
        self.wal.simulate_crash_drop_pending();
        self.txns.clear();
        self.commit_times.write().clear();
        self.stamp_queue.lock().clear();
        self.stamp_queue_depth.store(0, Ordering::Relaxed);
        self.trees.write().clear();
    }

    /// Clean shutdown: checkpoint + marker, so the next open skips the
    /// recovery protocol (and its compliance records).
    pub fn shutdown(self) -> Result<()> {
        self.checkpoint()?;
        std::fs::write(self.cfg.dir.join("clean.shutdown"), b"clean")
            .map_err(|e| Error::io("writing clean-shutdown marker", e))?;
        Ok(())
    }

    // --- introspection ---------------------------------------------------------

    /// The report of the crash recovery performed at open, if one ran.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery_report.lock().clone()
    }

    /// The buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The WAL writer.
    pub fn wal(&self) -> &Arc<WalWriter> {
        &self.wal
    }

    /// The engine clock.
    pub fn clock(&self) -> &ClockRef {
        &self.clock
    }

    /// Path of the database page file (what "Mala" edits).
    pub fn db_path(&self) -> &Path {
        self.disk.path()
    }

    /// The raw disk manager (bypasses any compliance plugin — used by the
    /// auditor to see exactly what is on disk).
    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    /// Live / historical / inner page counts for a relation (the Figure 4
    /// series).
    pub fn relation_pages(&self, rel: RelId) -> Result<(usize, usize, usize)> {
        let tree = self.tree(rel)?;
        let leaves = tree.leaf_pgnos()?.len();
        let hist = tree.historical_pages().len();
        let inner = tree.inner_page_count()?;
        Ok((leaves, hist, inner))
    }

    /// Aggregate statistics. Every counter here is backed by an atomic (or
    /// the WAL/disk managers' own internal counters), so a metrics scraper
    /// can call this concurrently with committers without touching any of
    /// the engine's map or queue locks.
    pub fn stats(&self) -> EngineStats {
        let buffer = self.pool.stats();
        let (batches, txns) = self.pipeline.counters();
        EngineStats {
            buffer,
            buffer_hit_rate: buffer.hit_rate(),
            wal_bytes: self.wal.end_lsn().0,
            db_pages: self.disk.page_count(),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            group_commit_batches: batches,
            group_commit_txns: txns,
            fsyncs_saved: txns.saturating_sub(batches),
            stamp_queue_len: self.stamp_queue_depth.load(Ordering::Relaxed),
            active_txns: self.txns.len(),
        }
    }

    /// Whether there are active transactions.
    pub fn has_active_txns(&self) -> bool {
        !self.txns.is_empty()
    }

    /// Retires a page in place (rewrites it as a Free page), WAL-logged so
    /// recovery reproduces it. Used after WORM migration: the conventional-
    /// media copy of a migrated historical page is dead.
    pub fn retire_page(&self, pgno: ccdb_common::PageNo) -> Result<()> {
        let frame = self.pool.fetch(pgno)?;
        let mut page = frame.write();
        page.clear_cells();
        page.set_page_type(ccdb_storage::PageType::Free);
        let lsn = self.wal.append(&WalRecord::Page {
            txn: TxnId::NONE,
            op: PageOp::SetImage { pgno, image: page.as_bytes().to_vec() },
        })?;
        page.set_lsn(lsn);
        self.pool.mark_dirty(&mut page);
        Ok(())
    }

    /// Drops a page from a relation's historical list (after WORM
    /// migration), WAL-logged so the list survives crashes.
    pub fn forget_historical(&self, rel: RelId, pgno: ccdb_common::PageNo) -> Result<()> {
        let tree = self.tree(rel)?;
        tree.forget_historical(&[pgno]);
        self.wal.append(&WalRecord::RelMeta { rel, meta: RelMetaOp::HistoricalRemove(pgno) })?;
        Ok(())
    }

    /// Materializes a historical page from raw cells (re-migration of a
    /// WORM page back to conventional media so its expired tuples can be
    /// shredded — Section VIII: "their pages must be migrated back to
    /// regular media for shredding"). WAL-logged; returns the new page.
    pub fn adopt_historical_page(
        &self,
        rel: RelId,
        cells: &[Vec<u8>],
        split_time: u64,
    ) -> Result<ccdb_common::PageNo> {
        let (pgno, frame) = self.pool.new_page(ccdb_storage::PageType::Leaf, rel)?;
        {
            let mut page = frame.write();
            let mut max_seq = 0u16;
            for c in cells {
                page.append_cell(c)?;
                if let Ok(t) = TupleVersion::decode_cell(c) {
                    max_seq = max_seq.max(t.seq);
                }
            }
            page.bump_seq_to(max_seq.saturating_add(1));
            page.set_historical(true);
            page.set_aux(split_time);
            let lsn = self.wal.append(&WalRecord::Page {
                txn: TxnId::NONE,
                op: PageOp::SetImage { pgno, image: page.as_bytes().to_vec() },
            })?;
            page.set_lsn(lsn);
            self.pool.mark_dirty(&mut page);
        }
        let tree = self.tree(rel)?;
        tree.adopt_historical(pgno);
        self.wal.append(&WalRecord::RelMeta { rel, meta: RelMetaOp::HistoricalAdd(pgno) })?;
        Ok(pgno)
    }

    /// Removes one committed version from a specific page (vacuum on
    /// historical pages that live outside the tree), WAL-logged.
    pub fn remove_version_from_page(
        &self,
        pgno: ccdb_common::PageNo,
        key: &[u8],
        commit_time: Timestamp,
    ) -> Result<Option<TupleVersion>> {
        let frame = self.pool.fetch(pgno)?;
        let mut page = frame.write();
        for i in 0..page.cell_count() {
            let t = TupleVersion::decode_cell(page.cell(i))?;
            if t.key == key && t.time == WriteTime::Committed(commit_time) {
                page.remove_cell(i);
                // Full-page-write rule (see `BTree::log_op`): the first op
                // against a clean page logs the whole post-op image so a
                // torn flush of this page stays recoverable.
                let op = if page.dirty {
                    PageOp::RemoveCell { pgno, idx: i as u32 }
                } else {
                    PageOp::SetImage { pgno, image: page.as_bytes().to_vec() }
                };
                let lsn = self.wal.append(&WalRecord::Page { txn: TxnId::NONE, op })?;
                page.set_lsn(lsn);
                self.pool.mark_dirty(&mut page);
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    /// Flushes everything and empties the buffer pool (used by adversary
    /// tests so subsequent reads observe the on-disk bytes).
    pub fn clear_cache(&self) -> Result<()> {
        self.pool.flush_all()?;
        self.pool.drop_all_without_flush();
        Ok(())
    }
}
