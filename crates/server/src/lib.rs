//! The multi-tenant compliant-DB service: TCP front-end, session table,
//! admission control, and metrics, assembled around a
//! [`TenantRegistry`].
//!
//! # Shape
//!
//! One process hosts many tenants. Each tenant is a [`ShardedDb`] of
//! `ServerConfig::shards` full compliant engines (own engine, catalog,
//! retention, compliance-log namespace on the shared WORM volume — see
//! `ccdb_core::tenant`); one shard is the plain single-engine case. The
//! server contributes what the embedded library cannot: a wire boundary
//! (`ccdb_rpc`), per-session transaction ownership with idle reaping
//! (`session`), a global bound on in-flight transactions (admission
//! control — backpressure instead of unbounded queueing), and a Prometheus
//! scrape endpoint (`ccdb_metrics`).
//!
//! Threading is deliberately boring: one accept loop, one OS thread per
//! connection (sessions are long-lived and the engine's own locking is the
//! concurrency story), one reaper thread, one metrics thread.

pub mod session;

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use ccdb_btree::SplitPolicy;
use ccdb_common::sync::Mutex;
use ccdb_common::{ClockRef, Duration, Error, Result, TxnId};
use ccdb_core::audit::stream::{StreamAuditor, StreamStats};
use ccdb_core::db::{ComplianceConfig, CompliantDb};
use ccdb_core::shard::{DeploymentAudit, DistTxn, ShardedDb};
use ccdb_core::tenant::TenantRegistry;
use ccdb_metrics::{MetricsServer, Registry, Sample};
use ccdb_rpc::proto::{read_frame, write_frame, ErrorCode, Request, Response, PROTOCOL_VERSION};

pub use session::SessionTable;

/// Service configuration.
pub struct ServerConfig {
    /// Data directory (tenants under `dir/tenants`, WORM under `dir/worm`).
    pub dir: PathBuf,
    /// RPC listen address, e.g. `"127.0.0.1:4999"` (port 0 = ephemeral).
    pub addr: String,
    /// Metrics listen address; `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Compliance configuration applied to every tenant.
    pub compliance: ComplianceConfig,
    /// Global bound on in-flight transactions across all sessions; `Begin`
    /// past the bound gets the typed admission-rejected error.
    pub max_inflight_txns: u64,
    /// Sessions idle longer than this are reaped (their sockets shut down,
    /// their open transactions aborted).
    pub idle_timeout: StdDuration,
    /// How often the reaper scans.
    pub reap_interval: StdDuration,
    /// Streaming-audit daemon poll interval; `None` disables the daemon.
    /// When enabled, one thread tails every tenant's compliance log with a
    /// [`StreamAuditor`], bounding audit lag to roughly one interval.
    pub audit_stream_interval: Option<StdDuration>,
    /// Every Nth daemon poll per tenant is a *deep* poll (full fold against
    /// the disk state, catching in-place tampering); the rest are shallow
    /// log-tail polls that never touch the engine. `1` = every poll deep.
    pub audit_stream_deep_every: u32,
    /// Shards per tenant (default 1). Every tenant is a [`ShardedDb`] of
    /// this many engines over the shared WORM volume; transactions that
    /// write on more than one shard commit through cross-shard 2PC. A
    /// tenant's WORM shard map pins its count, so reopening a data
    /// directory with a different count is refused.
    pub shards: u32,
    /// Auto-seal: when the streaming auditor's record lag on any shard of
    /// a tenant reaches this, the daemon runs a full sealing audit of the
    /// tenant.
    pub auto_seal_lag: Option<u64>,
    /// Auto-seal: when this many milliseconds pass without a seal on a
    /// tenant, the daemon runs a full sealing audit of it.
    pub auto_seal_ms: Option<u64>,
}

impl ServerConfig {
    /// Defaults: ephemeral loopback port, metrics off, 256 in-flight
    /// transactions, 5-minute idle timeout.
    pub fn new(dir: impl Into<PathBuf>, compliance: ComplianceConfig) -> ServerConfig {
        ServerConfig {
            dir: dir.into(),
            addr: "127.0.0.1:0".to_string(),
            metrics_addr: None,
            compliance,
            max_inflight_txns: 256,
            idle_timeout: StdDuration::from_secs(300),
            reap_interval: StdDuration::from_millis(500),
            audit_stream_interval: None,
            audit_stream_deep_every: 1,
            shards: 1,
            auto_seal_lag: None,
            auto_seal_ms: None,
        }
    }
}

/// Shared server state.
struct Inner {
    tenants: TenantRegistry,
    sessions: SessionTable,
    /// Transactions begun and not yet resolved, across all sessions.
    inflight: AtomicU64,
    max_inflight: u64,
    /// `Begin` requests bounced by admission control.
    rejections: AtomicU64,
    /// Last-published streaming-audit counters, per (tenant, shard)
    /// (written by the daemon thread, read by scrape collectors and
    /// [`Server::audit_stats`]).
    audit_stats: Mutex<HashMap<(String, usize), StreamStats>>,
    /// Sealing audits triggered by the daemon's auto-seal policy.
    auto_seals: AtomicU64,
    /// Auto-seal thresholds (see [`ServerConfig`]).
    auto_seal_lag: Option<u64>,
    auto_seal_ms: Option<u64>,
    stop: AtomicBool,
}

impl Inner {
    /// Takes an admission slot, or returns the typed rejection (boxed: the
    /// `Response` enum grew wide with `ReadProof` and the rejection is the
    /// cold path).
    fn admit(&self) -> std::result::Result<(), Box<Response>> {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_inflight {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                return Err(Box::new(Response::Err {
                    code: ErrorCode::AdmissionRejected,
                    msg: format!("{} transactions in flight (bound {})", cur, self.max_inflight),
                }));
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running server. Dropping it stops the accept loop, shuts every
/// session down, and joins all service threads.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    registry: Arc<Registry>,
    metrics: Option<MetricsServer>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    reaper_thread: Option<std::thread::JoinHandle<()>>,
    audit_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Opens the tenant registry under `config.dir` and starts serving.
    pub fn start(config: ServerConfig, clock: ClockRef) -> Result<Server> {
        let tenants =
            TenantRegistry::open(&config.dir, clock, config.compliance.clone(), config.shards)?;
        let inner = Arc::new(Inner {
            tenants,
            sessions: SessionTable::new(),
            inflight: AtomicU64::new(0),
            max_inflight: config.max_inflight_txns.max(1),
            rejections: AtomicU64::new(0),
            audit_stats: Mutex::new(HashMap::new()),
            auto_seals: AtomicU64::new(0),
            auto_seal_lag: config.auto_seal_lag,
            auto_seal_ms: config.auto_seal_ms,
            stop: AtomicBool::new(false),
        });

        let registry = Arc::new(Registry::new());
        register_metrics(&registry, &inner);
        let metrics = match &config.metrics_addr {
            Some(addr) => Some(MetricsServer::start(addr, registry.clone())?),
            None => None,
        };

        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::io(format!("server: bind {}", config.addr), e))?;
        let addr = listener.local_addr().map_err(|e| Error::io("server: local_addr", e))?;
        listener.set_nonblocking(true).map_err(|e| Error::io("server: nonblocking", e))?;

        let accept_inner = inner.clone();
        let accept_thread = std::thread::Builder::new()
            .name("ccdb-accept".into())
            .spawn(move || {
                while !accept_inner.stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let conn_inner = accept_inner.clone();
                            let _ = std::thread::Builder::new()
                                .name("ccdb-conn".into())
                                .spawn(move || serve_conn(conn_inner, stream));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(StdDuration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(StdDuration::from_millis(5)),
                    }
                }
            })
            .map_err(|e| Error::io("server: spawn accept", e))?;

        let reaper_inner = inner.clone();
        let (idle, interval) = (config.idle_timeout, config.reap_interval);
        let reaper_thread = std::thread::Builder::new()
            .name("ccdb-reaper".into())
            .spawn(move || {
                while !reaper_inner.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    reaper_inner.sessions.reap_idle(idle);
                }
            })
            .map_err(|e| Error::io("server: spawn reaper", e))?;

        let audit_thread = match config.audit_stream_interval {
            Some(interval) => {
                let daemon_inner = inner.clone();
                let deep_every = config.audit_stream_deep_every.max(1) as u64;
                Some(
                    std::thread::Builder::new()
                        .name("ccdb-audit-stream".into())
                        .spawn(move || {
                            // One StreamAuditor per tenant shard, created
                            // lazily and re-attached after an error (e.g. a
                            // WORM I/O failure mid-poll leaves the fold
                            // poisoned).
                            let mut auditors = HashMap::new();
                            let mut last_seal: HashMap<String, std::time::Instant> = HashMap::new();
                            let mut round: u64 = 0;
                            while !daemon_inner.stop.load(Ordering::Relaxed) {
                                std::thread::sleep(interval);
                                round += 1;
                                audit_daemon_tick(
                                    &daemon_inner,
                                    &mut auditors,
                                    &mut last_seal,
                                    round.is_multiple_of(deep_every),
                                );
                            }
                        })
                        .map_err(|e| Error::io("server: spawn audit daemon", e))?,
                )
            }
            None => None,
        };

        Ok(Server {
            inner,
            addr,
            registry,
            metrics,
            accept_thread: Some(accept_thread),
            reaper_thread: Some(reaper_thread),
            audit_thread,
        })
    }

    /// The RPC listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics listen address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// The metrics registry (for in-process scraping in tests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The tenant registry.
    pub fn tenants(&self) -> &TenantRegistry {
        &self.inner.tenants
    }

    /// Sealing audits triggered by the daemon's auto-seal policy.
    pub fn auto_seals(&self) -> u64 {
        self.inner.auto_seals.load(Ordering::Relaxed)
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.len()
    }

    /// In-flight transaction count (admission view).
    pub fn inflight_txns(&self) -> u64 {
        self.inner.inflight.load(Ordering::Relaxed)
    }

    /// `Begin` requests bounced by admission control.
    pub fn admission_rejections(&self) -> u64 {
        self.inner.rejections.load(Ordering::Relaxed)
    }

    /// Sessions reaped for idleness.
    pub fn sessions_reaped(&self) -> u64 {
        self.inner.sessions.reaped.load(Ordering::Relaxed)
    }

    /// The streaming-audit daemon's last-published counters, keyed by
    /// tenant name when tenants have one shard and by
    /// `<tenant>/shard-<i>` otherwise. Empty when the daemon is disabled or
    /// has not completed a round yet.
    pub fn audit_stats(&self) -> HashMap<String, StreamStats> {
        let sharded = self.inner.tenants.shards() > 1;
        let stats = self.inner.audit_stats.lock();
        stats
            .iter()
            .map(|((tenant, shard), s)| {
                let key = if sharded { format!("{tenant}/shard-{shard}") } else { tenant.clone() };
                (key, *s)
            })
            .collect()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        self.inner.sessions.shutdown_all();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reaper_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.audit_thread.take() {
            let _ = t.join();
        }
        // MetricsServer stops in its own Drop.
    }
}

/// Registers the service + per-engine counters on `registry`. Everything
/// here reads lock-free counters (or per-engine `EngineStats`,
/// itself built from atomics), so scrapes never contend with committers.
fn register_metrics(registry: &Arc<Registry>, inner: &Arc<Inner>) {
    registry.collector_gauge(
        "ccdb_sha256_backend",
        "SHA-256 compression backend in use (1 on the live `impl`).",
        || vec![Sample::labelled("impl", ccdb_core::sha256_backend(), 1.0)],
    );
    let i = inner.clone();
    registry.collector_gauge("ccdb_active_sessions", "Live RPC sessions.", move || {
        vec![Sample::value(i.sessions.len() as f64)]
    });
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_inflight_txns",
        "Transactions begun and not yet resolved (admission view).",
        move || vec![Sample::value(i.inflight.load(Ordering::Relaxed) as f64)],
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_admission_rejections_total",
        "Begin requests bounced by admission control.",
        move || vec![Sample::value(i.rejections.load(Ordering::Relaxed) as f64)],
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_sessions_reaped_total",
        "Sessions reaped for idleness.",
        move || vec![Sample::value(i.sessions.reaped.load(Ordering::Relaxed) as f64)],
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_commits_total",
        "Transactions committed, per engine.",
        move || per_engine(&i, |db| db.engine().stats().commits as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_aborts_total",
        "Transactions aborted, per engine.",
        move || per_engine(&i, |db| db.engine().stats().aborts as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_group_commit_batches_total",
        "Group-commit batches flushed (one fsync each), per engine.",
        move || per_engine(&i, |db| db.engine().stats().group_commit_batches as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_fsyncs_saved_total",
        "Fsyncs avoided by group-commit batching, per engine.",
        move || per_engine(&i, |db| db.engine().stats().fsyncs_saved as f64),
    );
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_buffer_hit_rate",
        "Buffer-pool hit rate, per engine.",
        move || per_engine(&i, |db| db.engine().stats().buffer_hit_rate),
    );
    let i = inner.clone();
    registry.collector_gauge("ccdb_wal_bytes", "WAL length in bytes, per engine.", move || {
        per_engine(&i, |db| db.engine().stats().wal_bytes as f64)
    });
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_stamp_queue_len",
        "Lazy-timestamping queue depth, per engine.",
        move || per_engine(&i, |db| db.engine().stats().stamp_queue_len as f64),
    );
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_audit_epoch",
        "Completed audit epochs, per engine.",
        move || per_engine(&i, |db| db.epoch() as f64),
    );
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_audit_lag_records",
        "Compliance-log records appended but not yet ingested by the streaming auditor, per engine.",
        move || per_audit(&i, |s| s.lag_records as f64),
    );
    let i = inner.clone();
    registry.collector_gauge(
        "ccdb_audit_lag_us",
        "Wall-clock µs the streaming auditor's last poll spent draining the log tail, per engine.",
        move || per_audit(&i, |s| s.last_poll_us as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_epochs_sealed_total",
        "Epoch rolls observed by the streaming auditor (clean audits under the stream), per engine.",
        move || per_audit(&i, |s| s.epochs_sealed as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_tamper_alerts_total",
        "Tamper alerts raised by the streaming auditor, per engine.",
        move || per_audit(&i, |s| s.tamper_alerts as f64),
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_auto_seals_total",
        "Sealing audits triggered by the daemon's auto-seal policy.",
        move || vec![Sample::value(i.auto_seals.load(Ordering::Relaxed) as f64)],
    );
    let i = inner.clone();
    registry.collector_counter(
        "ccdb_l_records_total",
        "Compliance-log records appended this epoch, per engine (audit lag proxy).",
        move || {
            per_engine(&i, |db| {
                db.plugin().map(|p| p.logger().records_appended() as f64).unwrap_or(0.0)
            })
        },
    );
}

/// One daemon round: poll every shard's streaming auditor, publish the
/// counters, and apply the auto-seal policy per tenant. Engines appear
/// lazily (first round after creation) and an auditor that errors is
/// dropped so the next round re-attaches fresh — re-seeding from the sealed
/// snapshot is always safe, only the incremental fold state is lost.
fn audit_daemon_tick(
    inner: &Inner,
    auditors: &mut HashMap<(String, usize), StreamAuditor>,
    last_seal: &mut HashMap<String, std::time::Instant>,
    deep: bool,
) {
    for (name, tenant) in inner.tenants.list() {
        let mut lag_trip = false;
        for (i, db) in tenant.shards().iter().enumerate() {
            let key = (name.clone(), i);
            if !auditors.contains_key(&key) {
                match db.stream_auditor() {
                    Ok(aud) => {
                        auditors.insert(key.clone(), aud);
                    }
                    Err(_) => continue, // e.g. no compliance mode configured
                }
            }
            let aud = auditors.get_mut(&key).expect("inserted above");
            // Alerts are not consumed here: the counters carry
            // tamper_alerts / violations to the scrape endpoint, and the
            // evidence stays queryable through a real audit.
            let outcome = if deep { aud.poll_deep(db) } else { aud.poll(db) };
            let stats = aud.stats();
            inner.audit_stats.lock().insert(key.clone(), stats);
            if outcome.is_err() {
                auditors.remove(&key);
                continue;
            }
            lag_trip |= inner.auto_seal_lag.is_some_and(|bound| stats.lag_records >= bound);
        }

        // Auto-seal policy: a full sealing audit of the tenant when a
        // shard's record lag trips the bound, or when too much wall-clock
        // has passed since the last seal — whichever fires first. The
        // tenant audit runs the cross-shard join and seals only when it is
        // clean; a failed or dirty attempt (e.g. quiesce refused because
        // transactions are open) just retries next round. The epoch roll
        // is observed by the stream auditors like any operator audit.
        let since = last_seal.entry(name).or_insert_with(std::time::Instant::now);
        let time_trip = inner
            .auto_seal_ms
            .is_some_and(|bound| since.elapsed() >= StdDuration::from_millis(bound));
        if (lag_trip || time_trip) && tenant.audit().is_ok_and(|a| a.is_clean()) {
            inner.auto_seals.fetch_add(1, Ordering::Relaxed);
            *since = std::time::Instant::now();
        }
    }
}

/// A per-engine sample, labelled with its tenant and shard.
fn engine_sample(tenant: &str, shard: usize, value: f64) -> Sample {
    Sample {
        labels: vec![("tenant".into(), tenant.into()), ("shard".into(), format!("shard-{shard}"))],
        value,
    }
}

fn per_engine(inner: &Inner, f: impl Fn(&CompliantDb) -> f64) -> Vec<Sample> {
    let mut out = Vec::new();
    for (name, tenant) in inner.tenants.list() {
        for (i, db) in tenant.shards().iter().enumerate() {
            out.push(engine_sample(&name, i, f(db)));
        }
    }
    out
}

fn per_audit(inner: &Inner, f: impl Fn(&StreamStats) -> f64) -> Vec<Sample> {
    let stats = inner.audit_stats.lock();
    stats.iter().map(|((name, i), s)| engine_sample(name, *i, f(s))).collect()
}

/// Per-connection state once `Hello` has bound a tenant. The session's
/// open distributed transactions, keyed by their wire handle (the global
/// transaction id), are the only record of what it owns: a handle missing
/// from this map was never begun here or is already resolved.
struct Session {
    id: u64,
    db: Arc<ShardedDb>,
    open: HashMap<TxnId, DistTxn>,
}

/// The connection loop: `Hello` handshake, then request/response until
/// disconnect (clean, error, or reaper-initiated). All cleanup — aborting
/// the session's open transactions, releasing admission slots,
/// deregistering — happens here, in exactly one place.
fn serve_conn(inner: Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut session: Option<Session> = None;
    // The read stops on clean EOF or a dead socket (peer gone / reaper
    // shutdown) — either way the cleanup below runs.
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let req = match Request::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Undecodable frame: answer if possible, then drop the
                // connection (framing state is unknown).
                let resp =
                    Response::Err { code: ErrorCode::Invalid, msg: format!("bad request: {e}") };
                let _ = write_frame(&mut stream, &resp.encode());
                break;
            }
        };
        let resp = dispatch(&inner, &mut session, &stream, req);
        if let Some(s) = &session {
            inner.sessions.touch(s.id);
        }
        if write_frame(&mut stream, &resp.encode()).is_err() {
            break;
        }
    }
    // The single cleanup path.
    if let Some(s) = session {
        inner.sessions.deregister(s.id);
        for (_, dtx) in s.open {
            let _ = s.db.abort(dtx);
            inner.release();
        }
    }
}

fn err_of(e: Error) -> Response {
    Response::Err { code: ErrorCode::from_error(&e), msg: e.to_string() }
}

fn ok_or_err(result: Result<()>) -> Response {
    match result {
        Ok(()) => Response::Ok,
        Err(e) => err_of(e),
    }
}

/// A transaction handle this session does not own: never begun here,
/// begun by another session, or already resolved.
fn not_owned(txn: TxnId) -> Response {
    Response::Err {
        code: ErrorCode::InvalidTransaction,
        msg: format!("{txn:?} is not an open transaction of this session"),
    }
}

/// Maps a deployment audit onto the wire.
fn audit_resp(result: Result<DeploymentAudit>) -> Response {
    match result {
        Ok(dep) => Response::AuditDone {
            clean: dep.is_clean(),
            violations: dep.all_violations().len() as u32,
            tuples_final: dep.shard_reports.iter().map(|r| r.stats.tuples_final).sum(),
            records_scanned: dep.shard_reports.iter().map(|r| r.stats.records_scanned).sum(),
        },
        Err(e) => err_of(e),
    }
}

fn dispatch(
    inner: &Arc<Inner>,
    session: &mut Option<Session>,
    stream: &TcpStream,
    req: Request,
) -> Response {
    // Hello is the only request valid without a session.
    if let Request::Hello { version, tenant } = &req {
        if *version != PROTOCOL_VERSION {
            return Response::Err {
                code: ErrorCode::Invalid,
                msg: format!(
                    "protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"
                ),
            };
        }
        if session.is_some() {
            return Response::Err {
                code: ErrorCode::Invalid,
                msg: "session already bound".to_string(),
            };
        }
        let db = match inner.tenants.create_or_open(tenant) {
            Ok(db) => db,
            Err(e) => return err_of(e),
        };
        let reaper_handle = match stream.try_clone() {
            Ok(s) => s,
            Err(e) => return err_of(Error::io("server: clone session socket", e)),
        };
        let id = inner.sessions.register(reaper_handle);
        *session = Some(Session { id, db, open: HashMap::new() });
        return Response::Ok;
    }
    let Some(s) = session.as_mut() else {
        return Response::Err {
            code: ErrorCode::NoSession,
            msg: "Hello required before any other request".to_string(),
        };
    };

    // Transaction-handle requests resolve the handle through the session's
    // own map: sessions cannot observe or resolve each other's
    // transactions, and a handle they do not own touches no admission slot.
    match req {
        Request::Hello { .. } => unreachable!("handled above"),
        Request::Ping => Response::Ok,
        Request::Begin => {
            if let Err(rejection) = inner.admit() {
                return *rejection;
            }
            // The wire handle is the global transaction id; shard-local
            // transactions begin lazily as the session's keys route to
            // shards.
            let dtx = s.db.begin();
            let txn = TxnId(dtx.gtxn());
            s.open.insert(txn, dtx);
            Response::TxnBegun { txn }
        }
        Request::Write { txn, rel, key, value } => match s.open.get_mut(&txn) {
            Some(dtx) => ok_or_err(s.db.write(dtx, rel, &key, &value)),
            None => not_owned(txn),
        },
        Request::Delete { txn, rel, key } => match s.open.get_mut(&txn) {
            Some(dtx) => ok_or_err(s.db.delete(dtx, rel, &key)),
            None => not_owned(txn),
        },
        Request::Read { txn, rel, key } => match s.open.get_mut(&txn) {
            Some(dtx) => match s.db.read(dtx, rel, &key) {
                Ok(value) => Response::Value { value },
                Err(e) => err_of(e),
            },
            None => not_owned(txn),
        },
        // Commit and abort consume the handle even on failure (the engine
        // removes the transaction state on entry), so the admission slot
        // is released unconditionally.
        Request::Commit { txn } => match s.open.remove(&txn) {
            Some(dtx) => {
                let result = s.db.commit(dtx);
                inner.release();
                match result {
                    Ok(commit_time) => Response::Committed { commit_time },
                    Err(e) => err_of(e),
                }
            }
            None => not_owned(txn),
        },
        Request::Abort { txn } => match s.open.remove(&txn) {
            Some(dtx) => {
                let result = s.db.abort(dtx);
                inner.release();
                ok_or_err(result)
            }
            None => not_owned(txn),
        },
        Request::CreateRelation { name, time_split_threshold } => {
            let policy = if time_split_threshold.is_nan() {
                SplitPolicy::KeyOnly
            } else {
                SplitPolicy::TimeSplit { threshold: time_split_threshold }
            };
            match s.db.rel_id(&name) {
                Some(rel) => Response::Rel { rel },
                None => match s.db.create_relation(&name, policy) {
                    Ok(rel) => Response::Rel { rel },
                    Err(e) => err_of(e),
                },
            }
        }
        Request::RelId { name } => match s.db.rel_id(&name) {
            Some(rel) => Response::Rel { rel },
            None => Response::Err { code: ErrorCode::NotFound, msg: format!("relation {name:?}") },
        },
        Request::SetRetention { txn, name, period_us } => match s.open.get_mut(&txn) {
            Some(dtx) => ok_or_err(s.db.set_retention_in(dtx, &name, Duration(period_us))),
            None => not_owned(txn),
        },
        // The serial flavour is a dry run with the single-pass oracle:
        // verdict only, no epoch advance (differential checks against the
        // real, sealing audit).
        Request::Audit { serial: true } => {
            let mut cfg = s.db.audit_config();
            cfg.serial = true;
            audit_resp(s.db.audit_dry(cfg).map(|(outcomes, cross_shard)| DeploymentAudit {
                shard_reports: outcomes.into_iter().map(|o| o.report).collect(),
                cross_shard,
            }))
        }
        Request::Audit { serial: false } => audit_resp(s.db.audit()),
        Request::Migrate { rel } => match s.db.migrate_to_worm(rel) {
            Ok(report) => Response::Migrated { tuples: report.tuples_migrated as u64 },
            Err(e) => err_of(e),
        },
        // Proof-carrying reads route to the shard owning the key; the proof
        // verifies against that shard's signed epoch head. NotFound covers
        // "no sealed epoch yet" — the client must run (or wait for) one
        // clean audit before proof-carrying reads.
        Request::ReadVerified { rel, key } => match s.db.shard_for(&key).read_proof(rel, &key) {
            Ok((head, proven)) => {
                let (value, proof) = match proven {
                    Some(p) => (p.value, Some(p.proof_bytes)),
                    None => (None, None),
                };
                Response::ReadProof {
                    epoch: head.head.epoch,
                    value,
                    head: head.head_bytes,
                    sig: head.sig_bytes,
                    pubkey: head.pub_bytes,
                    proof,
                }
            }
            Err(e) => err_of(e),
        },
        // Tenant view: sums across shards, and the *lowest* shard epoch
        // (the tenant has sealed through epoch E only once every shard has).
        Request::Stats => {
            let shards = s.db.shards();
            let stats: Vec<_> = shards.iter().map(|db| db.engine().stats()).collect();
            Response::Stats {
                commits: stats.iter().map(|st| st.commits).sum(),
                aborts: stats.iter().map(|st| st.aborts).sum(),
                active_txns: stats.iter().map(|st| st.active_txns).sum(),
                group_commit_batches: stats.iter().map(|st| st.group_commit_batches).sum(),
                wal_bytes: stats.iter().map(|st| st.wal_bytes).sum(),
                epoch: shards.iter().map(|db| db.epoch()).min().unwrap_or(0),
            }
        }
    }
}
