//! `service-mixed`: an in-process `ccdb-server` over TCP loopback in
//! hash-page-on-read mode, group commit on and fsync off (see [`setup`]),
//! the streaming-audit daemon polling every 10 ms (shallow polls only: see
//! [`AUDIT_DEEP_EVERY`]). Set-up preloads keys and seals one epoch. Two
//! closed-loop connections then run side by side: connection 1 sends a
//! fixed number of write transactions (Begin, 4 Writes, Commit) back to
//! back, connection 2 sends `ReadVerified` calls back to back until the
//! writes are done and checks each proof with `ccdb_verifier::verify_read`
//! under the pinned key fingerprint. The run ends with a sealing Audit RPC.
//!
//! The writes are a fixed amount of work, as in the TPC-C workloads, so the
//! `L` the final audit reads does not grow with the host's speed (in a
//! fixed 12 s window, the acked count ranged 10.0k-11.9k over ten seeds),
//! and a faster commit path cannot read as a slower audit.
//!
//! Both loops are closed on purpose. Open-loop connections at fixed rates
//! (100 write txn/s, 9 reads/s) left the 2-vCPU VM idle between requests,
//! and the tail then timed how late the VM woke idle threads: the write
//! p95 read 1.5-10 ms and even p75 0.8-2.9 ms across seeds. Kept busy, the
//! same seeds varied by about 5 %.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use ccdb_common::{Duration, Error, RelId, Result, SplitMix64, Timestamp, VirtualClock};
use ccdb_core::audit::AuditConfig;
use ccdb_core::{ComplianceConfig, CompliantDb, EpochHeadManager, LogRecord, Mode};
use ccdb_crypto::Digest;
use ccdb_rpc::client::Client;
use ccdb_server::{Server, ServerConfig};

use crate::report::{attach_phases, audit_phases, Counters, Outcome};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use crate::{Args, Sabotage};

const AUDITOR_SEED: [u8; 32] = [0x5E; 32];
const TENANT: &str = "bench";
const WRITES_PER_TXN: u64 = 4;
const VALUE_LEN: usize = 100;
const PRELOAD_BATCH: u64 = 200;
pub const AUDIT_POLL_MS: u64 = 10;
/// Deep polls are off. Under concurrent commits a deep poll
/// (`StreamAuditor::poll_deep`) raises false `WalTailInconsistent` alerts:
/// its quiesce does not hold commits back while it checks the WAL tail (see
/// README, "What service-mixed leaves out"). Shallow polls still tail `L` every
/// [`AUDIT_POLL_MS`] and alert on every log-level finding.
pub const AUDIT_DEEP_EVERY: u32 = u32::MAX;
const SAMPLE_MS: u64 = 25;

pub struct Sizes {
    /// Keys written and sealed by set-up; the verified reads target these.
    pub preload_keys: u64,
    /// Keys the write transactions draw from (preloaded ones included).
    pub key_space: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Write transactions per second of `--seconds` the window runs: about
    /// the writer's closed-loop rate on a 2-vCPU x86-64 VM.
    pub nominal_txn_per_s: f64,
    /// Direct `read_proof` calls on the tenant handle (traced runs).
    pub direct_proofs: usize,
}

fn key(i: u64) -> Vec<u8> {
    format!("k{i:09}").into_bytes()
}

fn value(seed: u64, i: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_LEN];
    SplitMix64::seed_from_u64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).fill_bytes(&mut v);
    v
}

struct Ready {
    server: Server,
    db: Arc<CompliantDb>,
    rel: RelId,
    fingerprint: Digest,
}

fn setup(dir: &Path, sizes: &Sizes, seed: u64, tr: &mut Tracer) -> Result<(Ready, bool)> {
    // Fsync is off: with it on, commit latency tracked the host disk (p50
    // 0.9-2.1 ms across seeds on a shared 2-vCPU VM), far beyond what a
    // benchmark bound can hold.
    let compliance = ComplianceConfig {
        mode: Mode::HashOnRead,
        fsync: false,
        auditor_seed: AUDITOR_SEED,
        ..ComplianceConfig::default()
    };
    let mut config = ServerConfig::new(dir, compliance);
    config.audit_stream_interval = Some(StdDuration::from_millis(AUDIT_POLL_MS));
    config.audit_stream_deep_every = AUDIT_DEEP_EVERY;
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(20)));
    let server = tr.wrap("server.start", 0, None, || Server::start(config, clock))?;
    let mut c = Client::connect(server.addr(), TENANT)?;
    let rel = c.create_relation("kv")?;
    for lo in (0..sizes.preload_keys).step_by(PRELOAD_BATCH as usize) {
        let txn = tr.wrap("rpc.begin", lo, None, || c.begin())?;
        for i in lo..(lo + PRELOAD_BATCH).min(sizes.preload_keys) {
            tr.wrap("rpc.write", lo, None, || c.write(txn, rel, &key(i), &value(seed, i)))?;
        }
        tr.wrap("rpc.commit", lo, None, || c.commit(txn))?;
    }
    let (clean, _) = tr.wrap("rpc.audit", 0, None, || c.audit(false))?;
    let db = server
        .tenants()
        .tenant(TENANT)
        .ok_or_else(|| Error::NotFound(format!("tenant {TENANT} after set-up")))?;
    let fingerprint = EpochHeadManager::new(db.worm().clone(), AUDITOR_SEED).fingerprint(0);
    Ok((Ready { server, db, rel, fingerprint }, clean))
}

/// One closed-loop connection's record.
#[derive(Default)]
struct Generator {
    latency_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    plain_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    bad: Vec<String>,
}

/// Runs one closed-loop connection until `stop(i)` holds before request
/// `i`: each request is sent as soon as the previous one returns, and timed
/// from send to reply. Odd requests are traced in a traced run.
fn closed_loop(
    stop: impl Fn(u64) -> bool,
    tr: &mut Tracer,
    mut request: impl FnMut(u64, &mut Tracer) -> std::result::Result<(), String>,
) -> Generator {
    let mut g = Generator::default();
    let mut off = tr.fork(false);
    for i in 0u64.. {
        if stop(i) {
            break;
        }
        let t0 = Instant::now();
        let traced = tr.on() && i % 2 == 1;
        let t = if traced { &mut *tr } else { &mut off };
        match request(i, t) {
            Ok(()) => g.ok += 1,
            Err(e) => {
                g.failed += 1;
                g.bad.push(e);
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        g.latency_ms.push(ms);
        if traced { &mut g.traced_ms } else { &mut g.plain_ms }.push(ms);
    }
    g
}

pub fn run(args: &Args, sizes: &Sizes, work: &Path, mut tr: Tracer) -> Result<(Outcome, Tracer)> {
    let mut out = Outcome::new();
    let mut setup_s = Vec::new();
    let mut unclean = Vec::new();
    let mut ready = None;
    for i in 0..sizes.setups {
        // One server at a time, so set-up never holds two in memory.
        if let Some((old, old_dir)) = ready.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = work.join(format!("service-{i}"));
        let t = Instant::now();
        let (r, clean) = setup(&dir, sizes, args.seed, &mut tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if !clean {
            unclean.push(i);
        }
        ready = Some((r, dir));
    }
    let (Ready { server, db, rel, fingerprint }, _dir) = ready.expect("at least one set-up");
    out.gate(
        "setup_audit_clean",
        unclean.is_empty(),
        format!("sealing Audit RPC after each of {} set-ups; unclean: {unclean:?}", setup_s.len()),
    );
    out.set("setup_s", median(&setup_s));
    let addr = server.addr();
    let seed = args.seed;
    let expect_sabotage = args.sabotage == Some(Sabotage::Expect);

    let before = Counters::read(&db);
    let rejections_before = server.admission_rejections();
    let mut writer_conn = Client::connect(addr, TENANT)?;
    let mut reader_conn = Client::connect(addr, TENANT)?;
    let (mut wtr, mut rtr, mut str_) =
        (tr.fork(args.trace), tr.fork(args.trace), tr.fork(args.trace));
    let txns = ((args.seconds * sizes.nominal_txn_per_s).round() as u64).max(1);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let ((writer, writer_s), reader, samples) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let c = &mut writer_conn;
            let mut rng = SplitMix64::seed_from_u64(seed ^ 0x3717E5);
            let all_sent = |i| i >= txns;
            let g = closed_loop(all_sent, &mut wtr, |i, t| {
                let root = t.open("bench.write_txn", i, None);
                let txn = match t.wrap("rpc.begin", i, Some(root), || c.begin()) {
                    Ok(txn) => txn,
                    Err(e) => {
                        t.close(root);
                        return Err(format!("write txn {i}: {e}"));
                    }
                };
                t.attr(root, "txn", txn.0 as f64);
                let body = (|| {
                    for w in 0..WRITES_PER_TXN {
                        let k = rng.gen_range(0..sizes.key_space);
                        let v = value(seed ^ i, w);
                        t.wrap("rpc.write", i, Some(root), || c.write(txn, rel, &key(k), &v))?;
                    }
                    t.wrap("rpc.commit", i, Some(root), || c.commit(txn))
                })();
                t.close(root);
                match body {
                    Ok(_) => Ok(()),
                    Err(e) => {
                        let _ = c.abort(txn);
                        Err(format!("write txn {i}: {e}"))
                    }
                }
            });
            let writer_s = start.elapsed().as_secs_f64();
            done.store(true, Ordering::Relaxed);
            (g, writer_s)
        });
        let reader = s.spawn(|| {
            let c = &mut reader_conn;
            let mut rng = SplitMix64::seed_from_u64(seed ^ 0x4EAD);
            // At least one read, then reads until the writes are done.
            let writes_done = |i| i > 0 && done.load(Ordering::Relaxed);
            closed_loop(writes_done, &mut rtr, |i, t| {
                let idx = rng.gen_range(0..sizes.preload_keys);
                let k = key(idx);
                let expected =
                    if expect_sabotage { vec![0u8; VALUE_LEN] } else { value(seed, idx) };
                let root = t.open("bench.verified_read", i, None);
                let r = t.wrap("rpc.read_verified", i, Some(root), || c.read_verified(rel, &k));
                let verdict = r.map_err(|e| e.to_string()).and_then(|r| {
                    let proof = r.proof.ok_or("no proof for a preloaded key")?;
                    t.wrap("verifier.verify_read", i, Some(root), || {
                        ccdb_verifier::verify_read(
                            &r.head,
                            &r.sig,
                            &r.pubkey,
                            Some(&fingerprint),
                            &proof,
                            rel.0,
                            &k,
                        )
                    })
                    .map_err(|e| e.to_string())
                });
                t.close(root);
                match verdict {
                    Ok(o) if o.value.as_deref() == Some(&expected[..]) => Ok(()),
                    Ok(_) => Err(format!("read {i}: verified value differs from the preload")),
                    Err(e) => Err(format!("read {i}: {e}")),
                }
            })
        });
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(StdDuration::from_millis(SAMPLE_MS));
                let st = str_.wrap("server.audit_stats", 0, None, || server.audit_stats());
                if let Some(st) = st.get(TENANT) {
                    samples.push((st.lag_records, st.last_poll_us, st.polls));
                }
            }
            samples
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
            sampler.join().expect("sampler thread panicked"),
        )
    });
    let elapsed = start.elapsed().as_secs_f64();
    for (metric, t, span) in [
        ("rpc.begin_p50_ms", &wtr, "rpc.begin"),
        ("rpc.write_p50_ms", &wtr, "rpc.write"),
        ("rpc.commit_p50_ms", &wtr, "rpc.commit"),
        ("rpc.read_verified_p50_ms", &rtr, "rpc.read_verified"),
        ("verifier.verify_ms", &rtr, "verifier.verify_read"),
    ] {
        out.set(metric, median(&t.durations_ms(span)));
    }
    for t in [wtr, rtr, str_] {
        tr.absorb(t);
    }
    let commits = Counters::read(&db).since(&before).commits;
    out.gate(
        "acked_commits_match_engine",
        commits == writer.ok,
        format!("{} acked vs engine commit delta {commits}", writer.ok),
    );
    out.gate(
        "verified_reads",
        reader.bad.is_empty(),
        format!(
            "{} checked, bad: {:?}",
            reader.latency_ms.len(),
            &reader.bad[..reader.bad.len().min(3)]
        ),
    );
    out.gate(
        "writes_succeed",
        writer.bad.is_empty(),
        format!(
            "{} write txns, failed: {:?}",
            writer.latency_ms.len(),
            &writer.bad[..writer.bad.len().min(3)]
        ),
    );
    out.attempted += writer.ok + writer.failed + reader.ok + reader.failed;
    out.failed += writer.failed + reader.failed;
    out.set("txn_per_s", ratio(writer.ok as f64, writer_s));
    out.set("txn_p50_ms", quantile(&writer.latency_ms, 0.5));
    out.set("txn_p95_ms", quantile(&writer.latency_ms, 0.95));
    out.set("verified_read_mean_ms", mean(&reader.latency_ms));
    out.set("verified_read_p90_ms", quantile(&reader.latency_ms, 0.9));
    out.set(
        "bench.trace_overhead_frac",
        ratio(mean(&writer.traced_ms), mean(&writer.plain_ms)) - 1.0,
    );

    if args.sabotage == Some(Sabotage::Tamper) {
        // A second, backdated commit stamp for a committed transaction
        // appended to `L`: a log-level finding the shallow polls must alert
        // on, and the final audit must report.
        let plugin = db.plugin().ok_or_else(|| Error::Invalid("no compliance plugin".into()))?;
        let txn = db.begin()?;
        db.write(txn, rel, &key(0), b"restamped")?;
        db.commit(txn)?;
        plugin.logger().append_flush(&LogRecord::StampTrans { txn, commit_time: Timestamp(1) })?;
        out.note(format!("sabotage: appended a backdated STAMP_TRANS for {txn:?} to L"));
        let polls = |server: &Server| server.audit_stats().get(TENANT).map_or(0, |s| s.polls);
        let target = polls(&server) + 2;
        let deadline = Instant::now() + StdDuration::from_secs(10);
        while polls(&server) < target && Instant::now() < deadline {
            std::thread::sleep(StdDuration::from_millis(AUDIT_POLL_MS));
        }
    }

    if tr.on() {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xD12EC7);
        for i in 0..sizes.direct_proofs as u64 {
            let k = key(rng.gen_range(0..sizes.preload_keys));
            tr.wrap("core.read_proof", i, None, || db.read_proof(rel, &k))?;
        }
    }
    let serial = tr.wrap("core.audit_outcome_with", 0, None, || {
        db.audit_outcome_with(AuditConfig::serial())
    })?;
    let after = tr.wrap("core.stats", 0, None, || Counters::read(&db));
    let delta = after.since(&before);
    out.set("worm_bytes_per_txn", ratio(delta.worm_bytes as f64, writer.ok as f64));
    // The Audit RPC reply carries no phase timers: a parallel dry run over
    // the same quiesced state supplies the breakdown.
    let span = tr.open("core.audit_outcome_with", 1, None);
    let t0 = Instant::now();
    let parallel = db.audit_outcome_with(db.audit_config())?;
    let parallel_s = t0.elapsed().as_secs_f64();
    tr.close(span);
    attach_phases(&mut tr, span, &parallel.report.stats);

    let mut c = Client::connect(addr, TENANT)?;
    let span = tr.open("rpc.audit", 0, None);
    let t0 = Instant::now();
    let (clean, violations) = c.audit(false)?;
    let audit_s = t0.elapsed().as_secs_f64();
    tr.close(span);
    out.set("audit_s", audit_s);
    out.gate("audit_clean", clean, format!("{violations} violations"));
    let agree = serial.report.is_clean() == clean
        && serial.report.violations.len() == violations as usize
        && serial.report.violations == parallel.report.violations
        && serial.report.stats.tuples_final == parallel.report.stats.tuples_final
        && serial.report.stats.reads_verified == parallel.report.stats.reads_verified;
    out.gate(
        "serial_oracle_agrees",
        agree,
        format!(
            "serial {} violations vs parallel dry run {} and Audit RPC {violations}",
            serial.report.violations.len(),
            parallel.report.violations.len()
        ),
    );
    audit_phases(
        &mut out,
        "parallel dry run before the Audit RPC",
        &parallel.report.stats,
        parallel_s,
    );

    let stream = server.audit_stats().remove(TENANT).unwrap_or_default();
    out.gate(
        "no_tamper_alert",
        stream.tamper_alerts == 0,
        format!("{} streaming-audit tamper alerts", stream.tamper_alerts),
    );
    let lags: Vec<f64> = samples.iter().map(|s| s.0 as f64).collect();
    let polls_ms: Vec<f64> = samples.iter().map(|s| s.1 as f64 / 1e3).collect();
    let polls = samples.last().map_or(0, |l| l.2) - samples.first().map_or(0, |f| f.2);
    out.set("stream.lag_records_p50", median(&lags));
    out.set("stream.poll_ms_p99", quantile(&polls_ms, 0.99));
    out.set("stream.polls", polls as f64);
    out.set(
        "server.admission_rejections",
        (server.admission_rejections() - rejections_before) as f64,
    );
    out.set("proof.read_proof_ms", median(&tr.durations_ms("core.read_proof")));
    delta.report(&mut out, writer.ok as f64);
    out.note(format!(
        "sizes: preload_keys={} key_space={} db_pages={} buffer_pages={} closed_loop_clients=2 \
         writes_per_txn={WRITES_PER_TXN} value_bytes={VALUE_LEN} acked={} reads={} \
         window_s={elapsed:.3} fsync=off group_commit=on audit_stream={AUDIT_POLL_MS}ms \
         deep_polls=off",
        sizes.preload_keys,
        sizes.key_space,
        after.db_pages,
        ComplianceConfig::default().cache_pages,
        writer.ok,
        reader.ok,
    ));
    Ok((out, tr))
}
