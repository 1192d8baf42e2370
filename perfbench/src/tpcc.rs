//! `tpcc-cold` and `tpcc-warm`: the embedded TPC-C standard mix in
//! hash-page-on-read mode, one closed-loop client, fsync off, no emulated
//! I/O latency. The two differ only in buffer-pool size: cold keeps the
//! working set far outside the cache (every miss is hashed and logged as a
//! `READ`), warm holds it (the hash-on-read path is all but bypassed).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ccdb_adversary::Mala;
use ccdb_btree::SplitPolicy;
use ccdb_common::{Duration, RelId, Result, SplitMix64, VirtualClock};
use ccdb_core::audit::AuditConfig;
use ccdb_core::{ComplianceConfig, CompliantDb, EpochHeadManager, Mode};
use ccdb_crypto::Digest;
use ccdb_tpcc::rows::key;
use ccdb_tpcc::{load, Driver, Tpcc, TpccScale, TxnKind};

use crate::report::{attach_phases, audit_phases, Counters, Outcome};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use crate::{Args, Sabotage};

pub const AUDITOR_SEED: [u8; 32] = [0xB0; 32];

/// Transactions per deck: every aligned block of this many `run_one` calls
/// holds exactly the standard mix.
const DECK: usize = 100;

pub struct Sizes {
    pub scale: TpccScale,
    pub cache_pages: usize,
    /// Transactions per second of `--seconds` the window runs: about this
    /// workload's closed-loop rate on a 2-vCPU x86-64 VM.
    pub nominal_txn_per_s: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Proof-carrying reads spread through the window.
    pub verified_reads: usize,
}

fn open(dir: &Path, cache_pages: usize) -> Result<CompliantDb> {
    let clock = Arc::new(VirtualClock::ticking(Duration::from_micros(20)));
    CompliantDb::open(
        dir,
        clock,
        ComplianceConfig {
            mode: Mode::HashOnRead,
            regret_interval: Duration::from_secs(1),
            cache_pages,
            auditor_seed: AUDITOR_SEED,
            fsync: false,
            ..ComplianceConfig::default()
        },
    )
}

/// Opens, loads, and seals the load with a clean audit, so the measured
/// window's `L` and the final audit cover only the workload.
fn setup(dir: &Path, sizes: &Sizes, tr: &mut Tracer) -> Result<(CompliantDb, Tpcc, bool)> {
    let db = tr.wrap("core.open", 0, None, || open(dir, sizes.cache_pages))?;
    let t = tr.wrap("tpcc.load", 0, None, || load(&db, sizes.scale, SplitPolicy::KeyOnly))?;
    let span = tr.open("core.audit", 0, None);
    let report = db.audit()?;
    tr.close(span);
    let clean = report.is_clean();
    Ok((db, t, clean))
}

fn kind_index(kind: TxnKind) -> usize {
    match kind {
        TxnKind::NewOrder => 0,
        TxnKind::Payment => 1,
        TxnKind::OrderStatus => 2,
        TxnKind::Delivery => 3,
        TxnKind::StockLevel => 4,
    }
}

const KIND_METRICS: [&str; 5] = [
    "tpcc.new_order_p50_ms",
    "tpcc.payment_p50_ms",
    "tpcc.order_status_p50_ms",
    "tpcc.delivery_p50_ms",
    "tpcc.stock_level_p50_ms",
];

pub fn run(
    args: &Args,
    sizes: &Sizes,
    work: &Path,
    mut tracer: Tracer,
) -> Result<(Outcome, Tracer)> {
    let mut out = Outcome::new();
    let tr = &mut tracer;
    let mut setup_s = Vec::new();
    let mut unclean = Vec::new();
    let mut ready = None;
    for i in 0..sizes.setups {
        // One database at a time, so set-up never holds two in memory.
        if let Some((old, _, old_dir)) = ready.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = work.join(format!("tpcc-{i}"));
        let t = Instant::now();
        let (db, tpcc, clean) = setup(&dir, sizes, tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if !clean {
            unclean.push(i);
        }
        ready = Some((db, tpcc, dir));
    }
    let (db, t, _dir) = ready.expect("at least one set-up");
    out.gate(
        "setup_audit_clean",
        unclean.is_empty(),
        format!("sealing audit after each of {} set-ups; unclean: {unclean:?}", setup_s.len()),
    );
    out.set("setup_s", median(&setup_s));

    // Proof-carrying reads of ITEM rows (never updated by the mix) against
    // the epoch set-up sealed, spread through the window: the proofs cover
    // the loaded database, whose size does not depend on the window.
    let sealed = db.epoch() - 1;
    let fingerprint = EpochHeadManager::new(db.worm().clone(), AUDITOR_SEED).fingerprint(sealed);
    let mut rng = SplitMix64::seed_from_u64(args.seed ^ 0x5EED_0FED);
    let mut reads = Vec::new();
    for _ in 0..sizes.verified_reads {
        let k = key(&[rng.gen_range(1..=sizes.scale.items)]);
        let txn = db.begin()?;
        let mut expected = db.read(txn, t.item, &k)?;
        db.abort(txn)?;
        if args.sabotage == Some(Sabotage::Expect) {
            expected = Some(b"not-the-sealed-value".to_vec());
        }
        reads.push((k, expected));
    }

    // The measured window is a fixed amount of work, so the audit and the
    // sealed snapshot cover the same transactions however fast they ran: a
    // faster transaction path must not read as a slower audit. Whole decks
    // only, alternating traced and untraced decks in a traced run so the two
    // share the database's state and growth; their per-transaction times
    // give the trace overhead.
    let decks = ((args.seconds * sizes.nominal_txn_per_s / DECK as f64).round() as usize).max(2);
    let read_every = (decks * DECK / sizes.verified_reads.max(1)).max(1);
    let before = tr.wrap("core.stats", 0, None, || Counters::read(&db));
    let mut driver = Driver::new(args.seed);
    let mut latency_ms = Vec::new();
    let mut read_ms = Vec::new();
    let mut bad_reads = Vec::new();
    let mut failed = 0u64;
    let (mut traced, mut plain) = ((0.0f64, 0usize), (0.0f64, 0usize));
    let mut off = tr.fork(false);
    let start = Instant::now();
    for deck in 0..decks {
        let in_trace = tr.on() && deck % 2 == 1;
        for _ in 0..DECK {
            let i = latency_ms.len();
            if i % read_every == read_every / 2 && read_ms.len() < reads.len() {
                let (k, expected) = &reads[read_ms.len()];
                let (ms, bad) = verified_read(&db, t.item, k, expected, &fingerprint, i as u64, tr);
                read_ms.push(ms);
                bad_reads.extend(bad);
            }
            let dt = if in_trace { &mut *tr } else { &mut off };
            let t0 = Instant::now();
            let span = dt.open("tpcc.run_one", i as u64, None);
            let result = driver.run_one(&db, &t);
            dt.close(span);
            if let Ok(kind) = result {
                dt.attr(span, "kind", kind_index(kind) as f64);
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            latency_ms.push(ms);
            failed += u64::from(result.is_err());
            let acc = if in_trace { &mut traced } else { &mut plain };
            acc.0 += ms;
            acc.1 += 1;
        }
    }
    let busy_s = latency_ms.iter().sum::<f64>() / 1e3;
    let elapsed = start.elapsed().as_secs_f64();
    let requested = latency_ms.len() as u64;
    let mix = driver.stats();
    out.attempted += requested + read_ms.len() as u64;
    out.failed += failed + bad_reads.len() as u64;
    out.gate(
        "mix_total",
        mix.total() == requested,
        format!("MixStats total {} for {requested} requested", mix.total()),
    );
    out.gate(
        "verified_reads",
        bad_reads.is_empty() && read_ms.len() == reads.len(),
        format!("{} of {} checked, bad: {bad_reads:?}", read_ms.len(), reads.len()),
    );
    let committed = mix.total() - mix.new_order_rollbacks;
    // One closed-loop client: throughput is transactions over the time
    // spent in them (the interleaved proof reads are timed on their own).
    out.set("txn_per_s", ratio(requested as f64, busy_s));
    out.set("txn_p50_ms", quantile(&latency_ms, 0.5));
    out.set("txn_p95_ms", quantile(&latency_ms, 0.95));
    out.set("verified_read_mean_ms", mean(&read_ms));
    out.set("verified_read_p90_ms", quantile(&read_ms, 0.9));
    out.set("proof.read_proof_ms", median(&tr.durations_ms("core.read_proof")));
    out.set("verifier.verify_ms", median(&tr.durations_ms("verifier.verify_read")));

    if args.sabotage == Some(Sabotage::Tamper) {
        db.engine().quiesce()?;
        db.engine().clear_cache()?;
        let landed = Mala::new(db.engine().db_path()).alter_tuple_value(&key(&[1]), b"tampered")?;
        out.note(format!("sabotage: altered ITEM 1 on disk (landed={landed})"));
    }

    // Untimed serial-oracle dry run; it also quiesces and flushes `L`, so
    // the counters after it cover the whole window.
    let serial = tr.wrap("core.audit_outcome_with", 0, None, || {
        db.audit_outcome_with(AuditConfig::serial())
    })?;
    let after = tr.wrap("core.stats", 0, None, || Counters::read(&db));
    let delta = after.since(&before);
    out.set("worm_bytes_per_txn", ratio(delta.worm_bytes as f64, committed as f64));

    let span = tr.open("core.audit", 0, None);
    let t0 = Instant::now();
    let report = db.audit()?;
    let audit_s = t0.elapsed().as_secs_f64();
    tr.close(span);
    attach_phases(tr, span, &report.stats);
    out.set("audit_s", audit_s);
    out.gate("audit_clean", report.is_clean(), format!("{} violations", report.violations.len()));
    let agree = serial.report.violations == report.violations
        && serial.report.stats.tuples_final == report.stats.tuples_final
        && serial.report.stats.reads_verified == report.stats.reads_verified;
    out.gate(
        "serial_oracle_agrees",
        agree,
        format!(
            "serial {} violations / {} tuples / {} reads vs parallel {} / {} / {}",
            serial.report.violations.len(),
            serial.report.stats.tuples_final,
            serial.report.stats.reads_verified,
            report.violations.len(),
            report.stats.tuples_final,
            report.stats.reads_verified
        ),
    );
    audit_phases(&mut out, "final sealing audit", &report.stats, audit_s);

    let spans: Vec<(usize, f64)> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "tpcc.run_one")
        .filter_map(|s| s.attrs.first().map(|a| (a.1 as usize, s.ms())))
        .collect();
    for (i, name) in KIND_METRICS.iter().enumerate() {
        let ms: Vec<f64> = spans.iter().filter(|s| s.0 == i).map(|s| s.1).collect();
        out.set(name, median(&ms));
    }
    let per_txn = |(ms, n): (f64, usize)| ratio(ms, n as f64);
    out.set("bench.trace_overhead_frac", ratio(per_txn(traced), per_txn(plain)) - 1.0);
    delta.report(&mut out, requested as f64);
    out.note(format!(
        "sizes: warehouses={} db_pages={} buffer_pages={} txns={requested} committed={committed} \
         verified_reads={} window_s={elapsed:.3} closed_loop_clients=1 fsync=off",
        sizes.scale.warehouses,
        after.db_pages,
        sizes.cache_pages,
        read_ms.len()
    ));
    Ok((out, tracer))
}

/// One proof-carrying read, checked by the standalone verifier under the
/// pinned key fingerprint and against the expected value. Returns its
/// latency and, if it failed, why.
fn verified_read(
    db: &CompliantDb,
    rel: RelId,
    k: &[u8],
    expected: &Option<Vec<u8>>,
    fingerprint: &Digest,
    req: u64,
    tr: &mut Tracer,
) -> (f64, Option<String>) {
    let root = tr.open("bench.verified_read", req, None);
    let t0 = Instant::now();
    let proof = tr.wrap("core.read_proof", req, Some(root), || db.read_proof(rel, k));
    let verdict = match proof {
        Ok((head, Some(p))) => tr.wrap("verifier.verify_read", req, Some(root), || {
            ccdb_verifier::verify_read(
                &head.head_bytes,
                &head.sig_bytes,
                &head.pub_bytes,
                Some(fingerprint),
                &p.proof_bytes,
                rel.0,
                k,
            )
            .map_err(|e| e.to_string())
        }),
        Ok((_, None)) => Err("no proof for a loaded key".to_string()),
        Err(e) => Err(e.to_string()),
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.close(root);
    let bad = match verdict {
        Ok(o) if o.value == *expected => None,
        Ok(_) => Some(format!("read {req}: verified value differs from a direct read")),
        Err(e) => Some(format!("read {req}: {e}")),
    };
    (ms, bad)
}
