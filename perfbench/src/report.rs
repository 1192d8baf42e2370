//! What a run reports: the metric registry (names and units, mirrored in
//! `BENCHMARK.json`), the correctness gates, the counters read from the
//! program's stats APIs, and the printed report.

use std::collections::BTreeMap;

use ccdb_core::{AuditStats, CompliantDb};

use crate::stats::ratio;
use crate::trace::Tracer;

/// End-to-end metrics: every workload reports every one (untraced runs).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("txn_per_s", "1/s"),
    ("txn_p50_ms", "ms"),
    ("txn_p95_ms", "ms"),
    ("audit_s", "s"),
    ("worm_bytes_per_txn", "B/txn"),
    ("verified_read_mean_ms", "ms"),
    ("verified_read_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs). A layer a workload does not exercise
/// reports 0, marked as not exercised in the report (see [`exercised`]).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tpcc.new_order_p50_ms", "ms"),
    ("tpcc.payment_p50_ms", "ms"),
    ("tpcc.order_status_p50_ms", "ms"),
    ("tpcc.delivery_p50_ms", "ms"),
    ("tpcc.stock_level_p50_ms", "ms"),
    ("storage.misses_per_txn", "count/txn"),
    ("storage.hit_rate", "frac"),
    ("crypto.sha256_4k_us", "us"),
    ("crypto.lamport_verify_us", "us"),
    ("crypto.addhash_fold_us", "us"),
    ("crypto.hashed_kb_per_txn", "KiB/txn"),
    ("plugin.reads_hashed_per_txn", "count/txn"),
    ("plugin.new_tuples_per_txn", "count/txn"),
    ("logger.l_bytes_per_txn", "B/txn"),
    ("worm.appends_per_txn", "count/txn"),
    ("engine.wal_bytes_per_txn", "B/txn"),
    ("engine.txns_per_batch", "txn/batch"),
    ("engine.aborts", "count"),
    ("rpc.begin_p50_ms", "ms"),
    ("rpc.write_p50_ms", "ms"),
    ("rpc.commit_p50_ms", "ms"),
    ("rpc.read_verified_p50_ms", "ms"),
    ("server.admission_rejections", "count"),
    ("audit.snapshot_s", "s"),
    ("audit.log_scan_s", "s"),
    ("audit.log_decode_s", "s"),
    ("audit.log_replay_s", "s"),
    ("audit.log_merge_s", "s"),
    ("audit.final_state_s", "s"),
    ("audit.tree_verify_s", "s"),
    ("audit.completeness_join_s", "s"),
    ("audit.wal_tail_s", "s"),
    ("audit.unattributed_s", "s"),
    ("audit.records_scanned", "count"),
    ("audit.reads_verified", "count"),
    ("stream.lag_records_p50", "count"),
    ("stream.poll_ms_p99", "ms"),
    ("stream.polls", "count"),
    ("proof.read_proof_ms", "ms"),
    ("verifier.verify_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TpccCold,
    TpccWarm,
    ServiceMixed,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "tpcc-cold" => Some(Workload::TpccCold),
            "tpcc-warm" => Some(Workload::TpccWarm),
            "service-mixed" => Some(Workload::ServiceMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccCold => "tpcc-cold",
            Workload::TpccWarm => "tpcc-warm",
            Workload::ServiceMixed => "service-mixed",
        }
    }
}

/// Whether `workload` runs the layer `metric` belongs to. Embedded TPC-C
/// has no RPC edge, server or streaming daemon; the service runs no TPC-C.
pub fn exercised(workload: Workload, metric: &str) -> bool {
    let layer = metric.split('.').next().unwrap_or("");
    match workload {
        Workload::TpccCold | Workload::TpccWarm => !matches!(layer, "rpc" | "server" | "stream"),
        Workload::ServiceMixed => layer != "tpcc",
    }
}

/// Everything one run produced.
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    gates: Vec<(&'static str, bool, String)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            gates: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a correctness gate; a failed gate fails the run.
    pub fn gate(&mut self, name: &'static str, ok: bool, detail: String) {
        self.gates.push((name, ok, detail));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.1)
    }

    /// Prints the human-readable report, then the result object as the
    /// last line of standard output. Returns whether every gate held.
    pub fn print(mut self, workload: Workload, trace: bool) -> bool {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let missing: Vec<&str> = table
            .iter()
            .map(|m| m.0)
            .filter(|name| (!trace || exercised(workload, name)) && !self.values.contains_key(name))
            .collect();
        self.gate("metrics_complete", missing.is_empty(), format!("not produced: {missing:?}"));
        self.gate("ops_attempted", self.attempted > 0, format!("{} attempted", self.attempted));
        for line in &self.notes {
            println!("{line}");
        }
        for (name, ok, detail) in &self.gates {
            println!("gate {name}: {} ({detail})", if *ok { "ok" } else { "FAILED" });
        }
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let unmeasured = if exercised(workload, name) { "" } else { " (not exercised here)" };
            println!("metric {name:<30} {value:>14.4} {unit}{unmeasured}");
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        let correct = self.correct();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

/// Counters read from the program's stats APIs around the measured window.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub wal_bytes: u64,
    pub commits: u64,
    pub aborts: u64,
    pub batches: u64,
    pub batched_txns: u64,
    pub reads_hashed: u64,
    pub new_tuples: u64,
    pub worm_bytes: u64,
    pub worm_appends: u64,
    pub l_bytes: u64,
    pub db_pages: u64,
}

impl Counters {
    pub fn read(db: &CompliantDb) -> Counters {
        let e = db.engine().stats();
        let p = db.plugin().map(|p| p.stats()).unwrap_or_default();
        let w = db.worm().stats();
        Counters {
            hits: e.buffer.hits,
            misses: e.buffer.misses,
            wal_bytes: e.wal_bytes,
            commits: e.commits,
            aborts: e.aborts,
            batches: e.group_commit_batches,
            batched_txns: e.group_commit_txns,
            reads_hashed: p.reads_hashed,
            new_tuples: p.new_tuples,
            worm_bytes: w.bytes,
            worm_appends: w.appends,
            l_bytes: db.plugin().map_or(0, |p| p.logger().end_offset()),
            db_pages: e.db_pages,
        }
    }

    /// Growth from `before` to `self` (`db_pages` stays absolute).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            commits: self.commits - before.commits,
            aborts: self.aborts - before.aborts,
            batches: self.batches - before.batches,
            batched_txns: self.batched_txns - before.batched_txns,
            reads_hashed: self.reads_hashed - before.reads_hashed,
            new_tuples: self.new_tuples - before.new_tuples,
            worm_bytes: self.worm_bytes - before.worm_bytes,
            worm_appends: self.worm_appends - before.worm_appends,
            l_bytes: self.l_bytes - before.l_bytes,
            db_pages: self.db_pages,
        }
    }

    /// Sets the storage/crypto/plugin/logger/worm/engine layer metrics for
    /// a window of `txns` transactions.
    pub fn report(&self, out: &mut Outcome, txns: f64) {
        let per = |n: u64| ratio(n as f64, txns);
        out.set("storage.misses_per_txn", per(self.misses));
        out.set("storage.hit_rate", ratio(self.hits as f64, (self.hits + self.misses) as f64));
        out.set("crypto.hashed_kb_per_txn", per(self.reads_hashed) * 4.0);
        out.set("plugin.reads_hashed_per_txn", per(self.reads_hashed));
        out.set("plugin.new_tuples_per_txn", per(self.new_tuples));
        out.set("logger.l_bytes_per_txn", per(self.l_bytes));
        out.set("worm.appends_per_txn", per(self.worm_appends));
        out.set("engine.wal_bytes_per_txn", per(self.wal_bytes));
        out.set("engine.txns_per_batch", ratio(self.batched_txns as f64, self.batches as f64));
        out.set("engine.aborts", self.aborts as f64);
    }
}

/// Sets the `audit.*` metrics from an audit's phase timers and wall time,
/// and notes the breakdown. `unattributed` is the wall time the phases
/// (snapshot + log scan + final state + WAL tail) do not cover.
pub fn audit_phases(out: &mut Outcome, label: &str, s: &AuditStats, wall_s: f64) {
    let secs = |us: u64| us as f64 / 1e6;
    let covered = secs(s.snapshot_us + s.log_scan_us + s.final_state_us + s.wal_tail_us);
    let unattributed = wall_s - covered;
    out.note(format!(
        "audit phases ({label}, s): wall={wall_s:.3} snapshot={:.3} log_scan={:.3} \
         [decode={:.3} replay={:.3} merge={:.3}] final_state={:.3} [tree_verify={:.3} \
         completeness_join={:.3}] wal_tail={:.3} unattributed={unattributed:.3} ({:.0}% of wall) \
         records={} reads_verified={}",
        secs(s.snapshot_us),
        secs(s.log_scan_us),
        secs(s.log_decode_us),
        secs(s.log_replay_us),
        secs(s.log_merge_us),
        secs(s.final_state_us),
        secs(s.tree_verify_us),
        secs(s.completeness_join_us),
        secs(s.wal_tail_us),
        100.0 * ratio(unattributed, wall_s),
        s.records_scanned,
        s.reads_verified,
    ));
    out.set("audit.snapshot_s", secs(s.snapshot_us));
    out.set("audit.log_scan_s", secs(s.log_scan_us));
    out.set("audit.log_decode_s", secs(s.log_decode_us));
    out.set("audit.log_replay_s", secs(s.log_replay_us));
    out.set("audit.log_merge_s", secs(s.log_merge_us));
    out.set("audit.final_state_s", secs(s.final_state_us));
    out.set("audit.tree_verify_s", secs(s.tree_verify_us));
    out.set("audit.completeness_join_s", secs(s.completeness_join_us));
    out.set("audit.wal_tail_s", secs(s.wal_tail_us));
    out.set("audit.unattributed_s", unattributed);
    out.set("audit.records_scanned", s.records_scanned as f64);
    out.set("audit.reads_verified", s.reads_verified as f64);
}

/// Attaches an audit's phase timers to its span.
pub fn attach_phases(tr: &mut Tracer, span: crate::trace::SpanId, s: &AuditStats) {
    for (k, v) in [
        ("snapshot_us", s.snapshot_us),
        ("log_scan_us", s.log_scan_us),
        ("log_decode_us", s.log_decode_us),
        ("log_replay_us", s.log_replay_us),
        ("log_merge_us", s.log_merge_us),
        ("final_state_us", s.final_state_us),
        ("tree_verify_us", s.tree_verify_us),
        ("completeness_join_us", s.completeness_join_us),
        ("wal_tail_us", s.wal_tail_us),
    ] {
        tr.attr(span, k, v as f64);
    }
}
