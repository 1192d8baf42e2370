//! The adversary campaign suite: seeded end-to-end campaigns of workload,
//! virtual years, litigation holds, shred cycles, WORM migration, crashes,
//! and Mala tampering — every one of which must end **detected or
//! harmless** with all three auditors verdict-identical.
//!
//! Each campaign is a pure function of its seed (printed in every failure
//! with its structured action trace). `CCDB_CAMPAIGN_SEEDS` overrides the
//! campaign count (CI's smoke job runs a handful; the default suite runs
//! 200). Replay a failing seed exactly with
//! `CCDB_CAMPAIGN_REPLAY_SEED=<seed> cargo test --test campaign \
//!  replay_campaign_seed -- --ignored --nocapture`.

use ccdb_bench::campaign::{run_campaign, run_campaign_schedule, CAMPAIGN_BASE_SEED};

fn campaign_size() -> u64 {
    std::env::var("CCDB_CAMPAIGN_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(200)
}

#[test]
fn adversary_campaigns_end_detected_or_harmless() {
    let n = campaign_size();
    let outcomes =
        run_campaign((0..n).map(|i| CAMPAIGN_BASE_SEED + i)).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(outcomes.len() as u64, n);

    // The campaign must not pass vacuously: across a full run the seeds
    // must actually tamper (and get caught), run tamper-free controls,
    // shred expired state, spare held tuples, cross deployment shapes, and
    // advance years of virtual time. (Thresholds are far below observed
    // rates — ~half of seeds tamper, ~a third of those are detected — so
    // they flag a broken generator, not ordinary seed drift.)
    if n >= 200 {
        let tampered = outcomes.iter().filter(|o| o.tampers_landed > 0).count();
        let detected = outcomes.iter().filter(|o| o.detected).count();
        let controls = outcomes.iter().filter(|o| o.tampers_drawn == 0).count();
        let harmless = outcomes.iter().filter(|o| o.tampers_landed > 0 && !o.detected).count();
        assert!(tampered * 4 >= outcomes.len(), "only {tampered}/{n} campaigns tampered");
        assert!(detected * 10 >= outcomes.len(), "only {detected}/{n} campaigns detected");
        assert!(controls * 10 >= outcomes.len(), "only {controls}/{n} tamper-free controls");
        assert!(harmless > 0, "no tampering campaign was verified harmless");
        let shredded: usize = outcomes.iter().map(|o| o.shredded).sum();
        let spared: usize = outcomes.iter().map(|o| o.held_spared).sum();
        assert!(shredded > 0, "no campaign shredded anything");
        assert!(spared > 0, "no hold ever spared a tuple from shredding");
        assert!(outcomes.iter().any(|o| o.crashes > 0), "no campaign crashed");
        assert!(
            outcomes.iter().any(|o| o.deployment.starts_with("tenants") && o.crashes > 0),
            "no multi-tenant campaign crashed"
        );
        assert!(outcomes.iter().any(|o| o.pages_migrated > 0), "no campaign migrated to WORM");
        for shape in ["single", "tenants", "sharded", "tenants-x-shards"] {
            assert!(
                outcomes.iter().any(|o| o.deployment == shape),
                "no campaign ran the {shape} deployment shape"
            );
        }
        let years: f64 = outcomes
            .iter()
            .map(|o| o.virtual_micros_advanced as f64 / (365.0 * 86_400.0 * 1e6))
            .sum();
        assert!(years >= 10.0, "campaigns advanced only {years:.1} virtual years");
    }

    let tampered = outcomes.iter().filter(|o| o.tampers_landed > 0).count();
    let detected = outcomes.iter().filter(|o| o.detected).count();
    println!(
        "campaigns: {n} seeds, {tampered} tampered, {detected} detected, \
         {} commits, {} shredded, {} hold-spared, {} sealed audits",
        outcomes.iter().map(|o| o.commits).sum::<usize>(),
        outcomes.iter().map(|o| o.shredded).sum::<usize>(),
        outcomes.iter().map(|o| o.held_spared).sum::<usize>(),
        outcomes.iter().map(|o| o.sealed_audits).sum::<usize>(),
    );
}

/// The same seed replays to the same campaign — the property every failure
/// message (and `CCDB_CAMPAIGN_REPLAY_SEED`) relies on.
#[test]
fn campaign_schedule_is_deterministic() {
    for seed in [CAMPAIGN_BASE_SEED + 2, CAMPAIGN_BASE_SEED + 11, 0xCA3B_1600_DEAD_BEEF] {
        let a = run_campaign_schedule(seed).unwrap_or_else(|e| panic!("{e}"));
        let b = run_campaign_schedule(seed).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(a.trace, b.trace, "seed {seed}: action-trace divergence");
        assert_eq!(a.commits, b.commits, "seed {seed}: commit divergence");
        assert_eq!(a.detected, b.detected, "seed {seed}: verdict divergence");
        assert_eq!(a.violations, b.violations, "seed {seed}: violation divergence");
        assert_eq!(a.shredded, b.shredded, "seed {seed}: shred divergence");
    }
}

/// Regression: the bug class that exposed retroactive `ShredOfHeld` false
/// alarms during development — the auditor indicted a perfectly legal
/// shred because a hold covering the key was placed *afterwards* (the
/// fix evaluates holds as of the shred time, from the holds relation's
/// own version history). The schedule shreds, then places a hold, then
/// seals an audit; with the fix reverted it fails with `ShredOfHeld`,
/// with it the campaign runs clean end to end.
#[test]
fn replay_regression_hold_after_shred_is_not_a_violation() {
    let outcome = run_campaign_schedule(14572265208543183196).unwrap_or_else(|e| panic!("{e}"));
    assert!(outcome.shredded > 0, "regression schedule no longer shreds");
    assert!(outcome.holds_placed > 0, "regression schedule no longer places a hold");
    assert!(outcome.sealed_audits > 0, "regression schedule no longer seals an audit");
    assert!(!outcome.detected, "tamper-free schedule flagged: {:?}", outcome.violations);
}

/// Regression: the seed that exposed `IndexMismatch` false alarms on
/// honest crash recovery — revision storms grew an index root in the
/// page cache, a time split swapped one of its children, WORM migration
/// ran, and the crash lost both the root's bytes and its index-delta
/// records. Recovery rebuilt the root from WAL images, and the
/// regenerated per-entry records could not retract the replay's stale
/// child entry (the fix: the first post-recovery pwrite of a baseline-
/// less internal page logs an authoritative `INDEX_IMAGE` that replaces
/// the replayed state). The schedule must run detected-free end to end
/// while still migrating and crashing.
#[test]
fn replay_regression_crash_lost_index_deltas_are_not_a_violation() {
    let outcome = run_campaign_schedule(14572265208543182960).unwrap_or_else(|e| panic!("{e}"));
    assert!(outcome.pages_migrated > 0, "regression schedule no longer migrates");
    assert!(outcome.crashes > 0, "regression schedule no longer crashes");
    assert!(!outcome.detected, "tamper-free schedule flagged: {:?}", outcome.violations);
}

/// Regression: the seed that exposed unresumable WORM migration — a crash
/// between a page's WORM copy and its retire becoming durable left the
/// page on the historical list, and the next migration pass died forever
/// on "file already exists and may not be recreated". The fix resumes the
/// interrupted migration (verify-or-finish the immutable copy, re-assert
/// the MIGRATE record — which the auditors tolerate for already-verified
/// pages — then retire), reading the page as a trusted self-read so the
/// un-replayable READ hash raises no false alarm.
#[test]
fn replay_regression_crash_during_migration_is_resumable() {
    let outcome = run_campaign_schedule(14572265208543183146).unwrap_or_else(|e| panic!("{e}"));
    assert!(outcome.pages_migrated > 0, "regression schedule no longer migrates");
    assert!(outcome.crashes > 0, "regression schedule no longer crashes");
    assert!(!outcome.detected, "tamper-free schedule flagged: {:?}", outcome.violations);
}

/// Regression: the seed that exposed false `StateMismatch` +
/// `CompletenessMismatch` alarms when the conventional copy of a migrated
/// page *survived* a crash that lost its retire — the MIGRATE record had
/// removed the page from the replay and the completeness universe, but
/// the Free image never became durable and the old bytes stayed on disk.
/// The final disk scan now accepts a historical leaf with no replayed
/// state iff it is byte-identical to its verified immutable WORM copy.
/// With the fix reverted this seed dies mid-campaign — an *honest*
/// sealing audit (before any tampering) comes back dirty, which the
/// campaign treats as a false alert. With the fix those audits seal
/// clean and the campaign runs on to its genuinely tampered ending,
/// which all three auditors then rightly detect.
#[test]
fn replay_regression_surviving_migrated_copy_is_not_a_violation() {
    let outcome = run_campaign_schedule(14572265208543183901).unwrap_or_else(|e| panic!("{e}"));
    assert!(outcome.pages_migrated > 0, "regression schedule no longer migrates");
    assert!(outcome.crashes > 0, "regression schedule no longer crashes");
    assert!(outcome.sealed_audits > 0, "regression schedule no longer seals an honest audit");
    assert!(
        outcome.tampers_landed > 0 && outcome.detected,
        "regression schedule should end with its real tampering detected: {:?}",
        outcome.violations
    );
}

/// Replays one seed with its full action trace (for minimizing a failure
/// reported by the campaign): `CCDB_CAMPAIGN_REPLAY_SEED=<seed> cargo test
/// --test campaign replay_campaign_seed -- --ignored --nocapture`.
#[test]
#[ignore = "manual replay: set CCDB_CAMPAIGN_REPLAY_SEED"]
fn replay_campaign_seed() {
    let seed: u64 = std::env::var("CCDB_CAMPAIGN_REPLAY_SEED")
        .expect("set CCDB_CAMPAIGN_REPLAY_SEED=<seed>")
        .parse()
        .expect("CCDB_CAMPAIGN_REPLAY_SEED must be a u64");
    match run_campaign_schedule(seed) {
        Ok(o) => {
            println!("seed {seed}: OK ({} / {:?})", o.deployment, o.mode);
            for (i, a) in o.trace.iter().enumerate() {
                println!("  {:3}. {a}", i + 1);
            }
        }
        Err(e) => panic!("{e}"),
    }
}
