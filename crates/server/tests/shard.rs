//! Sharded-tenant service tests: `--shards N` (shards per tenant) routing
//! over real TCP loopback, cross-shard transactions through the RPC
//! surface, tenant isolation across sharded tenants, per-(tenant, shard)
//! metrics labels and audit-stats keys, disconnect cleanup mid cross-shard
//! transaction, proof-carrying reads routed by the shard map, and the
//! audit daemon's auto-seal policy (lag- and age-triggered sealing audits,
//! which must never seal away a cross-shard divergence).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use ccdb_common::{ClockRef, Duration, VirtualClock};
use ccdb_core::db::{ComplianceConfig, Mode};
use ccdb_core::LogRecord;
use ccdb_metrics::http_get;
use ccdb_rpc::client::Client;
use ccdb_server::{Server, ServerConfig};

fn tmp(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "ccdb-shardsrv-{}-{}-{}",
        std::process::id(),
        tag,
        std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn cfg() -> ComplianceConfig {
    ComplianceConfig {
        mode: Mode::LogConsistent,
        regret_interval: Duration::from_mins(5),
        cache_pages: 256,
        fsync: false,
        ..ComplianceConfig::default()
    }
}

fn clock() -> ClockRef {
    Arc::new(VirtualClock::ticking(Duration::from_micros(50)))
}

fn start(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut config = ServerConfig::new(tmp(tag), cfg());
    tweak(&mut config);
    Server::start(config, clock()).unwrap()
}

/// Polls `cond` for up to 5 s; panics with `what` on timeout.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(StdDuration::from_millis(10));
    }
}

/// A two-shard tenant behind the unchanged RPC protocol: cross-shard
/// transactions commit atomically, aborts leave nothing behind, a session
/// under another Hello name binds another tenant and sees none of it, both
/// audit strategies agree the log is clean, and the scrape endpoint carries
/// per-shard series.
#[test]
fn sharded_server_serves_cross_shard_txns_over_rpc() {
    let server = start("rpc", |cfg| {
        cfg.shards = 2;
        cfg.metrics_addr = Some("127.0.0.1:0".to_string());
    });
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr, "acme").unwrap();
    let rel = c.create_relation("orders").unwrap();
    for round in 0..20u32 {
        let t = c.begin().unwrap();
        // Eight keys fan across both shards on every round.
        for k in 0..8u32 {
            let key = format!("r{round:02}-k{k}");
            c.write(t, rel, key.as_bytes(), format!("v{round}.{k}").as_bytes()).unwrap();
            // Reads inside the transaction see its own uncommitted writes.
            assert_eq!(
                c.read(t, rel, key.as_bytes()).unwrap().as_deref(),
                Some(format!("v{round}.{k}").as_bytes())
            );
        }
        c.commit(t).unwrap();
    }

    // An aborted cross-shard transaction leaves no trace on any shard.
    let t = c.begin().unwrap();
    for k in 0..8u32 {
        c.write(t, rel, format!("gone-{k}").as_bytes(), b"nope").unwrap();
    }
    c.abort(t).unwrap();

    // A second session of the same tenant sees the committed fan-out and
    // none of the aborted writes.
    let mut c1 = Client::connect(&addr, "acme").unwrap();
    assert_eq!(c1.rel_id("orders").unwrap(), rel);
    let t = c1.begin().unwrap();
    assert_eq!(c1.read(t, rel, b"r07-k3").unwrap().as_deref(), Some(&b"v7.3"[..]));
    assert_eq!(c1.read(t, rel, b"gone-2").unwrap(), None);
    c1.abort(t).unwrap();

    // A session under a different Hello name binds a different tenant:
    // it has no `orders` relation, and its own sees none of acme's keys.
    let mut c2 = Client::connect(&addr, "other-name").unwrap();
    assert!(c2.rel_id("orders").is_err(), "tenant other-name sees acme's catalog");
    let rel2 = c2.create_relation("orders").unwrap();
    let t = c2.begin().unwrap();
    assert_eq!(c2.read(t, rel2, b"r07-k3").unwrap(), None);
    c2.abort(t).unwrap();

    // Both shards actually took writes — the fan-out was real.
    let db = server.tenants().get("acme").unwrap();
    for (i, shard) in db.shards().iter().enumerate() {
        assert!(shard.engine().stats().commits > 0, "shard {i} took no commits");
    }

    // Serial oracle and parallel deployment audit agree and both are clean.
    let serial = c.audit(true).unwrap();
    let parallel = c.audit(false).unwrap();
    assert_eq!(serial, parallel, "serial and parallel audits disagree");
    assert!(serial.0, "sharded audit reported {} violations", serial.1);

    // Proof-carrying reads route through the shard map to the owning
    // shard's sealed epoch.
    for key in ["r00-k0", "r19-k7"] {
        let vr = c.read_verified(rel, key.as_bytes()).unwrap();
        assert!(vr.value.is_some(), "verified read lost committed key {key}");
    }

    // The scrape endpoint exposes per-shard commit counters.
    let body = scrape(&server);
    for shard in 0..2 {
        let value = commits_sample(&body, "acme", shard);
        assert!(value > 0.0, "zero commit counter for acme shard {shard}");
    }
}

fn scrape(server: &Server) -> String {
    let (status, body) = http_get(server.metrics_addr().unwrap(), "/metrics").unwrap();
    assert_eq!(status, 200);
    body
}

/// The `ccdb_commits_total` sample labelled with `tenant` and `shard`.
fn commits_sample(body: &str, tenant: &str, shard: usize) -> f64 {
    let labels = [format!("tenant=\"{tenant}\""), format!("shard=\"shard-{shard}\"")];
    body.lines()
        .find(|l| l.starts_with("ccdb_commits_total") && labels.iter().all(|x| l.contains(x)))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no ccdb_commits_total sample for {tenant} shard {shard}"))
}

/// `SetRetention` rides the session's transaction on every shard: an
/// abort discards it, a commit (through 2PC on a sharded tenant) applies
/// it everywhere.
#[test]
fn set_retention_commits_or_aborts_with_the_session_txn() {
    let server = start("retention", |cfg| cfg.shards = 2);
    let mut c = Client::connect(server.addr(), "acme").unwrap();
    c.create_relation("events").unwrap();
    let db = server.tenants().get("acme").unwrap();
    let retention = |db: &ccdb_core::ShardedDb| -> Vec<Option<Duration>> {
        db.shards().iter().map(|s| s.engine().retention("events").unwrap()).collect()
    };

    let t = c.begin().unwrap();
    c.set_retention(t, "events", 3_600_000_000).unwrap();
    c.abort(t).unwrap();
    assert_eq!(retention(&db), vec![None, None], "an aborted retention change stuck");

    let t = c.begin().unwrap();
    c.set_retention(t, "events", 3_600_000_000).unwrap();
    c.commit(t).unwrap();
    assert_eq!(retention(&db), vec![Some(Duration::from_mins(60)); 2]);
    assert_eq!(server.inflight_txns(), 0);
    let (clean, violations) = c.audit(false).unwrap();
    assert!(clean, "{violations} violations after a 2PC retention change");
}

/// Two tenants of two shards each over RPC: cross-shard commits in both,
/// isolation between them, samples labelled by tenant *and* shard,
/// audit-stats keyed `<tenant>/shard-<i>`, and a disconnect in the middle
/// of a cross-shard transaction aborting every shard-local transaction and
/// freeing its admission slot.
#[test]
fn two_tenants_of_two_shards_each_over_rpc() {
    let server = start("2x2", |cfg| {
        cfg.shards = 2;
        cfg.metrics_addr = Some("127.0.0.1:0".to_string());
        cfg.audit_stream_interval = Some(StdDuration::from_millis(10));
    });
    let addr = server.addr().to_string();

    let mut clients = Vec::new();
    for tenant in ["alpha", "beta"] {
        let mut c = Client::connect(&addr, tenant).unwrap();
        let rel = c.create_relation("ledger").unwrap();
        for round in 0..10u32 {
            let t = c.begin().unwrap();
            for k in 0..8u32 {
                let value = format!("{tenant}-{round}.{k}");
                c.write(t, rel, format!("r{round:02}-k{k}").as_bytes(), value.as_bytes()).unwrap();
            }
            c.commit(t).unwrap();
        }
        clients.push((tenant, c, rel));
    }

    for (tenant, c, rel) in &mut clients {
        // Each tenant reads its own values under the shared key names, and
        // its fan-out committed on both of its shards.
        let t = c.begin().unwrap();
        let want = format!("{tenant}-3.5");
        assert_eq!(c.read(t, *rel, b"r03-k5").unwrap().as_deref(), Some(want.as_bytes()));
        c.abort(t).unwrap();
        let db = server.tenants().get(tenant).unwrap();
        assert!(server.tenants().tenant(tenant).is_none(), "a 2-shard tenant has no one engine");
        for (i, shard) in db.shards().iter().enumerate() {
            assert!(shard.engine().stats().commits > 0, "{tenant} shard {i} took no commits");
        }
        let (clean, violations) = c.audit(false).unwrap();
        assert!(clean, "{tenant}: {violations} violations");
    }

    // Every engine has its own series, labelled by tenant and shard.
    let body = scrape(&server);
    for tenant in ["alpha", "beta"] {
        for shard in 0..2 {
            assert!(commits_sample(&body, tenant, shard) > 0.0, "{tenant} shard {shard}");
        }
    }
    let mut want: Vec<String> = ["alpha", "beta"]
        .iter()
        .flat_map(|t| (0..2).map(move |i| format!("{t}/shard-{i}")))
        .collect();
    want.sort();
    wait_until("daemon publishes every shard", || {
        let mut keys: Vec<String> = server.audit_stats().into_keys().collect();
        keys.sort();
        keys == want
    });
    assert!(
        body.lines().any(|l| l.starts_with("ccdb_audit_epoch")
            && l.contains("tenant=\"beta\"")
            && l.contains("shard=\"shard-1\"")),
        "no per-(tenant, shard) audit epoch gauge:\n{body}"
    );

    // Disconnect mid cross-shard transaction: every shard-local transaction
    // is aborted, the slot is freed, and nothing becomes visible.
    let (_, mut c, rel) = clients.pop().unwrap();
    let t = c.begin().unwrap();
    for k in 0..8u32 {
        c.write(t, rel, format!("orphan-{k}").as_bytes(), b"never").unwrap();
    }
    let db = server.tenants().get("beta").unwrap();
    assert!(db.shards().iter().all(|s| s.engine().active_txn_count() == 1), "no fan-out");
    assert_eq!(server.inflight_txns(), 1);
    drop(c);
    wait_until("disconnect cleanup", || server.session_count() == 1 && server.inflight_txns() == 0);
    for (i, shard) in db.shards().iter().enumerate() {
        assert_eq!(shard.engine().active_txn_count(), 0, "shard {i} kept the orphan");
    }
    let mut c = Client::connect(&addr, "beta").unwrap();
    let t = c.begin().unwrap();
    for k in 0..8u32 {
        assert_eq!(c.read(t, rel, format!("orphan-{k}").as_bytes()).unwrap(), None);
    }
    c.abort(t).unwrap();
}

/// Regression: a cross-shard divergence between locally consistent shards
/// (one shard decides commit and commits, the other decides abort and
/// aborts) must never be sealed away. The auto-seal policy runs each
/// tenant's deployment audit — with the cross-shard join — and seals
/// nothing while the join is dirty, so every later Audit still reports it.
#[test]
fn auto_seal_never_seals_away_a_cross_shard_divergence() {
    let dir = tmp("diverge");
    let clk = clock();
    let config = |daemon: bool| {
        let mut config = ServerConfig::new(&dir, cfg());
        config.shards = 2;
        if daemon {
            // Attempt a sealing audit on every daemon round.
            config.audit_stream_interval = Some(StdDuration::from_millis(10));
            config.auto_seal_lag = Some(0);
        }
        config
    };

    // Without the daemon: honest traffic, then one cross-shard transaction
    // driven by hand to a split outcome.
    let rel = {
        let server = Server::start(config(false), clk.clone()).unwrap();
        let mut c = Client::connect(server.addr(), "acme").unwrap();
        let rel = c.create_relation("ledger").unwrap();
        let t = c.begin().unwrap();
        for k in 0..8u32 {
            c.write(t, rel, format!("honest-{k}").as_bytes(), b"v").unwrap();
        }
        c.commit(t).unwrap();
        let db = server.tenants().get("acme").unwrap();
        let mut dtx = db.begin();
        for k in 0..8u32 {
            db.write(&mut dtx, rel, format!("split-{k}").as_bytes(), b"v").unwrap();
        }
        let gtxn = dtx.gtxn();
        let writers = dtx.writers();
        assert_eq!(writers.len(), 2, "the transaction must span both shards");
        for &s in &writers {
            let txn = dtx.local_txn(s).unwrap();
            db.shards()[s].prepare(txn).unwrap();
            let participants = writers.iter().map(|w| *w as u32).collect();
            let prep = LogRecord::TwoPcPrepare { gtxn, txn, shard: s as u32, participants };
            db.shards()[s].log_2pc(&prep).unwrap();
        }
        for (&s, commit) in writers.iter().zip([true, false]) {
            let txn = dtx.local_txn(s).unwrap();
            db.shards()[s].log_2pc(&LogRecord::TwoPcDecision { gtxn, commit }).unwrap();
            if commit {
                db.shards()[s].commit(txn).unwrap();
            } else {
                db.shards()[s].abort(txn).unwrap();
            }
        }
        rel
    };

    // Restart with auto-seal on every round and let it run.
    let server = Server::start(config(true), clk).unwrap();
    let polls = || server.audit_stats().values().map(|s| s.polls).min().unwrap_or(0);
    wait_until("ten daemon rounds on both shards", || {
        server.audit_stats().len() == 2 && polls() >= 10
    });
    assert_eq!(server.auto_seals(), 0, "auto-seal sealed a divergent tenant");
    let db = server.tenants().get("acme").unwrap();
    let (outcomes, cross) = db.audit_dry(db.audit_config()).unwrap();
    assert!(outcomes.iter().all(|o| o.report.is_clean()), "the shards are locally consistent");
    assert!(!cross.is_empty(), "the cross-shard divergence was sealed away");
    let mut c = Client::connect(server.addr(), "acme").unwrap();
    for attempt in 0..2 {
        let (clean, violations) = c.audit(false).unwrap();
        assert!(!clean && violations > 0, "audit {attempt} lost the cross-shard divergence");
    }
    let t = c.begin().unwrap();
    assert_eq!(c.read(t, rel, b"honest-3").unwrap().as_deref(), Some(&b"v"[..]));
    c.abort(t).unwrap();
}

/// The auto-seal policy: with `--auto-seal-ms` set, the audit daemon runs a
/// full sealing audit on every shard once the last seal is old enough, so
/// epochs roll without any operator-issued Audit request. The stream
/// auditors follow the rolls without raising alerts, and the sealed epochs
/// serve proof-carrying reads.
#[test]
fn auto_seal_rolls_epochs_without_operator_audits() {
    let server = start("autoseal", |cfg| {
        cfg.shards = 2;
        cfg.metrics_addr = Some("127.0.0.1:0".to_string());
        cfg.audit_stream_interval = Some(StdDuration::from_millis(10));
        cfg.audit_stream_deep_every = 4;
        cfg.auto_seal_ms = Some(40);
    });
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr, "ops").unwrap();
    let rel = c.create_relation("ledger").unwrap();
    for i in 0..25u32 {
        let t = c.begin().unwrap();
        for k in 0..4u32 {
            c.write(t, rel, format!("i{i:02}-k{k}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        c.commit(t).unwrap();
    }

    // No Audit request was ever issued, yet the daemon seals the tenant
    // (both shards) twice.
    wait_until("auto-seal sealed the tenant twice", || server.auto_seals() >= 2);
    wait_until("stream auditors observed the rolls", || {
        let stats = server.audit_stats();
        stats.len() == 2 && stats.values().all(|s| s.epochs_sealed >= 1)
    });
    let alerts: u64 = server.audit_stats().values().map(|s| s.tamper_alerts).sum();
    assert_eq!(alerts, 0, "auto-seal tripped a false tamper alert");

    // The auto-sealed epoch serves verified reads like an operator audit.
    let vr = c.read_verified(rel, b"i00-k0").unwrap();
    assert_eq!(vr.value.as_deref(), Some(&0u32.to_le_bytes()[..]));

    // The policy is visible on the scrape endpoint.
    let (status, body) = http_get(server.metrics_addr().unwrap(), "/metrics").unwrap();
    assert_eq!(status, 200);
    let sealed: f64 = body
        .lines()
        .find(|l| l.starts_with("ccdb_auto_seals_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("no ccdb_auto_seals_total sample");
    assert!(sealed >= 2.0, "auto-seal counter not exported: {sealed}");

    // Fresh writes after the auto-seal keep the next epoch clean.
    let t = c.begin().unwrap();
    c.write(t, rel, b"post-seal", b"ok").unwrap();
    c.commit(t).unwrap();
    let (clean, violations) = c.audit(true).unwrap();
    assert!(clean, "post-auto-seal audit reported {violations} violations");
}

/// `--auto-seal-lag`: the record-lag trigger also seals. A zero bound
/// degenerates to "seal on every daemon round", which is exactly the knob's
/// contract (`lag_records >= bound`); the deployment must stay audit-clean
/// and serve reads throughout.
#[test]
fn auto_seal_lag_bound_seals_and_stays_clean() {
    let server = start("autolag", |cfg| {
        cfg.shards = 2;
        cfg.audit_stream_interval = Some(StdDuration::from_millis(10));
        cfg.auto_seal_lag = Some(0);
    });
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr, "ops").unwrap();
    let rel = c.create_relation("ledger").unwrap();
    for i in 0..10u32 {
        let t = c.begin().unwrap();
        for k in 0..4u32 {
            c.write(t, rel, format!("i{i:02}-k{k}").as_bytes(), &i.to_le_bytes()).unwrap();
        }
        c.commit(t).unwrap();
    }
    wait_until("lag-triggered seals", || server.auto_seals() >= 2);
    let (clean, violations) = c.audit(true).unwrap();
    assert!(clean, "lag-triggered auto-seal left {violations} violations");
    let t = c.begin().unwrap();
    assert_eq!(c.read(t, rel, b"i09-k3").unwrap().as_deref(), Some(&9u32.to_le_bytes()[..]));
    c.abort(t).unwrap();
}
