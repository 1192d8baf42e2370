//! Multi-tenant hosting: many [`ShardedDb`] deployments sharing one WORM
//! volume and one compliance clock.
//!
//! # Model
//!
//! Each tenant is a full sharded deployment of `n ≥ 1` compliant databases
//! — its own relation catalog, retention (Expiry) relation, WALs, and
//! buffer pools — with shard `i` rooted at `dir/tenants/<name>/shards/<i>`
//! for conventional media, and every compliance artifact written through a
//! [`WormServer::namespace`] view under `tenants/<name>/` on the *shared*
//! WORM volume (`dir/worm`). A single-engine deployment is one tenant of
//! one shard; a one-shard tenant never runs 2PC.
//!
//! That split buys the two properties the service layer needs:
//!
//! - **Per-tenant audits**: an audit quiesces (checkpoints, snapshots) the
//!   database it examines. Partitioned engines mean auditing tenant A never
//!   blocks tenant B's commits, and A's replay reads only A's L-streams.
//! - **Global verifiability**: all tenants append to one WORM device with a
//!   single append-sequence space and one metadata journal, so a regulator
//!   holding the volume can still order every artifact across tenants —
//!   namespaces are name prefixes, not separate trust domains.
//!
//! Tenant names are restricted to `[a-z0-9_-]` so they are safe as both
//! directory components and WORM name prefixes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ccdb_common::sync::Mutex;
use ccdb_common::{ClockRef, Error, Result};
use ccdb_worm::WormServer;

use crate::db::{ComplianceConfig, CompliantDb};
use crate::shard::{ShardedDb, SHARDMAP_FILE};

/// WORM namespace prefix under which every tenant lives.
pub const TENANT_NS_ROOT: &str = "tenants";

/// Validates a tenant name: non-empty, `[a-z0-9_-]` only, ≤ 64 bytes.
pub fn validate_tenant_name(name: &str) -> Result<()> {
    if name.is_empty() || name.len() > 64 {
        return Err(Error::Invalid(format!(
            "tenant name must be 1..=64 bytes, got {}",
            name.len()
        )));
    }
    if !name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'-')
    {
        return Err(Error::Invalid(format!("tenant name {name:?} must match [a-z0-9_-]+")));
    }
    Ok(())
}

/// A set of tenant deployments sharing one WORM volume and clock, each
/// sharded the same number of ways.
pub struct TenantRegistry {
    dir: PathBuf,
    clock: ClockRef,
    config: ComplianceConfig,
    shards: u32,
    worm: Arc<WormServer>,
    tenants: Mutex<BTreeMap<String, Arc<ShardedDb>>>,
}

impl TenantRegistry {
    /// Opens (or creates) the shared volume under `dir/worm` and re-opens
    /// every tenant that already exists on it (tenants are discovered from
    /// the WORM metadata journal, not the conventional filesystem — the
    /// journal is the tamper-evident record of which tenants exist). Every
    /// tenant has `shards` shards; a tenant whose WORM shard map pins a
    /// different count is refused.
    pub fn open(
        dir: impl AsRef<Path>,
        clock: ClockRef,
        config: ComplianceConfig,
        shards: u32,
    ) -> Result<TenantRegistry> {
        let dir = dir.as_ref().to_path_buf();
        let worm = Arc::new(WormServer::open(dir.join("worm"), clock.clone())?);
        let reg = TenantRegistry {
            dir,
            clock,
            config,
            shards,
            worm,
            tenants: Mutex::new(BTreeMap::new()),
        };
        for name in reg.names_on_volume() {
            // Every tenant's first artifact is its shard map; a tenant
            // without one was written by the older one-engine-per-tenant
            // layout, which is not migrated.
            if !reg.worm.exists(&format!("{TENANT_NS_ROOT}/{name}/{SHARDMAP_FILE}")) {
                return Err(Error::Invalid(format!(
                    "tenant {name:?} has no shard map: written by an older layout"
                )));
            }
            reg.create_or_open(&name)?;
        }
        Ok(reg)
    }

    /// The shared WORM volume (root view — sees every tenant's artifacts
    /// under `tenants/<name>/...`).
    pub fn worm(&self) -> &Arc<WormServer> {
        &self.worm
    }

    /// Shards per tenant.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Every open tenant with its deployment, sorted by name.
    pub fn list(&self) -> Vec<(String, Arc<ShardedDb>)> {
        self.tenants.lock().iter().map(|(n, db)| (n.clone(), db.clone())).collect()
    }

    /// Tenant names present on the WORM volume (open or not), derived from
    /// artifact prefixes in the metadata journal.
    fn names_on_volume(&self) -> Vec<String> {
        let mut out = Vec::new();
        let prefix = format!("{TENANT_NS_ROOT}/");
        for (name, _meta) in self.worm.list(&prefix) {
            let rest = &name[prefix.len()..];
            if let Some(t) = rest.split('/').next() {
                if !t.is_empty() && out.iter().all(|x: &String| x != t) {
                    out.push(t.to_string());
                }
            }
        }
        out.sort();
        out
    }

    /// The tenant's deployment if it is open, `None` otherwise.
    pub fn get(&self, name: &str) -> Option<Arc<ShardedDb>> {
        self.tenants.lock().get(name).cloned()
    }

    /// The engine of a one-shard tenant; `None` when the tenant is not
    /// open or has more than one shard (use [`TenantRegistry::get`]).
    pub fn tenant(&self, name: &str) -> Option<Arc<CompliantDb>> {
        match self.get(name)?.shards() {
            [db] => Some(db.clone()),
            _ => None,
        }
    }

    /// Opens `name`, creating it on first use. Idempotent; concurrent
    /// callers get the same instance.
    pub fn create_or_open(&self, name: &str) -> Result<Arc<ShardedDb>> {
        validate_tenant_name(name)?;
        let mut tenants = self.tenants.lock();
        if let Some(db) = tenants.get(name) {
            return Ok(db.clone());
        }
        let ns = self.worm.namespace(&format!("{TENANT_NS_ROOT}/{name}"))?;
        let db = Arc::new(ShardedDb::open_with_worm(
            self.dir.join(TENANT_NS_ROOT).join(name),
            self.clock.clone(),
            self.config.clone(),
            Arc::new(ns),
            self.shards,
        )?);
        tenants.insert(name.to_string(), db.clone());
        Ok(db)
    }

    /// Simulates a crash of every tenant at once and reopens the registry
    /// from disk, running crash recovery (and in-doubt 2PC resolution) on
    /// every shard.
    pub fn crash_and_recover(self) -> Result<TenantRegistry> {
        let TenantRegistry { dir, clock, config, shards, worm, tenants } = self;
        for db in tenants.lock().values() {
            db.simulate_crash();
        }
        drop(tenants);
        drop(worm);
        TenantRegistry::open(dir, clock, config, shards)
    }

    /// Simulates a crash of shard `i` of tenant `name` alone and recovers
    /// it (see [`ShardedDb::crash_shard`]). Refused while any other handle
    /// to the tenant is alive.
    pub fn crash_shard(&self, name: &str, i: usize) -> Result<()> {
        let mut tenants = self.tenants.lock();
        let db = tenants.get_mut(name).and_then(Arc::get_mut).ok_or_else(|| {
            Error::Invalid(format!("tenant {name:?} is not open or has live handles"))
        })?;
        db.crash_shard(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Mode;
    use ccdb_common::{Duration, VirtualClock};

    fn tmp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "ccdb-tenant-{}-{}-{}",
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

    #[test]
    fn tenants_are_isolated_but_share_the_volume() {
        let dir = tmp("iso");
        let reg = TenantRegistry::open(&dir, clock(), cfg(), 2).unwrap();
        let a = reg.create_or_open("alpha").unwrap();
        let b = reg.create_or_open("beta").unwrap();

        let ra = a.create_relation("orders", ccdb_btree::SplitPolicy::KeyOnly).unwrap();
        let rb = b.create_relation("invoices", ccdb_btree::SplitPolicy::KeyOnly).unwrap();
        let mut ta = a.begin();
        a.write(&mut ta, ra, b"k1", b"va").unwrap();
        let t_commit = a.commit(ta).unwrap();
        let mut tb = b.begin();
        b.write(&mut tb, rb, b"k1", b"vb").unwrap();
        b.commit(tb).unwrap();

        // Catalogs are disjoint.
        assert!(a.rel_id("invoices").is_none());
        assert!(b.rel_id("orders").is_none());

        // Both audit clean, independently.
        assert!(a.audit().unwrap().is_clean());
        assert!(b.audit().unwrap().is_clean());

        // The shared volume sees both tenants' shards under their
        // prefixes; each tenant's namespaced view sees only its own.
        let root_names: Vec<String> = reg.worm().list("").into_iter().map(|(n, _)| n).collect();
        for t in ["alpha", "beta"] {
            for i in 0..2 {
                let p = format!("tenants/{t}/shards/{i}/");
                assert!(root_names.iter().any(|n| n.starts_with(&p)), "nothing under {p}");
            }
        }
        assert!(a.worm().list("").iter().all(|(n, _)| !n.contains("tenants/")));
        assert!(dir.join("tenants/alpha/shards/1/engine").is_dir());
        // A sharded tenant has no single engine to hand out.
        assert!(reg.tenant("alpha").is_none());
        drop((a, b));

        // Reopen: tenants are rediscovered from the volume.
        drop(reg);
        let reg = TenantRegistry::open(&dir, clock(), cfg(), 2).unwrap();
        let names: Vec<String> = reg.list().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha".to_string(), "beta".to_string()]);
        let a = reg.get("alpha").unwrap();
        let rel = a.rel_id("orders").unwrap();
        assert_eq!(a.shard_for(b"k1").read_as_of(rel, b"k1", t_commit).unwrap().unwrap(), b"va");
        drop(a);
        drop(reg);
        // The WORM shard maps pin the shard count.
        assert!(TenantRegistry::open(&dir, clock(), cfg(), 3).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_names_are_validated() {
        let dir = tmp("names");
        let reg = TenantRegistry::open(&dir, clock(), cfg(), 1).unwrap();
        for bad in ["", "Upper", "a/b", "a b", "..", &"x".repeat(65)] {
            assert!(reg.create_or_open(bad).is_err(), "accepted {bad:?}");
        }
        assert!(reg.create_or_open("ok-tenant_0").is_ok());
        // A one-shard tenant hands out its engine.
        assert!(reg.tenant("ok-tenant_0").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
