//! Multi-tenant cache namespaces for the serving layer.
//!
//! A long-lived service shares evaluation results across requests, but
//! tenants must not interfere: one tenant switching PDKs (a new technology
//! fingerprint) or upgrading its testbench must not invalidate — or evict —
//! another tenant's warm working set, and per-tenant capacity keeps a noisy
//! neighbour from flushing everyone else's entries.
//!
//! [`CacheHub`] therefore keys whole [`EvalCache`] stores by
//! `(tenant, technology fingerprint, testbench version)`. Each namespace is
//! its own sharded LRU store (and, in persistent mode, its own sidecar file
//! named from a directory, the sanitized tenant, a hash of the raw tenant
//! and the fingerprint), opened lazily on first use and reused for the
//! hub's lifetime. Handing a namespace to a flow is just
//! `CachePolicy::Shared(hub.namespace(..))`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::fingerprint::{Fingerprint, FpHasher};
use crate::store::{CachePolicy, CacheStats, EvalCache};

/// Identity of one namespace: who is asking, under which technology and
/// testbench revision.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Namespace {
    /// Tenant identifier (free-form; sanitized before touching the disk).
    pub tenant: String,
    /// Technology fingerprint the tenant's requests evaluate under.
    pub tech_fp: Fingerprint,
    /// Testbench revision.
    pub testbench_version: u32,
}

/// Where namespace stores live.
#[derive(Debug, Clone, PartialEq, Eq)]
enum HubBacking {
    Memory,
    /// One sidecar file per namespace under this directory.
    Dir(PathBuf),
}

/// A registry of per-`(tenant, tech, testbench)` [`EvalCache`] stores.
pub struct CacheHub {
    backing: HubBacking,
    stores: Mutex<HashMap<Namespace, Arc<EvalCache>>>,
}

impl std::fmt::Debug for CacheHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheHub")
            .field("backing", &self.backing)
            .field("namespaces", &self.namespace_count())
            .finish()
    }
}

impl CacheHub {
    /// A hub whose namespaces live purely in memory.
    pub fn in_memory() -> Self {
        CacheHub {
            backing: HubBacking::Memory,
            stores: Mutex::new(HashMap::new()),
        }
    }

    /// A hub that persists each namespace as a sidecar file under `dir`
    /// (`<dir>/<tenant>-<tenant hash>-<tech fp>-tb<version>.primacache`).
    /// The directory is created on first use; failures degrade that
    /// namespace to memory-only via the store's own failure policy.
    pub fn persistent(dir: PathBuf) -> Self {
        CacheHub {
            backing: HubBacking::Dir(dir),
            stores: Mutex::new(HashMap::new()),
        }
    }

    /// The store for one namespace, opened on first use and shared after.
    pub fn namespace(&self, ns: &Namespace) -> Arc<EvalCache> {
        let mut stores = match self.stores.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(existing) = stores.get(ns) {
            return Arc::clone(existing);
        }
        let policy = match &self.backing {
            HubBacking::Memory => CachePolicy::MemoryOnly,
            HubBacking::Dir(dir) => {
                // Best-effort directory creation; an unwritable path shows
                // up as an Io CacheEvent on the namespace, never an error.
                let _ = std::fs::create_dir_all(dir);
                CachePolicy::Persistent(dir.join(sidecar_name(ns)))
            }
        };
        let store = Arc::new(EvalCache::open(policy, ns.tech_fp, ns.testbench_version));
        stores.insert(ns.clone(), Arc::clone(&store));
        store
    }

    /// Number of namespaces opened so far.
    pub fn namespace_count(&self) -> usize {
        match self.stores.lock() {
            Ok(g) => g.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Counter totals across every open namespace.
    pub fn aggregate_stats(&self) -> CacheStats {
        let stores = match self.stores.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut total = CacheStats::default();
        for store in stores.values() {
            let s = store.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.bytes += s.bytes;
            total.invalidations += s.invalidations;
            total.corrupt_records += s.corrupt_records;
        }
        total
    }

    /// Per-namespace counter snapshots (sorted by tenant, then fingerprint,
    /// for deterministic reporting).
    pub fn stats_by_namespace(&self) -> Vec<(Namespace, CacheStats)> {
        let stores = match self.stores.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut rows: Vec<(Namespace, CacheStats)> = stores
            .iter()
            .map(|(ns, store)| (ns.clone(), store.stats()))
            .collect();
        rows.sort_by(|a, b| {
            (
                &a.0.tenant,
                a.0.tech_fp.0,
                a.0.tech_fp.1,
                a.0.testbench_version,
            )
                .cmp(&(
                    &b.0.tenant,
                    b.0.tech_fp.0,
                    b.0.tech_fp.1,
                    b.0.testbench_version,
                ))
        });
        rows
    }

    /// Compacts every persistent namespace to disk. Memory-backed hubs
    /// no-op. I/O problems are absorbed per the cache failure policy (the
    /// snapshot that failed stays append-only) and reported as events on
    /// the affected namespace.
    pub fn save_all(&self) {
        let stores: Vec<Arc<EvalCache>> = {
            let guard = match self.stores.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.values().map(Arc::clone).collect()
        };
        for store in stores {
            let _ = store.save();
        }
    }
}

/// File-system-safe sidecar name for a namespace. Tenant strings are
/// free-form, so everything outside `[A-Za-z0-9_-]` maps to `_` (kept
/// readable, at most 64 characters) and a hash of the raw tenant string
/// keeps tenants that sanitize alike (`"acme corp!"`, `"acme_corp_"`,
/// `""` and `"anon"`) on separate files.
fn sidecar_name(ns: &Namespace) -> String {
    let tenant: String = ns
        .tenant
        .chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let mut h = FpHasher::new();
    h.write_str(&ns.tenant);
    format!(
        "{}-{:016x}-{:016x}{:016x}-tb{}.primacache",
        if tenant.is_empty() { "anon" } else { &tenant },
        h.finish().0,
        ns.tech_fp.0,
        ns.tech_fp.1,
        ns.testbench_version
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::EvalKey;

    fn ns(tenant: &str, fp: Fingerprint) -> Namespace {
        Namespace {
            tenant: tenant.to_string(),
            tech_fp: fp,
            testbench_version: 1,
        }
    }

    fn key(seed: u64) -> EvalKey {
        EvalKey {
            tech: Fingerprint(1, 2),
            def: Fingerprint(seed, seed),
            view: Fingerprint(3, 4),
            bias: Fingerprint(5, 6),
            wires: Fingerprint(7, 8),
            testbench_version: 1,
        }
    }

    fn metrics(v: f64) -> std::collections::HashMap<String, f64> {
        let mut m = std::collections::HashMap::new();
        m.insert("Gm".to_string(), v);
        m
    }

    #[test]
    fn same_namespace_shares_a_store() {
        let hub = CacheHub::in_memory();
        let a = hub.namespace(&ns("acme", Fingerprint(1, 1)));
        let b = hub.namespace(&ns("acme", Fingerprint(1, 1)));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(hub.namespace_count(), 1);
    }

    #[test]
    fn namespaces_are_isolated() {
        let hub = CacheHub::in_memory();
        let acme = hub.namespace(&ns("acme", Fingerprint(1, 1)));
        let globex = hub.namespace(&ns("globex", Fingerprint(1, 1)));
        let acme_tech2 = hub.namespace(&ns("acme", Fingerprint(2, 2)));
        assert!(!Arc::ptr_eq(&acme, &globex));
        assert!(!Arc::ptr_eq(&acme, &acme_tech2));
        acme.store(key(1), &metrics(1.0));
        assert!(globex.lookup(&key(1)).is_none());
        assert!(acme_tech2.lookup(&key(1)).is_none());
        assert!(acme.lookup(&key(1)).is_some());
        assert_eq!(hub.namespace_count(), 3);
        let total = hub.aggregate_stats();
        assert_eq!(total.hits, 1);
        assert_eq!(total.misses, 2);
    }

    #[test]
    fn persistent_hub_survives_reopen_per_namespace() {
        let dir = std::env::temp_dir().join(format!("prima-hub-{}", std::process::id()));
        {
            let hub = CacheHub::persistent(dir.clone());
            let store = hub.namespace(&ns("acme corp!", Fingerprint(9, 9)));
            store.store(key(7), &metrics(7.0));
            hub.save_all();
        }
        let hub = CacheHub::persistent(dir.clone());
        let store = hub.namespace(&ns("acme corp!", Fingerprint(9, 9)));
        assert_eq!(store.lookup(&key(7)).unwrap(), metrics(7.0));
        // A different tenant gets a different sidecar: cold.
        let other = hub.namespace(&ns("other", Fingerprint(9, 9)));
        assert!(other.lookup(&key(7)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sidecar_names_are_sanitized_and_distinct() {
        let a = sidecar_name(&ns("a/../b", Fingerprint(1, 1)));
        assert!(!a.contains('/') && !a.contains(".."));
        assert_ne!(
            sidecar_name(&ns("t", Fingerprint(1, 1))),
            sidecar_name(&ns("t", Fingerprint(1, 2)))
        );
        assert_ne!(sidecar_name(&ns("", Fingerprint(1, 1))).find("anon"), None);
        // Tenants that sanitize or truncate to the same string still get
        // their own files.
        let long = "t".repeat(64);
        let (long_a, long_b) = (format!("{long}a"), format!("{long}b"));
        for (a, b) in [
            ("acme corp!", "acme_corp_"),
            ("", "anon"),
            (long_a.as_str(), long_b.as_str()),
        ] {
            assert_ne!(
                sidecar_name(&ns(a, Fingerprint(1, 1))),
                sidecar_name(&ns(b, Fingerprint(1, 1))),
                "{a:?} and {b:?} share a sidecar"
            );
        }
    }

    #[test]
    fn persistent_tenants_stay_isolated_after_reopen() {
        let dir = std::env::temp_dir().join(format!("prima-hub-iso-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let hub = CacheHub::persistent(dir.clone());
            let store = hub.namespace(&ns("acme corp!", Fingerprint(9, 9)));
            store.store(key(7), &metrics(7.0));
            hub.save_all();
        }
        let hub = CacheHub::persistent(dir.clone());
        let other = hub.namespace(&ns("acme_corp_", Fingerprint(9, 9)));
        assert!(other.lookup(&key(7)).is_none());
        let own = hub.namespace(&ns("acme corp!", Fingerprint(9, 9)));
        assert_eq!(own.lookup(&key(7)).unwrap(), metrics(7.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
