//! Two-tier evaluation store: sharded in-memory map + append-only disk log.
//!
//! ## Disk format
//!
//! ```text
//! header  := magic "PRIMACHE" (8B) | format_version u32 LE | testbench_version u32 LE
//!            | technology fingerprint (16B)                           — 36 bytes
//! record  := EvalKey (84B) | n u32 LE | n × (name_len u32 LE, name, f64 bits u64 LE)
//!            | fnv64 checksum over the record bytes before it (u64 LE)
//! file    := header record*
//! ```
//!
//! Records are appended live as evaluations complete, so even an aborted run
//! leaves its work on disk. [`EvalCache::save`] rewrites a compacted snapshot
//! atomically (temp file + rename); entries evicted from memory are dropped
//! at compaction, which is the eviction policy's disk half.
//!
//! ## Failure policy
//!
//! A cache must never be worse than no cache. Every disk problem — missing
//! file, unreadable file, wrong magic, version or technology mismatch,
//! truncated tail, checksum-corrupt record — degrades to a cold start for
//! the affected entries and is reported as a [`CacheEvent`] for the flow to
//! surface as a `Severity::Degraded` diagnostic. No path in this module
//! returns an error to the evaluation pipeline or panics on disk state.

use std::collections::{HashMap, VecDeque};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::fingerprint::Fingerprint;
use crate::key::{EvalKey, KEY_BYTES};

const MAGIC: &[u8; 8] = b"PRIMACHE";
/// Bump when the record layout or the fingerprint mixing function changes.
pub const FORMAT_VERSION: u32 = 1;
const HEADER_BYTES: usize = 8 + 4 + 4 + 16;
const SHARDS: usize = 16;
const DEFAULT_CAPACITY: usize = SHARDS * 16_384;
/// Sanity bounds while parsing untrusted disk bytes: a garbage length field
/// must not trigger a huge allocation.
const MAX_METRICS_PER_RECORD: u32 = 4_096;
const MAX_NAME_LEN: u32 = 4_096;

/// Where (and whether) evaluation results are cached.
#[derive(Debug, Clone, Default)]
pub enum CachePolicy {
    /// No caching; every evaluation runs the testbench.
    #[default]
    Off,
    /// Intra-run reuse only; nothing touches disk.
    MemoryOnly,
    /// Intra-run reuse plus a persistent record log at this path.
    Persistent(PathBuf),
    /// Use an already-open cache owned by someone else (the serving layer's
    /// per-tenant namespace, a test's shared store). The flow neither opens
    /// nor saves it; its owner controls persistence and lifetime.
    Shared(Arc<EvalCache>),
}

/// `Shared` compares by identity (same underlying store), the rest by value.
impl PartialEq for CachePolicy {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CachePolicy::Off, CachePolicy::Off) => true,
            (CachePolicy::MemoryOnly, CachePolicy::MemoryOnly) => true,
            (CachePolicy::Persistent(a), CachePolicy::Persistent(b)) => a == b,
            (CachePolicy::Shared(a), CachePolicy::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for CachePolicy {}

/// Counters describing one cache's lifetime (monotonic within a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that fell through to a real evaluation.
    pub misses: u64,
    /// Entries dropped from memory to respect the capacity bound.
    pub evictions: u64,
    /// Serialized bytes of the entries currently held in memory.
    pub bytes: u64,
    /// Wholesale drops of a persisted cache (header version/technology
    /// mismatch, foreign file).
    pub invalidations: u64,
    /// Truncated or checksum-corrupt disk records skipped during load.
    pub corrupt_records: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What went wrong (or was deliberately dropped) on the disk tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEventKind {
    /// Truncated tail or checksum-corrupt record: affected entries cold-start.
    Corrupt,
    /// Header mismatch (format/testbench version or technology changed):
    /// the whole persisted cache was discarded.
    Invalidated,
    /// An I/O error reading or writing the log; caching continues in memory.
    Io,
}

/// One diagnosable disk-tier incident, for the flow to surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEvent {
    /// Incident class.
    pub kind: CacheEventKind,
    /// Human-readable detail (path, offset, expectation).
    pub detail: String,
}

struct Entry {
    /// Metric values sorted by name (deterministic disk order).
    values: Vec<(String, f64)>,
    /// Serialized record size, for the bytes counter.
    bytes: u64,
    /// Clock-LRU reference bit: set on every hit, cleared when the clock
    /// hand passes. An entry is only evicted with its bit clear, so anything
    /// touched since the last sweep survives one full rotation.
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<EvalKey, Entry>,
    /// The clock ring: insertion order, with second-chance requeues.
    order: VecDeque<EvalKey>,
}

/// Content-addressed evaluation cache (see module docs for format/policy).
pub struct EvalCache {
    enabled: bool,
    tech_fp: Fingerprint,
    testbench_version: u32,
    shards: Vec<Mutex<Shard>>,
    shard_cap: usize,
    path: Option<PathBuf>,
    log: Mutex<Option<File>>,
    events: Mutex<Vec<CacheEvent>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
    invalidations: AtomicU64,
    corrupt_records: AtomicU64,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("enabled", &self.enabled)
            .field("tech_fp", &self.tech_fp)
            .field("path", &self.path)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EvalCache {
    /// Opens a cache under `policy` for one technology + testbench revision.
    ///
    /// With [`CachePolicy::Persistent`] the log at the given path is loaded
    /// immediately; any disk problem is absorbed into [`EvalCache::events`]
    /// and the affected entries simply start cold.
    pub fn open(policy: CachePolicy, tech_fp: Fingerprint, testbench_version: u32) -> Self {
        Self::open_with_capacity(policy, tech_fp, testbench_version, DEFAULT_CAPACITY)
    }

    /// [`EvalCache::open`] with an explicit total in-memory entry capacity
    /// (rounded up to a per-shard bound; used by eviction tests).
    pub fn open_with_capacity(
        policy: CachePolicy,
        tech_fp: Fingerprint,
        testbench_version: u32,
        capacity: usize,
    ) -> Self {
        let (enabled, path) = match policy {
            CachePolicy::Off => (false, None),
            CachePolicy::MemoryOnly => (true, None),
            CachePolicy::Persistent(p) => (true, Some(p)),
            // A shared policy names an already-open store; callers wanting
            // that store should use [`EvalCache::resolve`]. Constructing a
            // fresh cache from it degrades to memory-only rather than
            // aliasing (a cache must never be worse than no cache).
            CachePolicy::Shared(_) => (true, None),
        };
        let cache = EvalCache {
            enabled,
            tech_fp,
            testbench_version,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: capacity.div_ceil(SHARDS).max(1),
            path,
            log: Mutex::new(None),
            events: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            corrupt_records: AtomicU64::new(0),
        };
        if cache.enabled && cache.path.is_some() {
            cache.attach_disk();
        }
        cache
    }

    /// Resolves a policy to a usable cache handle: a [`CachePolicy::Shared`]
    /// policy yields the shared store itself (ignoring `tech_fp` /
    /// `testbench_version`, which the shared store's owner fixed at open
    /// time — `EvalKey` embeds both, so a mismatched caller simply misses);
    /// every other policy opens a fresh cache.
    pub fn resolve(policy: CachePolicy, tech_fp: Fingerprint, testbench_version: u32) -> Arc<Self> {
        match policy {
            CachePolicy::Shared(cache) => cache,
            other => Arc::new(Self::open(other, tech_fp, testbench_version)),
        }
    }

    /// `false` for a [`CachePolicy::Off`] cache (lookups always miss-free
    /// no-ops and nothing is stored).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Looks up one evaluation; counts a hit or a miss.
    pub fn lookup(&self, key: &EvalKey) -> Option<HashMap<String, f64>> {
        if !self.enabled {
            return None;
        }
        let shard = self.shard_of(key);
        let mut guard = match self.shards[shard].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match guard.map.get_mut(key) {
            Some(entry) => {
                entry.referenced = true; // LRU: protect from the next sweep
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.values.iter().cloned().collect())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores one successful evaluation result. Failed or fault-injected
    /// evaluations must not reach this method (the optimizer only stores
    /// `Ok` results, so ledgered candidates are never cached).
    pub fn store(&self, key: EvalKey, values: &HashMap<String, f64>) {
        if !self.enabled {
            return;
        }
        let mut sorted: Vec<(String, f64)> = values.iter().map(|(k, v)| (k.clone(), *v)).collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let record = serialize_record(&key, &sorted);
        if !self.insert(key, sorted, record.len() as u64) {
            return; // already present (racing miss); keep the first copy
        }
        self.append_record(&record);
    }

    /// Current counters (a consistent-enough snapshot; counters are relaxed).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            corrupt_records: self.corrupt_records.load(Ordering::Relaxed),
        }
    }

    /// Disk-tier incidents accumulated so far (corruption, invalidation, I/O).
    pub fn events(&self) -> Vec<CacheEvent> {
        match self.events.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Writes a compacted snapshot of the in-memory entries atomically
    /// (temp file + rename) and re-points the live append log at it.
    /// No-op for non-persistent caches. Returns the snapshot size in bytes.
    pub fn save(&self) -> std::io::Result<u64> {
        let Some(path) = self.path.as_deref() else {
            return Ok(0);
        };
        // Hold the log from the snapshot through the reopen: a record
        // appended in between would land in the file the rename unlinks,
        // and concurrent saves would race on the one temp file.
        let mut log = match self.log.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut buf = self.header_bytes();
        for shard in &self.shards {
            let guard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            for key in &guard.order {
                if let Some(entry) = guard.map.get(key) {
                    buf.extend_from_slice(&serialize_record(key, &entry.values));
                }
            }
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // The old handle points at the unlinked file; never append to it.
        *log = None;
        *log = Some(OpenOptions::new().append(true).open(path)?);
        Ok(buf.len() as u64)
    }

    // ------------------------------------------------------------------
    // internals

    fn shard_of(&self, key: &EvalKey) -> usize {
        (key.id().0 % SHARDS as u64) as usize
    }

    /// Inserts without touching the log; returns `false` when already present.
    ///
    /// Eviction is clock (second-chance) LRU: the hand walks the ring from
    /// the front; a referenced entry has its bit cleared and is requeued, an
    /// unreferenced one is evicted. Recently-hit entries therefore survive a
    /// full rotation, which is what keeps one tenant's hot working set alive
    /// while another tenant's one-shot keys stream through the shard.
    fn insert(&self, key: EvalKey, values: Vec<(String, f64)>, record_bytes: u64) -> bool {
        let shard = self.shard_of(&key);
        let mut guard = match self.shards[shard].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let shard = &mut *guard;
        if shard.map.contains_key(&key) {
            return false;
        }
        while shard.map.len() >= self.shard_cap {
            let Some(victim) = shard.order.pop_front() else {
                break;
            };
            match shard.map.get_mut(&victim) {
                Some(entry) if entry.referenced => {
                    // Second chance: clear the bit, rotate to the back.
                    entry.referenced = false;
                    shard.order.push_back(victim);
                }
                Some(_) => {
                    if let Some(evicted) = shard.map.remove(&victim) {
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        self.bytes.fetch_sub(evicted.bytes, Ordering::Relaxed);
                    }
                }
                // Stale ring slot (shouldn't happen; map and ring are kept
                // in lockstep) — just drop it.
                None => {}
            }
        }
        shard.map.insert(
            key,
            Entry {
                values,
                bytes: record_bytes,
                referenced: false,
            },
        );
        shard.order.push_back(key);
        self.bytes.fetch_add(record_bytes, Ordering::Relaxed);
        true
    }

    fn push_event(&self, kind: CacheEventKind, detail: String) {
        match kind {
            CacheEventKind::Corrupt => {
                self.corrupt_records.fetch_add(1, Ordering::Relaxed);
            }
            CacheEventKind::Invalidated => {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
            CacheEventKind::Io => {}
        }
        let mut events = match self.events.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        events.push(CacheEvent { kind, detail });
    }

    fn header_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_BYTES);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.testbench_version.to_le_bytes());
        buf.extend_from_slice(&self.tech_fp.to_bytes());
        buf
    }

    fn append_record(&self, record: &[u8]) {
        let mut log = match self.log.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let Some(file) = log.as_mut() else {
            return;
        };
        if let Err(e) = file.write_all(record) {
            // Disable further appends; memory tier keeps working.
            *log = None;
            drop(log);
            self.push_event(CacheEventKind::Io, format!("append failed: {e}"));
        }
    }

    /// Loads the persisted log (tolerantly) and opens the live append handle.
    fn attach_disk(&self) {
        let Some(path) = self.path.clone() else {
            return;
        };
        let display = path.display().to_string();
        // `dirty`: the file needs a clean rewrite before appending.
        let dirty = match fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => true, // fresh header needed
            Err(e) => {
                self.push_event(CacheEventKind::Io, format!("read {display}: {e}"));
                true
            }
            Ok(data) => !self.load_bytes(&data, &display),
        };
        if dirty {
            // Rewrite from the surviving in-memory entries (possibly none)
            // so garbage tails and stale headers never persist.
            if let Err(e) = self.save() {
                self.push_event(CacheEventKind::Io, format!("rewrite {display}: {e}"));
            }
        } else {
            match OpenOptions::new().append(true).open(&path) {
                Ok(f) => {
                    let mut log = match self.log.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    *log = Some(f);
                }
                Err(e) => {
                    self.push_event(CacheEventKind::Io, format!("open {display}: {e}"));
                }
            }
        }
    }

    /// Parses a whole log file into the memory tier. Returns `true` when the
    /// file was fully clean (header and every record valid).
    fn load_bytes(&self, data: &[u8], display: &str) -> bool {
        if data.len() < HEADER_BYTES {
            self.push_event(
                CacheEventKind::Corrupt,
                format!("{display}: truncated header ({} bytes)", data.len()),
            );
            return false;
        }
        if &data[..8] != MAGIC {
            self.push_event(
                CacheEventKind::Corrupt,
                format!("{display}: bad magic (not a cache file)"),
            );
            return false;
        }
        let u32_at = |at: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&data[at..at + 4]);
            u32::from_le_bytes(b)
        };
        let format = u32_at(8);
        let tb = u32_at(12);
        let mut tech_bytes = [0u8; 16];
        tech_bytes.copy_from_slice(&data[16..32]);
        let tech = Fingerprint::from_bytes(tech_bytes);
        if format != FORMAT_VERSION || tb != self.testbench_version || tech != self.tech_fp {
            self.push_event(
                CacheEventKind::Invalidated,
                format!(
                    "{display}: header mismatch (format {format} vs {FORMAT_VERSION}, \
                     testbench {tb} vs {}, technology {tech} vs {})",
                    self.testbench_version, self.tech_fp
                ),
            );
            return false;
        }
        let mut at = HEADER_BYTES;
        let mut clean = true;
        while at < data.len() {
            match parse_record(data, at) {
                Some((key, values, consumed)) => {
                    let record_bytes = consumed as u64;
                    self.insert(key, values, record_bytes);
                    at += consumed;
                }
                None => {
                    self.push_event(
                        CacheEventKind::Corrupt,
                        format!(
                            "{display}: corrupt or truncated record at byte {at}; \
                             dropping the tail"
                        ),
                    );
                    clean = false;
                    break;
                }
            }
        }
        clean
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn serialize_record(key: &EvalKey, values: &[(String, f64)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(KEY_BYTES + 4 + values.len() * 24 + 8);
    buf.extend_from_slice(&key.to_bytes());
    buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for (name, value) in values {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    let checksum = fnv64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// A parsed disk record: key, sorted metric values, bytes consumed.
type ParsedRecord = (EvalKey, Vec<(String, f64)>, usize);

/// Parses one record starting at `at`; `None` on truncation or bad checksum.
fn parse_record(data: &[u8], at: usize) -> Option<ParsedRecord> {
    let rest = &data[at..];
    if rest.len() < KEY_BYTES + 4 {
        return None;
    }
    let mut key_bytes = [0u8; KEY_BYTES];
    key_bytes.copy_from_slice(&rest[..KEY_BYTES]);
    let mut pos = KEY_BYTES;
    let read_u32 = |pos: usize| -> Option<u32> {
        let b = rest.get(pos..pos + 4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Some(u32::from_le_bytes(a))
    };
    let n = read_u32(pos)?;
    pos += 4;
    if n > MAX_METRICS_PER_RECORD {
        return None;
    }
    let mut values = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name_len = read_u32(pos)?;
        pos += 4;
        if name_len > MAX_NAME_LEN {
            return None;
        }
        let name_bytes = rest.get(pos..pos + name_len as usize)?;
        let name = std::str::from_utf8(name_bytes).ok()?.to_string();
        pos += name_len as usize;
        let bits_bytes = rest.get(pos..pos + 8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(bits_bytes);
        values.push((name, f64::from_bits(u64::from_le_bytes(a))));
        pos += 8;
    }
    let stored = rest.get(pos..pos + 8)?;
    let mut a = [0u8; 8];
    a.copy_from_slice(stored);
    if u64::from_le_bytes(a) != fnv64(&rest[..pos]) {
        return None;
    }
    pos += 8;
    Some((EvalKey::from_bytes(&key_bytes), values, pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static TEMP_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "prima-cache-test-{}-{tag}-{seq}.bin",
            std::process::id()
        ))
    }

    fn key(seed: u64) -> EvalKey {
        EvalKey {
            tech: Fingerprint(1, 2),
            def: Fingerprint(seed, seed ^ 0xabcd),
            view: Fingerprint(seed.wrapping_mul(7), 3),
            bias: Fingerprint(4, seed.rotate_left(13)),
            wires: Fingerprint(5, 6),
            testbench_version: 1,
        }
    }

    fn metrics(seed: u64) -> HashMap<String, f64> {
        let mut m = HashMap::new();
        m.insert("Gm".to_string(), seed as f64 * 1e-3);
        m.insert("Ctotal".to_string(), seed as f64 * 1e-15);
        m
    }

    #[test]
    fn off_policy_is_inert() {
        let c = EvalCache::open(CachePolicy::Off, Fingerprint(1, 2), 1);
        c.store(key(1), &metrics(1));
        assert_eq!(c.lookup(&key(1)), None);
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn memory_roundtrip_counts_hits_and_misses() {
        let c = EvalCache::open(CachePolicy::MemoryOnly, Fingerprint(1, 2), 1);
        assert_eq!(c.lookup(&key(1)), None);
        c.store(key(1), &metrics(1));
        assert_eq!(c.lookup(&key(1)).unwrap(), metrics(1));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn eviction_respects_capacity() {
        let c = EvalCache::open_with_capacity(CachePolicy::MemoryOnly, Fingerprint(1, 2), 1, 16);
        for seed in 0..200 {
            c.store(key(seed), &metrics(seed));
        }
        let s = c.stats();
        assert!(s.evictions > 0, "expected evictions past capacity");
        let held: u64 = 200 - s.evictions;
        assert!(held <= 16, "held {held} entries above total capacity");
    }

    #[test]
    fn eviction_is_lru_not_fifo() {
        // Total capacity 32 over 16 shards → 2 entries per shard.
        let c = EvalCache::open_with_capacity(CachePolicy::MemoryOnly, Fingerprint(1, 2), 1, 32);
        // Three keys that collide into one shard.
        let mut same_shard = Vec::new();
        let mut seed = 0u64;
        let want = c.shard_of(&key(0));
        while same_shard.len() < 3 {
            if c.shard_of(&key(seed)) == want {
                same_shard.push(key(seed));
            }
            seed += 1;
        }
        let (oldest, middle, newcomer) = (same_shard[0], same_shard[1], same_shard[2]);
        c.store(oldest, &metrics(1));
        c.store(middle, &metrics(2));
        // Touch the oldest entry: under FIFO it would still be the next
        // victim; under LRU the untouched middle entry is.
        assert!(c.lookup(&oldest).is_some());
        c.store(newcomer, &metrics(3));
        assert!(c.lookup(&oldest).is_some(), "recently-used entry evicted");
        assert!(c.lookup(&middle).is_none(), "LRU victim survived");
        assert!(c.lookup(&newcomer).is_some());
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn shared_policy_resolves_to_same_store() {
        let base = Arc::new(EvalCache::open(
            CachePolicy::MemoryOnly,
            Fingerprint(1, 2),
            1,
        ));
        base.store(key(5), &metrics(5));
        let policy = CachePolicy::Shared(Arc::clone(&base));
        assert_eq!(policy, policy.clone());
        assert_ne!(policy, CachePolicy::MemoryOnly);
        let resolved = EvalCache::resolve(policy, Fingerprint(1, 2), 1);
        assert!(Arc::ptr_eq(&resolved, &base));
        assert_eq!(resolved.lookup(&key(5)).unwrap(), metrics(5));
        // Non-shared policies open a fresh store.
        let fresh = EvalCache::resolve(CachePolicy::MemoryOnly, Fingerprint(1, 2), 1);
        assert!(!Arc::ptr_eq(&fresh, &base));
        assert!(fresh.lookup(&key(5)).is_none());
    }

    #[test]
    fn persistent_roundtrip_across_open() {
        let path = temp_path("roundtrip");
        let tech = Fingerprint(9, 9);
        {
            let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
            c.store(key(1), &metrics(1));
            c.store(key(2), &metrics(2));
            c.save().unwrap();
        }
        let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
        assert_eq!(c.lookup(&key(1)).unwrap(), metrics(1));
        assert_eq!(c.lookup(&key(2)).unwrap(), metrics(2));
        assert!(c.events().is_empty(), "clean load: {:?}", c.events());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn live_appends_survive_without_save() {
        let path = temp_path("live");
        let tech = Fingerprint(9, 9);
        {
            let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
            c.store(key(7), &metrics(7));
            // no save(): the append-only log alone must carry the entry
        }
        let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
        assert_eq!(c.lookup(&key(7)).unwrap(), metrics(7));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn header_mismatch_invalidates_wholesale() {
        let path = temp_path("invalidate");
        {
            let c = EvalCache::open(CachePolicy::Persistent(path.clone()), Fingerprint(9, 9), 1);
            c.store(key(1), &metrics(1));
            c.save().unwrap();
        }
        // Different technology fingerprint: everything must drop.
        let c = EvalCache::open(CachePolicy::Persistent(path.clone()), Fingerprint(8, 8), 1);
        assert_eq!(c.lookup(&key(1)), None);
        assert_eq!(c.stats().invalidations, 1);
        assert!(c
            .events()
            .iter()
            .any(|e| e.kind == CacheEventKind::Invalidated));
        // Different testbench version likewise.
        let c2 = EvalCache::open(CachePolicy::Persistent(path.clone()), Fingerprint(8, 8), 2);
        assert_eq!(c2.stats().hits, 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn truncated_tail_keeps_valid_prefix() {
        let path = temp_path("truncate");
        let tech = Fingerprint(9, 9);
        {
            let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
            for seed in 0..8 {
                c.store(key(seed), &metrics(seed));
            }
            c.save().unwrap();
        }
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 11]).unwrap();
        let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
        let s = c.stats();
        assert_eq!(s.corrupt_records, 1, "events: {:?}", c.events());
        // The first 7 records are intact; only the cut-off last one is lost.
        let alive = (0..8)
            .filter(|&seed| c.lookup(&key(seed)).is_some())
            .count();
        assert_eq!(alive, 7);
        // The rewrite must have produced a clean file again.
        let c2 = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
        assert!(c2.events().is_empty(), "events: {:?}", c2.events());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_is_detected_and_recovered() {
        let path = temp_path("bitflip");
        let tech = Fingerprint(9, 9);
        {
            let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
            for seed in 0..4 {
                c.store(key(seed), &metrics(seed));
            }
            c.save().unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        let mid = HEADER_BYTES + (bytes.len() - HEADER_BYTES) / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
        assert!(c.stats().corrupt_records >= 1);
        assert!(c.events().iter().any(|e| e.kind == CacheEventKind::Corrupt));
        // Never an error: the cache still works for new entries.
        c.store(key(99), &metrics(99));
        assert_eq!(c.lookup(&key(99)).unwrap(), metrics(99));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn garbage_file_degrades_to_cold_start() {
        let path = temp_path("garbage");
        fs::write(&path, b"definitely not a cache").unwrap();
        let c = EvalCache::open(CachePolicy::Persistent(path.clone()), Fingerprint(9, 9), 1);
        assert_eq!(c.lookup(&key(1)), None);
        assert!(c.events().iter().any(|e| e.kind == CacheEventKind::Corrupt));
        c.store(key(1), &metrics(1));
        c.save().unwrap();
        let c2 = EvalCache::open(CachePolicy::Persistent(path.clone()), Fingerprint(9, 9), 1);
        assert_eq!(c2.lookup(&key(1)).unwrap(), metrics(1));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn concurrent_saves_keep_every_key() {
        let path = temp_path("concurrent");
        let tech = Fingerprint(9, 9);
        let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        c.save().unwrap();
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for seed in 0..400 {
                    c.store(key(seed), &metrics(seed));
                }
            });
        });
        drop(c);
        let c = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
        for seed in 0..400 {
            assert_eq!(c.lookup(&key(seed)), Some(metrics(seed)), "key {seed} lost");
        }
        assert!(c.events().is_empty(), "clean load: {:?}", c.events());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_compacts_evicted_entries_away() {
        let path = temp_path("compact");
        let tech = Fingerprint(9, 9);
        let c = EvalCache::open_with_capacity(CachePolicy::Persistent(path.clone()), tech, 1, 16);
        for seed in 0..100 {
            c.store(key(seed), &metrics(seed));
        }
        c.save().unwrap();
        let c2 = EvalCache::open(CachePolicy::Persistent(path.clone()), tech, 1);
        let alive = (0..100).filter(|&s| c2.lookup(&key(s)).is_some()).count();
        assert!(alive <= 16, "compaction kept {alive} > capacity entries");
        assert!(alive > 0);
        let _ = fs::remove_file(&path);
    }
}
