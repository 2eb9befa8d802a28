//! Content-addressed result cache.
//!
//! Jobs are addressed by [`crate::protocol::JobSpec::canonical_key`] —
//! a canonical rendering of exactly the fields the simulation output
//! depends on. Simulations are deterministic in that key, so a hit can
//! return the stored payload verbatim: replies served from cache are
//! **byte-identical** to the cold run that populated the entry (the
//! payload is a [`Value`] tree and the JSON writer is deterministic).
//!
//! Trust, but verify: determinism is an invariant of the simulator, and
//! invariants rot. A deterministic sample of hits (every
//! `verify_every`-th, counted per cache) is flagged for re-execution;
//! the service re-runs the job and compares the fresh payload against
//! the cached bytes, counting any mismatch in
//! [`CacheStats::verify_failures`] — a nonzero count means the
//! determinism contract is broken and cached replies cannot be trusted.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use bench::json::{self, Limits, Value};
use statecodec::crc32;

use crate::protocol::fnv1a;

/// Cache sizing and verification policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum retained entries; least-recently-used entries are
    /// evicted beyond this. Zero disables caching entirely.
    pub max_entries: usize,
    /// Verify every N-th hit by re-running the job and comparing bytes
    /// (0 disables verification).
    pub verify_every: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { max_entries: 256, verify_every: 16 }
    }
}

/// Cache observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Hits flagged for verification re-runs.
    pub verified: u64,
    /// Verification re-runs whose fresh payload differed from the
    /// cached bytes. Any nonzero value is a determinism violation.
    pub verify_failures: u64,
    /// Entries restored from the disk store at startup.
    pub disk_loaded: u64,
    /// Disk-store I/O failures absorbed (persistence degraded, cache
    /// alive).
    pub disk_errors: u64,
}

struct Entry {
    payload: Value,
    /// LRU clock value at last touch.
    touched: u64,
}

/// On-disk mirror of the cache: one CRC-guarded JSON file per entry,
/// written via temp file + atomic rename so a crash never leaves a
/// half-written payload. Evicted by a *byte* budget (payload sizes vary
/// wildly with the workload; entry counts do not bound disk usage).
struct DiskStore {
    dir: PathBuf,
    budget_bytes: u64,
    total_bytes: u64,
    /// key → size of its file on disk.
    sizes: HashMap<String, u64>,
}

impl DiskStore {
    fn file_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.json", short_address(key)))
    }

    /// Renders the persisted form: the CRC guard covers the compact
    /// rendering of `{"key":...,"payload":...}` — the same line
    /// discipline as the journal.
    fn render(key: &str, payload: &Value) -> String {
        let mut body = Value::obj();
        body.push("key", Value::Str(key.to_owned())).push("payload", payload.clone());
        let crc = crc32(body.render_compact().as_bytes());
        let mut outer = Value::obj();
        outer.push("crc", Value::Str(format!("{crc:08x}"))).push("body", body);
        outer.render_compact()
    }

    /// Parses one persisted entry, validating the CRC guard.
    fn parse(bytes: &[u8]) -> Option<(String, Value)> {
        let text = std::str::from_utf8(bytes).ok()?;
        let limits = Limits { max_bytes: crate::protocol::MAX_LINE_BYTES, max_depth: 32 };
        let outer = json::parse_limited(text.trim_end(), &limits).ok()?;
        let stored = outer.get("crc").and_then(Value::as_str)?;
        let body = outer.get("body")?;
        if stored != format!("{:08x}", crc32(body.render_compact().as_bytes())) {
            return None;
        }
        let key = body.get("key").and_then(Value::as_str)?.to_owned();
        Some((key, body.get("payload")?.clone()))
    }

    /// Writes one entry; returns its file size, or `None` on failure.
    fn write(&mut self, key: &str, payload: &Value) -> Option<u64> {
        let path = self.file_path(key);
        let tmp = path.with_extension("tmp");
        let content = Self::render(key, payload);
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(content.as_bytes())?;
            f.sync_data()?;
            std::fs::rename(&tmp, &path)
        };
        if write().is_err() {
            return None;
        }
        let size = content.len() as u64;
        if let Some(old) = self.sizes.insert(key.to_owned(), size) {
            self.total_bytes -= old;
        }
        self.total_bytes += size;
        Some(size)
    }

    fn remove(&mut self, key: &str) {
        if let Some(size) = self.sizes.remove(key) {
            self.total_bytes -= size;
            let _ = std::fs::remove_file(self.file_path(key));
        }
    }
}

/// The cache: canonical key → result payload, LRU-bounded in memory,
/// optionally mirrored to a byte-budgeted disk store.
pub struct ResultCache {
    config: CacheConfig,
    entries: HashMap<String, Entry>,
    clock: u64,
    stats: CacheStats,
    disk: Option<DiskStore>,
}

/// A successful lookup: the stored payload plus whether this hit was
/// deterministically sampled for verification.
pub struct CacheHit {
    /// A clone of the stored payload tree.
    pub payload: Value,
    /// When true the service should re-run the job anyway and call
    /// [`ResultCache::report_verification`] with the outcome.
    pub verify: bool,
}

impl ResultCache {
    /// An empty cache.
    pub fn new(config: CacheConfig) -> Self {
        ResultCache {
            config,
            entries: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
            disk: None,
        }
    }

    /// Attaches a disk store at `dir` (created if absent) and restores
    /// every valid persisted entry, oldest-address first (a
    /// deterministic order — file mtimes do not survive copies).
    /// Corrupt or torn files are skipped and deleted. Returns the
    /// number of entries restored.
    ///
    /// # Errors
    ///
    /// Propagates failure to create or read the directory itself;
    /// per-file failures are absorbed into
    /// [`CacheStats::disk_errors`].
    pub fn attach_disk(&mut self, dir: &Path, budget_bytes: u64) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        let mut store = DiskStore {
            dir: dir.to_owned(),
            budget_bytes,
            total_bytes: 0,
            sizes: HashMap::new(),
        };
        let mut restored: Vec<(String, Value, u64)> = Vec::new();
        for path in files {
            let Ok(bytes) = std::fs::read(&path) else {
                self.stats.disk_errors += 1;
                continue;
            };
            match DiskStore::parse(&bytes) {
                // Only accept a file sitting at its key's address —
                // anything else is stale or tampered with.
                Some((key, payload)) if path == store.file_path(&key) => {
                    restored.push((key, payload, bytes.len() as u64));
                }
                _ => {
                    self.stats.disk_errors += 1;
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        for (key, _, size) in &restored {
            store.sizes.insert(key.clone(), *size);
            store.total_bytes += *size;
        }
        self.disk = Some(store);
        let count = restored.len();
        for (key, payload, _) in restored {
            self.insert(key, payload);
        }
        self.stats.disk_loaded = count as u64;
        Ok(count)
    }

    /// Looks up `key`, updating hit/miss counters and the LRU clock.
    pub fn lookup(&mut self, key: &str) -> Option<CacheHit> {
        if self.config.max_entries == 0 {
            self.stats.misses += 1;
            return None;
        }
        self.clock += 1;
        let (clock, verify_every) = (self.clock, self.config.verify_every);
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.touched = clock;
                self.stats.hits += 1;
                let verify = verify_every > 0 && self.stats.hits.is_multiple_of(verify_every);
                if verify {
                    self.stats.verified += 1;
                }
                Some(CacheHit { payload: entry.payload.clone(), verify })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `payload` under `key`, evicting the least-recently-used
    /// entry if the cache is full (and, with a disk store attached,
    /// least-recently-used entries until the byte budget holds).
    pub fn insert(&mut self, key: String, payload: Value) {
        if self.config.max_entries == 0 {
            return;
        }
        self.clock += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.config.max_entries {
            if let Some(oldest) =
                self.entries.iter().min_by_key(|(_, e)| e.touched).map(|(k, _)| k.clone())
            {
                self.evict(&oldest);
            }
        }
        if let Some(disk) = &mut self.disk {
            if disk.write(&key, &payload).is_none() {
                self.stats.disk_errors += 1;
            }
        }
        self.entries.insert(key, Entry { payload, touched: self.clock });
        // The byte budget trumps the entry count: shed cold entries
        // until the disk store fits.
        while self
            .disk
            .as_ref()
            .is_some_and(|d| d.total_bytes > d.budget_bytes && !d.sizes.is_empty())
        {
            let coldest = self.entries.iter().min_by_key(|(_, e)| e.touched).map(|(k, _)| k.clone());
            match coldest {
                Some(k) => self.evict(&k),
                // Disk holds keys the memory map does not (should not
                // happen — the mirror tracks memory); drop tracking
                // rather than loop forever.
                None => {
                    if let Some(disk) = &mut self.disk {
                        let keys: Vec<String> = disk.sizes.keys().cloned().collect();
                        for k in keys {
                            disk.remove(&k);
                        }
                    }
                }
            }
        }
    }

    /// Drops one entry from memory and the disk mirror, counting the
    /// eviction.
    fn evict(&mut self, key: &str) {
        self.entries.remove(key);
        if let Some(disk) = &mut self.disk {
            disk.remove(key);
        }
        self.stats.evictions += 1;
    }

    /// Records the outcome of a verification re-run. On a mismatch the
    /// poisoned entry is dropped (the fresh payload is authoritative)
    /// and the failure is counted.
    pub fn report_verification(&mut self, key: &str, matched: bool) {
        if !matched {
            self.stats.verify_failures += 1;
            self.entries.remove(key);
            if let Some(disk) = &mut self.disk {
                disk.remove(key);
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `key` has a live entry, without touching the LRU clock
    /// or hit/miss counters (recovery planning, not a lookup).
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics as a JSON object (embedded in service stats replies).
    pub fn to_value(&self) -> Value {
        let mut obj = Value::obj();
        obj.push("entries", Value::UInt(self.entries.len() as u64))
            .push("hits", Value::UInt(self.stats.hits))
            .push("misses", Value::UInt(self.stats.misses))
            .push("evictions", Value::UInt(self.stats.evictions))
            .push("verified", Value::UInt(self.stats.verified))
            .push("verify_failures", Value::UInt(self.stats.verify_failures));
        if let Some(disk) = &self.disk {
            obj.push("disk_bytes", Value::UInt(disk.total_bytes))
                .push("disk_loaded", Value::UInt(self.stats.disk_loaded))
                .push("disk_errors", Value::UInt(self.stats.disk_errors));
        }
        obj
    }
}

/// Short content-address of a canonical key (reporting only — identity
/// always compares the full key).
pub fn short_address(key: &str) -> String {
    format!("{:016x}", fnv1a(key.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: u64) -> Value {
        let mut v = Value::obj();
        v.push("cycles", Value::UInt(n));
        v
    }

    #[test]
    fn hits_return_byte_identical_payloads() {
        let mut c = ResultCache::new(CacheConfig { max_entries: 4, verify_every: 0 });
        let stored = payload(99);
        c.insert("k".into(), stored.clone());
        let hit = c.lookup("k").expect("hit");
        assert_eq!(hit.payload.render(), stored.render());
        assert_eq!(hit.payload.render_compact(), stored.render_compact());
        assert!(!hit.verify);
        assert!(c.lookup("other").is_none());
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, ..CacheStats::default() });
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = ResultCache::new(CacheConfig { max_entries: 2, verify_every: 0 });
        c.insert("a".into(), payload(1));
        c.insert("b".into(), payload(2));
        c.lookup("a"); // a is now warmer than b
        c.insert("c".into(), payload(3));
        assert!(c.lookup("b").is_none(), "b was the LRU entry");
        assert!(c.lookup("a").is_some());
        assert!(c.lookup("c").is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn verification_sampling_is_deterministic() {
        let mut c = ResultCache::new(CacheConfig { max_entries: 4, verify_every: 3 });
        c.insert("k".into(), payload(1));
        let flags: Vec<bool> =
            (0..9).map(|_| c.lookup("k").expect("hit").verify).collect();
        assert_eq!(
            flags,
            [false, false, true, false, false, true, false, false, true],
            "every third hit is sampled"
        );
        assert_eq!(c.stats().verified, 3);
    }

    #[test]
    fn verify_failure_poisons_the_entry() {
        let mut c = ResultCache::new(CacheConfig { max_entries: 4, verify_every: 1 });
        c.insert("k".into(), payload(1));
        assert!(c.lookup("k").expect("hit").verify);
        c.report_verification("k", false);
        assert_eq!(c.stats().verify_failures, 1);
        assert!(c.lookup("k").is_none(), "mismatched entry is dropped");
        c.insert("k".into(), payload(2));
        c.report_verification("k", true);
        assert_eq!(c.stats().verify_failures, 1);
        assert!(c.lookup("k").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(CacheConfig { max_entries: 0, verify_every: 1 });
        c.insert("k".into(), payload(1));
        assert!(c.lookup("k").is_none());
        assert!(c.is_empty());
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("occamyd_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_store_survives_a_restart_byte_identically() {
        let dir = scratch_dir("restart");
        let cfg = CacheConfig { max_entries: 8, verify_every: 0 };
        let mut c = ResultCache::new(cfg);
        c.attach_disk(&dir, 1 << 20).expect("attach");
        c.insert("alpha".into(), payload(11));
        c.insert("beta".into(), payload(22));
        let before = c.lookup("alpha").expect("hit").payload.render_compact();
        drop(c);

        let mut c2 = ResultCache::new(cfg);
        assert_eq!(c2.attach_disk(&dir, 1 << 20).expect("reattach"), 2);
        assert_eq!(c2.stats().disk_loaded, 2);
        let after = c2.lookup("alpha").expect("restored hit").payload.render_compact();
        assert_eq!(after, before, "restored payloads are byte-identical");
        assert!(c2.lookup("beta").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_rejects_corrupt_files_and_deletes_them() {
        let dir = scratch_dir("corrupt");
        let mut c = ResultCache::new(CacheConfig { max_entries: 8, verify_every: 0 });
        c.attach_disk(&dir, 1 << 20).expect("attach");
        c.insert("alpha".into(), payload(11));
        drop(c);

        // Flip a byte in the stored payload.
        let file = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "json"))
            .expect("one entry file");
        let mut bytes = std::fs::read(&file).expect("read");
        let n = bytes.len();
        bytes[n / 2] ^= 0x01;
        std::fs::write(&file, &bytes).expect("write");

        let mut c2 = ResultCache::new(CacheConfig { max_entries: 8, verify_every: 0 });
        assert_eq!(c2.attach_disk(&dir, 1 << 20).expect("reattach"), 0);
        assert_eq!(c2.stats().disk_errors, 1);
        assert!(c2.lookup("alpha").is_none(), "corrupt entry must not be served");
        assert!(!file.exists(), "corrupt file is removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_byte_budget_evicts_cold_entries_and_their_files() {
        let dir = scratch_dir("budget");
        let mut c = ResultCache::new(CacheConfig { max_entries: 64, verify_every: 0 });
        // Each entry is ~90 bytes on disk; a 300-byte budget holds ~3.
        c.attach_disk(&dir, 300).expect("attach");
        for i in 0..8u64 {
            c.insert(format!("key{i}"), payload(i));
        }
        assert!(c.len() < 8, "byte budget trims the cache below the entry count");
        assert!(c.stats().evictions > 0);
        let files = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .count();
        assert_eq!(files, c.len(), "disk mirror matches memory exactly");
        // The hottest (most recent) entry survived.
        assert!(c.lookup("key7").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
