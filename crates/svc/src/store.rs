//! Content-addressed, on-disk artifact store.
//!
//! Entries are keyed by `(content hash, opt level, engine)` and hold
//! either compiled `.wasm` bytes from WaCC (`engine: None` — shared by
//! every runtime) or an engine AOT artifact produced by
//! `Engine::precompile` (`engine: Some(kind)` — the tier is implied by
//! the engine). Each entry is one file with a versioned header and an
//! FNV-1a payload checksum:
//!
//! ```text
//! magic "WSVA" | version u32 | content_hash u64 | level u8 | engine u8
//! | payload_len u64 | payload_fnv u64 | payload bytes
//! ```
//!
//! Anything that fails the header or checksum check is rejected and the
//! file removed — a corrupt entry is a cache miss, never bad data. AOT
//! payloads get a second, semantic line of defense at the consumer:
//! `jit::aot::from_bytes` re-validates the decoded code through the
//! untrusted `RegCode::try_new` path, so even a checksum-valid but
//! hand-tampered artifact cannot reach execution.
//!
//! The store is size-capped: inserts evict least-recently-used entries
//! (hits refresh recency) until the total payload fits. A single entry
//! larger than the cap is kept — the cap bounds steady-state disk use,
//! not the largest artifact.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

use engines::EngineKind;
use fault::{FaultPlan, Site};
use wacc::OptLevel;

use crate::hash::{fnv64, hex16};
use crate::wire::{engine_byte, engine_from_byte, level_byte, level_from_byte};

const MAGIC: &[u8; 4] = b"WSVA";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 4 + 4 + 8 + 1 + 1 + 8 + 8;

/// A store key: what content, compiled how, for which engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// FNV-1a of the input content: WaCC source for wasm entries, wasm
    /// binary bytes for AOT entries.
    pub content_hash: u64,
    /// WaCC optimization level the content was compiled at.
    pub level: OptLevel,
    /// `None` for compiled wasm bytes; `Some` for an engine AOT
    /// artifact (the engine implies backend and tier).
    pub engine: Option<EngineKind>,
}

impl ArtifactKey {
    /// Key for WaCC-compiled wasm bytes of a source.
    pub fn wasm(source: &str, level: OptLevel) -> ArtifactKey {
        ArtifactKey {
            content_hash: fnv64(source.as_bytes()),
            level,
            engine: None,
        }
    }

    /// Key for an engine AOT artifact of a wasm module.
    pub fn aot(wasm_bytes: &[u8], level: OptLevel, engine: EngineKind) -> ArtifactKey {
        ArtifactKey {
            content_hash: fnv64(wasm_bytes),
            level,
            engine: Some(engine),
        }
    }

    /// The on-disk file stem: hex of the hash over the key encoding.
    /// The entry file for this key lives at `<root>/<stem>.art`.
    pub fn file_stem(&self) -> String {
        let mut enc = [0u8; 10];
        enc[..8].copy_from_slice(&self.content_hash.to_le_bytes());
        enc[8] = level_byte(self.level);
        enc[9] = engine_byte(self.engine);
        hex16(fnv64(&enc))
    }

    /// The 64-bit stream a fault plan keys corruption decisions on: the
    /// full key, so level/engine siblings corrupt independently.
    fn fault_stream(&self) -> u64 {
        self.content_hash
            ^ ((level_byte(self.level) as u64) << 56)
            ^ ((engine_byte(self.engine) as u64) << 48)
    }
}

/// What a [`ArtifactStore::get_outcome`] lookup found. Distinguishing
/// `Corrupt` from `Miss` is what lets callers *repair* an entry (recompile
/// and put back) instead of merely recompiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetOutcome {
    /// Verified payload.
    Hit(Vec<u8>),
    /// No entry under this key.
    Miss,
    /// An entry existed but failed verification; it has been removed
    /// and the key is now free for a repair `put`.
    Corrupt,
}

/// Store hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful `get`s.
    pub hits: u64,
    /// `get`s that found nothing usable.
    pub misses: u64,
    /// Entries written.
    pub puts: u64,
    /// Entries evicted by the size cap.
    pub evictions: u64,
    /// Entries rejected as corrupt (bad header or checksum) and removed.
    pub corrupt_rejected: u64,
}

#[derive(Debug)]
struct Entry {
    path: PathBuf,
    file_len: u64,
    seq: u64,
}

/// The content-addressed artifact store.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    cap_bytes: u64,
    entries: HashMap<ArtifactKey, Entry>,
    total_bytes: u64,
    seq: u64,
    stats: StoreStats,
    faults: Option<Arc<FaultPlan>>,
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `root`, capped at
    /// `cap_bytes` of on-disk artifact data. Existing entries are
    /// re-indexed; unreadable or corrupt-headered files are removed.
    ///
    /// # Errors
    ///
    /// I/O errors creating or scanning the root directory.
    pub fn open(root: impl Into<PathBuf>, cap_bytes: u64) -> io::Result<ArtifactStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut store = ArtifactStore {
            root: root.clone(),
            cap_bytes,
            entries: HashMap::new(),
            total_bytes: 0,
            seq: 0,
            stats: StoreStats::default(),
            faults: None,
        };
        // Re-index survivors, oldest-modified first so their recency
        // order survives a restart.
        let mut found: Vec<(ArtifactKey, PathBuf, u64, SystemTime)> = Vec::new();
        for dirent in fs::read_dir(&root)? {
            let dirent = dirent?;
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("art") {
                continue;
            }
            let meta = dirent.metadata()?;
            match read_header(&path) {
                Ok(key) if key.file_stem() == stem_of(&path) => {
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    found.push((key, path, meta.len(), mtime));
                }
                _ => {
                    store.stats.corrupt_rejected += 1;
                    let _ = fs::remove_file(&path);
                }
            }
        }
        found.sort_by_key(|(_, _, _, mtime)| *mtime);
        for (key, path, file_len, _) in found {
            store.seq += 1;
            store.total_bytes += file_len;
            store.entries.insert(
                key,
                Entry {
                    path,
                    file_len,
                    seq: store.seq,
                },
            );
        }
        store.evict_to_cap(None);
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total on-disk bytes of live entries (headers included).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Attaches (or clears) a fault-injection plan. With a plan set,
    /// lookups can report spurious misses ([`Site::CacheMiss`]) or
    /// keyed corruption ([`Site::StoreRead`]), and writes can flip a
    /// payload byte on the way to disk ([`Site::StoreWrite`]).
    pub fn set_faults(&mut self, faults: Option<Arc<FaultPlan>>) {
        self.faults = faults;
    }

    /// Looks up a payload. A hit refreshes LRU recency; a corrupt or
    /// mismatched file is removed and reported as a miss.
    pub fn get(&mut self, key: &ArtifactKey) -> Option<Vec<u8>> {
        match self.get_outcome(key) {
            GetOutcome::Hit(payload) => Some(payload),
            GetOutcome::Miss | GetOutcome::Corrupt => None,
        }
    }

    /// Like [`get`](Self::get), but tells `Miss` and `Corrupt` apart so
    /// callers can repair a corrupt entry in place (recompile + `put`).
    pub fn get_outcome(&mut self, key: &ArtifactKey) -> GetOutcome {
        let _span = obs::span!("svc.store.get");
        let Some(entry) = self.entries.get_mut(key) else {
            self.stats.misses += 1;
            return GetOutcome::Miss;
        };
        // Injected spurious miss: the entry stays intact on disk, the
        // caller just doesn't see it this time (transient, so a retry
        // or the next job sees it again).
        if let Some(plan) = &self.faults {
            if plan.transient(Site::CacheMiss) {
                self.stats.misses += 1;
                return GetOutcome::Miss;
            }
        }
        // Injected read corruption is keyed: this artifact reads corrupt
        // on every lookup under this plan, exactly like a bad sector.
        let injected_corrupt = self
            .faults
            .as_ref()
            .is_some_and(|plan| plan.keyed(Site::StoreRead, key.fault_stream()));
        match read_verified(&entry.path, key) {
            Ok(payload) if !injected_corrupt => {
                self.seq += 1;
                entry.seq = self.seq;
                self.stats.hits += 1;
                GetOutcome::Hit(payload)
            }
            _ => {
                let entry = self.entries.remove(key).expect("checked above");
                self.total_bytes -= entry.file_len;
                let _ = fs::remove_file(&entry.path);
                self.stats.corrupt_rejected += 1;
                self.stats.misses += 1;
                GetOutcome::Corrupt
            }
        }
    }

    /// Inserts (or replaces) a payload, then evicts LRU entries until
    /// the store fits its cap again.
    ///
    /// # Errors
    ///
    /// I/O errors writing the entry file.
    pub fn put(&mut self, key: ArtifactKey, payload: &[u8]) -> io::Result<()> {
        let _span = obs::span!("svc.store.put", bytes = payload.len());
        let path = self.root.join(format!("{}.art", key.file_stem()));
        let mut file = encode_header(&key, payload);
        file.extend_from_slice(payload);
        // Injected write corruption (keyed): flip one payload byte after
        // the checksum was computed, so the entry lands on disk corrupt
        // and the next read detects it.
        if let Some(plan) = &self.faults {
            if !payload.is_empty() && plan.keyed(Site::StoreWrite, key.fault_stream()) {
                let last = file.len() - 1;
                file[last] ^= 0x01;
            }
        }
        // Write-then-rename so a crash mid-write never leaves a
        // half-entry under a live name.
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            key.file_stem(),
            std::process::id()
        ));
        fs::write(&tmp, &file)?;
        fs::rename(&tmp, &path)?;
        if let Some(old) = self.entries.remove(&key) {
            self.total_bytes -= old.file_len;
        }
        self.seq += 1;
        self.total_bytes += file.len() as u64;
        self.entries.insert(
            key,
            Entry {
                path,
                file_len: file.len() as u64,
                seq: self.seq,
            },
        );
        self.stats.puts += 1;
        self.evict_to_cap(Some(&key));
        Ok(())
    }

    /// Evicts least-recently-used entries until under the cap. `keep`
    /// (the entry just inserted) is never evicted — the cap bounds
    /// steady-state use, not the largest single artifact.
    fn evict_to_cap(&mut self, keep: Option<&ArtifactKey>) {
        while self.total_bytes > self.cap_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| Some(*k) != keep)
                .min_by_key(|(_, e)| e.seq)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            let entry = self.entries.remove(&victim).expect("victim exists");
            self.total_bytes -= entry.file_len;
            let _ = fs::remove_file(&entry.path);
            self.stats.evictions += 1;
        }
    }
}

fn stem_of(path: &Path) -> String {
    path.file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default()
        .to_string()
}

fn encode_header(key: &ArtifactKey, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&key.content_hash.to_le_bytes());
    out.push(level_byte(key.level));
    out.push(engine_byte(key.engine));
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out
}

fn parse_header(bytes: &[u8]) -> Option<(ArtifactKey, u64, u64)> {
    if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return None;
    }
    let content_hash = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let level = level_from_byte(bytes[16])?;
    let engine = engine_from_byte(bytes[17]).ok()?;
    let payload_len = u64::from_le_bytes(bytes[18..26].try_into().unwrap());
    let payload_fnv = u64::from_le_bytes(bytes[26..34].try_into().unwrap());
    Some((
        ArtifactKey {
            content_hash,
            level,
            engine,
        },
        payload_len,
        payload_fnv,
    ))
}

/// Reads just the header of an entry file (used when re-indexing).
fn read_header(path: &Path) -> io::Result<ArtifactKey> {
    let mut header = [0u8; HEADER_LEN];
    let mut f = fs::File::open(path)?;
    f.read_exact(&mut header)?;
    let (key, payload_len, _) = parse_header(&header)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad header"))?;
    let expected = HEADER_LEN as u64 + payload_len;
    if f.metadata()?.len() != expected {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad length"));
    }
    Ok(key)
}

/// Reads and fully verifies an entry file against its key.
fn read_verified(path: &Path, key: &ArtifactKey) -> io::Result<Vec<u8>> {
    let bytes = fs::read(path)?;
    let corrupt = || io::Error::new(io::ErrorKind::InvalidData, "corrupt entry");
    let (stored_key, payload_len, payload_fnv) = parse_header(&bytes).ok_or_else(corrupt)?;
    if stored_key != *key || bytes.len() as u64 != HEADER_LEN as u64 + payload_len {
        return Err(corrupt());
    }
    let payload = &bytes[HEADER_LEN..];
    if fnv64(payload) != payload_fnv {
        return Err(corrupt());
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wabench-store-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u8) -> ArtifactKey {
        ArtifactKey {
            content_hash: n as u64,
            level: OptLevel::O2,
            engine: None,
        }
    }

    #[test]
    fn round_trip_and_reopen() {
        let root = tmp_root("roundtrip");
        let mut s = ArtifactStore::open(&root, 1 << 20).unwrap();
        assert!(s.get(&key(1)).is_none());
        s.put(key(1), b"payload-one").unwrap();
        assert_eq!(s.get(&key(1)).unwrap(), b"payload-one");
        drop(s);
        // Entries persist across open.
        let mut s = ArtifactStore::open(&root, 1 << 20).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&key(1)).unwrap(), b"payload-one");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let root = tmp_root("lru");
        // Cap fits two ~100-byte entries, not three.
        let cap = 2 * (HEADER_LEN as u64 + 100) + 10;
        let mut s = ArtifactStore::open(&root, cap).unwrap();
        s.put(key(1), &[1u8; 100]).unwrap();
        s.put(key(2), &[2u8; 100]).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        assert!(s.get(&key(1)).is_some());
        s.put(key(3), &[3u8; 100]).unwrap();
        assert_eq!(s.stats().evictions, 1);
        assert!(s.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(s.get(&key(1)).is_some());
        assert!(s.get(&key(3)).is_some());
        assert!(s.total_bytes() <= cap);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn oversize_entry_is_kept() {
        let root = tmp_root("oversize");
        let mut s = ArtifactStore::open(&root, 64).unwrap();
        s.put(key(1), &[0u8; 500]).unwrap();
        assert!(s.get(&key(1)).is_some(), "sole oversize entry survives");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_payload_rejected_and_removed() {
        let root = tmp_root("corrupt");
        let mut s = ArtifactStore::open(&root, 1 << 20).unwrap();
        s.put(key(7), b"precious bytes").unwrap();
        // Flip one payload byte on disk.
        let path = root.join(format!("{}.art", key(7).file_stem()));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(s.get(&key(7)).is_none(), "corrupt entry is a miss");
        assert_eq!(s.stats().corrupt_rejected, 1);
        assert!(!path.exists(), "corrupt file removed");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_skips_truncated_files() {
        let root = tmp_root("trunc");
        let mut s = ArtifactStore::open(&root, 1 << 20).unwrap();
        s.put(key(9), &[9u8; 64]).unwrap();
        let path = root.join(format!("{}.art", key(9).file_stem()));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..HEADER_LEN + 3]).unwrap();
        let s = ArtifactStore::open(&root, 1 << 20).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.stats().corrupt_rejected, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn keys_distinguish_level_and_engine() {
        let a = ArtifactKey::wasm("fn f() {}", OptLevel::O0);
        let b = ArtifactKey::wasm("fn f() {}", OptLevel::O2);
        assert_ne!(a.file_stem(), b.file_stem());
        let c = ArtifactKey::aot(b"\0asm", OptLevel::O2, EngineKind::Wasmtime);
        let d = ArtifactKey::aot(b"\0asm", OptLevel::O2, EngineKind::Wavm);
        assert_ne!(c.file_stem(), d.file_stem());
    }
}
