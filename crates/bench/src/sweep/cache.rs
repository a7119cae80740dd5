//! Content-addressed on-disk cell cache: the cross-run half of the
//! sweep's incremental-reuse layer (ROADMAP item 4).
//!
//! Growing the matrix re-runs every cell from scratch even when only one
//! axis value was added. This module makes sweep results **reusable
//! across runs**: every `(workload, policy, profile, ranks, layout,
//! topology)` cell — and every `(profile, mix)` co-run group — is keyed
//! by a digest of its *canonical configuration document*, and finished
//! results are persisted under that digest. A later sweep that contains
//! the same cell loads the result instead of recomputing it, so adding
//! `nodes256` to yesterday's matrix costs only the new cells.
//!
//! Three design rules keep the cache invisible in the output:
//!
//! * **Byte-identity.** A warm sweep must serialize byte-identically to a
//!   cold one. The payload is the cell's own report form
//!   ([`SweepCell::to_json`] / [`CorunCell::to_json`], decoded by their
//!   `from_json`) plus a `migration_split`: the raw
//!   `[overlapped_s, exposed_s]` pair of every stats block
//!   ([`unimem::exec::RunReport::migration_split`]), the one thing the report form
//!   keeps only as a derived percentage. Reconstruction is therefore
//!   exact, and this module holds no encoder of its own — only framing,
//!   keys and I/O. The integration property tests assert `cold == warm`
//!   on the serialized report text.
//! * **Conservative keys.** The key document includes the cache schema
//!   ([`SCHEMA`]), the sweep report schema ([`crate::sweep::report::SCHEMA`]),
//!   an engine fingerprint ([`ENGINE_FINGERPRINT`]) bumped on any
//!   behavior-affecting engine change, and a caller salt — any of them
//!   changing strands old entries harmlessly (content-addressing means
//!   they are simply never looked up again). FNV-1a is not
//!   cryptographic, so the full canonical key document is stored inside
//!   the entry and compared, as a parsed value, on load; a digest
//!   collision degrades to a miss, never to wrong data.
//! * **Corruption is a miss.** Entries are framed with the redo
//!   journal's discipline — magic, length, FNV-1a-64 checksum — and any
//!   verification failure (truncation, bit flip, bad magic, unparsable
//!   payload, key mismatch) logs a warning and falls back to
//!   recomputation. A corrupt cache can cost time, never correctness.
//!
//! Entries are written atomically (temp file + rename) so a crashed
//! sweep leaves either a complete entry or none. A sweep's lookups read
//! and check the frames on its worker pool, and parse, key-check and
//! decode them on the calling thread in job order
//! (`SweepCache::load_cells`), so warnings are the same at any width.

use crate::sweep::matrix::{NvmProfile, PolicyKind, SweepConfig, TopologySpec};
use crate::sweep::report::SCHEMA as SWEEP_SCHEMA;
use crate::sweep::runner::{CorunCell, SweepCell};
use std::io;
use std::path::{Path, PathBuf};
use unimem_sim::{run_pool, Fnv128, Fnv64, Json};
use unimem_workloads::corun::CorunMix;

/// Cache entry schema tag; part of every key document. Bump when the
/// entry payload layout changes (v2: the payload became the report form
/// plus `migration_split`).
pub const SCHEMA: &str = "unimem-sweep-cache/v2";

/// Engine fingerprint; part of every key document. Bump whenever a
/// change anywhere in the execution engine (simulator, runtime model,
/// policies, workload models, machine profiles) can alter any cell's
/// numbers — stale entries then become unreachable instead of wrong.
pub const ENGINE_FINGERPRINT: &str = "unimem-engine/pr10";

/// On-disk entry magic ("UNIMEMSC" — UNIMEM Sweep Cache).
const MAGIC: &[u8; 8] = b"UNIMEMSC";

/// Framed header size: magic (8) + payload length (4) + FNV-1a-64 (8).
const HEADER_LEN: usize = 20;

/// Most entry frames a pooled load holds at once. Unbatched, the full
/// matrix held all 1,485 payloads (5.7 MB) before decoding the first, and
/// peak RSS rose about 6 MiB; at 256 it is flat, and the pool starts six
/// times for the matrix's 1,470 cells.
const FRAME_BATCH: usize = 256;

/// A content-addressed store of finished sweep cells under one
/// directory. Cheap to construct; all state is on disk.
#[derive(Debug, Clone)]
pub struct SweepCache {
    dir: PathBuf,
    salt: String,
}

impl SweepCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SweepCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SweepCache {
            dir,
            salt: String::new(),
        })
    }

    /// Replace the key salt (default empty). Every distinct salt is a
    /// disjoint key space inside the same directory — the property tests
    /// use this to prove a salt change forces a 0% hit rate.
    pub fn with_salt(mut self, salt: impl Into<String>) -> SweepCache {
        self.salt = salt.into();
        self
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active key salt.
    pub fn salt(&self) -> &str {
        &self.salt
    }

    /// Key for one single-tenant cell. `ranks_per_node` is the *row*
    /// layout (clustered rooms derive their real packing from the
    /// topology, so the row value identifies the configuration).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn cell_key(
        &self,
        cfg: &SweepConfig,
        workload: &str,
        policy: PolicyKind,
        profile: NvmProfile,
        nranks: usize,
        ranks_per_node: usize,
        topology: &TopologySpec,
    ) -> CacheKey {
        let mut doc = key_preamble("cell", &self.salt, cfg);
        doc.push("workload", workload)
            .push("policy", policy.name())
            .push("profile", profile.name())
            .push("nranks", nranks)
            .push("ranks_per_node", ranks_per_node)
            .push("topology", topology.name());
        CacheKey::of(doc, "cell")
    }

    /// Key for one co-run group: a `(profile, mix)` pair covering every
    /// arbiter in `cfg.arbiters` (the group is the unit of execution, so
    /// it is also the unit of caching). The member slots and the arbiter
    /// list are spelled out because both shape the results.
    pub(crate) fn corun_key(
        &self,
        cfg: &SweepConfig,
        mix: &CorunMix,
        profile: NvmProfile,
        nranks: usize,
    ) -> CacheKey {
        let mut doc = key_preamble("corun", &self.salt, cfg);
        let members: Vec<Json> = mix
            .members
            .iter()
            .map(|m| {
                let mut o = Json::obj();
                o.push("workload", m.workload.as_str())
                    .push("tenant", m.tenant.as_str())
                    .push("weight", u64::from(m.weight))
                    .push("start_epoch", m.start_epoch);
                o
            })
            .collect();
        let arbiters: Vec<Json> = cfg.arbiters.iter().map(|a| Json::from(a.name())).collect();
        doc.push("mix", mix.label())
            .push("members", members)
            .push("arbiters", arbiters)
            .push("profile", profile.name())
            .push("nranks", nranks);
        CacheKey::of(doc, "corun")
    }

    /// Look a cell up. `None` on miss — silently when the entry does not
    /// exist, with a stderr warning when it exists but fails
    /// verification (the caller recomputes either way).
    pub(crate) fn load_cell(&self, key: &CacheKey) -> Option<SweepCell> {
        self.finish_load(key, read_frame(&key.path_in(&self.dir)), &decode_cell)
    }

    /// [`SweepCache::load_cell`] for every key, results in key order.
    /// See [`SweepCache::load_many`] for how `n_workers` splits the work.
    pub(crate) fn load_cells(
        &self,
        keys: &[CacheKey],
        n_workers: usize,
    ) -> Result<Vec<Option<SweepCell>>, String> {
        self.load_many(keys, n_workers, &decode_cell)
    }

    /// Persist a finished cell under its key. Write failures warn and
    /// drop the entry: a read-only or full cache directory degrades the
    /// cache to a no-op, it does not fail the sweep.
    pub(crate) fn store_cell(&self, key: &CacheKey, cell: &SweepCell) {
        self.store(key, "cell", cell.to_json(), cell.report.migration_split());
    }

    /// Look every co-run group up (each group: all arbiters × tenants of
    /// one `(profile, mix)` pair, in canonical order), results in key
    /// order. See [`SweepCache::load_many`].
    pub(crate) fn load_coruns(
        &self,
        keys: &[CacheKey],
        n_workers: usize,
    ) -> Result<Vec<Option<Vec<CorunCell>>>, String> {
        self.load_many(keys, n_workers, &decode_corun)
    }

    /// Persist a finished co-run group under its key.
    pub(crate) fn store_corun(&self, key: &CacheKey, cells: &[CorunCell]) {
        let items = cells.iter().map(CorunCell::to_json).collect();
        let splits = cells.iter().map(|c| c.report.migration_split()).collect();
        self.store(key, "cells", Json::Arr(items), Json::Arr(splits));
    }

    /// Load every key, results in key order. The keys go in batches of
    /// [`FRAME_BATCH`]: a pool of `n_workers` reads the batch's frames
    /// (file, magic, length, checksum, UTF-8; inline when `n_workers <= 1`),
    /// then the calling thread parses, key-checks and decodes them in key
    /// order — so discard warnings print in the same order at any width.
    /// `Err` only if a frame read panicked.
    fn load_many<T>(
        &self,
        keys: &[CacheKey],
        n_workers: usize,
        decode: &Decoder<T>,
    ) -> Result<Vec<Option<T>>, String> {
        let mut out = Vec::with_capacity(keys.len());
        for keys in keys.chunks(FRAME_BATCH) {
            let frames = run_pool(keys.iter().collect(), n_workers, |key| {
                Ok(read_frame(&key.path_in(&self.dir)))
            })?;
            out.extend(
                (keys.iter().zip(frames)).map(|(key, frame)| self.finish_load(key, frame, decode)),
            );
        }
        Ok(out)
    }

    /// The caller's half of a load: parse the frame's payload, check its
    /// key and decode it. `None` on a miss, with a warning when the
    /// entry existed but failed any check.
    fn finish_load<T>(
        &self,
        key: &CacheKey,
        frame: Result<String, ReadError>,
        decode: &Decoder<T>,
    ) -> Option<T> {
        let decoded = match frame {
            Ok(payload) => check_entry(&payload, &key.doc).and_then(|doc| decode(&doc)),
            Err(ReadError::Missing) => return None,
            Err(ReadError::Corrupt(why)) => Err(why),
        };
        decoded
            .map_err(|why| warn_discard(&key.path_in(&self.dir), &why))
            .ok()
    }

    /// Write `{key, <member>: value, migration_split: split}`.
    fn store(&self, key: &CacheKey, member: &str, value: Json, split: Json) {
        let mut doc = Json::obj();
        doc.push("key", key.doc.clone())
            .push(member, value)
            .push("migration_split", split);
        let path = key.path_in(&self.dir);
        if let Err(e) = write_entry(&path, &doc) {
            eprintln!("sweep cache: failed to write {}: {e}", path.display());
        }
    }
}

/// Decodes a verified entry document into a cache value.
type Decoder<T> = dyn Fn(&Json) -> Result<T, String>;

fn decode_cell(doc: &Json) -> Result<SweepCell, String> {
    let mut cell = doc.decode("cell", SweepCell::from_json)?;
    doc.decode("migration_split", |split| {
        cell.report.set_migration_split(split)
    })?;
    Ok(cell)
}

fn decode_corun(doc: &Json) -> Result<Vec<CorunCell>, String> {
    let items = doc.decode("cells", |v| v.as_arr().ok_or("not an array".into()))?;
    let splits = doc.decode("migration_split", |v| {
        v.as_arr()
            .filter(|s| s.len() == items.len())
            .ok_or(format!("not an array of {} splits", items.len()))
    })?;
    let decode = |item: &Json, split: &Json| {
        let mut cell = CorunCell::from_json(item)?;
        cell.report.set_migration_split(split)?;
        Ok(cell)
    };
    (items.iter().zip(splits).enumerate())
        .map(|(i, (item, split))| {
            decode(item, split).map_err(|e: String| format!("co-run cell {i}: {e}"))
        })
        .collect()
}

/// Warn that the entry at `path` is discarded. Loads call this on the
/// sweep's calling thread only.
fn warn_discard(path: &Path, why: &str) {
    let warning = format!(
        "sweep cache: discarding corrupt entry {}: {why}",
        path.display()
    );
    #[cfg(test)]
    let Some(warning) = capture(warning) else {
        return;
    };
    eprintln!("{warning}");
}

#[cfg(test)]
thread_local! {
    /// Discard warnings captured by [`capture_warnings`] on this thread.
    static CAPTURED: std::cell::RefCell<Option<Vec<String>>> = const { std::cell::RefCell::new(None) };
}

/// Run `f`, collecting the discard warnings this thread prints meanwhile
/// instead of printing them. A warning printed from any other thread is
/// not captured (and so shows up as missing).
#[cfg(test)]
pub(crate) fn capture_warnings<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    CAPTURED.with(|log| *log.borrow_mut() = Some(Vec::new()));
    let out = f();
    let warnings = CAPTURED
        .with(|log| log.borrow_mut().take())
        .unwrap_or_default();
    (out, warnings)
}

/// Keep `warning` when this thread is inside [`capture_warnings`];
/// otherwise hand it back to be printed.
#[cfg(test)]
fn capture(warning: String) -> Option<String> {
    CAPTURED.with(|log| match log.borrow_mut().as_mut() {
        Some(log) => {
            log.push(warning);
            None
        }
        None => Some(warning),
    })
}

/// The shared head of every key document: schemas, fingerprint, salt,
/// and the config axes that apply to every cell kind (workload class and
/// the DRAM-capacity override reshape every machine).
fn key_preamble(entry: &str, salt: &str, cfg: &SweepConfig) -> Json {
    let mut doc = Json::obj();
    doc.push("entry", entry)
        .push("cache", SCHEMA)
        .push("sweep", SWEEP_SCHEMA)
        .push("engine", ENGINE_FINGERPRINT)
        .push("salt", salt)
        .push("class", cfg.class.name())
        .push(
            "dram_capacity",
            match cfg.dram_capacity {
                Some(b) => Json::UInt(b.0),
                None => Json::Null,
            },
        );
    doc
}

/// A derived cache key: the canonical key document (stored in the entry
/// and compared on load — the collision guard) and the digest of its
/// compact text that names the entry file.
#[derive(Debug, Clone)]
pub(crate) struct CacheKey {
    doc: Json,
    hex: String,
    kind: &'static str,
}

impl CacheKey {
    fn of(doc: Json, kind: &'static str) -> CacheKey {
        // `json_digest_hex(&doc)`, serializing the document once.
        let hex = Fnv128::new()
            .update(doc.to_compact().as_bytes())
            .finish_hex();
        CacheKey { doc, hex, kind }
    }

    fn path_in(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.{}", self.hex, self.kind))
    }
}

/// FNV-1a-64 over the payload bytes — the journal's checksum, reused as
/// the entry framing checksum.
fn crc64(payload: &[u8]) -> u64 {
    Fnv64::new().update(payload).finish()
}

/// Write one framed entry atomically: temp file in the same directory,
/// then rename over the final name.
fn write_entry(path: &Path, doc: &Json) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, frame(doc.to_compact().as_bytes()))?;
    std::fs::rename(&tmp, path)
}

/// Magic, length and checksum header, then `payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

enum ReadError {
    /// No entry on disk — the silent miss.
    Missing,
    /// An entry exists but failed verification — warn, then miss.
    Corrupt(String),
}

/// Read and verify one entry's frame: magic, exact length, checksum and
/// UTF-8. Returns the payload text.
fn read_frame(path: &Path) -> Result<String, ReadError> {
    use ReadError::Corrupt;
    let mut buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(ReadError::Missing),
        Err(e) => return Err(Corrupt(format!("read failed: {e}"))),
    };
    if buf.len() < HEADER_LEN {
        return Err(Corrupt(format!("truncated header ({} bytes)", buf.len())));
    }
    if &buf[..8] != MAGIC {
        return Err(Corrupt("bad magic".into()));
    }
    let len = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
    let crc = u64::from_le_bytes(buf[12..20].try_into().expect("8 bytes"));
    let payload = &buf[HEADER_LEN..];
    if payload.len() != len {
        return Err(Corrupt(format!(
            "length mismatch (header says {len}, file holds {})",
            payload.len()
        )));
    }
    if crc64(payload) != crc {
        return Err(Corrupt("checksum mismatch".into()));
    }
    buf.drain(..HEADER_LEN);
    String::from_utf8(buf).map_err(|e| Corrupt(format!("not UTF-8: {e}")))
}

/// Parse a verified payload and check its stored key against `expected`.
/// The parsed key must equal the key document itself, not merely
/// re-serialize to the same text (`4.0` stored for `4` is a mismatch).
/// Key documents hold no floats, so equal values also mean equal text.
fn check_entry(payload: &str, expected: &Json) -> Result<Json, String> {
    let doc = Json::parse(payload).map_err(|e| format!("unparsable payload: {e}"))?;
    let key = doc.get("key").ok_or("entry has no \"key\" member")?;
    if key != expected {
        return Err("key mismatch (digest collision or misnamed file)".into());
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::report::tests::{sample_cell, sample_corun_cell};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use unimem::exec::RunReport;
    use unimem_hms::arbiter::ArbiterPolicy;
    use unimem_sim::Bytes;
    use unimem_workloads::Class;

    /// Everything a cell holds: its report form plus the migration split
    /// the report form derives `overlap_pct` from.
    fn full_form(report_form: Json, report: &RunReport) -> String {
        format!("{report_form}{}", report.migration_split())
    }

    fn load_corun(cache: &SweepCache, key: &CacheKey) -> Option<Vec<CorunCell>> {
        let mut loaded = cache.load_coruns(std::slice::from_ref(key), 1).unwrap();
        loaded.pop().unwrap()
    }

    fn tmp_dir() -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "unimem-sweep-cache-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_config() -> SweepConfig {
        SweepConfig {
            class: Class::S,
            workloads: vec!["CG".into()],
            policies: vec![PolicyKind::DramOnly, PolicyKind::Unimem],
            profiles: vec![NvmProfile::BwHalf],
            ranks: vec![4],
            ranks_per_node: vec![1],
            topologies: vec![TopologySpec::Flat],
            dram_capacity: None,
            coruns: vec![],
            arbiters: vec![],
        }
    }

    fn key_for(cache: &SweepCache) -> CacheKey {
        cache.cell_key(
            &sample_config(),
            "CG",
            PolicyKind::Unimem,
            NvmProfile::BwHalf,
            4,
            1,
            &TopologySpec::Nodes { count: 4 },
        )
    }

    #[test]
    fn cell_roundtrip_is_exact() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let key = key_for(&cache);
        let cell = sample_cell();
        assert!(cache.load_cell(&key).is_none(), "empty cache misses");
        cache.store_cell(&key, &cell);
        let loaded = cache.load_cell(&key).expect("hit after store");
        // Exactness proxy: report form plus migration split of original
        // and reconstruction must match byte for byte (covers every
        // field, including the u64 > 2^53 byte counter and plan_kind).
        assert_eq!(
            full_form(loaded.to_json(), &loaded.report),
            full_form(cell.to_json(), &cell.report)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corun_group_roundtrip_is_exact() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let mut cfg = sample_config();
        cfg.arbiters = vec![ArbiterPolicy::FairShare, ArbiterPolicy::Priority];
        let mix = CorunMix::parse("CG+FT").expect("mix parses");
        let key = cache.corun_key(&cfg, &mix, NvmProfile::Pcram, 8);
        let mut second = sample_corun_cell();
        second.workload = "FT".into();
        second.tenant = "FT".into();
        second.arbiter = ArbiterPolicy::FairShare;
        second.lease_min = Bytes(0);
        let group = vec![sample_corun_cell(), second];
        assert!(load_corun(&cache, &key).is_none());
        cache.store_corun(&key, &group);
        let loaded = load_corun(&cache, &key).expect("hit after store");
        assert_eq!(loaded.len(), 2);
        for (a, b) in group.iter().zip(&loaded) {
            assert_eq!(
                full_form(a.to_json(), &a.report),
                full_form(b.to_json(), &b.report)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn salt_and_axes_change_the_digest() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let base = key_for(&cache);
        let salted = key_for(&cache.clone().with_salt("x"));
        assert_ne!(base.hex, salted.hex, "salt must reshape every key");
        let other_rank = cache.cell_key(
            &sample_config(),
            "CG",
            PolicyKind::Unimem,
            NvmProfile::BwHalf,
            8,
            1,
            &TopologySpec::Nodes { count: 4 },
        );
        assert_ne!(base.hex, other_rank.hex);
        let mut capped = sample_config();
        capped.dram_capacity = Some(Bytes(1 << 30));
        let with_cap = cache.cell_key(
            &capped,
            "CG",
            PolicyKind::Unimem,
            NvmProfile::BwHalf,
            4,
            1,
            &TopologySpec::Nodes { count: 4 },
        );
        assert_ne!(base.hex, with_cap.hex, "dram capacity is part of the key");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every corruption mode must degrade to a miss (`None`), never a
    /// panic or a wrong cell — the robustness satellite's core claim.
    #[test]
    fn corrupt_entries_fall_back_to_miss() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let key = key_for(&cache);
        let cell = sample_cell();
        let path = key.path_in(cache.dir());

        // Truncated mid-payload.
        cache.store_cell(&key, &cell);
        let whole = std::fs::read(&path).expect("entry exists");
        std::fs::write(&path, &whole[..whole.len() / 2]).expect("truncate");
        assert!(cache.load_cell(&key).is_none(), "truncated entry misses");

        // Truncated inside the header.
        std::fs::write(&path, &whole[..HEADER_LEN - 5]).expect("truncate header");
        assert!(cache.load_cell(&key).is_none(), "headerless entry misses");

        // A flipped bit in the payload breaks the checksum.
        let mut flipped = whole.clone();
        let at = HEADER_LEN + 10;
        flipped[at] ^= 0x01;
        std::fs::write(&path, &flipped).expect("bit flip");
        assert!(cache.load_cell(&key).is_none(), "bit-flipped entry misses");

        // Wrong magic.
        let mut bad_magic = whole.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).expect("bad magic");
        assert!(cache.load_cell(&key).is_none(), "bad-magic entry misses");

        // A well-formed entry filed under the wrong name (what a digest
        // collision would look like): the stored canonical key disagrees.
        let other = cache.cell_key(
            &sample_config(),
            "CG",
            PolicyKind::Unimem,
            NvmProfile::BwHalf,
            8,
            1,
            &TopologySpec::Flat,
        );
        std::fs::write(&path, &whole).expect("restore");
        std::fs::rename(&path, other.path_in(cache.dir())).expect("misfile");
        assert!(cache.load_cell(&other).is_none(), "key mismatch misses");

        // And after all that abuse, a fresh store still works.
        cache.store_cell(&key, &cell);
        assert!(cache.load_cell(&key).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A payload that frames and checksums correctly but decodes to the
    /// wrong shape is still a miss (exercises the decode error path).
    #[test]
    fn wrong_shape_payload_is_a_miss() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let key = key_for(&cache);
        let mut doc = Json::obj();
        doc.push("key", key.doc.clone())
            .push("cell", "not an object");
        write_entry(&key.path_in(cache.dir()), &doc).expect("write");
        assert!(cache.load_cell(&key).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn corun_key_for(cache: &SweepCache) -> CacheKey {
        let mut cfg = sample_config();
        cfg.arbiters = vec![ArbiterPolicy::FairShare, ArbiterPolicy::Priority];
        let mix = CorunMix::parse("CG+FT").expect("mix parses");
        cache.corun_key(&cfg, &mix, NvmProfile::Pcram, 8)
    }

    /// Entry file names are the digest of the key's compact text, hashed
    /// once; they must not move.
    #[test]
    fn key_digest_is_the_json_digest_of_the_key_document() {
        let cache = SweepCache::open(tmp_dir()).expect("open");
        for key in [key_for(&cache), corun_key_for(&cache)] {
            assert_eq!(key.hex, unimem_sim::json_digest_hex(&key.doc));
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    /// The load compares the parsed key with the key document itself, so
    /// every key document must parse back to an equal value — otherwise
    /// its entries could never hit.
    #[test]
    fn key_documents_parse_back_equal() {
        let cache = SweepCache::open(tmp_dir()).expect("open");
        for key in [key_for(&cache), corun_key_for(&cache)] {
            assert_eq!(Json::parse(&key.doc.to_compact()), Ok(key.doc.clone()));
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    /// A stored key that only re-serializes to the expected text (`4.0`
    /// for `4`) is not the expected key: the entry is a miss.
    #[test]
    fn key_equal_only_after_reserializing_is_a_miss() {
        let dir = tmp_dir();
        let cache = SweepCache::open(&dir).expect("open");
        let key = key_for(&cache);
        let path = key.path_in(cache.dir());
        cache.store_cell(&key, &sample_cell());
        let whole = std::fs::read(&path).expect("entry exists");
        let payload = std::str::from_utf8(&whole[HEADER_LEN..]).expect("UTF-8");
        assert!(payload.starts_with("{\"key\":{"), "the key comes first");
        let edited = payload.replacen("\"nranks\":4,", "\"nranks\":4.0,", 1);
        let stored_key = |text: &str| Json::parse(text).unwrap().get("key").cloned().unwrap();
        assert_eq!(stored_key(&edited).get("nranks"), Some(&Json::Num(4.0)));
        assert_eq!(
            stored_key(&edited).to_compact(),
            key.doc.to_compact(),
            "the edited key re-serializes to the expected text"
        );
        std::fs::write(&path, frame(edited.as_bytes())).expect("rewrite");
        let (loaded, warnings) = capture_warnings(|| cache.load_cell(&key));
        assert!(loaded.is_none());
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("key mismatch"), "{warnings:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
