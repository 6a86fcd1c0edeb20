//! Content-addressed on-disk cache for elaborated netlists.
//!
//! The cache key is an FNV-1a 64-bit hash over everything that determines
//! the build output: a format tag, the binary netlist format version, the
//! corelib revision, the `Debug` rendering of the session's
//! [`CompileOptions`](lss_interp::CompileOptions), and every source unit
//! (name, library flag, full text). A warm entry replays the stored
//! netlist, solver statistics, and `print(...)` output without running
//! elaboration or inference.
//!
//! Entries are encoded in the compact binary netlist format
//! ([`lss_netlist::binary`], format 4) inside a small binary envelope —
//! magic, version, key, solver counters, prints, then the length-prefixed
//! netlist section guarded by its own hash. Three entry families share
//! the cache directory:
//!
//! * `{key:016x}.bin` — whole-build entries ([`store`] / [`load`]);
//! * `u{key:016x}.bin` — per-module elaboration units of a multi-file
//!   project ([`store_unit`] / [`load_unit`]), including the unit's
//!   deferred cross-file connections for the linker;
//! * `p{key:016x}.bin` — solved type-inference partitions ([`DiskMemo`]).
//!
//! Integrity: the envelope stores a hash of the raw netlist bytes; on
//! load the stored bytes are re-hashed and compared before the netlist is
//! decoded. Any mismatch — truncation, bit rot, a format change, a stale
//! entry whose key happens to collide — is reported as an error and the
//! caller falls back to a clean rebuild. A corrupt cache can cost time,
//! never correctness.
//!
//! Writes go through a per-process temp file *hard-linked* into place:
//! `link(2)` fails with `EEXIST` when the entry already exists, so when
//! parallel `lssc build --jobs` workers or concurrent `lssd` sessions
//! race on the same key, exactly one writer publishes (its [`store`]
//! returns `true`) and the rest observe the winner's entry — no torn
//! files, no double writes. Corrupt entries never block republishing:
//! [`load`]/[`load_unit`] remove an entry whose *bytes* are demonstrably
//! bad (decode failure, integrity mismatch) before reporting the error,
//! so the caller's rebuild finds the slot free.

use std::path::{Path, PathBuf};

use lss_netlist::binary::{read_scheme, read_ty, write_scheme, write_ty, Reader, Writer};
use lss_netlist::{DeferredConnection, DeferredEndpoint, Netlist, SrcSpan};
use lss_types::{PartitionMemo, SolveStats, Ty};

/// Envelope format version; bump on any envelope layout or key change.
/// Version 1 was the JSON envelope around netlist JSON format 3; version
/// 2 is the binary envelope around netlist binary format 4; version 3
/// keys compile options field by field instead of by their `Debug` text.
pub const CACHE_VERSION: u32 = 3;

/// Envelope magic for whole-build entries.
const BUILD_MAGIC: [u8; 4] = *b"LSSC";
/// Envelope magic for per-module unit entries.
const UNIT_MAGIC: [u8; 4] = *b"LSSU";
/// Envelope magic for solved-partition memo entries.
const MEMO_MAGIC: [u8; 4] = *b"LSSP";

/// Incremental FNV-1a 64-bit hasher (same family PR 1 uses for seeding;
/// not cryptographic, which is fine — the cache only ever trades wrong
/// keys for rebuilds, and integrity is checked separately on load).
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64 {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a length-prefixed string (prefixing prevents concatenation
    /// collisions between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Deterministic fault injection for cache I/O, keyed on the
/// `LSS_CACHE_FAULT` environment variable (unset in normal operation;
/// set only by fault-injection tests and the CI robustness stage):
///
/// * `read-error` — every [`load`] fails as if the entry were unreadable;
/// * `short-write` — [`store`] publishes a torn entry (half the bytes),
///   as a crash mid-write on a non-atomic filesystem would;
/// * `unwritable` — [`store`] fails as if the directory were read-only.
///
/// The env-var channel deliberately crosses process boundaries so the
/// `lssc` CLI tests can inject faults into a child process. What the
/// faults prove: a broken cache may cost a rebuild, but the driver must
/// still produce a byte-identical netlist and never serve a wrong entry.
fn injected_fault(point: &str) -> bool {
    std::env::var("LSS_CACHE_FAULT").is_ok_and(|v| v == point)
}

/// The payload a warm cache entry restores.
#[derive(Debug)]
pub struct CachedBuild {
    /// The typed netlist, reconstructed from its binary encoding.
    pub netlist: Netlist,
    /// Solver work counters from the original cold build.
    pub solve_stats: SolveStats,
    /// `print(...)` output from the original elaboration.
    pub prints: Vec<String>,
}

/// The payload a warm per-module unit entry restores.
#[derive(Debug)]
pub struct CachedUnit {
    /// The module's own (pre-link) netlist.
    pub netlist: Netlist,
    /// Cross-file connections deferred to link time.
    pub deferred: Vec<DeferredConnection>,
    /// `print(...)` output from the module's elaboration.
    pub prints: Vec<String>,
}

/// The on-disk location of the whole-build entry for `key`.
pub fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.bin"))
}

/// The on-disk location of the per-module unit entry for `key`.
pub fn unit_entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("u{key:016x}.bin"))
}

/// The on-disk location of the solved-partition memo entry for `key`.
pub fn memo_entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("p{key:016x}.bin"))
}

fn tmp_path(dir: &Path, path: &Path) -> PathBuf {
    let stem = path.file_name().map(|n| n.to_string_lossy().into_owned());
    dir.join(format!(
        ".{}.{}.tmp",
        stem.unwrap_or_default(),
        std::process::id()
    ))
}

/// Last-writer-wins atomic write (temp file + rename). Used for memo
/// entries, where overwriting is the desired semantics.
fn write_atomic(dir: &Path, path: &Path, out: &[u8]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let tmp = tmp_path(dir, path);
    std::fs::write(&tmp, out).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot publish {}: {e}", path.display())
    })?;
    Ok(())
}

/// Exactly-once atomic publish: writes `out` to a per-process temp file
/// and hard-links it into place. `link(2)` is atomic and fails with
/// `EEXIST` when the destination exists, so among any number of racing
/// writers exactly one publishes. Returns `Ok(true)` for the winner,
/// `Ok(false)` when another writer already published this entry (which
/// is success — the bytes under a content-addressed key are equivalent).
fn publish_once(dir: &Path, path: &Path, out: &[u8]) -> Result<bool, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let tmp = tmp_path(dir, path);
    std::fs::write(&tmp, out).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    let linked = std::fs::hard_link(&tmp, path);
    let _ = std::fs::remove_file(&tmp);
    match linked {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(format!("cannot publish {}: {e}", path.display())),
    }
}

fn read_entry(path: &Path) -> Result<Option<Vec<u8>>, String> {
    if injected_fault("read-error") {
        return Err(format!("injected read fault reading {}", path.display()));
    }
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

/// Writes the common envelope head: magic, version, key.
fn write_head(w: &mut Writer, magic: [u8; 4], key: u64) {
    for b in magic {
        w.put_u8(b);
    }
    w.put_u32(CACHE_VERSION);
    w.put_varint(key);
}

/// Reads and verifies the common envelope head against `magic` and `key`.
fn read_head(r: &mut Reader<'_>, path: &Path, magic: [u8; 4], key: u64) -> Result<(), String> {
    let mut got = [0u8; 4];
    for b in &mut got {
        *b = r
            .get_u8()
            .map_err(|e| format!("corrupt cache entry {}: {e}", path.display()))?;
    }
    if got != magic {
        return Err(format!(
            "cache entry {} has wrong magic {got:?}",
            path.display()
        ));
    }
    let version = r
        .get_u32()
        .map_err(|e| format!("corrupt cache entry {}: {e}", path.display()))?;
    if version != CACHE_VERSION {
        return Err(format!(
            "cache entry {} has version {version}, expected {CACHE_VERSION}",
            path.display()
        ));
    }
    let stored_key = r
        .get_varint()
        .map_err(|e| format!("corrupt cache entry {}: {e}", path.display()))?;
    if stored_key != key {
        return Err(format!(
            "cache entry {} is keyed {stored_key:016x}, expected {key:016x}",
            path.display()
        ));
    }
    Ok(())
}

fn write_prints(w: &mut Writer, prints: &[String]) {
    w.put_varint(prints.len() as u64);
    for p in prints {
        w.put_str(p);
    }
}

fn read_prints(r: &mut Reader<'_>) -> Result<Vec<String>, String> {
    let n = r.get_len()?;
    let mut prints = Vec::with_capacity(n);
    for _ in 0..n {
        prints.push(r.get_str()?);
    }
    Ok(prints)
}

/// Writes the integrity-guarded netlist tail: hash, then bytes.
fn write_netlist(w: &mut Writer, netlist: &Netlist) {
    let bytes = lss_netlist::to_binary(netlist);
    w.put_varint(fnv1a64(&bytes));
    w.put_bytes(&bytes);
}

/// Reads the netlist tail, enforcing the integrity gate before decoding.
fn read_netlist(r: &mut Reader<'_>, path: &Path) -> Result<Netlist, String> {
    let stored_hash = r
        .get_varint()
        .map_err(|e| format!("corrupt cache entry {}: {e}", path.display()))?;
    let bytes = r
        .get_bytes()
        .map_err(|e| format!("corrupt cache entry {}: {e}", path.display()))?;
    let actual = fnv1a64(bytes);
    if actual != stored_hash {
        return Err(format!(
            "cache entry {} failed integrity check \
             (netlist hash {actual:016x} != recorded {stored_hash:016x})",
            path.display()
        ));
    }
    lss_netlist::from_binary(bytes)
        .map_err(|e| format!("corrupt netlist in {}: {e}", path.display()))
}

fn write_solve_stats(w: &mut Writer, s: &SolveStats) {
    w.put_varint(s.unify_steps);
    w.put_varint(s.branches);
    w.put_varint(s.backtracks);
    w.put_varint(s.partitions as u64);
    w.put_varint(s.smart_commits);
    w.put_varint(u64::from(s.max_depth));
    w.put_varint(s.memo_hits as u64);
}

fn read_solve_stats(r: &mut Reader<'_>) -> Result<SolveStats, String> {
    Ok(SolveStats {
        unify_steps: r.get_varint()?,
        branches: r.get_varint()?,
        backtracks: r.get_varint()?,
        partitions: r.get_len()?,
        smart_commits: r.get_varint()?,
        max_depth: r.get_varint_u32()?,
        memo_hits: r.get_len()?,
    })
}

/// Loads and verifies the whole-build entry for `key`.
///
/// Returns `Ok(None)` for a clean miss (no file). Every other failure —
/// unreadable file, decode error, version or key mismatch, netlist hash
/// mismatch — is an `Err` describing the
/// problem; the caller must rebuild from sources. Entries whose *bytes*
/// are demonstrably corrupt (decode or integrity failure, as opposed to
/// an I/O error where the file may be fine) are removed before the error
/// is returned, so the rebuild's [`store`] finds the slot free and the
/// exactly-once publish cannot be wedged by a torn entry.
pub fn load(dir: &Path, key: u64) -> Result<Option<CachedBuild>, String> {
    let path = entry_path(dir, key);
    let Some(bytes) = read_entry(&path)? else {
        return Ok(None);
    };
    let decode = || -> Result<CachedBuild, String> {
        let mut r = Reader::new(&bytes);
        read_head(&mut r, &path, BUILD_MAGIC, key)?;
        let solve_stats = read_solve_stats(&mut r)
            .map_err(|e| format!("corrupt cache entry {}: {e}", path.display()))?;
        let prints = read_prints(&mut r)
            .map_err(|e| format!("corrupt cache entry {}: {e}", path.display()))?;
        let netlist = read_netlist(&mut r, &path)?;
        if !r.at_end() {
            return Err(format!(
                "cache entry {} has {} trailing byte(s)",
                path.display(),
                r.remaining()
            ));
        }
        Ok(CachedBuild {
            netlist,
            solve_stats,
            prints,
        })
    };
    decode().map(Some).inspect_err(|_| {
        // Self-heal: the bytes are demonstrably bad, so drop the entry
        // and let the caller's rebuild republish into the free slot.
        let _ = std::fs::remove_file(&path);
    })
}

/// Writes the whole-build entry for `key` atomically with exactly-once
/// publish semantics. Returns whether *this* caller published the entry
/// (`false` means a concurrent writer already did — also success).
pub fn store(
    dir: &Path,
    key: u64,
    netlist: &Netlist,
    solve_stats: &SolveStats,
    prints: &[String],
) -> Result<bool, String> {
    if injected_fault("unwritable") {
        return Err(format!(
            "injected fault: cache dir {} is unwritable",
            dir.display()
        ));
    }
    let mut w = Writer::new();
    write_head(&mut w, BUILD_MAGIC, key);
    write_solve_stats(&mut w, solve_stats);
    write_prints(&mut w, prints);
    write_netlist(&mut w, netlist);
    let out = w.finish();

    // A short-write fault tears the entry but reports success, exactly
    // like a crash after rename on a filesystem that reordered the data
    // blocks; the integrity gate in `load` must catch it later.
    let bytes: &[u8] = if injected_fault("short-write") {
        &out[..out.len() / 2]
    } else {
        &out
    };
    publish_once(dir, &entry_path(dir, key), bytes)
}

fn write_deferred_endpoint(w: &mut Writer, e: &DeferredEndpoint) {
    w.put_str(&e.path);
    w.put_str(&e.port);
}

fn read_deferred_endpoint(r: &mut Reader<'_>) -> Result<DeferredEndpoint, String> {
    Ok(DeferredEndpoint {
        path: r.get_str()?,
        port: r.get_str()?,
    })
}

fn write_deferred(w: &mut Writer, deferred: &[DeferredConnection]) {
    w.put_varint(deferred.len() as u64);
    for d in deferred {
        write_deferred_endpoint(w, &d.src);
        write_deferred_endpoint(w, &d.dst);
        match &d.annot {
            None => w.put_u8(0),
            Some(s) => {
                w.put_u8(1);
                write_scheme(w, s);
            }
        }
        w.put_u32(d.span.file);
        w.put_u32(d.span.start);
        w.put_u32(d.span.end);
    }
}

fn read_deferred(r: &mut Reader<'_>) -> Result<Vec<DeferredConnection>, String> {
    let n = r.get_len()?;
    let mut deferred = Vec::with_capacity(n);
    for _ in 0..n {
        let src = read_deferred_endpoint(r)?;
        let dst = read_deferred_endpoint(r)?;
        let annot = match r.get_u8()? {
            0 => None,
            1 => Some(read_scheme(r)?),
            t => return Err(format!("bad deferred-annotation tag {t}")),
        };
        let span = SrcSpan {
            file: r.get_u32()?,
            start: r.get_u32()?,
            end: r.get_u32()?,
        };
        deferred.push(DeferredConnection {
            src,
            dst,
            annot,
            span,
        });
    }
    Ok(deferred)
}

/// Loads and verifies the per-module unit entry for `key`; same contract
/// as [`load`].
pub fn load_unit(dir: &Path, key: u64) -> Result<Option<CachedUnit>, String> {
    let path = unit_entry_path(dir, key);
    let Some(bytes) = read_entry(&path)? else {
        return Ok(None);
    };
    let decode = || -> Result<CachedUnit, String> {
        let mut r = Reader::new(&bytes);
        read_head(&mut r, &path, UNIT_MAGIC, key)?;
        let prints = read_prints(&mut r)
            .map_err(|e| format!("corrupt cache entry {}: {e}", path.display()))?;
        let deferred = read_deferred(&mut r)
            .map_err(|e| format!("corrupt cache entry {}: {e}", path.display()))?;
        let netlist = read_netlist(&mut r, &path)?;
        if !r.at_end() {
            return Err(format!(
                "cache entry {} has {} trailing byte(s)",
                path.display(),
                r.remaining()
            ));
        }
        Ok(CachedUnit {
            netlist,
            deferred,
            prints,
        })
    };
    decode().map(Some).inspect_err(|_| {
        let _ = std::fs::remove_file(&path);
    })
}

/// Writes the per-module unit entry for `key` atomically with
/// exactly-once publish semantics (see [`store`]).
pub fn store_unit(
    dir: &Path,
    key: u64,
    netlist: &Netlist,
    deferred: &[DeferredConnection],
    prints: &[String],
) -> Result<bool, String> {
    if injected_fault("unwritable") {
        return Err(format!(
            "injected fault: cache dir {} is unwritable",
            dir.display()
        ));
    }
    let mut w = Writer::new();
    write_head(&mut w, UNIT_MAGIC, key);
    write_prints(&mut w, prints);
    write_deferred(&mut w, deferred);
    write_netlist(&mut w, netlist);
    let out = w.finish();
    let bytes: &[u8] = if injected_fault("short-write") {
        &out[..out.len() / 2]
    } else {
        &out
    };
    publish_once(dir, &unit_entry_path(dir, key), bytes)
}

/// A [`PartitionMemo`] persisted in the cache directory, one
/// `p{key:016x}.bin` file per solved constraint partition.
///
/// Strictly best-effort: unreadable, corrupt, or unwritable entries are
/// treated as misses (a memo can cost solver time, never correctness).
/// The partition key already covers the constraint structure and solver
/// config, so entries stay valid across source edits — exactly the
/// property that makes a touched module's re-inference cheap.
#[derive(Debug)]
pub struct DiskMemo {
    dir: PathBuf,
    hits: u64,
    misses: u64,
}

impl DiskMemo {
    /// A memo rooted at `dir` (created on first store).
    pub fn new(dir: PathBuf) -> Self {
        DiskMemo {
            dir,
            hits: 0,
            misses: 0,
        }
    }

    /// Successful lookups since creation.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Failed lookups since creation.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn try_read(&self, key: u64) -> Option<Vec<Option<Ty>>> {
        let path = memo_entry_path(&self.dir, key);
        let bytes = read_entry(&path).ok().flatten()?;
        let mut r = Reader::new(&bytes);
        read_head(&mut r, &path, MEMO_MAGIC, key).ok()?;
        let n = r.get_len().ok()?;
        let mut tys = Vec::with_capacity(n);
        for _ in 0..n {
            match r.get_u8().ok()? {
                0 => tys.push(None),
                1 => tys.push(Some(read_ty(&mut r).ok()?)),
                _ => return None,
            }
        }
        r.at_end().then_some(tys)
    }
}

impl PartitionMemo for DiskMemo {
    fn lookup(&mut self, key: u64) -> Option<Vec<Option<Ty>>> {
        match self.try_read(key) {
            Some(tys) => {
                self.hits += 1;
                Some(tys)
            }
            None => {
                // Drop anything unreadable so it cannot fail again.
                let _ = std::fs::remove_file(memo_entry_path(&self.dir, key));
                self.misses += 1;
                None
            }
        }
    }

    fn store(&mut self, key: u64, tys: &[Option<Ty>]) {
        if injected_fault("unwritable") {
            return;
        }
        let mut w = Writer::new();
        write_head(&mut w, MEMO_MAGIC, key);
        w.put_varint(tys.len() as u64);
        for ty in tys {
            match ty {
                None => w.put_u8(0),
                Some(ty) => {
                    w.put_u8(1);
                    write_ty(&mut w, ty);
                }
            }
        }
        let _ = write_atomic(&self.dir, &memo_entry_path(&self.dir, key), &w.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lss_types::{Scheme, TyVar};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lss-driver-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        let mut h1 = Fnv64::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = Fnv64::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(
            h1.finish(),
            h2.finish(),
            "length prefixing must prevent concatenation collisions"
        );
    }

    #[test]
    fn store_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut n = Netlist::new();
        n.intern("m");
        let stats = SolveStats {
            unify_steps: 7,
            branches: 2,
            backtracks: 1,
            partitions: 3,
            smart_commits: 4,
            max_depth: 5,
            memo_hits: 6,
        };
        let prints = vec!["hello \"world\"".to_string()];
        assert!(store(&dir, 42, &n, &stats, &prints).expect("store"));
        // A second writer for the same key loses the publish race: still
        // success, but it reports that it did not write.
        assert!(!store(&dir, 42, &n, &stats, &prints).expect("re-store"));
        let back = load(&dir, 42).expect("load").expect("hit");
        assert_eq!(back.solve_stats, stats);
        assert_eq!(back.prints, prints);
        assert_eq!(back.netlist.interner.len(), 1);
        // Another key is a clean miss.
        assert!(load(&dir, 43).expect("miss is ok").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entries_are_errors_not_hits() {
        let dir = temp_dir("truncate");
        let n = Netlist::new();
        store(&dir, 1, &n, &SolveStats::default(), &[]).expect("store");
        let path = entry_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load(&dir, 1).is_err(), "truncated entry must error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_netlists_fail_the_integrity_check() {
        let dir = temp_dir("tamper");
        let mut n = Netlist::new();
        n.intern("module_a");
        store(&dir, 9, &n, &SolveStats::default(), &[]).expect("store");
        let path = entry_path(&dir, 9);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the netlist section (the envelope's last
        // field) without touching the recorded hash.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        let err = load(&dir, 9).unwrap_err();
        assert!(err.contains("integrity"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_rejected() {
        let dir = temp_dir("keymismatch");
        let n = Netlist::new();
        store(&dir, 5, &n, &SolveStats::default(), &[]).expect("store");
        // Copy the entry for key 5 into the slot for key 6.
        std::fs::copy(entry_path(&dir, 5), entry_path(&dir, 6)).unwrap();
        assert!(load(&dir, 6).is_err(), "foreign key must be rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unit_entries_round_trip_with_deferred_connections() {
        let dir = temp_dir("unit");
        let mut n = Netlist::new();
        n.intern("m");
        let deferred = vec![DeferredConnection {
            src: DeferredEndpoint {
                path: "alu".into(),
                port: "out".into(),
            },
            dst: DeferredEndpoint {
                path: "regs".into(),
                port: "in".into(),
            },
            annot: Some(Scheme::Or(vec![Scheme::Int, Scheme::Var(TyVar(3))])),
            span: SrcSpan {
                file: 2,
                start: 10,
                end: 25,
            },
        }];
        let prints = vec!["linked".to_string()];
        store_unit(&dir, 11, &n, &deferred, &prints).expect("store");
        let back = load_unit(&dir, 11).expect("load").expect("hit");
        assert_eq!(back.prints, prints);
        assert_eq!(back.deferred.len(), 1);
        assert_eq!(back.deferred[0].src.path, "alu");
        assert_eq!(back.deferred[0].dst.port, "in");
        assert_eq!(back.deferred[0].annot, deferred[0].annot);
        assert_eq!(back.deferred[0].span, deferred[0].span);
        // Unit and build entries for the same key do not collide.
        assert!(load(&dir, 11).expect("no build entry").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_memo_round_trips_and_survives_corruption() {
        let dir = temp_dir("memo");
        let mut memo = DiskMemo::new(dir.clone());
        assert_eq!(memo.lookup(1), None);
        memo.store(1, &[Some(Ty::Int), None, Some(Ty::Float)]);
        assert_eq!(
            memo.lookup(1),
            Some(vec![Some(Ty::Int), None, Some(Ty::Float)])
        );
        assert_eq!((memo.hits(), memo.misses()), (1, 1));

        // Corrupt the entry: the memo treats it as a miss and removes it.
        let path = memo_entry_path(&dir, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(memo.lookup(1), None);
        assert!(!path.exists(), "corrupt memo entry must be removed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
