//! Cache fault-injection: every injected failure mode must degrade to a
//! clean cold rebuild producing a byte-identical netlist — never a wrong
//! netlist, never a crash.
//!
//! Faults are injected through the `LSS_CACHE_FAULT` environment variable
//! (see `lss_driver::cache`). The variable is process-global, so these
//! tests live in their own integration binary and each holds one mutex
//! for its whole body: no cache build runs while a sibling's fault is
//! armed.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use lss_driver::{CacheOutcome, Driver};

const MODEL: &str =
    "instance gen:source;\ninstance hole:sink;\ngen.out -> hole.in;\ngen.out :: int;";

/// Serializes the tests and clears the fault on drop, so a panicking test
/// cannot leak an armed fault into the next one.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    /// Takes the lock; the previous holder's drop left no fault armed.
    fn lock() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        FaultGuard(guard)
    }

    /// Arms `fault` for the builds that follow.
    fn arm(&self, fault: &str) {
        std::env::set_var("LSS_CACHE_FAULT", fault);
    }

    /// Clears the armed fault while keeping the lock.
    fn disarm(&self) {
        std::env::remove_var("LSS_CACHE_FAULT");
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        std::env::remove_var("LSS_CACHE_FAULT");
    }
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lss-cache-fault-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session(dir: &Path) -> Driver {
    let mut driver = Driver::with_corelib();
    driver.set_cache_dir(Some(dir.to_path_buf()));
    driver.add_source("m.lss", MODEL);
    driver
}

/// The ground truth a faulted build must match: a no-cache build.
fn reference_netlist_json() -> String {
    let mut driver = Driver::with_corelib();
    driver.add_source("m.lss", MODEL);
    lss_netlist::to_json(&driver.elaborate().expect("reference build").netlist)
}

#[test]
fn unwritable_dir_degrades_to_cold_builds() {
    let faults = FaultGuard::lock();
    let dir = temp_cache("unwritable");
    let reference = reference_netlist_json();
    faults.arm("unwritable");
    let mut cold = session(&dir);
    let built = cold.elaborate().expect("build succeeds despite fault");
    assert_eq!(built.cache, CacheOutcome::Miss);
    assert_eq!(lss_netlist::to_json(&built.netlist), reference);
    assert!(
        cold.warnings().iter().any(|w| w.contains("injected")),
        "store failure must be surfaced: {:?}",
        cold.warnings()
    );
    faults.disarm();
    // Nothing was stored, so a fault-free session still builds cold.
    let mut after = session(&dir);
    let rebuilt = after.elaborate().expect("rebuild");
    assert_eq!(rebuilt.cache, CacheOutcome::Miss);
    assert_eq!(lss_netlist::to_json(&rebuilt.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_is_caught_by_the_integrity_gate() {
    let faults = FaultGuard::lock();
    let dir = temp_cache("short-write");
    let reference = reference_netlist_json();
    faults.arm("short-write");
    // The torn store reports success — the build itself is fine.
    let built = session(&dir).elaborate().expect("cold build");
    assert_eq!(built.cache, CacheOutcome::Miss);
    assert_eq!(lss_netlist::to_json(&built.netlist), reference);
    faults.disarm();
    // The warm session must detect the torn entry, warn, and rebuild —
    // never deserialize half a netlist.
    let mut warm = session(&dir);
    let rebuilt = warm.elaborate().expect("rebuild after torn entry");
    assert_eq!(rebuilt.cache, CacheOutcome::Miss, "torn entry must not hit");
    assert_eq!(lss_netlist::to_json(&rebuilt.netlist), reference);
    assert!(
        warm.warnings().iter().any(|w| w.contains("cache")),
        "missing corruption warning: {:?}",
        warm.warnings()
    );
    // The rebuild overwrote the entry: a third session hits cleanly.
    let mut again = session(&dir);
    let hit = again.elaborate().expect("clean hit");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(lss_netlist::to_json(&hit.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_errors_degrade_warm_builds_to_cold_rebuilds() {
    let faults = FaultGuard::lock();
    let dir = temp_cache("read-error");
    let reference = reference_netlist_json();
    // A healthy entry exists on disk...
    let built = session(&dir).elaborate().expect("cold build");
    assert_eq!(built.cache, CacheOutcome::Miss);
    // ...but every read of it fails.
    faults.arm("read-error");
    let mut warm = session(&dir);
    let rebuilt = warm.elaborate().expect("rebuild despite read fault");
    assert_eq!(rebuilt.cache, CacheOutcome::Miss);
    assert_eq!(lss_netlist::to_json(&rebuilt.netlist), reference);
    assert!(
        warm.warnings().iter().any(|w| w.contains("injected")),
        "read fault must be surfaced: {:?}",
        warm.warnings()
    );
    faults.disarm();
    // Fault cleared: the (rewritten) entry serves a verified hit.
    let mut again = session(&dir);
    let hit = again.elaborate().expect("clean hit");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(lss_netlist::to_json(&hit.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_same_key_builds_publish_exactly_once() {
    // Two sessions compiling the same project simultaneously must both
    // succeed, produce identical netlists, and end with exactly one
    // published cache entry — `link(2)`-based publish makes one writer
    // win and the others observe its entry, so `lssd` worker threads
    // racing on a shared cache directory can never tear an entry.
    let _faults = FaultGuard::lock();
    let dir = temp_cache("concurrent");
    let reference = reference_netlist_json();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
    let results: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let barrier = std::sync::Arc::clone(&barrier);
                let dir = dir.clone();
                s.spawn(move || {
                    barrier.wait();
                    let built = session(&dir).elaborate().expect("racing build");
                    lss_netlist::to_json(&built.netlist)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for json in &results {
        assert_eq!(json, &reference, "racing sessions must agree");
    }
    // Exactly one whole-build entry exists and it serves a verified hit.
    let builds = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "bin")
                && !p.file_name().unwrap().to_string_lossy().starts_with('p')
                && !p.file_name().unwrap().to_string_lossy().starts_with('u')
        })
        .count();
    assert_eq!(builds, 1, "same key must yield exactly one build entry");
    assert!(
        !std::fs::read_dir(&dir)
            .expect("cache dir")
            .filter_map(Result::ok)
            .any(|e| e.path().to_string_lossy().ends_with(".tmp")),
        "no temp files may leak past a publish race"
    );
    let mut warm = session(&dir);
    let hit = warm.elaborate().expect("warm hit after race");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(lss_netlist::to_json(&hit.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_self_heal_so_republish_is_never_wedged() {
    // Exactly-once publish refuses to overwrite an existing entry, so a
    // torn entry must be *removed* when its corruption is detected —
    // otherwise the rebuild could never republish and every warm session
    // would rebuild forever.
    let _faults = FaultGuard::lock();
    let dir = temp_cache("self-heal");
    let reference = reference_netlist_json();
    let built = session(&dir).elaborate().expect("cold build");
    assert_eq!(built.cache, CacheOutcome::Miss);
    let entry = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.extension().is_some_and(|x| x == "bin")
                && !p.file_name().unwrap().to_string_lossy().starts_with('p')
        })
        .expect("build entry written");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    let mut warm = session(&dir);
    let rebuilt = warm.elaborate().expect("rebuild past corrupt entry");
    assert_eq!(rebuilt.cache, CacheOutcome::Miss);
    assert_eq!(lss_netlist::to_json(&rebuilt.netlist), reference);
    assert!(
        entry.exists(),
        "rebuild must republish into the healed slot"
    );
    // And the republished entry is whole: a third session hits.
    let hit = session(&dir).elaborate().expect("clean hit");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(lss_netlist::to_json(&hit.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}
