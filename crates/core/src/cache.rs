//! Content-addressed cache of grid-cell results.
//!
//! Every grid cell in the figure experiments is a *pure, seeded
//! function* of its inputs: the fully configured [`Scenario`], the
//! [`Fidelity`] tier, and the engine version. This module exploits that
//! purity to make repeat `figures` runs incremental — a cell whose
//! inputs have not changed is loaded from disk instead of re-simulated,
//! and because the simulation is deterministic the warm output is
//! byte-identical to the cold output *by construction*.
//!
//! # Keying
//!
//! The cache key is a canonical **spec string**:
//!
//! ```text
//! <experiment>/<cell label>
//! fidelity=<Fidelity Debug>
//! until=<SimTime Debug>
//! <Scenario Debug>
//! ```
//!
//! `Scenario`'s `Debug` rendering is a valid canonical serialization
//! here because every field it contains is deterministic to format: the
//! cgroup [`Hierarchy`](cgroup_sim::Hierarchy) stores its children in
//! `BTreeMap`s, and the app/device/config types are plain structs of
//! scalars and `Vec`s. Any change to a scenario parameter changes the
//! spec string and therefore misses the cache — invalidation is exact
//! and automatic.
//!
//! The spec is hashed with the two vendored lanes in
//! [`simcore::hash`] — XXH64 seeded with the **engine salt** plus
//! unsalted FNV-1a — into the 32-hex-digit file stem. Bumping
//! [`ENGINE_SALT`] (done whenever an engine change legitimately alters
//! results) orphans every existing entry at once. As a belt over those
//! suspenders, the full spec string is stored *inside* each entry and
//! compared verbatim on load, so even a 128-bit hash collision cannot
//! serve the wrong rows.
//!
//! # What is never cached
//!
//! * Cells whose scenario has fault injection armed
//!   ([`Scenario::has_faults`]) — the recovery path's statistics are
//!   the object of study and stay live. They count as `bypassed`.
//! * Cells that panic (including `--inject-panic` cells): the store
//!   happens strictly after the cell function returns, so a panic
//!   propagates before anything is written.
//!
//! # Robustness
//!
//! Loading is fail-closed: a missing, truncated, corrupted, stale-salt,
//! or wrong-spec entry is silently a miss and gets recomputed and
//! rewritten. Stores go through a temp file + atomic rename so a
//! crashed run can leave at worst an ignored `*.tmp-*` turd (swept by
//! [`sweep_stale_tmp`] at the next open), never a half-written entry
//! under a live key.
//!
//! # Resume
//!
//! The cache is also what resumes a killed run: started again with the
//! same command, the run hits every cell stored before the kill and
//! simulates only the rest. Each entry is durable on its own once its
//! rename returns, because a SIGKILL or OOM kill does not lose data the
//! process already handed to the kernel. Nothing is fsynced, so a power
//! loss can lose recent entries; a lost entry is only a miss. Cells the
//! cache never stores (faulted, traced, or the whole run under
//! `CacheMode::Off`) simulate again.
//!
//! # Process-global state
//!
//! Mode, directory, and counters are process-global (like
//! [`crate::runner`]'s worker count). The mode defaults to
//! [`CacheMode::Off`] so library consumers and the unit-test binary are
//! unaffected unless a harness opts in.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use host_sim::RunReport;
use simcore::{fnv1a_64, Fingerprint, SimTime};

use crate::{Fidelity, Scenario};

/// Engine-version salt mixed into every cache key. Bump this whenever
/// an engine change legitimately alters simulation results; every
/// existing cache entry becomes unreachable at once.
pub const ENGINE_SALT: u64 = 0x1505_1955_0000_0001;

/// Default cache directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "target/isol-bench/cache";

/// Entry-format magic line; bump the `v` on layout changes.
const MAGIC: &str = "isol-bench-cell v1";

/// How the cache participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No reads, no writes — every cell recomputes (the default, and
    /// the `--no-cache` behavior).
    Off,
    /// Normal operation: hit loads, miss recomputes and stores.
    ReadWrite,
    /// `--refresh`: never load, always recompute and overwrite.
    Refresh,
}

static MODE: AtomicU8 = AtomicU8::new(0);
static HITS: AtomicUsize = AtomicUsize::new(0);
static MISSES: AtomicUsize = AtomicUsize::new(0);
static STORED: AtomicUsize = AtomicUsize::new(0);
static BYPASSED: AtomicUsize = AtomicUsize::new(0);
static CORRUPT: AtomicUsize = AtomicUsize::new(0);
static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static TEST_SALT: Mutex<Option<u64>> = Mutex::new(None);
static CELL_STATS: Mutex<Vec<CellStat>> = Mutex::new(Vec::new());

/// Sets the process-wide cache mode.
pub fn set_mode(mode: CacheMode) {
    let v = match mode {
        CacheMode::Off => 0,
        CacheMode::ReadWrite => 1,
        CacheMode::Refresh => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// The current cache mode.
#[must_use]
pub fn mode() -> CacheMode {
    match MODE.load(Ordering::Relaxed) {
        1 => CacheMode::ReadWrite,
        2 => CacheMode::Refresh,
        _ => CacheMode::Off,
    }
}

/// Sets the cache directory (created lazily on first store).
pub fn set_dir(dir: impl AsRef<Path>) {
    *DIR.lock().expect("cache dir poisoned") = Some(dir.as_ref().to_path_buf());
}

/// The effective cache directory ([`DEFAULT_DIR`] unless overridden).
#[must_use]
pub fn dir() -> PathBuf {
    DIR.lock()
        .expect("cache dir poisoned")
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_DIR))
}

/// Overrides the engine salt (testing hook for the salt-bump
/// invalidation path); `None` restores [`ENGINE_SALT`].
pub fn set_test_salt(salt: Option<u64>) {
    *TEST_SALT.lock().expect("salt override poisoned") = salt;
}

fn salt() -> u64 {
    TEST_SALT
        .lock()
        .expect("salt override poisoned")
        .unwrap_or(ENGINE_SALT)
}

/// Cache traffic counters for one run (see [`stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cells served from disk without simulating.
    pub hits: usize,
    /// Cells recomputed (entry absent, invalid, or `Refresh` mode).
    pub misses: usize,
    /// Recomputed cells whose entry was (re)written successfully.
    pub stored: usize,
    /// Cells excluded from caching (fault injection armed).
    pub bypassed: usize,
    /// Entries that were *present* on disk but failed validation
    /// (truncated, checksum mismatch, stale salt, wrong spec). Each is
    /// also counted as a miss; this counter separates "never computed"
    /// from "computed but the bytes rotted".
    pub corrupt: usize,
}

/// Snapshot of the traffic counters since the last [`reset_stats`].
#[must_use]
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stored: STORED.load(Ordering::Relaxed),
        bypassed: BYPASSED.load(Ordering::Relaxed),
        corrupt: CORRUPT.load(Ordering::Relaxed),
    }
}

/// Zeroes the traffic counters and drops pending per-cell telemetry.
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    STORED.store(0, Ordering::Relaxed);
    BYPASSED.store(0, Ordering::Relaxed);
    CORRUPT.store(0, Ordering::Relaxed);
    CELL_STATS.lock().expect("cell stats poisoned").clear();
}

/// How one cell interacted with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// Served from disk.
    Hit,
    /// Recomputed (and stored, unless the write failed).
    Miss,
    /// Faulted scenario — always recomputed, never stored.
    Bypass,
    /// Cache disabled — plain computation.
    Off,
}

impl CellOutcome {
    /// Stable lower-case token for JSON output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CellOutcome::Hit => "hit",
            CellOutcome::Miss => "miss",
            CellOutcome::Bypass => "bypass",
            CellOutcome::Off => "off",
        }
    }
}

/// Per-cell wall-clock + cache outcome, drained by the harness into
/// `timings.json`.
#[derive(Debug, Clone)]
pub struct CellStat {
    /// Owning experiment (e.g. `fig4`).
    pub experiment: String,
    /// Cell label (e.g. `fig4-io.max-1ssd-4`).
    pub label: String,
    /// Wall-clock spent in the cell, including cache I/O.
    pub seconds: f64,
    /// How the cache treated this cell.
    pub outcome: CellOutcome,
}

/// Drains the per-cell telemetry recorded since the last call (or
/// [`reset_stats`]).
#[must_use]
pub fn take_cell_stats() -> Vec<CellStat> {
    std::mem::take(&mut *CELL_STATS.lock().expect("cell stats poisoned"))
}

/// Builds the canonical spec string for one cell. Public so the
/// fingerprint bench and the tests can key entries the exact way the
/// runtime does.
#[must_use]
pub fn spec_string(
    experiment: &str,
    label: &str,
    fidelity: Fidelity,
    scenario: &Scenario,
    until: SimTime,
) -> String {
    format!("{experiment}/{label}\nfidelity={fidelity:?}\nuntil={until:?}\n{scenario:?}")
}

/// Fingerprints a spec string under the current engine salt.
#[must_use]
pub fn fingerprint(spec: &str) -> Fingerprint {
    Fingerprint::of(spec.as_bytes(), salt())
}

/// The entry path a spec string maps to under `dir`.
#[must_use]
pub fn entry_path(dir: &Path, spec: &str) -> PathBuf {
    dir.join(format!("{}.cell", fingerprint(spec).hex()))
}

/// Serializes one entry (header + spec + rows + checksum).
fn render_entry(spec: &str, rows: &[Vec<f64>]) -> String {
    let rows_text = serde::rows::encode_rows(rows);
    format!(
        "{MAGIC}\nsalt {:016x}\nspec-bytes {}\n{spec}\nrows {}\n{rows_text}checksum {:016x}\nend\n",
        salt(),
        spec.len(),
        rows.len(),
        fnv1a_64(rows_text.as_bytes()),
    )
}

/// Strict parse of an entry; `None` (a miss) on *any* anomaly.
fn parse_entry(text: &str, want_spec: &str) -> Option<Vec<Vec<f64>>> {
    let rest = text.strip_prefix(MAGIC)?.strip_prefix('\n')?;
    let (salt_hex, rest) = rest.strip_prefix("salt ")?.split_once('\n')?;
    if u64::from_str_radix(salt_hex, 16).ok()? != salt() {
        return None;
    }
    let (len_s, rest) = rest.strip_prefix("spec-bytes ")?.split_once('\n')?;
    let len: usize = len_s.parse().ok()?;
    if rest.len() < len || !rest.is_char_boundary(len) {
        return None;
    }
    let (spec, rest) = rest.split_at(len);
    if spec != want_spec {
        return None; // hash collision or tampered entry
    }
    let (count_s, rest) = rest.strip_prefix("\nrows ")?.split_once('\n')?;
    let count: usize = count_s.parse().ok()?;
    let mut cut = 0;
    for _ in 0..count {
        cut += rest[cut..].find('\n')? + 1;
    }
    let (rows_text, rest) = rest.split_at(cut);
    let (ck_hex, rest) = rest.strip_prefix("checksum ")?.split_once('\n')?;
    if u64::from_str_radix(ck_hex, 16).ok()? != fnv1a_64(rows_text.as_bytes()) {
        return None;
    }
    if rest != "end\n" {
        return None;
    }
    let rows = serde::rows::decode_rows(rows_text)?;
    (rows.len() == count).then_some(rows)
}

/// Why a load did not produce rows.
enum LoadOutcome {
    /// Valid entry.
    Loaded(Vec<Vec<f64>>),
    /// No entry file at all.
    Missing,
    /// Entry file present but failed validation.
    Corrupt,
}

fn load_classified(dir: &Path, spec: &str) -> LoadOutcome {
    let Ok(bytes) = fs::read(entry_path(dir, spec)) else {
        return LoadOutcome::Missing;
    };
    match std::str::from_utf8(&bytes)
        .ok()
        .and_then(|text| parse_entry(text, spec))
    {
        Some(rows) => LoadOutcome::Loaded(rows),
        None => LoadOutcome::Corrupt,
    }
}

/// Loads the entry for `spec` from `dir`; `None` is a miss (including
/// every corruption mode — this function never panics on bad bytes).
#[must_use]
pub fn load_rows(dir: &Path, spec: &str) -> Option<Vec<Vec<f64>>> {
    match load_classified(dir, spec) {
        LoadOutcome::Loaded(rows) => Some(rows),
        LoadOutcome::Missing | LoadOutcome::Corrupt => None,
    }
}

/// Removes stale `*.tmp-<pid>` temp files left behind by crashed or
/// killed runs (a successful store renames its temp file away). Called
/// by the harness at cache-open time, before any store of this process
/// could have created a live temp file; returns how many were swept.
pub fn sweep_stale_tmp(dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let is_tmp = Path::new(name)
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.starts_with("tmp-"));
        if is_tmp && fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    swept
}

/// Stores `rows` for `spec` under `dir` (temp file + atomic rename).
///
/// # Errors
///
/// Propagates filesystem errors; callers treat a failed store as
/// advisory (the run still has the computed rows in hand).
pub fn store_rows(dir: &Path, spec: &str, rows: &[Vec<f64>]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let path = entry_path(dir, spec);
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    fs::write(&tmp, render_entry(spec, rows))?;
    fs::rename(&tmp, &path)
}

fn record_cell(experiment: &str, label: &str, started: Instant, outcome: CellOutcome) {
    CELL_STATS
        .lock()
        .expect("cell stats poisoned")
        .push(CellStat {
            experiment: experiment.to_owned(),
            label: label.to_owned(),
            seconds: started.elapsed().as_secs_f64(),
            outcome,
        });
}

/// Runs one scenario cell through the cache.
///
/// On a cache hit the scenario is **not** simulated — the stored rows
/// come back as-is (bit-exact, via the hex-bits row encoding). On a
/// miss the scenario runs, `extract` turns the report into rows, and
/// the rows are stored (best-effort). Faulted and traced scenarios
/// always simulate and are never cached. A panic in the simulation or
/// in `extract` propagates before any store, so degraded cells never
/// poison the cache.
///
/// Because each store is a temp file plus an atomic rename, every cell
/// stored before a crash is a hit when the same run is started again:
/// that is how a killed `figures` run resumes.
#[must_use]
pub fn run_scenario(
    experiment: &str,
    label: &str,
    fidelity: Fidelity,
    scenario: Scenario,
    until: SimTime,
    extract: impl FnOnce(RunReport) -> Vec<Vec<f64>>,
) -> Vec<Vec<f64>> {
    let started = Instant::now();
    if let Some(capacity) = crate::tracing::capacity() {
        // Traced cells always simulate (the trace is a side effect of
        // running) and are never stored: with tracing on, probe
        // closures run, so timings would differ from untraced entries.
        let rows = run_traced_cell(label, scenario, until, capacity, extract);
        if simcore::cancel::poll() {
            return rows; // discarded by the runner; see below
        }
        BYPASSED.fetch_add(1, Ordering::Relaxed);
        record_cell(experiment, label, started, CellOutcome::Bypass);
        return rows;
    }
    if scenario.has_faults() {
        let rows = extract(scenario.run(until));
        if simcore::cancel::poll() {
            return rows; // discarded by the runner; see below
        }
        BYPASSED.fetch_add(1, Ordering::Relaxed);
        record_cell(experiment, label, started, CellOutcome::Bypass);
        return rows;
    }
    let mode = mode();
    if mode == CacheMode::Off {
        let rows = extract(scenario.run(until));
        if simcore::cancel::poll() {
            return rows;
        }
        record_cell(experiment, label, started, CellOutcome::Off);
        return rows;
    }
    let spec = spec_string(experiment, label, fidelity, &scenario, until);
    let cache_dir = dir();
    if mode == CacheMode::ReadWrite {
        match load_classified(&cache_dir, &spec) {
            LoadOutcome::Loaded(rows) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                record_cell(experiment, label, started, CellOutcome::Hit);
                return rows;
            }
            LoadOutcome::Corrupt => {
                CORRUPT.fetch_add(1, Ordering::Relaxed);
            }
            LoadOutcome::Missing => {}
        }
    }
    let rows = extract(scenario.run(until));
    if simcore::cancel::poll() {
        // The attempt's deadline passed: these rows may be partial
        // stats (the engine unwound at a poll point). The resilient
        // runner discards the attempt, so they must never reach the
        // cache or the per-cell telemetry.
        return rows;
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    if store_rows(&cache_dir, &spec, &rows).is_ok() {
        STORED.fetch_add(1, Ordering::Relaxed);
    }
    record_cell(experiment, label, started, CellOutcome::Miss);
    rows
}

/// Number of trace events after which a deferred `--inject-panic`
/// fires. Large enough for a meaningful partial prefix, small enough to
/// abort well before a smoke cell finishes.
const INJECT_AFTER_EVENTS: u64 = 1_000;

/// Runs one cell with the trace recorder installed, writing the trace
/// files on the way out — including the *partial* trace when the cell
/// panics mid-run (the deferred `--inject-panic` path arms the recorder
/// so the panic fires from inside the simulation).
fn run_traced_cell(
    label: &str,
    scenario: Scenario,
    until: SimTime,
    capacity: usize,
    extract: impl FnOnce(RunReport) -> Vec<Vec<f64>>,
) -> Vec<Vec<f64>> {
    let armed = crate::runner::inject_panic_label().as_deref() == Some(label);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simcore::trace::install(capacity);
        if armed {
            simcore::trace::arm_panic_after(INJECT_AFTER_EVENTS);
        }
        let report = scenario.run(until);
        let trace = simcore::trace::take().expect("recorder installed above");
        (report, trace)
    }));
    match outcome {
        Ok((report, trace)) => {
            if let Err(e) = crate::tracing::write_files(label, &trace) {
                eprintln!("trace: failed to write files for `{label}`: {e}");
            }
            extract(report)
        }
        Err(payload) => {
            // Salvage whatever the recorder captured before the panic;
            // the JSONL format is line-oriented, so a partial trace is
            // still parseable by `traceck`.
            if let Some(partial) = simcore::trace::take() {
                if let Err(e) = crate::tracing::write_files(label, &partial) {
                    eprintln!("trace: failed to write partial files for `{label}`: {e}");
                }
            }
            std::panic::resume_unwind(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "isol-bench-cache-unit-{tag}-{}",
            std::process::id()
        ));
        fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let rows = vec![vec![1.5, f64::INFINITY], vec![-0.0]];
        store_rows(&dir, "spec-a", &rows).unwrap();
        let back = load_rows(&dir, "spec-a").expect("hit");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0][0].to_bits(), 1.5f64.to_bits());
        assert_eq!(back[0][1], f64::INFINITY);
        assert_eq!(back[1][0].to_bits(), (-0.0f64).to_bits());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_spec_is_a_miss_even_at_the_same_path() {
        let dir = temp_dir("wrongspec");
        store_rows(&dir, "spec-b", &[vec![1.0]]).unwrap();
        // Forge a collision: copy the entry onto the path of a
        // different spec. The embedded spec comparison must reject it.
        let forged = "spec-FORGED";
        fs::copy(entry_path(&dir, "spec-b"), entry_path(&dir, forged)).unwrap();
        assert!(load_rows(&dir, forged).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_entries_are_misses_not_panics() {
        let dir = temp_dir("corrupt");
        let rows = vec![vec![2.0, 3.0], vec![4.0]];
        store_rows(&dir, "spec-c", &rows).unwrap();
        let path = entry_path(&dir, "spec-c");
        let good = fs::read_to_string(&path).unwrap();
        // Truncation at every byte boundary must fail closed.
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            fs::write(&path, &good.as_bytes()[..cut]).unwrap();
            assert!(load_rows(&dir, "spec-c").is_none(), "cut at {cut}");
        }
        // A flipped row byte must trip the checksum (3.0 -> a NaN-ish
        // bit pattern one ulp off).
        let flipped = good.replace("4008000000000000", "4008000000000001");
        assert_ne!(flipped, good, "expected the 3.0 bit pattern in rows");
        fs::write(&path, flipped).unwrap();
        assert!(load_rows(&dir, "spec-c").is_none());
        // Non-UTF-8 garbage.
        fs::write(&path, [0xFFu8, 0xFE, 0x00, 0x80]).unwrap();
        assert!(load_rows(&dir, "spec-c").is_none());
        // Restoring the pristine bytes hits again.
        fs::write(&path, &good).unwrap();
        assert!(load_rows(&dir, "spec-c").is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let dir = temp_dir("missing");
        assert!(load_rows(&dir, "never-stored").is_none());
    }

    #[test]
    fn sweep_removes_only_stale_tmp_files() {
        let dir = temp_dir("sweep");
        store_rows(&dir, "spec-s", &[vec![1.0]]).unwrap();
        // Simulate turds from two crashed runs plus an unrelated file.
        fs::write(dir.join("deadbeef.tmp-1234"), "partial").unwrap();
        fs::write(dir.join("cafebabe.tmp-99999"), "partial").unwrap();
        fs::write(dir.join("notes.txt"), "keep me").unwrap();
        assert_eq!(sweep_stale_tmp(&dir), 2);
        assert!(load_rows(&dir, "spec-s").is_some(), "live entry survives");
        assert!(dir.join("notes.txt").exists());
        assert!(!dir.join("deadbeef.tmp-1234").exists());
        // Sweeping a missing directory is a quiet no-op.
        assert_eq!(sweep_stale_tmp(&dir.join("nope")), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_rows_round_trip() {
        let dir = temp_dir("empty");
        store_rows(&dir, "spec-e", &[]).unwrap();
        assert_eq!(load_rows(&dir, "spec-e"), Some(Vec::new()));
        fs::remove_dir_all(&dir).ok();
    }
}
