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
//! serve the wrong rows. To recompute every cell anyway, delete the
//! directory: `rm -rf target/isol-bench/cache`.
//!
//! # What is never cached
//!
//! * Cells whose scenario has fault injection armed
//!   ([`Scenario::has_faults`]) — the recovery path's statistics are
//!   the object of study and stay live. They count as `bypassed`.
//! * Cells that panic (including `--inject-panic` cells): the store
//!   happens strictly after the cell function returns, so a panic
//!   propagates before anything is written.
//! * Cells that end past their deadline: their rows may be partial
//!   stats, so [`run_scenario`] returns them unstored for the runner to
//!   discard (and [`CacheStats::tally`] skips failed cells).
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
//! cache never stores (faulted, traced, or the whole run without a
//! cache directory) simulate again.
//!
//! # Configuration and counts
//!
//! The cache directory is [`crate::RunConfig::cache`]; `None` (the
//! default, and `--no-cache`) neither reads nor writes. Each cell
//! reports its own outcome in its [`CellStat`], and
//! [`CacheStats::tally`] sums a batch's records, so two batches in one
//! process never mix their counts.

use std::fs;
use std::path::{Path, PathBuf};

use host_sim::RunReport;
use simcore::{fnv1a_64, Fingerprint, SimTime};

use crate::runner::CellRecord;
use crate::tracing::TraceConfig;
use crate::{Fidelity, RunConfig, Scenario};

/// Engine-version salt mixed into every cache key. Bump this whenever
/// an engine change legitimately alters simulation results; every
/// existing cache entry becomes unreachable at once.
pub const ENGINE_SALT: u64 = 0x1505_1955_0000_0001;

/// Default cache directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "target/isol-bench/cache";

/// Entry-format magic line; bump the `v` on layout changes.
const MAGIC: &str = "isol-bench-cell v1";

/// How one cell interacted with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CellOutcome {
    /// Served from disk.
    Hit,
    /// Recomputed (and stored, unless the write failed).
    Miss,
    /// Faulted or traced scenario — always recomputed, never stored.
    Bypass,
    /// No cache configured — plain computation.
    #[default]
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

/// One cell's wall-clock, cache outcome and trace output, carried in
/// its [`CellRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellStat {
    /// How the cache treated this cell.
    pub outcome: CellOutcome,
    /// Wall-clock spent in the cell, including cache I/O.
    pub seconds: f64,
    /// A recomputed cell whose entry was (re)written successfully.
    pub stored: bool,
    /// The entry was *present* on disk but failed validation
    /// (truncated, checksum mismatch, stale salt, wrong spec); the cell
    /// is also a miss. This separates "never computed" from "computed
    /// but the bytes rotted".
    pub corrupt: bool,
    /// The cell's trace files were written (a partial trace included).
    pub traced: bool,
}

/// Cache traffic totals of a batch (see [`CacheStats::tally`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cells served from disk without simulating.
    pub hits: usize,
    /// Cells recomputed (entry absent or invalid).
    pub misses: usize,
    /// Recomputed cells whose entry was (re)written successfully.
    pub stored: usize,
    /// Cells excluded from caching (fault injection or tracing on).
    pub bypassed: usize,
    /// Misses whose entry was present but failed validation.
    pub corrupt: usize,
}

impl CacheStats {
    /// Sums the cache outcomes of the records whose cell produced rows;
    /// a failed cell's outcome is not counted.
    #[must_use]
    pub fn tally(records: &[CellRecord]) -> CacheStats {
        let mut t = CacheStats::default();
        for stat in records.iter().filter(|r| r.rows.is_ok()).map(|r| r.stat) {
            match stat.outcome {
                CellOutcome::Hit => t.hits += 1,
                CellOutcome::Miss => t.misses += 1,
                CellOutcome::Bypass => t.bypassed += 1,
                CellOutcome::Off => {}
            }
            t.stored += usize::from(stat.stored);
            t.corrupt += usize::from(stat.corrupt);
        }
        t
    }
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

/// Fingerprints a spec string under [`ENGINE_SALT`].
#[must_use]
pub fn fingerprint(spec: &str) -> Fingerprint {
    Fingerprint::of(spec.as_bytes(), ENGINE_SALT)
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
        ENGINE_SALT,
        spec.len(),
        rows.len(),
        fnv1a_64(rows_text.as_bytes()),
    )
}

/// Strict parse of an entry; `None` (a miss) on *any* anomaly.
fn parse_entry(text: &str, want_spec: &str) -> Option<Vec<Vec<f64>>> {
    let rest = text.strip_prefix(MAGIC)?.strip_prefix('\n')?;
    let (salt_hex, rest) = rest.strip_prefix("salt ")?.split_once('\n')?;
    if u64::from_str_radix(salt_hex, 16).ok()? != ENGINE_SALT {
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

/// Runs one scenario cell through the cache configured in `cfg`,
/// reporting its outcome in `stat`. The cell label is the scenario
/// name.
///
/// On a cache hit the scenario is **not** simulated — the stored rows
/// come back as-is (bit-exact, via the hex-bits row encoding). On a
/// miss the scenario runs, `extract` turns the report into rows, and
/// the rows are stored (best-effort). Faulted and traced scenarios
/// always simulate and are never cached. A panic in the simulation or
/// in `extract` propagates before any store, so degraded cells never
/// poison the cache. A cell whose deadline has passed when its rows are
/// in hand is not stored: the runner discards its rows.
///
/// Because each store is a temp file plus an atomic rename, every cell
/// stored before a crash is a hit when the same run is started again:
/// that is how a killed `figures` run resumes.
#[must_use]
pub fn run_scenario(
    cfg: &RunConfig,
    stat: &mut CellStat,
    experiment: &str,
    fidelity: Fidelity,
    scenario: Scenario,
    until: SimTime,
    extract: impl FnOnce(RunReport) -> Vec<Vec<f64>>,
) -> Vec<Vec<f64>> {
    if let Some(trace) = &cfg.trace {
        // Traced cells always simulate (the trace is a side effect of
        // running) and are never stored: with tracing on, probe
        // closures run, so timings would differ from untraced entries.
        stat.outcome = CellOutcome::Bypass;
        return run_traced_cell(cfg, trace, stat, scenario, until, extract);
    }
    if scenario.has_faults() {
        stat.outcome = CellOutcome::Bypass;
        return extract(scenario.run(until));
    }
    let Some(dir) = cfg.cache.as_deref() else {
        stat.outcome = CellOutcome::Off;
        return extract(scenario.run(until));
    };
    let spec = spec_string(experiment, scenario.name(), fidelity, &scenario, until);
    let load = load_classified(dir, &spec);
    if let LoadOutcome::Loaded(rows) = load {
        stat.outcome = CellOutcome::Hit;
        return rows;
    }
    stat.outcome = CellOutcome::Miss;
    stat.corrupt = matches!(load, LoadOutcome::Corrupt);
    let rows = extract(scenario.run(until));
    // Past its deadline, these rows may be partial stats (the engine
    // unwound at a poll point): the runner discards the cell, so they
    // must never reach the cache.
    if !simcore::cancel::poll() {
        stat.stored = store_rows(dir, &spec, &rows).is_ok();
    }
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
    cfg: &RunConfig,
    trace_cfg: &TraceConfig,
    stat: &mut CellStat,
    scenario: Scenario,
    until: SimTime,
    extract: impl FnOnce(RunReport) -> Vec<Vec<f64>>,
) -> Vec<Vec<f64>> {
    let label = scenario.name().to_owned();
    let armed = cfg.inject_panic.as_deref() == Some(label.as_str());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        simcore::trace::install(trace_cfg.capacity);
        if armed {
            simcore::trace::arm_panic_after(INJECT_AFTER_EVENTS);
        }
        scenario.run(until)
    }));
    // On a panic, this salvages whatever the recorder captured; the
    // JSONL format is line-oriented, so a partial trace is still
    // parseable by `traceck`.
    if let Some(trace) = simcore::trace::take() {
        match crate::tracing::write_files(&trace_cfg.dir, &label, &trace) {
            Ok(()) => stat.traced = true,
            Err(e) => eprintln!("trace: failed to write files for `{label}`: {e}"),
        }
    }
    match outcome {
        Ok(report) => extract(report),
        Err(payload) => std::panic::resume_unwind(payload),
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
