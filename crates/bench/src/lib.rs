//! # isol-bench-harness — benchmark harness and figure regeneration
//!
//! Two entry points:
//!
//! * the **`figures` binary** regenerates every table and figure of the
//!   paper (`cargo run --release -p isol-bench-harness --bin figures --
//!   all`), printing the same rows/series the paper reports and writing
//!   CSVs under [`OUTPUT_DIR`],
//! * the **Criterion benches** (`cargo bench`) cover the simulator's
//!   hot paths (`engine`), a scaled-down run of every paper experiment
//!   (`paper_experiments`), and the design-choice ablations from
//!   DESIGN.md §11 (`ablations`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::time::Duration;

pub mod fixtures;

/// The directory experiment CSVs are written into.
pub const OUTPUT_DIR: &str = "target/isol-bench";

/// Parses the value of a `--jobs` flag: a positive worker count, or
/// `auto`/`0` for "use all available cores".
///
/// Returns the value to pass to `isol_bench::runner::set_jobs` (where 0
/// means auto-detect).
///
/// # Errors
///
/// Returns a human-readable message when the value is not a count.
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    if value.eq_ignore_ascii_case("auto") {
        return Ok(0);
    }
    value
        .parse::<usize>()
        .map_err(|_| format!("invalid --jobs value `{value}` (expected a number or `auto`)"))
}

/// Parses the value of a `--shards` flag: a positive per-scenario shard
/// count, or `auto`/`0` for "whatever cores `--jobs` leaves free".
///
/// Returns the value to pass to `isol_bench::runner::set_shards` (where
/// 0 means auto-detect).
///
/// # Errors
///
/// Returns a human-readable message when the value is not a count.
pub fn parse_shards(value: &str) -> Result<usize, String> {
    if value.eq_ignore_ascii_case("auto") {
        return Ok(0);
    }
    value
        .parse::<usize>()
        .map_err(|_| format!("invalid --shards value `{value}` (expected a number or `auto`)"))
}

/// One grid cell's wall-clock + cache outcome, reported in the
/// `cells` array of `timings.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// Owning experiment (`fig4`, `q10`, ...).
    pub experiment: String,
    /// Cell label (scenario name).
    pub label: String,
    /// Wall-clock spent in the cell, including cache I/O.
    pub seconds: f64,
    /// Cache outcome token (`hit`, `miss`, `bypass`, `off`).
    pub outcome: String,
}

/// Per-experiment wall-clock timings, serialized as machine-readable
/// JSON (hand-rolled: the workspace is offline and carries no JSON
/// dependency). Also carries the per-cell breakdown, the cache traffic
/// summary, and which scheduler produced the run.
#[derive(Debug)]
pub struct Timings {
    fidelity: String,
    jobs: usize,
    entries: Vec<(String, Duration)>,
    scheduler: String,
    shards: usize,
    cache: (usize, usize, usize, usize, usize),
    resilience: ResilienceSummary,
    cells: Vec<CellTiming>,
}

/// Watchdog/retry/resume telemetry for one run, reported under
/// `"resilience"` in `timings.json`. All zeros on a healthy,
/// uninterrupted run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResilienceSummary {
    /// Watchdog soft-deadline fires (cooperative cancels issued).
    pub watchdog_soft: usize,
    /// Watchdog hard-deadline fires (cells declared stuck).
    pub watchdog_hard: usize,
    /// Retry attempts executed after failed attempts.
    pub retries: usize,
    /// Cell labels quarantined after exhausting their retry budget.
    pub quarantined: Vec<String>,
    /// Cells answered from the run journal by `--resume`.
    pub resumed: usize,
}

impl Timings {
    /// Starts an empty collection for a run at the given fidelity with
    /// the given (resolved) worker count.
    #[must_use]
    pub fn new(fidelity: &str, jobs: usize) -> Self {
        Timings {
            fidelity: fidelity.to_owned(),
            jobs,
            entries: Vec::new(),
            scheduler: "sequential".to_owned(),
            shards: 1,
            cache: (0, 0, 0, 0, 0),
            resilience: ResilienceSummary::default(),
            cells: Vec::new(),
        }
    }

    /// Records one experiment's wall-clock duration.
    pub fn record(&mut self, name: &str, elapsed: Duration) {
        self.entries.push((name.to_owned(), elapsed));
    }

    /// Names the scheduler that produced the run (`sequential` per
    /// experiment, or `global` for the cross-experiment batch).
    pub fn set_scheduler(&mut self, scheduler: &str) {
        self.scheduler = scheduler.to_owned();
    }

    /// Records the resolved per-scenario shard count the run used (the
    /// engine's intra-scenario parallelism; results are shard-invariant).
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards;
    }

    /// Records the run's cache traffic counters. `corrupt` counts
    /// entries that were present on disk but failed validation (each is
    /// also a miss).
    pub fn set_cache_summary(
        &mut self,
        hits: usize,
        misses: usize,
        stored: usize,
        bypassed: usize,
        corrupt: usize,
    ) {
        self.cache = (hits, misses, stored, bypassed, corrupt);
    }

    /// Records the run's watchdog/retry/resume telemetry.
    pub fn set_resilience(&mut self, resilience: ResilienceSummary) {
        self.resilience = resilience;
    }

    /// Replaces the per-cell breakdown. Entries are sorted by
    /// (experiment, label) so the array is deterministic regardless of
    /// worker interleaving (only the `seconds` values vary run to run).
    pub fn set_cells(&mut self, mut cells: Vec<CellTiming>) {
        cells.sort_by(|a, b| (&a.experiment, &a.label).cmp(&(&b.experiment, &b.label)));
        self.cells = cells;
    }

    /// Renders the JSON document.
    #[must_use]
    pub fn to_json(&self, total: Duration) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"fidelity\": \"{}\",\n",
            json_escape(&self.fidelity)
        ));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!(
            "  \"total_seconds\": {:.3},\n",
            total.as_secs_f64()
        ));
        s.push_str("  \"experiments\": [\n");
        for (i, (name, d)) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"seconds\": {:.3}}}{comma}\n",
                json_escape(name),
                d.as_secs_f64()
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"scheduler\": {{\"kind\": \"{}\", \"shards\": {}}},\n",
            json_escape(&self.scheduler),
            self.shards
        ));
        let (hits, misses, stored, bypassed, corrupt) = self.cache;
        s.push_str(&format!(
            "  \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"stored\": {stored}, \"bypassed\": {bypassed}, \"corrupt\": {corrupt}}},\n",
        ));
        let r = &self.resilience;
        let quarantined = r
            .quarantined
            .iter()
            .map(|l| format!("\"{}\"", json_escape(l)))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            "  \"resilience\": {{\"watchdog_soft\": {}, \"watchdog_hard\": {}, \"retries\": {}, \"quarantined\": [{quarantined}], \"resumed\": {}}},\n",
            r.watchdog_soft, r.watchdog_hard, r.retries, r.resumed
        ));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"experiment\": \"{}\", \"label\": \"{}\", \"seconds\": {:.6}, \"outcome\": \"{}\"}}{comma}\n",
                json_escape(&c.experiment),
                json_escape(&c.label),
                c.seconds,
                json_escape(&c.outcome)
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_json(&self, path: &str, total: Duration) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json(total).as_bytes())
    }
}

/// One experiment's engine-profile sample: how many simulation events
/// it popped, at what rate, and the largest pending-event backlog any
/// of its runs reached.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Experiment name (`fig4`, `q10`, ...).
    pub name: String,
    /// Simulation runs the experiment executed.
    pub runs: u64,
    /// Events popped across those runs.
    pub events: u64,
    /// Events per wall-clock second (`events / elapsed`).
    pub pops_per_sec: f64,
    /// Peak pending events in any single run.
    pub peak_pending: u64,
    /// Scenario runs that executed on more than one engine shard.
    pub sharded_runs: u64,
    /// Per-subsystem `(wall ns, calls)` deltas, indexed like
    /// [`host_sim::stats::SUBSYS_NAMES`]. All zero unless subsystem
    /// timing was enabled for the run.
    pub subsys: [(u64, u64); 5],
}

/// Per-experiment engine profiles (the `figures --profile` payload),
/// serialized next to [`Timings`] as `profile.json`.
///
/// Samples come from `host_sim::stats` counter deltas around each
/// experiment; with `--jobs > 1` concurrent experiments overlap in the
/// deltas, so profile with `--jobs 1` for clean attribution.
#[derive(Debug, Default)]
pub struct Profiles {
    entries: Vec<ProfileEntry>,
    /// Run-level wake-tournament occupancy `(active high-water mark,
    /// provisioned leaves)`, if any sequential run executed.
    tourney: Option<(u64, u64)>,
}

impl Profiles {
    /// Starts an empty collection.
    #[must_use]
    pub fn new() -> Self {
        Profiles::default()
    }

    /// Records one experiment's sample and returns the human-readable
    /// one-liner the harness prints alongside the tables.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &str,
        runs: u64,
        events: u64,
        elapsed: Duration,
        peak: u64,
        sharded_runs: u64,
    ) -> String {
        self.record_with_subsys(name, runs, events, elapsed, peak, sharded_runs, [(0, 0); 5])
    }

    /// [`record`](Profiles::record) plus per-subsystem `(ns, calls)`
    /// deltas (see [`host_sim::stats::subsys_snapshot`]).
    #[allow(clippy::too_many_arguments)]
    pub fn record_with_subsys(
        &mut self,
        name: &str,
        runs: u64,
        events: u64,
        elapsed: Duration,
        peak: u64,
        sharded_runs: u64,
        subsys: [(u64, u64); 5],
    ) -> String {
        let pops_per_sec = if elapsed.as_secs_f64() > 0.0 {
            events as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        self.entries.push(ProfileEntry {
            name: name.to_owned(),
            runs,
            events,
            pops_per_sec,
            peak_pending: peak,
            sharded_runs,
            subsys,
        });
        let shard_note = if sharded_runs > 0 {
            format!(", {sharded_runs} sharded")
        } else {
            String::new()
        };
        let subsys_note = if subsys.iter().any(|&(ns, _)| ns > 0) {
            let total: u64 = subsys.iter().map(|&(ns, _)| ns).sum();
            let mut parts = Vec::new();
            for (name, &(ns, _)) in host_sim::stats::SUBSYS_NAMES.iter().zip(&subsys) {
                if ns > 0 {
                    parts.push(format!("{name} {:.0}%", 100.0 * ns as f64 / total as f64));
                }
            }
            format!(", subsys: {}", parts.join(" / "))
        } else {
            String::new()
        };
        format!(
            "(profile: {runs} runs, {events} events, {:.2} Mpops/s, peak pending {peak}{shard_note}{subsys_note})",
            pops_per_sec / 1e6
        )
    }

    /// Records the run-level wake-tournament occupancy: the active-leaf high-water mark and the provisioned leaf
    /// count. `1 - hwm/leaves` is the suppressed-tenant ratio.
    pub fn set_tourney(&mut self, active_hwm: u64, leaves: u64) {
        if leaves > 0 {
            self.tourney = Some((active_hwm, leaves));
        }
    }

    /// Recorded samples, in run order.
    #[must_use]
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// Renders the JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"experiments\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            // The subsys object appears only when timing was on, so
            // profiles taken without `--profile`'s sequential scheduler
            // keep the compact shape.
            let subsys = if e.subsys.iter().any(|&(ns, n)| ns > 0 || n > 0) {
                let fields: Vec<String> = host_sim::stats::SUBSYS_NAMES
                    .iter()
                    .zip(&e.subsys)
                    .map(|(name, &(ns, n))| format!("\"{name}\": {{\"ns\": {ns}, \"calls\": {n}}}"))
                    .collect();
                format!(", \"subsys\": {{{}}}", fields.join(", "))
            } else {
                String::new()
            };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"runs\": {}, \"events\": {}, \"pops_per_sec\": {:.0}, \"peak_pending\": {}, \"sharded_runs\": {}{subsys}}}{comma}\n",
                json_escape(&e.name),
                e.runs,
                e.events,
                e.pops_per_sec,
                e.peak_pending,
                e.sharded_runs
            ));
        }
        s.push_str("  ]");
        if let Some((hwm, leaves)) = self.tourney {
            s.push_str(&format!(
                ",\n  \"tourney\": {{\"active_hwm\": {hwm}, \"leaves\": {leaves}, \"suppressed_ratio\": {:.4}}}",
                1.0 - hwm as f64 / leaves as f64
            ));
        }
        s.push_str("\n}\n");
        s
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// One grid cell that failed instead of producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureEntry {
    /// The experiment the cell belonged to (`q_faults`, `fig5`, ...).
    pub experiment: String,
    /// The cell's submission index within its batch.
    pub index: usize,
    /// The cell's label (scenario name, or `#index`).
    pub label: String,
    /// The panic payload or cancellation cause, stringified.
    pub message: String,
    /// Structured failure class token (`panic`, `timed_out`,
    /// `cancelled`, `cache_corrupt`, `invariant_violation`) — the same
    /// taxonomy the run journal records.
    pub class: String,
    /// Attempts the cell consumed before being given up on.
    pub attempts: u32,
}

/// Grid cells that failed during a `figures` run, serialized as
/// `failures.json` next to the CSVs (same hand-rolled JSON as
/// [`Timings`]). The file is written on every run — an empty
/// `failures` array is the healthy signal, a populated one names each
/// failing cell while the surviving cells' partial CSVs stand.
#[derive(Debug, Default)]
pub struct Failures {
    entries: Vec<FailureEntry>,
}

impl Failures {
    /// Starts an empty collection.
    #[must_use]
    pub fn new() -> Self {
        Failures::default()
    }

    /// Records one failed cell.
    pub fn record(
        &mut self,
        experiment: &str,
        index: usize,
        label: &str,
        message: &str,
        class: &str,
        attempts: u32,
    ) {
        self.entries.push(FailureEntry {
            experiment: experiment.to_owned(),
            index,
            label: label.to_owned(),
            message: message.to_owned(),
            class: class.to_owned(),
            attempts,
        });
    }

    /// Whether any cell failed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of failed cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Recorded failures, in record order.
    #[must_use]
    pub fn entries(&self) -> &[FailureEntry] {
        &self.entries
    }

    /// Renders the JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"failures\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 == self.entries.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"experiment\": \"{}\", \"index\": {}, \"label\": \"{}\", \"message\": \"{}\", \"class\": \"{}\", \"attempts\": {}}}{comma}\n",
                json_escape(&e.experiment),
                e.index,
                json_escape(&e.label),
                json_escape(&e.message),
                json_escape(&e.class),
                e.attempts
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses the figure-selection arguments of the `figures` binary.
/// Returns the normalized list of experiment names to run.
///
/// # Errors
///
/// Returns the offending token when it is not a known experiment.
pub fn parse_selection<I: IntoIterator<Item = String>>(args: I) -> Result<Vec<String>, String> {
    // The paper artifacts `all` expands to.
    const DEFAULT: [&str; 10] = [
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "q10",
        "table1",
        "optane",
        "writeback",
    ];
    // Extra studies that must be requested by name (or via their own
    // flag, like `--faults` for the fault-injection study).
    const EXTRA: [&str; 3] = ["q_faults", "fleet_scale", "app_mix"];
    let mut out = Vec::new();
    for a in args {
        let a = a.to_lowercase();
        match a.as_str() {
            "all" => {
                out = DEFAULT.iter().map(|s| (*s).to_owned()).collect();
                return Ok(out);
            }
            k if DEFAULT.contains(&k) || EXTRA.contains(&k) => out.push(a),
            other => return Err(other.to_owned()),
        }
    }
    if out.is_empty() {
        out = DEFAULT.iter().map(|s| (*s).to_owned()).collect();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_selection_means_all() {
        let sel = parse_selection(Vec::new()).unwrap();
        assert_eq!(sel.len(), 10);
        assert!(sel.contains(&"table1".to_owned()));
        assert!(sel.contains(&"optane".to_owned()));
    }

    #[test]
    fn explicit_selection_is_kept() {
        let sel = parse_selection(vec!["fig3".into(), "Q10".into()]).unwrap();
        assert_eq!(sel, vec!["fig3", "q10"]);
    }

    #[test]
    fn all_overrides() {
        let sel = parse_selection(vec!["fig3".into(), "all".into()]).unwrap();
        assert_eq!(sel.len(), 10);
    }

    #[test]
    fn unknown_is_an_error() {
        assert_eq!(parse_selection(vec!["fig9".into()]), Err("fig9".to_owned()));
    }

    #[test]
    fn q_faults_is_selectable_but_not_in_all() {
        let sel = parse_selection(vec!["q_faults".into()]).unwrap();
        assert_eq!(sel, vec!["q_faults"]);
        let all = parse_selection(vec!["all".into()]).unwrap();
        assert!(!all.contains(&"q_faults".to_owned()));
        let sel = parse_selection(vec!["fig3".into(), "q_faults".into()]).unwrap();
        assert_eq!(sel, vec!["fig3", "q_faults"]);
    }

    #[test]
    fn fleet_scale_is_selectable_but_not_in_all() {
        let sel = parse_selection(vec!["fleet_scale".into()]).unwrap();
        assert_eq!(sel, vec!["fleet_scale"]);
        let all = parse_selection(vec!["all".into()]).unwrap();
        assert!(!all.contains(&"fleet_scale".to_owned()));
    }

    #[test]
    fn app_mix_is_selectable_but_not_in_all() {
        let sel = parse_selection(vec!["app_mix".into()]).unwrap();
        assert_eq!(sel, vec!["app_mix"]);
        let all = parse_selection(vec!["all".into()]).unwrap();
        assert!(!all.contains(&"app_mix".to_owned()));
    }

    #[test]
    fn failures_json_is_well_formed() {
        let mut f = Failures::new();
        assert!(f.is_empty());
        let empty = f.to_json();
        assert!(empty.contains("\"failures\": ["));
        f.record(
            "q_faults",
            4,
            "q_faults-io.cost",
            "boom \"quoted\"",
            "timed_out",
            2,
        );
        assert_eq!(f.len(), 1);
        let json = f.to_json();
        assert!(json.contains(
            "{\"experiment\": \"q_faults\", \"index\": 4, \
             \"label\": \"q_faults-io.cost\", \"message\": \"boom \\\"quoted\\\"\", \
             \"class\": \"timed_out\", \"attempts\": 2}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn jobs_values_parse() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("auto"), Ok(0));
        assert_eq!(parse_jobs("0"), Ok(0));
        assert!(parse_jobs("four").is_err());
        assert!(parse_jobs("-1").is_err());
    }

    #[test]
    fn timings_json_is_well_formed() {
        let mut t = Timings::new("standard", 8);
        t.record("fig3", Duration::from_millis(1500));
        t.record("fig4", Duration::from_millis(250));
        let json = t.to_json(Duration::from_millis(1750));
        assert!(json.contains("\"fidelity\": \"standard\""));
        assert!(json.contains("\"jobs\": 8"));
        assert!(json.contains("{\"name\": \"fig3\", \"seconds\": 1.500},"));
        assert!(json.contains("{\"name\": \"fig4\", \"seconds\": 0.250}\n"));
        assert!(json.contains("\"total_seconds\": 1.750"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn timings_json_carries_scheduler_cache_and_cells() {
        let mut t = Timings::new("smoke", 4);
        t.record("fig4", Duration::from_millis(100));
        t.set_scheduler("global");
        t.set_cache_summary(10, 2, 2, 1, 1);
        t.set_resilience(ResilienceSummary {
            watchdog_soft: 2,
            watchdog_hard: 1,
            retries: 3,
            quarantined: vec!["fig4-hung".into()],
            resumed: 5,
        });
        t.set_cells(vec![
            CellTiming {
                experiment: "fig4".into(),
                label: "fig4-none-1ssd-4".into(),
                seconds: 0.25,
                outcome: "miss".into(),
            },
            CellTiming {
                experiment: "fig3".into(),
                label: "fig3-none-16".into(),
                seconds: 0.125,
                outcome: "hit".into(),
            },
        ]);
        t.set_shards(4);
        let json = t.to_json(Duration::from_millis(100));
        assert!(json.contains("\"scheduler\": {\"kind\": \"global\", \"shards\": 4}"));
        assert!(json.contains(
            "\"cache\": {\"hits\": 10, \"misses\": 2, \"stored\": 2, \"bypassed\": 1, \"corrupt\": 1}"
        ));
        assert!(json.contains(
            "\"resilience\": {\"watchdog_soft\": 2, \"watchdog_hard\": 1, \"retries\": 3, \
             \"quarantined\": [\"fig4-hung\"], \"resumed\": 5}"
        ));
        // Cells are sorted by (experiment, label): fig3 first.
        let f3 = json.find("fig3-none-16").unwrap();
        let f4 = json.find("fig4-none-1ssd-4").unwrap();
        assert!(f3 < f4);
        assert!(json.contains(
            "{\"experiment\": \"fig3\", \"label\": \"fig3-none-16\", \
             \"seconds\": 0.125000, \"outcome\": \"hit\"}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn timings_json_escapes_strings() {
        let t = Timings::new("we\"ird\\name", 1);
        let json = t.to_json(Duration::ZERO);
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn profiles_record_and_serialize() {
        let mut p = Profiles::new();
        let line = p.record("fig4", 12, 3_000_000, Duration::from_secs(2), 512, 0);
        assert!(line.contains("12 runs"));
        assert!(line.contains("3000000 events"));
        assert!(line.contains("1.50 Mpops/s"));
        assert!(line.contains("peak pending 512"));
        assert!(!line.contains("sharded"));
        let line = p.record("q10", 6, 1_000_000, Duration::from_millis(500), 64, 6);
        assert!(line.contains("6 sharded)"));
        assert_eq!(p.entries().len(), 2);
        let json = p.to_json();
        assert!(json.contains("{\"name\": \"fig4\", \"runs\": 12, \"events\": 3000000, \"pops_per_sec\": 1500000, \"peak_pending\": 512, \"sharded_runs\": 0},"));
        assert!(json.contains("{\"name\": \"q10\", \"runs\": 6, \"events\": 1000000, \"pops_per_sec\": 2000000, \"peak_pending\": 64, \"sharded_runs\": 6}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn profiles_subsys_and_tourney_serialize() {
        let mut p = Profiles::new();
        let mut subsys = [(0u64, 0u64); 5];
        subsys[0] = (750_000, 1_000); // arrival-gen
        subsys[4] = (250_000, 2_000); // stats
        let line = p.record_with_subsys(
            "fleet_scale",
            3,
            900_000,
            Duration::from_secs(1),
            128,
            0,
            subsys,
        );
        assert!(
            line.contains("subsys: arrival-gen 75% / stats 25%"),
            "{line}"
        );
        p.set_tourney(214, 4096);
        let json = p.to_json();
        assert!(json.contains("\"subsys\": {\"arrival-gen\": {\"ns\": 750000, \"calls\": 1000}"));
        assert!(json.contains(
            "\"tourney\": {\"active_hwm\": 214, \"leaves\": 4096, \"suppressed_ratio\": 0.9478}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Zero leaves never records (no sequential run executed).
        let mut q = Profiles::new();
        q.set_tourney(0, 0);
        assert!(!q.to_json().contains("tourney"));
    }

    #[test]
    fn profiles_zero_elapsed_yields_zero_rate() {
        let mut p = Profiles::new();
        p.record("x", 1, 10, Duration::ZERO, 1, 0);
        assert_eq!(p.entries()[0].pops_per_sec, 0.0);
    }

    #[test]
    fn shards_values_parse() {
        assert_eq!(parse_shards("4"), Ok(4));
        assert_eq!(parse_shards("auto"), Ok(0));
        assert_eq!(parse_shards("0"), Ok(0));
        assert!(parse_shards("many").is_err());
    }
}
