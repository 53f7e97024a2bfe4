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

use isol_bench::cache::CacheStats;

pub mod fixtures;

/// The directory experiment CSVs are written into.
pub const OUTPUT_DIR: &str = "target/isol-bench";

/// Parses the value of a count flag (`--jobs`): a positive count, or
/// `auto`/`0` for "auto-detect".
///
/// Returns the value for `isol_bench::RunConfig::jobs` (where 0 means
/// auto-detect).
///
/// # Errors
///
/// Returns a human-readable message naming `flag` when the value is
/// not a count.
pub fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    if value.eq_ignore_ascii_case("auto") {
        return Ok(0);
    }
    value
        .parse::<usize>()
        .map_err(|_| format!("invalid {flag} value `{value}` (expected a number or `auto`)"))
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
/// dependency). Also carries the per-cell breakdown and the cache
/// traffic summary.
#[derive(Debug)]
pub struct Timings {
    fidelity: String,
    jobs: usize,
    entries: Vec<(String, Duration)>,
    cache: CacheStats,
    cells: Vec<CellTiming>,
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
            cache: CacheStats::default(),
            cells: Vec::new(),
        }
    }

    /// Records one experiment's wall-clock duration.
    pub fn record(&mut self, name: &str, elapsed: Duration) {
        self.entries.push((name.to_owned(), elapsed));
    }

    /// Records the run's cache traffic totals.
    pub fn set_cache_summary(&mut self, totals: CacheStats) {
        self.cache = totals;
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
        let CacheStats {
            hits,
            misses,
            stored,
            bypassed,
            corrupt,
        } = self.cache;
        s.push_str(&format!(
            "  \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \"stored\": {stored}, \"bypassed\": {bypassed}, \"corrupt\": {corrupt}}},\n",
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

/// One grid cell that failed instead of producing a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureEntry {
    /// The experiment the cell belonged to (`q_faults`, `fig5`, ...).
    pub experiment: String,
    /// The cell's submission index within its batch.
    pub index: usize,
    /// The cell's label (scenario name; `<name> (experiment)` for a
    /// failed finishing step).
    pub label: String,
    /// The panic payload or deadline message, stringified.
    pub message: String,
    /// Structured failure class token (`panic` or `timed_out`; see
    /// `isol_bench::runner::FailureClass`).
    pub class: String,
}

/// Grid cells that failed during a `figures` run, serialized as
/// `failures.json` next to the CSVs (same hand-rolled JSON as
/// [`Timings`]). The file is written on every run — an empty
/// `failures` array is the healthy signal, a populated one names each
/// failing cell while the surviving cells' partial CSVs stand. It is the
/// one record of a failed cell.
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
    ) {
        self.entries.push(FailureEntry {
            experiment: experiment.to_owned(),
            index,
            label: label.to_owned(),
            message: message.to_owned(),
            class: class.to_owned(),
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
                "    {{\"experiment\": \"{}\", \"index\": {}, \"label\": \"{}\", \"message\": \"{}\", \"class\": \"{}\"}}{comma}\n",
                json_escape(&e.experiment),
                e.index,
                json_escape(&e.label),
                json_escape(&e.message),
                json_escape(&e.class)
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
/// Returns the normalized list of experiment names to run: `all` (or no
/// name at all) stands for the paper artifacts, expanded in place beside
/// any other names, and each name is kept once, where it first appears.
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
    let mut out: Vec<String> = Vec::new();
    let mut add = |name: &str| {
        if !out.iter().any(|s| s == name) {
            out.push(name.to_owned());
        }
    };
    for a in args {
        let a = a.to_lowercase();
        match a.as_str() {
            "all" => DEFAULT.iter().for_each(|k| add(k)),
            k if DEFAULT.contains(&k) || EXTRA.contains(&k) => add(k),
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
    fn all_expands_in_place_beside_extras() {
        let args = ["all", "q_faults", "fleet_scale", "app_mix", "Q_FAULTS"];
        let sel = parse_selection(args.map(str::to_owned)).unwrap();
        assert_eq!(sel.len(), 13, "{sel:?}");
        assert_eq!(sel[..2], ["fig2", "fig3"]);
        assert_eq!(sel[10..], ["q_faults", "fleet_scale", "app_mix"]);
        let sel = parse_selection(["all", "q_faults"].map(str::to_owned)).unwrap();
        assert_eq!(sel.len(), 11);
        assert!(sel.contains(&"q_faults".to_owned()));
        // First-seen order, each name once.
        let sel = parse_selection(["fig7", "all", "fig7"].map(str::to_owned)).unwrap();
        assert_eq!(sel.len(), 10);
        assert_eq!(sel[..2], ["fig7", "fig2"]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_arguments_never_panic(
            picks in proptest::collection::vec(0usize..24, 0..12),
            junk in proptest::collection::vec(0u32..0x11_0000, 0..6),
        ) {
            // Known names in any case and order, `all`, and arbitrary
            // strings (any code points, possibly empty).
            const WORDS: [&str; 16] = [
                "all", "ALL", "fig2", "FIG4", "q10", "table1", "optane", "writeback",
                "q_faults", "fleet_scale", "App_Mix", "", "fig", "all ", "-", "figures",
            ];
            let stray: String = junk.iter().filter_map(|&c| char::from_u32(c)).collect();
            let args: Vec<String> = picks
                .iter()
                .map(|&i| WORDS.get(i).map_or_else(|| stray.clone(), |w| (*w).to_owned()))
                .collect();
            match parse_selection(args.clone()) {
                Ok(sel) => {
                    let mut seen = sel.clone();
                    seen.sort();
                    seen.dedup();
                    proptest::prop_assert_eq!(seen.len(), sel.len());
                    proptest::prop_assert!(!sel.is_empty());
                }
                Err(bad) => {
                    proptest::prop_assert!(args.iter().any(|a| a.to_lowercase() == bad));
                }
            }
        }
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
        );
        assert_eq!(f.len(), 1);
        let json = f.to_json();
        assert!(json.contains(
            "{\"experiment\": \"q_faults\", \"index\": 4, \
             \"label\": \"q_faults-io.cost\", \"message\": \"boom \\\"quoted\\\"\", \
             \"class\": \"timed_out\"}"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn count_values_parse() {
        let table = [
            ("4", Some(4)),
            ("1", Some(1)),
            ("auto", Some(0)),
            ("AUTO", Some(0)),
            ("0", Some(0)),
            ("four", None),
            ("-1", None),
        ];
        for (value, want) in table {
            match (parse_count("--jobs", value), want) {
                (Ok(n), Some(w)) => assert_eq!(n, w, "--jobs {value}"),
                (Err(e), None) => assert!(e.contains("--jobs") && e.contains(value), "{e}"),
                (got, _) => panic!("--jobs {value}: unexpected {got:?}"),
            }
        }
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
    fn timings_json_carries_cache_and_cells() {
        let mut t = Timings::new("smoke", 4);
        t.record("fig4", Duration::from_millis(100));
        t.set_cache_summary(CacheStats {
            hits: 10,
            misses: 2,
            stored: 2,
            bypassed: 1,
            corrupt: 1,
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
        let json = t.to_json(Duration::from_millis(100));
        assert!(!json.contains("\"scheduler\""));
        assert!(json.contains(
            "\"cache\": {\"hits\": 10, \"misses\": 2, \"stored\": 2, \"bypassed\": 1, \"corrupt\": 1}"
        ));
        assert!(!json.contains("\"resilience\""));
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
}
