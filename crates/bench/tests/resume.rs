//! End-to-end crash/hang resilience tests against the real `figures`
//! binary, each in its own scratch working directory (the harness
//! writes to `target/isol-bench/` relative to the cwd, so each test
//! also starts from an empty cell cache):
//!
//! * SIGKILL a run mid-grid, run the same command again, and require
//!   the CSVs to be byte-identical to an uninterrupted run's, every
//!   entry stored before the kill to be a cache hit, and the other
//!   cells to report the uninterrupted run's outcome;
//! * `--inject-hang` a cell and require its deadline to stop it, one
//!   `timed_out` record naming it in `failures.json`, and the run to
//!   still exit 0 with every other table emitted.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const CSVS: [&str; 2] = ["fig4_bandwidth_cpu_1ssd.csv", "fig4_bandwidth_cpu_7ssd.csv"];

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isol-bench-resume-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&d).ok();
    fs::create_dir_all(&d).expect("scratch dir");
    d
}

fn figures(cwd: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(FIGURES);
    cmd.current_dir(cwd)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

fn out_file(cwd: &Path, name: &str) -> PathBuf {
    cwd.join("target/isol-bench").join(name)
}

/// The names in the run's cache directory whose extension starts with
/// `ext` (`cell` for entries, `tmp-` for stores in flight).
fn cache_files(cwd: &Path, ext: &str) -> Vec<String> {
    fs::read_dir(out_file(cwd, "cache"))
        .map(|d| {
            d.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.rsplit_once('.').is_some_and(|(_, x)| x.starts_with(ext)))
                .collect()
        })
        .unwrap_or_default()
}

/// The order- and duration-independent part of `timings.json`: one
/// `(experiment, label)` prefix and its outcome token per cell,
/// `"seconds"` stripped.
fn cell_outcomes(cwd: &Path) -> Vec<(String, String)> {
    let text = fs::read_to_string(out_file(cwd, "timings.json")).expect("timings.json");
    text.lines()
        .filter(|l| l.contains("\"experiment\""))
        .map(|l| {
            let (cell, rest) = l.split_once(", \"seconds\":").expect("seconds field");
            let (_, outcome) = rest.split_once("\"outcome\": \"").expect("outcome field");
            let outcome = outcome.split('"').next().expect("outcome token");
            (cell.to_owned(), outcome.to_owned())
        })
        .collect()
}

fn cache_hits(cwd: &Path) -> usize {
    let text = fs::read_to_string(out_file(cwd, "timings.json")).expect("timings.json");
    let (_, rest) = text.split_once("\"hits\": ").expect("hits field");
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("hits count")
}

#[test]
fn sigkill_then_resume_matches_an_uninterrupted_run() {
    let base = &["--smoke", "fig4", "--jobs", "2"];

    // Reference: an uninterrupted run.
    let ref_dir = scratch_dir("ref");
    let status = figures(&ref_dir, base).status().expect("spawn figures");
    assert!(status.success(), "reference run failed: {status}");
    let ref_csvs: Vec<Vec<u8>> = CSVS
        .iter()
        .map(|n| fs::read(out_file(&ref_dir, n)).expect("reference csv"))
        .collect();
    let ref_cells = cell_outcomes(&ref_dir);
    assert!(!ref_cells.is_empty(), "reference run must report cells");

    // Victim: same run, SIGKILLed once the cache holds a few stored
    // cells (so the rerun has real work both to serve and to redo).
    let kill_dir = scratch_dir("kill");
    let mut child = figures(&kill_dir, base).spawn().expect("spawn victim");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if cache_files(&kill_dir, "cell").len() >= 3 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            // Too fast to catch mid-run — the rerun degenerates to all
            // hits, which the test still validates.
            assert!(status.success(), "victim run failed: {status}");
            break;
        }
        assert!(Instant::now() < deadline, "no stored cells within 120s");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().ok(); // SIGKILL: no cleanup code runs
    child.wait().expect("reap victim");
    let stored = cache_files(&kill_dir, "cell").len();

    // The same command again completes only the missing cells and
    // converges to the uninterrupted run's bytes.
    let status = figures(&kill_dir, base).status().expect("spawn rerun");
    assert!(status.success(), "rerun failed: {status}");
    for (name, expect) in CSVS.iter().zip(&ref_csvs) {
        let got = fs::read(out_file(&kill_dir, name)).expect("rerun csv");
        assert_eq!(
            &got, expect,
            "{name} differs between resumed and uninterrupted runs"
        );
    }
    assert_eq!(cache_hits(&kill_dir), stored, "every stored cell is a hit");
    assert!(
        cache_files(&kill_dir, "tmp-").is_empty(),
        "no temp file is left behind"
    );
    let cells = cell_outcomes(&kill_dir);
    let labels = |cells: &[(String, String)]| -> Vec<String> {
        cells.iter().map(|(cell, _)| cell.clone()).collect()
    };
    assert_eq!(labels(&cells), labels(&ref_cells), "same cells, same order");
    let mut hits = 0;
    for ((cell, got), (_, want)) in cells.iter().zip(&ref_cells) {
        if got == "hit" {
            hits += 1;
        } else {
            assert_eq!(got, want, "{cell}: outcome of a recomputed cell");
        }
    }
    assert_eq!(hits, stored, "exactly the stored cells report `hit`");

    fs::remove_dir_all(&ref_dir).ok();
    fs::remove_dir_all(&kill_dir).ok();
}

#[test]
fn injected_hang_is_cancelled_and_recorded_once() {
    let dir = scratch_dir("hang");
    let label = "fig4-none-1ssd-1";
    // Soft deadline well above the slowest healthy smoke cell (~1.2s)
    // so only the injected hang trips it.
    let started = Instant::now();
    let status = figures(
        &dir,
        &[
            "--smoke",
            "fig4",
            "--no-cache",
            "--jobs",
            "2",
            "--inject-hang",
            label,
            "--watchdog-soft-ms",
            "4000",
        ],
    )
    .status()
    .expect("spawn figures");
    let elapsed = started.elapsed();
    assert!(status.success(), "a hung cell must not fail the run");
    // One 4s soft deadline plus the healthy grid: a watchdog-bounded
    // run stays far under this; an unbounded hang never returns at all.
    assert!(
        elapsed < Duration::from_secs(90),
        "watchdog must bound the run (took {elapsed:?})"
    );

    let failures = fs::read_to_string(out_file(&dir, "failures.json")).expect("failures.json");
    let records: Vec<&str> = failures
        .lines()
        .filter(|l| l.contains("\"label\": "))
        .collect();
    assert_eq!(records.len(), 1, "one failure record: {failures}");
    assert!(
        records[0].contains(&format!("\"label\": \"{label}\"")),
        "failures.json must name the hung cell: {failures}"
    );
    assert!(
        records[0].contains("\"class\": \"timed_out\""),
        "hung cell must be classified timed_out: {failures}"
    );
    // The healthy cells still produced both tables.
    for name in CSVS {
        assert!(
            out_file(&dir, name).exists(),
            "{name} must still be emitted"
        );
    }
    fs::remove_dir_all(&dir).ok();
}
