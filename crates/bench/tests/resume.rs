//! End-to-end crash/hang resilience tests against the real `figures`
//! binary, each in its own scratch working directory (the harness
//! writes to `target/isol-bench/` relative to the cwd):
//!
//! * SIGKILL a run mid-grid, rerun with `--resume`, and require the
//!   CSVs and the per-cell `(experiment, label, outcome)` triples in
//!   `timings.json` to be byte-identical to an uninterrupted run;
//! * `--inject-hang` a cell and require its deadline to stop it, the
//!   runner to retry it, quarantine it and classify it `timed_out`, and
//!   the run to still exit 0 with every other table emitted.

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

/// The order- and duration-independent part of `timings.json`: one
/// `(experiment, label, outcome)` line per cell, `"seconds"` stripped.
fn cell_outcomes(cwd: &Path) -> Vec<String> {
    let text = fs::read_to_string(out_file(cwd, "timings.json")).expect("timings.json");
    text.lines()
        .filter(|l| l.contains("\"experiment\""))
        .map(|l| {
            let start = l.find(", \"seconds\":").expect("seconds field");
            let end = l[start + 1..].find(',').expect("field after seconds") + start + 1;
            format!("{}{}", &l[..start], &l[end..])
        })
        .collect()
}

#[test]
fn sigkill_then_resume_matches_an_uninterrupted_run() {
    let base = &["--smoke", "fig4", "--no-cache", "--jobs", "2"];

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

    // Victim: same run, SIGKILLed once the journal holds a few durable
    // cells (so the resume has real work both to replay and to redo).
    let kill_dir = scratch_dir("kill");
    let mut child = figures(&kill_dir, base).spawn().expect("spawn victim");
    let journal = out_file(&kill_dir, "journal/run.jsonl");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let cells = fs::read_to_string(&journal)
            .map(|t| t.lines().filter(|l| l.contains("\"cell\":")).count())
            .unwrap_or(0);
        if cells >= 3 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            // Too fast to catch mid-run — the resume below degenerates
            // to a full replay, which the test still validates.
            assert!(status.success(), "victim run failed: {status}");
            break;
        }
        assert!(Instant::now() < deadline, "no journaled cells within 120s");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().ok(); // SIGKILL: no cleanup code runs
    child.wait().expect("reap victim");

    // Resume must complete only the missing cells and converge to the
    // uninterrupted run's bytes.
    let mut resume_args = base.to_vec();
    resume_args.push("--resume");
    let status = figures(&kill_dir, &resume_args)
        .status()
        .expect("spawn resume");
    assert!(status.success(), "resume run failed: {status}");
    for (name, expect) in CSVS.iter().zip(&ref_csvs) {
        let got = fs::read(out_file(&kill_dir, name)).expect("resumed csv");
        assert_eq!(
            &got, expect,
            "{name} differs between resumed and uninterrupted runs"
        );
    }
    assert_eq!(
        cell_outcomes(&kill_dir),
        ref_cells,
        "per-cell outcomes must survive the resume"
    );

    fs::remove_dir_all(&ref_dir).ok();
    fs::remove_dir_all(&kill_dir).ok();
}

#[test]
fn injected_hang_is_cancelled_retried_and_quarantined() {
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
            "--cell-retries",
            "1",
            "--retry-backoff-ms",
            "10",
        ],
    )
    .status()
    .expect("spawn figures");
    let elapsed = started.elapsed();
    assert!(status.success(), "a hung cell must not fail the run");
    // Two attempts at a 4s soft deadline plus the healthy grid: a
    // watchdog-bounded run stays far under this; an unbounded hang
    // never returns at all.
    assert!(
        elapsed < Duration::from_secs(90),
        "watchdog must bound the run (took {elapsed:?})"
    );

    let failures = fs::read_to_string(out_file(&dir, "failures.json")).expect("failures.json");
    assert!(
        failures.contains(label),
        "failures.json must name the hung cell"
    );
    assert!(
        failures.contains("\"class\": \"timed_out\""),
        "hung cell must be classified timed_out"
    );

    let timings = fs::read_to_string(out_file(&dir, "timings.json")).expect("timings.json");
    assert!(
        !timings.contains("\"watchdog_soft\": 0,"),
        "soft watchdog fires must be recorded"
    );
    assert!(
        timings.contains(&format!("\"{label}\"")),
        "quarantine list must name the hung cell"
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
