//! A cell whose rows differ from the committed reference digest counts
//! as a failed cell.

use std::process::Command;

use perfbench::bench::{run_untraced, Options};
use perfbench::check::{Reference, DEFAULT_SEED, REFERENCE};
use perfbench::workloads::Workload;

fn opts(reference: Reference) -> Options {
    Options {
        workload: Workload::AppsClosed,
        seed: DEFAULT_SEED,
        seconds: 0.001,
        reference,
        max_cells: Some(2),
    }
}

/// The committed reference with the first cell's digest altered.
fn tampered() -> String {
    let first = Workload::AppsClosed.cells()[0].label();
    REFERENCE
        .lines()
        .map(|l| match l.split_once(' ') {
            Some((label, digest)) if label == first => {
                let flipped: String = digest
                    .chars()
                    .map(|c| if c == '0' { '1' } else { '0' })
                    .collect();
                format!("{label} {flipped}")
            }
            _ => l.to_owned(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn committed_reference_passes() {
    let out = run_untraced(&opts(Reference::parse(REFERENCE)));
    assert_eq!(out.attempted, 2);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
}

#[test]
fn tampered_reference_fails_the_cell() {
    let out = run_untraced(&opts(Reference::parse(&tampered())));
    assert_eq!(out.attempted, 2);
    assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    assert!(
        out.failures[0].contains("apps-none-r0"),
        "{}",
        out.failures[0]
    );
}

#[test]
fn the_command_reports_the_failed_cell() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("tampered-reference.txt");
    std::fs::write(&path, tampered()).expect("write tampered reference");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "apps_closed",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(["--cells", "2", "--reference"])
        .arg(&path)
        .output()
        .expect("run perfbench");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
    assert!(last.contains("\"failed\": "), "{last}");
    assert!(!last.contains("\"failed\": 0,"), "{last}");
}
