//! `perfbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <grid_open|fleet_4096|apps_closed> --seed <n>
//!           --seconds <s> --trace <0|1> [--reference FILE] [--cells N]
//!           [--out DIR] [--print-digests]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A readable
//! table, the failures and (traced) the per-layer self time go to
//! standard error. See `README.md`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{run_traced, run_untraced, Options, Outcome};
use perfbench::check::{self, Reference, REFERENCE};
use perfbench::workloads::{cell_seed, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <grid_open|fleet_4096|apps_closed> --seed <n> \
         --seconds <s> --trace <0|1> [--reference FILE] [--cells N] [--out DIR] [--print-digests]"
    );
    ExitCode::from(2)
}

fn json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failures.is_empty(),
        out.attempted,
        out.failures.len()
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut reference = Reference::parse(REFERENCE);
    let mut max_cells = None;
    let mut print_digests = false;
    let mut out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_default();
        match a.as_str() {
            "--workload" => workload = Workload::parse(&val()),
            "--seed" => seed = val().parse::<u64>().ok(),
            "--seconds" => seconds = val().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = val().parse::<u8>().ok().filter(|t| *t <= 1),
            "--cells" => max_cells = val().parse::<usize>().ok(),
            "--out" => out_dir = PathBuf::from(val()),
            "--reference" => match std::fs::read_to_string(val()) {
                Ok(text) => reference = Reference::parse(&text),
                Err(e) => return usage(&format!("cannot read reference: {e}")),
            },
            "--print-digests" => print_digests = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        reference,
        max_cells,
    };
    if print_digests {
        for (i, c) in workload.cells().iter().enumerate() {
            let (s, until) = c.scenario(cell_seed(seed, i));
            let r = s.build_host(until).run(until);
            println!("{} {}", c.label(), check::digest(&r));
        }
        return ExitCode::SUCCESS;
    }

    let out = if trace == 1 {
        run_traced(&opts)
    } else {
        run_untraced(&opts)
    };
    eprintln!(
        "# {} seed {} trace {}: {} cells attempted, {} failed",
        workload.name(),
        seed,
        trace,
        out.attempted,
        out.failures.len()
    );
    for f in &out.failures {
        eprintln!("FAILED {f}");
    }
    for m in &out.metrics {
        eprintln!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if trace == 1 {
        eprintln!("# per-layer self time (span time minus child spans)");
        eprintln!(
            "{:<32} {:>8} {:>12} {:>12}",
            "span", "calls", "total_s", "self_s"
        );
        for (name, t) in out.spans.totals() {
            eprintln!(
                "{name:<32} {:>8} {:>12.6} {:>12.6}",
                t.calls, t.total_s, t.self_s
            );
        }
        let path = out_dir.join(format!("{}-seed{seed}.chrome.json", workload.name()));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, out.spans.to_chrome_json(&out.labels)));
        match written {
            Ok(()) => eprintln!("# spans: {}", path.display()),
            Err(e) => eprintln!("# spans not written to {}: {e}", path.display()),
        }
    }
    println!("{}", json(&out));
    ExitCode::SUCCESS
}
