//! Determinism regression for the trace layer: the recorded event
//! stream is part of the engine's byte-identical contract, so
//!
//! * a traced experiment grid must emit identical trace files on one
//!   worker and on several (per-cell recorders are thread-local; any
//!   cross-worker leakage or reordering fails here),
//! * a small committed golden trace pins today's exact event stream —
//!   schema, payloads, ordering — against any future engine change.
//!   Regenerate deliberately with
//!   `UPDATE_TRACE_GOLDEN=1 cargo test -p isol-bench --test trace_determinism`.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use isol_bench::cache::CellOutcome;
use isol_bench::experiments::{fig4, fleet_scale};
use isol_bench::tracing::{self, TraceConfig};
use isol_bench::{run_cells, traceck, Fidelity, Knob, RunConfig, Scenario};
use simcore::SimTime;
use workload::JobSpec;

/// Runs the fig4 smoke grid with `jobs` workers and tracing on,
/// returning every written trace file as `name -> bytes`.
fn traced_grid(jobs: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let base: PathBuf = std::env::temp_dir().join(format!(
        "isol-bench-trace-determinism-{}-{tag}",
        std::process::id()
    ));
    let trace_dir = base.join("traces");
    let cfg = RunConfig {
        jobs,
        trace: Some(TraceConfig {
            capacity: tracing::DEFAULT_CAPACITY,
            dir: trace_dir.clone(),
        }),
        ..RunConfig::default()
    };
    let (cells, _) = fig4::stage(Fidelity::Smoke).into_parts();
    for r in run_cells(&cfg, cells) {
        assert!(r.rows.is_ok(), "{} failed", r.label);
        assert!(r.stat.traced, "{} reports its trace files", r.label);
        assert_eq!(
            r.stat.outcome,
            CellOutcome::Bypass,
            "traced cells bypass the cache"
        );
    }
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(&trace_dir).expect("trace dir exists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        out.insert(name, fs::read(&path).expect("trace file readable"));
    }
    fs::remove_dir_all(&base).ok();
    out
}

#[test]
fn traced_fig4_grid_is_byte_identical_across_worker_counts() {
    let sequential = traced_grid(1, "seq");
    let parallel = traced_grid(4, "par");
    assert!(!sequential.is_empty(), "traced grid wrote no trace files");
    assert_eq!(
        sequential.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "trace file sets differ between jobs=1 and jobs=4"
    );
    for (name, seq_bytes) in &sequential {
        assert_eq!(
            seq_bytes, &parallel[name],
            "{name} differs between jobs=1 and jobs=4"
        );
    }
}

/// The fixed cell for the golden: the paper's
/// two-tenant prioritization shape on mq-deadline, short enough that
/// the golden stays a small fixture yet touches submit, QoS, scheduler,
/// device, and completion events.
fn golden_scenario() -> Scenario {
    let knob = Knob::MqDlPrio;
    let mut s = Scenario::new("trace-golden", 2, vec![knob.device_setup(false)]);
    let prio = s.add_cgroup("prio");
    let be = s.add_cgroup("be");
    knob.configure_weights(&mut s, &[prio, be], &[800, 100]);
    s.add_app(prio, JobSpec::lc_app("prio"));
    s.add_app(be, JobSpec::batch_app("be"));
    s
}

fn golden_jsonl() -> String {
    let (_, trace) = golden_scenario().run_traced(SimTime::from_micros(300), 1 << 16);
    assert!(trace.is_lossless(), "golden cell overflowed its ring");
    assert!(trace.is_complete(), "golden cell trace missing run_end");
    trace.to_jsonl()
}

#[test]
fn trace_matches_committed_golden() {
    let current = golden_jsonl();
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_mq_prio.trace.jsonl");
    if std::env::var_os("UPDATE_TRACE_GOLDEN").is_some() {
        fs::write(&golden_path, &current).expect("write golden trace");
        return;
    }
    let golden = fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", golden_path.display()));
    assert_eq!(
        current, golden,
        "trace stream diverged from the committed golden \
         (if the schema or engine changed intentionally, regenerate with \
         UPDATE_TRACE_GOLDEN=1)"
    );
}

/// A traced multi-device run: four SSDs, mq-deadline with priority
/// classes, 32 tenants over shared cores. The single-device cells
/// above never interleave several devices' events in one trace. The
/// run spans one full burst period, so every tenant starts before it
/// ends.
#[test]
fn multi_device_fleet_trace_passes_traceck() {
    let until = SimTime::from_millis(25);
    let (s, _, _) = fleet_scale::fleet_scale_scenario(Knob::MqDlPrio, 32);
    let (report, trace) = s.run_traced(until, 1 << 20);
    assert!(trace.is_lossless(), "fleet trace overflowed its ring");
    assert!(trace.is_complete(), "fleet trace missing run_end");
    let busy = report.devices.iter().filter(|d| d.served_ios > 0).count();
    assert!(busy > 1, "only {busy} device(s) served I/O");
    let mut violations = traceck::check(&trace).violations;
    violations.extend(traceck::check_against_report(&trace, &report));
    assert!(
        violations.is_empty(),
        "fleet trace violates invariants: {violations:?}"
    );
}
