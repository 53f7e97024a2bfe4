//! Determinism guarantees for the `fleet_scale` scalability study: the
//! emitted CSV must be byte-identical however the grid is parallelized
//! — across `--jobs` worker counts and across `--shards` counts. At 256
//! tenants over 4 devices the scenario decomposes into 4 components, so
//! the shards axis genuinely exercises parallel intra-scenario
//! execution (not the single-component fallback). The sequential run
//! must also match the committed golden CSV, which pins the nested-group
//! io.cost output (and every other knob's) at smoke fidelity.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use isol_bench::experiments::fleet_scale;
use isol_bench::{runner, Fidelity, OutputSink};

/// Worker and shard counts are process-global; tests that set them must
/// not interleave.
static GLOBAL_CONFIG: Mutex<()> = Mutex::new(());

/// Runs the smoke fleet_scale grid, returning every emitted CSV as
/// `name -> bytes`.
fn fleet_scale_csvs(tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "isol-bench-fleet-scale-{}-{tag}",
        std::process::id()
    ));
    let mut sink = OutputSink::with_dir(&dir).expect("temp output dir");
    fleet_scale::run(Fidelity::Smoke, &mut sink).expect("fleet_scale run");
    let mut out = BTreeMap::new();
    for name in sink.emitted() {
        let path = dir.join(format!("{name}.csv"));
        out.insert(name.clone(), fs::read(&path).expect("emitted csv exists"));
    }
    fs::remove_dir_all(&dir).ok();
    out
}

fn assert_same_csvs(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, what: &str) {
    assert!(
        a.contains_key("fleet_scale"),
        "fleet_scale.csv must be emitted"
    );
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "emitted CSV sets differ between {what}"
    );
    for (name, a_bytes) in a {
        assert_eq!(a_bytes, &b[name], "{name}.csv differs between {what}");
    }
}

/// Compares the emitted `fleet_scale.csv` against the committed golden.
fn assert_matches_golden(csvs: &BTreeMap<String, Vec<u8>>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_scale.csv");
    let golden = fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    assert!(
        csvs["fleet_scale"] == golden,
        "fleet_scale.csv diverged from the committed golden fixture:\n{}",
        String::from_utf8_lossy(&csvs["fleet_scale"])
    );
}

#[test]
fn fleet_scale_grid_is_byte_identical_across_worker_counts() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    runner::set_jobs(1);
    let sequential = fleet_scale_csvs("jobs1");
    runner::set_jobs(4);
    let parallel = fleet_scale_csvs("jobs4");
    runner::set_jobs(0);
    assert_same_csvs(&sequential, &parallel, "jobs=1 and jobs=4");
    assert_matches_golden(&sequential);
}

#[test]
fn fleet_scale_grid_is_byte_identical_across_shard_counts() {
    let _guard = GLOBAL_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    runner::set_shards(1);
    let one = fleet_scale_csvs("shards1");
    runner::set_shards(4);
    let four = fleet_scale_csvs("shards4");
    runner::set_shards(0);
    assert_same_csvs(&one, &four, "shards=1 and shards=4");
}
