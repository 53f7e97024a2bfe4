//! Conformance suite for the declarative scenario DSL: every committed
//! `scenarios/*.toml` must parse, re-serialize equivalently, and build
//! a runnable host; malformed inputs must fail with line-numbered
//! errors — never a panic.

use std::fs;
use std::path::PathBuf;

use isol_bench::scenario_file::ScenarioSpec;
use proptest::prelude::*;

/// The committed scenario directory at the repository root.
fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn committed_scenarios() -> Vec<(PathBuf, String)> {
    let mut out: Vec<(PathBuf, String)> = fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            let src = fs::read_to_string(&p).expect("scenario file readable");
            (p, src)
        })
        .collect();
    out.sort();
    assert!(
        out.len() >= 2,
        "expected committed scenario files in scenarios/"
    );
    out
}

#[test]
fn every_committed_scenario_parses_and_builds() {
    for (path, src) in committed_scenarios() {
        let spec = ScenarioSpec::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!spec.name.is_empty());
        // Building the host exercises cgroup creation, knob wiring, and
        // tenant attachment — everything short of running the clock.
        let host = spec.build().build_host(spec.duration);
        drop(host);
    }
}

#[test]
fn every_committed_scenario_round_trips() {
    for (path, src) in committed_scenarios() {
        let spec = ScenarioSpec::parse(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let rendered = spec.to_toml();
        let again = ScenarioSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("{}: re-parse of to_toml(): {e}", path.display()));
        assert_eq!(spec, again, "{}: to_toml() not equivalent", path.display());
        // Normalized rendering is a fixed point.
        assert_eq!(
            rendered,
            again.to_toml(),
            "{}: render unstable",
            path.display()
        );
    }
}

#[test]
fn the_app_mix_scenario_runs_all_four_engines() {
    let src = fs::read_to_string(scenarios_dir().join("app_mix.toml")).expect("app_mix.toml");
    let spec = ScenarioSpec::parse(&src).expect("app_mix parses");
    let mut kinds = spec.tenant_kinds();
    kinds.sort_unstable();
    assert_eq!(kinds, vec!["fileserver", "kv", "mlscan", "oltp"]);
}

// ===== Rejection: malformed inputs fail with line-numbered errors =====

/// A minimal valid scenario the rejection cases mutate.
const BASE: &str = r#"name = "t"
cores = 2
duration_ms = 20
knob = "none"

[[device]]
profile = "flash"

[[cgroup]]
name = "g"

[[tenant]]
name = "a"
cgroup = "g"
workload = "kv"
"#;

/// Asserts `src` is rejected with a line-numbered error mentioning
/// `needle` — and that parsing does not panic.
fn assert_rejected(src: &str, needle: &str) {
    let result = std::panic::catch_unwind(|| ScenarioSpec::parse(src));
    let err = result
        .unwrap_or_else(|_| panic!("parse panicked instead of erroring (wanted: {needle})"))
        .expect_err(&format!("accepted malformed input (wanted: {needle})"));
    assert!(err.line > 0, "error has no line number: {err}");
    let msg = err.to_string();
    assert!(
        msg.contains(needle),
        "error {msg:?} does not mention {needle:?}"
    );
}

#[test]
fn unknown_knob_is_rejected_with_line() {
    assert_rejected(
        &BASE.replace("knob = \"none\"", "knob = \"io.warp\""),
        "unknown knob",
    );
}

#[test]
fn unknown_root_key_is_rejected() {
    assert_rejected(&format!("turbo = 9\n{BASE}"), "unknown key 'turbo'");
}

#[test]
fn unknown_workload_key_is_rejected() {
    assert_rejected(
        &format!("{BASE}theta_boost = 2\n"),
        "unknown key 'theta_boost'",
    );
}

#[test]
fn unknown_workload_kind_is_rejected() {
    assert_rejected(
        &BASE.replace("workload = \"kv\"", "workload = \"spark\""),
        "unknown workload",
    );
}

#[test]
fn dangling_cgroup_parent_is_rejected() {
    assert_rejected(
        &BASE.replace("name = \"g\"", "name = \"g\"\nparent = \"ghost\""),
        "unknown parent cgroup",
    );
}

#[test]
fn duplicate_cgroup_is_rejected() {
    assert_rejected(
        &BASE.replace("[[tenant]]", "[[cgroup]]\nname = \"g\"\n\n[[tenant]]"),
        "duplicate cgroup",
    );
}

#[test]
fn zero_devices_is_rejected() {
    let src: String = BASE
        .lines()
        .filter(|l| !l.contains("[[device]]") && !l.contains("profile"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_rejected(&src, "no [[device]]");
}

#[test]
fn device_index_out_of_range_is_rejected() {
    assert_rejected(
        &BASE.replace("cgroup = \"g\"", "cgroup = \"g\"\ndevices = [0, 3]"),
        "out of range",
    );
}

#[test]
fn tenant_with_unknown_cgroup_is_rejected() {
    assert_rejected(
        &BASE.replace("cgroup = \"g\"", "cgroup = \"nope\""),
        "unknown cgroup",
    );
}

#[test]
fn tenant_in_management_cgroup_is_rejected() {
    assert_rejected(
        &BASE.replace(
            "[[tenant]]",
            "[[cgroup]]\nname = \"leaf\"\nparent = \"g\"\n\n[[tenant]]",
        ),
        "management",
    );
}

#[test]
fn type_mismatch_is_rejected_with_line() {
    assert_rejected(
        &BASE.replace("cores = 2", "cores = \"two\""),
        "must be an integer",
    );
}

#[test]
fn syntax_error_is_rejected_with_line() {
    assert_rejected(&BASE.replace("cores = 2", "cores = "), "");
}

#[test]
fn unknown_table_is_rejected() {
    assert_rejected(
        &format!("{BASE}\n[[gpu]]\nmodel = \"x\"\n"),
        "unknown table",
    );
}

#[test]
fn missing_required_key_is_rejected() {
    let src: String = BASE
        .lines()
        .filter(|l| !l.starts_with("knob"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_rejected(&src, "missing required key 'knob'");
}

// ===== Rejection: out-of-range values =====

/// [`BASE`] with its tenant switched to a fio workload plus `extra`
/// lines (the tenant table is last, so they land in it).
fn fio(extra: &str) -> String {
    BASE.replace(
        "workload = \"kv\"",
        &format!("workload = \"fio\"\nrw = \"randread\"\n{extra}"),
    )
}

#[test]
fn zero_iodepth_is_rejected() {
    assert_rejected(
        &fio("iodepth = 0"),
        "'iodepth' must be in 1..=65536 (got 0)",
    );
}

#[test]
fn iodepth_past_the_cap_is_rejected() {
    assert_rejected(&fio("iodepth = 65537"), "'iodepth' must be in 1..=65536");
    assert_rejected(
        &fio("iodepth = 4294967295"),
        "'iodepth' must be in 1..=65536",
    );
    let spec = ScenarioSpec::parse(&fio("iodepth = 65536")).expect("the cap itself is allowed");
    drop(spec.build().build_host(spec.duration));
}

#[test]
fn zero_window_is_rejected_for_every_app_kind() {
    for kind in ["kv", "oltp", "fileserver", "mlscan"] {
        let src = BASE.replace(
            "workload = \"kv\"",
            &format!("workload = \"{kind}\"\nwindow = 0"),
        );
        assert_rejected(&src, "'window' must be in 1..=65536 (got 0)");
    }
}

#[test]
fn zero_block_size_is_rejected() {
    assert_rejected(&fio("block_size = 0"), "'block_size' must be in 1..=");
}

#[test]
fn non_positive_rate_is_rejected() {
    for rate in ["0", "0.0", "-5.0"] {
        assert_rejected(
            &fio(&format!("rate_mib_s = {rate}")),
            "'rate_mib_s' must be in",
        );
    }
}

#[test]
fn degenerate_zipf_theta_is_rejected() {
    let zipf = |theta: &str| {
        fio(&format!("theta = {theta}")).replace("rw = \"randread\"", "rw = \"zipfread\"")
    };
    assert_rejected(&zipf("0.0"), "'theta' must not be 0");
    assert_rejected(&zipf("-1.5"), "'theta' must be in 0..=10");
    assert_rejected(&zipf("1"), "'theta' must not be 1");
    assert!(ScenarioSpec::parse(&zipf("0.99")).is_ok());
}

#[test]
fn overflowing_durations_are_rejected() {
    assert_rejected(
        &BASE.replace("duration_ms = 20", "duration_ms = 18446744073709551"),
        "'duration_ms' must be in 1..=86400000",
    );
    assert_rejected(
        &BASE.replace("duration_ms = 20", "duration_ms = 20\nwarmup_ms = 20"),
        "'warmup_ms' must be in 0..=19",
    );
    assert_rejected(
        &format!("{BASE}think_us = 18446744073709551"),
        "'think_us' must be in",
    );
}

#[test]
fn too_many_cores_is_rejected() {
    assert_rejected(
        &BASE.replace("cores = 2", "cores = 4294967295"),
        "'cores' must be in 1..=65536",
    );
}

#[test]
fn cgroup_names_that_cannot_be_created_are_rejected() {
    for bad in ["", "a/b"] {
        let src = BASE
            .replace("name = \"g\"", &format!("name = \"{bad}\""))
            .replace("cgroup = \"g\"", &format!("cgroup = \"{bad}\""));
        assert_rejected(&src, "'name' must be non-empty and contain no '/'");
    }
}

// ===== Mutation fuzzing: untrusted files never panic =====

/// Replacement values for one `key = value` line: zeros and ones,
/// negative numbers, the caps and one past them, integer extremes,
/// non-finite and fractional floats, awkward strings, and wrong types.
const TOKENS: &[&str] = &[
    "0",
    "1",
    "-1",
    "65536",
    "65537",
    "4294967295",
    "9223372036854775807",
    "1.0",
    "0.0",
    "-0.5",
    "0.5",
    "1e308",
    "1e-300",
    "\"\"",
    "\"a/b\"",
    "\"x\"",
    "\"randrw\"",
    "\"zipfread\"",
    "\"io.cost\"",
    "true",
    "[]",
    "[0, 1]",
];

/// Characters a byte-level edit writes: TOML syntax, digits, letters,
/// whitespace, and multi-byte UTF-8.
const CHARS: &[char] = &[
    '"',
    '=',
    '[',
    ']',
    '#',
    ',',
    '.',
    '-',
    '_',
    '\\',
    '/',
    ' ',
    '\n',
    '0',
    '1',
    '9',
    'e',
    'x',
    'é',
    '\u{1F600}',
];

/// Applies one edit, decoded from `word`, to `src`. The low three bits
/// pick the kind: a token swap on one `key = value` line (half of the
/// edits), or a single-character overwrite, insertion or deletion.
fn mutate(src: &str, word: u64) -> String {
    let at = (word >> 16) as usize;
    let pick = (word >> 3) as usize;
    let mut chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let ch = CHARS[pick % CHARS.len()];
    match word % 8 {
        0..=3 => {
            let lines: Vec<&str> = src.lines().collect();
            let kv: Vec<usize> = (0..lines.len())
                .filter(|&i| lines[i].contains(" = ") && !lines[i].starts_with('#'))
                .collect();
            if kv.is_empty() {
                return src.to_owned();
            }
            let target = kv[at % kv.len()];
            let mut out: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
            let key = lines[target].split(" = ").next().unwrap_or_default();
            out[target] = format!("{key} = {}", TOKENS[pick % TOKENS.len()]);
            return out.join("\n");
        }
        4 | 5 if n > 0 => chars[at % n] = ch,
        6 => chars.insert(at % (n + 1), ch),
        _ if n > 0 => {
            chars.remove(at % n);
        }
        _ => {}
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Parse → build → `build_host` on a mutated committed scenario
    /// either succeeds or returns a line-numbered error; it never panics.
    #[test]
    fn mutated_scenarios_error_instead_of_panicking(
        file in 0usize..64,
        edits in proptest::collection::vec(0u64..=u64::MAX, 1..4),
    ) {
        let scenarios = committed_scenarios();
        let (path, original) = &scenarios[file % scenarios.len()];
        let src = edits.iter().fold(original.clone(), |s, &w| mutate(&s, w));
        let outcome = std::panic::catch_unwind(|| match ScenarioSpec::parse(&src) {
            Ok(spec) => {
                drop(spec.build().build_host(spec.duration));
                None
            }
            Err(e) => Some(e),
        });
        match outcome {
            Err(_) => prop_assert!(false, "{} panicked after edits {edits:?}:\n{src}", path.display()),
            Ok(Some(e)) => prop_assert!(e.line > 0, "error without a line: {e}"),
            Ok(None) => {}
        }
    }
}
