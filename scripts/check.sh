#!/usr/bin/env bash
# CI gate: formatting, lints, build, and the full test suite.
#
# Run from the repository root:
#
#   ./scripts/check.sh          # everything (what CI runs)
#   ./scripts/check.sh --quick  # fmt + clippy only
#
# The workspace must pass clippy with -D warnings; fix lints rather than
# silencing them (or add a justified #[allow] at the site).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" == "--quick" ]]; then
    echo "OK (quick: fmt + clippy)"
    exit 0
fi

echo "==> no global harness state (crates/core/src must declare no static Atomic*, Mutex or RwLock; run settings travel in RunConfig)"
global_state='\bstatic\s+(mut\s+)?[A-Za-z_][A-Za-z0-9_]*\s*:[^=]*\b(Atomic[A-Za-z0-9]*|Mutex|RwLock)\b'
if grep -rnE "$global_state" crates/core/src; then
    echo "FAIL: process-global state in crates/core/src (pass it in RunConfig or a cell's record instead)"
    exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> QoS release-cache equivalence (cached drain/next_event vs the literal per-pump reference, high case count, release mode)"
cargo test -q --release -p ioqos --lib differential -- --ignored

echo "==> perfbench correctness (its own tests, then each workload untraced and traced at seed 1; every cell must match reference.txt)"
cargo build --release --manifest-path perfbench/Cargo.toml
cargo test --release --manifest-path perfbench/Cargo.toml
# perfbench exits 0 even when cells fail; the verdict is the last stdout line.
# The traced run also requires the traced report to equal the untraced
# one and every cell's trace to pass traceck.
pb_log=$(mktemp)
for w in grid_open fleet_4096 apps_closed; do
    for trace in 0 1; do
        last=$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed 1 --seconds 1 --trace "$trace" 2>"$pb_log" | tail -n 1) \
            || { cat "$pb_log"; echo "FAIL: perfbench $w --trace $trace did not run"; exit 1; }
        [[ "$last" == *'"correct": true'* ]] \
            || { cat "$pb_log"; echo "FAIL: perfbench $w --trace $trace reported failed cells: $last"; exit 1; }
    done
done
rm -f "$pb_log"

echo "==> closed-loop suite (engine conformance + scenario DSL + app_mix determinism)"
cargo test -q -p workload --test closed_loop
cargo test -q -p isol-bench --test scenario_file
cargo test -q -p isol-bench --test app_mix

echo "==> scenario smoke (figures --scenario must run every committed engine kind)"
./target/release/figures --scenario scenarios/app_mix_smoke.toml > /dev/null \
    || { echo "FAIL: scenario smoke run failed"; exit 1; }
if ./target/release/figures --scenario scenarios/does_not_exist.toml > /dev/null 2>&1; then
    echo "FAIL: a missing scenario file must fail the run"; exit 1
fi

echo "==> scenario rejection (iodepth = 0 must exit 1 with a line-numbered error, not a panic)"
bad_scenario=$(mktemp --suffix .toml)
cat > "$bad_scenario" <<'TOML'
name = "bad_iodepth"
cores = 1
duration_ms = 10
knob = "none"

[[device]]
profile = "flash"

[[cgroup]]
name = "g"

[[tenant]]
name = "a"
cgroup = "g"
workload = "fio"
rw = "randread"
iodepth = 0
TOML
status=0
err=$(./target/release/figures --scenario "$bad_scenario" 2>&1 > /dev/null) || status=$?
rm -f "$bad_scenario"
[[ "$status" -eq 1 && "$err" == *"line 17: 'iodepth' must be in"* ]] \
    || { echo "FAIL: iodepth = 0 exited $status: $err"; exit 1; }

echo "==> fault suite (recovery properties + faulted-grid determinism)"
cargo test -q --test fault_recovery
cargo test -q -p isol-bench --test determinism q_faults

echo "==> degraded-harness check (forced cell panic must not abort the run)"
rm -f target/isol-bench/failures.json
./target/release/figures --smoke --faults --inject-panic q_faults-io.cost q_faults \
    > /dev/null
test -f target/isol-bench/failures.json \
    || { echo "FAIL: failures.json was not written"; exit 1; }
grep -q 'q_faults-io.cost' target/isol-bench/failures.json \
    || { echo "FAIL: failures.json does not name the panicked cell"; exit 1; }

echo "==> cell-cache check (cold fig4 CSVs match the goldens; warm rerun must be byte-identical, served from cache)"
rm -rf target/isol-bench/cache
cold_dir=$(mktemp -d)
./target/release/figures --smoke all > /dev/null
# The batch scheduler must reproduce the goldens that pin Staged::run.
for f in fig4_bandwidth_cpu_1ssd.csv fig4_bandwidth_cpu_7ssd.csv; do
    cmp -s "target/isol-bench/$f" "crates/core/tests/golden/$f" \
        || { echo "FAIL: $f differs from crates/core/tests/golden/$f"; exit 1; }
done
cp target/isol-bench/*.csv "$cold_dir"/
./target/release/figures --smoke all > /dev/null
for f in "$cold_dir"/*.csv; do
    cmp -s "$f" "target/isol-bench/$(basename "$f")" \
        || { echo "FAIL: $(basename "$f") differs between cold and warm runs"; exit 1; }
done
hits=$(grep -o '"hits": [0-9]*' target/isol-bench/timings.json | head -1 | grep -o '[0-9]*$')
[[ "${hits:-0}" -gt 0 ]] \
    || { echo "FAIL: warm run reported zero cache hits"; exit 1; }
rm -rf "$cold_dir"

echo "==> trace check (traced smoke run must satisfy every trace invariant)"
rm -rf target/isol-bench/traces
./target/release/figures --smoke --no-cache --trace fig4 > /dev/null
./target/release/traceck

echo "==> fleet_scale check (256-tenant smoke grid matches the golden, byte-identical across --jobs)"
fleet_dir=$(mktemp -d)
./target/release/figures --smoke --no-cache --jobs 1 fleet_scale > /dev/null
cmp -s target/isol-bench/fleet_scale.csv crates/core/tests/golden/fleet_scale.csv \
    || { echo "FAIL: fleet_scale.csv differs from crates/core/tests/golden/fleet_scale.csv"; exit 1; }
cp target/isol-bench/fleet_scale.csv "$fleet_dir"/
./target/release/figures --smoke --no-cache --jobs 4 fleet_scale > /dev/null
cmp -s "$fleet_dir/fleet_scale.csv" target/isol-bench/fleet_scale.csv \
    || { echo "FAIL: fleet_scale.csv differs between --jobs 1 and --jobs 4"; exit 1; }
rm -rf "$fleet_dir"

# Note: perfsnap's cells_per_sec and the PR 9 fig4/q10 per-cell gates
# read timings.json from the most recent figures run, so the fig4+q10
# regeneration must come right before it (the fleet_scale grid above
# has much heavier cells and would skew both).
echo "==> perf snapshot check (>10% regression against BENCH_pr7.json/BENCH_pr9.json fails; includes the 64k-tenant cell budget + >=3x-vs-PR8 gates)"
./target/release/figures --smoke --no-cache fig4 q10 > /dev/null
./target/release/perfsnap --check

echo "==> partial-trace check (a panicked traced cell must still leave a checkable trace)"
rm -rf target/isol-bench/traces
./target/release/figures --smoke --faults --no-cache --trace \
    --inject-panic q_faults-io.cost q_faults > /dev/null
test -s target/isol-bench/traces/q_faults-io.cost.trace.jsonl \
    || { echo "FAIL: panicked cell left no partial trace"; exit 1; }
./target/release/traceck

echo "==> chaos check (SIGKILL mid-run, then the same command must resume from the cell cache, byte-identical)"
chaos_dir=$(mktemp -d)
./target/release/figures --smoke fig4 --no-cache > /dev/null
cp target/isol-bench/fig4*.csv "$chaos_dir"/
rm -rf target/isol-bench/cache
stored_cells() { find target/isol-bench/cache -name '*.cell' 2>/dev/null | wc -l; }
./target/release/figures --smoke fig4 > /dev/null 2>&1 &
victim=$!
for _ in $(seq 1 600); do
    [[ "$(stored_cells)" -ge 3 ]] && break
    kill -0 "$victim" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
stored=$(stored_cells)
./target/release/figures --smoke fig4 > /dev/null
for f in "$chaos_dir"/*.csv; do
    cmp -s "$f" "target/isol-bench/$(basename "$f")" \
        || { echo "FAIL: $(basename "$f") differs after SIGKILL + rerun"; exit 1; }
done
hits=$(grep -o '"hits": [0-9]*' target/isol-bench/timings.json | head -1 | grep -o '[0-9]*$')
[[ "${hits:-0}" -ge 1 && "$hits" -eq "$stored" ]] \
    || { echo "FAIL: rerun served ${hits:-0} cache hits; $stored entries were stored before the kill"; exit 1; }
[[ -z "$(find target/isol-bench/cache -name '*.tmp-*')" ]] \
    || { echo "FAIL: a cache temp file was left behind"; exit 1; }
rm -rf "$chaos_dir"

echo "==> watchdog check (--inject-hang cell must be cancelled within the deadline and recorded once as timed_out; run still exits 0)"
hang_start=$SECONDS
./target/release/figures --smoke fig4 --no-cache --inject-hang fig4-none-1ssd-1 \
    --watchdog-soft-ms 4000 > /dev/null 2>&1 \
    || { echo "FAIL: a hung cell must not fail the run"; exit 1; }
hang_elapsed=$(( SECONDS - hang_start ))
# One 4s soft deadline + the healthy grid: a watchdog-bounded run stays
# far under this; an unbounded hang never returns at all.
[[ "$hang_elapsed" -lt 90 ]] \
    || { echo "FAIL: watchdog did not bound the hung run (${hang_elapsed}s)"; exit 1; }
[[ "$(grep -c '"label": ' target/isol-bench/failures.json)" -eq 1 ]] \
    || { echo "FAIL: failures.json must hold exactly one record"; exit 1; }
grep -q '"label": "fig4-none-1ssd-1", .*"class": "timed_out"' target/isol-bench/failures.json \
    || { echo "FAIL: hung cell was not recorded as timed_out"; exit 1; }

echo "==> removed options (--refresh, --cell-retries) must be rejected"
for opt in --refresh "--cell-retries 1"; do
    # shellcheck disable=SC2086
    if err=$(./target/release/figures --smoke $opt fig4 2>&1 > /dev/null); then
        echo "FAIL: figures $opt must exit 1"; exit 1
    fi
    grep -q "unknown experiment \`${opt%% *}\`" <<< "$err" \
        || { echo "FAIL: figures $opt must name the unknown option"; exit 1; }
done

echo "OK"
