//! Application-mix isolation: closed-loop services instead of fio
//! streams — do the knob verdicts transfer from open-loop microbenchmarks
//! to applications whose arrival process *reacts* to the I/O stack?
//!
//! The paper's grids drive every cgroup with fixed-rate or
//! queue-depth-N fio loops. Real tenants are closed-loop: a KV store
//! only issues its next request once the previous one returned (plus
//! think time), so induced latency feeds back into offered load. That
//! feedback changes what a knob can do — throttling a closed-loop
//! competitor shrinks its arrival rate by itself, while an open-loop
//! competitor keeps hammering the queue.
//!
//! This study runs the prioritization probe with application models: a
//! latency-critical YCSB-like KV tenant (prioritized) against a
//! best-effort ML-ingest scanner (large sequential reads + periodic
//! checkpoint write barriers) on one flash SSD, for every knob. Rows
//! report the KV tenant's tail latency and throughput next to the
//! scanner's bandwidth, so the priority/utilization trade-off of Fig. 7
//! can be read for closed-loop tenants.
//!
//! Opt-in like `q_faults`/`fleet_scale`: `figures app_mix`. The richer
//! four-engine mix (adding OLTP and file-server tenants) lives in the
//! committed `scenarios/app_mix.toml` scenario file.

use std::io;

use iostats::Table;
use simcore::SimTime;
use workload::{AppModelSpec, JobSpec, KvConfig, MlIngestConfig};

use crate::{Cell, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// The cell label the runner reports on a panic (`app_mix-<knob>`) —
/// also the target for `figures --inject-panic`.
#[must_use]
pub fn cell_label(knob: Knob) -> String {
    format!("app_mix-{}", knob.label())
}

/// One knob's closed-loop outcome.
#[derive(Debug, Clone, Copy)]
pub struct AppMixRow {
    /// The knob under test.
    pub knob: Knob,
    /// KV tenant P99 end-to-end latency, microseconds.
    pub kv_p99_us: f64,
    /// KV tenant throughput, MiB/s.
    pub kv_mib_s: f64,
    /// KV operations completed in the measured window.
    pub kv_ops: u64,
    /// ML-ingest scanner bandwidth, MiB/s.
    pub scan_mib_s: f64,
    /// Scanner operations completed in the measured window.
    pub scan_ops: u64,
}

/// The application-mix study.
#[derive(Debug)]
pub struct AppMixResult {
    /// One row per knob, in [`Knob::ALL`] order (panicked cells omitted).
    pub rows: Vec<AppMixRow>,
}

impl AppMixResult {
    /// Looks up one knob's row.
    #[must_use]
    pub fn row(&self, knob: Knob) -> Option<&AppMixRow> {
        self.rows.iter().find(|r| r.knob == knob)
    }
}

/// Builds one knob's cell: prioritized closed-loop KV vs best-effort
/// closed-loop ML-ingest on one flash SSD. Cell rows:
/// `[[kv_p99_us, kv_mib_s, kv_ops, scan_mib_s, scan_ops]]`.
fn probe_cell(knob: Knob, fidelity: Fidelity) -> Cell {
    let mut s = Scenario::new(&cell_label(knob), 4, vec![knob.device_setup(false)]);
    // Warm-up must leave most of the (short) app_mix window measurable.
    let quarter = SimTime::from_nanos(fidelity.app_mix_duration().as_nanos() / 4);
    s.set_warmup(fidelity.warmup().min(quarter));
    let prio = s.add_cgroup("prio");
    let be = s.add_cgroup("be");
    crate::knob::configure_priority(knob, &mut s, prio, be, Knob::fairness_qos());
    let kv = AppModelSpec::Kv(KvConfig::default());
    s.add_app_model_on(
        prio,
        JobSpec::builder("kv").iodepth(kv.window()).build(),
        kv,
        Vec::new(),
    );
    let scan = AppModelSpec::MlIngest(MlIngestConfig::default());
    s.add_app_model_on(
        be,
        JobSpec::builder("scan").iodepth(scan.window()).build(),
        scan,
        Vec::new(),
    );
    Cell::scenario(
        "app_mix",
        fidelity,
        s,
        fidelity.app_mix_duration(),
        move |report| {
            let kv = &report.apps[0];
            let scan = &report.apps[1];
            vec![vec![
                kv.latency.p99_us,
                kv.mean_mib_s,
                kv.completed as f64,
                scan.mean_mib_s,
                scan.completed as f64,
            ]]
        },
    )
}

/// Stages the application-mix study: one cell per knob.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<AppMixResult> {
    let keys: Vec<Knob> = Knob::ALL.to_vec();
    let cells = keys
        .iter()
        .map(|&knob| probe_cell(knob, fidelity))
        .collect();
    Staged::new("app_mix", cells, move |results, sink| {
        let rows: Vec<AppMixRow> = keys
            .iter()
            .zip(results)
            .filter_map(|(&knob, cell)| {
                let cell = cell?;
                let v = &cell[0];
                Some(AppMixRow {
                    knob,
                    kv_p99_us: v[0],
                    kv_mib_s: v[1],
                    kv_ops: v[2] as u64,
                    scan_mib_s: v[3],
                    scan_ops: v[4] as u64,
                })
            })
            .collect();
        emit_table(&rows, sink)?;
        Ok(AppMixResult { rows })
    })
}

fn emit_table(rows: &[AppMixRow], sink: &mut OutputSink) -> io::Result<()> {
    let mut t = Table::new(vec![
        "knob",
        "KV P99 (us)",
        "KV MiB/s",
        "KV ops",
        "scan MiB/s",
        "scan ops",
    ]);
    for r in rows {
        t.row(vec![
            r.knob.label().to_owned(),
            format!("{:.1}", r.kv_p99_us),
            format!("{:.1}", r.kv_mib_s),
            r.kv_ops.to_string(),
            format!("{:.1}", r.scan_mib_s),
            r.scan_ops.to_string(),
        ]);
    }
    sink.emit("app_mix", &t)?;
    sink.note(
        "(closed-loop tenants: the KV store and the scanner only issue \
         after completions return, so induced latency feeds back into \
         offered load — compare with the open-loop Fig. 7 trade-off)",
    );
    Ok(())
}

/// Runs the application-mix study across all knobs.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<AppMixResult> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_mix_runs_for_every_knob() {
        let r = run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("app_mix");
        assert_eq!(r.rows.len(), Knob::ALL.len());
        for row in &r.rows {
            assert!(row.kv_ops > 0, "{}: kv made progress", row.knob);
            assert!(row.scan_ops > 0, "{}: scan made progress", row.knob);
            assert!(row.kv_p99_us > 0.0, "{}: kv latency measured", row.knob);
            assert!(row.scan_mib_s > 0.0, "{}: scan moved bytes", row.knob);
        }
        // The scanner moves 1 MiB reads against the KV store's 4 KiB
        // ops: its bandwidth should dominate in every configuration.
        let none = r.row(Knob::None).expect("baseline row");
        assert!(none.scan_mib_s > none.kv_mib_s);
    }
}
