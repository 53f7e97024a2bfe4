//! Optane generalizability — §III: "to confirm generalizability we
//! repeat our experiments on Intel Optane SSDs".
//!
//! The Optane profile has a different performance model (≈10 µs command
//! latency, symmetric read/write bandwidth, no garbage collection), so
//! results that depend on flash idiosyncrasies must change while the
//! isolation conclusions must hold:
//!
//! * weighted fairness still works for weight knobs,
//! * mixed read/write stays fair *without* GC collapse (no flash),
//! * io.cost still trades priority for utilization (with an
//!   Optane-generated model, as O9 notes the trade-offs differ),
//! * the QD-1 latency floor drops by ~7× versus flash.

use std::io;

use iostats::{jain_index, Table};
use workload::{JobSpec, RwKind};

use crate::{cgroup_bandwidths, Cell, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// One Optane-vs-flash comparison row.
#[derive(Debug, Clone)]
pub struct OptaneRow {
    /// Which probe.
    pub probe: String,
    /// The knob under test.
    pub knob: Knob,
    /// Value measured on the flash profile.
    pub flash: f64,
    /// Value measured on the Optane profile.
    pub optane: f64,
}

/// The generalizability dataset.
#[derive(Debug)]
pub struct OptaneResult {
    /// All probes.
    pub rows: Vec<OptaneRow>,
}

impl OptaneResult {
    /// Looks up a probe.
    #[must_use]
    pub fn row(&self, probe: &str, knob: Knob) -> Option<&OptaneRow> {
        self.rows
            .iter()
            .find(|r| r.probe == probe && r.knob == knob)
    }
}

fn profile_label(optane: bool) -> &'static str {
    if optane {
        "optane"
    } else {
        "flash"
    }
}

/// QD-1 latency probe: cell rows `[[p99_us]]`.
fn lc_p99_cell(knob: Knob, optane: bool, fidelity: Fidelity) -> Cell {
    let device = if optane {
        knob.device_setup_optane()
    } else {
        knob.device_setup(true)
    };
    let mut s = Scenario::new(
        &format!("optane-lat-{}-{}", knob.label(), profile_label(optane)),
        1,
        vec![device],
    );
    s.set_warmup(fidelity.warmup());
    let g = s.add_cgroup("lc");
    s.add_app(g, JobSpec::lc_app("lc"));
    knob.configure_overhead_mode(&mut s, &[g]);
    Cell::scenario("optane", fidelity, s, fidelity.short_run(), |r| {
        vec![vec![r.apps[0].latency.p99_us]]
    })
}

/// Weighted-fairness probe: cell rows `[[weighted_jain]]`.
fn weighted_fairness_cell(knob: Knob, optane: bool, fidelity: Fidelity) -> Cell {
    let device = if optane {
        knob.device_setup_optane()
    } else {
        knob.device_setup(false)
    };
    let mut s = Scenario::new(
        &format!("optane-fair-{}-{}", knob.label(), profile_label(optane)),
        10,
        vec![device],
    );
    s.set_warmup(fidelity.warmup());
    let a = s.add_cgroup("a");
    let b = s.add_cgroup("b");
    for j in 0..4 {
        s.add_app(a, JobSpec::batch_app(&format!("a{j}")));
        s.add_app(b, JobSpec::batch_app(&format!("b{j}")));
    }
    knob.configure_weights(&mut s, &[a, b], &[200, 100]);
    let groups = s.app_groups().to_vec();
    Cell::scenario("optane", fidelity, s, fidelity.run_duration(), move |r| {
        let bws = cgroup_bandwidths(&r, &groups, &[a, b]);
        vec![vec![iostats::weighted_jain_index(&[
            (bws[0], 200.0),
            (bws[1], 100.0),
        ])]]
    })
}

/// Mixed read/write fairness probe: cell rows `[[jain]]`.
fn readwrite_fairness_cell(knob: Knob, optane: bool, fidelity: Fidelity) -> Cell {
    let device = if optane {
        knob.device_setup_optane().preconditioned(1.0)
    } else {
        knob.device_setup(false).preconditioned(1.0)
    };
    let mut s = Scenario::new(
        &format!("optane-rw-{}-{}", knob.label(), profile_label(optane)),
        10,
        vec![device],
    );
    s.set_warmup(fidelity.warmup());
    let readers = s.add_cgroup("readers");
    let writers = s.add_cgroup("writers");
    for j in 0..4 {
        s.add_app(readers, JobSpec::batch_app(&format!("r{j}")));
        s.add_app(
            writers,
            JobSpec::builder(&format!("w{j}"))
                .rw(RwKind::RandWrite)
                .iodepth(256)
                .build(),
        );
    }
    knob.configure_weights(&mut s, &[readers, writers], &[100, 100]);
    let groups = s.app_groups().to_vec();
    Cell::scenario("optane", fidelity, s, fidelity.run_duration(), move |r| {
        let bws = cgroup_bandwidths(&r, &groups, &[readers, writers]);
        vec![vec![jain_index(&bws)]]
    })
}

/// Stages the generalizability probes on both device profiles. Every
/// probe×profile measurement is an independent cell (flash and Optane
/// interleaved per row); finish pairs them back up in submission order.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<OptaneResult> {
    let mut keys: Vec<(&'static str, Knob)> = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();
    let mut push = |probe: &'static str, knob: Knob, f: fn(Knob, bool, Fidelity) -> Cell| {
        keys.push((probe, knob));
        cells.push(f(knob, false, fidelity));
        cells.push(f(knob, true, fidelity));
    };
    for knob in [Knob::None, Knob::IoCost] {
        push("lc_p99_us", knob, lc_p99_cell);
    }
    for knob in [Knob::IoCost, Knob::IoMax, Knob::BfqWeight] {
        push("weighted_jain", knob, weighted_fairness_cell);
    }
    for knob in [Knob::None, Knob::IoCost] {
        push("readwrite_jain", knob, readwrite_fairness_cell);
    }
    Staged::new("optane", cells, move |results, sink| {
        let rows: Vec<OptaneRow> = keys
            .iter()
            .zip(results.chunks(2))
            .filter_map(|(&(probe, knob), pair)| {
                // Both halves of a flash/Optane pair must have survived.
                let flash = pair[0].as_ref()?;
                let optane = pair[1].as_ref()?;
                Some(OptaneRow {
                    probe: probe.into(),
                    knob,
                    flash: flash[0][0],
                    optane: optane[0][0],
                })
            })
            .collect();
        let mut t = Table::new(vec!["probe", "knob", "flash", "optane"]);
        for r in &rows {
            t.row(vec![
                r.probe.clone(),
                r.knob.label().to_owned(),
                format!("{:.3}", r.flash),
                format!("{:.3}", r.optane),
            ]);
        }
        sink.emit("optane_generalizability", &t)?;
        Ok(OptaneResult { rows })
    })
}

/// Runs the generalizability probes on both device profiles.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<OptaneResult> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> OptaneResult {
        run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("optane")
    }

    #[test]
    fn optane_latency_floor_is_far_lower() {
        let r = result();
        let row = r.row("lc_p99_us", Knob::None).unwrap();
        assert!(
            row.optane < 0.4 * row.flash,
            "optane P99 {} vs flash {}",
            row.optane,
            row.flash
        );
        assert!(
            (8.0..40.0).contains(&row.optane),
            "optane P99 {}",
            row.optane
        );
    }

    #[test]
    fn weighted_fairness_generalizes() {
        let r = result();
        for knob in [Knob::IoCost, Knob::IoMax] {
            let row = r.row("weighted_jain", knob).unwrap();
            assert!(
                row.optane > 0.8,
                "{knob} optane weighted jain {}",
                row.optane
            );
        }
    }

    #[test]
    fn no_gc_collapse_on_optane_mixed_rw() {
        let r = result();
        let none = r.row("readwrite_jain", Knob::None).unwrap();
        // Symmetric medium: mixed read/write stays fair without the
        // flash GC asymmetry.
        assert!(none.optane > 0.8, "optane rw jain {}", none.optane);
    }
}
