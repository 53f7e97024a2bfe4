//! Fig. 2 — illustrative examples of all cgroups I/O-control knobs.
//!
//! Three identical fio workloads "A", "B", "C" (64 KiB random reads at
//! QD 8, rate-capped to 1.5 GiB/s) run staggered: A over phases 0–5,
//! B over 1–7, C over 2–5 (the paper's 0–50 s / 10–70 s / 20–50 s with
//! 10 s phase units). Eight knob configurations (a–h) show each
//! mechanism's bandwidth-over-time signature.

use std::io;

use blkio::{GroupId, PrioClass};
use cgroup_sim::{DevNode, IoLatency, IoMax, Knob as KnobWrite};
use iostats::Table;
use simcore::{SimDuration, SimTime};
use workload::JobSpec;

use crate::{Cell, CellRows, Fidelity, Knob, OutputSink, RunConfig, Scenario, Staged};

/// One bandwidth-over-time sample row: window start plus the three apps'
/// bandwidth in MiB/s.
#[derive(Debug, Clone, Copy)]
pub struct SeriesRow {
    /// Window start, as a fraction of one phase unit (so `10.0` equals
    /// the paper's 10 s mark regardless of fidelity).
    pub t_phase_units_x10: f64,
    /// App A bandwidth, MiB/s.
    pub a_mib_s: f64,
    /// App B bandwidth, MiB/s.
    pub b_mib_s: f64,
    /// App C bandwidth, MiB/s.
    pub c_mib_s: f64,
}

/// One Fig. 2 panel.
#[derive(Debug)]
pub struct Panel {
    /// Panel tag, `a`–`h`.
    pub tag: char,
    /// Human label, e.g. `"io.cost weights"`.
    pub label: String,
    /// The series.
    pub rows: Vec<SeriesRow>,
}

impl Panel {
    /// Mean bandwidth of one app (0 = A …) over phase units `[from, to)`.
    #[must_use]
    pub fn mean_in_phase(&self, app: usize, from: f64, to: f64) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| {
                let t = r.t_phase_units_x10 / 10.0;
                t >= from && t < to
            })
            .map(|r| match app {
                0 => r.a_mib_s,
                1 => r.b_mib_s,
                _ => r.c_mib_s,
            })
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

/// All eight panels.
#[derive(Debug)]
pub struct Fig2Result {
    /// Panels a–h.
    pub panels: Vec<Panel>,
}

fn workload(name: &str, start_units: u64, stop_units: u64, unit: SimDuration) -> JobSpec {
    JobSpec::builder(name)
        .block_size(64 * 1024)
        .iodepth(8)
        .rate_mib_s(1536.0)
        .start_at(SimTime::ZERO + unit * start_units)
        .stop_at(SimTime::ZERO + unit * stop_units)
        .build()
}

fn base_scenario(tag: char, knob: Knob, unit: SimDuration) -> (Scenario, [GroupId; 3]) {
    let mut s = Scenario::new(&format!("fig2{tag}"), 6, vec![knob.device_setup(false)]);
    s.set_bw_window(unit / 10);
    let a = s.add_cgroup("A");
    let b = s.add_cgroup("B");
    let c = s.add_cgroup("C");
    s.add_app(a, workload("A", 0, 5, unit));
    s.add_app(b, workload("B", 1, 7, unit));
    s.add_app(c, workload("C", 2, 5, unit));
    (s, [a, b, c])
}

/// Wraps one configured panel scenario as a cell. Cell rows: one
/// `[t, a_mib_s, b_mib_s, c_mib_s]` row per unit/10 window (the 100 ms
/// series re-binned).
fn panel_cell(s: Scenario, fidelity: Fidelity, unit: SimDuration) -> Cell {
    let until = SimTime::ZERO + unit * 7;
    Cell::scenario("fig2", fidelity, s, until, move |report| -> CellRows {
        // Re-bin the 100 ms series into unit/10 windows.
        let win = unit / 10;
        let n_windows = (until.as_nanos() / win.as_nanos()) as usize;
        (0..n_windows)
            .map(|w| {
                let from = SimTime::from_nanos(w as u64 * win.as_nanos());
                let to = from + win;
                let m = |i: usize| report.apps[i].series.mean_mib_s(from, to);
                vec![w as f64, m(0), m(1), m(2)]
            })
            .collect()
    })
}

/// Stages all eight panels: one cell per configured panel scenario,
/// a–h in submission order.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn stage(fidelity: Fidelity) -> Staged<Fig2Result> {
    let unit = fidelity.fig2_phase_unit();
    let dev = DevNode::nvme(0);
    let mut keys: Vec<(char, &str)> = Vec::new();
    let mut cells: Vec<Cell> = Vec::new();

    // (a) none.
    keys.push(('a', "none"));
    cells.push({
        let (s, _) = base_scenario('a', Knob::None, unit);
        panel_cell(s, fidelity, unit)
    });

    // (b) MQ-DL + io.prio.class: A=rt, B=be, C=idle.
    keys.push(('b', "MQ-DL prio classes"));
    cells.push({
        let (mut s, [a, b, c]) = base_scenario('b', Knob::MqDlPrio, unit);
        let h = s.hierarchy_mut();
        h.apply(a, KnobWrite::PrioClass(PrioClass::Realtime))
            .expect("prio");
        h.apply(b, KnobWrite::PrioClass(PrioClass::BestEffort))
            .expect("prio");
        h.apply(c, KnobWrite::PrioClass(PrioClass::Idle))
            .expect("prio");
        panel_cell(s, fidelity, unit)
    });

    // (c) BFQ, uniform weights.
    keys.push(('c', "BFQ uniform weights"));
    cells.push({
        let (mut s, [a, b, c]) = base_scenario('c', Knob::BfqWeight, unit);
        Knob::BfqWeight.configure_weights(&mut s, &[a, b, c], &[100, 100, 100]);
        panel_cell(s, fidelity, unit)
    });

    // (d) BFQ, differing weights 4:2:1.
    keys.push(('d', "BFQ weights 4:2:1"));
    cells.push({
        let (mut s, [a, b, c]) = base_scenario('d', Knob::BfqWeight, unit);
        Knob::BfqWeight.configure_weights(&mut s, &[a, b, c], &[400, 200, 100]);
        panel_cell(s, fidelity, unit)
    });

    // (e) io.max: 1 GiB/s read cap per app.
    keys.push(('e', "io.max 1 GiB/s caps"));
    cells.push({
        let (mut s, groups) = base_scenario('e', Knob::IoMax, unit);
        for g in groups {
            let m = IoMax {
                rbps: Some(1 << 30),
                ..IoMax::default()
            };
            s.hierarchy_mut()
                .apply(g, KnobWrite::Max(dev, m))
                .expect("io.max");
        }
        panel_cell(s, fidelity, unit)
    });

    // (f) io.latency: protect A with a tight target (one achievable
    // alone but violated under 3-way contention, as in the paper).
    keys.push(('f', "io.latency protects A"));
    cells.push({
        let (mut s, [a, _, _]) = base_scenario('f', Knob::IoLatency, unit);
        s.hierarchy_mut()
            .apply(a, KnobWrite::Latency(dev, IoLatency { target_us: 130 }))
            .expect("io.latency");
        panel_cell(s, fidelity, unit)
    });

    // (g) io.cost, uniform weights (generated model + P95 100 us QoS).
    keys.push(('g', "io.cost uniform"));
    cells.push({
        let (mut s, [a, b, c]) = base_scenario('g', Knob::IoCost, unit);
        Knob::IoCost.configure_weights(&mut s, &[a, b, c], &[100, 100, 100]);
        panel_cell(s, fidelity, unit)
    });

    // (h) io.cost, weights 16:4:1.
    keys.push(('h', "io.cost weights 16:4:1"));
    cells.push({
        let (mut s, [a, b, c]) = base_scenario('h', Knob::IoCost, unit);
        Knob::IoCost.configure_weights(&mut s, &[a, b, c], &[800, 200, 50]);
        panel_cell(s, fidelity, unit)
    });

    Staged::new("fig2", cells, move |results, sink| {
        let panels: Vec<Panel> = keys
            .iter()
            .zip(results)
            .filter_map(|(&(tag, label), cell)| {
                let cell = cell?;
                Some(Panel {
                    tag,
                    label: label.to_owned(),
                    rows: cell
                        .iter()
                        .map(|r| SeriesRow {
                            t_phase_units_x10: r[0],
                            a_mib_s: r[1],
                            b_mib_s: r[2],
                            c_mib_s: r[3],
                        })
                        .collect(),
                })
            })
            .collect();
        for p in &panels {
            let mut t = Table::new(vec!["t (x phase/10)", "A MiB/s", "B MiB/s", "C MiB/s"]);
            for r in &p.rows {
                t.row(vec![
                    format!("{:.0}", r.t_phase_units_x10),
                    format!("{:.0}", r.a_mib_s),
                    format!("{:.0}", r.b_mib_s),
                    format!("{:.0}", r.c_mib_s),
                ]);
            }
            sink.emit(
                &format!(
                    "fig2{}_{}",
                    p.tag,
                    p.label.replace([' ', ':', '.', '/'], "_")
                ),
                &t,
            )?;
        }
        Ok(Fig2Result { panels })
    })
}

/// Runs all eight panels.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<Fig2Result> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Fig2Result {
        run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("fig2")
    }

    #[test]
    fn produces_eight_panels_with_full_series() {
        let r = result();
        assert_eq!(r.panels.len(), 8);
        let tags: Vec<char> = r.panels.iter().map(|p| p.tag).collect();
        assert_eq!(tags, vec!['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h']);
        for p in &r.panels {
            assert_eq!(p.rows.len(), 70, "panel {} rows", p.tag);
        }
    }

    #[test]
    fn apps_run_in_their_windows_only() {
        let r = result();
        let none = &r.panels[0];
        // A alone in phase 0–1 gets near its 1.5 GiB/s cap.
        let a_alone = none.mean_in_phase(0, 0.2, 1.0);
        assert!((1200.0..1700.0).contains(&a_alone), "A alone {a_alone}");
        // C is silent before phase 2 and after phase 5.
        assert_eq!(none.mean_in_phase(2, 0.0, 2.0), 0.0);
        assert!(none.mean_in_phase(2, 5.2, 7.0) < 1.0);
        // B runs alone after phase 5.
        let b_alone = none.mean_in_phase(1, 5.5, 7.0);
        assert!(b_alone > 1200.0, "B alone at the end {b_alone}");
    }

    #[test]
    fn contention_shares_the_device_without_knobs() {
        let r = result();
        let none = &r.panels[0];
        // Phases 2–5: three apps want 4.5 GiB/s of a ~2.9 GiB/s device.
        let total = none.mean_in_phase(0, 2.5, 5.0)
            + none.mean_in_phase(1, 2.5, 5.0)
            + none.mean_in_phase(2, 2.5, 5.0);
        assert!((2200.0..3200.0).contains(&total), "contended total {total}");
    }

    #[test]
    fn mqdl_starves_idle_class_under_contention() {
        let r = result();
        let mqdl = &r.panels[1];
        let a = mqdl.mean_in_phase(0, 2.5, 5.0); // rt
        let c = mqdl.mean_in_phase(2, 2.5, 5.0); // idle
        assert!(a > 1200.0, "rt app under contention {a}");
        assert!(c < 0.15 * a, "idle app should starve: rt {a} idle {c}");
    }

    #[test]
    fn io_cost_weights_order_bandwidth() {
        let r = result();
        let h = &r.panels[7];
        let a = h.mean_in_phase(0, 2.5, 5.0);
        let b = h.mean_in_phase(1, 2.5, 5.0);
        let c = h.mean_in_phase(2, 2.5, 5.0);
        assert!(a > b && b > c, "weight order violated: {a} {b} {c}");
    }
}
