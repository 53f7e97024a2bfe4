//! Throwaway profiling harness: times fleet_scale cells directly.
//!
//! ```text
//! prof_fleet [tenants] [reps] [knob-label]
//! SUBSYS=1 prof_fleet 4096        # with per-subsystem attribution
//! ```
use std::time::Instant;

use isol_bench::experiments::fleet_scale;
use isol_bench::{Fidelity, Knob};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tenants: usize = args.get(1).map_or(4096, |s| s.parse().unwrap());
    let reps: usize = args.get(2).map_or(1, |s| s.parse().unwrap());
    let knob = args.get(3).map_or(Knob::None, |s| {
        *Knob::ALL
            .iter()
            .find(|k| k.label() == s)
            .expect("knob label")
    });
    host_sim::stats::set_subsystem_timing(std::env::var("SUBSYS").is_ok());
    let until = Fidelity::Smoke.fleet_scale_duration();
    for _ in 0..reps {
        let before = host_sim::stats::snapshot();
        let t = Instant::now();
        let (s, _, _) = fleet_scale::fleet_scale_scenario(knob, tenants);
        let scen = t.elapsed();
        let t1 = Instant::now();
        let sim = s.build_host(until);
        let built = t1.elapsed();
        let t2 = Instant::now();
        let r = sim.run(until);
        let ran = t2.elapsed();
        let after = host_sim::stats::snapshot();
        let events = after.events_popped - before.events_popped;
        let completed: u64 = r.apps.iter().map(|a| a.completed).sum();
        println!(
            "tenants={tenants} scen={:.1}ms build={:.1}ms run={:.1}ms events={events} ({:.2} Mev/s) ios={completed} peak={} hwm={}/{}",
            scen.as_secs_f64() * 1e3,
            built.as_secs_f64() * 1e3,
            ran.as_secs_f64() * 1e3,
            events as f64 / ran.as_secs_f64() / 1e6,
            after.peak_pending,
            after.tourney_active_hwm,
            after.tourney_leaves,
        );
        for (name, (ns, n)) in host_sim::stats::SUBSYS_NAMES
            .iter()
            .zip(host_sim::stats::subsys_snapshot())
        {
            if n > 0 {
                println!(
                    "  {name:>11}: {:>8.1}ms over {n:>8} calls ({:.0} ns/call)",
                    ns as f64 / 1e6,
                    ns as f64 / n as f64
                );
            }
        }
    }
}
