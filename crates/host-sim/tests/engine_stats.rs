//! The run → counter fold behind `host_sim::stats`.
//!
//! The counters are process-global, so this binary holds a single test:
//! no other run can bump them between the snapshots it compares.

use blkio::{AppId, DeviceId};
use cgroup_sim::Hierarchy;
use host_sim::{stats, AppSetup, DeviceSetup, HostConfig, HostSim, JobSpecStopExt};
use simcore::SimTime;
use workload::JobSpec;

const APPS: usize = 3;
const UNTIL: SimTime = SimTime::from_millis(5);

fn small_sim() -> HostSim {
    let mut h = Hierarchy::new();
    let slice = h.create(Hierarchy::ROOT, "bench.slice").unwrap();
    h.enable_io(slice).unwrap();
    let apps = (0..APPS)
        .map(|i| {
            let g = h.create(slice, &format!("app-{i}")).unwrap();
            h.attach_process(g, AppId(i)).unwrap();
            AppSetup::new(
                JobSpec::lc_app(&format!("lc-{i}")).stop_by(UNTIL),
                vec![DeviceId(0)],
            )
        })
        .collect();
    HostSim::build(HostConfig::default(), h, apps, vec![DeviceSetup::flash()])
}

#[test]
fn runs_fold_events_peak_and_tourney_into_the_counters() {
    let s0 = stats::snapshot();
    let _ = small_sim().run(UNTIL);
    let s1 = stats::snapshot();
    stats::reset_peak();
    let _ = small_sim().run(UNTIL);
    let s2 = stats::snapshot();

    let first = s1.events_popped - s0.events_popped;
    let second = s2.events_popped - s1.events_popped;
    assert!(first > 0, "a run popped no events");
    assert_eq!(first, second, "identical runs must add identical deltas");
    assert!(s2.peak_pending >= 1, "peak pending {}", s2.peak_pending);
    assert!(
        s2.tourney_leaves >= APPS as u64,
        "tourney leaves {} < {APPS} apps",
        s2.tourney_leaves
    );
}
