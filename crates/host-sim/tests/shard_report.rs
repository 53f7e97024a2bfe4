//! Property test for untraced sharded runs: for arbitrary fault plans
//! and app mixes, the report of a run split into independent components
//! on several workers must equal the sequential run's report exactly.

use proptest::prelude::*;

use blkio::{AppId, DeviceId};
use cgroup_sim::Hierarchy;
use host_sim::{AppSetup, DeviceSetup, HostConfig, HostSim, JobSpecStopExt};
use iosched_sim::SchedKind;
use nvme_sim::FaultConfig;
use simcore::{SimDuration, SimTime};
use workload::JobSpec;

const UNTIL_MS: u64 = 8;

/// SplitMix64 finalizer — decorrelates per-field draws from one seed.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One device slot drawn from a seed: profile, scheduler, fault plan,
/// and 1–2 pinned apps (occasionally one spanning to the previous
/// device, which merges their components — the planner must cope).
struct DevMix {
    setup: DeviceSetup,
    apps: Vec<(JobSpec, Vec<usize>)>,
    faulted: bool,
}

fn dev_mix(d: usize, seed: u64) -> DevMix {
    let mut setup = if mix(seed).is_multiple_of(2) {
        DeviceSetup::flash()
    } else {
        DeviceSetup::optane()
    };
    setup = setup.with_scheduler(match mix(seed ^ 1) % 4 {
        0 => SchedKind::None,
        1 => SchedKind::Kyber,
        2 => SchedKind::MqDeadline,
        _ => SchedKind::Bfq,
    });
    let faulted = match mix(seed ^ 2) % 3 {
        0 => false,
        1 => {
            setup.faults = FaultConfig {
                reset_period: Some(SimDuration::from_millis(2 + mix(seed ^ 5) % 4)),
                reset_duration: SimDuration::from_micros(300),
                ..FaultConfig::none()
            };
            true
        }
        _ => {
            setup.faults = FaultConfig {
                reset_period: Some(SimDuration::from_millis(3 + mix(seed ^ 6) % 3)),
                reset_duration: SimDuration::from_micros(200),
                spike_rate: 0.02,
                spike_mult: 5.0,
                stall_rate: 0.005,
                stall: SimDuration::from_micros(400),
                ..FaultConfig::none()
            };
            true
        }
    };
    let n_apps = 1 + (mix(seed ^ 3) % 2) as usize;
    let apps = (0..n_apps)
        .map(|i| {
            let s = mix(seed ^ (10 + i as u64));
            let iodepth = [1u32, 4, 16][(s % 3) as usize];
            let spec = JobSpec::builder(&format!("app-{d}-{i}"))
                .iodepth(iodepth)
                .block_size(4096)
                .build()
                .stop_by(SimTime::from_millis(UNTIL_MS));
            // 1 in 4 second apps also issue to the previous device,
            // coupling the two components into one.
            let devs = if d > 0 && i == 1 && s.is_multiple_of(4) {
                vec![d - 1, d]
            } else {
                vec![d]
            };
            (spec, devs)
        })
        .collect();
    DevMix {
        setup,
        apps,
        faulted,
    }
}

/// Builds the host for one drawn mix (fresh each call: `HostSim::run*`
/// consumes the machine).
fn build(seeds: &[u64]) -> HostSim {
    let mixes: Vec<DevMix> = seeds
        .iter()
        .enumerate()
        .map(|(d, &s)| dev_mix(d, s))
        .collect();
    let mut h = Hierarchy::new();
    let slice = h.create(Hierarchy::ROOT, "prop.slice").unwrap();
    h.enable_io(slice).unwrap();
    let mut apps = Vec::new();
    for mix in &mixes {
        for (spec, devs) in &mix.apps {
            let g = h.create(slice, &format!("g{}", apps.len())).unwrap();
            h.attach_process(g, AppId(apps.len())).unwrap();
            apps.push(AppSetup::new(
                spec.clone(),
                devs.iter().map(|&d| DeviceId(d)).collect(),
            ));
        }
    }
    let devices = mixes.iter().map(|m| m.setup.clone()).collect();
    let mut config = HostConfig::with_cores(apps.len().max(1));
    if mixes.iter().any(|m| m.faulted) {
        config.io_timeout = Some(SimDuration::from_millis(3));
    }
    HostSim::build(config, h, apps, devices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn untraced_reports_match_for_arbitrary_mixes(
        seeds in proptest::collection::vec(0u64..=u64::MAX, 2..5),
    ) {
        let until = SimTime::from_millis(UNTIL_MS);
        let reference = format!("{:?}", build(&seeds).run_sharded(until, 1));
        for shards in [2usize, 3] {
            let got = format!("{:?}", build(&seeds).run_sharded(until, shards));
            prop_assert_eq!(&reference, &got, "report diverged at shards={}", shards);
        }
    }
}
