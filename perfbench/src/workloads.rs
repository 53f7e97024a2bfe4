//! The three benchmark workloads and their cells.
//!
//! Every cell is built through the simulator's public entry points
//! (`Scenario` construction, or `ScenarioSpec::{parse, build}` for the
//! scenario-file workload); its only input besides the fixed grid
//! position is the seed handed to `Scenario::set_seed` /
//! `ScenarioSpec.seed`.

use isol_bench::experiments::fleet_scale::fleet_scale_scenario;
use isol_bench::scenario_file::{ScenarioSpec, WorkloadSpec};
use isol_bench::{Fidelity, Knob, Scenario};
use simcore::{SimDuration, SimTime};
use workload::JobSpec;

use crate::layers::Generators;

/// The committed closed-loop application mix the `apps_closed` cells
/// run, with the knob and seed overridden per cell.
pub const APP_MIX_TOML: &str = include_str!("../../scenarios/app_mix.toml");

/// Tenant count of the `fleet_4096` cells.
pub const FLEET_TENANTS: usize = 4096;

/// Seeds per knob in `apps_closed`: one 400 ms app-mix run is too short
/// to time steadily, so each pass repeats it with distinct seeds.
pub const APP_REPLICAS: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 4 overhead grid at smoke length: 6 knobs × {1, 7} SSDs ×
    /// {1, 8} open-loop saturating 4 KiB random-read tenants.
    GridOpen,
    /// `fleet_scale_scenario(knob, 4096)` for every knob.
    Fleet4096,
    /// `scenarios/app_mix.toml` for every knob.
    AppsClosed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::GridOpen,
        Workload::Fleet4096,
        Workload::AppsClosed,
    ];

    /// The command-line name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Workload::GridOpen => "grid_open",
            Workload::Fleet4096 => "fleet_4096",
            Workload::AppsClosed => "apps_closed",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's cells, in run order.
    #[must_use]
    pub fn cells(self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for knob in Knob::ALL {
            match self {
                Workload::GridOpen => {
                    for ssds in [1, 7] {
                        for apps in Fidelity::Smoke.fig4_app_counts() {
                            out.push(CellSpec {
                                knob,
                                kind: CellKind::Grid { ssds, apps },
                            });
                        }
                    }
                }
                Workload::Fleet4096 => out.push(CellSpec {
                    knob,
                    kind: CellKind::Fleet,
                }),
                Workload::AppsClosed => {
                    for replica in 0..APP_REPLICAS {
                        out.push(CellSpec {
                            knob,
                            kind: CellKind::Apps { replica },
                        });
                    }
                }
            }
        }
        out
    }
}

/// What a cell simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// One Fig. 4 point.
    Grid {
        /// SSD count.
        ssds: usize,
        /// Open-loop batch tenants.
        apps: usize,
    },
    /// One 4096-tenant fleet.
    Fleet,
    /// The app-mix scenario file, one of [`APP_REPLICAS`] seeds.
    Apps {
        /// Replica index.
        replica: usize,
    },
}

/// One cell: a knob at a grid position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    /// The knob under test.
    pub knob: Knob,
    /// The grid position.
    pub kind: CellKind,
}

impl CellSpec {
    /// A stable label, the key of the cell's reference digest.
    #[must_use]
    pub fn label(&self) -> String {
        match self.kind {
            CellKind::Grid { ssds, apps } => {
                format!("grid-{}-{}ssd-{}", self.knob.label(), ssds, apps)
            }
            CellKind::Fleet => format!("fleet-{}-{}", self.knob.label(), FLEET_TENANTS),
            CellKind::Apps { replica } => format!("apps-{}-r{replica}", self.knob.label()),
        }
    }

    /// Constructs the cell's scenario for `seed` and the simulated time
    /// it runs until. This is all of the cell's scenario set-up: cgroup
    /// tree, knob writes, tenants and, for scenario-file cells, the TOML
    /// parse and build.
    #[must_use]
    pub fn scenario(&self, seed: u64) -> (Scenario, SimTime) {
        let knob = self.knob;
        match self.kind {
            CellKind::Grid { ssds, apps } => {
                let devices = (0..ssds).map(|_| knob.device_setup(true)).collect();
                let mut s = Scenario::new(&self.label(), 10, devices);
                s.set_seed(seed);
                s.set_warmup(Fidelity::Smoke.warmup());
                let groups: Vec<_> = (0..apps)
                    .map(|i| s.add_cgroup(&format!("batch-{i}")))
                    .collect();
                for (i, &g) in groups.iter().enumerate() {
                    s.add_app(g, JobSpec::batch_app(&format!("b-{i}")));
                }
                knob.configure_overhead_mode(&mut s, &groups);
                (s, Fidelity::Smoke.run_duration())
            }
            CellKind::Fleet => {
                let (mut s, _, _) = fleet_scale_scenario(knob, FLEET_TENANTS);
                s.set_seed(seed);
                (s, Fidelity::Smoke.fleet_scale_duration())
            }
            CellKind::Apps { .. } => {
                let mut spec = app_mix_spec();
                spec.knob = knob;
                spec.seed = Some(seed);
                let until = spec.duration;
                (spec.build(), until)
            }
        }
    }
}

/// The committed app-mix scenario, parsed.
///
/// # Panics
///
/// Panics if the committed file no longer parses.
#[must_use]
pub fn app_mix_spec() -> ScenarioSpec {
    ScenarioSpec::parse(APP_MIX_TOML).expect("committed scenario parses")
}

impl CellSpec {
    /// The tenants' request generators, in app order.
    #[must_use]
    pub fn generators(&self) -> Generators {
        match self.kind {
            CellKind::Grid { apps, .. } => Generators::Open(vec![JobSpec::batch_app("b"); apps]),
            CellKind::Fleet => Generators::Open(vec![
                JobSpec::builder("tenant")
                    .iodepth(2)
                    .block_size(4096)
                    .build();
                FLEET_TENANTS
            ]),
            CellKind::Apps { .. } => Generators::Closed(
                app_mix_spec()
                    .tenants
                    .into_iter()
                    .map(|t| match t.workload {
                        WorkloadSpec::App(m) => m,
                        WorkloadSpec::Fio { .. } => unreachable!("app_mix tenants are app models"),
                    })
                    .collect(),
            ),
        }
    }

    /// The scenario's bandwidth-series window.
    #[must_use]
    pub fn bw_window(&self) -> SimDuration {
        match self.kind {
            CellKind::Fleet => SimDuration::from_millis(10),
            _ => SimDuration::from_millis(100),
        }
    }
}

/// The seed of cell `index` in a run with benchmark seed `seed`
/// (SplitMix64 of the pair), so cells of one run draw distinct streams.
#[must_use]
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
