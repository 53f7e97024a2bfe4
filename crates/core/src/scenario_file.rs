//! Declarative TOML scenario files: devices, cgroup hierarchy, knob
//! config, and per-tenant workloads as data.
//!
//! The nine hard-coded experiments cover the paper's grids; this module
//! opens the scenario space to anything expressible as a file, loaded
//! via `figures --scenario foo.toml` (committed examples live in
//! `scenarios/`). The schema:
//!
//! ```toml
//! name = "app_mix"          # scenario / output name
//! cores = 4                 # CPU cores
//! duration_ms = 400         # simulated run length
//! warmup_ms = 30            # excluded from measurement (default 0)
//! seed = 7                  # optional RNG seed
//! knob = "io.cost"          # none | MQ-DL | BFQ | io.max | io.latency | io.cost
//!
//! [[device]]
//! profile = "flash"         # flash | optane
//!
//! [[cgroup]]
//! name = "prio"
//! weight = 800              # abstract weight (default 100); the knob
//!                           # translates it into its own vocabulary
//! # parent = "dept-a"       # optional: nest under another [[cgroup]]
//!
//! [[tenant]]
//! name = "kv"
//! cgroup = "prio"
//! devices = [0]             # device indices (omit for "all")
//! workload = "kv"           # kv | oltp | fileserver | mlscan | fio
//! window = 16               # closed-loop knobs (per-kind keys below)
//! ```
//!
//! Workload vocabularies — `fio` (open-loop): `rw` (`randread`, `read`,
//! `randwrite`, `write`, `randrw` + `read_frac`, `zipfread` + `theta`),
//! `block_size`, `iodepth`, `rate_mib_s`; `kv`: `window`,
//! `read_fraction`, `theta`, `value_size`, `think_us`; `oltp`:
//! `window`, `reads_per_txn`, `read_size`, `log_write_size`,
//! `think_us`; `fileserver`: `window`, `files`, `append_size`,
//! `think_us`; `mlscan`: `window`, `read_size`, `checkpoint_every`,
//! `checkpoint_size`, `checkpoint_writes`.
//!
//! Every malformed construct — unknown key, unknown knob, dangling
//! cgroup parent, zero devices, a value out of range — fails with a
//! line-numbered [`DslError`], never a panic. The ranges: `cores`,
//! `iodepth`, `window`, `files` and `reads_per_txn` lie in
//! `1..=`[`MAX_COUNT`] (65 536), so a file cannot queue unbounded work;
//! `duration_ms` lies in `1..=`[`MAX_DURATION_MS`] (one simulated day)
//! and `warmup_ms` below it; `think_us` is at most one day too; byte
//! sizes and weights are positive; `rate_mib_s` lies in
//! `0.001..=1e9`; `read_frac` and `read_fraction` in `0..=1`; `theta`
//! in `0..=10`, and neither 0 nor 1 for `zipfread`; and scenario and cgroup
//! names are non-empty and contain no `/`. [`ScenarioSpec::to_toml`]
//! re-serializes a parsed spec such that re-parsing yields an equal
//! spec (the round-trip conformance tests pin both properties).

use std::collections::HashSet;
use std::fmt;
use std::io;
use std::path::Path;

use blkio::DeviceId;
use host_sim::RunReport;
use iostats::Table;
use simcore::{SimDuration, SimTime};
use workload::dsl::{Doc, DslError, Entry, Table as DslTable, Value};
use workload::{
    AppModelSpec, FileServerConfig, JobSpec, KvConfig, MlIngestConfig, OltpConfig, RwKind,
};

use crate::{Knob, OutputSink, Scenario};

/// Upper bound on `cores`, `iodepth`, `window`, `files` and
/// `reads_per_txn`: each sizes per-run state or queued work, so an
/// unbounded value could exhaust memory before the run starts.
pub const MAX_COUNT: u32 = 65_536;

/// Upper bound on `duration_ms` (one simulated day), which keeps every
/// simulated instant far from `u64` nanosecond overflow.
pub const MAX_DURATION_MS: u64 = 86_400_000;

/// Device profile vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileKind {
    /// The paper's flash SSD (Samsung PM9A3-like).
    Flash,
    /// The Optane 900P-like generalizability device.
    Optane,
}

impl ProfileKind {
    fn parse(s: &str, line: u32) -> Result<Self, DslError> {
        match s {
            "flash" => Ok(ProfileKind::Flash),
            "optane" => Ok(ProfileKind::Optane),
            other => Err(DslError::at(
                line,
                format!("unknown device profile '{other}' (expected flash or optane)"),
            )),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            ProfileKind::Flash => "flash",
            ProfileKind::Optane => "optane",
        }
    }
}

/// One `[[device]]` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Which performance profile to instantiate.
    pub profile: ProfileKind,
}

/// One `[[cgroup]]` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CgroupSpec {
    /// Cgroup name (unique).
    pub name: String,
    /// Optional parent cgroup (must be declared earlier in the file);
    /// absent means directly under the managed slice.
    pub parent: Option<String>,
    /// Abstract weight the knob translates into its own vocabulary.
    pub weight: u32,
}

/// A tenant's workload: open-loop fio-style or a closed-loop app model.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Open-loop fio-style stream.
    Fio {
        /// Operation mix.
        rw: RwKind,
        /// Block size in bytes.
        block_size: u32,
        /// Queue depth.
        iodepth: u32,
        /// Optional bandwidth cap.
        rate_mib_s: Option<f64>,
    },
    /// Closed-loop application model.
    App(AppModelSpec),
}

/// One `[[tenant]]` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant / app name.
    pub name: String,
    /// The leaf cgroup it runs in.
    pub cgroup: String,
    /// Device indices it issues to (empty = all devices).
    pub devices: Vec<usize>,
    /// What it runs.
    pub workload: WorkloadSpec,
}

/// A fully parsed scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (also the output table name).
    pub name: String,
    /// Optional RNG seed override.
    pub seed: Option<u64>,
    /// CPU cores.
    pub cores: usize,
    /// Simulated run length.
    pub duration: SimTime,
    /// Warm-up excluded from measurement.
    pub warmup: SimTime,
    /// The I/O-control knob wired across all cgroups.
    pub knob: Knob,
    /// Devices, in index order.
    pub devices: Vec<DeviceSpec>,
    /// Cgroups, in declaration order (parents before children).
    pub cgroups: Vec<CgroupSpec>,
    /// Tenants, in declaration order.
    pub tenants: Vec<TenantSpec>,
}

fn parse_knob(s: &str, line: u32) -> Result<Knob, DslError> {
    Knob::ALL
        .into_iter()
        .find(|k| k.label() == s)
        .ok_or_else(|| {
            let expected: Vec<&str> = Knob::ALL.iter().map(|k| k.label()).collect();
            DslError::at(
                line,
                format!(
                    "unknown knob '{s}' (expected one of: {})",
                    expected.join(", ")
                ),
            )
        })
}

/// Strict key check: every entry must be in `allowed`.
fn check_keys(table: &DslTable, allowed: &[&str]) -> Result<(), DslError> {
    for e in &table.entries {
        if !allowed.contains(&e.key.as_str()) {
            return Err(DslError::at(
                e.line,
                format!(
                    "unknown key '{}' (expected one of: {})",
                    e.key,
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn require<'a>(table: &'a DslTable, key: &str, what: &str) -> Result<&'a Entry, DslError> {
    table.get(key).ok_or_else(|| {
        DslError::at(
            table.line.max(1),
            format!("{what} is missing required key '{key}'"),
        )
    })
}

/// Reads `e` as an integer in `lo..=hi`.
fn int_in(e: &Entry, lo: u64, hi: u64) -> Result<u64, DslError> {
    let v = e.as_u64()?;
    if (lo..=hi).contains(&v) {
        Ok(v)
    } else {
        Err(DslError::at(
            e.line,
            format!("'{}' must be in {lo}..={hi} (got {v})", e.key),
        ))
    }
}

/// An optional integer key in `lo..=hi`; `default` when absent.
fn get_u32(table: &DslTable, key: &str, default: u32, lo: u32, hi: u32) -> Result<u32, DslError> {
    match table.get(key) {
        Some(e) => Ok(int_in(e, lo.into(), hi.into())? as u32),
        None => Ok(default),
    }
}

/// A count key (queue depth, window, population) in `1..=MAX_COUNT`.
fn get_count(table: &DslTable, key: &str, default: u32) -> Result<u32, DslError> {
    get_u32(table, key, default, 1, MAX_COUNT)
}

/// A byte-size key: any positive `u32`.
fn get_size(table: &DslTable, key: &str, default: u32) -> Result<u32, DslError> {
    get_u32(table, key, default, 1, u32::MAX)
}

/// An optional number key in `lo..=hi` (NaN is out of every range);
/// `default` when absent.
fn get_f64(table: &DslTable, key: &str, default: f64, lo: f64, hi: f64) -> Result<f64, DslError> {
    let Some(e) = table.get(key) else {
        return Ok(default);
    };
    let v = e.as_f64()?;
    if (lo..=hi).contains(&v) {
        Ok(v)
    } else {
        Err(DslError::at(
            e.line,
            format!("'{key}' must be in {lo}..={hi} (got {v:?})"),
        ))
    }
}

/// A `name` entry usable as a cgroup or output-file name: non-empty,
/// with no `/` or NUL.
fn get_name(e: &Entry) -> Result<String, DslError> {
    let name = e.as_str()?;
    if name.is_empty() || name.contains(['/', '\0']) {
        return Err(DslError::at(
            e.line,
            format!(
                "'{}' must be non-empty and contain no '/' (got {name:?})",
                e.key
            ),
        ));
    }
    Ok(name.to_owned())
}

fn parse_workload(t: &DslTable, common: &[&str]) -> Result<WorkloadSpec, DslError> {
    let kind_entry = require(t, "workload", "[[tenant]]")?;
    let kind = kind_entry.as_str()?;
    fn with<'a>(common: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        let mut v: Vec<&str> = common.to_vec();
        v.push("workload");
        v.extend_from_slice(extra);
        v
    }
    match kind {
        "fio" => {
            check_keys(
                t,
                &with(
                    common,
                    &[
                        "rw",
                        "read_frac",
                        "theta",
                        "block_size",
                        "iodepth",
                        "rate_mib_s",
                    ],
                ),
            )?;
            let rw_entry = require(t, "rw", "fio tenant")?;
            let rw = match rw_entry.as_str()? {
                "randread" => RwKind::RandRead,
                "read" | "seqread" => RwKind::SeqRead,
                "randwrite" => RwKind::RandWrite,
                "write" | "seqwrite" => RwKind::SeqWrite,
                "randrw" => RwKind::RandRw {
                    read_frac: get_f64(t, "read_frac", 0.5, 0.0, 1.0)?,
                },
                "zipfread" => {
                    let theta = get_f64(t, "theta", 1.1, 0.0, 10.0)?;
                    if theta == 0.0 || theta == 1.0 {
                        let line = t.get("theta").map_or(rw_entry.line, |e| e.line);
                        return Err(DslError::at(
                            line,
                            format!("'theta' must not be {theta} for zipfread"),
                        ));
                    }
                    RwKind::ZipfRead { theta }
                }
                other => {
                    return Err(DslError::at(
                        rw_entry.line,
                        format!("unknown rw mix '{other}'"),
                    ));
                }
            };
            let rate = match t.get("rate_mib_s") {
                Some(_) => Some(get_f64(t, "rate_mib_s", 0.0, 1e-3, 1e9)?),
                None => None,
            };
            Ok(WorkloadSpec::Fio {
                rw,
                block_size: get_size(t, "block_size", 4096)?,
                iodepth: get_count(t, "iodepth", 16)?,
                rate_mib_s: rate,
            })
        }
        "kv" => {
            check_keys(
                t,
                &with(
                    common,
                    &["window", "read_fraction", "theta", "value_size", "think_us"],
                ),
            )?;
            let d = KvConfig::default();
            Ok(WorkloadSpec::App(AppModelSpec::Kv(KvConfig {
                window: get_count(t, "window", d.window)?,
                read_fraction: get_f64(t, "read_fraction", d.read_fraction, 0.0, 1.0)?,
                theta: get_f64(t, "theta", d.theta, 0.0, 10.0)?,
                value_size: get_size(t, "value_size", d.value_size)?,
                think: think_us(t, d.think)?,
            })))
        }
        "oltp" => {
            check_keys(
                t,
                &with(
                    common,
                    &[
                        "window",
                        "reads_per_txn",
                        "read_size",
                        "log_write_size",
                        "think_us",
                    ],
                ),
            )?;
            let d = OltpConfig::default();
            Ok(WorkloadSpec::App(AppModelSpec::Oltp(OltpConfig {
                window: get_count(t, "window", d.window)?,
                reads_per_txn: get_count(t, "reads_per_txn", d.reads_per_txn)?,
                read_size: get_size(t, "read_size", d.read_size)?,
                log_write_size: get_size(t, "log_write_size", d.log_write_size)?,
                think: think_us(t, d.think)?,
            })))
        }
        "fileserver" => {
            check_keys(
                t,
                &with(common, &["window", "files", "append_size", "think_us"]),
            )?;
            let d = FileServerConfig::default();
            Ok(WorkloadSpec::App(AppModelSpec::FileServer(
                FileServerConfig {
                    window: get_count(t, "window", d.window)?,
                    files: get_count(t, "files", d.files)?,
                    append_size: get_size(t, "append_size", d.append_size)?,
                    think: think_us(t, d.think)?,
                },
            )))
        }
        "mlscan" => {
            check_keys(
                t,
                &with(
                    common,
                    &[
                        "window",
                        "read_size",
                        "checkpoint_every",
                        "checkpoint_size",
                        "checkpoint_writes",
                    ],
                ),
            )?;
            let d = MlIngestConfig::default();
            Ok(WorkloadSpec::App(AppModelSpec::MlIngest(MlIngestConfig {
                window: get_count(t, "window", d.window)?,
                read_size: get_size(t, "read_size", d.read_size)?,
                checkpoint_every: get_u32(t, "checkpoint_every", d.checkpoint_every, 0, u32::MAX)?,
                checkpoint_size: get_size(t, "checkpoint_size", d.checkpoint_size)?,
                checkpoint_writes: get_u32(
                    t,
                    "checkpoint_writes",
                    d.checkpoint_writes,
                    0,
                    u32::MAX,
                )?,
            })))
        }
        other => Err(DslError::at(
            kind_entry.line,
            format!("unknown workload '{other}' (expected fio, kv, oltp, fileserver, or mlscan)"),
        )),
    }
}

fn think_us(t: &DslTable, default: SimDuration) -> Result<SimDuration, DslError> {
    match t.get("think_us") {
        Some(e) => Ok(SimDuration::from_micros(int_in(
            e,
            0,
            MAX_DURATION_MS * 1_000,
        )?)),
        None => Ok(default),
    }
}

impl ScenarioSpec {
    /// Parses a scenario file from TOML text.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered [`DslError`] on any syntax error,
    /// unknown key/knob/profile/workload, dangling cgroup parent,
    /// missing required key, or a scenario with no devices or tenants.
    pub fn parse(src: &str) -> Result<ScenarioSpec, DslError> {
        let doc = Doc::parse(src)?;
        // Reject unknown tables up front.
        for t in &doc.tables {
            match t.name.as_str() {
                "" | "device" | "cgroup" | "tenant" => {}
                other => {
                    return Err(DslError::at(
                        t.line,
                        format!("unknown table [{other}] (expected device, cgroup, or tenant)"),
                    ));
                }
            }
        }
        let root = &doc.tables[0];
        check_keys(
            root,
            &["name", "seed", "cores", "duration_ms", "warmup_ms", "knob"],
        )?;
        let name = get_name(require(root, "name", "scenario")?)?;
        let knob_entry = require(root, "knob", "scenario")?;
        let knob = parse_knob(knob_entry.as_str()?, knob_entry.line)?;
        let cores = int_in(require(root, "cores", "scenario")?, 1, MAX_COUNT.into())? as usize;
        let duration_ms = int_in(
            require(root, "duration_ms", "scenario")?,
            1,
            MAX_DURATION_MS,
        )?;
        let duration = SimTime::from_millis(duration_ms);
        let warmup = match root.get("warmup_ms") {
            Some(e) => SimTime::from_millis(int_in(e, 0, duration_ms - 1)?),
            None => SimTime::ZERO,
        };
        let seed = match root.get("seed") {
            Some(e) => Some(e.as_u64()?),
            None => None,
        };

        let mut devices = Vec::new();
        for t in doc.tables_named("device") {
            if !t.array {
                return Err(DslError::at(t.line, "use [[device]], not [device]"));
            }
            check_keys(t, &["profile"])?;
            let p = require(t, "profile", "[[device]]")?;
            devices.push(DeviceSpec {
                profile: ProfileKind::parse(p.as_str()?, p.line)?,
            });
        }
        if devices.is_empty() {
            return Err(DslError::at(
                root.entries.first().map_or(1, |e| e.line),
                "scenario defines no [[device]] — at least one is required",
            ));
        }

        let mut cgroups: Vec<CgroupSpec> = Vec::new();
        for t in doc.tables_named("cgroup") {
            if !t.array {
                return Err(DslError::at(t.line, "use [[cgroup]], not [cgroup]"));
            }
            check_keys(t, &["name", "parent", "weight"])?;
            let name_entry = require(t, "name", "[[cgroup]]")?;
            let cg_name = get_name(name_entry)?;
            if cgroups.iter().any(|c| c.name == cg_name) {
                return Err(DslError::at(
                    name_entry.line,
                    format!("duplicate cgroup '{cg_name}'"),
                ));
            }
            let parent = match t.get("parent") {
                Some(e) => {
                    let p = e.as_str()?.to_owned();
                    if !cgroups.iter().any(|c| c.name == p) {
                        return Err(DslError::at(
                            e.line,
                            format!(
                                "unknown parent cgroup '{p}' (parents must be declared earlier)"
                            ),
                        ));
                    }
                    Some(p)
                }
                None => None,
            };
            let weight = get_u32(t, "weight", 100, 1, u32::MAX)?;
            cgroups.push(CgroupSpec {
                name: cg_name,
                parent,
                weight,
            });
        }
        if cgroups.is_empty() {
            return Err(DslError::at(
                root.entries.first().map_or(1, |e| e.line),
                "scenario defines no [[cgroup]] — at least one is required",
            ));
        }
        let parents: HashSet<&str> = cgroups.iter().filter_map(|c| c.parent.as_deref()).collect();

        let mut tenants = Vec::new();
        for t in doc.tables_named("tenant") {
            if !t.array {
                return Err(DslError::at(t.line, "use [[tenant]], not [tenant]"));
            }
            let common = ["name", "cgroup", "devices"];
            let name_entry = require(t, "name", "[[tenant]]")?;
            let t_name = name_entry.as_str()?.to_owned();
            let cg_entry = require(t, "cgroup", "[[tenant]]")?;
            let cg = cg_entry.as_str()?.to_owned();
            if !cgroups.iter().any(|c| c.name == cg) {
                return Err(DslError::at(
                    cg_entry.line,
                    format!("tenant '{t_name}' references unknown cgroup '{cg}'"),
                ));
            }
            if parents.contains(cg.as_str()) {
                return Err(DslError::at(
                    cg_entry.line,
                    format!(
                        "tenant '{t_name}' cannot run in '{cg}': it is a parent \
                         (management) cgroup and cannot hold processes"
                    ),
                ));
            }
            let devs = match t.get("devices") {
                Some(e) => {
                    let idxs = e.as_u64_array()?;
                    for &i in &idxs {
                        if i as usize >= devices.len() {
                            return Err(DslError::at(
                                e.line,
                                format!(
                                    "device index {i} out of range (scenario has {} devices)",
                                    devices.len()
                                ),
                            ));
                        }
                    }
                    idxs.into_iter().map(|i| i as usize).collect()
                }
                None => Vec::new(),
            };
            let workload = parse_workload(t, &common)?;
            tenants.push(TenantSpec {
                name: t_name,
                cgroup: cg,
                devices: devs,
                workload,
            });
        }
        if tenants.is_empty() {
            return Err(DslError::at(
                root.entries.first().map_or(1, |e| e.line),
                "scenario defines no [[tenant]] — at least one is required",
            ));
        }

        Ok(ScenarioSpec {
            name,
            seed,
            cores,
            duration,
            warmup,
            knob,
            devices,
            cgroups,
            tenants,
        })
    }

    /// Re-serializes to normalized TOML. Guaranteed round-trip:
    /// `parse(x.to_toml()) == x` (the conformance tests pin this for
    /// every committed scenario file).
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut tables = Vec::new();
        let mut root = Vec::new();
        push(&mut root, "name", Value::Str(self.name.clone()));
        if let Some(seed) = self.seed {
            push(&mut root, "seed", Value::Int(seed as i64));
        }
        push(&mut root, "cores", Value::Int(self.cores as i64));
        push(
            &mut root,
            "duration_ms",
            Value::Int((self.duration.as_nanos() / 1_000_000) as i64),
        );
        if self.warmup != SimTime::ZERO {
            push(
                &mut root,
                "warmup_ms",
                Value::Int((self.warmup.as_nanos() / 1_000_000) as i64),
            );
        }
        push(&mut root, "knob", Value::Str(self.knob.label().to_owned()));
        tables.push(DslTable {
            name: String::new(),
            array: false,
            line: 0,
            entries: root,
        });
        for d in &self.devices {
            let mut e = Vec::new();
            push(&mut e, "profile", Value::Str(d.profile.as_str().to_owned()));
            tables.push(table("device", e));
        }
        for c in &self.cgroups {
            let mut e = Vec::new();
            push(&mut e, "name", Value::Str(c.name.clone()));
            if let Some(p) = &c.parent {
                push(&mut e, "parent", Value::Str(p.clone()));
            }
            push(&mut e, "weight", Value::Int(i64::from(c.weight)));
            tables.push(table("cgroup", e));
        }
        for t in &self.tenants {
            let mut e = Vec::new();
            push(&mut e, "name", Value::Str(t.name.clone()));
            push(&mut e, "cgroup", Value::Str(t.cgroup.clone()));
            if !t.devices.is_empty() {
                push(
                    &mut e,
                    "devices",
                    Value::Array(t.devices.iter().map(|&i| Value::Int(i as i64)).collect()),
                );
            }
            render_workload(&mut e, &t.workload);
            tables.push(table("tenant", e));
        }
        Doc { tables }.render()
    }

    /// Builds the runnable [`Scenario`]: devices wired for the knob,
    /// the cgroup tree with knob weights applied to leaf groups, and
    /// every tenant attached (open-loop or closed-loop).
    ///
    /// All file-level validation already happened in
    /// [`ScenarioSpec::parse`], so this cannot fail.
    #[must_use]
    pub fn build(&self) -> Scenario {
        let devices = self
            .devices
            .iter()
            .map(|d| match d.profile {
                ProfileKind::Flash => self.knob.device_setup(false),
                ProfileKind::Optane => self.knob.device_setup_optane(),
            })
            .collect();
        let mut s = Scenario::new(&self.name, self.cores, devices);
        if let Some(seed) = self.seed {
            s.set_seed(seed);
        }
        s.set_warmup(self.warmup);
        let parents: HashSet<&str> = self
            .cgroups
            .iter()
            .filter_map(|c| c.parent.as_deref())
            .collect();
        let mut ids = Vec::with_capacity(self.cgroups.len());
        for c in &self.cgroups {
            let parent = match &c.parent {
                Some(p) => {
                    let i = self
                        .cgroups
                        .iter()
                        .position(|x| &x.name == p)
                        .expect("validated in parse");
                    ids[i]
                }
                None => s.slice(),
            };
            let management = parents.contains(c.name.as_str());
            ids.push(s.add_cgroup_under(parent, &c.name, management));
        }
        // Knob weights apply to the leaf (process-holding) cgroups.
        let mut leaf_ids = Vec::new();
        let mut leaf_weights = Vec::new();
        for (c, &id) in self.cgroups.iter().zip(&ids) {
            if !parents.contains(c.name.as_str()) {
                leaf_ids.push(id);
                leaf_weights.push(c.weight);
            }
        }
        self.knob
            .configure_weights(&mut s, &leaf_ids, &leaf_weights);
        for t in &self.tenants {
            let gi = self
                .cgroups
                .iter()
                .position(|c| c.name == t.cgroup)
                .expect("validated in parse");
            let devs: Vec<DeviceId> = t.devices.iter().map(|&i| DeviceId(i)).collect();
            match &t.workload {
                WorkloadSpec::Fio {
                    rw,
                    block_size,
                    iodepth,
                    rate_mib_s,
                } => {
                    let mut b = JobSpec::builder(&t.name)
                        .rw(*rw)
                        .block_size(*block_size)
                        .iodepth(*iodepth);
                    if let Some(r) = rate_mib_s {
                        b = b.rate_mib_s(*r);
                    }
                    let spec = b.build();
                    if devs.is_empty() {
                        s.add_app(ids[gi], spec);
                    } else {
                        s.add_app_on(ids[gi], spec, devs);
                    }
                }
                WorkloadSpec::App(model) => {
                    let spec = JobSpec::builder(&t.name).iodepth(model.window()).build();
                    s.add_app_model_on(ids[gi], spec, model.clone(), devs);
                }
            }
        }
        s
    }

    /// Short kind token per tenant ("fio" or the model kind), for
    /// reporting.
    #[must_use]
    pub fn tenant_kinds(&self) -> Vec<&'static str> {
        self.tenants
            .iter()
            .map(|t| match &t.workload {
                WorkloadSpec::Fio { .. } => "fio",
                WorkloadSpec::App(m) => m.kind(),
            })
            .collect()
    }
}

fn push(entries: &mut Vec<Entry>, key: &str, value: Value) {
    entries.push(Entry {
        key: key.to_owned(),
        value,
        line: 0,
    });
}

fn table(name: &str, entries: Vec<Entry>) -> DslTable {
    DslTable {
        name: name.to_owned(),
        array: true,
        line: 0,
        entries,
    }
}

fn render_workload(e: &mut Vec<Entry>, w: &WorkloadSpec) {
    match w {
        WorkloadSpec::Fio {
            rw,
            block_size,
            iodepth,
            rate_mib_s,
        } => {
            push(e, "workload", Value::Str("fio".to_owned()));
            let (rw_str, extra) = match rw {
                RwKind::RandRead => ("randread", None),
                RwKind::SeqRead => ("read", None),
                RwKind::RandWrite => ("randwrite", None),
                RwKind::SeqWrite => ("write", None),
                RwKind::RandRw { read_frac } => ("randrw", Some(("read_frac", *read_frac))),
                RwKind::ZipfRead { theta } => ("zipfread", Some(("theta", *theta))),
            };
            push(e, "rw", Value::Str(rw_str.to_owned()));
            if let Some((k, v)) = extra {
                push(e, k, Value::Float(v));
            }
            push(e, "block_size", Value::Int(i64::from(*block_size)));
            push(e, "iodepth", Value::Int(i64::from(*iodepth)));
            if let Some(r) = rate_mib_s {
                push(e, "rate_mib_s", Value::Float(*r));
            }
        }
        WorkloadSpec::App(AppModelSpec::Kv(c)) => {
            push(e, "workload", Value::Str("kv".to_owned()));
            push(e, "window", Value::Int(i64::from(c.window)));
            push(e, "read_fraction", Value::Float(c.read_fraction));
            push(e, "theta", Value::Float(c.theta));
            push(e, "value_size", Value::Int(i64::from(c.value_size)));
            push(
                e,
                "think_us",
                Value::Int((c.think.as_nanos() / 1_000) as i64),
            );
        }
        WorkloadSpec::App(AppModelSpec::Oltp(c)) => {
            push(e, "workload", Value::Str("oltp".to_owned()));
            push(e, "window", Value::Int(i64::from(c.window)));
            push(e, "reads_per_txn", Value::Int(i64::from(c.reads_per_txn)));
            push(e, "read_size", Value::Int(i64::from(c.read_size)));
            push(e, "log_write_size", Value::Int(i64::from(c.log_write_size)));
            push(
                e,
                "think_us",
                Value::Int((c.think.as_nanos() / 1_000) as i64),
            );
        }
        WorkloadSpec::App(AppModelSpec::FileServer(c)) => {
            push(e, "workload", Value::Str("fileserver".to_owned()));
            push(e, "window", Value::Int(i64::from(c.window)));
            push(e, "files", Value::Int(i64::from(c.files)));
            push(e, "append_size", Value::Int(i64::from(c.append_size)));
            push(
                e,
                "think_us",
                Value::Int((c.think.as_nanos() / 1_000) as i64),
            );
        }
        WorkloadSpec::App(AppModelSpec::MlIngest(c)) => {
            push(e, "workload", Value::Str("mlscan".to_owned()));
            push(e, "window", Value::Int(i64::from(c.window)));
            push(e, "read_size", Value::Int(i64::from(c.read_size)));
            push(
                e,
                "checkpoint_every",
                Value::Int(i64::from(c.checkpoint_every)),
            );
            push(
                e,
                "checkpoint_size",
                Value::Int(i64::from(c.checkpoint_size)),
            );
            push(
                e,
                "checkpoint_writes",
                Value::Int(i64::from(c.checkpoint_writes)),
            );
        }
    }
}

/// A scenario-file load/run failure: either malformed content (with a
/// source line) or an I/O error reading the file or writing output.
#[derive(Debug)]
pub enum ScenarioFileError {
    /// Parse/validation failure.
    Dsl(DslError),
    /// Filesystem failure.
    Io(io::Error),
}

impl fmt::Display for ScenarioFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioFileError::Dsl(e) => write!(f, "{e}"),
            ScenarioFileError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioFileError {}

impl From<DslError> for ScenarioFileError {
    fn from(e: DslError) -> Self {
        ScenarioFileError::Dsl(e)
    }
}

impl From<io::Error> for ScenarioFileError {
    fn from(e: io::Error) -> Self {
        ScenarioFileError::Io(e)
    }
}

/// Loads a scenario file from disk.
///
/// # Errors
///
/// I/O errors reading the file, or a line-numbered parse error.
pub fn load(path: &Path) -> Result<ScenarioSpec, ScenarioFileError> {
    let src = std::fs::read_to_string(path)?;
    Ok(ScenarioSpec::parse(&src)?)
}

/// Runs a parsed scenario and emits one per-tenant result table named
/// `scenario_<name>` (deterministic: the same bytes on every run).
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run_spec(spec: &ScenarioSpec, sink: &mut OutputSink) -> io::Result<RunReport> {
    let report = spec.build().run(spec.duration);
    let kinds = spec.tenant_kinds();
    let mut t = Table::new(vec![
        "tenant",
        "kind",
        "cgroup",
        "issued",
        "completed",
        "failed",
        "MiB/s",
        "p50 (us)",
        "p99 (us)",
    ]);
    for ((tenant, kind), app) in spec.tenants.iter().zip(&kinds).zip(&report.apps) {
        t.row(vec![
            tenant.name.clone(),
            (*kind).to_owned(),
            tenant.cgroup.clone(),
            app.issued.to_string(),
            app.completed.to_string(),
            app.failed.to_string(),
            format!("{:.1}", app.mean_mib_s),
            format!("{:.1}", app.latency.p50_us),
            format!("{:.1}", app.latency.p99_us),
        ]);
    }
    sink.emit(&format!("scenario_{}", spec.name), &t)?;
    Ok(report)
}

/// Loads and runs a scenario file: `figures --scenario foo.toml`.
///
/// # Errors
///
/// Parse errors (line-numbered), file I/O errors, or sink failures.
pub fn run_file(path: &Path, sink: &mut OutputSink) -> Result<RunReport, ScenarioFileError> {
    let spec = load(path)?;
    Ok(run_spec(&spec, sink)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
name = "mini"
cores = 2
duration_ms = 40
knob = "none"

[[device]]
profile = "flash"

[[cgroup]]
name = "only"

[[tenant]]
name = "kv"
cgroup = "only"
workload = "kv"
window = 4
"#;

    #[test]
    fn parses_and_builds_minimal_scenario() {
        let spec = ScenarioSpec::parse(MINI).unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.knob, Knob::None);
        assert_eq!(spec.tenant_kinds(), vec!["kv"]);
        let s = spec.build();
        assert_eq!(s.app_count(), 1);
        let r = s.run(spec.duration);
        assert!(r.apps[0].completed > 0);
    }

    #[test]
    fn round_trips_through_to_toml() {
        let spec = ScenarioSpec::parse(MINI).unwrap();
        let again = ScenarioSpec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn unknown_knob_is_line_numbered() {
        let bad = MINI.replace("knob = \"none\"", "knob = \"io.magic\"");
        let err = ScenarioSpec::parse(&bad).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.to_string().contains("unknown knob"), "{err}");
    }

    #[test]
    fn dangling_parent_is_line_numbered() {
        let bad = MINI.replace("name = \"only\"", "name = \"only\"\nparent = \"ghost\"");
        let err = ScenarioSpec::parse(&bad).unwrap_err();
        assert!(err.line > 0);
        assert!(err.to_string().contains("unknown parent cgroup"), "{err}");
    }

    #[test]
    fn zero_devices_rejected() {
        let bad: String = MINI
            .lines()
            .filter(|l| !l.contains("[[device]]") && !l.contains("profile"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = ScenarioSpec::parse(&bad).unwrap_err();
        assert!(err.line > 0);
        assert!(err.to_string().contains("no [[device]]"), "{err}");
    }

    #[test]
    fn unknown_key_rejected() {
        let bad = MINI.replace("cores = 2", "cores = 2\nturbo = true");
        let err = ScenarioSpec::parse(&bad).unwrap_err();
        assert!(err.to_string().contains("unknown key 'turbo'"), "{err}");
    }

    #[test]
    fn tenant_in_management_cgroup_rejected() {
        let src = r#"
name = "bad"
cores = 1
duration_ms = 10
knob = "none"

[[device]]
profile = "flash"

[[cgroup]]
name = "dept"

[[cgroup]]
name = "leaf"
parent = "dept"

[[tenant]]
name = "t"
cgroup = "dept"
workload = "kv"
"#;
        let err = ScenarioSpec::parse(src).unwrap_err();
        assert!(err.to_string().contains("management"), "{err}");
    }

    #[test]
    fn nested_cgroups_build() {
        let src = r#"
name = "nested"
cores = 2
duration_ms = 30
knob = "BFQ"

[[device]]
profile = "flash"

[[cgroup]]
name = "dept"

[[cgroup]]
name = "a"
parent = "dept"
weight = 800

[[cgroup]]
name = "b"
parent = "dept"
weight = 100

[[tenant]]
name = "oltp"
cgroup = "a"
workload = "oltp"

[[tenant]]
name = "scan"
cgroup = "b"
workload = "mlscan"
"#;
        let spec = ScenarioSpec::parse(src).unwrap();
        let r = spec.build().run(spec.duration);
        assert!(r.apps.iter().all(|a| a.completed > 0));
    }
}
