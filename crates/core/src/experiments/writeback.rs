//! Writeback attribution — the paper's §VII future-work question:
//! *"does the page cache or Linux's file systems maintain the desiderata
//! of io.cost, or is more control needed at higher layers?"*
//!
//! With buffered writes, the device I/O is not issued by the tenant but
//! by the kernel's flusher threads. Whether I/O control still binds
//! depends on *charging*: cgroup v1 charged writeback to the flusher
//! (effectively the root group, escaping every knob), while cgroup v2
//! writeback charges the dirtying cgroup. We model exactly that split by
//! scenario composition: the tenant's dirtying is CPU-only, and a
//! flusher app issues the device writes from either the root-side
//! flusher cgroup (v1 semantics) or the tenant's own cgroup (v2
//! semantics).
//!
//! Probe: one latency-critical reader shares the SSD with a buffered
//! writer; the writer's cgroup has an `io.max` write cap. Under v1
//! attribution the cap is vacuous and the reader suffers the full
//! interference; under v2 it binds and the reader is protected.

use std::io;

use cgroup_sim::{DevNode, IoMax, Knob as KnobWrite};
use iostats::Table;
use workload::{JobSpec, RwKind};

use crate::{Cell, Fidelity, OutputSink, RunConfig, Scenario, Staged};

/// How writeback device I/O is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritebackMode {
    /// cgroup-v1 style: flusher I/O lands in a root-side cgroup; tenant
    /// knobs never see it.
    V1RootCharged,
    /// cgroup-v2 style: flusher I/O is charged to the dirtying cgroup.
    V2OwnerCharged,
}

impl WritebackMode {
    /// Both modes.
    pub const ALL: [WritebackMode; 2] =
        [WritebackMode::V1RootCharged, WritebackMode::V2OwnerCharged];

    /// Short label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            WritebackMode::V1RootCharged => "v1-root-charged",
            WritebackMode::V2OwnerCharged => "v2-owner-charged",
        }
    }
}

/// One writeback probe result.
#[derive(Debug, Clone, Copy)]
pub struct WritebackRow {
    /// Charging mode.
    pub mode: WritebackMode,
    /// Whether the tenant's `io.max` write cap was configured.
    pub capped: bool,
    /// The victim reader's P99, microseconds.
    pub reader_p99_us: f64,
    /// Writeback device throughput, MiB/s.
    pub writeback_mib_s: f64,
}

/// The writeback study.
#[derive(Debug)]
pub struct WritebackResult {
    /// All four cells (mode × capped).
    pub rows: Vec<WritebackRow>,
}

impl WritebackResult {
    /// Looks up one cell.
    #[must_use]
    pub fn row(&self, mode: WritebackMode, capped: bool) -> Option<&WritebackRow> {
        self.rows
            .iter()
            .find(|r| r.mode == mode && r.capped == capped)
    }
}

/// The write cap applied to the tenant (200 MiB/s).
const CAP_BYTES: u64 = 200 * 1024 * 1024;

/// Builds the cell for one (mode, capped) probe. Cell rows:
/// `[[reader_p99_us, writeback_mib_s]]`.
fn probe_cell(mode: WritebackMode, capped: bool, fidelity: Fidelity) -> Cell {
    let mut s = Scenario::new(
        &format!("writeback-{}-{}", mode.label(), capped),
        8,
        vec![crate::Knob::None.device_setup(false).preconditioned(1.0)],
    );
    s.set_warmup(fidelity.warmup());
    let reader_cg = s.add_cgroup("reader");
    let tenant_cg = s.add_cgroup("tenant");
    let flusher_cg = s.add_cgroup("flusher"); // the v1 charging target

    // The victim: a latency-critical reader.
    s.add_app(reader_cg, JobSpec::lc_app("reader"));
    // Writeback device traffic on behalf of the tenant's dirty pages.
    // (The tenant's own buffered writes are memory-only and do not
    // appear on the device at all — that is the whole point.)
    let flusher_job = JobSpec::builder("flusher")
        .rw(RwKind::RandWrite)
        .block_size(64 * 1024)
        .iodepth(32)
        .build();
    let flusher_group = match mode {
        WritebackMode::V1RootCharged => flusher_cg,
        WritebackMode::V2OwnerCharged => tenant_cg,
    };
    s.add_app(flusher_group, flusher_job);

    if capped {
        let cap = IoMax {
            wbps: Some(CAP_BYTES),
            ..IoMax::default()
        };
        s.hierarchy_mut()
            .apply(tenant_cg, KnobWrite::Max(DevNode::nvme(0), cap))
            .expect("io.max write");
    }
    Cell::scenario(
        "writeback",
        fidelity,
        s,
        fidelity.run_duration(),
        |report| {
            vec![vec![
                report.apps[0].latency.p99_us,
                report.apps[1].mean_mib_s,
            ]]
        },
    )
}

/// Stages the 2×2 writeback-attribution study: one cell per
/// (mode, capped) scenario.
#[must_use]
pub fn stage(fidelity: Fidelity) -> Staged<WritebackResult> {
    let mut keys = Vec::new();
    for mode in WritebackMode::ALL {
        for capped in [false, true] {
            keys.push((mode, capped));
        }
    }
    let cells = keys
        .iter()
        .map(|&(mode, capped)| probe_cell(mode, capped, fidelity))
        .collect();
    Staged::new("writeback", cells, move |results, sink| {
        let rows: Vec<WritebackRow> = keys
            .iter()
            .zip(results)
            .filter_map(|(&(mode, capped), cell)| {
                let cell = cell?;
                Some(WritebackRow {
                    mode,
                    capped,
                    reader_p99_us: cell[0][0],
                    writeback_mib_s: cell[0][1],
                })
            })
            .collect();
        let mut t = Table::new(vec![
            "writeback charging",
            "tenant io.max (wbps)",
            "reader P99 (us)",
            "writeback MiB/s",
        ]);
        for r in &rows {
            t.row(vec![
                r.mode.label().to_owned(),
                if r.capped { "200 MiB/s" } else { "none" }.to_owned(),
                format!("{:.1}", r.reader_p99_us),
                format!("{:.0}", r.writeback_mib_s),
            ]);
        }
        sink.emit("writeback_attribution", &t)?;
        sink.note(
            "(v1: the cap is vacuous — flusher I/O escapes the tenant cgroup; \
             v2: writeback is charged to the dirtying cgroup and the cap binds)",
        );
        Ok(WritebackResult { rows })
    })
}

/// Runs the 2×2 writeback-attribution study.
///
/// # Errors
///
/// Propagates sink I/O failures.
pub fn run(fidelity: Fidelity, sink: &mut OutputSink) -> io::Result<WritebackResult> {
    stage(fidelity).run(&RunConfig::default(), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> WritebackResult {
        run(Fidelity::Smoke, &mut OutputSink::quiet()).expect("writeback")
    }

    #[test]
    fn v1_caps_are_vacuous() {
        let r = result();
        let uncapped = r.row(WritebackMode::V1RootCharged, false).unwrap();
        let capped = r.row(WritebackMode::V1RootCharged, true).unwrap();
        // The cap changes (almost) nothing: writeback escapes it.
        let ratio = capped.writeback_mib_s / uncapped.writeback_mib_s;
        assert!(
            (0.9..1.1).contains(&ratio),
            "v1 cap should not bind: ratio {ratio}"
        );
    }

    #[test]
    fn v2_caps_bind_and_protect_the_reader() {
        let r = result();
        let capped = r.row(WritebackMode::V2OwnerCharged, true).unwrap();
        let uncapped = r.row(WritebackMode::V2OwnerCharged, false).unwrap();
        assert!(
            capped.writeback_mib_s < 0.8 * uncapped.writeback_mib_s,
            "v2 cap binds: {} vs {}",
            capped.writeback_mib_s,
            uncapped.writeback_mib_s
        );
        assert!(
            (150.0..260.0).contains(&capped.writeback_mib_s),
            "capped writeback near 200 MiB/s: {}",
            capped.writeback_mib_s
        );
        assert!(
            capped.reader_p99_us < uncapped.reader_p99_us,
            "reader protected: {} vs {}",
            capped.reader_p99_us,
            uncapped.reader_p99_us
        );
    }
}
