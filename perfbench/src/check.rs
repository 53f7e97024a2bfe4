//! Per-cell correctness checks.
//!
//! * conservation on every report: issued ≥ completed per app, and no
//!   failed I/O (no cell injects faults);
//! * at the default seed, the cell's rows must match the reference
//!   digest committed in `reference.txt`;
//! * in traced runs, the traced report must be bit-identical to the
//!   untraced one and its trace must pass `traceck`.

use std::collections::HashMap;

use host_sim::RunReport;
use simcore::hash::Fingerprint;

/// The seed the committed reference digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// The committed reference digests (`<cell label> <digest>` lines).
pub const REFERENCE: &str = include_str!("../reference.txt");

/// Salt of the row digest.
const DIGEST_SALT: u64 = 0x6265_6e63_685f_7631;

/// Conservation: every app completed no more than it issued, and no
/// I/O failed; at least one I/O completed.
///
/// # Errors
///
/// Describes the first violated condition.
pub fn conservation(r: &RunReport) -> Result<(), String> {
    for a in &r.apps {
        if a.completed > a.issued {
            return Err(format!(
                "app {} completed {} > issued {}",
                a.name, a.completed, a.issued
            ));
        }
        if a.failed != 0 {
            return Err(format!(
                "app {} failed {} I/Os without faults",
                a.name, a.failed
            ));
        }
    }
    for d in &r.devices {
        if d.failed != 0 || d.media_errors != 0 || d.timeouts != 0 {
            return Err(format!(
                "device {:?} reports failed I/O without faults",
                d.dev
            ));
        }
    }
    if served_ios(r) == 0 {
        return Err("no I/O completed".into());
    }
    Ok(())
}

/// I/Os the devices served over the whole run, warm-up included.
#[must_use]
pub fn served_ios(r: &RunReport) -> u64 {
    r.devices.iter().map(|d| d.served_ios).sum()
}

/// The cell's result rows, exact-f64 encoded: per app the counters,
/// bandwidth, latency summary and stage breakdown; per device the
/// served I/Os and bytes; per core the utilization.
#[must_use]
pub fn rows(r: &RunReport) -> Vec<u8> {
    let mut out = Vec::new();
    let mut push = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    for a in &r.apps {
        for v in [a.issued, a.completed, a.failed, a.bytes] {
            push(v);
        }
        let l = &a.latency;
        let s = &a.stages;
        for v in [
            a.mean_mib_s,
            a.ctx_per_io,
            l.mean_us,
            l.p50_us,
            l.p99_us,
            l.p999_us,
            s.submit_cpu_us,
            s.qos_wait_us,
            s.sched_wait_us,
            s.device_us,
            s.complete_cpu_us,
        ] {
            push(v.to_bits());
        }
    }
    for d in &r.devices {
        push(d.served_ios);
        push(d.served_bytes);
    }
    for c in &r.cores {
        push(c.utilization.to_bits());
    }
    out
}

/// The reference digest of a report's rows.
#[must_use]
pub fn digest(r: &RunReport) -> String {
    Fingerprint::of(&rows(r), DIGEST_SALT).hex()
}

/// Reference digests by cell label.
#[derive(Debug, Clone, Default)]
pub struct Reference(HashMap<String, String>);

impl Reference {
    /// Parses `<label> <digest>` lines; `#` starts a comment.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        Reference(
            text.lines()
                .map(|l| l.split('#').next().unwrap_or("").trim())
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
                .collect(),
        )
    }

    /// Checks a cell's digest.
    ///
    /// # Errors
    ///
    /// A missing or different reference digest.
    pub fn check(&self, label: &str, digest: &str) -> Result<(), String> {
        match self.0.get(label) {
            Some(want) if want == digest => Ok(()),
            Some(want) => Err(format!("{label}: digest {digest} != reference {want}")),
            None => Err(format!("{label}: no reference digest")),
        }
    }
}
