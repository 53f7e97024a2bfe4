//! Request-lifecycle trace capture for harness cells.
//!
//! With [`crate::RunConfig::trace`] set (`figures --trace[=N]`), every
//! grid cell the harness runs ([`crate::cache::run_scenario`]) executes
//! with the [`simcore::trace`] recorder installed and writes two files
//! per cell into [`TraceConfig::dir`]:
//!
//! * `<label>.trace.jsonl` — the raw event stream (one JSON object per
//!   line, self-describing header first; see
//!   [`simcore::trace::Trace::to_jsonl`]). This is the input format of
//!   the `traceck` invariant checker.
//! * `<label>.chrome.json` — the same run rendered as Chrome
//!   `trace_event` JSON, loadable in `chrome://tracing` / Perfetto.
//!
//! Traced cells always **bypass the result cache**: the trace is a
//! side effect of simulating, so a cache hit would silently produce no
//! trace file. Each cell's record says whether its files were written
//! ([`crate::cache::CellStat::traced`]). Capture is off unless a
//! configuration asks for it, so library callers pay nothing and the
//! simulator hot path one thread-local read per probe.

use std::fs;
use std::path::{Path, PathBuf};

use simcore::trace::Trace;

/// Default trace directory, relative to the working directory.
pub const DEFAULT_DIR: &str = "target/isol-bench/traces";

/// Default ring-buffer capacity (events) when `--trace` is given
/// without a value. At 56 bytes per event this is ~3.5 MiB per cell.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Where and how much a traced run records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-cell ring capacity in events (the recorder clamps 0 to 1).
    pub capacity: usize,
    /// Directory the trace files go into (created on first write).
    pub dir: PathBuf,
}

/// Maps a cell label to a filesystem-safe file stem: every character
/// outside `[A-Za-z0-9._-]` becomes `-`.
#[must_use]
pub fn sanitize_label(label: &str) -> String {
    let mut s: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    if s.is_empty() {
        s.push('_');
    }
    s
}

/// Writes `<label>.trace.jsonl` and `<label>.chrome.json` into `dir`
/// (with the label passed through [`sanitize_label`]), creating `dir`
/// if needed.
///
/// # Errors
///
/// Propagates filesystem errors; callers treat a failed write as
/// advisory (the run itself already succeeded).
pub fn write_files(dir: &Path, label: &str, trace: &Trace) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let stem = sanitize_label(label);
    fs::write(dir.join(format!("{stem}.trace.jsonl")), trace.to_jsonl())?;
    fs::write(
        dir.join(format!("{stem}.chrome.json")),
        trace.to_chrome_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sanitize_to_safe_stems() {
        assert_eq!(sanitize_label("fig4-io.max-1ssd-4"), "fig4-io.max-1ssd-4");
        assert_eq!(sanitize_label("a b/c:d"), "a-b-c-d");
        assert_eq!(sanitize_label(""), "_");
    }
}
