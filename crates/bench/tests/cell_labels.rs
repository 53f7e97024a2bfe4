//! Every cell label in a combined `figures` batch is distinct, and so
//! is every trace-file stem.
//!
//! The label is a cell's identity outside the batch: `--inject-panic`
//! and `--inject-hang` target it, the cell cache keys entries by it (so
//! a rerun resumes from them), and `failures.json` reports it. Under
//! `--trace`, a cell's files are named by its sanitized label, so two
//! labels with one stem would overwrite each other's traces. This
//! stages every experiment `all` selects plus the by-name extras, at
//! each fidelity, and checks that no two cells share a label or a
//! trace stem. Nothing is simulated.

use std::collections::BTreeMap;

use isol_bench::experiments::{
    app_mix, fig2, fig3, fig4, fig5, fig6, fig7, fleet_scale, optane, q10, q_faults, writeback,
};
use isol_bench::tracing::sanitize_label;
use isol_bench::{Fidelity, Staged};
use isol_bench_harness::parse_selection;

fn labels<R>(staged: Staged<R>) -> Vec<String> {
    let (cells, _) = staged.into_parts();
    cells.iter().map(|c| c.label().to_owned()).collect()
}

/// The labels of the cells `figures` stages for experiment `name`.
fn stage_labels(name: &str, fidelity: Fidelity) -> Vec<String> {
    match name {
        "fig2" => labels(fig2::stage(fidelity)),
        "fig3" => labels(fig3::stage(fidelity)),
        "fig4" => labels(fig4::stage(fidelity)),
        "fig5" => labels(fig5::stage(fidelity)),
        "fig6" => labels(fig6::stage(fidelity)),
        "fig7" => labels(fig7::stage(fidelity)),
        "q10" => labels(q10::stage(fidelity)),
        "optane" => labels(optane::stage(fidelity)),
        "writeback" => labels(writeback::stage(fidelity)),
        "q_faults" => labels(q_faults::stage(fidelity)),
        "fleet_scale" => labels(fleet_scale::stage(fidelity)),
        "app_mix" => labels(app_mix::stage(fidelity)),
        // Derived from fig3–fig7 and q10; stages no cells of its own.
        "table1" => Vec::new(),
        other => panic!("no staging known for experiment `{other}`"),
    }
}

#[test]
fn every_cell_label_in_a_combined_batch_is_distinct() {
    let names = parse_selection(["all", "q_faults", "fleet_scale", "app_mix"].map(str::to_owned))
        .expect("all + extras");
    for fidelity in [Fidelity::Smoke, Fidelity::Standard, Fidelity::Full] {
        let mut owner: BTreeMap<String, &str> = BTreeMap::new();
        let mut stems: BTreeMap<String, String> = BTreeMap::new();
        for name in &names {
            for label in stage_labels(name, fidelity) {
                if let Some(first) = stems.insert(sanitize_label(&label), label.clone()) {
                    assert_eq!(
                        first, label,
                        "{fidelity:?}: cells `{first}` and `{label}` share a trace-file stem"
                    );
                }
                if let Some(first) = owner.insert(label.clone(), name) {
                    panic!("{fidelity:?}: cell label `{label}` staged by both {first} and {name}");
                }
            }
        }
        assert!(
            owner.len() >= names.len(),
            "{fidelity:?}: staged only {} cells",
            owner.len()
        );
    }
}
