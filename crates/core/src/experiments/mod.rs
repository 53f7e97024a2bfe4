//! One driver per paper artifact (figures 2–7, the Q10 burst study, and
//! Table I). Each driver exposes `run(fidelity, sink)`, returns a typed
//! result, prints paper-style tables through the sink, and writes CSVs
//! when the sink has a directory.

pub mod app_mix;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fleet_scale;
pub mod optane;
pub mod q10;
pub mod q_faults;
pub mod table1;
pub mod writeback;
