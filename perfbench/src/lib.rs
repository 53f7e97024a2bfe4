//! Benchmark of the isol-bench simulator (see `README.md`).

pub mod bench;
pub mod calib;
pub mod check;
pub mod clock;
pub mod layers;
pub mod spans;
pub mod workloads;
