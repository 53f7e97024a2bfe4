//! # simcore — deterministic discrete-event simulation core
//!
//! This crate provides the minimal, dependency-light machinery shared by all
//! simulation substrates in the isol-bench reproduction:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock,
//! * [`EventQueue`] — a stable (FIFO-on-tie) priority queue of timed events,
//! * [`DetRng`] — a seeded, deterministic random number generator with the
//!   distribution samplers the device/host models need,
//! * [`TokenBucket`] — the rate-limiter primitive behind `io.max` and
//!   fio-style rate caps,
//! * [`Ewma`] — exponentially weighted moving averages for controllers.
//!
//! Everything here is deterministic: two runs with the same seed produce the
//! same event trace, which is what makes the paper's experiments exactly
//! reproducible in CI.
//!
//! ## Example
//!
//! ```
//! use simcore::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "second");
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_nanos(1_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
mod events;
mod ewma;
pub mod hash;
mod rng;
mod time;
mod token;
pub mod trace;

pub use events::EventQueue;
pub use ewma::Ewma;
pub use hash::{fnv1a_64, xxhash64, Fingerprint};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
pub use token::TokenBucket;
