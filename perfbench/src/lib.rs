//! End-to-end and per-layer benchmark of the ResourceBroker simulator.
//!
//! Three workloads — `storm`, `utilization` and `utilization_obs` — are
//! timed from outside, through the public functions of `rb-simcore`,
//! `rb-simnet`, `rb-broker`, `rb-parsys` and `rb-analyze`. See
//! `README.md` in this directory for what each metric means and which
//! layer metric should move which end-to-end one.

pub mod bench;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod storm;
pub mod utilization;
