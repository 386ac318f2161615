//! End-to-end benchmark of `hinn`: three workloads that each stress
//! different layers, untraced runs for the end-to-end metrics and traced
//! runs for the per-layer split. See `README.md` beside this package.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod layers;
pub mod report;
pub mod run;
pub mod session;
pub mod speed;
