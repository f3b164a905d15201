//! # obsv — the run observatory
//!
//! Everything that turns a simulated-cluster run into reviewable
//! artifacts:
//!
//! * [`chrome`] — causal trace export: a [`ccl_core::RunOutput`]
//!   becomes a Chrome-trace / Perfetto JSON document with per-node
//!   tracks, phase-annotated run slices, and send→receive flow arrows
//!   that resolve to individual envelopes via the reliable layer's
//!   per-link sequence numbers.
//! * [`json`] — the dependency-free JSON model, writer, and parser the
//!   pipeline is built on (the container has no registry access, so no
//!   serde).
//! * [`report`] — the paper-artifact pipeline: run the full evaluation
//!   matrix, emit the Table 2 / Figure 4 / Figure 5 Markdown (spliced
//!   into `EXPERIMENTS.md`), and gate the machine-readable report
//!   against a committed baseline, every field exactly.
//!
//! The `report` binary (`cargo run --release -p obsv --bin report`)
//! drives all three.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blame;
pub mod chrome;
pub mod json;
pub mod report;

pub use blame::{analyze, blame_json, Blame, BlameObj};
pub use chrome::chrome_trace;
pub use json::Json;
pub use report::{collect, compare, report_json, trace_fingerprint, Report, Scale};
