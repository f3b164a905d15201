//! # ccl-bench — experiment harness
//!
//! Shared plumbing for the bench targets that print the evaluation
//! tables the `report` binary (crate `obsv`) does not generate:
//!
//! * `table1` — application characteristics,
//! * `ablation` — design-choice ablations (overlap, prefetch, page size),
//! * `homeless` — home-based vs homeless LRC (§2's motivation),
//! * `related_work` — records-only and RSL logging on the home-based DSM.
//!
//! Table 2 and Figures 4/5 come from `report` alone, and host time is
//! measured by the standalone `perfbench` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ccl_apps::App;
use ccl_core::{run_program, ClusterSpec, CrashPlan, Protocol, RunOutput};

/// The paper's cluster size.
pub const NODES: usize = 8;

/// Build the paper-scale spec for `app` under `protocol`.
pub fn paper_spec(app: App, protocol: Protocol) -> ClusterSpec {
    ClusterSpec::new(NODES, app.paper_pages(4096) + 8).with_protocol(protocol)
}

/// Run the paper-scale workload failure-free.
pub fn run_paper(app: App, protocol: Protocol) -> RunOutput<u64> {
    run_program(paper_spec(app, protocol), move |dsm| app.run_paper(dsm))
}

/// Run the paper-scale workload with a crash of node 1 at roughly
/// `fraction` of its barriers (e.g. 0.75 for the late-crash scenario).
pub fn run_paper_with_crash(app: App, protocol: Protocol, fraction: f64) -> RunOutput<u64> {
    let probe = run_paper(app, Protocol::None);
    let barriers = probe.nodes[1].stats.barriers;
    let at = ((barriers as f64 * fraction) as u64).clamp(1, barriers.saturating_sub(1).max(1));
    let spec = paper_spec(app, protocol).with_crash(CrashPlan::new(1, at));
    run_program(spec, move |dsm| app.run_paper(dsm))
}

/// Seconds with three decimals.
pub fn secs(t: ccl_core::SimTime) -> String {
    format!("{:.3}", t.as_secs_f64())
}

/// Kilobytes with one decimal.
pub fn kb(bytes: f64) -> String {
    format!("{:.1}", bytes / 1024.0)
}

/// Megabytes with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(kb(2048.0), "2.0");
        assert_eq!(mb(3 * 1024 * 1024), "3.00");
    }
}
