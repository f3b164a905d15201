//! Golden determinism contract: every run is bit-reproducible, and the
//! committed report records are its goldens. (An `obsv` test target:
//! it compares through the same `report` code the gate uses.)
//!
//! The simulator is deterministic by construction, which is what makes
//! every reported number reviewable. These tests pin the observable
//! outputs against the same records the `report` gate compares, so a
//! change to the hot path (diff kernel, buffer pooling, codec sizing,
//! scheduler) that accidentally alters protocol behavior fails loudly
//! instead of silently shifting the paper's tables. Re-bless a golden
//! with `cargo run --release -p obsv --bin report -- [--smoke] --bless`.

use std::path::Path;

use ccl_apps::App;
use ccl_core::Protocol;
use obsv::json::{self, Json};
use obsv::report::{run_json, run_record};
use obsv::{collect, compare, report_json, trace_fingerprint, Scale};

/// Parse a committed record, resolved from the repository root.
fn golden(rel: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

fn assert_matches(label: &str, current: &Json, baseline: &Json) {
    let res = compare(current, baseline);
    assert!(
        res.passed(),
        "{label} drifted:\n{}",
        res.violations.join("\n")
    );
}

/// The whole smoke matrix — every app under None/ML/CCL, the crash
/// recoveries, and the fetch-hiding ablation — equals the committed
/// smoke record field for field.
#[test]
fn fault_free_runs_match_goldens() {
    let current = report_json(&collect(Scale::Smoke));
    assert_matches(
        "smoke matrix",
        &current,
        &golden("crates/obsv/smoke_baseline.json"),
    );
}

/// The paper-scale (8-node, 4 KiB pages) runs of Water and MG — the
/// lock-heavy and the flush-ack-heavy workload — match their committed
/// `REPORT_paper.json` entries exactly.
#[test]
fn paper_scale_water_and_mg_match_goldens() {
    let paper = golden("REPORT_paper.json");
    for app in [App::Mg, App::Water] {
        for protocol in Protocol::TABLE2 {
            let label = format!("{}/{}", app.name(), protocol.label());
            let baseline = paper
                .get("apps")
                .and_then(|a| a.get(app.name()))
                .and_then(|a| a.get("runs"))
                .and_then(|r| r.get(protocol.label()))
                .unwrap_or_else(|| panic!("{label} missing from REPORT_paper.json"));
            let current = run_json(&run_record(Scale::Paper, app, protocol));
            assert_matches(&label, &current, baseline);
        }
    }
}

/// Same spec twice → identical observables (run-to-run determinism,
/// independent of any committed golden).
#[test]
fn repeated_runs_are_identical() {
    let run = || Scale::Smoke.run(App::Fft3d, Protocol::Ccl);
    let (a, b) = (run(), run());
    assert_eq!(a.nodes[0].result, b.nodes[0].result);
    assert_eq!(a.exec_time(), b.exec_time());
    assert_eq!(a.total_log_bytes(), b.total_log_bytes());
    assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
}
