//! Self-test of the benchmark at tiny scale (4 nodes, 256-byte pages,
//! the applications' tiny instances), so it runs in seconds.

use std::collections::BTreeMap;

use ccl_apps::App;
use ccl_perfbench::{crash_point, pass_calls, run, run_with_oracle, Config, Oracle, Workload};
use obsv::{json, Json, Scale};

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 0,
        seconds: 0.01,
        trace,
        scale: Scale::Smoke,
    }
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(workload, trace));
            assert!(out.correct(), "{}: {:?}", workload.name(), out.notes);
            let doc = json::parse(&out.json()).expect("result line is JSON");
            let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
            let emitted: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{name} has no finite value"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let list = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(emitted, declared(list), "{} trace={trace}", workload.name());
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        }
    }
}

#[test]
fn wrong_reference_digest_fails_every_call() {
    let mut oracle = Oracle::compute(Scale::Smoke);
    for d in oracle.digests.iter_mut() {
        *d ^= 1;
    }
    for workload in Workload::ALL {
        let out = run_with_oracle(&tiny(workload, false), &oracle);
        assert!(out.tally.attempted > 0);
        assert_eq!(
            out.tally.failed as f64 / out.tally.attempted as f64,
            1.0,
            "{}",
            workload.name()
        );
        assert!(!out.correct());
        assert!(out.json().contains("\"correct\": false"));
    }
}

#[test]
fn seed_to_crash_point_mapping_is_stable() {
    // Seed 0 is the report pipeline's Figure 5 scenario at paper scale:
    // node 1 after 13/26/29/11 of 18/35/39/15 barriers.
    let paper = [
        (App::Fft3d, 18, 13),
        (App::Mg, 35, 26),
        (App::Shallow, 39, 29),
        (App::Water, 15, 11),
    ];
    for (app, barriers, after) in paper {
        assert_eq!(
            crash_point(0, app, 8, barriers),
            (1, after),
            "{}",
            app.name()
        );
    }
    // One base-6 digit of the seed per block-decomposed app; Water stays on node 1.
    let nodes = |seed| App::ALL.map(|app| crash_point(seed, app, 8, 20).0);
    assert_eq!(nodes(1), [2, 1, 1, 1]);
    assert_eq!(nodes(7), [2, 2, 1, 1]);
    assert_eq!(nodes(215), [6, 6, 6, 1]);
    assert_eq!(nodes(216), [1, 1, 1, 1]);
    // Crash points never leave the interior nodes or the run's barriers.
    for seed in 0..500 {
        for app in App::ALL {
            let (node, after) = crash_point(seed, app, 8, 20);
            assert!((1..=6).contains(&node) && (1..20).contains(&after));
        }
    }
    let barriers = [18, 35, 39, 15];
    assert_eq!(
        pass_calls(Workload::CrashRecovery, 42, 8, &barriers),
        pass_calls(Workload::CrashRecovery, 42, 8, &barriers)
    );
}
