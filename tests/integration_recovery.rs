//! Crash-recovery integration: a node fails mid-run, recovers from its
//! stable log, and the whole computation must still produce the exact
//! failure-free result — the correctness gate of DESIGN.md.

use ccl_apps::App;
use ccl_core::{run_program, ClusterSpec, CrashPlan, Protocol, SimDuration, TraceKind};

fn spec(app: App, nodes: usize, protocol: Protocol) -> ClusterSpec {
    let page = 256;
    ClusterSpec::new(nodes, app.tiny_pages(page) + 4)
        .with_page_size(page)
        .with_protocol(protocol)
}

fn check_recovery(app: App, protocol: Protocol, crash_node: usize, after_barriers: u64) {
    let expect = app.tiny_reference();
    let s = spec(app, 4, protocol).with_crash(CrashPlan::new(crash_node, after_barriers));
    let out = run_program(s, move |dsm| app.run_tiny(dsm));
    for n in &out.nodes {
        assert_eq!(
            n.result,
            expect,
            "{} with {:?}, crash of node {crash_node} after barrier {after_barriers}: \
             node {} digest mismatch",
            app.name(),
            protocol,
            n.node
        );
    }
    let failed = &out.nodes[crash_node];
    assert!(failed.crashed_at.is_some(), "crash was not injected");
    assert!(
        failed.recovery_exit.is_some(),
        "recovery never completed at the failed node"
    );
    assert!(
        out.recovery_time().unwrap() > SimDuration::ZERO,
        "recovery time must be positive"
    );
}

#[test]
fn ccl_recovers_fft3d() {
    check_recovery(App::Fft3d, Protocol::Ccl, 1, 3);
}

#[test]
fn ccl_recovers_mg() {
    check_recovery(App::Mg, Protocol::Ccl, 1, 4);
}

#[test]
fn ccl_recovers_shallow() {
    check_recovery(App::Shallow, Protocol::Ccl, 1, 4);
}

#[test]
fn ccl_recovers_water() {
    check_recovery(App::Water, Protocol::Ccl, 1, 3);
}

#[test]
fn ml_recovers_all_apps() {
    for app in App::ALL {
        check_recovery(app, Protocol::Ml, 1, 3);
    }
}

#[test]
fn recovery_works_for_every_failed_node() {
    // Fail each non-manager node in turn (single-failure model; the
    // paper's experiments also crash one worker).
    for node in 1..4 {
        check_recovery(App::Shallow, Protocol::Ccl, node, 3);
    }
}

#[test]
fn recovery_works_at_different_crash_points() {
    for after in [1, 2, 5, 8] {
        check_recovery(App::Mg, Protocol::Ccl, 2, after);
    }
}

#[test]
fn late_crash_close_to_program_end() {
    // Crash near the end: almost the entire run replays from the log.
    check_recovery(App::Water, Protocol::Ccl, 1, 8);
    check_recovery(App::Water, Protocol::Ml, 1, 8);
}

#[test]
fn ccl_recovery_reads_less_log_than_ml_recovery() {
    // The mechanism behind the paper's Figure 5: ML-recovery reads its
    // (large) log back record by record, CCL-recovery reads its (small)
    // log once per interval. Recovery times are compared at paper
    // scale (Figure 5, from the `report` binary); at test scale we assert the
    // scale-independent invariants: both recoveries succeed and CCL's
    // replay pulls far fewer bytes off stable storage.
    let app = App::Shallow;
    let crash = CrashPlan::new(1, 5);
    let ccl = run_program(spec(app, 4, Protocol::Ccl).with_crash(crash), move |dsm| {
        app.run_tiny(dsm)
    });
    let ml = run_program(spec(app, 4, Protocol::Ml).with_crash(crash), move |dsm| {
        app.run_tiny(dsm)
    });
    assert!(ccl.recovery_time().is_some() && ml.recovery_time().is_some());
    let ccl_read = ccl.nodes[1].disk.bytes_read;
    let ml_read = ml.nodes[1].disk.bytes_read;
    assert!(
        ccl_read * 2 < ml_read,
        "CCL replay read {ccl_read} bytes, ML replay read {ml_read}"
    );
    // And recovery is far cheaper than redoing the lost work live:
    // the replayed prefix costs less than the full failure-free run.
    assert!(ccl.recovery_time().unwrap().as_secs_f64() < ccl.exec_time().as_secs_f64());
}

#[test]
fn detection_delay_is_charged() {
    let app = App::Mg;
    let mut plan = CrashPlan::new(1, 3);
    plan.detection_delay = SimDuration::from_millis(500);
    let out = run_program(spec(app, 4, Protocol::Ccl).with_crash(plan), move |dsm| {
        app.run_tiny(dsm)
    });
    let failed = &out.nodes[1];
    let gap = failed
        .recovery_exit
        .unwrap()
        .saturating_since(failed.crashed_at.unwrap());
    assert!(gap >= SimDuration::from_millis(500));
    assert!(out.nodes.iter().all(|n| n.result == app.tiny_reference()));
}

#[test]
fn detection_delay_lands_in_the_wait_phase() {
    // The crash-detection timeout is blocked time, not compute or disk:
    // against the same crash with instant detection, the failed node's
    // wait-phase bucket must grow by at least the configured delay.
    // (Shallow is cycle-deterministic, so the two runs are comparable.)
    let app = App::Shallow;
    let delay = SimDuration::from_millis(200);
    let run = |plan: CrashPlan| {
        run_program(spec(app, 4, Protocol::Ccl).with_crash(plan), move |dsm| {
            app.run_tiny(dsm)
        })
    };
    let instant = run(CrashPlan::new(1, 3));
    let delayed = run(CrashPlan::new(1, 3).with_detection_delay(delay));
    assert!(delayed
        .nodes
        .iter()
        .all(|n| n.result == app.tiny_reference()));
    let base_wait = instant.nodes[1].phases.wait;
    let slow_wait = delayed.nodes[1].phases.wait;
    assert!(
        slow_wait >= base_wait + delay,
        "wait phase grew {:?} -> {:?}, expected at least +{delay:?}",
        base_wait,
        slow_wait
    );
}

#[test]
fn recovery_steps_are_traced_between_crash_and_exit() {
    // The telemetry contract of a crash run: the failed node's trace
    // carries the whole recovery arc — begin, per-episode replay steps,
    // end — inside the [crashed_at, recovery_exit] window.
    let app = App::Shallow;
    for protocol in [Protocol::Ml, Protocol::Ccl] {
        let s = spec(app, 4, protocol).with_crash(CrashPlan::new(1, 4));
        let out = run_program(s, move |dsm| app.run_tiny(dsm));
        let failed = &out.nodes[1];
        let crashed = failed.crashed_at.expect("crash was not injected");
        let exit = failed.recovery_exit.expect("recovery never completed");
        let window: Vec<_> = failed
            .trace
            .iter()
            .filter(|ev| ev.at >= crashed && ev.at <= exit)
            .collect();
        let begins = window
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::RecoveryBegin))
            .count();
        let replays = window
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::RecoveryReplay { .. }))
            .count();
        let ends = window
            .iter()
            .filter(|ev| matches!(ev.kind, TraceKind::RecoveryEnd))
            .count();
        assert_eq!(begins, 1, "{protocol:?}: RecoveryBegin missing from window");
        assert!(replays > 0, "{protocol:?}: no replay steps traced");
        assert_eq!(ends, 1, "{protocol:?}: RecoveryEnd missing from window");
    }
}
