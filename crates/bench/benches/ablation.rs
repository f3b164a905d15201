//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **A1** — CCL without the flush/communication overlap: identical log
//!   contents, but the disk access is charged serially like ML's.
//! * **A2** — CCL recovery without prefetching: pages are reconstructed
//!   only when faulted on, reintroducing the memory-miss idle time.
//! * **A3** — log size vs. coherence granularity: the page-size sweep
//!   that shows why ML's full-page logging explodes with the page size
//!   while CCL's diff-based log barely moves.
//!
//! Run with: `cargo bench -p ccl-bench --bench ablation`

use ccl_apps::App;
use ccl_bench::{mb, run_paper, run_paper_with_crash, secs, NODES};
use ccl_core::{run_program, ClusterSpec, Protocol};

fn a1_overlap() {
    println!();
    println!("A1. CCL flush/communication overlap ({NODES} nodes)");
    println!("{:-<78}", "");
    println!(
        "{:<10} {:>18} {:>20} {:>22}",
        "Program", "CCL exec (s)", "no-overlap exec (s)", "overlap benefit (%)"
    );
    println!("{:-<78}", "");
    for app in App::ALL {
        let with = run_paper(app, Protocol::Ccl);
        let without = run_paper(app, Protocol::CclNoOverlap);
        let t_with = with.exec_time().as_secs_f64();
        let t_without = without.exec_time().as_secs_f64();
        println!(
            "{:<10} {:>18} {:>20} {:>22.2}",
            app.name(),
            secs(with.exec_time()),
            secs(without.exec_time()),
            100.0 * (t_without - t_with) / t_without,
        );
    }
    println!("{:-<78}", "");
}

/// Recovery time of one crash run. The virtual-time scheduler makes it
/// a pure function of the spec, so a single run is the measurement.
fn recovery_secs(app: App, protocol: Protocol) -> f64 {
    run_paper_with_crash(app, protocol, 0.75)
        .recovery_time()
        .expect("recovery completed")
        .as_secs_f64()
}

fn a2_prefetch() {
    println!();
    println!("A2. CCL recovery prefetching (crash at ~75% of barriers)");
    println!("{:-<78}", "");
    println!(
        "{:<10} {:>20} {:>24} {:>18}",
        "Program", "recovery w/ prefetch", "recovery w/o prefetch", "prefetch gain (%)"
    );
    println!("{:-<78}", "");
    for app in App::ALL {
        let t_with = recovery_secs(app, Protocol::Ccl);
        let t_without = recovery_secs(app, Protocol::CclNoPrefetch);
        println!(
            "{:<10} {:>19.3}s {:>23.3}s {:>18.2}",
            app.name(),
            t_with,
            t_without,
            100.0 * (t_without - t_with) / t_without,
        );
    }
    println!("{:-<78}", "");
}

fn a3_page_size() {
    println!();
    println!("A3. Log size vs. coherence granularity (3D-FFT, {NODES} nodes)");
    println!("{:-<66}", "");
    println!(
        "{:<12} {:>16} {:>16} {:>16}",
        "Page size", "ML log (MB)", "CCL log (MB)", "CCL/ML (%)"
    );
    println!("{:-<66}", "");
    let app = App::Fft3d;
    for page_size in [1024usize, 2048, 4096, 8192] {
        let pages = app.paper_pages(page_size) + 8;
        let mut logs = Vec::new();
        for protocol in [Protocol::Ml, Protocol::Ccl] {
            let spec = ClusterSpec::new(NODES, pages)
                .with_page_size(page_size)
                .with_protocol(protocol);
            let out = run_program(spec, move |dsm| app.run_paper(dsm));
            logs.push(out.total_log_bytes());
        }
        println!(
            "{:<12} {:>16} {:>16} {:>16.1}",
            page_size,
            mb(logs[0]),
            mb(logs[1]),
            100.0 * logs[1] as f64 / logs[0] as f64,
        );
    }
    println!("{:-<66}", "");
}

fn main() {
    a1_overlap();
    a2_prefetch();
    a3_page_size();
    println!();
}
