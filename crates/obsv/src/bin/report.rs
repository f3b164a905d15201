//! The paper-artifact report pipeline, as a command.
//!
//! ```console
//! $ cargo run --release -p obsv --bin report              # paper scale
//! $ cargo run --release -p obsv --bin report -- --smoke   # verify.sh
//! ```
//!
//! Flags:
//!
//! * `--smoke`        run the 4-node tiny matrix (seconds) instead of
//!   the paper-scale one (minutes); gates against
//!   `crates/obsv/smoke_baseline.json` and never touches the paper
//!   artifacts.
//! * `--bless`        (re)write the baseline for the chosen scale with
//!   this run's values.
//! * `--out PATH`     also write the report JSON document to `PATH`.
//! * `--trace PATH`   also export the 3D-FFT/CCL run as a Chrome-trace
//!   file loadable at <https://ui.perfetto.dev>.
//!
//! Every field of the record must equal the baseline's exactly. At
//! paper scale (gate pass or `--bless`) the Table 2 / Figure 4 /
//! Figure 5 tables in `EXPERIMENTS.md` are regenerated in place between
//! their `<!-- report:* -->` markers.
//!
//! Exit status: 0 on success, 1 on a gate violation, 2 on usage or I/O
//! errors (including a missing baseline — bless one first).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ccl_apps::App;
use ccl_core::Protocol;
use obsv::json;
use obsv::report::{
    blame_markdown, compare, fig4_markdown, fig5_markdown, report_json, splice, table2_markdown,
    traffic_markdown, Report, Scale,
};

struct Args {
    scale: Scale,
    bless: bool,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Paper,
        bless: false,
        out: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.scale = Scale::Smoke,
            "--bless" => args.bless = true,
            "--out" => args.out = Some(PathBuf::from(it.next().ok_or("--out needs a path")?)),
            "--trace" => args.trace = Some(PathBuf::from(it.next().ok_or("--trace needs a path")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// The repository root, resolved from this crate's manifest directory
/// (`crates/obsv` → two levels up).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

fn baseline_path(scale: Scale) -> PathBuf {
    match scale {
        Scale::Paper => repo_root().join("REPORT_paper.json"),
        Scale::Smoke => repo_root().join("crates/obsv/smoke_baseline.json"),
    }
}

fn write(path: &Path, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn regenerate_experiments(report: &Report) -> Result<(), String> {
    let path = repo_root().join("EXPERIMENTS.md");
    let doc =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = splice(&doc, "table2", &table2_markdown(report))?;
    let doc = splice(&doc, "fig4", &fig4_markdown(report))?;
    let doc = splice(&doc, "fig5", &fig5_markdown(report))?;
    let doc = splice(&doc, "blame", &blame_markdown(report))?;
    let doc = splice(&doc, "traffic", &traffic_markdown(report))?;
    write(&path, &doc)?;
    eprintln!("regenerated tables in {}", path.display());
    Ok(())
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let scale = args.scale;
    eprintln!(
        "collecting the {} matrix ({} nodes, {} apps x {} protocols + recovery)...",
        scale.label(),
        scale.nodes(),
        App::ALL.len(),
        Protocol::TABLE2.len(),
    );
    let report = obsv::collect(scale);
    let doc = report_json(&report);

    // A truncated trace silently falsifies every trace-derived column
    // (fingerprints, blame attribution), so dropped events are a loud
    // warning here and a hard failure in detcheck.
    let dropped: u64 = report
        .apps
        .iter()
        .flat_map(|a| &a.runs)
        .map(|r| r.trace_dropped)
        .sum();
    if dropped > 0 {
        eprintln!(
            "WARNING: {dropped} trace event(s) dropped by bounded sinks — \
             trace fingerprints and blame attribution in this report are \
             incomplete; size the workload or the trace bound so nothing drops"
        );
    }

    // Human-readable summary on stdout.
    println!("## Table 2\n\n{}", table2_markdown(&report));
    println!("## Figure 4 (None = 100)\n\n{}", fig4_markdown(&report));
    println!(
        "## Figure 5 (re-execution = 100)\n\n{}",
        fig5_markdown(&report)
    );
    println!(
        "## Blame (blame path, % of exec)\n\n{}",
        blame_markdown(&report)
    );
    println!(
        "## Traffic (per-kind, send-side)\n\n{}",
        traffic_markdown(&report)
    );

    if let Some(out) = &args.out {
        write(out, &doc.pretty())?;
        eprintln!("report written to {}", out.display());
    }
    if let Some(trace_path) = &args.trace {
        eprintln!("exporting 3D-FFT/CCL chrome trace...");
        let run = scale.run(App::Fft3d, Protocol::Ccl);
        let label = format!("3D-FFT/ccl ({})", scale.label());
        let blame = obsv::analyze(&run);
        write(
            trace_path,
            &obsv::chrome::chrome_trace_blamed(&run, &label, &blame),
        )?;
        eprintln!(
            "trace written to {} (open at https://ui.perfetto.dev)",
            trace_path.display()
        );
    }

    let baseline_file = baseline_path(scale);
    if args.bless {
        write(&baseline_file, &doc.pretty())?;
        eprintln!("baseline blessed: {}", baseline_file.display());
        if scale == Scale::Paper {
            regenerate_experiments(&report)?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    let baseline_text = std::fs::read_to_string(&baseline_file).map_err(|e| {
        format!(
            "no baseline at {} ({e}); run with --bless to create one",
            baseline_file.display()
        )
    })?;
    let baseline = json::parse(&baseline_text)
        .map_err(|e| format!("parsing {}: {e}", baseline_file.display()))?;
    let result = compare(&doc, &baseline);
    if result.passed() {
        eprintln!(
            "gate passed: {} fields compared exactly against {}",
            result.compared,
            baseline_file.display(),
        );
        if scale == Scale::Paper {
            regenerate_experiments(&report)?;
        }
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "gate FAILED against {} ({} violations):",
            baseline_file.display(),
            result.violations.len()
        );
        for v in &result.violations {
            eprintln!("  {v}");
        }
        eprintln!("(if the change is intended, re-bless with --bless)");
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("report: {msg}");
            ExitCode::from(2)
        }
    }
}
