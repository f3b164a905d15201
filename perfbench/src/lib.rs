//! # ccl-perfbench — one benchmark for both clocks
//!
//! The simulator runs on two clocks. *Virtual time* (`exec_time`,
//! recovery time, log and wire bytes) is the reproduction's result and
//! is deterministic. *Host time* is what producing it costs. This crate
//! measures both, end to end and layer by layer, on three workloads
//! built from the paper's four applications at paper scale (8 nodes,
//! 4 KiB pages, the paper's data sets). See `README.md` next to this
//! crate for the workloads, metrics and how to run it.
//!
//! Everything is measured from outside the program: the benchmark times
//! calls into public functions and reads the counters a
//! [`RunOutput`] already carries. It adds no tracing inside the program.

#![forbid(unsafe_code)]

mod layers;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ccl_apps::{fft3d, mg, shallow, water, App};
use ccl_core::{run_program, CrashPlan, Protocol, RunOutput};
use obsv::Scale;

/// The paper's late-crash point, shared with the report pipeline.
pub use obsv::report::CRASH_FRACTION;

/// Set-up samples taken before the first pass. One more follows every
/// pass, so the samples span the run like the passes do; `setup_s` is
/// the median of all of them.
const SETUP_REPS: usize = 3;

/// Pass set-ups timed back to back in one set-up sample. One set-up is
/// ~10-20 ms, near the 10 ms resolution of the steal counter, so a sample
/// spans several before the steal in it is taken out.
const SETUP_BATCH: usize = 4;

/// One named workload: a fixed list of `run_program` calls (a *pass*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The four applications under message logging, failure-free.
    FfMl,
    /// The four applications under no logging and under CCL, failure-free.
    FfCcl,
    /// The four applications under ML and CCL, each with one node crashing.
    CrashRecovery,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::FfMl, Workload::FfCcl, Workload::CrashRecovery];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FfMl => "ff-ml",
            Workload::FfCcl => "ff-ccl",
            Workload::CrashRecovery => "crash-recovery",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One `run_program` call of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// The application.
    pub app: App,
    /// Its fault-tolerance protocol.
    pub protocol: Protocol,
    /// `(node, after_barriers)` when one node crashes.
    pub crash: Option<(usize, u64)>,
}

fn app_index(app: App) -> usize {
    App::ALL
        .iter()
        .position(|a| *a == app)
        .expect("App::ALL lists every app")
}

/// Where the crash-recovery workload crashes `app`: `(node, after_barriers)`.
///
/// The barrier is always the report pipeline's late-crash point,
/// ⌊0.75 × barriers⌋, and seed 0 crashes node 1 everywhere, which
/// reproduces the Figure 5 cells of `REPORT_paper.json`. Other seeds
/// move the crash of 3D-FFT, MG and Shallow among the interior nodes
/// 1..=n-2, one base-(n-2) digit of the seed per application: those
/// nodes hold equal slabs of the block decomposition, so every seed
/// samples the same recovery cost. Water always crashes node 1: its
/// triangular force loop gives each node a different share of the
/// work, so moving its crash (or moving any crash barrier) would change
/// what the workload costs instead of sampling it.
pub fn crash_point(seed: u64, app: App, nodes: usize, barriers: u64) -> (usize, u64) {
    let after =
        ((barriers as f64 * CRASH_FRACTION) as u64).clamp(1, barriers.saturating_sub(1).max(1));
    let interior = nodes.saturating_sub(2).max(1) as u64;
    let node = match app {
        App::Water => 1,
        _ => 1 + (seed / interior.pow(app_index(app) as u32)) % interior,
    };
    (node as usize, after)
}

/// The calls of one pass of `workload`. `barriers[i]` is node 1's
/// barrier count for `App::ALL[i]` (only the crash workload reads it).
pub fn pass_calls(workload: Workload, seed: u64, nodes: usize, barriers: &[u64; 4]) -> Vec<Call> {
    let plain = |app, protocol| Call {
        app,
        protocol,
        crash: None,
    };
    let mut calls = Vec::new();
    for (i, app) in App::ALL.into_iter().enumerate() {
        match workload {
            Workload::FfMl => calls.push(plain(app, Protocol::Ml)),
            Workload::FfCcl => {
                calls.push(plain(app, Protocol::None));
                calls.push(plain(app, Protocol::Ccl));
            }
            Workload::CrashRecovery => {
                let crash = Some(crash_point(seed, app, nodes, barriers[i]));
                for protocol in [Protocol::Ml, Protocol::Ccl] {
                    calls.push(Call {
                        app,
                        protocol,
                        crash,
                    });
                }
            }
        }
    }
    calls
}

/// The correctness oracle: each application's serial reference digest
/// at the run's scale, and how long the serial reference took.
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// Reference digest per application, in `App::ALL` order.
    pub digests: [u64; 4],
    /// Host seconds of each serial reference computation (median of
    /// `SERIAL_REPS`, net of VM steal).
    pub serial_s: [f64; 4],
}

/// Timed repetitions of each serial reference computation.
const SERIAL_REPS: usize = 3;

impl Oracle {
    /// Compute every reference digest at `scale`, timing each.
    pub fn compute(scale: Scale) -> Oracle {
        let mut digests = [0; 4];
        let mut serial_s = [0.0; 4];
        for (i, app) in App::ALL.into_iter().enumerate() {
            let times: Vec<f64> = (0..SERIAL_REPS)
                .map(|_| {
                    let steal0 = vm_steal_s();
                    let t0 = Instant::now();
                    digests[i] = std::hint::black_box(reference_digest(scale, app));
                    t0.elapsed().as_secs_f64() - (vm_steal_s() - steal0)
                })
                .collect();
            serial_s[i] = median(&times);
        }
        Oracle { digests, serial_s }
    }
}

fn reference_digest(scale: Scale, app: App) -> u64 {
    match scale {
        Scale::Smoke => app.tiny_reference(),
        Scale::Paper => match app {
            App::Fft3d => fft3d::reference_digest(&fft3d::FftConfig::paper()),
            App::Mg => mg::reference_digest(&mg::MgConfig::paper()),
            App::Shallow => shallow::reference_digest(&shallow::ShallowConfig::paper()),
            App::Water => water::reference_digest(&water::WaterConfig::paper()),
        },
    }
}

/// Launch `call` at `scale`. A panic anywhere in the cluster becomes an
/// `Err` with its message.
fn launch(scale: Scale, call: &Call) -> Result<RunOutput<u64>, String> {
    let mut spec = scale.spec(call.app, call.protocol);
    if let Some((node, after)) = call.crash {
        spec = spec.with_crash(CrashPlan::new(node, after));
    }
    let app = call.app;
    catch_unwind(AssertUnwindSafe(|| match scale {
        Scale::Paper => run_program(spec, move |dsm| app.run_paper(dsm)),
        Scale::Smoke => run_program(spec, move |dsm| app.run_tiny(dsm)),
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// The oracle's verdict on one finished call.
fn check(call: &Call, out: &RunOutput<u64>, oracle: &Oracle) -> Result<(), String> {
    let want = oracle.digests[app_index(call.app)];
    if let Some(n) = out.nodes.iter().find(|n| n.result != want) {
        return Err(format!(
            "node {} digest {:#018x} != reference {want:#018x}",
            n.node, n.result
        ));
    }
    if call.crash.is_some() && out.recovery_time().is_none() {
        return Err("crash run has no recovery window".to_string());
    }
    let dropped: u64 = out.nodes.iter().map(|n| n.trace_dropped).sum();
    if dropped > 0 {
        return Err(format!("{dropped} trace events dropped"));
    }
    Ok(())
}

/// The virtual-clock outcome of one call. Deterministic: every pass of a
/// run must reproduce it exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Virtual {
    /// Virtual makespan (ns).
    pub exec_ns: u64,
    /// Virtual recovery window (ns), 0 without a crash.
    pub recovery_ns: u64,
    /// Stable-log bytes flushed cluster-wide.
    pub log_bytes: u64,
    /// Simulated network bytes sent cluster-wide.
    pub wire_bytes: u64,
}

impl Virtual {
    /// Read the virtual outcome of `out`.
    fn of(out: &RunOutput<u64>) -> Virtual {
        let total = out.total_stats();
        Virtual {
            exec_ns: out.exec_time().as_nanos(),
            recovery_ns: out.recovery_time().map_or(0, |d| d.as_nanos()),
            log_bytes: total.log_bytes,
            wire_bytes: total.bytes_sent,
        }
    }
}

/// Attempted and failed calls of a run, with the first failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// `run_program` calls attempted.
    pub attempted: u64,
    /// Calls that panicked, failed the oracle, or drifted in virtual time.
    pub failed: u64,
    /// Why calls failed (first few only).
    pub reasons: Vec<String>,
}

impl Tally {
    fn fail(&mut self, call: &Call, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(format!(
                "{} {}: {why}",
                call.app.name(),
                call.protocol.label()
            ));
        }
    }
}

/// Host times of one pass. Wall times are net of the steal time the
/// virtual machine reported meanwhile (see [`vm_steal_s`]).
#[derive(Debug, Clone)]
pub(crate) struct PassTimes {
    /// Net wall time of each call, in pass order (s).
    pub call_walls: Vec<f64>,
    /// Steal time over the pass's calls (s).
    pub steal_s: f64,
    /// Process user+sys CPU over the pass (s).
    pub cpu_s: f64,
    /// Net wall time of the whole pass, checks and `observe` included (s).
    pub elapsed_s: f64,
}

/// Runs passes of one workload and keeps the oracle, the determinism
/// reference and the tally.
pub(crate) struct Runner<'a> {
    pub(crate) scale: Scale,
    oracle: &'a Oracle,
    calls: Vec<Call>,
    /// The first pass's virtual outcome per call; later passes must match.
    golden: Vec<Option<Virtual>>,
    /// Attempted/failed bookkeeping.
    pub tally: Tally,
}

impl<'a> Runner<'a> {
    /// Prepare `workload` with `seed`. The crash workload first runs each
    /// application failure-free without logging to count node 1's
    /// barriers, as the report pipeline does; those calls are checked
    /// and tallied too.
    pub fn new(scale: Scale, oracle: &'a Oracle, workload: Workload, seed: u64) -> Runner<'a> {
        let mut tally = Tally::default();
        let mut barriers = [0u64; 4];
        if workload == Workload::CrashRecovery {
            for (i, app) in App::ALL.into_iter().enumerate() {
                let call = Call {
                    app,
                    protocol: Protocol::None,
                    crash: None,
                };
                tally.attempted += 1;
                match launch(scale, &call).and_then(|out| {
                    check(&call, &out, oracle)?;
                    Ok(out.nodes[1].stats.barriers)
                }) {
                    Ok(b) => barriers[i] = b,
                    Err(why) => {
                        tally.fail(&call, format!("barrier probe: {why}"));
                        barriers[i] = 2;
                    }
                }
            }
        }
        let calls = pass_calls(workload, seed, scale.nodes(), &barriers);
        Runner {
            scale,
            oracle,
            golden: vec![None; calls.len()],
            calls,
            tally,
        }
    }

    /// The calls of one pass.
    pub fn calls(&self) -> &[Call] {
        &self.calls
    }

    /// Launch cost of the pass: `run_program` on every call's spec with a
    /// program that returns at once (failure schedule dropped, since
    /// nothing runs long enough to reach it), summed over the pass. One
    /// sample: the mean of `SETUP_BATCH` back-to-back set-ups, net of
    /// VM steal.
    pub fn setup_s(&self) -> f64 {
        let steal0 = vm_steal_s();
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            for call in &self.calls {
                let spec = self.scale.spec(call.app, call.protocol);
                drop(std::hint::black_box(run_program(spec, |_| 0u64)));
            }
        }
        let net = t0.elapsed().as_secs_f64() - (vm_steal_s() - steal0);
        net / SETUP_BATCH as f64
    }

    /// Run one pass. `observe` sees every call's output after its wall
    /// time is taken (the traced run reads its counters there).
    pub fn pass(&mut self, mut observe: impl FnMut(&Call, &RunOutput<u64>)) -> PassTimes {
        let cpu0 = process_cpu_s();
        let pass_steal0 = vm_steal_s();
        let start = Instant::now();
        let mut call_walls = Vec::with_capacity(self.calls.len());
        let mut steal_s = 0.0;
        for (i, call) in self.calls.iter().enumerate() {
            self.tally.attempted += 1;
            let steal0 = vm_steal_s();
            let t0 = Instant::now();
            let res = launch(self.scale, call);
            let wall = t0.elapsed().as_secs_f64();
            let stolen = vm_steal_s() - steal0;
            call_walls.push(wall - stolen);
            steal_s += stolen;
            let out = match res {
                Ok(out) => out,
                Err(why) => {
                    self.tally.fail(call, format!("panicked: {why}"));
                    continue;
                }
            };
            if let Err(why) = check(call, &out, self.oracle) {
                self.tally.fail(call, why);
                continue;
            }
            let v = Virtual::of(&out);
            match self.golden[i] {
                None => self.golden[i] = Some(v),
                Some(g) if g != v => {
                    self.tally
                        .fail(call, format!("virtual drift: {v:?} != first pass {g:?}"));
                    continue;
                }
                Some(_) => {}
            }
            observe(call, &out);
        }
        PassTimes {
            call_walls,
            steal_s,
            cpu_s: process_cpu_s() - cpu0,
            elapsed_s: start.elapsed().as_secs_f64() - (vm_steal_s() - pass_steal0),
        }
    }

    /// Sum of the first pass's virtual outcomes over the pass's calls.
    pub fn virtual_totals(&self) -> Virtual {
        let mut t = Virtual::default();
        for v in self.golden.iter().flatten() {
            t.exec_ns += v.exec_ns;
            t.recovery_ns += v.recovery_ns;
            t.log_bytes += v.log_bytes;
            t.wire_bytes += v.wire_bytes;
        }
        t
    }

    /// Serial reference seconds for the pass: each call's application,
    /// once per call. The floor under `wall_s`.
    pub fn serial_ref_s(&self) -> f64 {
        self.calls
            .iter()
            .map(|c| self.oracle.serial_s[app_index(c.app)])
            .sum()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one benchmark invocation reports.
#[derive(Debug)]
pub struct Outcome {
    /// Attempted/failed calls and why.
    pub tally: Tally,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when no call failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed (crash placement; the failure-free workloads run the
    /// paper's fixed data sets and ignore it).
    pub seed: u64,
    /// Measuring time budget.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Paper scale, or the tiny instances the self-test uses.
    pub scale: Scale,
}

/// Run the benchmark with the oracle computed at the configured scale.
pub fn run(cfg: &Config) -> Outcome {
    run_with_oracle(cfg, &Oracle::compute(cfg.scale))
}

/// Run the benchmark against `oracle`.
///
/// Untraced: passes until the time budget is spent, then the
/// end-to-end metrics (host medians over passes; virtual totals of one
/// pass, which every pass must reproduce). Traced: untraced passes for
/// the first half of the budget, traced passes for the second, then the
/// per-layer timings and the accounting that closes them to `wall_s`.
///
/// `wall_s` is the sum over the pass's calls of each call's median net
/// wall time: wall time minus the steal time the virtual machine reported
/// during the call. Host contention stretches single calls, and a
/// per-call median discards a stretched call without discarding the
/// rest of its pass.
pub fn run_with_oracle(cfg: &Config, oracle: &Oracle) -> Outcome {
    let mut runner = Runner::new(cfg.scale, oracle, cfg.workload, cfg.seed);
    let mut setup: Vec<f64> = (0..SETUP_REPS).map(|_| runner.setup_s()).collect();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let untraced_budget = if cfg.trace { budget / 2 } else { budget };
    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(runner.pass(|_, _| {}));
        setup.push(runner.setup_s());
        if t0.elapsed() >= untraced_budget {
            break;
        }
    }
    let pass_walls: Vec<f64> = passes.iter().map(|p| p.call_walls.iter().sum()).collect();
    let wall_s: f64 = (0..runner.calls().len())
        .map(|i| median(&passes.iter().map(|p| p.call_walls[i]).collect::<Vec<_>>()))
        .sum();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let steals: Vec<f64> = passes.iter().map(|p| p.steal_s).collect();
    let (q1, med, q3) = quartiles(&pass_walls);
    let mut notes = vec![format!(
        "{} seed {}: {} passes of {} calls; net pass wall q1/median/q3 {q1:.4}/{med:.4}/{q3:.4} s; \
         steal per pass median {:.4} s max {:.4} s; wall_s (sum of per-call medians) {wall_s:.4} s; \
         setup_s median of {} samples",
        cfg.workload.name(),
        cfg.seed,
        passes.len(),
        runner.calls().len(),
        median(&steals),
        steals.iter().copied().fold(0.0, f64::max),
        setup.len()
    )];
    let metrics = if cfg.trace {
        let stolen: f64 = steals.iter().sum();
        let steal_pct =
            100.0 * stolen / (pass_walls.iter().sum::<f64>() + stolen).max(f64::MIN_POSITIVE);
        let elapsed: Vec<f64> = passes.iter().map(|p| p.elapsed_s).collect();
        layers::traced(
            &mut runner,
            (wall_s, median(&elapsed), steal_pct),
            t0,
            budget,
            &mut notes,
        )
    } else {
        let v = runner.virtual_totals();
        vec![
            metric("wall_s", wall_s, "s"),
            metric("cpu_s", median(&cpus), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric("setup_s", median(&setup), "s"),
            metric("sim_exec_s", v.exec_ns as f64 / 1e9, "sim_s"),
            metric("log_mb", v.log_bytes as f64 / 1e6, "MB"),
            metric("wire_mb", v.wire_bytes as f64 / 1e6, "MB"),
        ]
    };
    notes.extend(runner.tally.reasons.iter().map(|r| format!("FAILED {r}")));
    Outcome {
        tally: std::mem::take(&mut runner.tally),
        metrics,
        notes,
    }
}

/// Build a [`Metric`].
pub(crate) fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `xs` (0 when empty).
pub(crate) fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// First quartile, median and third quartile of `xs`, interpolated at
/// positions j·(n+1)/4 like Python's `statistics.quantiles(xs, n=4)`
/// (clamped to the samples instead of extrapolating); a single sample
/// is all three.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let q = |j: usize| {
                // Position j*(n+1)/4, 1-based, clamped to the samples.
                let pos = (j * (n + 1)) as f64 / 4.0;
                let lo = (pos.floor() as usize).clamp(1, n);
                let hi = (lo + 1).min(n);
                let frac = (pos - lo as f64).clamp(0.0, 1.0);
                v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
            };
            (q(1), q(2), q(3))
        }
    }
}

/// User+sys CPU seconds of this process, all threads, exited ones
/// included (`/proc/self/stat`, in clock ticks of 1/100 s).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    ticks as f64 / 100.0
}

/// Steal time of the virtual machine so far, summed over its CPUs: time
/// the hypervisor ran something else while a CPU of this machine had
/// work (`/proc/stat`, clock ticks of 1/100 s; 0 where not reported).
///
/// Every node thread waits on the slowest one under the conservative
/// scheduler, so a stolen CPU stalls the whole cluster: measured on a
/// 2-vCPU VM, each stolen CPU-second added about one second of wall
/// time to a call. Wall times are reported net of it.
fn vm_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or("");
    // "cpu user nice system idle iowait irq softirq steal ..."
    let steal: u64 = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|x| x.parse().ok())
        .unwrap_or(0);
    steal as f64 / 100.0
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}
