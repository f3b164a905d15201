//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ff-ml|ff-ccl|crash-recovery> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable notes go to standard error; the last line of standard
//! output is the JSON result.

use ccl_perfbench::{run, Config, Workload};

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <ff-ml|ff-ccl|crash-recovery> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let outcome = run(&Config {
        workload,
        seed,
        seconds,
        trace,
        scale: obsv::Scale::Paper,
    });
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    println!("{}", outcome.json());
}
