//! Command line of the lifecycle benchmark.
//!
//! ```sh
//! # Timed run (obs off): every end-to-end metric, then one JSON line.
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-umd317 --seed 1 --seconds 15 --trace 0
//!
//! # Traced run: per-layer metrics and per-phase attribution.
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn-tier512 --seed 1 --seconds 15 --trace 1
//! ```
//!
//! Exits 1 when a correctness check fails (after printing the result with
//! `"correct": false`) and 2 on a bad command line (printing no result).

use std::process::ExitCode;

use bcc_bench::BenchArgs;
use bcc_perfbench::report::{self, Opts};
use bcc_perfbench::WORKLOADS;

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn parse() -> Result<(String, Opts), String> {
    let args = BenchArgs::from_env();
    args.expect_known(
        &[],
        &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--threads",
            "--universe-seed",
        ],
    )?;
    let workload = args
        .value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let trace = match args.parsed_or::<u8>("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = args.parsed_or::<f64>("--seconds", 10.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.parsed_or::<usize>("--threads", 1)?;
    if threads == 0 || threads > cores {
        return Err(format!("--threads must be in 1..={cores}, not {threads}"));
    }
    let universe_seed = args.parsed::<u64>("--universe-seed")?;
    if universe_seed.is_some() && workload == "shard-block512" {
        return Err("the block universe has no seed; drop --universe-seed".into());
    }
    Ok((
        workload,
        Opts {
            seed: args.parsed_or("--seed", 1)?,
            seconds,
            trace,
            threads,
            universe_seed,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = bcc_perfbench::run(&workload, &opts);
    for line in report::summary(&run, &opts) {
        println!("{line}");
    }
    let metrics = if opts.trace {
        let (metrics, lines) = report::per_layer(&run, opts.threads);
        for line in lines {
            println!("{line}");
        }
        metrics
    } else {
        let (metrics, notes) = report::end_to_end(&run, peak_rss_mb());
        for note in notes {
            println!("{note}");
        }
        metrics
    };
    for mt in &metrics {
        println!("{:<44} {:>16.6} {}", mt.name, mt.value, mt.unit);
    }
    let correct = run.correct();
    let (attempted, failed) = report::counts(&run);
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
