//! `albench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Campaigns run on `min(2, nproc)` worker threads. Prints a table per
//! workload, then one JSON line: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`. Exits nonzero when any output
//! check fails.

use albench::{metrics_json, run, Options, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: albench --workload <fig7-noise-floor|fig8-cost-exhaustion|claims-grid|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse() -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = None;
    let mut opts = Options {
        seed: 1,
        seconds: 55.0,
        trace: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        scratch: PathBuf::from(".bench_out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                workloads = Some(vec![
                    Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?
                ])
            }
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for --seconds: {value:?}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 3600.0) {
                    return Err("--seconds must be in [0, 3600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workloads.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let (workloads, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let single = workloads.len() == 1;
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut metrics = Vec::new();
    let outcomes: Vec<_> = workloads.iter().map(|&w| run(w, &opts)).collect();
    for o in &outcomes {
        println!("== {}", o.summary);
        for m in o.end_to_end.iter().chain(&o.per_layer) {
            println!(
                "  {:<28} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "  {:<28} {:>16.6} {:<6} {} of {} campaigns and checks",
            "failed_frac",
            o.failed_frac(),
            "ratio",
            o.failures.len(),
            o.attempted
        );
        for f in o.failures.iter().take(20) {
            println!("  FAILED: {f}");
        }
        attempted += o.attempted;
        failed += o.failures.len() as u64;
        correct &= o.correct();
        let shown = if opts.trace {
            &o.per_layer
        } else {
            &o.end_to_end
        };
        for m in shown {
            let name = if single {
                m.name.to_string()
            } else {
                format!("{}/{}", o.workload.name(), m.name)
            };
            metrics.push((name, m));
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
