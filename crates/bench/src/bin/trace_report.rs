//! Analyze an `alperf-obs-v1` trace: self-time profile, flamegraph
//! export, critical-path extraction, and cross-run diffing.
//!
//! Usage:
//!   trace_report <trace.jsonl>                     # self-time table
//!   trace_report --json <trace.jsonl>              # table as JSON
//!   trace_report --folded <trace.jsonl>            # folded stacks (stdout)
//!   trace_report --folded-samples <trace.jsonl>    # folded profiler samples
//!   trace_report --critical-path <name> <trace.jsonl>
//!   trace_report --diff <a.jsonl> <b.jsonl> [--json] [--threshold <pct>] [--seed <n>]
//!   trace_report --postmortem <blackbox.jsonl> [--window-s <s>]
//!
//! Folded output feeds any flamegraph renderer:
//!   trace_report --folded trace.jsonl > trace.folded
//!   inferno-flamegraph < trace.folded > flame.svg   # or flamegraph.pl / speedscope
//!
//! `--folded` weights frames by span *self time*; `--folded-samples`
//! weights by profiler *sample count* (wall-clock incidence, including
//! blocked time), so the two flamegraphs are directly comparable.
//!
//! `--postmortem` reads an `alperf-blackbox-v1` flight-recorder dump
//! (written on panic, executor fault, or exit when the recorder is
//! armed) and reconstructs the final seconds: the span tree that was in
//! flight and the record traffic.
//!
//! Exit codes: 0 ok; 1 malformed trace, broken span tree, or (--diff)
//! significant regressions found; 2 usage; 3 unreadable input; 4 empty
//! trace; 5 unknown schema.

use alperf_obs::json;
use alperf_trace::{
    aggregate, child_coverage, critical_path, diff_traces, folded_stacks, read_path,
    render_diff_json, render_diff_table, sampled_stacks, significant_regressions, DiffConfig,
    SpanForest, Trace,
};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace_report [--json] <trace.jsonl>\n\
         \x20      trace_report --folded <trace.jsonl>\n\
         \x20      trace_report --folded-samples <trace.jsonl>\n\
         \x20      trace_report --critical-path <name> <trace.jsonl>\n\
         \x20      trace_report --diff <a.jsonl> <b.jsonl> [--json] [--threshold <pct>] [--seed <n>]\n\
         \x20      trace_report --postmortem <blackbox.jsonl> [--window-s <s>]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Trace, ExitCode> {
    read_path(Path::new(path)).map_err(|e| {
        eprintln!("trace_report: {path}: {e}");
        ExitCode::from(e.exit_code())
    })
}

fn forest_of(trace: &Trace, path: &str) -> Result<SpanForest, ExitCode> {
    SpanForest::build(&trace.spans).map_err(|e| {
        eprintln!("trace_report: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn report_table(trace: &Trace, forest: &SpanForest, as_json: bool) {
    let stats = aggregate(forest);
    if as_json {
        let mut out = String::from("{\"schema\":\"alperf-trace-report-v1\",\"spans\":[");
        for (i, s) in stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut name = String::new();
            json::escape_into(&mut name, &s.name);
            out.push_str(&format!(
                "{{\"name\":{name},\"count\":{},\"total_ns\":{},\"self_ns\":{},\
                 \"min_ns\":{},\"max_ns\":{}}}",
                s.count, s.total_ns, s.self_ns, s.min_ns, s.max_ns
            ));
        }
        out.push(']');
        if let Some(cov) = child_coverage(forest, "al.iteration") {
            out.push_str(&format!(
                ",\"al_iteration\":{{\"count\":{},\"total_ns\":{},\"children_ns\":{},\
                 \"child_coverage_pct\":{}}}",
                cov.count,
                cov.total_ns,
                cov.children_ns,
                json::number(cov.pct())
            ));
        }
        out.push('}');
        println!("{out}");
        return;
    }
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "min_ms", "max_ms"
    );
    for s in &stats {
        println!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.min_ns as f64 / 1e6,
            s.max_ns as f64 / 1e6
        );
    }
    println!(
        "\n{} spans in {} trees, {} records, {} profiler samples",
        forest.len(),
        forest.roots.len(),
        trace.records.len(),
        trace.samples.len()
    );
    if let Some(cov) = child_coverage(forest, "al.iteration") {
        println!(
            "al.iteration: {} iterations, {:.3} ms total, children cover {:.2}% \
             (fit/predict/select decomposition)",
            cov.count,
            cov.total_ns as f64 / 1e6,
            cov.pct()
        );
    }
}

fn run_diff(args: &[String]) -> ExitCode {
    let mut cfg = DiffConfig::default();
    let mut as_json = false;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => as_json = true,
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) => cfg.threshold = pct / 100.0,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(seed) => cfg.seed = seed,
                None => return usage(),
            },
            _ if a.starts_with("--") => return usage(),
            _ => paths.push(a),
        }
    }
    let [pa, pb] = paths.as_slice() else {
        return usage();
    };
    let (a, b) = match (load(pa), load(pb)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(c), _) | (_, Err(c)) => return c,
    };
    let diffs = diff_traces(&a, &b, &cfg);
    if as_json {
        print!("{}", render_diff_json(&diffs, &cfg));
    } else {
        print!("{}", render_diff_table(&diffs));
    }
    let regressions = significant_regressions(&diffs);
    if regressions > 0 {
        eprintln!(
            "trace_report: {regressions} significant regression(s) at the \
             {:.1}% threshold",
            cfg.threshold * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--diff") => run_diff(&args[1..]),
        Some("--postmortem") => {
            let (path, window_s) = match args[1..] {
                [ref path] => (path, 10.0),
                [ref path, ref flag, ref s] if flag == "--window-s" => match s.parse::<f64>() {
                    Ok(v) if v > 0.0 => (path, v),
                    _ => return usage(),
                },
                _ => return usage(),
            };
            match alperf_trace::read_dump(Path::new(path)) {
                Ok(pm) => {
                    print!("{}", pm.render((window_s * 1e9) as u64));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("trace_report: {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--folded") => {
            let [_, path] = args.as_slice() else {
                return usage();
            };
            let trace = match load(path) {
                Ok(t) => t,
                Err(c) => return c,
            };
            let forest = match forest_of(&trace, path) {
                Ok(f) => f,
                Err(c) => return c,
            };
            print!("{}", folded_stacks(&forest));
            ExitCode::SUCCESS
        }
        Some("--folded-samples") => {
            let [_, path] = args.as_slice() else {
                return usage();
            };
            let trace = match load(path) {
                Ok(t) => t,
                Err(c) => return c,
            };
            if trace.samples.is_empty() {
                eprintln!(
                    "trace_report: {path} has no profiler samples \
                     (run with ALPERF_OBS_SAMPLE_HZ set)"
                );
                return ExitCode::FAILURE;
            }
            print!("{}", sampled_stacks(&trace.samples));
            ExitCode::SUCCESS
        }
        Some("--critical-path") => {
            let [_, name, path] = args.as_slice() else {
                return usage();
            };
            let trace = match load(path) {
                Ok(t) => t,
                Err(c) => return c,
            };
            let forest = match forest_of(&trace, path) {
                Ok(f) => f,
                Err(c) => return c,
            };
            match critical_path(&forest, name) {
                Some(cp) => {
                    print!("{}", cp.render());
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("trace_report: no span named {name:?} in {path}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(_) => {
            let (as_json, path) = match args.as_slice() {
                [path] if !path.starts_with("--") => (false, path),
                [flag, path] if flag == "--json" => (true, path),
                _ => return usage(),
            };
            let trace = match load(path) {
                Ok(t) => t,
                Err(c) => return c,
            };
            let forest = match forest_of(&trace, path) {
                Ok(f) => f,
                Err(c) => return c,
            };
            report_table(&trace, &forest, as_json);
            ExitCode::SUCCESS
        }
        None => usage(),
    }
}
