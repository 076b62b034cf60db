//! Validate an `alperf-obs-v1` JSONL trace file — the CI gate that keeps
//! the telemetry schema honest.
//!
//! Usage:
//!   validate_trace <trace.jsonl>
//!   validate_trace --blackbox <dump.jsonl>
//!
//! Built on the shared `alperf-trace` reader (the same parser every
//! analysis consumer uses, so the validator can never drift from them).
//! Checks, in order:
//! * the file reads under schema `alperf-obs-v1` (first line is the meta
//!   record; every line parses as a typed v1 event);
//! * the spans reconstruct into a *connected* forest — every span that
//!   declares a parent resolves to it, including spans emitted on rayon
//!   worker threads (the cross-thread parentage invariant);
//! * `al.iteration` records carry the per-iteration payload and a
//!   strictly increasing `iter` per `run` id;
//! * profiler stack samples (when present) have non-empty stacks and
//!   monotone timestamps per sampled thread.
//!
//! `--blackbox` instead validates an `alperf-blackbox-v1` flight
//! recorder dump: meta first line with the right schema and a dump
//! reason, every event line well-formed with a known kind and
//! non-decreasing timestamps.
//!
//! Exit codes: 0 valid; 1 malformed content or violated invariant;
//! 2 usage; 3 unreadable input; 4 empty trace; 5 unknown schema.

use alperf_trace::{read_path, SpanForest, Trace};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn check_iterations(trace: &Trace) -> Result<usize, String> {
    let mut iterations = 0usize;
    // run id -> last seen iteration index for the monotonicity check.
    let mut last_iter: BTreeMap<u64, u64> = BTreeMap::new();
    for rec in trace.records_named("al.iteration") {
        iterations += 1;
        let f = |key: &str| {
            rec.f64(key)
                .ok_or_else(|| format!("al.iteration record missing numeric \"{key}\""))
        };
        // Presence of the per-iteration payload.
        for key in ["rmse", "amsd", "sigma", "cum_cost", "fit_ns", "pool_size"] {
            f(key)?;
        }
        rec.str("refit")
            .ok_or("al.iteration record missing \"refit\"")?;
        let run = f("run")? as u64;
        let iter = f("iter")? as u64;
        if let Some(&prev) = last_iter.get(&run) {
            if iter <= prev {
                return Err(format!(
                    "run {run} iteration index not monotone ({prev} then {iter})"
                ));
            }
        }
        last_iter.insert(run, iter);
    }
    Ok(iterations)
}

fn check_samples(trace: &Trace) -> Result<usize, String> {
    // tid -> last sample timestamp: the sampler sweeps each thread's
    // mirror with a monotonic clock, so per-thread capture times may tie
    // but never go backwards.
    let mut last_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &trace.samples {
        if s.stack.is_empty() {
            return Err("profiler sample with an empty stack".into());
        }
        if let Some(&prev) = last_ns.get(&s.tid) {
            if s.t_ns < prev {
                return Err(format!(
                    "thread {} sample timestamps not monotone ({prev} then {})",
                    s.tid, s.t_ns
                ));
            }
        }
        last_ns.insert(s.tid, s.t_ns);
    }
    Ok(trace.samples.len())
}

/// Validate an `alperf-blackbox-v1` flight-recorder dump.
fn check_blackbox(path: &str) -> Result<String, (u8, String)> {
    let text =
        std::fs::read_to_string(path).map_err(|e| (3u8, format!("cannot read input: {e}")))?;
    let mut lines = text.lines().enumerate();
    let Some((_, meta)) = lines.next() else {
        return Err((4, "empty dump".into()));
    };
    let meta = alperf_obs::json::parse(meta).map_err(|e| (1u8, format!("meta line: {e}")))?;
    match meta.get("schema").and_then(|s| s.as_str()) {
        Some("alperf-blackbox-v1") => {}
        Some(other) => return Err((5, format!("unknown schema {other:?}"))),
        None => return Err((1, "meta line missing \"schema\"".into())),
    }
    if meta.get("reason").and_then(|r| r.as_str()).is_none() {
        return Err((1, "meta line missing \"reason\"".into()));
    }
    let (mut events, mut last_ns) = (0usize, 0u64);
    for (i, line) in lines {
        let bad = |msg: String| (1u8, format!("line {}: {msg}", i + 1));
        let v = alperf_obs::json::parse(line).map_err(&bad)?;
        match v.get("t").and_then(|t| t.as_str()) {
            Some("bb") => {
                events += 1;
                match v.get("kind").and_then(|k| k.as_str()) {
                    Some("span") | Some("record") => {}
                    k => return Err(bad(format!("unknown event kind {k:?}"))),
                }
                if v.get("name").and_then(|n| n.as_str()).is_none() {
                    return Err(bad("event missing \"name\"".into()));
                }
                let t_ns = v
                    .get("t_ns")
                    .and_then(|t| t.as_f64())
                    .ok_or_else(|| bad("event missing numeric \"t_ns\"".into()))?
                    as u64;
                if t_ns < last_ns {
                    return Err(bad(format!(
                        "event timestamps not sorted ({last_ns} then {t_ns})"
                    )));
                }
                last_ns = t_ns;
            }
            t => return Err(bad(format!("unknown line type {t:?}"))),
        }
    }
    if events == 0 {
        return Err((4, "dump has no events".into()));
    }
    Ok(format!(
        "{events} flight-recorder events under schema alperf-blackbox-v1"
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--blackbox") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: validate_trace --blackbox <dump.jsonl>");
            return ExitCode::from(2);
        };
        return match check_blackbox(path) {
            Ok(summary) => {
                println!("{path}: OK — {summary}");
                ExitCode::SUCCESS
            }
            Err((code, msg)) => {
                eprintln!("{path}: INVALID — {msg}");
                ExitCode::from(code)
            }
        };
    }
    let Some(path) = args.into_iter().next() else {
        eprintln!("usage: validate_trace <trace.jsonl> | validate_trace --blackbox <dump.jsonl>");
        return ExitCode::from(2);
    };
    let trace = match read_path(Path::new(&path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            return ExitCode::from(e.exit_code());
        }
    };
    let forest = match SpanForest::build(&trace.spans) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_iterations(&trace).and_then(|iters| Ok((iters, check_samples(&trace)?))) {
        Ok((iterations, samples)) => {
            println!(
                "{path}: OK — {} spans in {} connected trees, {} records \
                 ({iterations} al.iteration), \
                 {samples} profiler samples under schema {}",
                forest.len(),
                forest.roots.len(),
                trace.records.len(),
                trace.schema
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{path}: INVALID — {msg}");
            ExitCode::FAILURE
        }
    }
}
