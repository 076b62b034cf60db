//! End-to-end AL-campaign benchmark.
//!
//! Three workloads drive the repository's layers through their public
//! functions and trait seams only — cluster simulation, dataset CSV /
//! subset / partition, the AL runner with probed strategy, oracle and
//! kernel, and the campaign-grid executor and ranking:
//!
//! * `fig7-noise-floor` — many small hyperparameter fits;
//! * `fig8-cost-exhaustion` — large-n fits and the cost axis;
//! * `claims-grid` — 1008 tiny campaigns with faults and file commits.
//!
//! A run sets the workload up a fixed number of times (mean reported),
//! then runs passes — each with fresh partitions or grid seeds drawn from
//! the run seed — while the next one should end before the time is up.
//! Quality and count metrics come from a fixed number of leading passes,
//! so they repeat exactly; timings cover every pass, so the seed-to-seed
//! spread of the work averages out. A pass that repeats must reproduce
//! its outputs bit for bit. A traced run interleaves untraced and traced
//! passes and reports the per-layer split and the tracing overhead.

pub mod campaign;
pub mod grid;
pub mod paper;
pub mod probe;
pub mod stats;

use campaign::PassResult;
use probe::now_ns;
use stats::{mean, median, percentile};
use std::path::PathBuf;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Fig. 7: VR under both noise floors, refit every iteration.
    Fig7,
    /// Paper Fig. 8: VR and CE to pool exhaustion on the cost axis.
    Fig8,
    /// The 1008-config paper-claims grid.
    ClaimsGrid,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Fig7, Workload::Fig8, Workload::ClaimsGrid];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7 => "fig7-noise-floor",
            Workload::Fig8 => "fig8-cost-exhaustion",
            Workload::ClaimsGrid => "claims-grid",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Set-ups per run: `setup_s` is their summed time over the count. A
/// paper set-up takes ~25 ms and a grid set-up ~3 ms, so each batch takes
/// about two seconds, long enough that timer and scheduler jitter and
/// short swings in host speed average out.
fn setup_reps(w: Workload) -> usize {
    match w {
        Workload::Fig7 | Workload::Fig8 => 80,
        Workload::ClaimsGrid => 600,
    }
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring time after set-up; the quality passes always run in
    /// full, even past it.
    pub seconds: f64,
    /// Also run traced passes and report the per-layer split.
    pub trace: bool,
    /// Pool width: campaigns run on this many worker threads.
    pub threads: usize,
    /// Directory for the grid's summary file (created, then cleaned).
    pub scratch: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was measured (sample count), for the human-readable table.
    pub note: String,
}

/// The result of running one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Which workload.
    pub workload: Workload,
    /// Campaigns and set-ups attempted.
    pub attempted: u64,
    /// Failed campaigns and output checks, one message each.
    pub failures: Vec<String>,
    /// End-to-end metrics (from untraced passes).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// One-line description of what ran.
    pub summary: String,
}

impl Outcome {
    /// All checks passed and every reported value is finite.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .all(|m| m.value.is_finite())
    }

    /// `failed / attempted`, the share of campaigns and checks that
    /// failed.
    pub fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// `(simulate ns, prepare ns, items)` of one set-up.
type SetupLayers = (u64, u64, u64);

enum Prepared {
    Paper(paper::PaperSetup),
    Grid(grid::GridSetup),
}

impl Prepared {
    /// Passes with distinct inputs; a run that gets further repeats them.
    fn distinct_passes(&self) -> usize {
        match self {
            Prepared::Paper(s) => s.passes.len(),
            Prepared::Grid(s) => s.grids.len(),
        }
    }

    /// The leading passes that quality and count metrics come from.
    fn quality_passes(&self) -> usize {
        match self {
            Prepared::Paper(s) => paper::layout(s.figure).1,
            Prepared::Grid(_) => grid::QUALITY_PASSES,
        }
    }

    fn pass(&self, p: usize, width: usize, traced: bool) -> PassResult {
        match self {
            Prepared::Paper(s) => s.pass(p, width, traced),
            Prepared::Grid(s) => s.pass(p, width, traced),
        }
    }

    /// What must not change between repeated set-ups.
    fn fingerprint(&self) -> Vec<u64> {
        match self {
            Prepared::Paper(s) => {
                s.y.iter()
                    .chain(&s.cost)
                    .chain(s.x.as_slice())
                    .map(|v| v.to_bits())
                    .chain(
                        s.passes
                            .iter()
                            .flatten()
                            .flat_map(|c| c.part.active.iter().map(|&r| r as u64)),
                    )
                    .collect()
            }
            Prepared::Grid(s) => s
                .grids
                .iter()
                .flat_map(|g| &g.configs)
                .map(|c| c.run_seed)
                .collect(),
        }
    }

    fn setup_layers(&self) -> SetupLayers {
        match self {
            Prepared::Paper(s) => (s.simulate_ns, s.prepare_ns, s.jobs),
            Prepared::Grid(s) => (s.simulate_ns, s.expand_ns, s.grids[0].configs.len() as u64),
        }
    }
}

fn prepare(w: Workload, opts: &Options) -> Result<Prepared, String> {
    match w {
        Workload::Fig7 => {
            paper::setup(paper::Figure::Fig7, opts.seed, opts.threads).map(Prepared::Paper)
        }
        Workload::Fig8 => {
            paper::setup(paper::Figure::Fig8, opts.seed, opts.threads).map(Prepared::Paper)
        }
        Workload::ClaimsGrid => {
            let out = opts
                .scratch
                .join(format!("claims-grid-{}.jsonl", std::process::id()));
            grid::setup(opts.seed, out).map(Prepared::Grid)
        }
    }
}

/// Set up `w` [`setup_reps`] times; every set-up must produce the same
/// inputs. Returns the first set-up, the mean seconds per set-up (the
/// checks between set-ups untimed) and each set-up's layer split, or
/// `None` after a set-up error.
fn set_up(
    w: Workload,
    opts: &Options,
    failures: &mut Vec<String>,
) -> Option<(Prepared, f64, Vec<SetupLayers>)> {
    let reps = setup_reps(w);
    let mut first: Option<(Prepared, Vec<u64>)> = None;
    let mut deterministic = true;
    let mut layers = Vec::with_capacity(reps);
    let mut total_ns = 0;
    for _ in 0..reps {
        let t0 = now_ns();
        let p = match prepare(w, opts) {
            Ok(p) => p,
            Err(e) => {
                failures.push(format!("set-up: {e}"));
                return None;
            }
        };
        total_ns += now_ns() - t0;
        layers.push(p.setup_layers());
        match &first {
            Some((_, seen)) => deterministic &= *seen == p.fingerprint(),
            None => {
                let fp = p.fingerprint();
                first = Some((p, fp));
            }
        }
    }
    if !deterministic {
        failures.push("set-up is not deterministic".into());
    }
    let secs = total_ns as f64 / 1e9 / reps as f64;
    first.map(|(p, _)| (p, secs, layers))
}

/// Reset this process's peak resident set size, so that `VmHWM` covers
/// only what runs next (Linux `clear_refs`, value 5).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Run one workload end to end.
pub fn run(w: Workload, opts: &Options) -> Outcome {
    let mut out = Outcome {
        workload: w,
        attempted: 0,
        failures: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        summary: String::new(),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        out.failures
            .push(format!("create {}: {e}", opts.scratch.display()));
        return out;
    }

    // `--workload all` runs the workloads in one process; each reports
    // its own peak.
    let rss_reset = reset_peak_rss();
    out.attempted += 1;
    let Some((prepared, setup_s, setup_layers)) = set_up(w, opts, &mut out.failures) else {
        return out;
    };

    // Run the quality passes, then more passes while the next one (taken
    // to last as long as the previous one) ends before the time is up.
    let (distinct, quality) = (prepared.distinct_passes(), prepared.quality_passes());
    let deadline = now_ns() + (opts.seconds * 1e9) as u64;
    let mut first_seen: Vec<Vec<u64>> = Vec::new();
    let (mut plain, mut traced): (Vec<PassResult>, Vec<PassResult>) = (Vec::new(), Vec::new());
    let (mut i, mut last_ns) = (0, 0);
    while i < quality || now_ns() + last_ns <= deadline {
        let started = now_ns();
        let p = i % distinct;
        // Alternate which mode goes first so drift does not bias the
        // overhead ratio.
        let modes: &[bool] = match (opts.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &t in modes {
            let r = prepared.pass(p, opts.threads, t);
            out.attempted += r.attempted;
            out.failures.extend(r.failures.iter().cloned());
            if p == first_seen.len() {
                first_seen.push(r.fingerprint.clone());
            } else if first_seen[p] != r.fingerprint {
                out.failures.push(format!(
                    "pass {p} ({}) did not reproduce its earlier outputs",
                    if t { "traced" } else { "untraced" }
                ));
            }
            if t {
                traced.push(r);
            } else {
                plain.push(r);
            }
        }
        last_ns = now_ns() - started;
        i += 1;
    }
    if let Prepared::Grid(g) = &prepared {
        let _ = std::fs::remove_file(&g.out);
    }
    let _ = std::fs::remove_dir(&opts.scratch);

    out.summary = format!(
        "{}: seed {}, width {}, {} passes (quality from the first {}), {} campaigns, trace {}",
        w.name(),
        opts.seed,
        opts.threads,
        plain.len(),
        quality,
        plain.iter().map(|r| r.attempted).sum::<u64>(),
        if opts.trace { "on" } else { "off" },
    );
    out.end_to_end = end_to_end(
        (setup_s, setup_reps(w)),
        rss_reset,
        &plain[..quality],
        &plain,
    );
    if opts.trace {
        out.per_layer = per_layer(&setup_layers, &traced[..quality], &traced, &plain);
    }
    out
}

fn end_to_end(
    (setup_s, setups): (f64, usize),
    rss_reset: bool,
    first: &[PassResult],
    all: &[PassResult],
) -> Vec<Metric> {
    let walls: Vec<f64> = all.iter().map(|r| r.wall_ns as f64 / 1e9).collect();
    let iters: u64 = all.iter().map(|r| r.iterations).sum();
    let gaps: Vec<f64> = all
        .iter()
        .flat_map(|r| &r.probed)
        .flat_map(|c| &c.gaps_ns)
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let campaign_ms: Vec<f64> = all
        .iter()
        .flat_map(|r| r.campaign_ms.iter().copied())
        .collect();
    let final_rmse: Vec<f64> = first
        .iter()
        .flat_map(|r| r.final_rmse.iter().copied())
        .collect();
    let auc: Vec<f64> = first.iter().flat_map(|r| r.auc.iter().copied()).collect();
    let (np, ng, nc) = (walls.len(), gaps.len(), campaign_ms.len());
    vec![
        metric("setup_s", setup_s, "s", format!("mean of {setups} set-ups")),
        metric(
            "run_s",
            median(&walls),
            "s",
            format!("median of {np} passes"),
        ),
        metric(
            "iters_per_s",
            iters as f64 / walls.iter().sum::<f64>(),
            "1/s",
            format!("{iters} iterations over {np} passes"),
        ),
        metric(
            "decision_ms_p50",
            percentile(&gaps, 0.5),
            "ms",
            format!("{ng} selections"),
        ),
        metric(
            "decision_ms_p95",
            percentile(&gaps, 0.95),
            "ms",
            format!("{ng} selections"),
        ),
        metric(
            "campaign_ms_p50",
            percentile(&campaign_ms, 0.5),
            "ms",
            format!("{nc} campaigns"),
        ),
        metric(
            "final_rmse",
            mean(&final_rmse),
            "log10",
            format!("mean of {} campaigns", final_rmse.len()),
        ),
        metric(
            "rmse_cost_auc",
            mean(&auc),
            "log10",
            format!("mean of {} campaigns", auc.len()),
        ),
        metric(
            "peak_rss_mb",
            peak_rss_mb(),
            "MB",
            if rss_reset {
                "VmHWM since the workload started"
            } else {
                "VmHWM of the process (reset failed)"
            },
        ),
    ]
}

fn per_layer(
    setup_layers: &[SetupLayers],
    first: &[PassResult],
    traced: &[PassResult],
    plain: &[PassResult],
) -> Vec<Metric> {
    let s = |ns: u64| ns as f64 / 1e9;
    let med = |f: &dyn Fn(&SetupLayers) -> u64| {
        median(&setup_layers.iter().map(|l| f(l) as f64).collect::<Vec<_>>())
    };
    let probed = || first.iter().flat_map(|r| &r.probed);
    let sum = |f: &dyn Fn(&campaign::CampaignStats) -> u64| probed().map(f).sum::<u64>();
    let selects = sum(&|c| c.select.calls);
    let trials = sum(&|c| c.kernel.0);
    // Probed campaign time: the counting kernel runs only there (on the
    // grid, in the replayed sample).
    let wall = |rs: &[PassResult]| {
        rs.iter()
            .flat_map(|r| &r.probed)
            .map(|c| c.wall_ns)
            .sum::<u64>() as f64
    };
    let n = probed().count();
    let sample = format!("{n} probed campaigns");
    vec![
        metric(
            "input.simulate_s",
            med(&|l| l.0) / 1e9,
            "s",
            "cluster Campaign::run / grid synthesize",
        ),
        metric(
            "input.prepare_s",
            med(&|l| l.1) / 1e9,
            "s",
            "CSV+subset+partition / GridSpec::expand",
        ),
        metric(
            "input.items",
            med(&|l| l.2),
            "count",
            "cluster jobs / grid configs",
        ),
        metric(
            "al.campaign_s",
            first.iter().flat_map(|r| &r.campaign_ms).sum::<f64>() / 1e3,
            "s",
            "sum of campaign wall times",
        ),
        metric(
            "al.update_s",
            s(sum(&|c| c.gaps_ns.iter().sum())),
            "s",
            sample.clone(),
        ),
        metric(
            "al.select_s",
            s(sum(&|c| c.select.select_ns)),
            "s",
            sample.clone(),
        ),
        metric("al.select_calls", selects as f64, "count", sample.clone()),
        metric("al.oracle_s", s(sum(&|c| c.oracle.0)), "s", sample.clone()),
        metric(
            "al.oracle_calls",
            sum(&|c| c.oracle.1) as f64,
            "count",
            sample.clone(),
        ),
        metric(
            "al.oracle_lost",
            sum(&|c| c.oracle.2) as f64,
            "count",
            sample.clone(),
        ),
        metric(
            "al.train_n_max",
            probed().map(|c| c.select.train_n_max).max().unwrap_or(0) as f64,
            "count",
            sample.clone(),
        ),
        metric(
            "al.noise_floor_bound_frac",
            sum(&|c| c.select.floor_bound) as f64 / selects.max(1) as f64,
            "ratio",
            sample.clone(),
        ),
        metric("gp.hyper_trials", trials as f64, "count", sample.clone()),
        metric(
            "gp.hyper_trials_per_iter",
            trials as f64 / selects.max(1) as f64,
            "count",
            sample.clone(),
        ),
        metric("gp.cross_s", s(sum(&|c| c.kernel.2)), "s", sample.clone()),
        metric(
            "gp.cross_calls",
            sum(&|c| c.kernel.1) as f64,
            "count",
            sample.clone(),
        ),
        metric(
            "linalg.chol_flops_computed",
            probed().map(|c| c.select.chol_flops).sum(),
            "flop",
            "computed: trials x n^3/3",
        ),
        metric(
            "analysis.rank_s",
            s(first.iter().map(|r| r.rank_ns).sum()),
            "s",
            "quality passes",
        ),
        metric(
            "grid.commit_bytes",
            first.iter().map(|r| r.commit_bytes).sum::<u64>() as f64,
            "bytes",
            "summary JSONL",
        ),
        metric(
            "bench.trace_overhead_frac",
            wall(traced) / wall(plain) - 1.0,
            "ratio",
            format!("{} traced vs {} untraced passes", traced.len(), plain.len()),
        ),
    ]
}

/// Render a metric list as the JSON `metrics` object.
pub fn metrics_json(metrics: &[(String, &Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
