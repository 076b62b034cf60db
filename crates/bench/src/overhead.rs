//! Shared telemetry-overhead measurement, used by both the
//! `obs_overhead` report binary and the `bench_gate` CI gate (which must
//! measure *exactly* the same thing the checked-in baseline recorded).
//!
//! Measures the instrumented fit and batched-predict paths with telemetry
//! disabled and enabled, plus the per-site disabled primitive cost.
//! Timings use `std::time::Instant` directly — the one place that cannot
//! route through the layer it is measuring. Absolute times are minima
//! over interleaved rounds; overhead percentages are medians of per-round
//! on/off ratios — the statistics that survive a noisy, time-shared VM.

use alperf_gp::kernel::SquaredExponential;
use alperf_gp::model::Gpr;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{fit_gpr, GprConfig};
use alperf_linalg::matrix::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// The telemetry overhead budget, percent of hot-path runtime.
pub const BUDGET_PCT: f64 = 2.0;

/// Minimum-over-repeats wall time of `f`, in milliseconds.
pub fn best_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Deterministic synthetic training set (2-D inputs, smooth response).
pub fn training_data(n: usize) -> (Matrix, Vec<f64>) {
    let x = Matrix::from_fn(n, 2, |i, j| {
        if j == 0 {
            3.0 + 6.0 * (i as f64 / n as f64)
        } else {
            1.2 + 1.2 * ((i * 7 % n) as f64 / n as f64)
        }
    });
    let y: Vec<f64> = (0..n)
        .map(|i| (i as f64 * 0.1).sin() + i as f64 * 0.01)
        .collect();
    (x, y)
}

/// Deterministic synthetic candidate pool.
pub fn pool_points(m: usize) -> Matrix {
    Matrix::from_fn(m, 2, |i, j| {
        if j == 0 {
            3.0 + 6.0 * ((i * 13 % m) as f64 / m as f64)
        } else {
            1.2 + 1.2 * ((i * 29 % m) as f64 / m as f64)
        }
    })
}

/// Cost of one disabled instrumentation site, in nanoseconds.
pub fn disabled_site_ns() -> f64 {
    alperf_obs::set_enabled(false);
    let iters = 20_000_000u64;
    let t = Instant::now();
    for _ in 0..iters {
        let _s = alperf_obs::span(black_box("overhead.noop"));
    }
    t.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Cost of one labeled-counter increment through a *cached* child handle,
/// in nanoseconds — the per-event price of the `counter_vec(..).with(..)`
/// pattern the runner uses (resolve once per campaign, then one relaxed
/// atomic per event).
pub fn labeled_site_ns() -> f64 {
    let child = alperf_obs::counter_vec("overhead.labeled", &["campaign"]).with(&["bench"]);
    let iters = 20_000_000u64;
    let t = Instant::now();
    for _ in 0..iters {
        black_box(&child).inc();
    }
    t.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Cost of one labeled-family child *lookup* (`with()` on an existing
/// series: read lock + map probe), in nanoseconds. This is the price paid
/// by rare-event sites (fault counters) that skip handle caching.
pub fn labeled_lookup_ns() -> f64 {
    let family = alperf_obs::counter_vec("overhead.labeled", &["campaign"]);
    family.with(&["bench"]); // pre-create so rounds measure the hit path
    let iters = 2_000_000u64;
    let t = Instant::now();
    for _ in 0..iters {
        black_box(family.with(black_box(&["bench"])));
    }
    t.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Median of a sample (empty -> NaN).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// One full overhead measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadResult {
    /// Quick (CI smoke) sizes were used.
    pub quick: bool,
    /// Training-set size.
    pub n: usize,
    /// Candidate-pool size.
    pub m: usize,
    /// Optimizer restarts.
    pub restarts: usize,
    /// Fit wall time, telemetry disabled (min over rounds), ms.
    pub fit_off_ms: f64,
    /// Fit wall time, telemetry enabled, ms.
    pub fit_on_ms: f64,
    /// Fit wall time, telemetry enabled *and* the stack sampler running
    /// at its default rate, ms.
    pub fit_sampler_ms: f64,
    /// Batched-predict wall time, telemetry disabled, ms.
    pub predict_off_ms: f64,
    /// Batched-predict wall time, telemetry enabled, ms.
    pub predict_on_ms: f64,
    /// Per-site disabled cost, ns.
    pub site_ns: f64,
    /// Per-event cost of a cached labeled-counter handle, ns.
    pub labeled_site_ns: f64,
    /// Per-call cost of a labeled-family child lookup, ns.
    pub labeled_lookup_ns: f64,
    /// Per-round enabled-vs-disabled fit ratios, percent.
    pub fit_pcts: Vec<f64>,
    /// Per-round enabled-vs-disabled predict ratios, percent.
    pub predict_pcts: Vec<f64>,
    /// Per-round sampler-vs-enabled fit ratios, percent.
    pub sampler_pcts: Vec<f64>,
}

impl OverheadResult {
    /// Fit overhead, enabled vs disabled, percent — the *median* of the
    /// per-round ratios. Each round's on/off pair runs back to back in
    /// the same noise epoch, and the median discards rounds a CPU-steal
    /// spike landed in, so this is far more stable on a time-shared VM
    /// than a ratio of overall minima.
    pub fn fit_pct(&self) -> f64 {
        median(&self.fit_pcts)
    }

    /// Predict overhead, enabled vs disabled, percent (median of rounds).
    pub fn predict_pct(&self) -> f64 {
        median(&self.predict_pcts)
    }

    /// Sampler overhead on the fit path — running the stack sampler at
    /// its default rate vs telemetry merely enabled, percent (median of
    /// rounds).
    pub fn sampler_pct(&self) -> f64 {
        median(&self.sampler_pcts)
    }

    /// All overheads inside [`BUDGET_PCT`]?
    pub fn within_budget(&self) -> bool {
        self.fit_pct() < BUDGET_PCT
            && self.predict_pct() < BUDGET_PCT
            && self.sampler_pct() < BUDGET_PCT
    }

    /// The metrics the `bench_gate` baseline gates on, by stable name.
    /// `*_ms`/`*_ns` are absolute hot-path times (relative gates);
    /// `*_overhead_pct` are budget gates.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("fit_ms", self.fit_off_ms),
            ("predict_ms", self.predict_off_ms),
            ("site_ns", self.site_ns),
            ("labeled_site_ns", self.labeled_site_ns),
            ("labeled_lookup_ns", self.labeled_lookup_ns),
            ("fit_overhead_pct", self.fit_pct()),
            ("predict_overhead_pct", self.predict_pct()),
            ("sampler_overhead_pct", self.sampler_pct()),
        ]
    }
}

/// Benchmark sizes: `(n, m, restarts, reps)` for quick/full mode.
pub fn sizes(quick: bool) -> (usize, usize, usize, usize) {
    if quick {
        // Quick fits are ~30 ms, so extra rounds are cheap — and the
        // median overhead ratio needs them to stay stable in CI.
        (48, 128, 2, 7)
    } else {
        (200, 1024, 5, 5)
    }
}

/// Run the full measurement. Leaves telemetry disabled on return.
pub fn measure(quick: bool) -> OverheadResult {
    let (n, m, restarts, reps) = sizes(quick);
    let (x, y) = training_data(n);
    let cfg = GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::recommended())
        .with_restarts(restarts)
        .with_seed(17);
    let gpr = Gpr::fit(
        x.clone(),
        &y,
        Box::new(SquaredExponential::new(1.0, 1.0)),
        0.1,
        true,
    )
    .unwrap();
    let pool = pool_points(m);

    // Interleave disabled/enabled rounds so both sides sample the same
    // machine epochs — a sequential off-block then on-block lets clock
    // drift or a background phase masquerade as telemetry overhead. Each
    // round also yields an on/off ratio; the overhead estimate is the
    // *median* ratio, so a round hit by a CPU-steal spike is discarded.
    let (mut fit_off_ms, mut fit_on_ms, mut fit_sampler_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut fit_pcts = Vec::with_capacity(reps);
    let mut sampler_pcts = Vec::with_capacity(reps);
    // Quick fits are ~30 ms — short enough that a single scheduler blip
    // swings one arm by a few percent — so each arm takes the min of
    // several fits per round. Full-mode fits run seconds; one is enough.
    let arm_reps = if quick { 3 } else { 1 };
    for _ in 0..reps {
        alperf_obs::set_enabled(false);
        let off = best_ms(arm_reps, || {
            black_box(fit_gpr(&x, &y, &cfg).unwrap());
        });
        alperf_obs::set_enabled(true);
        let on = best_ms(arm_reps, || {
            black_box(fit_gpr(&x, &y, &cfg).unwrap());
        });
        // Third arm of the same round: telemetry on *plus* the stack
        // sampler, so the sampler ratio shares the round's noise epoch
        // with its enabled-only denominator.
        let sampler = alperf_obs::profiler::start(alperf_obs::profiler::DEFAULT_HZ);
        let on_sampled = best_ms(arm_reps, || {
            black_box(fit_gpr(&x, &y, &cfg).unwrap());
        });
        sampler.stop();
        fit_off_ms = fit_off_ms.min(off);
        fit_on_ms = fit_on_ms.min(on);
        fit_sampler_ms = fit_sampler_ms.min(on_sampled);
        fit_pcts.push((on - off) / off * 100.0);
        sampler_pcts.push((on_sampled - on) / on * 100.0);
    }
    alperf_obs::profiler::reset_folded();
    // The predict path is short (single-digit ms): many more rounds are
    // affordable and needed to pin its minimum on a noisy VM.
    let (mut predict_off_ms, mut predict_on_ms) = (f64::INFINITY, f64::INFINITY);
    let mut predict_pcts = Vec::with_capacity(reps * 20);
    for _ in 0..reps * 20 {
        alperf_obs::set_enabled(false);
        let off = best_ms(1, || {
            black_box(gpr.predict_batch(&pool).unwrap());
        });
        alperf_obs::set_enabled(true);
        let on = best_ms(1, || {
            black_box(gpr.predict_batch(&pool).unwrap());
        });
        predict_off_ms = predict_off_ms.min(off);
        predict_on_ms = predict_on_ms.min(on);
        predict_pcts.push((on - off) / off * 100.0);
    }
    alperf_obs::set_enabled(false);
    let site_ns = disabled_site_ns();
    let labeled_site_ns = labeled_site_ns();
    let labeled_lookup_ns = labeled_lookup_ns();

    OverheadResult {
        quick,
        n,
        m,
        restarts,
        fit_off_ms,
        fit_on_ms,
        fit_sampler_ms,
        predict_off_ms,
        predict_on_ms,
        site_ns,
        labeled_site_ns,
        labeled_lookup_ns,
        fit_pcts,
        predict_pcts,
        sampler_pcts,
    }
}
