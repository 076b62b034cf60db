//! Delegating wrappers around the program's trait seams.
//!
//! The benchmark never edits the program: it measures the AL loop by
//! passing `run_al_with_oracle` a [`ProbedStrategy`], a [`ProbedOracle`]
//! and, in traced runs only, a [`CountingKernel`]. Each forwards every
//! call unchanged, so a probed campaign is bit-identical to a plain one
//! (the benchmark checks this on every traced run).
//!
//! Untraced runs read the clock twice per AL iteration: once when the
//! strategy is asked to select, once when the oracle returns. The gap
//! between an oracle return (or the campaign start) and the next select
//! is the decision latency a live experimenter waits for: refit, pool
//! prediction and the loop's bookkeeping.

use alperf_al::oracle::{ExperimentOracle, ExperimentOutcome};
use alperf_al::strategy::{SelectionContext, Strategy};
use alperf_gp::kernel::{DistanceForm, Kernel};
use alperf_gp::noise::NoiseFloor;
use alperf_linalg::matrix::Matrix;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Monotonic nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Work counted on a [`CountingKernel`] and all its clones.
#[derive(Debug, Default)]
pub struct KernelCounters {
    /// `set_params` calls: one per hyperparameter trial of the fit.
    pub set_params: AtomicU64,
    /// `cross_matrix` calls.
    pub cross_calls: AtomicU64,
    /// Nanoseconds inside `cross_matrix`.
    pub cross_ns: AtomicU64,
}

/// A kernel that forwards everything to `inner` — `distance_form`
/// included, so fits keep the cached squared-distance path — and counts
/// hyperparameter trials and cross-covariance work.
pub struct CountingKernel {
    inner: Box<dyn Kernel>,
    counters: Arc<KernelCounters>,
}

impl CountingKernel {
    /// Wrap `inner`; clones share `counters`.
    pub fn new(inner: Box<dyn Kernel>, counters: Arc<KernelCounters>) -> Self {
        CountingKernel { inner, counters }
    }
}

impl Kernel for CountingKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.inner.eval(a, b)
    }

    fn cross_matrix(&self, a: &Matrix, b: &Matrix) -> Matrix {
        let t0 = now_ns();
        let k = self.inner.cross_matrix(a, b);
        self.counters.cross_ns.fetch_add(now_ns() - t0, Relaxed);
        self.counters.cross_calls.fetch_add(1, Relaxed);
        k
    }

    fn diag_value(&self, a: &[f64]) -> f64 {
        self.inner.diag_value(a)
    }

    fn n_params(&self) -> usize {
        self.inner.n_params()
    }

    fn params(&self) -> Vec<f64> {
        self.inner.params()
    }

    fn set_params(&mut self, p: &[f64]) {
        self.counters.set_params.fetch_add(1, Relaxed);
        self.inner.set_params(p);
    }

    fn param_names(&self) -> Vec<String> {
        self.inner.param_names()
    }

    fn grad(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        self.inner.grad(a, b)
    }

    fn grad_x(&self, a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
        self.inner.grad_x(a, b)
    }

    fn clone_box(&self) -> Box<dyn Kernel> {
        Box::new(CountingKernel {
            inner: self.inner.clone_box(),
            counters: Arc::clone(&self.counters),
        })
    }

    fn distance_form(&self) -> Option<DistanceForm> {
        self.inner.distance_form()
    }
}

/// State one campaign's oracle shares with its strategy.
#[derive(Debug, Default)]
pub struct Probe {
    traced: bool,
    last_return_ns: AtomicU64,
    oracle_ns: AtomicU64,
    oracle_calls: AtomicU64,
    oracle_lost: AtomicU64,
}

impl Probe {
    /// A probe whose clock starts now (the campaign start).
    pub fn start(traced: bool) -> Self {
        let p = Probe {
            traced,
            ..Probe::default()
        };
        p.last_return_ns.store(now_ns(), Relaxed);
        p
    }

    /// `(nanoseconds inside the oracle, calls, lost experiments)`;
    /// zeros unless traced.
    pub fn oracle_totals(&self) -> (u64, u64, u64) {
        (
            self.oracle_ns.load(Relaxed),
            self.oracle_calls.load(Relaxed),
            self.oracle_lost.load(Relaxed),
        )
    }
}

/// Forwards to the wrapped oracle and stamps the time it returned.
pub struct ProbedOracle<'a, O> {
    inner: O,
    probe: &'a Probe,
}

impl<'a, O: ExperimentOracle> ProbedOracle<'a, O> {
    /// Wrap `inner`, reporting to `probe`.
    pub fn new(inner: O, probe: &'a Probe) -> Self {
        ProbedOracle { inner, probe }
    }
}

impl<O: ExperimentOracle> ExperimentOracle for ProbedOracle<'_, O> {
    fn run_experiment(&self, row: usize) -> ExperimentOutcome {
        let p = self.probe;
        if !p.traced {
            let out = self.inner.run_experiment(row);
            p.last_return_ns.store(now_ns(), Relaxed);
            return out;
        }
        let t0 = now_ns();
        let out = self.inner.run_experiment(row);
        let t1 = now_ns();
        p.oracle_ns.fetch_add(t1 - t0, Relaxed);
        p.oracle_calls.fetch_add(1, Relaxed);
        if matches!(out, ExperimentOutcome::Lost { .. }) {
            p.oracle_lost.fetch_add(1, Relaxed);
        }
        p.last_return_ns.store(t1, Relaxed);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What a traced strategy wrapper attributes per selection.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelectTrace {
    /// Nanoseconds inside the wrapped `select`.
    pub select_ns: u64,
    /// `select` calls.
    pub calls: u64,
    /// Largest training set seen at a select.
    pub train_n_max: usize,
    /// Selections whose surrogate noise sat at the configured floor.
    pub floor_bound: u64,
    /// Σ trials × n³/3 with each hyperparameter trial attributed to the
    /// training size `n` at the next select (a computed count, not a
    /// measured one).
    pub chol_flops: f64,
    trials_seen: u64,
}

/// Forwards to the wrapped strategy and records the decision latency
/// before each selection.
pub struct ProbedStrategy<'a> {
    inner: Box<dyn Strategy>,
    probe: &'a Probe,
    /// Oracle-return-to-select gaps, one per selection, in nanoseconds.
    pub gaps_ns: Vec<u64>,
    /// Traced-only attribution; `None` on untraced runs.
    pub trace: Option<(SelectTrace, NoiseFloor, Arc<KernelCounters>)>,
}

impl<'a> ProbedStrategy<'a> {
    /// Wrap `inner`. Pass `trace` (the campaign's noise floor and its
    /// kernel counters) only on traced runs.
    pub fn new(
        inner: Box<dyn Strategy>,
        probe: &'a Probe,
        trace: Option<(NoiseFloor, Arc<KernelCounters>)>,
    ) -> Self {
        ProbedStrategy {
            inner,
            probe,
            gaps_ns: Vec::new(),
            trace: trace.map(|(floor, k)| (SelectTrace::default(), floor, k)),
        }
    }
}

impl Strategy for ProbedStrategy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
        let t0 = now_ns();
        self.gaps_ns
            .push(t0 - self.probe.last_return_ns.load(Relaxed));
        let Some((st, floor, kernel)) = self.trace.as_mut() else {
            return self.inner.select(ctx, rng);
        };
        let n = ctx.train.len();
        let trials = kernel.set_params.load(Relaxed);
        st.chol_flops += (trials - st.trials_seen) as f64 * (n as f64).powi(3) / 3.0;
        st.trials_seen = trials;
        st.train_n_max = st.train_n_max.max(n);
        // The fit clamps sigma_n to the floor exactly; allow rounding.
        if ctx.model.noise_std() <= floor.lower_bound(n) * (1.0 + 1e-9) {
            st.floor_bound += 1;
        }
        let pick = self.inner.select(ctx, rng);
        st.select_ns += now_ns() - t0;
        st.calls += 1;
        pick
    }
}
