//! One probed AL campaign, the worker pool that runs a pass of them, and
//! what a pass reports.

use crate::probe::{
    now_ns, CountingKernel, KernelCounters, Probe, ProbedOracle, ProbedStrategy, SelectTrace,
};
use crate::stats::rmse_cost_area;
use alperf_al::oracle::ExperimentOracle;
use alperf_al::runner::{run_al_with_oracle, AlConfig, AlRun};
use alperf_al::strategy::Strategy;
use alperf_data::partition::Partition;
use alperf_gp::kernel::Kernel;
use alperf_gp::noise::NoiseFloor;
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The inputs of one campaign: the replayed dataset and its partition.
pub struct Problem<'a> {
    /// Design matrix over all rows.
    pub x: &'a Matrix,
    /// Response over all rows.
    pub y: &'a [f64],
    /// Per-row experiment cost.
    pub cost: &'a [f64],
    /// Initial / pool / test split.
    pub part: &'a Partition,
}

/// Everything measured about one probed campaign.
#[derive(Debug, Default)]
pub struct CampaignStats {
    /// AL iterations run: measured plus lost experiments.
    pub iterations: u64,
    /// Wall time of the campaign.
    pub wall_ns: u64,
    /// Oracle-return-to-select gaps (decision latency samples).
    pub gaps_ns: Vec<u64>,
    /// Test RMSE at the last iteration.
    pub final_rmse: f64,
    /// Mean RMSE over the workload's cumulative-cost window.
    pub rmse_cost_auc: f64,
    /// Traced-only: strategy-side attribution.
    pub select: SelectTrace,
    /// Traced-only: `(oracle ns, oracle calls, lost)`.
    pub oracle: (u64, u64, u64),
    /// Traced-only: kernel `(set_params, cross_matrix calls, cross ns)`.
    pub kernel: (u64, u64, u64),
    /// The run itself, for the analysis layer; [`PassResult::absorb`]
    /// drops it.
    pub run: Option<AlRun>,
    /// Why the campaign failed, if it did.
    pub error: Option<String>,
}

/// Run one campaign through `run_al_with_oracle` with probed strategy
/// and oracle (and, when `traced`, a counting kernel). `make_cfg`
/// receives the kernel to put in the GPR config; `check` validates the
/// finished run.
#[allow(clippy::too_many_arguments)]
pub fn run_probed<O: ExperimentOracle>(
    problem: &Problem<'_>,
    strategy: Box<dyn Strategy>,
    oracle: O,
    kernel: Box<dyn Kernel>,
    floor: NoiseFloor,
    make_cfg: impl FnOnce(Box<dyn Kernel>) -> AlConfig,
    window: (f64, f64),
    traced: bool,
    check: impl FnOnce(&AlRun) -> Result<(), String>,
) -> CampaignStats {
    let counters = Arc::new(KernelCounters::default());
    let kernel: Box<dyn Kernel> = if traced {
        Box::new(CountingKernel::new(kernel, Arc::clone(&counters)))
    } else {
        kernel
    };
    let cfg = make_cfg(kernel);
    let t0 = now_ns();
    let probe = Probe::start(traced);
    let oracle = ProbedOracle::new(oracle, &probe);
    let mut strategy = ProbedStrategy::new(
        strategy,
        &probe,
        traced.then(|| (floor, Arc::clone(&counters))),
    );
    let result = run_al_with_oracle(
        problem.x,
        problem.y,
        problem.cost,
        problem.part,
        &mut strategy,
        &oracle,
        &cfg,
    );
    let wall_ns = now_ns() - t0;
    let mut stats = CampaignStats {
        wall_ns,
        gaps_ns: std::mem::take(&mut strategy.gaps_ns),
        oracle: probe.oracle_totals(),
        ..CampaignStats::default()
    };
    if let Some((select, _, _)) = strategy.trace.take() {
        stats.select = select;
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        stats.kernel = (
            load(&counters.set_params),
            load(&counters.cross_calls),
            load(&counters.cross_ns),
        );
    }
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            stats.error = Some(format!("run_al_with_oracle: {e}"));
            return stats;
        }
    };
    stats.iterations = (run.history.len() + run.lost.len()) as u64;
    let finite = run
        .history
        .iter()
        .all(|r| r.rmse.is_finite() && r.cumulative_cost.is_finite());
    stats.error = if run.history.is_empty() || !finite {
        Some("empty or non-finite RMSE/cost history".into())
    } else {
        check(&run).err()
    };
    if let Some(last) = run.history.last() {
        stats.final_rmse = last.rmse;
    }
    stats.rmse_cost_auc = rmse_cost_area(&run.cost_rmse_points(), window);
    stats.run = Some(run);
    stats
}

/// Run `f` over `items` on `width` worker threads that claim items in
/// order, each under a pool width of 1 (campaigns are the unit of
/// parallelism, as in the grid executor). Results come back in item
/// order whatever the completion order.
pub fn run_parallel<T: Sync, R: Send>(
    items: &[T],
    width: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..width.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = threads::with_threads(1, || f(item));
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every item was claimed")
        })
        .collect()
}

/// What one pass over a workload's campaigns produced.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// The probed campaigns (all of them on fig7/fig8, the replayed
    /// sample on the grid).
    pub probed: Vec<CampaignStats>,
    /// Wall time of every campaign in the pass, in milliseconds.
    pub campaign_ms: Vec<f64>,
    /// AL iterations completed in the pass, measured or lost.
    pub iterations: u64,
    /// Final test RMSE of every campaign whose quality counts.
    pub final_rmse: Vec<f64>,
    /// Mean RMSE over the cost window of every probed campaign.
    pub auc: Vec<f64>,
    /// Bit patterns of every deterministic output, compared when the
    /// pass repeats.
    pub fingerprint: Vec<u64>,
    /// Campaigns attempted.
    pub attempted: u64,
    /// Output-check failures, one message each.
    pub failures: Vec<String>,
    /// Time in the analysis layer (Fig. 7 envelopes, Fig. 8 trade-off,
    /// grid leaderboards and significance).
    pub rank_ns: u64,
    /// Bytes committed to the grid summary file (grid only).
    pub commit_bytes: u64,
}

impl PassResult {
    /// Add the probed campaigns' fingerprints, quality and failures. When
    /// `own` (the pass's own campaigns, not a replayed sample), their
    /// iterations and final RMSEs count toward the pass too.
    pub fn absorb(&mut self, mut probed: Vec<CampaignStats>, own: bool) {
        for c in &mut probed {
            self.attempted += 1;
            if let Some(e) = &c.error {
                self.failures.push(e.clone());
            }
            if own {
                self.iterations += c.iterations;
                self.final_rmse.push(c.final_rmse);
            }
            self.auc.push(c.rmse_cost_auc);
            self.fingerprint.push(c.final_rmse.to_bits());
            self.fingerprint.push(c.rmse_cost_auc.to_bits());
            self.fingerprint.push(c.iterations);
            // Drop the run: a long run keeps every pass, and memory must
            // not grow with the pass count.
            if let Some(run) = c.run.take() {
                self.fingerprint
                    .extend(run.history.iter().map(|r| r.rmse.to_bits()));
            }
        }
        self.probed = probed;
    }
}
