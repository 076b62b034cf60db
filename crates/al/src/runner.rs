//! The Active-Learning driver loop (the paper's "prototype", Section IV).
//!
//! One *run* replays AL over a dataset partition:
//!
//! 1. train a GPR on the Initial rows (hyperparameters optimized with the
//!    configured noise floor — the knob behind Fig. 7);
//! 2. each iteration: predict over the Active pool, let the strategy pick a
//!    candidate, "run the experiment" (reveal that row's measured
//!    response), move the row into the training set, refit;
//! 3. per iteration, record the paper's monitoring quantities
//!    (Section V-B3): `sigma_f(x*)` at the selected candidate, AMSD
//!    (arithmetic mean predictive SD over the pool), Test-set RMSE (Eq. 2),
//!    and the cumulative cost (runtime x cores) spent so far.
//!
//! The offline oracle is the dataset itself; each pool row is one recorded
//! measurement, so repeated settings remain selectable through their other
//! rows — the noisy-function requirement of Section III.
//!
//! The loop itself is the [`Campaign`] stepper; the functions here drive
//! it serially or with speculative pipelining.

use crate::campaign::{now, Campaign, Selection};
use crate::oracle::{DatasetOracle, ExperimentOracle, ExperimentOutcome};
use crate::strategy::Strategy;
use alperf_data::partition::Partition;
use alperf_gp::model::GpError;
use alperf_gp::optimize::GprConfig;
use alperf_gp::surrogate::Surrogate;
use alperf_linalg::matrix::Matrix;
use alperf_obs::names;

/// How the runner schedules surrogate refits against experiment execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineConfig {
    /// The paper's serial loop: select, measure, refit, repeat. This path
    /// is bit-identical to the pre-pipelining runner and serves as the
    /// determinism oracle for the speculative mode.
    #[default]
    Off,
    /// Asynchronous AL: while the selected experiment is being measured on
    /// a worker thread, the main thread refits the surrogate on the
    /// training set *without* the in-flight measurement (one batch stale)
    /// and speculatively selects the next candidate from it. The in-flight
    /// outcome is reconciled when both sides finish. Trades depth-1 model
    /// staleness for overlapping measurement latency with fit/select
    /// compute — the asynchronous setting of the materials-benchmarking
    /// literature.
    Speculative,
}

/// Configuration of one AL run.
pub struct AlConfig {
    /// GPR fitting configuration (kernel template, noise floor, restarts).
    pub gpr: GprConfig,
    /// Maximum AL iterations: rows picked, measured or lost (pool
    /// exhaustion stops earlier).
    pub max_iters: usize,
    /// Refit hyperparameters every `refit_every` iterations (1 = always,
    /// matching the paper; larger values are an ablation knob).
    pub refit_every: usize,
    /// RNG seed for strategy randomness.
    pub seed: u64,
    /// Refit/measurement scheduling (serial, or speculative pipelining).
    pub pipeline: PipelineConfig,
    /// Experiments selected per step (1 = the paper's one-at-a-time loop).
    /// Larger batches are picked by greedy fantasy conditioning and all
    /// measured before the next refit (see [`crate::campaign`]).
    pub batch: usize,
}

impl AlConfig {
    /// Paper-faithful defaults around a given GPR config.
    pub fn new(gpr: GprConfig) -> Self {
        AlConfig {
            gpr,
            max_iters: 100,
            refit_every: 1,
            seed: 0,
            pipeline: PipelineConfig::Off,
            batch: 1,
        }
    }
}

/// Everything recorded about one AL iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (0-based).
    pub iter: usize,
    /// Dataset row chosen this iteration.
    pub chosen_row: usize,
    /// Input point of the chosen row.
    pub x: Vec<f64>,
    /// Response revealed by the "experiment".
    pub y: f64,
    /// Predictive SD at the chosen candidate *before* adding it —
    /// the paper's `sigma_f(x)` trace.
    pub sigma_at_chosen: f64,
    /// Arithmetic Mean of the Standard Deviation over the remaining pool.
    pub amsd: f64,
    /// RMSE on the Test set (Eq. 2).
    pub rmse: f64,
    /// Cumulative experiment cost after running this experiment.
    pub cumulative_cost: f64,
    /// Log marginal likelihood of the fit used this iteration.
    pub lml: f64,
    /// Fitted noise level `sigma_n` this iteration.
    pub noise_std: f64,
}

/// A selected experiment that the oracle lost to a fault: the runner
/// charged its cost, dropped the candidate, and carried on.
#[derive(Debug, Clone, PartialEq)]
pub struct LostExperiment {
    /// Iteration (0-based) on which the loss happened.
    pub iter: usize,
    /// Dataset row whose measurement was lost.
    pub row: usize,
    /// Execution attempts the oracle burned before giving up.
    pub attempts: u32,
    /// Cost charged for the lost experiment.
    pub cost: f64,
}

/// A completed AL run.
#[derive(Debug, Clone)]
pub struct AlRun {
    /// Strategy name.
    pub strategy: &'static str,
    /// Per-iteration records, in order (degraded iterations are absent
    /// here — see `lost`).
    pub history: Vec<IterationRecord>,
    /// Rows in the training set at the end (initial + selected).
    pub final_train: Vec<usize>,
    /// Experiments lost to faults, in iteration order (empty under the
    /// default [`crate::oracle::DatasetOracle`]).
    pub lost: Vec<LostExperiment>,
}

impl AlRun {
    /// The RMSE trajectory.
    pub fn rmse_series(&self) -> Vec<f64> {
        self.history.iter().map(|r| r.rmse).collect()
    }

    /// The AMSD trajectory.
    pub fn amsd_series(&self) -> Vec<f64> {
        self.history.iter().map(|r| r.amsd).collect()
    }

    /// The cumulative-cost trajectory.
    pub fn cost_series(&self) -> Vec<f64> {
        self.history.iter().map(|r| r.cumulative_cost).collect()
    }

    /// `(cumulative_cost, rmse)` pairs — the raw material of the paper's
    /// Fig. 8(b) tradeoff curves.
    pub fn cost_rmse_points(&self) -> Vec<(f64, f64)> {
        self.history
            .iter()
            .map(|r| (r.cumulative_cost, r.rmse))
            .collect()
    }
}

/// Errors from an AL run.
#[derive(Debug, Clone, PartialEq)]
pub enum AlError {
    /// GPR fitting failed irrecoverably.
    Gp(GpError),
    /// The partition does not match the dataset size.
    BadPartition(String),
}

impl std::fmt::Display for AlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlError::Gp(e) => write!(f, "GPR failure in AL loop: {e}"),
            AlError::BadPartition(s) => write!(f, "bad partition: {s}"),
        }
    }
}

impl std::error::Error for AlError {}

impl From<GpError> for AlError {
    fn from(e: GpError) -> Self {
        AlError::Gp(e)
    }
}

/// Run Active Learning over `(x_all, y_all)` with the given partition.
///
/// ```
/// use alperf_al::runner::{run_al, AlConfig};
/// use alperf_al::strategy::VarianceReduction;
/// use alperf_data::partition::Partition;
/// use alperf_gp::kernel::SquaredExponential;
/// use alperf_gp::optimize::GprConfig;
/// use alperf_linalg::matrix::Matrix;
///
/// let n = 20;
/// let x = Matrix::from_fn(n, 1, |i, _| i as f64 * 0.4);
/// let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
/// let cost = vec![1.0; n];
/// let part = Partition::paper_default(n, 7);
/// let cfg = AlConfig {
///     max_iters: 5,
///     ..AlConfig::new(GprConfig::new(Box::new(SquaredExponential::unit())).with_restarts(1))
/// };
/// let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
/// assert_eq!(run.history.len(), 5);
/// ```
///
/// * `cost` — per-row experiment cost (the paper uses runtime x cores);
///   pass all-ones to count experiments instead.
/// * `strategy` — the acquisition strategy (mutable: EMCM keeps state).
pub fn run_al(
    x_all: &Matrix,
    y_all: &[f64],
    cost: &[f64],
    partition: &Partition,
    strategy: &mut dyn Strategy,
    config: &AlConfig,
) -> Result<AlRun, AlError> {
    run_al_with_oracle(
        x_all,
        y_all,
        cost,
        partition,
        strategy,
        &DatasetOracle,
        config,
    )
}

/// [`run_al`] with an explicit [`ExperimentOracle`] deciding each selected
/// experiment's fate: a thin driver over the [`Campaign`] stepper. Under a
/// faulty oracle the loop degrades gracefully: a
/// [`ExperimentOutcome::Lost`] experiment is charged its cost, flagged in
/// the telemetry stream (`al.degraded_iteration` counter + record), and
/// removed from the pool — the next iteration re-selects from the
/// survivors instead of aborting. Lost experiments are reported in
/// [`AlRun::lost`]; the metric history only contains iterations that
/// produced a measurement.
pub fn run_al_with_oracle(
    x_all: &Matrix,
    y_all: &[f64],
    cost: &[f64],
    partition: &Partition,
    strategy: &mut dyn Strategy,
    oracle: &dyn ExperimentOracle,
    config: &AlConfig,
) -> Result<AlRun, AlError> {
    let mut campaign = Campaign::new(x_all, y_all, cost, partition, strategy, config)?;
    match config.pipeline {
        PipelineConfig::Off => {
            while campaign.remaining() > 0 {
                // One span per step; its fit/predict/select children
                // bracket the same regions the *_ns record fields measure.
                let _iter_span = alperf_obs::span("al.iteration");
                let selection = campaign.select(config.batch)?;
                if selection.is_empty() {
                    break;
                }
                let outcomes: Vec<ExperimentOutcome> = selection
                    .rows()
                    .into_iter()
                    .map(|row| oracle.run_experiment(row))
                    .collect();
                campaign.commit(selection, &outcomes);
            }
        }
        PipelineConfig::Speculative => run_speculative(&mut campaign, oracle, config.batch)?,
    }
    Ok(campaign.finish())
}

/// The next speculative selection under its own `al.iteration` span, or
/// `None` when the campaign is done or the strategy declines.
fn select_next(campaign: &mut Campaign, k: usize) -> Result<Option<Selection>, AlError> {
    if campaign.remaining() == 0 {
        return Ok(None);
    }
    let _iter_span = alperf_obs::span("al.iteration");
    let selection = campaign.select(k)?;
    Ok((!selection.is_empty()).then_some(selection))
}

/// The speculative pipelined loop (`PipelineConfig::Speculative`): while a
/// worker thread measures the in-flight rows, the main thread refits the
/// surrogate on the training set *without* them and speculatively selects
/// the next rows from the stale posterior. The two sides join and the
/// stepper commits the outcomes: a lost row was removed from the pool at
/// selection time, so the stale selection stays valid and nothing is
/// rolled back (`al.pipeline.lost_speculation` flags it).
///
/// Each history/record entry reports the quantities *the selecting model
/// saw* — sigma, AMSD, RMSE and LML lag the serial loop by the in-flight
/// rows, which is the price of the overlap. The strategy RNG is consumed
/// in selection order on the main thread only, so runs are
/// bit-reproducible for a fixed seed; telemetry stays strictly
/// observational (clocks are only read when the global switch is on).
fn run_speculative(
    campaign: &mut Campaign,
    oracle: &dyn ExperimentOracle,
    k: usize,
) -> Result<(), AlError> {
    let obs_on = campaign.telemetry_on();
    // Prime the pipeline: the first selection has nothing to overlap with.
    let mut pending = select_next(campaign, k)?;
    while let Some(in_flight) = pending.take() {
        let rows = in_flight.rows();
        // Overlap: measure `rows` on a scoped worker thread while this
        // thread refits on the stale training set and selects the next
        // rows. The worker only touches the oracle (Sync); every piece of
        // campaign state stays on this thread.
        let mut next = Ok(None);
        let mut select_side_ns = 0u64;
        let (outcomes, measure_ns) = std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let t0 = now(obs_on);
                let out: Vec<ExperimentOutcome> =
                    rows.iter().map(|&row| oracle.run_experiment(row)).collect();
                (out, now(obs_on) - t0)
            });
            let t0 = now(obs_on);
            next = select_next(campaign, k);
            if obs_on {
                select_side_ns = now(obs_on) - t0;
                if matches!(next, Ok(Some(_))) {
                    alperf_obs::inc(names::AL_PIPELINE_STALE_SELECTS);
                }
            }
            match handle.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        });
        if obs_on {
            alperf_obs::add(names::AL_PIPELINE_RECONCILES, rows.len() as u64);
            alperf_obs::add(
                names::AL_PIPELINE_OVERLAP_NS,
                select_side_ns.min(measure_ns),
            );
        }
        campaign.commit(in_flight, &outcomes);
        pending = next?;
    }
    Ok(())
}

/// RMSE of the model on the test rows (Eq. 2), via one batched prediction.
pub fn test_rmse(model: &Surrogate, x_all: &Matrix, y_all: &[f64], test: &[usize]) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let preds = model
        .predict_batch(&x_all.select_rows(test))
        .expect("dims match");
    let se: f64 = preds
        .iter()
        .zip(test)
        .map(|(p, &i)| {
            let d = p.mean - y_all[i];
            d * d
        })
        .sum();
    (se / test.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{CostEfficiency, RandomSampling, VarianceReduction};
    use alperf_gp::kernel::SquaredExponential;
    use alperf_gp::noise::NoiseFloor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic 1-D noisy dataset: y = sin(x) * 2 + noise; cost grows with x.
    fn dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .map(|v| (v).sin() * 2.0 + rng.gen_range(-0.15..0.15))
            .collect();
        let cost: Vec<f64> = xs.iter().map(|v| 1.0 + v * v).collect();
        (Matrix::from_vec(n, 1, xs).unwrap(), y, cost)
    }

    fn config() -> AlConfig {
        let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(0.05))
            .with_restarts(2)
            .with_seed(7);
        AlConfig {
            max_iters: 25,
            seed: 3,
            ..AlConfig::new(gpr)
        }
    }

    #[test]
    fn al_reduces_rmse_and_amsd() {
        let (x, y, cost) = dataset(60, 1);
        let part = Partition::random(60, 2, 0.8, 5);
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        assert_eq!(run.history.len(), 25);
        let first = &run.history[0];
        let last = run.history.last().unwrap();
        assert!(
            last.rmse < 0.6 * first.rmse,
            "rmse {} -> {}",
            first.rmse,
            last.rmse
        );
        // AMSD on tiny training sets can start artificially *low* (the
        // paper's overfitting observation, Fig. 7a), so compare the final
        // value against the early-iteration peak rather than iteration 0.
        let early_peak = run.history[..8]
            .iter()
            .map(|r| r.amsd)
            .fold(0.0f64, f64::max);
        assert!(
            last.amsd < early_peak,
            "amsd final {} !< early peak {early_peak}",
            last.amsd
        );
    }

    #[test]
    fn variance_reduction_explores_edges_first() {
        // Seeding in the middle: the first selections should hit the domain
        // edges (the paper's "star-like pattern", Fig. 6).
        let (x, y, cost) = dataset(50, 2);
        // Build a partition whose initial point is central. The seed is
        // chosen so the property holds with margin for the vendored RNG
        // stream; the "star-like" pattern is typical, not universal.
        let mut part = Partition::random(50, 1, 0.9, 0);
        // Swap the initial to be the middle row.
        let mid = 25usize;
        if part.initial[0] != mid {
            let old_init = part.initial[0];
            if let Some(p) = part.active.iter().position(|&i| i == mid) {
                part.active[p] = old_init;
                part.initial[0] = mid;
            } else if let Some(p) = part.test.iter().position(|&i| i == mid) {
                part.test[p] = old_init;
                part.initial[0] = mid;
            }
        }
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        let first_picks: Vec<f64> = run.history.iter().take(2).map(|r| r.x[0]).collect();
        // Both early picks are in the outer thirds of the domain [0, 8].
        for v in &first_picks {
            assert!(
                *v < 8.0 / 3.0 || *v > 16.0 / 3.0,
                "early pick {v} not at an edge; picks: {first_picks:?}"
            );
        }
    }

    #[test]
    fn cost_efficiency_spends_less_for_same_iterations() {
        // Seed chosen so the expected cost ordering holds with margin for
        // the vendored RNG stream; CE beats VR on cost typically, not always.
        let (x, y, cost) = dataset(60, 3);
        let part = Partition::random(60, 1, 0.8, 1);
        let vr = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        let ce = run_al(&x, &y, &cost, &part, &mut CostEfficiency, &config()).unwrap();
        let vr_cost = vr.history.last().unwrap().cumulative_cost;
        let ce_cost = ce.history.last().unwrap().cumulative_cost;
        assert!(
            ce_cost < vr_cost,
            "cost efficiency {ce_cost} !< variance reduction {vr_cost}"
        );
    }

    #[test]
    fn pool_rows_never_repeat_but_settings_can() {
        let (x, y, cost) = dataset(40, 4);
        let part = Partition::random(40, 1, 0.9, 2);
        let run = run_al(&x, &y, &cost, &part, &mut RandomSampling, &config()).unwrap();
        let rows: Vec<usize> = run.history.iter().map(|r| r.chosen_row).collect();
        let distinct: std::collections::BTreeSet<_> = rows.iter().collect();
        assert_eq!(rows.len(), distinct.len(), "a pool row was selected twice");
    }

    #[test]
    fn history_is_reproducible() {
        let (x, y, cost) = dataset(40, 5);
        let part = Partition::random(40, 1, 0.8, 3);
        let a = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        let b = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn cumulative_cost_is_monotone_and_correct() {
        let (x, y, cost) = dataset(30, 6);
        let part = Partition::random(30, 1, 0.8, 1);
        let run = run_al(&x, &y, &cost, &part, &mut RandomSampling, &config()).unwrap();
        let mut expected: f64 = part.initial.iter().map(|&i| cost[i]).sum();
        for r in &run.history {
            expected += cost[r.chosen_row];
            assert!((r.cumulative_cost - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn stops_when_pool_exhausted() {
        let (x, y, cost) = dataset(12, 7);
        let part = Partition::random(12, 1, 0.5, 0); // small pool
        let mut cfg = config();
        cfg.max_iters = 100;
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert_eq!(run.history.len(), part.active.len());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (x, y, cost) = dataset(10, 8);
        let bad_part = Partition {
            initial: vec![0],
            active: vec![1],
            test: vec![2],
        }; // does not cover all rows
        assert!(matches!(
            run_al(&x, &y, &cost, &bad_part, &mut VarianceReduction, &config()),
            Err(AlError::BadPartition(_))
        ));
        let part = Partition::random(10, 1, 0.8, 0);
        assert!(run_al(&x, &y[..5], &cost, &part, &mut VarianceReduction, &config()).is_err());
    }

    #[test]
    fn refit_every_affects_workload_not_correctness() {
        let (x, y, cost) = dataset(40, 9);
        let part = Partition::random(40, 1, 0.8, 4);
        let mut cfg = config();
        cfg.refit_every = 5;
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert_eq!(run.history.len(), 25);
        // Still learns.
        assert!(run.history.last().unwrap().rmse < run.history[0].rmse);
    }

    #[test]
    fn single_initial_point_works() {
        // The paper's realistic scenario: a single initial experiment.
        let (x, y, cost) = dataset(30, 10);
        let part = Partition::paper_default(30, 1);
        assert_eq!(part.initial.len(), 1);
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        assert!(!run.history.is_empty());
        assert!(run.history.iter().all(|r| r.rmse.is_finite()));
    }

    #[test]
    fn pipelined_campaign_learns_and_is_reproducible() {
        let (x, y, cost) = dataset(60, 1);
        let part = Partition::random(60, 2, 0.8, 5);
        let mut cfg = config();
        cfg.pipeline = PipelineConfig::Speculative;
        let a = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        let b = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert_eq!(a.history, b.history, "pipelined run not reproducible");
        assert_eq!(a.history.len(), 25);
        let first = &a.history[0];
        let last = a.history.last().unwrap();
        assert!(
            last.rmse < 0.6 * first.rmse,
            "pipelined AL failed to learn: rmse {} -> {}",
            first.rmse,
            last.rmse
        );
        // Depth-1 staleness costs accuracy boundedly: the pipelined final
        // RMSE stays within a small absolute band of the serial loop's.
        let serial = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &config()).unwrap();
        let rs = serial.history.last().unwrap().rmse;
        assert!(
            (last.rmse - rs).abs() <= 0.5 * rs.max(0.1),
            "pipelined final RMSE {} too far from serial {rs}",
            last.rmse
        );
    }

    #[test]
    fn pipelined_charges_costs_in_selection_order() {
        let (x, y, cost) = dataset(30, 6);
        let part = Partition::random(30, 1, 0.8, 1);
        let mut cfg = config();
        cfg.pipeline = PipelineConfig::Speculative;
        let run = run_al(&x, &y, &cost, &part, &mut RandomSampling, &cfg).unwrap();
        let mut expected: f64 = part.initial.iter().map(|&i| cost[i]).sum();
        for r in &run.history {
            expected += cost[r.chosen_row];
            assert!((r.cumulative_cost - expected).abs() < 1e-9);
        }
        // No row selected twice even under speculation.
        let rows: Vec<usize> = run.history.iter().map(|r| r.chosen_row).collect();
        let distinct: std::collections::BTreeSet<_> = rows.iter().collect();
        assert_eq!(rows.len(), distinct.len());
    }

    #[test]
    fn pipelined_stops_on_pool_exhaustion_and_respects_max_iters() {
        let (x, y, cost) = dataset(12, 7);
        let part = Partition::random(12, 1, 0.5, 0);
        let mut cfg = config();
        cfg.max_iters = 100;
        cfg.pipeline = PipelineConfig::Speculative;
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert_eq!(run.history.len(), part.active.len());
        cfg.max_iters = 3;
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert_eq!(run.history.len(), 3);
        cfg.max_iters = 0;
        let run = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert!(run.history.is_empty());
    }

    #[test]
    fn approximate_tier_campaign_learns_and_is_reproducible() {
        // The whole loop (fit, pool scoring, caches, selection) on the
        // sparse tier: still learns, and histories are bit-identical.
        use alperf_gp::optimize::{ApproxConfig, FitTier};
        let (x, y, cost) = dataset(60, 8);
        let part = Partition::random(60, 2, 0.8, 7);
        let approx = ApproxConfig {
            max_rank: 12,
            hyper_subsample: 20,
            gate_max_n: 0, // no exact-refit gate: force the sparse path
            ..ApproxConfig::default()
        };
        let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(0.05))
            .with_restarts(2)
            .with_seed(7)
            .with_tier(FitTier::Approximate)
            .with_approx(approx);
        let cfg = AlConfig {
            max_iters: 20,
            seed: 3,
            ..AlConfig::new(gpr)
        };
        let a = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        let b = run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.history.len(), 20);
        let first = &a.history[0];
        let last = a.history.last().unwrap();
        assert!(last.rmse.is_finite());
        assert!(
            last.rmse < first.rmse,
            "sparse-tier AL failed to learn: rmse {} -> {}",
            first.rmse,
            last.rmse
        );
    }
}
