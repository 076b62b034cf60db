//! The campaign stepper: the one AL loop every driver runs.
//!
//! A [`Campaign`] holds the state of one replay over a dataset partition:
//! the training set, the candidate pool and the test set, the surrogate
//! and its warm-start hyperparameters, the pool and test prediction
//! caches, the strategy and its rng, the cumulative cost, and the history
//! and lost lists. Each step has two halves:
//!
//! * [`Campaign::select`] refits the surrogate on the measured rows,
//!   predicts over the pool and the test set, and picks `k` rows, which
//!   leave the pool at once (they are in flight).
//! * [`Campaign::commit`] records what the oracle returned for them:
//!   measured rows join the training set, lost rows are charged and
//!   dropped.
//!
//! Serial AL is select → oracle → commit. Speculative pipelining runs the
//! oracle on a worker while the next select refits without the in-flight
//! rows. `k > 1` is batch AL by greedy fantasy: after each pick the
//! surrogate is conditioned on its own predicted mean at the picked row
//! ([`Surrogate::with_observation`], hyperparameters and response scaler
//! frozen, O(n²)), which leaves the mean field unchanged and shrinks the
//! variance exactly as a real observation would, and the strategy picks
//! again from the re-predicted open rows. The strategy's
//! [`SelectionContext::train`] only ever holds measured rows; the fantasy
//! rows live in `ctx.model` alone.

use crate::cache::PoolPredictionCache;
use crate::oracle::ExperimentOutcome;
use crate::runner::{AlConfig, AlError, AlRun, IterationRecord, LostExperiment, PipelineConfig};
use crate::strategy::{SelectionContext, Strategy};
use alperf_data::partition::Partition;
use alperf_gp::optimize::fit_surrogate;
use alperf_gp::surrogate::Surrogate;
use alperf_linalg::matrix::Matrix;
use alperf_obs::names;
use alperf_obs::{Counter, HistogramVec, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Period (in iterations) of full multi-restart hyperparameter searches
/// between warm-started single ascents.
const FULL_REFIT_EVERY: usize = 10;

/// Monotonic nanoseconds while telemetry is on, else 0: clocks are only
/// read when the global switch is on, so telemetry stays observational.
pub(crate) fn now(obs_on: bool) -> u64 {
    if obs_on {
        alperf_obs::clock::monotonic_ns()
    } else {
        0
    }
}

/// One surrogate refit under the campaign's scheduling policy: a full
/// multi-restart hyperparameter search, a warm-started single ascent, a
/// rank-one Cholesky extension, or a fixed-hyperparameter refit. Returns
/// the refit kind (`"full"`, `"warm"`, `"rank1"`, `"refit"`); the caller
/// invalidates prediction caches iff the kind re-optimized hyperparameters
/// (`"full"`/`"warm"`).
fn refit_step(
    config: &AlConfig,
    x_all: &Matrix,
    y_all: &[f64],
    train: &[usize],
    iter: usize,
    model: &mut Option<Surrogate>,
    warm_theta: &mut Option<Vec<f64>>,
) -> Result<&'static str, AlError> {
    let xs = x_all.select_rows(train);
    let ys: Vec<f64> = train.iter().map(|&i| y_all[i]).collect();
    let refit_kind;
    // Re-optimize hyperparameters on schedule; while the training set
    // is small every new point reshapes the LML, so always optimize.
    let optimize_now =
        model.is_none() || train.len() <= 30 || iter.is_multiple_of(config.refit_every.max(1));
    if optimize_now {
        // Full multi-restart search early (small-n fits are cheap and
        // the LML landscape still shifts with every point — a warm
        // start can lock onto a degenerate all-noise optimum), then
        // warm-started single ascents with periodic full refreshes. The
        // LML landscape moves slowly as one point is added, so a warm
        // ascent matches the full search in practice at a fraction of
        // the cost.
        let full_search =
            warm_theta.is_none() || train.len() < 15 || iter.is_multiple_of(FULL_REFIT_EVERY);
        let cfg = if full_search {
            config.gpr.clone()
        } else {
            // Seed the single ascent from the previous optimum.
            let theta = warm_theta.as_ref().expect("checked above");
            let mut kernel = config.gpr.kernel.clone_box();
            let nk = kernel.n_params();
            kernel.set_params(&theta[..nk]);
            let mut cfg = config.gpr.clone();
            if config.gpr.optimize_noise && theta.len() > nk {
                cfg.noise_init = theta[nk].exp();
            }
            cfg.kernel = kernel;
            cfg.restarts = 1;
            // One added point barely moves the optimum: a short, loose
            // ascent suffices between full refreshes.
            cfg.max_iters = cfg.max_iters.min(60);
            cfg.grad_tol = cfg.grad_tol.max(1e-4);
            cfg
        };
        refit_kind = if full_search { "full" } else { "warm" };
        let (m, outcome) = fit_surrogate(&xs, &ys, &cfg)?;
        *warm_theta = Some(outcome.theta);
        *model = Some(m);
    } else {
        // Recondition on the grown training set at the current
        // hyperparameters. The common case (exactly one new point, same
        // prefix) takes the O(n^2) rank-one Cholesky extension; anything
        // unexpected — or a numerically indefinite extension from a
        // duplicated point — falls back to a full O(n^3) refit.
        let prev = model.as_ref().expect("model exists when not optimizing");
        // (Under standardization the full refit re-centers on the grown
        // response set while the incremental path freezes the old
        // scaler — only bit-identical when standardization is off.)
        let incremental = if !config.gpr.standardize && prev.n_train() + 1 == train.len() {
            let new_row = train.last().expect("non-empty train");
            prev.with_observation(x_all.row(*new_row), y_all[*new_row])
                .ok()
        } else {
            None
        };
        *model = Some(match incremental {
            Some(m) => {
                refit_kind = "rank1";
                m
            }
            None => {
                refit_kind = "refit";
                let prev = model.as_ref().expect("model exists");
                prev.refit(xs, &ys, config.gpr.standardize)?
            }
        });
    }
    Ok(refit_kind)
}

/// One picked row: everything the `al.iteration` record and the history
/// entry need, captured from the model that made the choice (in the
/// pipelined loop, possibly stale by the in-flight rows; for the second
/// and later picks of a batch, the fantasy model).
struct Pick {
    iter: usize,
    row: usize,
    /// Pool size at selection time, *before* the row was removed.
    pool_size: usize,
    sigma: f64,
    amsd: f64,
    rmse: f64,
    refit_kind: &'static str,
    tier: &'static str,
    rank: usize,
    lml: f64,
    noise_std: f64,
    fit_ns: u64,
    predict_ns: u64,
    select_ns: u64,
    cache_warm: bool,
}

impl Pick {
    /// The history entry for this pick once it was measured.
    fn history_entry(
        &self,
        x_all: &Matrix,
        y_all: &[f64],
        cumulative_cost: f64,
    ) -> IterationRecord {
        IterationRecord {
            iter: self.iter,
            chosen_row: self.row,
            x: x_all.row(self.row).to_vec(),
            y: y_all[self.row],
            sigma_at_chosen: self.sigma,
            amsd: self.amsd,
            rmse: self.rmse,
            cumulative_cost,
            lml: self.lml,
            noise_std: self.noise_std,
        }
    }
}

/// The rows one [`Campaign::select`] took out of the pool, in pick order,
/// plus the test RMSE of the refit that chose them. Hand it back to
/// [`Campaign::commit`] with the oracle's outcomes.
pub struct Selection {
    picks: Vec<Pick>,
    rmse: f64,
}

impl Selection {
    /// Dataset rows picked, in pick order.
    pub fn rows(&self) -> Vec<usize> {
        self.picks.iter().map(|p| p.row).collect()
    }

    /// Number of rows picked.
    pub fn len(&self) -> usize {
        self.picks.len()
    }

    /// True when nothing was picked (the pool is empty, `k` was 0, or the
    /// strategy declined).
    pub fn is_empty(&self) -> bool {
        self.picks.is_empty()
    }

    /// Test-set RMSE (Eq. 2) of the surrogate refit on every row measured
    /// before this selection.
    pub fn rmse(&self) -> f64 {
        self.rmse
    }
}

/// One campaign's telemetry: the run id plus the per-campaign labeled
/// series, resolved once so the per-iteration cost is a relaxed atomic on
/// a cached child handle. Built only while telemetry is on.
struct CampaignTelemetry {
    run_id: u64,
    strategy: &'static str,
    iterations: Arc<Counter>,
    degraded: Arc<Counter>,
    /// Keyed by (strategy, tier); the tier can change across iterations
    /// (Auto tier), so the child is resolved per iteration.
    fit_by_tier: Arc<HistogramVec>,
    speculative: bool,
}

impl CampaignTelemetry {
    /// Allocate a run id, emit `al.run_start`, and resolve the labeled
    /// series.
    fn start(
        strategy: &'static str,
        train: &[usize],
        pool: &[usize],
        test: &[usize],
        config: &AlConfig,
    ) -> Self {
        let run_id = alperf_obs::next_run_id();
        let speculative = config.pipeline == PipelineConfig::Speculative;
        let mut fields = vec![
            ("run", Value::U64(run_id)),
            ("strategy", Value::Str(strategy)),
            ("n_initial", Value::U64(train.len() as u64)),
            ("pool_size", Value::U64(pool.len() as u64)),
            ("test_size", Value::U64(test.len() as u64)),
            ("max_iters", Value::U64(config.max_iters as u64)),
            ("seed", Value::U64(config.seed)),
        ];
        if speculative {
            fields.push(("pipeline", Value::Str("speculative")));
        }
        alperf_obs::record("al.run_start", &fields);
        let campaign = run_id.to_string();
        let keys = &[names::LABEL_CAMPAIGN, names::LABEL_STRATEGY];
        CampaignTelemetry {
            run_id,
            strategy,
            iterations: alperf_obs::counter_vec(names::AL_CAMPAIGN_ITERATIONS, keys)
                .with(&[&campaign, strategy]),
            degraded: alperf_obs::counter_vec(names::AL_CAMPAIGN_DEGRADED, keys)
                .with(&[&campaign, strategy]),
            fit_by_tier: alperf_obs::histogram_vec(
                names::AL_FIT_BY_TIER,
                &[names::LABEL_STRATEGY, names::LABEL_TIER],
            ),
            speculative,
        }
    }

    /// A measured iteration: the `al.iteration` record and its counters.
    /// (The stage spans already record into the al.iteration.*
    /// histograms on drop.)
    fn iteration(&self, pick: &Pick, cumulative_cost: f64, attempts: u32) {
        alperf_obs::record(
            names::AL_ITERATION,
            &[
                ("run", Value::U64(self.run_id)),
                ("iter", Value::U64(pick.iter as u64)),
                ("chosen_row", Value::U64(pick.row as u64)),
                ("pool_size", Value::U64(pick.pool_size as u64)),
                ("refit", Value::Str(pick.refit_kind)),
                ("tier", Value::Str(pick.tier)),
                ("rank", Value::U64(pick.rank as u64)),
                ("fit_ns", Value::U64(pick.fit_ns)),
                ("predict_ns", Value::U64(pick.predict_ns)),
                ("select_ns", Value::U64(pick.select_ns)),
                ("cache_warm", Value::Bool(pick.cache_warm)),
                ("sigma", Value::F64(pick.sigma)),
                ("amsd", Value::F64(pick.amsd)),
                ("rmse", Value::F64(pick.rmse)),
                ("cum_cost", Value::F64(cumulative_cost)),
                ("lml", Value::F64(pick.lml)),
                ("noise", Value::F64(pick.noise_std)),
                ("attempts", Value::U64(attempts as u64)),
            ],
        );
        alperf_obs::inc("al.iterations");
        self.iterations.inc();
        self.fit_by_tier
            .with(&[self.strategy, pick.tier])
            .record(pick.fit_ns);
    }

    /// An iteration whose picked experiment was lost to a fault. Under
    /// speculation the loss is also flagged as a lost speculation: the
    /// next selection, already made from the stale model, stays valid
    /// because the lost row left the pool when it was picked.
    fn degraded(&self, pick: &Pick, attempts: u32, cumulative_cost: f64, cost: f64) {
        alperf_obs::inc(names::AL_DEGRADED_ITERATION);
        self.degraded.inc();
        alperf_obs::record(
            names::AL_DEGRADED_ITERATION,
            &[
                ("run", Value::U64(self.run_id)),
                ("iter", Value::U64(pick.iter as u64)),
                ("row", Value::U64(pick.row as u64)),
                ("attempts", Value::U64(attempts as u64)),
                ("pool_size", Value::U64(pick.pool_size as u64)),
                ("cum_cost", Value::F64(cumulative_cost)),
            ],
        );
        if self.speculative {
            alperf_obs::inc(names::AL_PIPELINE_LOST_SPECULATION);
            alperf_obs::record(
                names::AL_PIPELINE_LOST_SPECULATION,
                &[
                    ("run", Value::U64(self.run_id)),
                    ("iter", Value::U64(pick.iter as u64)),
                    ("row", Value::U64(pick.row as u64)),
                    ("cost", Value::F64(cost)),
                ],
            );
        }
    }
}

/// The AL campaign stepper — see the module docs.
pub struct Campaign<'a> {
    x_all: &'a Matrix,
    y_all: &'a [f64],
    cost: &'a [f64],
    test: &'a [usize],
    config: &'a AlConfig,
    strategy: &'a mut dyn Strategy,
    train: Vec<usize>,
    pool: Vec<usize>,
    /// Batched-prediction caches over the pool and the (fixed) test set.
    /// Between hyperparameter refits these maintain K(candidates, train)
    /// incrementally — one appended column per measured row — instead of
    /// rebuilding it; see `crate::cache` for the invalidation rule.
    pool_cache: PoolPredictionCache,
    test_cache: PoolPredictionCache,
    model: Option<Surrogate>,
    warm_theta: Option<Vec<f64>>,
    rng: StdRng,
    /// Rows picked so far (measured, lost or in flight).
    iter: usize,
    cumulative_cost: f64,
    history: Vec<IterationRecord>,
    lost: Vec<LostExperiment>,
    /// Telemetry is strictly observational: built only when the global
    /// switch is on, and nothing feeds back into the numerics — a
    /// telemetry-on run is bit-identical to a telemetry-off run (see
    /// tests/obs_determinism.rs).
    obs: Option<CampaignTelemetry>,
}

impl<'a> Campaign<'a> {
    /// Start a campaign over `(x_all, y_all)` with the given partition:
    /// the Initial rows are the training set (their cost is charged), the
    /// Active rows are the pool, and the Test rows score RMSE.
    ///
    /// # Errors
    /// [`AlError::BadPartition`] when the lengths disagree or the partition
    /// does not cover the rows exactly once.
    pub fn new(
        x_all: &'a Matrix,
        y_all: &'a [f64],
        cost: &'a [f64],
        partition: &'a Partition,
        strategy: &'a mut dyn Strategy,
        config: &'a AlConfig,
    ) -> Result<Self, AlError> {
        let n = x_all.nrows();
        if y_all.len() != n || cost.len() != n {
            return Err(AlError::BadPartition(format!(
                "X has {n} rows, y has {}, cost has {}",
                y_all.len(),
                cost.len()
            )));
        }
        if !partition.is_valid_cover(n) {
            return Err(AlError::BadPartition(format!(
                "partition does not cover 0..{n} exactly"
            )));
        }
        let train = partition.initial.clone();
        let pool = partition.active.clone();
        let test = &partition.test;
        let obs = alperf_obs::enabled()
            .then(|| CampaignTelemetry::start(strategy.name(), &train, &pool, test, config));
        Ok(Campaign {
            x_all,
            y_all,
            cost,
            test,
            config,
            pool_cache: PoolPredictionCache::new(x_all.select_rows(&pool)),
            test_cache: PoolPredictionCache::new(x_all.select_rows(test)),
            cumulative_cost: train.iter().map(|&i| cost[i]).sum(),
            strategy,
            train,
            pool,
            model: None,
            warm_theta: None,
            rng: StdRng::seed_from_u64(config.seed),
            iter: 0,
            history: Vec::new(),
            lost: Vec::new(),
            obs,
        })
    }

    /// Rows the campaign may still pick: what is left of `max_iters`,
    /// capped by the pool.
    pub fn remaining(&self) -> usize {
        (self.config.max_iters.saturating_sub(self.iter)).min(self.pool.len())
    }

    /// Cost charged so far: the initial design plus every committed row,
    /// measured or lost.
    pub fn cumulative_cost(&self) -> f64 {
        self.cumulative_cost
    }

    /// Refit on the measured rows, predict over the pool and the test set,
    /// and pick up to `k` rows (fewer when [`Campaign::remaining`] is
    /// smaller or the strategy declines). The picks leave the pool at once.
    /// `k = 0` refits and scores the test set without picking.
    ///
    /// # Errors
    /// Propagates surrogate fit and prediction failures.
    pub fn select(&mut self, k: usize) -> Result<Selection, AlError> {
        let obs_on = self.obs.is_some();
        let k = k.min(self.remaining());
        let fit_span = alperf_obs::span("al.iteration.fit");
        let t_fit = now(obs_on);
        let refit_kind = refit_step(
            self.config,
            self.x_all,
            self.y_all,
            &self.train,
            self.iter,
            &mut self.model,
            &mut self.warm_theta,
        )?;
        let mut fit_ns = now(obs_on) - t_fit;
        drop(fit_span);
        let m = self.model.as_ref().expect("model fitted above");
        if matches!(refit_kind, "full" | "warm") {
            // Hyperparameters may have moved: the cached cross-covariances
            // are stale. (The caches also self-check, but dropping them
            // here keeps the intent explicit.)
            self.pool_cache.invalidate();
            self.test_cache.invalidate();
        }
        // Batched predictions over the pool and the test set: one blocked
        // cross-covariance + multi-RHS solve each instead of a per-point
        // loop of O(n^2) scalar solves.
        let mut cache_warm = obs_on && self.pool_cache.is_warm_for(m);
        let predict_span = alperf_obs::span("al.iteration.predict");
        let t_predict = now(obs_on);
        let mut predictions = if self.pool.is_empty() {
            Vec::new()
        } else {
            self.pool_cache.predictions(m)?
        };
        let rmse = if self.test.is_empty() {
            0.0
        } else {
            let se: f64 = self
                .test_cache
                .predictions(m)?
                .iter()
                .zip(self.test)
                .map(|(p, &i)| {
                    let d = p.mean - self.y_all[i];
                    d * d
                })
                .sum();
            (se / self.test.len() as f64).sqrt()
        };
        let mut predict_ns = now(obs_on) - t_predict;
        drop(predict_span);
        // AMSD folded directly — no per-iteration Vec of SDs.
        let amsd = predictions.iter().map(|p| p.std).sum::<f64>() / predictions.len() as f64;
        let mut picks: Vec<Pick> = Vec::with_capacity(k);
        let mut fantasy: Option<Surrogate> = None;
        while picks.len() < k {
            let model = fantasy.as_ref().unwrap_or(m);
            let select_span = alperf_obs::span("al.iteration.select");
            let ctx = SelectionContext {
                model,
                x_all: self.x_all,
                y_all: self.y_all,
                train: &self.train,
                pool: &self.pool,
                predictions: &predictions,
            };
            let t_select = now(obs_on);
            let Some(pos) = self.strategy.select(&ctx, &mut self.rng) else {
                break;
            };
            let select_ns = now(obs_on) - t_select;
            drop(select_span);
            let row = self.pool[pos];
            picks.push(Pick {
                iter: self.iter,
                row,
                pool_size: self.pool.len(),
                sigma: predictions[pos].std,
                amsd,
                rmse,
                refit_kind: if fantasy.is_some() {
                    "fantasy"
                } else {
                    refit_kind
                },
                tier: m.tier_name(),
                rank: m.rank(),
                lml: m.lml(),
                noise_std: m.noise_std(),
                fit_ns,
                predict_ns,
                select_ns,
                cache_warm,
            });
            let fantasy_y = predictions[pos].mean;
            // The row is in flight: take it out of the pool (and mirror
            // that in the cache) so no later pick can choose it again.
            self.pool.swap_remove(pos);
            self.pool_cache.swap_remove(pos);
            self.iter += 1;
            if picks.len() == k {
                break;
            }
            // Fantasy update: condition on the predicted mean at the
            // picked row and re-predict the open rows. An extension that
            // is numerically indefinite (a duplicated row at a tiny noise
            // level) ends the batch early; the next step refits on real
            // measurements instead.
            let _fit_span = alperf_obs::span("al.iteration.fit");
            let t_fit = now(obs_on);
            let Ok(next) = model.with_observation(self.x_all.row(row), fantasy_y) else {
                break;
            };
            fit_ns = now(obs_on) - t_fit;
            let t_predict = now(obs_on);
            predictions = next.predict_batch(self.pool_cache.candidates())?;
            predict_ns = now(obs_on) - t_predict;
            cache_warm = false;
            fantasy = Some(next);
        }
        Ok(Selection { picks, rmse })
    }

    /// Record the oracle's `outcomes` for `selection` (one per picked row,
    /// in pick order). Each row's cost is charged either way — the paper
    /// counts failed experiments against the budget. A measured row joins
    /// the training set and the caches' cross-covariances grow by its
    /// column; a lost row is flagged (`al.degraded_iteration`) and stays
    /// out of the pool, so the next selection re-selects from the
    /// survivors.
    ///
    /// # Panics
    /// When `outcomes` and `selection` differ in length.
    pub fn commit(&mut self, selection: Selection, outcomes: &[ExperimentOutcome]) {
        assert_eq!(
            selection.picks.len(),
            outcomes.len(),
            "one outcome per picked row"
        );
        let mut measured = false;
        for (pick, outcome) in selection.picks.iter().zip(outcomes) {
            let row = pick.row;
            self.cumulative_cost += self.cost[row];
            match *outcome {
                ExperimentOutcome::Lost { attempts } => {
                    if let Some(obs) = &self.obs {
                        obs.degraded(pick, attempts, self.cumulative_cost, self.cost[row]);
                    }
                    self.lost.push(LostExperiment {
                        iter: pick.iter,
                        row,
                        attempts,
                        cost: self.cost[row],
                    });
                }
                ExperimentOutcome::Measured { attempts } => {
                    if let Some(obs) = &self.obs {
                        obs.iteration(pick, self.cumulative_cost, attempts);
                    }
                    self.history.push(pick.history_entry(
                        self.x_all,
                        self.y_all,
                        self.cumulative_cost,
                    ));
                    self.train.push(row);
                    measured = true;
                    // Extend the cached cross-covariances by the measured
                    // row's column while the model they are warm for is
                    // still current (the caches self-check and rebuild
                    // otherwise).
                    if let Some(m) = self.model.as_ref() {
                        self.pool_cache.extend_train(self.x_all.row(row), m);
                        self.test_cache.extend_train(self.x_all.row(row), m);
                    }
                }
            }
        }
        // Force a refit next step if refit_every == 1.
        if measured && self.config.refit_every <= 1 {
            self.model = None;
        }
    }

    /// Rows measured so far (the length of the history).
    pub fn measured(&self) -> usize {
        self.history.len()
    }

    /// Whether this campaign emits telemetry (fixed when it starts).
    pub(crate) fn telemetry_on(&self) -> bool {
        self.obs.is_some()
    }

    /// End the campaign.
    pub fn finish(self) -> AlRun {
        AlRun {
            strategy: self.strategy.name(),
            history: self.history,
            final_train: self.train,
            lost: self.lost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emcm::Emcm;
    use crate::oracle::{ExperimentOracle, SeededFaultOracle};
    use crate::runner::run_al_with_oracle;
    use crate::strategy::{CostEfficiency, RandomSampling, VarianceReduction};
    use alperf_gp::kernel::{Kernel, SquaredExponential};
    use alperf_gp::model::{Gpr, Prediction};
    use alperf_gp::noise::NoiseFloor;
    use alperf_gp::optimize::{ApproxConfig, FitTier, GprConfig};
    use alperf_linalg::threads::with_threads;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    /// 1-D grid of 21 points on [0, 10], y = sin(0.6 x); the training set
    /// is the three central points, the pool everything else.
    fn grid() -> (Matrix, Vec<f64>, Vec<f64>, Partition) {
        let n = 21;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let y: Vec<f64> = xs.iter().map(|v| (0.6 * v).sin()).collect();
        let part = Partition {
            initial: vec![9, 10, 11],
            active: (0..n).filter(|i| !(9..=11).contains(i)).collect(),
            test: Vec::new(),
        };
        (Matrix::from_vec(n, 1, xs).unwrap(), y, vec![1.0; n], part)
    }

    fn gpr() -> GprConfig {
        GprConfig::new(Box::new(SquaredExponential::unit()))
            .with_noise_floor(NoiseFloor::Fixed(0.05))
            .with_restarts(2)
            .with_seed(7)
    }

    /// What a strategy saw on one call.
    struct Call {
        train: Vec<usize>,
        pool: Vec<usize>,
        predictions: Vec<Prediction>,
        kernel: Box<dyn Kernel>,
        noise_std: f64,
        n_train: usize,
        sparse: bool,
    }

    /// Wraps a strategy, records every call, and — when given the rows
    /// whose response is known (the initial design plus every row the
    /// oracle measured) — asserts that `ctx.train` holds only those.
    struct Probe<S> {
        inner: S,
        calls: Vec<Call>,
        known: Option<Arc<Mutex<BTreeSet<usize>>>>,
    }

    impl<S> Probe<S> {
        fn new(inner: S) -> Self {
            Probe {
                inner,
                calls: Vec::new(),
                known: None,
            }
        }
    }

    impl<S: Strategy> Strategy for Probe<S> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn select(&mut self, ctx: &SelectionContext<'_>, rng: &mut StdRng) -> Option<usize> {
            if let Some(known) = &self.known {
                let known = known.lock().unwrap();
                for r in ctx.train {
                    assert!(
                        known.contains(r),
                        "row {r} is in ctx.train but was never measured"
                    );
                    assert!(!ctx.pool.contains(r), "row {r} is in train and pool");
                }
            }
            self.calls.push(Call {
                train: ctx.train.to_vec(),
                pool: ctx.pool.to_vec(),
                predictions: ctx.predictions.to_vec(),
                kernel: ctx.model.kernel().clone_box(),
                noise_std: ctx.model.noise_std(),
                n_train: ctx.model.n_train(),
                sparse: ctx.model.is_sparse(),
            });
            self.inner.select(ctx, rng)
        }
    }

    /// Delegates to a fault oracle and remembers the rows it measured.
    struct RecordingOracle {
        inner: SeededFaultOracle,
        measured: Arc<Mutex<BTreeSet<usize>>>,
    }

    impl ExperimentOracle for RecordingOracle {
        fn run_experiment(&self, row: usize) -> ExperimentOutcome {
            let out = self.inner.run_experiment(row);
            if let ExperimentOutcome::Measured { .. } = out {
                self.measured.lock().unwrap().insert(row);
            }
            out
        }
    }

    #[test]
    fn select_clamps_k_and_picks_distinct_rows() {
        let (x, y, cost, part) = grid();
        let config = AlConfig::new(gpr());
        let mut vr = VarianceReduction;
        let mut c = Campaign::new(&x, &y, &cost, &part, &mut vr, &config).unwrap();
        let sel = c.select(4).unwrap();
        let rows: BTreeSet<usize> = sel.rows().into_iter().collect();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| part.active.contains(r)));
        assert_eq!(c.remaining(), part.active.len() - 4, "picks leave the pool");
        assert!(c.select(0).unwrap().is_empty());

        // k beyond the pool is clamped to the pool.
        let small = Partition {
            initial: part.initial.clone(),
            active: part.active[..2].to_vec(),
            test: part.active[2..].to_vec(),
        };
        let mut vr = VarianceReduction;
        let mut c = Campaign::new(&x, &y, &cost, &small, &mut vr, &config).unwrap();
        assert_eq!(c.select(10).unwrap().len(), 2);
        assert!(c.select(1).unwrap().is_empty(), "empty pool picks nothing");
    }

    fn min_gap(rows: &[usize], x: &Matrix) -> f64 {
        let mut v: Vec<f64> = rows.iter().map(|&r| x.row(r)[0]).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v.windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn fantasy_batch_spreads_where_naive_top_q_clusters() {
        // Without fantasy updates the top-q max-SD rows cluster at the
        // domain edges; with them the batch covers both sides of the
        // training points and is at least as spread as the naive top-q.
        let (x, y, cost, part) = grid();
        let config = AlConfig::new(gpr());
        let mut probe = Probe::new(VarianceReduction);
        let mut c = Campaign::new(&x, &y, &cost, &part, &mut probe, &config).unwrap();
        let batch = c.select(3).unwrap().rows();
        drop(c);
        let first = &probe.calls[0];
        let mut scored: Vec<(usize, f64)> = first
            .pool
            .iter()
            .zip(&first.predictions)
            .map(|(&r, p)| (r, p.std))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let naive: Vec<usize> = scored[..3].iter().map(|&(r, _)| r).collect();
        let left = batch.iter().filter(|&&r| x.row(r)[0] < 4.5).count();
        let right = batch.iter().filter(|&&r| x.row(r)[0] > 5.5).count();
        assert!(left >= 1 && right >= 1, "batch failed to spread: {batch:?}");
        assert!(
            min_gap(&batch, &x) >= min_gap(&naive, &x),
            "fantasy batch {batch:?} not more spread than naive {naive:?}"
        );
    }

    #[test]
    fn sparse_tier_fantasies_stay_sparse_and_spread() {
        let (x, y, cost, part) = grid();
        let gpr = gpr()
            .with_tier(FitTier::Approximate)
            .with_approx(ApproxConfig {
                max_rank: 3,
                hyper_subsample: 8,
                gate_max_n: 0, // no exact-refit gate: force the sparse path
                ..ApproxConfig::default()
            });
        let config = AlConfig::new(gpr);
        let mut probe = Probe::new(VarianceReduction);
        let mut c = Campaign::new(&x, &y, &cost, &part, &mut probe, &config).unwrap();
        let batch = c.select(4).unwrap().rows();
        drop(c);
        assert_eq!(batch.iter().collect::<BTreeSet<_>>().len(), 4);
        assert!(
            probe.calls.iter().all(|c| c.sparse),
            "fantasy left the sparse tier"
        );
        let left = batch.iter().filter(|&&r| x.row(r)[0] < 4.5).count();
        let right = batch.iter().filter(|&&r| x.row(r)[0] > 5.5).count();
        assert!(
            left >= 1 && right >= 1,
            "sparse batch failed to spread: {batch:?}"
        );
    }

    #[test]
    fn fantasy_posterior_matches_a_fresh_fit_with_the_fantasy_row() {
        // The second pick of a batch ranks on the posterior conditioned on
        // the first pick's predicted mean. Without standardization that
        // is exactly a fit on train ∪ {x*} with y ∪ {μ(x*)} at the same
        // hyperparameters.
        let (x, y, cost, part) = grid();
        let config = AlConfig::new(gpr().with_standardize(false));
        let mut probe = Probe::new(CostEfficiency);
        let mut c = Campaign::new(&x, &y, &cost, &part, &mut probe, &config).unwrap();
        let picked = c.select(2).unwrap().rows();
        drop(c);
        let (first, second) = (&probe.calls[0], &probe.calls[1]);
        assert_eq!(
            second.train, first.train,
            "ctx.train holds measured rows only"
        );
        assert_eq!(second.n_train, first.n_train + 1);
        let pos = first.pool.iter().position(|&r| r == picked[0]).unwrap();
        let mut rows = first.train.clone();
        rows.push(picked[0]);
        let mut ys: Vec<f64> = first.train.iter().map(|&r| y[r]).collect();
        ys.push(first.predictions[pos].mean);
        let fresh = Gpr::fit(
            x.select_rows(&rows),
            &ys,
            first.kernel.clone_box(),
            first.noise_std,
            false,
        )
        .unwrap();
        let want = fresh.predict_batch(&x.select_rows(&second.pool)).unwrap();
        for (got, want) in second.predictions.iter().zip(&want) {
            assert!((got.mean - want.mean).abs() < 1e-10, "{got:?} vs {want:?}");
            assert!((got.std - want.std).abs() < 1e-10, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn strategies_only_see_measured_rows_in_train() {
        // EMCM reads y_all[train], so a fantasy row in ctx.train would
        // leak a response nobody measured.
        let (x, y, cost) = dataset();
        let part = Partition::random(x.nrows(), 2, 0.8, 5);
        for pipeline in [PipelineConfig::Off, PipelineConfig::Speculative] {
            let known = Arc::new(Mutex::new(part.initial.iter().copied().collect()));
            let oracle = RecordingOracle {
                inner: SeededFaultOracle::new(17, 0.2),
                measured: Arc::clone(&known),
            };
            let mut probe = Probe::new(VarianceReduction);
            probe.known = Some(known);
            let config = AlConfig {
                max_iters: 12,
                batch: 3,
                pipeline,
                ..AlConfig::new(gpr())
            };
            let run =
                run_al_with_oracle(&x, &y, &cost, &part, &mut probe, &oracle, &config).unwrap();
            assert_eq!(run.history.len() + run.lost.len(), 12);
            assert_eq!(probe.calls.len(), 12, "one strategy call per pick");
        }
    }

    /// 1-D noisy dataset: y = 2 sin(x) + noise on [0, 8); cost grows with x.
    fn dataset() -> (Matrix, Vec<f64>, Vec<f64>) {
        use rand::Rng;
        let n = 40;
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .map(|v| v.sin() * 2.0 + rng.gen_range(-0.15..0.15))
            .collect();
        let cost: Vec<f64> = xs.iter().map(|v| 1.0 + v * v).collect();
        (Matrix::from_vec(n, 1, xs).unwrap(), y, cost)
    }

    #[test]
    fn batches_under_faults_are_distinct_complete_and_reproducible() {
        let (x, y, cost) = dataset();
        let part = Partition::random(x.nrows(), 2, 0.8, 5);
        let oracle = SeededFaultOracle::new(17, 0.2);
        let strategies: [fn() -> Box<dyn Strategy>; 4] = [
            || Box::new(VarianceReduction),
            || Box::new(CostEfficiency),
            || Box::new(RandomSampling),
            || Box::new(Emcm::new(4, Box::new(SquaredExponential::unit()), 0.05)),
        ];
        let max_iters = 15;
        let mut lost_any = false;
        for make in strategies {
            let run = |pipeline, width| {
                let config = AlConfig {
                    max_iters,
                    seed: 3,
                    batch: 3,
                    pipeline,
                    ..AlConfig::new(gpr())
                };
                let mut strategy = make();
                let run = with_threads(width, || {
                    run_al_with_oracle(&x, &y, &cost, &part, strategy.as_mut(), &oracle, &config)
                })
                .unwrap();
                (run.history, run.lost, run.final_train)
            };
            let reference = run(PipelineConfig::Off, 1);
            let name = make().name();
            let (history, lost, _) = &reference;
            assert_eq!(history.len() + lost.len(), max_iters, "{name}");
            let rows: BTreeSet<usize> = history
                .iter()
                .map(|r| r.chosen_row)
                .chain(lost.iter().map(|l| l.row))
                .collect();
            assert_eq!(rows.len(), max_iters, "{name}: a row was picked twice");
            lost_any |= !lost.is_empty();
            assert_eq!(run(PipelineConfig::Off, 1), reference, "{name}: repeat");
            assert_eq!(run(PipelineConfig::Off, 2), reference, "{name}: width 2");
            let speculative = run(PipelineConfig::Speculative, 1);
            assert_eq!(speculative.0.len() + speculative.1.len(), max_iters);
            assert_eq!(
                run(PipelineConfig::Speculative, 1),
                speculative,
                "{name}: speculative repeat"
            );
            assert_eq!(
                run(PipelineConfig::Speculative, 2),
                speculative,
                "{name}: speculative width 2"
            );
        }
        assert!(
            lost_any,
            "rate 0.2 lost nothing: the lost path went untested"
        );
    }
}
