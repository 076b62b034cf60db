//! Parallel experiment campaigns: batch Active Learning meets the cluster
//! scheduler.
//!
//! Paper §VI: "some experiments could reasonably be run in parallel which
//! adds additional scheduling concerns and may indicate a less greedy
//! selection strategy." This module closes that loop: each AL round selects
//! a *batch* of q experiments (Variance Reduction under greedy fantasy
//! conditioning, the `alperf_al::campaign` stepper with k = q), submits
//! them to the simulated SLURM scheduler together, and advances the
//! campaign clock by the batch's **makespan** —
//! so the tradeoff the paper anticipates becomes measurable: batches lose a
//! little statistical efficiency per experiment but win wall-clock time by
//! overlapping jobs on the cluster's nodes.

use alperf_al::campaign::Campaign;
use alperf_al::oracle::ExperimentOutcome;
use alperf_al::runner::AlConfig;
use alperf_al::strategy::VarianceReduction;
use alperf_cluster::job::JobRequest;
use alperf_cluster::scheduler::schedule_batch;
use alperf_data::partition::Partition;
use alperf_gp::optimize::GprConfig;
use alperf_hpgmg::model::PerfModel;
use alperf_linalg::matrix::Matrix;

use crate::analysis::AnalysisError;

/// One round of a parallel campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Round number (0-based).
    pub round: usize,
    /// Dataset rows executed this round.
    pub rows: Vec<usize>,
    /// Scheduler makespan of this round's batch, seconds.
    pub makespan: f64,
    /// Campaign wall-clock after this round, seconds.
    pub wall_clock: f64,
    /// Cumulative core-seconds consumed.
    pub core_seconds: f64,
    /// Test RMSE after retraining on everything measured so far.
    pub rmse: f64,
}

/// Configuration for a parallel campaign over an offline dataset.
pub struct ParallelCampaign<'a> {
    /// Design matrix over all rows.
    pub x_all: &'a Matrix,
    /// Response (log scale) over all rows.
    pub y_all: &'a [f64],
    /// Per-row job descriptions (for the scheduler) aligned with rows.
    pub requests: &'a [JobRequest],
    /// Per-row measured runtimes, seconds (the scheduler's job lengths).
    pub runtimes: &'a [f64],
    /// Machine/performance model (node counts for the scheduler).
    pub perf: &'a PerfModel,
    /// GPR configuration for the per-round fits.
    pub gpr: GprConfig,
    /// Batch size q (1 = sequential).
    pub q: usize,
}

impl ParallelCampaign<'_> {
    /// Run `rounds` rounds from the given partition; returns per-round
    /// records.
    ///
    /// # Errors
    /// Propagates GPR fitting errors; rejects inconsistent input lengths.
    pub fn run(
        &self,
        partition: &Partition,
        rounds: usize,
    ) -> Result<Vec<RoundRecord>, AnalysisError> {
        let n = self.x_all.nrows();
        if self.y_all.len() != n || self.requests.len() != n || self.runtimes.len() != n {
            return Err(AnalysisError::Data(
                alperf_data::dataset::DataSetError::LengthMismatch(format!(
                    "x has {n} rows; y/requests/runtimes have {}/{}/{}",
                    self.y_all.len(),
                    self.requests.len(),
                    self.runtimes.len()
                )),
            ));
        }
        // The campaign's cost is core-seconds (runtime x cores).
        let core_seconds: Vec<f64> = (0..n)
            .map(|i| self.runtimes[i] * self.requests[i].np as f64)
            .collect();
        let config = AlConfig {
            max_iters: rounds.saturating_mul(self.q),
            batch: self.q,
            ..AlConfig::new(self.gpr.clone())
        };
        let mut strategy = VarianceReduction;
        let mut campaign = Campaign::new(
            self.x_all,
            self.y_all,
            &core_seconds,
            partition,
            &mut strategy,
            &config,
        )?;
        let mut wall_clock = 0.0;
        let mut records = Vec::new();
        let mut selection = campaign.select(self.q)?;
        for round in 0..rounds {
            if selection.is_empty() {
                break;
            }
            let rows = selection.rows();
            // Schedule the batch on the cluster.
            let reqs: Vec<JobRequest> = rows.iter().map(|&r| self.requests[r]).collect();
            let rts: Vec<f64> = rows.iter().map(|&r| self.runtimes[r]).collect();
            let sched = schedule_batch(self.perf, &reqs, &rts);
            wall_clock += sched.makespan;
            campaign.commit(
                selection,
                &vec![ExperimentOutcome::Measured { attempts: 1 }; rows.len()],
            );
            // Refit on everything measured so far: the next round's
            // selection reports its test RMSE (after the last round
            // `max_iters` is spent, so it refits and picks nothing).
            selection = campaign.select(self.q)?;
            records.push(RoundRecord {
                round,
                rows,
                makespan: sched.makespan,
                wall_clock,
                core_seconds: campaign.cumulative_cost(),
                rmse: selection.rmse(),
            });
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alperf_gp::kernel::ArdSquaredExponential;
    use alperf_gp::noise::NoiseFloor;
    use alperf_hpgmg::operator::OperatorKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Fixture {
        x: Matrix,
        y: Vec<f64>,
        requests: Vec<JobRequest>,
        runtimes: Vec<f64>,
        perf: PerfModel,
    }

    fn fixture() -> Fixture {
        // Jobs over (log size, log np) with model-driven runtimes.
        let perf = PerfModel::calibrated();
        let mut rng = StdRng::seed_from_u64(5);
        let mut rows = Vec::new();
        let mut requests = Vec::new();
        let mut runtimes = Vec::new();
        let mut y = Vec::new();
        for i in 0..48 {
            let size = 10f64.powf(4.0 + (i % 8) as f64 * 0.5);
            let np = [4usize, 16, 64][(i / 8) % 3];
            let req = JobRequest {
                op: OperatorKind::Poisson1,
                size,
                np,
                freq: 1.8,
                repeat: i % 2,
            };
            let t = perf.runtime_mean(req.op, size, np, 1.8) * rng.gen_range(0.97..1.03);
            rows.push(vec![size.log10(), (np as f64).log2()]);
            requests.push(req);
            runtimes.push(t);
            y.push(t.log10());
        }
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        Fixture {
            x: Matrix::from_vec(48, 2, flat).unwrap(),
            y,
            requests,
            runtimes,
            perf,
        }
    }

    fn gpr() -> GprConfig {
        GprConfig::new(Box::new(ArdSquaredExponential::unit(2)))
            .with_noise_floor(NoiseFloor::recommended())
            .with_restarts(2)
            .with_standardize(false)
    }

    fn campaign(fx: &Fixture, q: usize) -> ParallelCampaign<'_> {
        ParallelCampaign {
            x_all: &fx.x,
            y_all: &fx.y,
            requests: &fx.requests,
            runtimes: &fx.runtimes,
            perf: &fx.perf,
            gpr: gpr(),
            q,
        }
    }

    #[test]
    fn rounds_execute_q_jobs_each() {
        let fx = fixture();
        let part = Partition::random(48, 2, 0.8, 1);
        let recs = campaign(&fx, 4).run(&part, 5).unwrap();
        assert_eq!(recs.len(), 5);
        for r in &recs {
            assert_eq!(r.rows.len(), 4);
            assert!(r.makespan > 0.0);
            assert!(r.rmse.is_finite());
        }
        // Wall clock accumulates monotonically.
        assert!(recs.windows(2).all(|w| w[1].wall_clock > w[0].wall_clock));
    }

    #[test]
    fn batching_wins_wall_clock_at_equal_experiment_count() {
        let fx = fixture();
        let part = Partition::random(48, 2, 0.8, 2);
        // 16 experiments: 4 rounds of 4 vs 16 rounds of 1.
        let batch = campaign(&fx, 4).run(&part, 4).unwrap();
        let seq = campaign(&fx, 1).run(&part, 16).unwrap();
        let batch_wall = batch.last().unwrap().wall_clock;
        let seq_wall = seq.last().unwrap().wall_clock;
        assert!(
            batch_wall < seq_wall,
            "batched {batch_wall:.1}s should beat sequential {seq_wall:.1}s"
        );
        // Statistical quality comparable (within 3x on this easy surface).
        let batch_rmse = batch.last().unwrap().rmse;
        let seq_rmse = seq.last().unwrap().rmse;
        assert!(
            batch_rmse < seq_rmse * 3.0 + 0.05,
            "batch rmse {batch_rmse} vs sequential {seq_rmse}"
        );
    }

    #[test]
    fn makespan_bounded_by_serial_sum_of_round() {
        let fx = fixture();
        let part = Partition::random(48, 2, 0.8, 3);
        let recs = campaign(&fx, 4).run(&part, 3).unwrap();
        for r in &recs {
            let serial: f64 = r.rows.iter().map(|&row| fx.runtimes[row]).sum();
            assert!(r.makespan <= serial + 1e-9);
        }
    }

    #[test]
    fn inconsistent_lengths_rejected() {
        let fx = fixture();
        let part = Partition::random(48, 2, 0.8, 0);
        let bad = ParallelCampaign {
            runtimes: &fx.runtimes[..10],
            ..campaign(&fx, 2)
        };
        assert!(bad.run(&part, 2).is_err());
    }

    #[test]
    fn pool_exhaustion_stops_early() {
        let fx = fixture();
        let part = Partition::random(48, 2, 0.1, 0); // tiny pool (~5 rows)
        let recs = campaign(&fx, 4).run(&part, 10).unwrap();
        let total: usize = recs.iter().map(|r| r.rows.len()).sum();
        assert!(total <= part.active.len());
    }
}
