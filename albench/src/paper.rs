//! The paper workloads: Fig. 7 (noise floor) and Fig. 8 (cost
//! efficiency) AL campaigns over the simulated Performance dataset.

use crate::campaign::{run_parallel, run_probed, CampaignStats, PassResult, Problem};
use crate::probe::now_ns;
use alperf_al::metrics::paper_metrics;
use alperf_al::oracle::DatasetOracle;
use alperf_al::runner::AlConfig;
use alperf_al::strategy::{CostEfficiency, Strategy, VarianceReduction};
use alperf_al::tradeoff;
use alperf_cluster::campaign::Campaign;
use alperf_core::analysis::paper_kernel_bounds;
use alperf_data::csvio;
use alperf_data::partition::Partition;
use alperf_gp::kernel::ArdSquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::GprConfig;
use alperf_grid::spec::mix;
use alperf_linalg::matrix::Matrix;

/// Fig. 7: AL iterations per campaign (training set grows 1 → 61).
pub const FIG7_ITERS: usize = 60;
/// Fig. 7: cost window of `rmse_cost_auc`, in experiments (cost is one
/// per experiment and the initial row costs one): the last 40 of 60.
pub const FIG7_WINDOW: (f64, f64) = (21.0, 61.0);
/// Fig. 8: cost window of `rmse_cost_auc`, in core-seconds: from past the
/// paper's crossover cost C = 1626 to about 3.7 C, where the paper reports
/// its error reductions, and below the ~6800 core-seconds a campaign
/// spends by pool exhaustion. Before C the area is set by how expensive
/// the first few picks are and varies too much between partitions.
pub const FIG8_WINDOW: (f64, f64) = (2_000.0, 6_000.0);

/// Which paper figure a campaign list reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 7: Variance Reduction under the 1e-8 and 1e-1 noise floors.
    Fig7,
    /// Fig. 8: Variance Reduction and Cost Efficiency to pool exhaustion.
    Fig8,
}

/// One campaign of a paper workload.
#[derive(Debug, Clone)]
pub struct PaperCampaign {
    /// Noise floor on sigma_n.
    pub floor: NoiseFloor,
    /// Cost Efficiency (true) or Variance Reduction.
    pub cost_efficiency: bool,
    /// Random partition of the subset.
    pub part: Partition,
    /// Seed of the restarts and of the strategy RNG.
    pub seed: u64,
}

/// The prepared inputs of a paper workload.
pub struct PaperSetup {
    /// Which figure.
    pub figure: Figure,
    /// log10(problem size), CPU frequency per row of the subset.
    pub x: Matrix,
    /// log10(runtime) per row.
    pub y: Vec<f64>,
    /// Per-row cost: 1 (Fig. 7) or runtime × 32 cores (Fig. 8).
    pub cost: Vec<f64>,
    /// Campaigns of each distinct pass.
    pub passes: Vec<Vec<PaperCampaign>>,
    /// Jobs the cluster simulator ran (completed + failed).
    pub jobs: u64,
    /// Nanoseconds in `Campaign::run`.
    pub simulate_ns: u64,
    /// Nanoseconds in the CSV round trip, subset and partitions.
    pub prepare_ns: u64,
}

/// Campaign layout: `(distinct passes, quality passes, campaigns per
/// floor or strategy per pass)`. A run repeats passes only after the
/// distinct ones are used up.
pub fn layout(figure: Figure) -> (usize, usize, usize) {
    match figure {
        // Quality: 2 passes × 2 floors × 5 partitions = the paper's 10
        // repetitions per floor, 1200 iterations in all.
        Figure::Fig7 => (32, 2, 5),
        // Both strategies on one shared partition per pass, run to pool
        // exhaustion. Quality: 8 campaigns, about 1550 iterations.
        Figure::Fig8 => (16, 4, 1),
    }
}

/// Simulate the paper's measurement campaign, round-trip it through CSV,
/// take the (poisson1, NP = 32) subset and draw every partition.
/// Hermetic: nothing is read from or cached on disk.
///
/// The campaign is the paper's one dataset (the default workload seed,
/// as in every reproduction binary), so its size and the AL work per
/// campaign do not change with `seed`; `seed` draws the partitions and
/// the restart and strategy seeds.
pub fn setup(figure: Figure, seed: u64, width: usize) -> Result<PaperSetup, String> {
    let t0 = now_ns();
    let campaign = Campaign {
        workers: width,
        ..Campaign::default()
    };
    let out = campaign.run().map_err(|e| format!("Campaign::run: {e}"))?;
    let t1 = now_ns();
    let csv = csvio::to_csv(&out.performance).map_err(|e| format!("to_csv: {e:?}"))?;
    let perf =
        csvio::from_csv(&csv, &["Runtime", "Memory"]).map_err(|e| format!("from_csv: {e:?}"))?;
    let sub = perf
        .fix_level("Operator", "poisson1")
        .and_then(|d| d.fix_variable("NP", 32.0))
        .map_err(|e| format!("subset: {e:?}"))?;
    let err = |e| format!("subset columns: {e:?}");
    let sizes = &sub.variable("Global Problem Size").map_err(err)?.values;
    let freqs = &sub.variable("CPU Frequency").map_err(err)?.values;
    let runtime = sub.response("Runtime").map_err(err)?;
    let n = sub.n_rows();
    let mut flat = Vec::with_capacity(2 * n);
    for i in 0..n {
        flat.push(sizes[i].log10());
        flat.push(freqs[i]);
    }
    let x = Matrix::from_vec(n, 2, flat).map_err(|e| format!("design matrix: {e:?}"))?;
    let y = runtime.iter().map(|r| r.log10()).collect();
    let cost = match figure {
        Figure::Fig7 => vec![1.0; n],
        Figure::Fig8 => runtime.iter().map(|r| r * 32.0).collect(),
    };
    let (n_passes, _, per_pass) = layout(figure);
    let mut passes = Vec::with_capacity(n_passes);
    let mut k = 0u64;
    for _ in 0..n_passes {
        let mut pass = Vec::new();
        for group in 0..2 {
            for _ in 0..per_pass {
                let (floor, cost_efficiency) = match figure {
                    Figure::Fig7 if group == 0 => (NoiseFloor::loose(), false),
                    Figure::Fig7 => (NoiseFloor::recommended(), false),
                    Figure::Fig8 => (NoiseFloor::recommended(), group == 1),
                };
                // Fig. 8 compares strategies on shared partitions.
                let part_key = if figure == Figure::Fig8 { k / 2 } else { k };
                pass.push(PaperCampaign {
                    floor,
                    cost_efficiency,
                    part: Partition::paper_default(n, mix(seed, 0x7061 + part_key)),
                    seed: mix(seed, k),
                });
                k += 1;
            }
        }
        passes.push(pass);
    }
    let t2 = now_ns();
    Ok(PaperSetup {
        figure,
        x,
        y,
        cost,
        passes,
        jobs: (out.records.len() + out.failures.len()) as u64,
        simulate_ns: t1 - t0,
        prepare_ns: t2 - t1,
    })
}

impl PaperSetup {
    fn campaign(&self, c: &PaperCampaign, traced: bool) -> CampaignStats {
        let problem = Problem {
            x: &self.x,
            y: &self.y,
            cost: &self.cost,
            part: &c.part,
        };
        let strategy: Box<dyn Strategy> = if c.cost_efficiency {
            Box::new(CostEfficiency)
        } else {
            Box::new(VarianceReduction)
        };
        let figure = self.figure;
        let active = c.part.active.len();
        let make_cfg = |kernel| {
            let gpr = GprConfig::new(kernel)
                .with_noise_floor(c.floor)
                .with_restarts(if figure == Figure::Fig7 { 3 } else { 2 })
                .with_kernel_bounds(paper_kernel_bounds(2))
                .with_standardize(false)
                .with_seed(c.seed);
            let mut cfg = AlConfig::new(gpr);
            cfg.seed = c.seed;
            match figure {
                Figure::Fig7 => cfg.max_iters = FIG7_ITERS,
                Figure::Fig8 => {
                    cfg.max_iters = usize::MAX;
                    cfg.refit_every = 4;
                }
            }
            cfg
        };
        let check = |run: &alperf_al::runner::AlRun| {
            let done = run.history.len() + run.lost.len();
            match figure {
                Figure::Fig7 if done != FIG7_ITERS => Err(format!(
                    "fig7 campaign ran {done} of {FIG7_ITERS} iterations"
                )),
                Figure::Fig8 if done != active => Err(format!(
                    "fig8 campaign left the pool non-empty ({done} of {active})"
                )),
                _ => Ok(()),
            }
        };
        let window = match figure {
            Figure::Fig7 => FIG7_WINDOW,
            Figure::Fig8 => FIG8_WINDOW,
        };
        run_probed(
            &problem,
            strategy,
            DatasetOracle,
            Box::new(ArdSquaredExponential::unit(2)),
            c.floor,
            make_cfg,
            window,
            traced,
            check,
        )
    }

    /// Run distinct pass `p` on `width` workers, then the figure's
    /// analysis layer over its runs.
    pub fn pass(&self, p: usize, width: usize, traced: bool) -> PassResult {
        let t0 = now_ns();
        let campaigns = &self.passes[p];
        let probed = run_parallel(campaigns, width, |c| self.campaign(c, traced));
        let mut out = PassResult::default();
        let runs = |pick: &dyn Fn(&PaperCampaign) -> bool| -> Vec<_> {
            campaigns
                .iter()
                .zip(&probed)
                .filter(|(c, _)| pick(c))
                .filter_map(|(_, s)| s.run.clone())
                .collect()
        };
        let (a, b) = match self.figure {
            Figure::Fig7 => (
                runs(&|c| c.floor == NoiseFloor::loose()),
                runs(&|c| c.floor != NoiseFloor::loose()),
            ),
            Figure::Fig8 => (runs(&|c| !c.cost_efficiency), runs(&|c| c.cost_efficiency)),
        };
        let t1 = now_ns();
        let analysed = match self.figure {
            Figure::Fig7 => {
                let (sa, aa, ra) = paper_metrics(&a);
                let (sb, ab, rb) = paper_metrics(&b);
                [sa, aa, ra, sb, ab, rb]
                    .iter()
                    .all(|e| e.len() == FIG7_ITERS)
            }
            Figure::Fig8 => {
                let cmp = tradeoff::compare(&a, &b, 60);
                // Costs below every campaign's first experiment leave a
                // curve undefined (NaN) there; each curve must be defined
                // somewhere.
                !cmp.cost.is_empty()
                    && cmp.baseline.iter().any(|v| v.is_finite())
                    && cmp.contender.iter().any(|v| v.is_finite())
            }
        };
        out.rank_ns = now_ns() - t1;
        out.wall_ns = now_ns() - t0;
        if !analysed {
            out.failures.push(format!(
                "{:?} analysis produced incomplete curves",
                self.figure
            ));
        }
        out.campaign_ms = probed.iter().map(|c| c.wall_ns as f64 / 1e6).collect();
        out.absorb(probed, true);
        out
    }
}
