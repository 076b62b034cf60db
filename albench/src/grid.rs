//! The paper-claims grid workload: 1008 campaigns through the grid
//! executor, committed as JSONL, re-parsed and ranked, plus a probed
//! replay of every fourth campaign for decision latency and attribution.

use crate::campaign::{run_parallel, run_probed, CampaignStats, PassResult, Problem};
use crate::probe::now_ns;
use alperf_al::oracle::SeededFaultOracle;
use alperf_al::runner::{AlConfig, AlRun};
use alperf_al::strategy::{CostEfficiency, RandomSampling, Strategy, VarianceReduction};
use alperf_data::partition::Partition;
use alperf_gp::kernel::{Kernel, Matern32, Matern52, RationalQuadratic, SquaredExponential};
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{FitTier, GprConfig};
use alperf_grid::campaign::synthesize;
use alperf_grid::exec::{run_grid, ExecConfig};
use alperf_grid::rank::{leaderboards, significance, RankConfig};
use alperf_grid::spec::{mix, CampaignConfig, GridSpec, KernelKind, StrategyKind, TierKind};
use alperf_grid::summary::{parse_summaries, trajectory_digest, SummaryRecord};
use alperf_linalg::matrix::Matrix;
use alperf_linalg::threads;
use std::path::PathBuf;

/// Every `REPLAY_STRIDE`-th config is replayed through the probes.
pub const REPLAY_STRIDE: usize = 4;
/// Cost window of `rmse_cost_auc`: row costs are 1 + x²/4 on x in
/// [0, 8], and four initial rows plus ten experiments cost about 95 in
/// all, so the window spans the last two thirds of a typical campaign.
pub const GRID_WINDOW: (f64, f64) = (30.0, 90.0);
/// The grid campaigns' fixed noise floor (mirrors the grid crate).
const GRID_FLOOR: NoiseFloor = NoiseFloor::Fixed(0.05);

/// The paper-claims grid: 3 strategies × {SE, Matérn-5/2} × 3 noises ×
/// fault rates {0, 0.2} × 28 replicate seeds, 10 iterations each.
pub fn paper_claims_spec(base_seed: u64) -> GridSpec {
    GridSpec {
        name: "paper_claims".into(),
        base_seed,
        rows: 40,
        iters: 10,
        strategies: vec![
            StrategyKind::VarianceReduction,
            StrategyKind::CostEfficiency,
            StrategyKind::Random,
        ],
        kernels: vec![KernelKind::Se, KernelKind::Matern52],
        noises: vec![0.05, 0.2, 0.5],
        fault_rates: vec![0.0, 0.2],
        seeds: (0..28).collect(),
        ..GridSpec::default()
    }
}

/// Distinct grids a run draws (each from its own base seed); a run that
/// gets further repeats them.
pub const DISTINCT_GRIDS: usize = 8;
/// Leading passes that quality and count metrics come from.
pub const QUALITY_PASSES: usize = 2;

/// A replayed config with its synthesized inputs.
pub struct ReplayInput {
    /// The config.
    pub cfg: CampaignConfig,
    /// Its dataset, cost and partition from `synthesize`.
    pub data: (Matrix, Vec<f64>, Vec<f64>, Partition),
}

/// One distinct grid.
pub struct Grid {
    /// The canonical spec.
    pub spec: GridSpec,
    /// Its expansion.
    pub configs: Vec<CampaignConfig>,
    /// Every `REPLAY_STRIDE`-th config, ready to replay.
    pub replay: Vec<ReplayInput>,
}

impl Grid {
    /// Canonicalize and expand `spec`, then synthesize the replayed
    /// configs' inputs. Returns the grid and the nanoseconds spent
    /// expanding and synthesizing.
    pub fn new(spec: GridSpec) -> Result<(Grid, u64, u64), String> {
        let t0 = now_ns();
        let spec = spec.canonicalize().map_err(|e| e.to_string())?;
        let configs = spec.expand().map_err(|e| e.to_string())?;
        let t1 = now_ns();
        if !configs
            .iter()
            .all(|c| c.batch == 1 && c.tier == TierKind::Exact)
        {
            return Err("the replay mirrors only batch-1 exact-tier campaigns".into());
        }
        let replay = configs
            .iter()
            .step_by(REPLAY_STRIDE)
            .map(|cfg| ReplayInput {
                cfg: cfg.clone(),
                data: synthesize(cfg),
            })
            .collect();
        let t2 = now_ns();
        let grid = Grid {
            spec,
            configs,
            replay,
        };
        Ok((grid, t1 - t0, t2 - t1))
    }
}

/// The prepared grid workload.
pub struct GridSetup {
    /// The distinct grids.
    pub grids: Vec<Grid>,
    /// Where the summary stream is committed.
    pub out: PathBuf,
    /// Nanoseconds in `canonicalize` + `GridSpec::expand`, all grids.
    pub expand_ns: u64,
    /// Nanoseconds in `synthesize` for the replayed configs, all grids.
    pub simulate_ns: u64,
}

/// Expand the distinct grids for `seed` and synthesize their replay
/// inputs.
pub fn setup(seed: u64, out: PathBuf) -> Result<GridSetup, String> {
    let mut setup = GridSetup {
        grids: Vec::with_capacity(DISTINCT_GRIDS),
        out,
        expand_ns: 0,
        simulate_ns: 0,
    };
    for p in 0..DISTINCT_GRIDS as u64 {
        let (grid, expand_ns, simulate_ns) = Grid::new(paper_claims_spec(mix(seed, 0x6772 + p)))?; // "gr"
        setup.grids.push(grid);
        setup.expand_ns += expand_ns;
        setup.simulate_ns += simulate_ns;
    }
    Ok(setup)
}

fn kernel(kind: KernelKind) -> Box<dyn Kernel> {
    match kind {
        KernelKind::Se => Box::new(SquaredExponential::unit()),
        KernelKind::Matern32 => Box::new(Matern32::new(1.0, 1.0)),
        KernelKind::Matern52 => Box::new(Matern52::new(1.0, 1.0)),
        KernelKind::RationalQuadratic => Box::new(RationalQuadratic::new(1.0, 1.0, 1.0)),
    }
}

fn strategy(kind: StrategyKind) -> Box<dyn Strategy> {
    match kind {
        StrategyKind::VarianceReduction => Box::new(VarianceReduction),
        StrategyKind::CostEfficiency => Box::new(CostEfficiency),
        StrategyKind::Random => Box::new(RandomSampling),
    }
}

/// Replay one grid campaign through the probes with the grid's own
/// dataset, oracle and GPR settings, and check it reproduces the
/// committed record. `run_grid` builds its campaigns internally and
/// takes no wrappers, so this mirrors the private campaign set-up in
/// `crates/grid/src/campaign.rs` (kernel and strategy choice, GPR
/// config, seed salts, `AlConfig`); the trajectory-digest check fails
/// the run if the two drift apart.
fn replay(input: &ReplayInput, rec: &SummaryRecord, traced: bool) -> CampaignStats {
    let (cfg, (x, y, cost, part)) = (&input.cfg, &input.data);
    let problem = Problem { x, y, cost, part };
    let oracle = SeededFaultOracle::new(mix(cfg.data_seed(), 0x666c74), cfg.fault_rate); // "flt"
    let make_cfg = |k| {
        let gpr = GprConfig::new(k)
            .with_noise_floor(GRID_FLOOR)
            .with_restarts(2)
            .with_seed(mix(cfg.run_seed, 0x6770)) // "gp"
            .with_tier(FitTier::Exact);
        let mut al = AlConfig::new(gpr);
        al.max_iters = cfg.iters;
        al.seed = cfg.run_seed;
        al
    };
    let check = |run: &AlRun| {
        let digest = trajectory_digest(&run.rmse_series(), &run.amsd_series());
        if rec.status != "ok"
            || digest != rec.traj
            || run.history.len() as u64 != rec.iters
            || run.lost.len() as u64 != rec.degraded
        {
            return Err(format!(
                "replay of grid config {} differs from its record",
                cfg.index
            ));
        }
        Ok(())
    };
    run_probed(
        &problem,
        strategy(cfg.strategy),
        oracle,
        kernel(cfg.kernel),
        GRID_FLOOR,
        make_cfg,
        GRID_WINDOW,
        traced,
        check,
    )
}

/// `"wall_ns":<n>` of one summary record line.
fn wall_ns(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"wall_ns\":")? + "\"wall_ns\":".len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

impl GridSetup {
    /// Run distinct grid `p` at pool width `width`, re-parse and rank its
    /// summaries, then replay the probed sample.
    pub fn pass(&self, p: usize, width: usize, traced: bool) -> PassResult {
        let Grid {
            spec,
            configs,
            replay: sample,
        } = &self.grids[p];
        let mut out = PassResult::default();
        let t0 = now_ns();
        let exec = ExecConfig {
            timing: true,
            ..ExecConfig::default()
        };
        let ran = threads::with_threads(width, || run_grid(spec, &self.out, &exec));
        let text = ran.map_err(|e| format!("run_grid: {e}")).and_then(|_| {
            std::fs::read_to_string(&self.out).map_err(|e| format!("read summaries: {e}"))
        });
        let text = match text {
            Ok(t) => t,
            Err(e) => {
                out.failures.push(e);
                out.wall_ns = now_ns() - t0;
                return out;
            }
        };
        out.commit_bytes = text.len() as u64;
        let file = match parse_summaries(&text) {
            Ok(f) if f.n_configs == configs.len() && f.records.len() == f.n_configs => f,
            Ok(f) => {
                out.failures.push(format!(
                    "summary file holds {} of {} records",
                    f.records.len(),
                    configs.len()
                ));
                out.wall_ns = now_ns() - t0;
                return out;
            }
            Err(e) => {
                out.failures.push(format!("parse_summaries: {e}"));
                out.wall_ns = now_ns() - t0;
                return out;
            }
        };
        out.campaign_ms = text
            .lines()
            .skip(1)
            .filter_map(wall_ns)
            .map(|ns| ns as f64 / 1e6)
            .collect();
        if out.campaign_ms.len() != file.records.len() {
            out.failures
                .push("a summary record lacks its wall time".into());
        }
        for rec in &file.records {
            out.attempted += 1;
            out.iterations += rec.iters + rec.degraded;
            match rec.status.as_str() {
                "ok" if rec.rmse_final.is_finite() => out.final_rmse.push(rec.rmse_final),
                "ok" => out
                    .failures
                    .push(format!("config {}: non-finite final RMSE", rec.index)),
                _ => out
                    .failures
                    .push(format!("config {}: campaign error", rec.index)),
            }
            out.fingerprint.push(rec.rmse_final.to_bits());
            out.fingerprint
                .push(u64::from_str_radix(&rec.traj, 16).unwrap_or(u64::MAX));
        }
        let t1 = now_ns();
        let boards = leaderboards(&file.records);
        let verdicts = significance(&file.records, &RankConfig::default());
        out.rank_ns = now_ns() - t1;
        if boards.is_empty() || verdicts.is_empty() {
            out.failures
                .push("ranking produced no leaderboards or verdicts".into());
        }
        // The replay is not part of the grid study, so it stays out of
        // the pass time (run_s, iters_per_s).
        out.wall_ns = now_ns() - t0;
        let probed = run_parallel(sample, width, |r| {
            replay(r, &file.records[r.cfg.index], traced)
        });
        out.absorb(probed, false);
        out
    }
}
