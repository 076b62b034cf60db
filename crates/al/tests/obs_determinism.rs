//! Determinism guard: telemetry must be strictly observational.
//!
//! Runs the same small AL experiment with telemetry off and then fully on
//! (global switch + JSONL trace sink + labeled metric families + the
//! stack-sampling profiler + the black-box flight recorder), same seed,
//! and requires the *bit-identical* histories —
//! RMSE/AMSD/sigma_f traces, selected-candidate sequence, costs, LML,
//! noise — via `IterationRecord`'s `PartialEq`.
//! This is the contract that lets instrumentation live inside the hot
//! numeric paths: a telemetry-on run may only be slower, never different.
//!
//! Lives in its own integration-test binary because it flips the global
//! telemetry switch; unit tests in the same process would race it.

use alperf_al::runner::{run_al, AlConfig, AlRun, PipelineConfig};
use alperf_al::strategy::VarianceReduction;
use alperf_data::partition::Partition;
use alperf_gp::kernel::SquaredExponential;
use alperf_gp::noise::NoiseFloor;
use alperf_gp::optimize::{ApproxConfig, FitTier, GprConfig};
use alperf_linalg::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 8.0 / n as f64).collect();
    let y: Vec<f64> = xs
        .iter()
        .map(|v| v.sin() * 2.0 + rng.gen_range(-0.15..0.15))
        .collect();
    let cost: Vec<f64> = xs.iter().map(|v| 1.0 + v * v).collect();
    (Matrix::from_vec(n, 1, xs).unwrap(), y, cost)
}

fn run_once() -> AlRun {
    let (x, y, cost) = dataset(40, 11);
    let part = Partition::random(40, 2, 0.8, 5);
    let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::Fixed(0.05))
        .with_restarts(2)
        .with_seed(7);
    let cfg = AlConfig {
        max_iters: 12,
        seed: 3,
        ..AlConfig::new(gpr)
    };
    run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap()
}

/// Same campaign on the approximate (sparse) tier: low-rank fits must be
/// just as indifferent to telemetry as the exact path.
fn run_once_sparse() -> AlRun {
    let (x, y, cost) = dataset(40, 11);
    let part = Partition::random(40, 2, 0.8, 5);
    let approx = ApproxConfig {
        max_rank: 10,
        hyper_subsample: 16,
        gate_max_n: 0, // no exact-refit gate: keep every iteration sparse
        ..ApproxConfig::default()
    };
    let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::Fixed(0.05))
        .with_restarts(2)
        .with_seed(7)
        .with_tier(FitTier::Approximate)
        .with_approx(approx);
    let cfg = AlConfig {
        max_iters: 12,
        seed: 3,
        ..AlConfig::new(gpr)
    };
    run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap()
}

/// Same campaign through the speculative pipelined runner: overlap
/// timing is read from the clock only when telemetry is on, so on/off
/// bit-identity is the proof the clock never leaks into the numerics.
fn run_once_pipelined() -> AlRun {
    let (x, y, cost) = dataset(40, 11);
    let part = Partition::random(40, 2, 0.8, 5);
    let gpr = GprConfig::new(Box::new(SquaredExponential::unit()))
        .with_noise_floor(NoiseFloor::Fixed(0.05))
        .with_restarts(2)
        .with_seed(7);
    let cfg = AlConfig {
        max_iters: 12,
        seed: 3,
        pipeline: PipelineConfig::Speculative,
        ..AlConfig::new(gpr)
    };
    run_al(&x, &y, &cost, &part, &mut VarianceReduction, &cfg).unwrap()
}

// One #[test] only: the global telemetry switch is process-wide, and the
// default multi-threaded test runner would race two tests flipping it.
#[test]
fn telemetry_on_is_bit_identical_to_telemetry_off() {
    // Baseline: telemetry fully off.
    alperf_obs::set_enabled(false);
    let off = run_once();
    let off_sparse = run_once_sparse();
    let off_pipelined = run_once_pipelined();

    // Telemetry fully on: global switch, JSONL trace, metrics registry —
    // plus the cooperative stack sampler at an aggressive rate and the
    // black-box recorder mirroring every span/record into its rings,
    // which must be just as strictly observational as the passive sinks.
    let trace = std::env::temp_dir().join(format!(
        "alperf_obs_determinism_{}.jsonl",
        std::process::id()
    ));
    alperf_obs::sink::install_jsonl(&trace).unwrap();
    alperf_obs::set_enabled(true);
    let sampler = alperf_obs::profiler::start(500.0);
    alperf_obs::blackbox::arm(alperf_obs::blackbox::DEFAULT_CAPACITY);
    let campaign_iters_before = alperf_obs::counter_vec(
        alperf_obs::names::AL_CAMPAIGN_ITERATIONS,
        &[
            alperf_obs::names::LABEL_CAMPAIGN,
            alperf_obs::names::LABEL_STRATEGY,
        ],
    )
    .snapshot()
    .iter()
    .map(|(_, v)| v)
    .sum::<u64>();
    let on = run_once();
    // Second telemetry-on run: run ids differ, numerics must not.
    let on2 = run_once();
    let on_sparse = run_once_sparse();
    let stale_before = alperf_obs::counter(alperf_obs::names::AL_PIPELINE_STALE_SELECTS).get();
    let reconciles_before = alperf_obs::counter(alperf_obs::names::AL_PIPELINE_RECONCILES).get();
    let on_pipelined = run_once_pipelined();
    let blackbox_events = alperf_obs::blackbox::snapshot().len();
    sampler.stop();
    alperf_obs::blackbox::disarm();
    alperf_obs::set_enabled(false);
    alperf_obs::sink::uninstall();

    // Bit-identical, not approximately equal: PartialEq on f64 fields.
    assert_eq!(off.history, on.history);
    assert_eq!(off.final_train, on.final_train);
    let off_rows: Vec<usize> = off.history.iter().map(|r| r.chosen_row).collect();
    let on_rows: Vec<usize> = on.history.iter().map(|r| r.chosen_row).collect();
    assert_eq!(off_rows, on_rows, "selected-candidate sequence diverged");

    // The telemetry-on run actually produced telemetry.
    let text = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_file(&trace).ok();
    assert!(text.lines().count() > off.history.len());
    assert!(
        text.lines().any(|l| l.contains("\"al.iteration\"")),
        "trace has no al.iteration records"
    );
    assert!(
        alperf_obs::counter("al.iterations").get() >= on.history.len() as u64,
        "iteration counter did not advance"
    );
    assert_eq!(on.history, on2.history, "telemetry-on runs diverged");

    // Approximate tier: same contract, and the trace carries the sparse-fit
    // spans plus tier-tagged iteration records.
    assert_eq!(
        off_sparse.history, on_sparse.history,
        "sparse tier diverged"
    );
    assert_eq!(off_sparse.final_train, on_sparse.final_train);
    assert!(
        text.contains("\"gp.sparse_fit\""),
        "trace has no gp.sparse_fit spans"
    );
    assert!(
        text.contains("\"tier\":\"fitc\"") || text.contains("\"tier\": \"fitc\""),
        "trace has no fitc-tier iteration records"
    );

    // Pipelined runner: same contract — telemetry (and the monotonic
    // clock reads it gates) must not perturb the speculative schedule.
    assert_eq!(
        off_pipelined.history, on_pipelined.history,
        "pipelined runner diverged under telemetry"
    );
    assert_eq!(off_pipelined.final_train, on_pipelined.final_train);
    // The speculative run left its fingerprints in the telemetry: a
    // pipeline-tagged run start, stale selections, and one reconcile per
    // measured iteration.
    assert!(
        text.contains("\"pipeline\":\"speculative\"")
            || text.contains("\"pipeline\": \"speculative\""),
        "trace has no speculative-pipeline run-start record"
    );
    let stale = alperf_obs::counter(alperf_obs::names::AL_PIPELINE_STALE_SELECTS).get();
    assert!(
        stale > stale_before,
        "stale-selection counter did not advance"
    );
    assert_eq!(
        alperf_obs::counter(alperf_obs::names::AL_PIPELINE_RECONCILES).get() - reconciles_before,
        on_pipelined.history.len() as u64,
        "one reconcile per measured pipelined iteration"
    );

    // Telemetry was really running, not just enabled: labeled
    // per-campaign counters advanced (one series per run id, all tagged
    // with the strategy).
    let campaign_iters = alperf_obs::counter_vec(
        alperf_obs::names::AL_CAMPAIGN_ITERATIONS,
        &[
            alperf_obs::names::LABEL_CAMPAIGN,
            alperf_obs::names::LABEL_STRATEGY,
        ],
    )
    .snapshot();
    let labeled_total: u64 = campaign_iters.iter().map(|(_, v)| v).sum();
    let expected = (on.history.len()
        + on2.history.len()
        + on_sparse.history.len()
        + on_pipelined.history.len()) as u64;
    assert!(
        labeled_total - campaign_iters_before >= expected,
        "labeled campaign counters advanced by {} (< {expected})",
        labeled_total - campaign_iters_before
    );
    assert!(
        campaign_iters
            .iter()
            .all(|(values, _)| values[1] == "variance_reduction"),
        "campaign series not tagged with the strategy label"
    );
    // The sampler observed the telemetry-on runs without perturbing them
    // (the bit-identity assertions above ran with it armed).
    assert!(
        alperf_obs::counter(alperf_obs::names::OBS_PROFILER_SAMPLES).get() > 0,
        "stack sampler took no samples during the telemetry-on runs"
    );
    assert!(
        text.lines().any(|l| l.contains("\"t\":\"sample\"")),
        "trace has no profiler sample records"
    );

    // The flight recorder captured events (the bit-identity assertions
    // above ran with it armed).
    assert!(
        blackbox_events > 0,
        "black-box recorder captured no events during the telemetry-on runs"
    );
}
