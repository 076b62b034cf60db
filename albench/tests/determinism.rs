//! The probes must not perturb the program: work counts and quality are
//! identical across repeated runs, across pool widths 1 and 2, and
//! between traced and untraced passes.
//!
//! Each workload runs one pass (the grid a 144-config slice of the
//! paper-claims grid), so the test takes about a minute with
//! `cargo test --release`; debug builds are too slow and skip it.

use albench::campaign::{CampaignStats, PassResult};
use albench::grid::{paper_claims_spec, Grid, GridSetup};
use albench::paper::{self, Figure};
use albench::probe::CountingKernel;
use alperf_gp::kernel::{ArdSquaredExponential, Kernel};
use alperf_grid::spec::GridSpec;
use std::sync::Arc;

/// The deterministic outputs of a pass: work counts, then quality bits.
fn counts(r: &PassResult) -> Vec<u64> {
    assert!(
        r.failures.is_empty(),
        "output checks failed: {:?}",
        r.failures
    );
    let sum = |f: &dyn Fn(&CampaignStats) -> u64| r.probed.iter().map(f).sum::<u64>();
    let mut v = vec![
        sum(&|c| c.kernel.0),     // gp.hyper_trials
        sum(&|c| c.select.calls), // al.select_calls
        sum(&|c| c.oracle.2),     // al.oracle_lost
        r.iterations,
    ];
    v.extend(r.final_rmse.iter().chain(&r.auc).map(|x| x.to_bits()));
    v
}

/// Traced at widths 1, 2 and 2 again; the traced pass matches an
/// untraced one bit for bit.
fn check(run: impl Fn(usize, bool) -> PassResult) {
    let plain = run(1, false);
    let traced = run(1, true);
    assert_eq!(
        plain.fingerprint, traced.fingerprint,
        "traced differs from untraced"
    );
    let reference = counts(&traced);
    assert!(reference[0] > 0 && reference[1] > 0, "counters saw no work");
    for _ in 0..2 {
        assert_eq!(
            counts(&run(2, true)),
            reference,
            "width 2 differs from width 1"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; run with --release"
)]
fn paper_workloads_repeat_across_widths_and_tracing() {
    for figure in [Figure::Fig7, Figure::Fig8] {
        let jobs: Vec<u64> = [1, 2, 2]
            .into_iter()
            .map(|w| paper::setup(figure, 7, w).expect("set-up").jobs)
            .collect();
        assert!(
            jobs[0] > 0 && jobs.iter().all(|&j| j == jobs[0]),
            "cluster.jobs {jobs:?}"
        );
        let s = paper::setup(figure, 7, 1).expect("set-up");
        check(|width, traced| s.pass(0, width, traced));
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; run with --release"
)]
fn grid_workload_repeats_across_widths_and_tracing() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("albench-grid");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (grid, _, _) = Grid::new(GridSpec {
        seeds: (0..4).collect(),
        ..paper_claims_spec(7)
    })
    .expect("grid");
    assert_eq!(grid.configs.len(), 144); // grid.configs
    let s = GridSetup {
        grids: vec![grid],
        out: dir.join("claims.jsonl"),
        expand_ns: 0,
        simulate_ns: 0,
    };
    check(|width, traced| s.pass(0, width, traced));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn counting_kernel_keeps_the_distance_form() {
    let inner = ArdSquaredExponential::new(vec![0.5, 2.0], 1.5);
    let mut k = CountingKernel::new(Box::new(inner.clone()), Arc::default());
    assert!(inner.distance_form().is_some());
    assert_eq!(k.distance_form(), inner.distance_form());
    k.set_params(&inner.params());
    assert_eq!(k.clone_box().distance_form(), inner.distance_form());
}
