//! Golden-fixture round trip for the grid summary pipeline: a checked-in
//! `alperf-grid-v1` summary file (an 18-campaign grid: 3 strategies ×
//! 2 noise levels × 3 replicate seeds under a 20% fault rate) must parse
//! and produce byte-identical leaderboard, significance, and claims
//! renderings. Any change to the summary reader, the ranking layer, or
//! the bootstrap that alters bytes shows up here.
//!
//! Regenerate after an *intentional* schema/format change with
//! `cargo test -p alperf-grid --test golden -- --ignored regenerate`
//! and review the fixture diff like any other golden update.

use alperf_grid::exec::{run_grid, ExecConfig};
use alperf_grid::rank::{
    leaderboards, render_claims, render_leaderboards, render_significance, significance, RankConfig,
};
use alperf_grid::spec::{GridSpec, StrategyKind};
use alperf_grid::summary::{parse_summaries, SummaryFile};
use std::path::{Path, PathBuf};

fn golden_spec() -> GridSpec {
    GridSpec {
        name: "golden".into(),
        base_seed: 11,
        rows: 16,
        iters: 4,
        strategies: vec![
            StrategyKind::VarianceReduction,
            StrategyKind::CostEfficiency,
            StrategyKind::Random,
        ],
        noises: vec![0.1, 0.4],
        fault_rates: vec![0.2],
        seeds: (0..3).collect(),
        ..GridSpec::default()
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture() -> SummaryFile {
    let text = std::fs::read_to_string(fixture_dir().join("small_grid.jsonl"))
        .expect("fixture must exist");
    parse_summaries(&text).expect("golden fixture must parse")
}

#[test]
fn golden_summary_parses() {
    let s = fixture();
    assert_eq!(s.grid, "golden");
    assert_eq!(s.n_configs, 18);
    assert_eq!(s.records.len(), 18);
    assert!(s.records.iter().all(|r| r.status == "ok"));
    assert!(s.records.iter().any(|r| r.degraded > 0));
    // Paired design: all strategies in a slice share replicate seeds.
    let slices: std::collections::BTreeSet<&str> =
        s.records.iter().map(|r| r.slice.as_str()).collect();
    assert_eq!(slices.len(), 2, "two noise levels, one slice each");
}

#[test]
fn golden_leaderboard_is_byte_stable() {
    let s = fixture();
    assert_eq!(
        render_leaderboards(&leaderboards(&s.records)),
        include_str!("fixtures/small_grid.leaderboard"),
        "leaderboard bytes drifted from the checked-in golden file"
    );
}

#[test]
fn golden_significance_is_byte_stable() {
    let s = fixture();
    let verdicts = significance(&s.records, &RankConfig::default());
    assert_eq!(verdicts.len(), 6, "C(3,2) pairs x 2 slices");
    assert_eq!(
        render_significance(&verdicts),
        include_str!("fixtures/small_grid.significance"),
        "significance bytes drifted from the checked-in golden file"
    );
    assert_eq!(
        render_claims(&verdicts, "random"),
        include_str!("fixtures/small_grid.claims"),
        "claims bytes drifted from the checked-in golden file"
    );
}

#[test]
fn golden_ranking_is_record_order_blind() {
    let s = fixture();
    let mut reversed = s.records.clone();
    reversed.reverse();
    assert_eq!(
        render_leaderboards(&leaderboards(&s.records)),
        render_leaderboards(&leaderboards(&reversed))
    );
    let cfg = RankConfig::default();
    assert_eq!(
        render_significance(&significance(&s.records, &cfg)),
        render_significance(&significance(&reversed, &cfg))
    );
}

#[test]
fn golden_summary_reproduces_from_its_spec() {
    // The fixture is a live run's output, so re-running its spec must
    // write the same bytes; this guards the batch-1 campaign path.
    let out = std::env::temp_dir().join(format!("alperf-grid-golden-{}.jsonl", std::process::id()));
    // run_grid resumes from an existing file; start from none.
    let _ = std::fs::remove_file(&out);
    let report = run_grid(&golden_spec(), &out, &ExecConfig::default()).unwrap();
    assert_eq!(report.errors, 0);
    let got = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).unwrap();
    let want = std::fs::read_to_string(fixture_dir().join("small_grid.jsonl")).unwrap();
    assert_eq!(
        got, want,
        "re-running the golden spec changed the summary bytes"
    );
}

/// Rewrites the fixtures from a live run. Ignored: run explicitly after
/// an intentional format change, then review the diff.
#[test]
#[ignore]
fn regenerate() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("small_grid.jsonl");
    let report = run_grid(&golden_spec(), &out, &ExecConfig::default()).unwrap();
    assert_eq!(report.errors, 0);
    let s = parse_summaries(&std::fs::read_to_string(&out).unwrap()).unwrap();
    std::fs::write(
        dir.join("small_grid.leaderboard"),
        render_leaderboards(&leaderboards(&s.records)),
    )
    .unwrap();
    let verdicts = significance(&s.records, &RankConfig::default());
    std::fs::write(
        dir.join("small_grid.significance"),
        render_significance(&verdicts),
    )
    .unwrap();
    std::fs::write(
        dir.join("small_grid.claims"),
        render_claims(&verdicts, "random"),
    )
    .unwrap();
}
