//! Telemetry overhead budget check — prints an overhead report and
//! asserts the <2% budget.
//!
//! Usage:
//!   obs_overhead           # full sizes (n=200 fit, 1024-candidate pool)
//!   obs_overhead --quick   # tiny sizes (CI smoke run)
//!
//! The measurement itself lives in `alperf_bench::overhead` and is shared
//! with the `bench_gate` binary, which gates these numbers against the
//! checked-in `BENCH_obs_overhead.json` baseline (and refreshes it via
//! `--update-baseline`).

use alperf_bench::overhead::{self, BUDGET_PCT};

fn main() {
    alperf_bench::threads_from_env();
    let quick = std::env::args().any(|a| a == "--quick");
    let r = overhead::measure(quick);
    let (fit_pct, predict_pct, sampler_pct) = (r.fit_pct(), r.predict_pct(), r.sampler_pct());
    let within = r.within_budget();

    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"budget_pct\": {BUDGET_PCT},\n  \
         \"quick\": {quick},\n  \
         \"fit\": {{ \"n\": {}, \"restarts\": {}, \"disabled_ms\": {:.3}, \
         \"enabled_ms\": {:.3}, \"overhead_pct\": {fit_pct:.3}, \
         \"sampled_ms\": {:.3}, \"sampler_overhead_pct\": {sampler_pct:.3} }},\n  \
         \"predict\": {{ \"train_n\": {}, \"pool_m\": {}, \"disabled_ms\": {:.3}, \
         \"enabled_ms\": {:.3}, \"overhead_pct\": {predict_pct:.3} }},\n  \
         \"disabled_site_ns\": {:.3},\n  \"labeled_site_ns\": {:.3},\n  \
         \"labeled_lookup_ns\": {:.3},\n  \"within_budget\": {within}\n}}\n",
        r.n,
        r.restarts,
        r.fit_off_ms,
        r.fit_on_ms,
        r.fit_sampler_ms,
        r.n,
        r.m,
        r.predict_off_ms,
        r.predict_on_ms,
        r.site_ns,
        r.labeled_site_ns,
        r.labeled_lookup_ns
    );
    print!("{json}");
    assert!(
        within,
        "telemetry overhead exceeds the {BUDGET_PCT}% budget: fit {fit_pct:.2}%, \
         predict {predict_pct:.2}%, sampler {sampler_pct:.2}%"
    );
}
