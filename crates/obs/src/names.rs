//! Canonical event names shared across the workspace.
//!
//! Spans, counters, and records that more than one crate (or an external
//! consumer like `trace_report`/`chaos_replay`) must agree on are named
//! here once. Instrumentation call sites may still use ad-hoc literals for
//! purely local metrics; anything that appears in a trace contract belongs
//! in this module.

/// Span around one `executor::measure_all` batch.
pub const CLUSTER_MEASURE_BATCH: &str = "cluster.measure_batch";
/// Span + counter + record: one retry of a faulted job attempt.
pub const CLUSTER_RETRY: &str = "cluster.retry";
/// Span + counter + record: a job that exhausted its retry budget.
pub const CLUSTER_FAILED: &str = "cluster.failed";
/// Record carrying the full fault-plan parameters of a campaign, emitted
/// once per campaign so `chaos_replay` can reconstruct and re-execute it.
pub const CLUSTER_FAULT_PLAN: &str = "cluster.fault_plan";
/// Counter: power traces emptied by an injected IPMI dropout.
pub const CLUSTER_POWER_DROPOUT: &str = "cluster.power.dropout";
/// Counter: power traces truncated by an injected IPMI corruption.
pub const CLUSTER_POWER_CORRUPT: &str = "cluster.power.corrupt";
/// Per-iteration AL record (metrics payload; see `validate_trace`).
pub const AL_ITERATION: &str = "al.iteration";
/// Counter + record: an AL iteration whose selected experiment was lost
/// to a fault and re-selected from the surviving pool.
pub const AL_DEGRADED_ITERATION: &str = "al.degraded_iteration";
/// Counter: selections made by the pipelined runner from a stale model
/// (the previous batch's measurement still in flight).
pub const AL_PIPELINE_STALE_SELECTS: &str = "al.pipeline.stale_selects";
/// Counter: in-flight measurements reconciled into the training set (or
/// into the lost list) by the pipelined runner.
pub const AL_PIPELINE_RECONCILES: &str = "al.pipeline.reconciles";
/// Counter (ns): wall-clock overlap won per pipelined round — the smaller
/// of the measurement-side and the refit/select-side duration.
pub const AL_PIPELINE_OVERLAP_NS: &str = "al.pipeline.overlap_ns";
/// Counter + record: a speculated in-flight measurement lost to a fault;
/// its cost was charged and the already-made stale selection kept.
pub const AL_PIPELINE_LOST_SPECULATION: &str = "al.pipeline.lost_speculation";
/// Counter: stack samples captured by the cooperative profiler.
pub const OBS_PROFILER_SAMPLES: &str = "obs.profiler.samples";
/// Labeled family (`campaign`, `strategy`): AL iterations per campaign.
pub const AL_CAMPAIGN_ITERATIONS: &str = "al.campaign.iterations";
/// Labeled family (`campaign`, `strategy`): degraded iterations per
/// campaign.
pub const AL_CAMPAIGN_DEGRADED: &str = "al.campaign.degraded";
/// Labeled family (`strategy`, `tier`): per-iteration fit time.
pub const AL_FIT_BY_TIER: &str = "al.fit.by_tier";
/// Labeled family (`fault_kind`): injected faults seen by the executor
/// (retried or terminal).
pub const CLUSTER_FAULTS_BY_KIND: &str = "cluster.faults.by_kind";
/// Labeled family (`tier`): surrogate fits per tier.
pub const GP_FITS_BY_TIER: &str = "gp.fits.by_tier";
/// Labeled family (`tier`): pool points predicted per tier.
pub const GP_PREDICT_POINTS_BY_TIER: &str = "gp.predict.points.by_tier";
/// Counter: black-box flight-recorder dumps written.
pub const OBS_BLACKBOX_DUMPS: &str = "obs.blackbox.dumps";
/// Record: a campaign grid started (name, config count, resume point,
/// worker width).
pub const GRID_RUN_START: &str = "grid.run_start";
/// Labeled family (`grid`, `strategy`): campaign summaries committed.
pub const GRID_CONFIGS_DONE: &str = "grid.configs.done";
/// Labeled family (`grid`, `strategy`): campaigns committed as error
/// records (surrogate fit failures).
pub const GRID_CONFIG_ERRORS: &str = "grid.configs.errors";
/// Labeled family (`grid`, `strategy`): campaigns with at least one
/// fault-degraded iteration.
pub const GRID_DEGRADED: &str = "grid.configs.degraded";

/// Label key: campaign / run id.
pub const LABEL_CAMPAIGN: &str = "campaign";
/// Label key: acquisition strategy name.
pub const LABEL_STRATEGY: &str = "strategy";
/// Label key: surrogate fit tier (`exact`, `sparse`, …).
pub const LABEL_TIER: &str = "tier";
/// Label key: injected fault kind.
pub const LABEL_FAULT_KIND: &str = "fault_kind";
/// Label key: campaign-grid name.
pub const LABEL_GRID: &str = "grid";
