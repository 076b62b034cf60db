#![warn(missing_docs)]
//! Shared plumbing for the reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index). They print their series to stdout and
//! write CSV files under `target/repro/` so results can be plotted or
//! diffed. The full simulated measurement campaign is generated once and
//! cached on disk — all figures must come from the *same* dataset, exactly
//! as in the paper.

pub mod fitbench;
pub mod gate;
pub mod gridbench;
pub mod overhead;
pub mod plot;
pub mod scalebench;

use alperf_cluster::campaign::{Campaign, CampaignOutput};
use alperf_data::csvio;
use alperf_data::dataset::DataSet;
use std::path::PathBuf;

/// Directory for reproduction outputs (`target/repro`).
pub fn repro_dir() -> PathBuf {
    let dir = PathBuf::from("target/repro");
    std::fs::create_dir_all(&dir).expect("create target/repro");
    dir
}

/// The two campaign datasets, loaded from cache or generated.
pub struct Datasets {
    /// Performance dataset (~3.3k jobs; response Runtime).
    pub performance: DataSet,
    /// Power dataset (~0.4k jobs; responses Runtime, Energy).
    pub power: DataSet,
}

/// Load the campaign datasets, generating and caching them on first use.
pub fn load_datasets() -> Datasets {
    let dir = repro_dir().join("datasets");
    std::fs::create_dir_all(&dir).expect("create dataset cache dir");
    let perf_path = dir.join("performance.csv");
    let power_path = dir.join("power.csv");
    if perf_path.exists() && power_path.exists() {
        let performance = csvio::read_file(&perf_path, &["Runtime", "Memory"])
            .expect("read cached performance dataset");
        let power = csvio::read_file(&power_path, &["Runtime", "Energy"])
            .expect("read cached power dataset");
        return Datasets { performance, power };
    }
    eprintln!("(generating measurement campaign — cached for later binaries)");
    let CampaignOutput {
        performance, power, ..
    } = Campaign::default().run().expect("campaign");
    csvio::write_file(&performance, &perf_path).expect("cache performance dataset");
    csvio::write_file(&power, &power_path).expect("cache power dataset");
    Datasets { performance, power }
}

/// Write a simple CSV of named columns to `target/repro/<name>.csv`.
///
/// # Panics
/// Panics if columns have unequal lengths or the file cannot be written.
pub fn write_series(name: &str, columns: &[(&str, &[f64])]) {
    let n = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
    assert!(
        columns.iter().all(|(_, c)| c.len() == n),
        "write_series: ragged columns"
    );
    let mut out = String::new();
    out.push_str(
        &columns
            .iter()
            .map(|(h, _)| h.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for i in 0..n {
        out.push_str(
            &columns
                .iter()
                .map(|(_, c)| format!("{}", c[i]))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    let path = repro_dir().join(format!("{name}.csv"));
    std::fs::write(&path, out).expect("write series CSV");
    println!("[wrote {}]", path.display());
}

/// Pretty-print a header for a reproduction section.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// The stack sampler started by [`obs_from_env`], stopped by
/// [`obs_finish`]. Process-wide because the env-driven telemetry switch
/// is process-wide.
static OBS_SAMPLER: std::sync::Mutex<Option<alperf_obs::profiler::SamplerHandle>> =
    std::sync::Mutex::new(None);

/// Enable telemetry from the environment, if requested. Each of the four
/// knobs also switches instrumentation on.
///
/// * `ALPERF_OBS_TRACE=<path>` — install a JSONL trace sink at `<path>`.
/// * `ALPERF_OBS_SNAPSHOT=<path>` — write a Prometheus-style metrics
///   snapshot to `<path>` at [`obs_finish`].
/// * `ALPERF_OBS_SAMPLE_HZ=<hz>` — start the cooperative stack-sampling
///   profiler at `<hz>`; samples land in the trace sink when one is
///   installed.
/// * `ALPERF_OBS_BLACKBOX=<path>` — arm the black-box flight recorder
///   and dump its rings to `<path>` on panic, executor fault, or exit.
///
/// Returns `true` when telemetry was enabled. Call [`obs_finish`] before
/// exiting so the sampler stops, the trace is flushed, and the snapshot
/// and black-box dump are written.
pub fn obs_from_env() -> bool {
    let env_path = |key: &str| std::env::var(key).ok().filter(|p| !p.is_empty());
    let trace = env_path("ALPERF_OBS_TRACE");
    let snapshot = env_path("ALPERF_OBS_SNAPSHOT");
    let sample_hz = env_path("ALPERF_OBS_SAMPLE_HZ");
    let blackbox = env_path("ALPERF_OBS_BLACKBOX");
    if trace.is_none() && snapshot.is_none() && sample_hz.is_none() && blackbox.is_none() {
        return false;
    }
    if let Some(path) = trace {
        let p = std::path::Path::new(&path);
        if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("create trace directory");
        }
        alperf_obs::sink::install_jsonl(p).expect("install JSONL trace sink");
        eprintln!("(telemetry: JSONL trace -> {path})");
    }
    alperf_obs::set_enabled(true);
    if let Some(hz) = sample_hz {
        let hz: f64 = hz
            .parse()
            .unwrap_or_else(|_| panic!("ALPERF_OBS_SAMPLE_HZ={hz:?} is not a number"));
        *OBS_SAMPLER.lock().unwrap() = Some(alperf_obs::profiler::start(hz));
        eprintln!("(telemetry: stack sampler at {hz} Hz)");
    }
    if let Some(path) = blackbox {
        alperf_obs::blackbox::arm(alperf_obs::blackbox::DEFAULT_CAPACITY);
        alperf_obs::blackbox::set_dump_path(Some(std::path::PathBuf::from(&path)));
        alperf_obs::blackbox::install_panic_hook();
        eprintln!("(telemetry: black-box recorder armed -> {path})");
    }
    true
}

/// Configure the global rayon pool from `ALPERF_NUM_THREADS`, once per
/// process (the thread-pool sibling of [`obs_from_env`] — call it at the
/// top of every binary's `main`). Returns the configured width (`0` =
/// all cores) and its source label (`"env"` / `"default"`) for banners
/// and bench-gate machine metadata.
pub fn threads_from_env() -> (usize, &'static str) {
    let (n, source) = alperf_linalg::threads::configure_from_env();
    (n, source.label())
}

/// Flush the telemetry trace and write the Prometheus snapshot, if
/// `ALPERF_OBS_SNAPSHOT` names a path. Stops the stack sampler when
/// [`obs_from_env`] started it, and writes the final black-box dump when
/// the recorder is armed with a dump path. No-op when telemetry is off.
pub fn obs_finish() {
    if !alperf_obs::enabled() {
        return;
    }
    // Stop the sampler before flushing so its last samples land in the
    // trace.
    if let Some(sampler) = OBS_SAMPLER.lock().unwrap().take() {
        sampler.stop();
    }
    if let Some(path) = alperf_obs::blackbox::dump_on_fault("exit") {
        eprintln!("(telemetry: black-box dump -> {})", path.display());
    }
    alperf_obs::sink::flush();
    if let Ok(path) = std::env::var("ALPERF_OBS_SNAPSHOT") {
        if !path.is_empty() {
            std::fs::write(&path, alperf_obs::registry().prometheus_snapshot())
                .expect("write metrics snapshot");
            eprintln!("(telemetry: metrics snapshot -> {path})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_series_roundtrip() {
        write_series("_test_series", &[("a", &[1.0, 2.0]), ("b", &[3.0, 4.0])]);
        let text = std::fs::read_to_string(repro_dir().join("_test_series.csv")).unwrap();
        assert_eq!(text, "a,b\n1,3\n2,4\n");
        std::fs::remove_file(repro_dir().join("_test_series.csv")).ok();
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_series_rejected() {
        write_series("_bad", &[("a", &[1.0]), ("b", &[1.0, 2.0])]);
    }
}
