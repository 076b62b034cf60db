//! Cooperative stack-sampling profiler.
//!
//! The span machinery already knows every thread's live span stack — it
//! just keeps it in a thread-local only the owning thread can see. This
//! module adds a *shared mirror* of that stack per thread: when the
//! sampler is armed ([`arm`] / [`start`]), every span open/close also
//! pushes/pops the span name on the thread's mirror (one relaxed atomic
//! load plus a short uncontended mutex op; nothing at all when disarmed).
//! A background sampler thread then sweeps all mirrors at a configurable
//! Hz, folding each non-idle thread's stack into an in-process
//! `stack -> sample count` table and emitting a schema-versioned
//! `sample` line to the JSONL sink when one is installed
//! ([`crate::sink::emit_sample`]).
//!
//! "Cooperative" is the design point: no signals, no ptrace, no unwinding
//! — threads publish their own stacks, the sampler only reads. That keeps
//! the profiler deterministic-by-construction with respect to the
//! workload (it observes, never perturbs numerics — the AL bit-identity
//! test runs with the sampler armed) and portable to any OS the std
//! library supports.
//!
//! Sampling is statistical wall-clock profiling: a stack's share of
//! samples estimates its share of wall time, including time blocked on
//! I/O or locks — which is exactly the view the span-duration histograms
//! cannot give while a span is still open. [`folded_snapshot`] exports
//! the table in folded-stack format for flamegraph tooling; `trace`-side
//! analysis merges emitted sample lines with span-derived stacks.

use crate::clock::monotonic_ns;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default sampling rate for [`start`] when none is configured.
pub const DEFAULT_HZ: f64 = 97.0;

/// One thread's shared span-stack mirror. The owning thread writes on
/// span open/close (only while armed); the sampler thread reads.
struct ThreadMirror {
    tid: u64,
    stack: Mutex<Vec<&'static str>>,
}

/// Armed flag: the one-relaxed-load gate every span open/close pays while
/// telemetry is enabled. Disarmed means span guards never touch mirrors.
static ARMED: AtomicBool = AtomicBool::new(false);

/// All live thread mirrors. Mirrors of exited threads are pruned during
/// sweeps (the thread-local handle is the only other strong reference).
static MIRRORS: Mutex<Vec<Arc<ThreadMirror>>> = Mutex::new(Vec::new());

/// Folded `stack -> sample count` accumulator, sorted by stack key.
static FOLDED: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static MIRROR: Arc<ThreadMirror> = {
        let m = Arc::new(ThreadMirror {
            tid: crate::sink::thread_id(),
            stack: Mutex::new(Vec::new()),
        });
        MIRRORS.lock().push(Arc::clone(&m));
        m
    };
}

/// Is the profiler currently armed? Span guards consult this once per
/// open/close.
#[inline(always)]
pub(crate) fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Push `name` onto this thread's mirror (span open, armed only).
pub(crate) fn mirror_push(name: &'static str) {
    MIRROR.with(|m| m.stack.lock().push(name));
}

/// Pop this thread's mirror (span close; called only when the matching
/// open pushed, so arming mid-span keeps mirrors balanced).
pub(crate) fn mirror_pop() {
    MIRROR.with(|m| {
        m.stack.lock().pop();
    });
}

/// Arm the profiler: subsequent span opens/closes maintain the mirrors.
/// Spans already open when arming happens are *not* backfilled — their
/// frames appear once re-entered, which is the cooperative contract.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm the profiler. Open spans that pushed a mirror frame still pop
/// it on drop (the guard remembers), so mirrors drain cleanly.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Take one sample of every thread: snapshot each non-empty mirror, fold
/// it into the in-process table, and emit a `sample` trace line per
/// thread when a sink is installed. Returns the sampled
/// `(tid, folded stack key)` pairs, thread-id-sorted — the deterministic
/// building block the background loop (and any test) drives.
pub fn sample_once() -> Vec<(u64, String)> {
    let mirrors: Vec<Arc<ThreadMirror>> = {
        let mut mirrors = MIRRORS.lock();
        // Prune exited threads: their thread-local handle has dropped,
        // leaving this registry as the only owner.
        mirrors.retain(|m| Arc::strong_count(m) > 1);
        mirrors.iter().map(Arc::clone).collect()
    };
    let mut out: Vec<(u64, String)> = Vec::new();
    for m in mirrors {
        let frames: Vec<&'static str> = m.stack.lock().clone();
        if frames.is_empty() {
            continue;
        }
        let t_ns = monotonic_ns();
        crate::sink::emit_sample(m.tid, t_ns, frames.iter().copied());
        out.push((m.tid, frames.join(";")));
    }
    out.sort();
    if !out.is_empty() {
        let mut folded = FOLDED.lock();
        for (_, key) in &out {
            *folded.entry(key.clone()).or_insert(0) += 1;
        }
        crate::registry::global()
            .counter(crate::names::OBS_PROFILER_SAMPLES)
            .add(out.len() as u64);
    }
    out
}

/// The folded-stack table accumulated so far, rendered one
/// `frame;frame;... count` line per stack, key-sorted (byte-stable).
pub fn folded_snapshot() -> String {
    let folded = FOLDED.lock();
    let mut out = String::new();
    for (key, count) in folded.iter() {
        out.push_str(&format!("{key} {count}\n"));
    }
    out
}

/// Total samples folded so far.
pub fn samples_folded() -> u64 {
    FOLDED.lock().values().sum()
}

/// Clear the folded-stack table (between benchmark phases / tests).
pub fn reset_folded() {
    FOLDED.lock().clear();
}

/// A running background sampler. Dropping (or calling
/// [`SamplerHandle::stop`]) disarms the profiler and joins the thread.
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl SamplerHandle {
    /// Stop the sampler thread and disarm the profiler.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        disarm();
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Arm the profiler and start the background sampler thread at `hz`
/// samples per second (clamped to [1, 10_000]). Each tick sweeps every
/// thread mirror ([`sample_once`]). One sampler at a time is the
/// supported configuration.
pub fn start(hz: f64) -> SamplerHandle {
    let period = Duration::from_secs_f64(1.0 / hz.clamp(1.0, 10_000.0));
    arm();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("alperf-sampler".into())
        .spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                sample_once();
                std::thread::sleep(period);
            }
        })
        .expect("spawn sampler thread");
    SamplerHandle {
        stop,
        join: Some(join),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_once_sees_armed_spans_only() {
        let _l = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_folded();
        {
            let _outer = crate::span("test.prof.unarmed");
            assert!(sample_once().is_empty(), "disarmed spans must not mirror");
        }
        arm();
        {
            let _outer = crate::span("test.prof.outer");
            let _inner = crate::span("test.prof.inner");
            let sampled = sample_once();
            assert_eq!(sampled.len(), 1);
            assert_eq!(sampled[0].1, "test.prof.outer;test.prof.inner");
            let _ = sample_once();
        }
        // All spans closed: nothing to sample.
        assert!(sample_once().is_empty());
        disarm();
        crate::set_enabled(false);
        let folded = folded_snapshot();
        assert_eq!(folded, "test.prof.outer;test.prof.inner 2\n");
        assert_eq!(samples_folded(), 2);
        reset_folded();
    }

    #[test]
    fn arming_mid_span_keeps_mirror_balanced() {
        let _l = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_folded();
        let outer = crate::span("test.prof.pre_arm");
        arm();
        {
            let _inner = crate::span("test.prof.post_arm");
            // The pre-arm frame is absent by contract; only post-arm shows.
            let sampled = sample_once();
            assert_eq!(sampled.len(), 1);
            assert_eq!(sampled[0].1, "test.prof.post_arm");
        }
        drop(outer); // must not pop the mirror below empty
        {
            let _again = crate::span("test.prof.again");
            let sampled = sample_once();
            assert_eq!(sampled[0].1, "test.prof.again");
        }
        disarm();
        crate::set_enabled(false);
        reset_folded();
    }

    #[test]
    fn sampler_thread_collects_cross_thread_stacks() {
        let _l = crate::tests::TEST_LOCK.lock();
        crate::set_enabled(true);
        reset_folded();
        let handle = start(2_000.0);
        let worker = std::thread::spawn(|| {
            let _s = crate::span("test.prof.worker_busy");
            std::thread::sleep(Duration::from_millis(30));
        });
        worker.join().unwrap();
        handle.stop();
        crate::set_enabled(false);
        assert!(
            folded_snapshot().contains("test.prof.worker_busy"),
            "sampler missed a 30ms span at 2kHz: {:?}",
            folded_snapshot()
        );
        reset_folded();
    }
}
