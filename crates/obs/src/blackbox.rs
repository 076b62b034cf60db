//! Black-box flight recorder: lock-free bounded rings of recent events.
//!
//! When [`arm`]ed, every span close and record emission also appends one
//! fixed-size slot to a per-thread seqlock ring. The rings hold only the
//! most recent events (old slots are overwritten in place), so memory is
//! bounded and the hot-path cost is a handful of relaxed stores — no
//! locks, no allocation after the ring exists. On a fault (worker panic,
//! terminal `ExecError`-style failure, or an installed panic hook) the
//! rings are drained and written as an `alperf-blackbox-v1` JSONL dump:
//! the flight recorder's answer to "what was every thread doing in the
//! seconds before it died". `trace_report --postmortem` renders the dump
//! as a span tree plus the record traffic before death.
//!
//! Dump schema `alperf-blackbox-v1`:
//!
//! ```json
//! {"v":1,"t":"meta","schema":"alperf-blackbox-v1","reason":"panic","dumped_at_ns":123}
//! {"v":1,"t":"bb","kind":"span","name":"gp.fit","tid":2,"t_ns":100,"dur_ns":40,"id":7,"pid":3}
//! {"v":1,"t":"bb","kind":"record","name":"al.iteration","tid":1,"t_ns":150,"dur_ns":0,"id":0,"pid":0}
//! ```
//!
//! Readers must tolerate torn tails: a slot being overwritten during the
//! dump is skipped (its seqlock stamp fails the double-read check), so a
//! dump is always well-formed, just possibly one event short per thread.

use crate::clock::monotonic_ns;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once};

/// Schema identifier written in the meta line of every dump.
pub const BLACKBOX_SCHEMA: &str = "alperf-blackbox-v1";

/// Default slots per thread ring.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Dead-thread rings retained for postmortems before the oldest are
/// pruned at registration time.
const MAX_RINGS: usize = 64;

/// Interned names kept before new names collapse to index 0 ("?").
const MAX_NAMES: usize = 4096;

const KIND_SPAN: u64 = 1;
const KIND_RECORD: u64 = 2;

/// One recorded event, as read back out of a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlackboxEvent {
    /// `"span"` or `"record"`.
    pub kind: &'static str,
    /// Event name (interned; `"?"` if the intern table overflowed).
    pub name: String,
    /// Recording thread's sink thread id.
    pub tid: u64,
    /// Span start / record emission time (process-monotonic ns).
    pub t_ns: u64,
    /// Span duration (0 for records).
    pub dur_ns: u64,
    /// Span id (0 for records).
    pub id: u64,
    /// Parent span id (0 for roots and records).
    pub pid: u64,
}

// ---- name interner ----
// Span names are &'static str literals but record names may be dynamic;
// both intern to a u32 so a ring slot stays six u64s. Index 0 is the
// overflow/unknown sentinel.

struct Interner {
    by_name: BTreeMap<String, u32>,
    names: Vec<String>,
}

static NAMES: RwLock<Option<Interner>> = RwLock::new(None);

fn intern(name: &str) -> u32 {
    if let Some(i) = NAMES.read().as_ref().and_then(|t| t.by_name.get(name)) {
        return *i;
    }
    let mut guard = NAMES.write();
    let table = guard.get_or_insert_with(|| Interner {
        by_name: BTreeMap::new(),
        names: vec!["?".to_string()],
    });
    if let Some(i) = table.by_name.get(name) {
        return *i;
    }
    if table.names.len() >= MAX_NAMES {
        return 0;
    }
    let idx = table.names.len() as u32;
    table.names.push(name.to_string());
    table.by_name.insert(name.to_string(), idx);
    idx
}

fn resolve(idx: u32) -> String {
    NAMES
        .read()
        .as_ref()
        .and_then(|t| t.names.get(idx as usize).cloned())
        .unwrap_or_else(|| "?".to_string())
}

// ---- per-thread seqlock ring ----

struct Slot {
    /// Seqlock stamp: 0 = never written, odd = write in progress, even
    /// nonzero = stable. Writers are single-threaded per ring; the stamp
    /// only guards readers on *other* threads (the dumper).
    seq: AtomicU64,
    t_ns: AtomicU64,
    dur_ns: AtomicU64,
    id: AtomicU64,
    pid: AtomicU64,
    /// `kind << 32 | name_idx`.
    kind_name: AtomicU64,
}

struct Ring {
    tid: u64,
    head: AtomicUsize,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u64, capacity: usize) -> Ring {
        let slots: Vec<Slot> = (0..capacity.max(1))
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                t_ns: AtomicU64::new(0),
                dur_ns: AtomicU64::new(0),
                id: AtomicU64::new(0),
                pid: AtomicU64::new(0),
                kind_name: AtomicU64::new(0),
            })
            .collect();
        Ring {
            tid,
            head: AtomicUsize::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    /// Single-writer append (only the owning thread calls this).
    fn push(&self, kind: u64, name_idx: u32, t_ns: u64, dur_ns: u64, id: u64, pid: u64) {
        let i = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let slot = &self.slots[i];
        slot.seq.fetch_add(1, Ordering::Release); // -> odd: in progress
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.id.store(id, Ordering::Relaxed);
        slot.pid.store(pid, Ordering::Relaxed);
        slot.kind_name
            .store(kind << 32 | name_idx as u64, Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::Release); // -> even: stable
    }

    /// Drain stable slots (any thread). Torn slots are skipped.
    fn snapshot(&self, out: &mut Vec<BlackboxEvent>) {
        for slot in self.slots.iter() {
            for _ in 0..4 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 || s1 % 2 == 1 {
                    break;
                }
                let t_ns = slot.t_ns.load(Ordering::Relaxed);
                let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
                let id = slot.id.load(Ordering::Relaxed);
                let pid = slot.pid.load(Ordering::Relaxed);
                let kind_name = slot.kind_name.load(Ordering::Relaxed);
                std::sync::atomic::fence(Ordering::Acquire);
                if slot.seq.load(Ordering::Relaxed) != s1 {
                    continue; // torn by a concurrent overwrite; retry
                }
                let kind = match kind_name >> 32 {
                    KIND_SPAN => "span",
                    KIND_RECORD => "record",
                    _ => break,
                };
                out.push(BlackboxEvent {
                    kind,
                    name: resolve((kind_name & 0xffff_ffff) as u32),
                    tid: self.tid,
                    t_ns,
                    dur_ns,
                    id,
                    pid,
                });
                break;
            }
        }
    }
}

// ---- global state ----

static ARMED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

thread_local! {
    static MY_RING: std::cell::RefCell<Option<Arc<Ring>>> =
        const { std::cell::RefCell::new(None) };
}

/// Is the flight recorder armed? One relaxed load — the hot-path gate.
#[inline(always)]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arm the recorder with `capacity` slots per thread ring (existing
/// thread rings keep their size). Recording starts immediately.
pub fn arm(capacity: usize) {
    CAPACITY.store(capacity.max(1), Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

/// Stop recording. Rings and their contents are retained, so a dump after
/// disarm still sees the final moments.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// Set (or clear) the file [`dump_on_fault`] and the panic hook write to.
pub fn set_dump_path(path: Option<PathBuf>) {
    *DUMP_PATH.lock() = path;
}

/// The configured fault-dump path, if any.
pub fn dump_path() -> Option<PathBuf> {
    DUMP_PATH.lock().clone()
}

fn with_ring(f: impl FnOnce(&Ring)) {
    MY_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let ring = Arc::new(Ring::new(
                crate::sink::thread_id(),
                CAPACITY.load(Ordering::Relaxed),
            ));
            let mut rings = RINGS.lock();
            // Rings of dead threads stay dumpable; prune the oldest only
            // once thread churn would grow the registry unboundedly.
            if rings.len() >= MAX_RINGS {
                let mut kept: Vec<Arc<Ring>> = rings
                    .drain(..)
                    .filter(|r| Arc::strong_count(r) > 1)
                    .collect();
                std::mem::swap(&mut *rings, &mut kept);
            }
            rings.push(Arc::clone(&ring));
            *slot = Some(ring);
        }
        f(slot.as_ref().unwrap());
    });
}

/// Record a closed span (called from the span guard's drop when armed).
pub fn note_span(name: &'static str, id: u64, pid: u64, start_ns: u64, dur_ns: u64) {
    if !armed() {
        return;
    }
    let idx = intern(name);
    with_ring(|r| r.push(KIND_SPAN, idx, start_ns, dur_ns, id, pid));
}

/// Record an emitted record event (called from [`crate::record`] when
/// armed).
pub fn note_record(name: &str) {
    if !armed() {
        return;
    }
    let idx = intern(name);
    with_ring(|r| r.push(KIND_RECORD, idx, monotonic_ns(), 0, 0, 0));
}

/// Drain every thread ring into one time-sorted event list.
pub fn snapshot() -> Vec<BlackboxEvent> {
    let rings: Vec<Arc<Ring>> = RINGS.lock().iter().map(Arc::clone).collect();
    let mut out = Vec::new();
    for ring in &rings {
        ring.snapshot(&mut out);
    }
    out.sort_by_key(|e| (e.t_ns, e.tid, e.id));
    out
}

/// Write an `alperf-blackbox-v1` dump of every ring to `path`,
/// truncating. Returns the number of `bb` event lines written.
pub fn dump_to(path: &Path, reason: &str) -> std::io::Result<usize> {
    let events = snapshot();
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut meta = String::with_capacity(96);
    meta.push_str("{\"v\":1,\"t\":\"meta\",\"schema\":\"");
    meta.push_str(BLACKBOX_SCHEMA);
    meta.push_str("\",\"reason\":");
    crate::json::escape_into(&mut meta, reason);
    meta.push_str(&format!(",\"dumped_at_ns\":{}}}", monotonic_ns()));
    writeln!(w, "{meta}")?;
    for e in &events {
        let mut line = String::with_capacity(128);
        line.push_str("{\"v\":1,\"t\":\"bb\",\"kind\":\"");
        line.push_str(e.kind);
        line.push_str("\",\"name\":");
        crate::json::escape_into(&mut line, &e.name);
        line.push_str(&format!(
            ",\"tid\":{},\"t_ns\":{},\"dur_ns\":{},\"id\":{},\"pid\":{}}}",
            e.tid, e.t_ns, e.dur_ns, e.id, e.pid
        ));
        writeln!(w, "{line}")?;
    }
    w.flush()?;
    // Count unconditionally (dumps are rare and always noteworthy), not
    // through the telemetry-enabled gate.
    crate::registry::global()
        .counter(crate::names::OBS_BLACKBOX_DUMPS)
        .inc();
    Ok(events.len())
}

/// Fault-path dump: write to the configured [`set_dump_path`] file if the
/// recorder is armed and a path is set; errors are swallowed (the caller
/// is already on a failure path). Returns the dump path when a dump was
/// written.
pub fn dump_on_fault(reason: &str) -> Option<PathBuf> {
    if !armed() {
        return None;
    }
    let path = dump_path()?;
    dump_to(&path, reason).ok().map(|_| path)
}

/// Install a process panic hook (once) that dumps the rings before
/// delegating to the previous hook. A no-op dump when the recorder is
/// disarmed or has no dump path.
pub fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_on_fault("panic");
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_record_and_snapshot_in_time_order() {
        let _l = crate::tests::TEST_LOCK.lock();
        arm(DEFAULT_CAPACITY);
        note_span("unit.bbring.alpha", 11, 0, 100, 40);
        note_span("unit.bbring.beta", 12, 11, 120, 10);
        note_record("unit.bbring.rec");
        disarm();
        let events = snapshot();
        let mine: Vec<&BlackboxEvent> = events
            .iter()
            .filter(|e| e.name.starts_with("unit.bbring."))
            .collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].name, "unit.bbring.alpha");
        assert_eq!(mine[0].kind, "span");
        assert_eq!((mine[0].id, mine[0].pid, mine[0].dur_ns), (11, 0, 40));
        assert_eq!(mine[1].pid, 11);
        assert_eq!(mine[2].kind, "record");
        assert!(mine[2].t_ns >= mine[1].t_ns);
    }

    #[test]
    fn disarmed_notes_are_noops() {
        let _l = crate::tests::TEST_LOCK.lock();
        disarm();
        let before = snapshot().len();
        note_span("unit.bb.disarmed", 1, 0, 1, 1);
        note_record("unit.bb.disarmed");
        assert_eq!(snapshot().len(), before);
        assert!(!snapshot().iter().any(|e| e.name == "unit.bb.disarmed"));
    }

    #[test]
    fn ring_overwrites_keep_only_recent() {
        let _l = crate::tests::TEST_LOCK.lock();
        // Force a tiny ring on a fresh thread so this test owns it.
        arm(8);
        let events = std::thread::spawn(|| {
            for k in 0..50u64 {
                note_span("unit.bb.wrap", 1000 + k, 0, k, 1);
            }
            let mut out = Vec::new();
            MY_RING.with(|c| c.borrow().as_ref().unwrap().snapshot(&mut out));
            out
        })
        .join()
        .unwrap();
        disarm();
        assert_eq!(events.len(), 8);
        assert!(
            events.iter().all(|e| e.t_ns >= 42),
            "only the tail survives"
        );
    }

    #[test]
    fn dump_writes_schema_meta_and_events() {
        let _l = crate::tests::TEST_LOCK.lock();
        arm(DEFAULT_CAPACITY);
        note_span("unit.bb.dump", 21, 0, 10, 5);
        disarm();
        let path =
            std::env::temp_dir().join(format!("alperf_bb_dump_{}.jsonl", std::process::id()));
        let n = dump_to(&path, "unit-test").unwrap();
        assert!(n >= 1);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut lines = text.lines();
        let meta = crate::json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            meta.get("schema").and_then(crate::json::Json::as_str),
            Some(BLACKBOX_SCHEMA)
        );
        assert_eq!(
            meta.get("reason").and_then(crate::json::Json::as_str),
            Some("unit-test")
        );
        let rest: Vec<_> = lines.map(|l| crate::json::parse(l).unwrap()).collect();
        assert_eq!(rest.len(), n, "one bb line per event after the meta line");
        assert!(rest
            .iter()
            .all(|j| j.get("t").and_then(crate::json::Json::as_str) == Some("bb")));
        assert!(rest.iter().any(|j| {
            j.get("name").and_then(crate::json::Json::as_str) == Some("unit.bb.dump")
        }));
    }

    #[test]
    fn dump_on_fault_needs_arm_and_path() {
        let _l = crate::tests::TEST_LOCK.lock();
        disarm();
        set_dump_path(None);
        assert_eq!(dump_on_fault("x"), None);
        arm(DEFAULT_CAPACITY);
        assert_eq!(dump_on_fault("x"), None, "no path set");
        let path =
            std::env::temp_dir().join(format!("alperf_bb_fault_{}.jsonl", std::process::id()));
        set_dump_path(Some(path.clone()));
        note_record("unit.bb.fault");
        assert_eq!(dump_on_fault("fault"), Some(path.clone()));
        disarm();
        set_dump_path(None);
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"reason\":\"fault\""));
        std::fs::remove_file(&path).ok();
    }
}
