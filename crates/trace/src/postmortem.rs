//! Postmortem reconstruction from `alperf-blackbox-v1` flight-recorder
//! dumps.
//!
//! The black-box recorder (`alperf_obs::blackbox`) keeps the last few
//! thousand span/record events per thread in lock-free rings and dumps
//! them on panic, executor fault, or exit. This module reads such a
//! dump back and reconstructs what the process was doing in its final
//! seconds: a span tree and the record traffic.
//!
//! Unlike [`crate::tree::SpanForest`], the builder here is *lenient*:
//! the rings are bounded, so a span's parent may have been overwritten
//! long before the dump. A span whose parent id is absent becomes a
//! root instead of an error — a postmortem must render whatever
//! survived, not demand a complete trace.

use alperf_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One flight-recorder event from the dump.
#[derive(Debug, Clone, PartialEq)]
pub struct BbEvent {
    /// `"span"` or `"record"`.
    pub kind: String,
    /// Span or record name.
    pub name: String,
    /// Recording thread.
    pub tid: u64,
    /// Event time (span start for spans), monotonic ns.
    pub t_ns: u64,
    /// Span duration (0 for records).
    pub dur_ns: u64,
    /// Span id (0 for records).
    pub id: u64,
    /// Parent span id (0 = none/unknown).
    pub pid: u64,
}

/// A parsed black-box dump.
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// Why the dump was written (`panic`, `cluster.worker_panic`, ...).
    pub reason: String,
    /// Dump wall point on the monotonic clock, ns.
    pub dumped_at_ns: u64,
    /// Every surviving event, time-sorted by the dumper.
    pub events: Vec<BbEvent>,
}

fn field_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64
}

/// Parse a dump from its JSONL text.
pub fn read_dump_str(text: &str) -> Result<Postmortem, String> {
    let mut lines = text.lines().enumerate();
    let Some((_, meta_line)) = lines.next() else {
        return Err("empty dump".into());
    };
    let meta = json::parse(meta_line).map_err(|e| format!("meta line: {e}"))?;
    match meta.get("schema").and_then(|s| s.as_str()) {
        Some("alperf-blackbox-v1") => {}
        Some(other) => return Err(format!("unknown schema {other:?}")),
        None => return Err("meta line missing \"schema\"".into()),
    }
    let reason = meta
        .get("reason")
        .and_then(|r| r.as_str())
        .ok_or("meta line missing \"reason\"")?
        .to_string();
    let dumped_at_ns = field_u64(&meta, "dumped_at_ns");
    let mut events = Vec::new();
    for (i, line) in lines {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        match v.get("t").and_then(|t| t.as_str()) {
            Some("bb") => events.push(BbEvent {
                kind: v
                    .get("kind")
                    .and_then(|k| k.as_str())
                    .unwrap_or("?")
                    .to_string(),
                name: v
                    .get("name")
                    .and_then(|n| n.as_str())
                    .unwrap_or("?")
                    .to_string(),
                tid: field_u64(&v, "tid"),
                t_ns: field_u64(&v, "t_ns"),
                dur_ns: field_u64(&v, "dur_ns"),
                id: field_u64(&v, "id"),
                pid: field_u64(&v, "pid"),
            }),
            t => return Err(format!("line {}: unknown line type {t:?}", i + 1)),
        }
    }
    Ok(Postmortem {
        reason,
        dumped_at_ns,
        events,
    })
}

/// Parse a dump file.
pub fn read_dump(path: &Path) -> Result<Postmortem, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_dump_str(&text)
}

/// Lenient span node for rendering.
struct Node {
    idx: usize,
    children: Vec<usize>,
}

/// Lines the rendered span tree is capped at (dumps hold thousands of
/// events; a postmortem is for eyes, not pipelines).
const MAX_TREE_LINES: usize = 400;

impl Postmortem {
    /// The newest event timestamp (dump time when no events survived).
    pub fn end_ns(&self) -> u64 {
        self.events
            .iter()
            .map(|e| e.t_ns + e.dur_ns)
            .max()
            .unwrap_or(self.dumped_at_ns)
            .max(self.dumped_at_ns)
    }

    /// Render the last `window_ns` of the recording: the reconstructed
    /// span tree (orphans as roots) and record traffic.
    pub fn render(&self, window_ns: u64) -> String {
        let cutoff = self.end_ns().saturating_sub(window_ns);
        let recent: Vec<&BbEvent> = self
            .events
            .iter()
            .filter(|e| e.t_ns + e.dur_ns >= cutoff)
            .collect();
        let mut out = format!(
            "postmortem: reason {:?}, {} of {} events in the last {:.1} s\n",
            self.reason,
            recent.len(),
            self.events.len(),
            window_ns as f64 / 1e9
        );

        // Lenient tree: index spans by id, attach to the parent when it
        // survived in the window, promote to root otherwise.
        let spans: Vec<&BbEvent> = recent
            .iter()
            .copied()
            .filter(|e| e.kind == "span")
            .collect();
        let by_id: BTreeMap<u64, usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.id != 0)
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut nodes: Vec<Node> = (0..spans.len())
            .map(|idx| Node {
                idx,
                children: Vec::new(),
            })
            .collect();
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match (s.pid != 0).then(|| by_id.get(&s.pid)).flatten() {
                Some(&p) if p != i => nodes[p].children.push(i),
                _ => roots.push(i),
            }
        }
        let order =
            |xs: &mut Vec<usize>| xs.sort_by_key(|&i| (spans[i].t_ns, spans[i].tid, spans[i].id));
        order(&mut roots);
        for n in &mut nodes {
            order(&mut n.children);
        }
        out.push_str(&format!(
            "span tree ({} spans, {} roots):\n",
            spans.len(),
            roots.len()
        ));
        let mut lines = 0usize;
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&r| (r, 1)).collect();
        while let Some((i, depth)) = stack.pop() {
            if lines >= MAX_TREE_LINES {
                out.push_str("  ... (tree truncated)\n");
                break;
            }
            let s = spans[nodes[i].idx];
            out.push_str(&format!(
                "{:indent$}{} {:.3} ms [tid {}]\n",
                "",
                s.name,
                s.dur_ns as f64 / 1e6,
                s.tid,
                indent = depth * 2
            ));
            lines += 1;
            for &c in nodes[i].children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }

        let mut record_counts: BTreeMap<&str, usize> = BTreeMap::new();
        for e in recent.iter().filter(|e| e.kind == "record") {
            *record_counts.entry(e.name.as_str()).or_insert(0) += 1;
        }
        out.push_str("records:\n");
        if record_counts.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, count) in record_counts {
            out.push_str(&format!("  {name} x{count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump_text() -> String {
        [
            r#"{"v":1,"t":"meta","schema":"alperf-blackbox-v1","reason":"unit","dumped_at_ns":10000000000}"#,
            // parent overwritten long ago: id 5 never appears
            r#"{"v":1,"t":"bb","kind":"span","name":"orphan.child","tid":1,"t_ns":9000000000,"dur_ns":1000,"id":7,"pid":5}"#,
            r#"{"v":1,"t":"bb","kind":"span","name":"root","tid":1,"t_ns":9100000000,"dur_ns":5000000,"id":8,"pid":0}"#,
            r#"{"v":1,"t":"bb","kind":"span","name":"root.child","tid":1,"t_ns":9100001000,"dur_ns":1000000,"id":9,"pid":8}"#,
            r#"{"v":1,"t":"bb","kind":"record","name":"al.iteration","tid":2,"t_ns":9200000000,"dur_ns":0,"id":0,"pid":0}"#,
            // ancient event, outside any reasonable window
            r#"{"v":1,"t":"bb","kind":"span","name":"ancient","tid":1,"t_ns":1,"dur_ns":10,"id":2,"pid":0}"#,
        ]
        .join("\n")
    }

    #[test]
    fn parses_meta_and_events() {
        let pm = read_dump_str(&dump_text()).unwrap();
        assert_eq!(pm.reason, "unit");
        assert_eq!(pm.dumped_at_ns, 10_000_000_000);
        assert_eq!(pm.events.len(), 5);
    }

    #[test]
    fn orphans_become_roots_and_window_filters() {
        let pm = read_dump_str(&dump_text()).unwrap();
        let r = pm.render(2_000_000_000);
        // orphan.child kept as a root, root.child nested under root.
        assert!(r.contains("orphan.child"), "orphan survives:\n{r}");
        assert!(r.contains("3 spans, 2 roots"), "lenient tree shape:\n{r}");
        assert!(r.contains("\n    root.child"), "nesting preserved:\n{r}");
        assert!(!r.contains("ancient"), "window filter applies:\n{r}");
        assert!(r.contains("al.iteration x1"), "record traffic:\n{r}");
    }

    #[test]
    fn rejects_foreign_schema() {
        let text = r#"{"v":1,"t":"meta","schema":"alperf-obs-v1"}"#;
        assert!(read_dump_str(text).unwrap_err().contains("unknown schema"));
    }
}
