//! Name → metric registry and the Prometheus-style snapshot exporter.

use crate::labels::{render_label_block, CounterVec, HistogramVec};
use crate::metrics::{Counter, HistStats, Histogram};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A collection of named counters and histograms, plus labeled families
/// ([`CounterVec`]/[`HistogramVec`]).
///
/// The process-wide instance lives behind [`global`]; tests that need
/// isolation can hold their own `Registry`. Lookups take a read lock and
/// clone an `Arc`; callers on hot paths should cache the handle (or gate
/// on [`crate::enabled`], as [`crate::inc`] does). Labeled call sites
/// cache the *child* handle — `registry.counter_vec(...).with(...)` once
/// per campaign, then relaxed atomics per event.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    counter_vecs: RwLock<BTreeMap<String, Arc<CounterVec>>>,
    histogram_vecs: RwLock<BTreeMap<String, Arc<HistogramVec>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get-or-create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get-or-create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Get-or-create the labeled counter family named `name` over label
    /// keys `keys`. The first declaration of a family fixes its keys (and
    /// cap); later calls return the existing family regardless of the
    /// keys passed — families are schema, declared once in
    /// [`crate::names`] and referenced from call sites.
    pub fn counter_vec(&self, name: &str, keys: &[&'static str]) -> Arc<CounterVec> {
        if let Some(v) = self.counter_vecs.read().get(name) {
            return Arc::clone(v);
        }
        Arc::clone(
            self.counter_vecs
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(CounterVec::new(name, keys))),
        )
    }

    /// Get-or-create the labeled histogram family named `name`; same
    /// first-declaration-wins semantics as [`Registry::counter_vec`].
    pub fn histogram_vec(&self, name: &str, keys: &[&'static str]) -> Arc<HistogramVec> {
        if let Some(v) = self.histogram_vecs.read().get(name) {
            return Arc::clone(v);
        }
        Arc::clone(
            self.histogram_vecs
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramVec::new(name, keys))),
        )
    }

    /// All counters as `(name, value)`, name-sorted.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// All histograms as `(name, stats)`, name-sorted.
    pub fn histograms_snapshot(&self) -> Vec<(String, HistStats)> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.stats()))
            .collect()
    }

    /// All labeled counter families, name-sorted.
    pub fn counter_vecs_snapshot(&self) -> Vec<Arc<CounterVec>> {
        self.counter_vecs.read().values().map(Arc::clone).collect()
    }

    /// All labeled histogram families, name-sorted.
    pub fn histogram_vecs_snapshot(&self) -> Vec<Arc<HistogramVec>> {
        self.histogram_vecs
            .read()
            .values()
            .map(Arc::clone)
            .collect()
    }

    /// Zero every metric (handles stay valid — existing `Arc`s keep
    /// recording into the same, now-empty, metrics).
    pub fn reset(&self) {
        for c in self.counters.read().values() {
            c.reset();
        }
        for h in self.histograms.read().values() {
            h.reset();
        }
        for v in self.counter_vecs.read().values() {
            v.reset();
        }
        for v in self.histogram_vecs.read().values() {
            v.reset();
        }
    }

    /// Render every metric in the Prometheus text exposition format.
    /// Counters become `<name>_total`; histograms become summaries with
    /// p50/p90/p99 quantile series plus `_sum`/`_count`/`_min`/`_max`.
    /// Labeled families render one series per label tuple with values
    /// escaped per the exposition format.
    ///
    /// The output is **byte-stable**: metric blocks sort by exposition
    /// name, label tuples within a family sort by value, so two
    /// snapshots of identical metric state are identical strings no
    /// matter the registration order or thread interleaving that built
    /// the state.
    pub fn prometheus_snapshot(&self) -> String {
        // name -> rendered blocks (a plain metric and a family may
        // sanitize to the same exposition name; both blocks are kept,
        // in plain-then-family order).
        let mut blocks: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (name, value) in self.counters_snapshot() {
            let m = format!("alperf_{}_total", sanitize(&name));
            let b = format!("# TYPE {m} counter\n{m} {value}\n");
            blocks.entry(m).or_default().push(b);
        }
        for (name, s) in self.histograms_snapshot() {
            let m = format!("alperf_{}_ns", sanitize(&name));
            let b = format!("# TYPE {m} summary\n{}", render_series(&m, &[], &[], &s));
            blocks.entry(m).or_default().push(b);
        }
        for fam in self.counter_vecs_snapshot() {
            let m = format!("alperf_{}_total", sanitize(fam.name()));
            let mut b = format!("# TYPE {m} counter\n");
            for (values, v) in fam.snapshot() {
                let lbl = render_label_block(fam.keys(), &values, None);
                b.push_str(&format!("{m}{lbl} {v}\n"));
            }
            blocks.entry(m).or_default().push(b);
        }
        for fam in self.histogram_vecs_snapshot() {
            let m = format!("alperf_{}_ns", sanitize(fam.name()));
            let mut b = format!("# TYPE {m} summary\n");
            for (values, s) in fam.snapshot() {
                b.push_str(&render_series(&m, fam.keys(), &values, &s));
            }
            blocks.entry(m).or_default().push(b);
        }
        let mut out = String::new();
        for bs in blocks.values() {
            for b in bs {
                out.push_str(b);
            }
        }
        out
    }

    /// A compact human-readable table of all span histograms (the run
    /// report's footer): count, total ms, min/p50/p99 ms per name.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let hists = self.histograms_snapshot();
        if hists.is_empty() {
            return out;
        }
        out.push_str(&format!(
            "{:<28} {:>8} {:>12} {:>10} {:>10} {:>10}\n",
            "span", "count", "total ms", "min ms", "p50 ms", "p99 ms"
        ));
        for (name, s) in hists {
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<28} {:>8} {:>12.3} {:>10.3} {:>10.3} {:>10.3}\n",
                name,
                s.count,
                s.sum as f64 / 1e6,
                s.min_ns as f64 / 1e6,
                s.p50 as f64 / 1e6,
                s.p99 as f64 / 1e6,
            ));
        }
        out
    }
}

/// One summary series (quantiles + `_sum`/`_count`/`_min`/`_max`) for the
/// label tuple `values`, without the `# TYPE` line.
fn render_series(m: &str, keys: &[&'static str], values: &[String], s: &HistStats) -> String {
    let mut b = String::new();
    for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
        let lbl = render_label_block(keys, values, Some(("quantile", q)));
        b.push_str(&format!("{m}{lbl} {v}\n"));
    }
    let lbl = render_label_block(keys, values, None);
    b.push_str(&format!("{m}_sum{lbl} {}\n", s.sum));
    b.push_str(&format!("{m}_count{lbl} {}\n", s.count));
    b.push_str(&format!("{m}_min{lbl} {}\n", s.min_ns));
    b.push_str(&format!("{m}_max{lbl} {}\n", s.max_ns));
    b
}

/// Prometheus metric-name sanitization: `[a-zA-Z0-9_]` pass through,
/// everything else becomes `_`.
pub(crate) fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Validate a Prometheus text exposition body: every line must be a
/// `# TYPE`/`# HELP` comment or a `name[{labels}] value` sample with a
/// well-formed metric name, correctly quoted/escaped label values, and a
/// parseable numeric value. Returns the number of sample lines.
///
/// The registry tests run it against [`Registry::prometheus_snapshot`]
/// output — deliberately strict about the name charset and label
/// escaping.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() || line.starts_with("# ") {
            continue;
        }
        let rest = parse_metric_name(line).ok_or(format!("line {n}: bad metric name: {line:?}"))?;
        let rest = if let Some(after) = rest.strip_prefix('{') {
            parse_labels(after).ok_or(format!("line {n}: malformed labels: {line:?}"))?
        } else {
            rest
        };
        let value = rest.trim();
        if value.is_empty()
            || value
                .split_whitespace()
                .next()
                .unwrap()
                .parse::<f64>()
                .is_err()
        {
            return Err(format!("line {n}: unparseable value: {line:?}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition body".to_string());
    }
    Ok(samples)
}

/// Consume a metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`) from the start of
/// `line`; return the remainder, or `None` on an invalid name.
fn parse_metric_name(line: &str) -> Option<&str> {
    let mut chars = line.char_indices();
    match chars.next() {
        Some((_, c)) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return None,
    }
    for (i, c) in chars {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            continue;
        }
        if c == '{' || c == ' ' {
            return Some(&line[i..]);
        }
        return None;
    }
    None // a name with no value is not a sample line
}

/// Consume a `k="v",...}` label-block tail (the leading `{` is already
/// stripped); return the remainder after `}`, or `None` when malformed.
fn parse_labels(mut rest: &str) -> Option<&str> {
    loop {
        // key
        let eq = rest.find('=')?;
        let key = &rest[..eq];
        if key.is_empty()
            || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            || !key.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        {
            return None;
        }
        rest = rest[eq + 1..].strip_prefix('"')?;
        // quoted value with \\, \", \n escapes
        let mut chars = rest.char_indices();
        let close = loop {
            let (i, c) = chars.next()?;
            match c {
                '\\' => {
                    let (_, e) = chars.next()?;
                    if !matches!(e, '\\' | '"' | 'n') {
                        return None;
                    }
                }
                '"' => break i,
                '\n' => return None, // raw newline inside a value
                _ => {}
            }
        };
        rest = &rest[close + 1..];
        match rest.chars().next()? {
            ',' => rest = &rest[1..],
            '}' => return Some(&rest[1..]),
            _ => return None,
        }
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_metric() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        assert_eq!(r.counter("a").get(), 7);
        r.histogram("h").record(10);
        assert_eq!(r.histogram("h").stats().count, 1);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        let names: Vec<String> = r.counters_snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a".to_string(), "z".to_string()]);
    }

    #[test]
    fn prometheus_format_shape() {
        let r = Registry::new();
        r.counter("al.cache.hit").add(5);
        r.histogram("gp.fit").record(1_000_000);
        let text = r.prometheus_snapshot();
        assert!(text.contains("# TYPE alperf_al_cache_hit_total counter"));
        assert!(text.contains("alperf_al_cache_hit_total 5"));
        assert!(text.contains("# TYPE alperf_gp_fit_ns summary"));
        assert!(text.contains("alperf_gp_fit_ns{quantile=\"0.5\"}"));
        assert!(text.contains("alperf_gp_fit_ns_count 1"));
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(9);
        r.reset();
        assert_eq!(r.counter("x").get(), 0);
        c.inc();
        assert_eq!(r.counter("x").get(), 1);
    }

    #[test]
    fn summary_table_lists_nonempty_histograms() {
        let r = Registry::new();
        r.histogram("seen").record(2_000_000);
        r.histogram("empty");
        let t = r.summary_table();
        assert!(t.contains("seen"));
        assert!(!t.contains("empty"));
    }

    #[test]
    fn labeled_families_render_sorted_series() {
        let r = Registry::new();
        let v = r.counter_vec("al.campaign.iterations", &["campaign", "strategy"]);
        v.with(&["2", "cost_effective"]).add(7);
        v.with(&["1", "variance_reduction"]).add(3);
        let h = r.histogram_vec("gp.fit.by_tier", &["tier"]);
        h.with(&["sparse"]).record(10);
        h.with(&["exact"]).record(20);
        let text = r.prometheus_snapshot();
        assert!(text.contains("# TYPE alperf_al_campaign_iterations_total counter"));
        let a = text
            .find("alperf_al_campaign_iterations_total{campaign=\"1\",strategy=\"variance_reduction\"} 3")
            .unwrap();
        let b = text
            .find(
                "alperf_al_campaign_iterations_total{campaign=\"2\",strategy=\"cost_effective\"} 7",
            )
            .unwrap();
        assert!(a < b, "label tuples must render value-sorted");
        assert!(text.contains("alperf_gp_fit_by_tier_ns{tier=\"exact\",quantile=\"0.5\"} 20"));
        assert!(text.contains("alperf_gp_fit_by_tier_ns_sum{tier=\"sparse\"} 10"));
        assert!(text.contains("alperf_gp_fit_by_tier_ns_count{tier=\"exact\"} 1"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn adversarial_label_values_escape_and_validate() {
        let r = Registry::new();
        let v = r.counter_vec("evil family name!", &["fault_kind"]);
        v.with(&["quote\" backslash\\ newline\n end"]).inc();
        v.with(&["{},=\"\\"]).inc();
        let text = r.prometheus_snapshot();
        // Name fully sanitized; values quoted with only legal escapes.
        assert!(text.contains("# TYPE alperf_evil_family_name__total counter"));
        assert!(text.contains(
            r#"alperf_evil_family_name__total{fault_kind="quote\" backslash\\ newline\n end"} 1"#
        ));
        assert!(!text.contains('\u{0}'));
        // No raw newline may survive inside a quoted value: every line
        // must independently validate.
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn snapshot_is_byte_stable_across_registration_order() {
        let build = |order: &[usize]| {
            let r = Registry::new();
            let families = ["fam.a", "fam.b", "fam.c"];
            for &i in order {
                let v = r.counter_vec(families[i], &["k"]);
                v.with(&["x"]).add(i as u64 + 1);
                r.counter(families[i]).add(10 + i as u64);
                r.histogram(families[i]).record(100 * (i as u64 + 1));
            }
            r.prometheus_snapshot()
        };
        assert_eq!(build(&[0, 1, 2]), build(&[2, 0, 1]));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("ok_metric 1\n").is_ok());
        assert!(validate_exposition("9starts_with_digit 1\n").is_err());
        assert!(validate_exposition("name{k=\"unterminated} 1\n").is_err());
        assert!(validate_exposition("name{k=\"bad\\q\"} 1\n").is_err());
        assert!(validate_exposition("name{k=\"v\"} not_a_number\n").is_err());
        assert!(validate_exposition("name{k=\"v\",} 1\n").is_err());
        assert!(validate_exposition("").is_err());
    }
}
