//! Writer → reader round trip for the black-box flight recorder: spans and
//! records captured by `alperf_obs::blackbox`, written with `dump_to`, must
//! come back through `postmortem::read_dump_str` with the dump reason, every
//! event, and the span parentage intact — including a worker-thread span
//! attached to its caller with an explicit parent.
//!
//! Lives in its own integration-test binary because it arms the
//! process-wide recorder and telemetry switch.

use alperf_trace::postmortem::read_dump_str;

#[test]
fn blackbox_dump_reads_back_with_reason_events_and_parentage() {
    alperf_obs::set_enabled(true);
    alperf_obs::blackbox::arm(alperf_obs::blackbox::DEFAULT_CAPACITY);
    let (outer_id, inner_id) = {
        let outer = alperf_obs::span("bbrt.outer");
        let outer_ctx = alperf_obs::current_span().expect("outer span is open");
        let inner_id = {
            let _inner = alperf_obs::span("bbrt.inner");
            alperf_obs::record("bbrt.record", &[]);
            alperf_obs::current_span().expect("inner span is open").id
        };
        std::thread::spawn(move || {
            let _worker = alperf_obs::span_with_parent("bbrt.worker", Some(outer_ctx));
            alperf_obs::record("bbrt.record", &[]);
        })
        .join()
        .unwrap();
        drop(outer);
        (outer_ctx.id, inner_id)
    };
    alperf_obs::blackbox::disarm();
    alperf_obs::set_enabled(false);

    let path = std::env::temp_dir().join(format!("alperf_bbrt_{}.jsonl", std::process::id()));
    let written = alperf_obs::blackbox::dump_to(&path, "roundtrip").unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let pm = read_dump_str(&text).expect("dump must parse");
    assert_eq!(pm.reason, "roundtrip");
    // Three spans and two records; nothing else ran in this process.
    assert_eq!(written, 5);
    assert_eq!(pm.events.len(), written);
    let named = |name: &str| {
        pm.events
            .iter()
            .filter(|e| e.name == name)
            .collect::<Vec<_>>()
    };
    assert_eq!(named("bbrt.record").len(), 2);
    assert!(named("bbrt.record").iter().all(|e| e.kind == "record"));

    let (outer, inner, worker) = (
        named("bbrt.outer"),
        named("bbrt.inner"),
        named("bbrt.worker"),
    );
    assert_eq!((outer.len(), inner.len(), worker.len()), (1, 1, 1));
    assert!([outer[0], inner[0], worker[0]]
        .iter()
        .all(|e| e.kind == "span"));
    assert_eq!(
        (outer[0].id, outer[0].pid),
        (outer_id, 0),
        "outer is a root"
    );
    assert_eq!((inner[0].id, inner[0].pid), (inner_id, outer_id));
    assert_eq!(worker[0].pid, outer_id, "explicit parent crosses threads");
    assert_ne!(worker[0].tid, outer[0].tid);

    let rendered = pm.render(u64::MAX);
    assert!(
        rendered.contains("span tree (3 spans, 1 roots)"),
        "postmortem tree:\n{rendered}"
    );
    assert!(rendered.contains("bbrt.record x2"), "records:\n{rendered}");
}
