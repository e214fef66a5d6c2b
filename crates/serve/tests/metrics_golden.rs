//! Golden test for `GET /metrics`: a `ServeMetrics` driven into a fixed
//! state that touches every metric family renders to exactly the committed
//! fixtures, in both formats.
//!
//! * `fixtures/metrics_json.txt` holds the JSON document flattened to one
//!   `path = value` line per leaf, in document order (an empty object is the
//!   leaf `{}`). Key order and every serialized value are compared, so any
//!   change to the JSON bytes shows up as a line diff.
//! * `fixtures/metrics.prom` holds the Prometheus exposition. It is compared
//!   family by family: each `# HELP` block must match byte for byte, while
//!   the order of the blocks is free.
//!
//! Only values that depend on the host are masked: the uptime, the live OS
//! thread count and the git describe baked into the build. On a mismatch the
//! actual renders are written to Cargo's `CARGO_TARGET_TMPDIR`
//! (`target/tmp/`) so they can be diffed against the fixtures.

use holistix_corpus::json::JsonValue;
use holistix_serve::{Endpoint, FitStats, QueueMetrics, ServeMetrics, ShedReason, TraceStamp};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const JSON_FIXTURE: &str = include_str!("fixtures/metrics_json.txt");
const PROM_FIXTURE: &str = include_str!("fixtures/metrics.prom");

/// Score one batch on `queue`: enqueue its jobs, then record their waits and
/// the scoring call, the way a queue's drain loop does.
fn batch(queue: &QueueMetrics, waits: &[u64], score_us: u64) {
    for _ in waits {
        queue.record_enqueued();
    }
    queue.record_batch(waits.len(), waits, score_us);
}

/// Finalize one trace for `endpoint` with the given stamps, as offsets in µs
/// from parse completion.
fn trace(metrics: &ServeMetrics, endpoint: Endpoint, stamps: &[(TraceStamp, u64)]) {
    let started = Instant::now();
    let mut trace = metrics.obs().begin_trace(started);
    trace.endpoint = endpoint.name();
    for &(stamp, micros) in stamps {
        trace.stamp_at(stamp, started + Duration::from_micros(micros));
    }
    metrics.finalize_trace(&trace);
}

/// A sink in a fixed state covering every family: each endpoint and shed
/// reason with a distinct count, admission limits with a rate limit, three
/// queues (the quantized one never scores), stage traces, and a startup fit
/// followed by two reloads.
fn fixed_state() -> ServeMetrics {
    let metrics = ServeMetrics::new();
    metrics.record_fit(FitStats {
        duration: Duration::from_micros(300),
        shards: 1,
        corpus_size: 90,
    });
    for (i, &endpoint) in Endpoint::ALL.iter().enumerate() {
        for _ in 0..=i {
            metrics.record_request(endpoint);
        }
        for (j, &reason) in ShedReason::ALL.iter().enumerate() {
            for _ in 0..(3 * i + j) {
                metrics.record_shed(endpoint, reason);
            }
        }
    }
    for _ in 0..3 {
        metrics.record_error();
    }
    for _ in 0..4 {
        metrics.record_keepalive_reuse();
    }

    let admission = metrics.admission();
    admission.set_limits(64, 256, 32, Some((12.5, 4.0)));
    admission.set_intake_closed(true);
    admission.set_intake_closed(false);
    admission.set_intake_closed(true);

    let connections = metrics.connections();
    for _ in 0..5 {
        connections.record_accepted();
    }
    for _ in 0..2 {
        connections.record_closed();
    }
    for _ in 0..7 {
        connections.record_wakeup();
    }
    connections.record_pipelined();
    connections.record_idle_eviction();
    metrics.set_thread_plan(2, 8, 3);

    let lr = metrics.queue("LR", "classical");
    let bert = metrics.queue("BERT", "transformer");
    metrics.queue("MentalBERT-i8", "quantized");
    batch(&lr, &[12, 40, 1_000], 900);
    batch(&lr, &[5], 150);
    batch(&bert, &[700; 40], 48_000);
    lr.record_enqueued();

    use TraceStamp::*;
    trace(
        &metrics,
        Endpoint::Predict,
        &[
            (HandlerStart, 10),
            (QueueEnqueue, 25),
            (BatchDrain, 125),
            (Scored, 1_125),
            (ResponseQueued, 1_150),
            (WriteDone, 1_200),
        ],
    );
    trace(
        &metrics,
        Endpoint::Predict,
        &[
            (HandlerStart, 30),
            (QueueEnqueue, 90),
            (BatchDrain, 5_000),
            (Scored, 53_000),
            (ResponseQueued, 53_020),
            (WriteDone, 53_100),
        ],
    );
    trace(
        &metrics,
        Endpoint::Health,
        &[(HandlerStart, 5), (ResponseQueued, 40), (WriteDone, 60)],
    );

    for corpus_size in [1_000, 2_000] {
        metrics.record_reload(FitStats {
            duration: Duration::from_micros(12_500),
            shards: 4,
            corpus_size,
        });
    }
    metrics
}

/// Flatten a JSON document to `path = value` lines in document order.
fn flatten(value: &JsonValue, path: &str, out: &mut String) {
    match value {
        JsonValue::Object(fields) if !fields.is_empty() => {
            for (key, field) in fields {
                let path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flatten(field, &path, out);
            }
        }
        leaf => out.push_str(&format!("{path} = {leaf}\n")),
    }
}

/// Replace the value of the flattened line at `path` with `<masked>`.
fn mask_json_line(line: &str) -> String {
    match line.split_once(" = ") {
        Some((path, _)) if path == "uptime_s" || path == "threads.os_threads" => {
            format!("{path} = <masked>")
        }
        _ => line.to_string(),
    }
}

fn mask_prom_line(line: &str) -> String {
    for name in ["holistix_uptime_seconds", "holistix_os_threads"] {
        if line.starts_with(&format!("{name} ")) {
            return format!("{name} <masked>");
        }
    }
    if let Some(start) = line.find("git=\"") {
        let value_start = start + "git=\"".len();
        if let Some(len) = line[value_start..].find('"') {
            return format!(
                "{}<masked>{}",
                &line[..value_start],
                &line[value_start + len..]
            );
        }
    }
    line.to_string()
}

/// The exposition as masked family blocks (each `# HELP` line and what
/// follows it up to the next one), sorted by family.
fn prom_blocks(text: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("# HELP ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        let block = blocks.last_mut().expect("pushed above");
        block.push_str(&mask_prom_line(line));
        block.push('\n');
    }
    blocks.sort();
    blocks
}

/// Write an actual render for inspection and return its path.
fn dump(name: &str, contents: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, contents).expect("write actual render");
    path
}

#[test]
fn json_document_matches_the_fixture() {
    let metrics = fixed_state();
    let mut flat = String::new();
    flatten(&metrics.snapshot(), "", &mut flat);
    let actual: String = flat
        .lines()
        .map(|line| mask_json_line(line) + "\n")
        .collect();
    if actual != JSON_FIXTURE {
        let path = dump("metrics_json.txt", &actual);
        panic!(
            "/metrics JSON differs from tests/fixtures/metrics_json.txt; actual render in {}",
            path.display()
        );
    }
}

#[test]
fn prometheus_exposition_matches_the_fixture() {
    let metrics = fixed_state();
    let text = metrics.render_prometheus();
    holistix_serve::validate_exposition(&text).expect("valid exposition");
    if prom_blocks(&text) != prom_blocks(PROM_FIXTURE) {
        let masked: String = text.lines().map(|l| mask_prom_line(l) + "\n").collect();
        let path = dump("metrics.prom", &masked);
        panic!(
            "/metrics Prometheus differs from tests/fixtures/metrics.prom; actual render in {}",
            path.display()
        );
    }
}
