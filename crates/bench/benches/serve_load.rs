//! Open-loop load ramp: the max sustainable TPS of the serving stack under
//! its admission SLOs.
//!
//! The `serve_throughput` bench is closed-loop — clients wait for responses,
//! so a slowing server throttles its own offered load and the number
//! flatters it. This bench offers **fixed-TPS open-loop** traffic
//! ([`holistix_bench::loadgen`]) and ramps the rate step by step until the
//! server violates an SLO: p99 request latency (read from the server's *own*
//! `/metrics` log-bucketed histogram, snapshot-subtracted so each step
//! reports only its own requests) or shed rate (429s per scheduled request,
//! from the admission counters). The last step that met both SLOs is the
//! **max sustainable TPS**; it is merged into `BENCH_serve.json` under the
//! `"serve_load"` key (preserving whatever other benches wrote) so
//! successive runs can be compared.
//!
//! The server runs with deliberately finite admission bounds — more handler
//! threads than queue slots, so sustained over-capacity concurrency hits the
//! per-kind cap and shows up as counted 429s (the graceful failure mode this
//! layer exists to provide) rather than as unbounded queue growth. Each
//! request enqueues one text and blocks its handler, so queue depth tracks
//! in-flight concurrency: with a cap below the handler count, shed rate
//! rises exactly when offered load exceeds what the handlers can drain.

use holistix::corpus::JsonValue;
use holistix::prelude::*;
use holistix_bench::loadgen::{
    ramp_until_slo, run_open_loop, OpenLoopConfig, SloConfig, StepMeasure,
};
use holistix_bench::report::merge_section;
use holistix_serve::{
    serve, AdmissionConfig, BatchConfig, KeepAliveConfig, ModelRegistry, ServeConfig,
};
use std::time::Duration;

/// Offered load of the first ramp step.
const START_TPS: f64 = 100.0;
/// Per-step ramp factor.
const RAMP_FACTOR: f64 = 1.6;
/// Ramp ceiling (steps, not TPS): 12 steps spans 100 → ~28k TPS.
const MAX_STEPS: usize = 12;
/// Traffic duration per step — long enough that a one-off scheduler stall
/// cannot push 1% of the step's requests over the latency SLO by itself.
const STEP_DURATION: Duration = Duration::from_secs(2);
/// Connections sharing each step's schedule.
const CONNECTIONS: usize = 4;
/// Handler threads; deliberately more than the queue cap (below) so
/// over-capacity concurrency sheds instead of queueing invisibly.
const HANDLERS: usize = 16;
/// Per-kind queue cap: the shed gate. Each in-flight request holds one slot.
const QUEUE_CAP: usize = 8;
/// SLO: p99 request latency ceiling (server-side, µs).
const SLO_P99_US: u64 = 50_000;
/// SLO: highest acceptable shed rate.
const SLO_SHED_RATE: f64 = 0.05;

fn main() {
    let corpus = HolistixCorpus::generate_small(300, 42);
    let texts = corpus.texts();
    let labels = corpus.label_indices();
    let registry = ModelRegistry::fit(
        &[BaselineKind::LogisticRegression],
        SpeedProfile::Tiny,
        &texts,
        &labels,
        42,
    );
    let server = serve(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            handlers: HANDLERS,
            batch: BatchConfig { max_batch: 64 },
            // Queue cap below the handler count: each request holds a slot
            // while a handler scores it, so once offered load exceeds what
            // the handlers drain, depth pins at the cap and the overflow is
            // counted as 429s — the shed-rate SLO has something to bind on.
            admission: AdmissionConfig {
                max_queue_depth: QUEUE_CAP,
                explain_shed_depth: QUEUE_CAP * 3 / 4,
                ..AdmissionConfig::default()
            },
            // The ramp's top steps push tens of thousands of requests down
            // four connections; the default per-connection request cap would
            // cut them off mid-step and mask overload as silence.
            keep_alive: KeepAliveConfig {
                max_requests: 10_000_000,
                ..KeepAliveConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let metrics = server.metrics();

    let slo = SloConfig {
        max_p99_us: SLO_P99_US,
        max_shed_rate: SLO_SHED_RATE,
    };
    println!(
        "serve_load: open-loop ramp from {START_TPS} TPS x{RAMP_FACTOR} over {CONNECTIONS} \
         connections; SLOs p99 <= {SLO_P99_US} us, shed <= {:.0}%",
        SLO_SHED_RATE * 100.0
    );

    // Discarded warmup: first contact pays for lazy allocation, branch
    // predictor and page-cache warmup on both sides; keep it out of step 1.
    run_open_loop(
        addr,
        &OpenLoopConfig {
            tps: START_TPS,
            duration: Duration::from_millis(500),
            connections: CONNECTIONS,
            method: "POST".into(),
            path: "/predict".into(),
            body: r#"{"text":"i feel alone and exhausted lately"}"#.into(),
            drain: Duration::from_secs(2),
        },
    );

    let mut rows: Vec<JsonValue> = Vec::new();
    let report = ramp_until_slo(START_TPS, RAMP_FACTOR, MAX_STEPS, slo, |tps| {
        // Snapshot the server's own histogram and shed counters around the
        // step so it reports only its own traffic.
        let latency_before = metrics.latency_snapshot();
        let shed_before = metrics.admission().shed_total();
        let step = run_open_loop(
            addr,
            &OpenLoopConfig {
                tps,
                duration: STEP_DURATION,
                connections: CONNECTIONS,
                method: "POST".into(),
                path: "/predict".into(),
                body: r#"{"text":"i feel alone and exhausted lately"}"#.into(),
                drain: Duration::from_secs(3),
            },
        );
        let latency = metrics.latency_snapshot().minus(&latency_before);
        let shed = metrics.admission().shed_total() - shed_before;
        let p99_us = latency.percentile(0.99).unwrap_or(0);
        let shed_rate = if step.scheduled == 0 {
            0.0
        } else {
            shed as f64 / step.scheduled as f64
        };
        println!(
            "tps {tps:>8.0}: scheduled {:>5}  answered {:>5}  ok {:>5}  shed {shed:>5}  \
             p99 {p99_us:>7} us  drift {:?}",
            step.scheduled, step.responses, step.ok, step.max_send_drift
        );
        rows.push(JsonValue::object(vec![
            ("tps", JsonValue::Number(tps)),
            ("scheduled", JsonValue::Number(step.scheduled as f64)),
            ("responses", JsonValue::Number(step.responses as f64)),
            ("ok", JsonValue::Number(step.ok as f64)),
            ("shed", JsonValue::Number(shed as f64)),
            ("p99_us", JsonValue::Number(p99_us as f64)),
            ("shed_rate", JsonValue::Number(shed_rate)),
            (
                "max_send_drift_us",
                JsonValue::Number(step.max_send_drift.as_micros() as f64),
            ),
        ]));
        StepMeasure { p99_us, shed_rate }
    });
    server.shutdown();

    match report.max_sustainable_tps {
        Some(tps) => println!("max sustainable TPS under SLOs: {tps:.0}"),
        None => println!("no step met the SLOs — even {START_TPS} TPS overloads this machine"),
    }

    // Mark which rows sustained (the ramp report knows; the rows were built
    // inside the closure before the verdict existed).
    for (row, step) in rows.iter_mut().zip(&report.steps) {
        if let JsonValue::Object(fields) = row {
            fields.push(("sustained".to_string(), JsonValue::Bool(step.sustained)));
        }
    }

    let entry = JsonValue::object(vec![
        (
            "max_sustainable_tps",
            report
                .max_sustainable_tps
                .map_or(JsonValue::Null, JsonValue::Number),
        ),
        (
            "slo",
            JsonValue::object(vec![
                ("max_p99_us", JsonValue::Number(SLO_P99_US as f64)),
                ("max_shed_rate", JsonValue::Number(SLO_SHED_RATE)),
            ]),
        ),
        ("connections", JsonValue::Number(CONNECTIONS as f64)),
        (
            "step_duration_s",
            JsonValue::Number(STEP_DURATION.as_secs_f64()),
        ),
        ("steps", JsonValue::Array(rows)),
    ]);

    // Merge (not overwrite): other serving benches keep their sections.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    merge_section(out_path, "serve_load", entry);
    println!("serve_load entry written to {out_path}");
}
