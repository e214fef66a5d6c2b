//! Quantized transformer inference: f64 reference vs weight-only i8.
//!
//! Fits one small-but-real MentalBERT analogue (hidden 64 × 2 layers — big
//! enough that linear-layer compute dominates the shared tokenization cost;
//! at the `Fast` profile's hidden 32 the two paths are both ~500 µs of
//! subword encoding and the kernel ratio is invisible), quantizes it with
//! [`QuantizedScorer::from_transformer`], and compares the two `Scorer`
//! implementations on single-text and batched scoring. The f64 path runs the
//! tape-based autograd forward (graph construction and all); the i8 path is
//! the graph-free f32/i8 kernel — the measured ratio is the speedup a serving
//! deployment gets by registering the `-i8` sibling kind.
//!
//! Headline numbers (mean per-text latency for both paths, both shapes, plus
//! the batched speedup) are merged into the
//! `inference` section of `BENCH_transformer.json` at the repository root so
//! successive runs can be compared; `transformer_fit` owns the file's `fit`
//! section. Correctness (100% label agreement on the seeded eval set, drift
//! bound) is pinned by tests in `holistix::scorer` and the transformer
//! proptests; this bench compares only speed.

use criterion::{criterion_group, criterion_main, Criterion};
use holistix::corpus::JsonValue;
use holistix::prelude::*;
use holistix::transformer::{FineTuneConfig, ModelConfig, ModelKind, Trainer};
use holistix_bench::report::merge_section;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Training corpus size (the `Fast` profile's paper-scale slice).
const TRAIN_POSTS: usize = 120;
/// Texts per batched `probabilities` call.
const BATCH: usize = 32;
/// Measured repetitions per headline cell.
const REPS: usize = 20;

/// Mean wall-clock of `reps` runs of `f`, after one warmup run.
fn mean_time(reps: usize, mut f: impl FnMut()) -> Duration {
    f();
    let started = Instant::now();
    for _ in 0..reps {
        f();
    }
    started.elapsed() / reps as u32
}

fn bench_quantized_inference(c: &mut Criterion) {
    let corpus = HolistixCorpus::generate_small(TRAIN_POSTS, 42);
    let texts = corpus.texts();
    let labels = corpus.label_indices();

    let mut model = ModelConfig::for_kind(ModelKind::MentalBert, 6);
    model.hidden_dim = 64;
    model.n_heads = 4;
    model.ff_dim = 128;
    model.max_len = 48;
    model.n_layers = 2;
    let finetune = FineTuneConfig {
        epochs: 6,
        subword_vocab_size: 800,
        learning_rate: 1e-3,
        pretrain: None,
        seed: 42,
        ..FineTuneConfig::default()
    };
    let mut trainer = Trainer::new(ModelKind::MentalBert, model, finetune);
    trainer.fit(&texts, &labels);
    let f64_scorer = TransformerScorer::from_trainer(trainer);
    let i8_scorer = QuantizedScorer::from_transformer(&f64_scorer);

    let single = texts[0];
    let batch: Vec<&str> = texts.iter().take(BATCH).copied().collect();

    // Headline table: mean per-text latency, f64 vs i8, single vs batched.
    let single_f64 = mean_time(REPS, || {
        black_box(f64_scorer.probabilities_one(black_box(single)));
    });
    let single_i8 = mean_time(REPS, || {
        black_box(i8_scorer.probabilities_one(black_box(single)));
    });
    let batched_f64 = mean_time(REPS, || {
        black_box(f64_scorer.probabilities(black_box(&batch)));
    }) / BATCH as u32;
    let batched_i8 = mean_time(REPS, || {
        black_box(i8_scorer.probabilities(black_box(&batch)));
    }) / BATCH as u32;
    let single_speedup = single_f64.as_secs_f64() / single_i8.as_secs_f64();
    let batched_speedup = batched_f64.as_secs_f64() / batched_i8.as_secs_f64();

    // Both scorers agree on every label of the training slice (the seeded
    // eval-set gate lives in `holistix::scorer`'s tests; this guards the
    // benched pair so a speedup over wrong answers can never be recorded).
    let agree = f64_scorer
        .probabilities(&batch)
        .iter()
        .zip(i8_scorer.probabilities(&batch))
        .all(|(a, b)| {
            let argmax = |row: &[f64]| {
                row.iter()
                    .enumerate()
                    .max_by(|x, y| x.1.total_cmp(y.1))
                    .map(|(i, _)| i)
            };
            argmax(a) == argmax(&b)
        });
    assert!(agree, "i8 labels diverged from f64 on the bench corpus");

    println!("quantized_inference: MentalBERT (hidden 64 x 2 layers), {TRAIN_POSTS}-post corpus");
    println!(
        "single text : f64 {:>8.0} us  i8 {:>8.0} us  ({single_speedup:.2}x)",
        single_f64.as_secs_f64() * 1e6,
        single_i8.as_secs_f64() * 1e6,
    );
    println!(
        "batched x{BATCH}  : f64 {:>8.0} us/text  i8 {:>8.0} us/text  ({batched_speedup:.2}x)",
        batched_f64.as_secs_f64() * 1e6,
        batched_i8.as_secs_f64() * 1e6,
    );

    let section = JsonValue::object(vec![
        ("model", JsonValue::string(ModelKind::MentalBert.name())),
        ("profile", JsonValue::string("hidden64x2")),
        ("train_posts", JsonValue::Number(TRAIN_POSTS as f64)),
        ("batch", JsonValue::Number(BATCH as f64)),
        (
            "single_f64_us",
            JsonValue::Number(single_f64.as_secs_f64() * 1e6),
        ),
        (
            "single_i8_us",
            JsonValue::Number(single_i8.as_secs_f64() * 1e6),
        ),
        (
            "batched_f64_us_per_text",
            JsonValue::Number(batched_f64.as_secs_f64() * 1e6),
        ),
        (
            "batched_i8_us_per_text",
            JsonValue::Number(batched_i8.as_secs_f64() * 1e6),
        ),
        ("single_speedup", JsonValue::Number(single_speedup)),
        ("batched_speedup", JsonValue::Number(batched_speedup)),
    ]);
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transformer.json");
    merge_section(out_path, "inference", section);
    println!("inference headline merged into {out_path}");

    let mut group = c.benchmark_group("quantized_inference");
    group.sample_size(10);
    group.bench_function("single_text_f64", |b| {
        b.iter(|| black_box(f64_scorer.probabilities_one(black_box(single))))
    });
    group.bench_function("single_text_i8", |b| {
        b.iter(|| black_box(i8_scorer.probabilities_one(black_box(single))))
    });
    group.bench_function(format!("batched{BATCH}_f64"), |b| {
        b.iter(|| black_box(f64_scorer.probabilities(black_box(&batch))))
    });
    group.bench_function(format!("batched{BATCH}_i8"), |b| {
        b.iter(|| black_box(i8_scorer.probabilities(black_box(&batch))))
    });
    group.finish();
}

criterion_group!(benches, bench_quantized_inference);
criterion_main!(benches);
