//! # holistix-transformer
//!
//! Transformer baselines for the Holistix reproduction.
//!
//! §III-A of the paper fine-tunes six pretrained transformers — BERT, DistilBERT,
//! MentalBERT, Flan-T5, XLNet and GPT-2 — for 6-class wellness-dimension
//! classification. Pretrained checkpoints are not available offline, so this crate
//! builds *architecture-faithful small analogues* trained from scratch on top of the
//! `holistix-tensor` autograd engine:
//!
//! | Paper model | Analogue here |
//! |---|---|
//! | BERT        | bidirectional encoder, CLS pooling, generic (shuffled-corpus) pre-initialisation |
//! | DistilBERT  | same but half the encoder layers |
//! | MentalBERT  | same depth as BERT but **in-domain** masked-LM pre-initialisation |
//! | Flan-T5     | encoder with mean pooling and a GELU bottleneck head (encoder–decoder stand-in) |
//! | XLNet       | encoder with learned relative-position attention biases |
//! | GPT-2       | causal (left-to-right) attention with last-token pooling |
//!
//! The paper's fine-tuning hyper-parameters are kept verbatim where they transfer
//! (batch sizes 16/8/4, 10 epochs; learning rates are scaled to from-scratch training
//! — see [`zoo::FineTuneRecipe`]). The "pretrained vs not" distinction — the thing that
//! makes MentalBERT win Table IV — is reproduced by the masked-LM pre-initialisation
//! stage in [`pretrain`]: the MentalBERT analogue gets it on in-domain text, the BERT
//! analogue on a domain-degraded (shuffled word order) copy, and the rest according to
//! their provenance.
//!
//! Modules:
//! * [`config`] — architectural configuration and the [`ModelKind`] enum,
//! * [`attention`] — multi-head self-attention (bidirectional / causal / relative),
//! * [`layers`] — feed-forward blocks, layer-norm parameter bundles, encoder layers,
//! * [`model`] — the end-to-end [`TransformerClassifier`],
//! * [`pretrain`] — masked-LM domain-adaptive pre-initialisation,
//! * [`trainer`] — the fine-tuning loop (Adam, shuffled mini-batches, gradient clipping),
//! * [`zoo`] — the named model zoo with per-model recipes,
//! * [`quant`] — weight-only i8 quantized inference ([`QuantizedTransformer`]).
//!
//! ## Fast path
//!
//! The autograd tape (`holistix-tensor`'s `Graph`) is for training only:
//! `forward_logits`, `batch_loss` and the masked-LM stage run on it. Every
//! inference path runs one graph-free forward instead (`forward.rs`), which
//! builds no graph, allocates no gradient buffers and reads the weights in
//! place: in f64 over a view of the `ParamStore` for
//! `TransformerClassifier::predict_proba_text(s)` and `Trainer::predict*` —
//! hence for `holistix-core`'s `TransformerScorer` and
//! `FittedBaseline::Transformer`, both through
//! [`Trainer::predict_proba_batch`](trainer::Trainer::predict_proba_batch) —
//! and in f32 over i8 weights for [`QuantizedTransformer`].
//! It scores one sequence at a time and skips two sets of rows the tape
//! computes: the padded tail, which cuts the quadratic attention cost to the
//! real token count, and every row of the last layer that pooling does not
//! read, so for CLS and last-token pooling that layer runs its queries,
//! attention, feed-forward block and layer norms for one row instead of `n`
//! (keys and values still read all `n`). Neither changes a bit, because
//! every per-row op reads only its own row and the shared keys and values.
//! The f64 forward equals the softmax of `forward_logits` bit for bit
//! (property-tested for every architecture variant), and each layer's rows
//! are tested to come out the same whichever rows are computed with them.
//!
//! **Sparse embedding gradients** (on by default). A token sequence touches at most
//! `max_len` rows of the `vocab × hidden` embedding tables, but the naive tape
//! formulation materialises the full table as a graph leaf (a clone per sequence)
//! and scatters into an equally dense gradient scratch. The
//! `Graph::gather_param` op reads embedding rows straight from the
//! [`ParamStore`](holistix_tensor::ParamStore) and, on the backward pass, folds
//! per-position row gradients by token id (increasing position order — exactly the
//! dense scatter order), rounds them through a CSR accumulator, and applies each
//! distinct row to the store once. Because the fold order and the per-element
//! additions are identical to the dense path, the resulting gradients are
//! **bit-identical** (property-tested across random corpora and seeds, and at every
//! optimizer step of fine-tuning on the seeded tiny task). Adam moments and
//! gradient clipping stay dense, so optimizer trajectories match exactly too.
//! `TransformerClassifier::set_sparse_embedding_grad(false)` restores the dense
//! reference path (kept for the A/B benchmark in `BENCH_transformer.json`).
//!
//! **Quantized i8 inference** ([`quant::QuantizedTransformer`]): weight-only
//! symmetric i8 with per-output scales, f32 activations and accumulation,
//! and f64 only at the class softmax (the [`quant`] docs give the scheme). The
//! i8 matrices keep the f64 graph's `d_in × d_out` layout and run the f64
//! forward's i-k-j matmul loop in f32, so what i8 buys is a weight store 8×
//! smaller than f64's on the same vectorized loop, with twice the lanes. Its
//! probabilities drift from the f64 scorer's by at most
//! [`quant::MAX_PROBABILITY_DRIFT`] (asserted in tests), with 100 % label
//! agreement on the seeded Table IV task. Pick it (via `holistix-core`'s
//! `QuantizedScorer`) when a probability perturbation of that size is
//! acceptable — i.e. for ranking/classification, not for calibrated
//! probability readouts.

pub mod attention;
pub mod config;
mod forward;
pub mod layers;
pub mod model;
pub mod pretrain;
pub mod quant;
pub mod trainer;
pub mod zoo;

pub use config::{AttentionKind, ModelConfig, ModelKind, Pooling};
pub use model::TransformerClassifier;
pub use pretrain::{pretrain_masked_lm, PretrainConfig};
pub use quant::{QuantizedTransformer, MAX_PROBABILITY_DRIFT};
pub use trainer::{FineTuneConfig, Trainer, TrainingSummary};
pub use zoo::{build_model, FineTuneRecipe};
