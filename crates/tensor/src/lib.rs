//! # holistix-tensor
//!
//! A small reverse-mode automatic-differentiation engine.
//!
//! The paper fine-tunes six transformer models. Since no pretrained checkpoints or GPU
//! frameworks are available in this reproduction, `holistix-transformer` trains small
//! transformer classifiers from scratch — and that needs gradients. This crate provides
//! them with a tape-based autograd design chosen deliberately over an `Rc<RefCell>`
//! graph:
//!
//! * a [`Graph`] is an arena of nodes created during the forward pass;
//!   node handles are plain `usize` indices, so the whole engine is `Send` and the
//!   cross-validation driver can train folds on parallel threads;
//! * trainable parameters live in a [`ParamStore`] that persists
//!   across forward passes; leaf nodes reference parameters by id and `backward`
//!   accumulates gradients straight into the store;
//! * [`optim`] implements SGD and Adam with gradient clipping.
//!
//! The op set is exactly what a small encoder/decoder transformer classifier needs:
//! matmul, broadcast bias add, elementwise arithmetic, ReLU/GELU/tanh, row softmax
//! (optionally masked), layer normalisation, embedding gather, mean pooling, row
//! selection, dropout and a fused softmax-cross-entropy loss.
//!
//! Everything operates on the dense [`Matrix`](holistix_linalg::Matrix) type from
//! `holistix-linalg`; sequences are `seq_len × hidden` matrices and batching is done by
//! accumulating gradients over sequences, which keeps shapes two-dimensional and the
//! engine easy to verify (see the finite-difference tests in `graph::tests`).

pub mod graph;
pub mod optim;
pub mod params;

pub use graph::{Graph, NodeId};
pub use optim::{clip_gradients, Adam, AdamConfig, Optimizer, Sgd};
pub use params::{ParamId, ParamStore};
