//! # holistix-linalg
//!
//! Dense linear-algebra substrate for the Holistix reproduction.
//!
//! Both layers of the modelling stack need basic dense math:
//!
//! * the classical baselines (`holistix-ml`) use [`Matrix`]/[`Vector`] for TF-IDF
//!   design matrices, logistic-regression gradients and SVM subgradients;
//! * the autograd engine (`holistix-tensor`) stores every tensor as a [`Matrix`]
//!   and delegates its matmuls, transposes and reductions here.
//!
//! The implementation is deliberately BLAS-free (no external dependencies) but not
//! naive: the matmul is blocked and iterates in row-major-friendly order, and the
//! reductions avoid bounds checks in the hot loops by using slice iterators. For the
//! problem sizes in the paper (≤ ~1.5 k documents, vocabularies of a few thousand
//! terms, transformer hidden sizes of 32–128) this is more than fast enough.
//!
//! For the TF-IDF design matrices — which are >99% zeros at realistic vocabulary
//! sizes — the [`sparse`] module provides a CSR representation ([`CsrMatrix`]) and
//! the [`FeatureMatrix`] dense/sparse abstraction the classical-ML stack scores
//! against; see its module docs for the exact-arithmetic equivalence contract.

pub mod matrix;
pub mod ops;
pub mod random;
pub mod sparse;
pub mod stats;
pub mod vector;

pub use matrix::{matmul_accumulate, Matrix};
pub use ops::{log_softmax_rows, logsumexp, relu, sigmoid, softmax, softmax_rows, tanh_vec};
pub use random::{xavier_uniform, Rng64};
pub use sparse::{CsrBuilder, CsrMatrix, FeatureMatrix, FeatureRows};
pub use stats::{argmax, mean, stddev, variance};
pub use vector::Vector;
