//! The five invariant rules. Each is a lexical pass over a
//! [`FileCtx`](crate::engine::FileCtx); waivers and dedup happen in the engine.

pub mod guard;
pub mod no_panic;
pub mod ordering;
pub mod safety;
pub mod vendor_drift;
