//! Benchmark harness support library — see `benches/` for the per-table Criterion benches.

pub mod report;
