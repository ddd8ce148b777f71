//! The xsdb benchmark's shared half: the seeded generator that derives
//! every input *and* every expected answer, the metric table, and the
//! small statistics both drivers use. The wire driver
//! (`src/bin/wire.rs`) and the traced replay (`trace/`) are separate
//! programs over this library.

pub mod check;
pub mod cli;
pub mod gen;
pub mod report;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod workload;
