//! Support for the `experiments` binary: deterministic workload
//! generators and the naive-Dewey baseline behind the rows reported in
//! EXPERIMENTS.md and the E-guards `scripts/check.sh` gates on. (The
//! end-to-end benchmark lives in `benchmark/`.)

#![warn(missing_docs)]

pub mod dewey;
pub mod workload;

pub use dewey::NaiveDewey;
pub use workload::{build_deep_tree, build_library_tree, sample_pairs, Family};
