//! # hetmmm-nproc
//!
//! The paper's stated extension (Sections I and XI): "A fundamental
//! requirement of this program is that it must also be applicable beyond
//! the three processor case. It can easily be adapted to form partition
//! shapes for any number of processors." — this crate is that adaptation.
//!
//! Everything is generalized from the fixed three-processor machinery of
//! the main crates to `k ≥ 2` processors:
//!
//! - [`NPartition`]: the `q(i,j) ∈ {0..k-1}` grid — the workspace's one
//!   grid store, defined in `hetmmm-partition` (the three-processor
//!   `Partition` is a `k = 3` facade over it) and re-exported here,
//! - [`push`]: the Push rule table with `k − 1` possible displaced owners
//!   (the three-processor select-and-match generalizes directly: bucket
//!   interior targets per owner, assign owners to vacated positions,
//!   commit under the exact ΔVoC contract), run on the three-processor
//!   engine's views, target sweep and probe cache (`hetmmm-push`),
//! - [`dfa`]: the randomized search with per-processor direction plans and
//!   neutral-cycle detection,
//! - [`stats`]: shape descriptors for the outcomes — per-processor
//!   rectangularity (fill of the enclosing rectangle), corner counts, and
//!   the pairwise enclosing-rectangle overlap structure — the raw material
//!   for a future ≥4-processor archetype taxonomy.
//!
//! Processor 0 is the fastest (the background owner of the remainder);
//! processors `1..k` are the slower, pushable ones, in decreasing speed
//! order. With `k = 3` the behaviour matches the main `hetmmm` crates
//! (cross-checked in tests); with `k = 2` it reproduces the two-processor
//! prior work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dfa;
pub mod push;
pub mod stats;

pub use dfa::{NDfaConfig, NDfaOutcome, NDfaRunner};
pub use hetmmm_partition::NPartition;
pub use push::{push_feasible_n, try_push_n, PushMode};
pub use stats::{OutcomeStats, ProcShapeStats};
