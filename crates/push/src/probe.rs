//! Clone-free push-feasibility probes.
//!
//! [`push_feasible`] answers "would *any* type of push of `proc` in `dir`
//! be legal?" — the question the DFA's end condition and `beautify`'s
//! progress check ask twelve times per fixed-point test — without cloning
//! the partition or mutating it.
//!
//! ## How it stays exact
//!
//! The probe runs the *same* push kernel ([`crate::op::attempt`]) that
//! applies real pushes, through the [`crate::view::PushGrid`] trait, on the
//! read-only [`ProbeView`] overlay (see [`crate::view`]). The base
//! partition is never written, so a probe is safe on a shared reference,
//! and because the kernel is shared there is no second legality
//! implementation that could drift from the real one.
//!
//! The overlay is O(cleaned-line) in size and reused across probes (the
//! thread-local behind [`crate::view::with_probe_scratch`], or the one a
//! [`ProbeCache`] owns), so a probe allocates nothing in steady state. The
//! old clone-based probe cloned the full O(N²) grid *per question*; see
//! `DESIGN.md` §11 for the measured effect.

use crate::op::{attempt, prepare, Direction, PushType};
use crate::view::{with_probe_scratch, ProbeScratch, ProbeView};
use hetmmm_obs as obs;
use hetmmm_partition::{Partition, PlaneId, Proc};

/// [`push_feasible`] against caller-owned scratch storage; used by
/// [`ProbeCache`] so cached probes never touch the thread-local.
pub(crate) fn push_feasible_with(
    scratch: &mut ProbeScratch,
    part: &Partition,
    proc: Proc,
    dir: Direction,
) -> bool {
    let _span = obs::fine_span("push.probe");
    if obs::metrics_enabled() {
        obs::metrics()
            .counter(obs::metrics::names::PUSH_PROBES)
            .inc();
    }
    let voc_before = part.voc_units() as i64;
    let mut view = ProbeView::new(part, scratch, dir);
    let Some(mut prep) = prepare(&view, proc) else {
        return false;
    };
    PushType::ALL
        .iter()
        .any(|&ty| attempt(&mut view, proc, ty, &mut prep, voc_before).is_some())
}

/// Non-mutating query: would *any* type of push of `proc` in `dir` be
/// legal? Decided by the same kernel as [`crate::try_push_any_type`],
/// against a small reusable overlay — no clone, no allocation in steady
/// state, and safe on a shared reference.
///
/// ```
/// use hetmmm_partition::{PartitionBuilder, Proc, Rect};
/// use hetmmm_push::{push_feasible, Direction};
///
/// // A stray R element above an almost-complete R block with a hole.
/// let part = PartitionBuilder::new(6)
///     .rect(Rect::new(1, 1, 2, 2), Proc::R)
///     .rect(Rect::new(2, 2, 1, 2), Proc::R)
///     .rect(Rect::new(3, 3, 1, 1), Proc::R)
///     .build();
/// assert!(push_feasible(&part, Proc::R, Direction::Down));
/// // Probing never mutates: the partition is still what we built.
/// assert_eq!(part.get(1, 2), Proc::R);
/// ```
pub fn push_feasible(part: &Partition, proc: Proc, dir: Direction) -> bool {
    with_probe_scratch(|scratch| push_feasible_with(scratch, part, proc, dir))
}

/// Hash-verified probe-verdict cache for one search run, serving both
/// the 3-processor DFA and the k-processor search.
///
/// One slot per `(plane, direction)` pair holds the grid
/// [`state_hash`](hetmmm_partition::NPartition::state_hash) a verdict was computed at. A
/// lookup hits only on an **exact hash match** — that is what makes the
/// cache sound: a push by one processor can flip another processor's probe
/// verdict (the swap rewrites cells of a displaced receiver), so
/// "invalidate only the touched processors" alone would serve stale
/// verdicts. [`ProbeCache::evict_touched`] is still worth calling after a
/// successful push — it is eviction hygiene that keeps slots from pinning
/// hashes that can never match again — but correctness never depends on it.
#[derive(Debug)]
pub struct ProbeCache {
    scratch: ProbeScratch,
    /// `(state hash, verdict)` per slot; slot = `plane * 4 + dir`.
    slots: Vec<Option<(u64, bool)>>,
}

impl ProbeCache {
    /// An empty cache for a `k`-processor grid.
    pub fn new(k: usize) -> ProbeCache {
        ProbeCache {
            scratch: ProbeScratch::default(),
            slots: vec![None; k * Direction::ALL.len()],
        }
    }

    fn slot(plane: u8, dir: Direction) -> usize {
        usize::from(plane) * Direction::ALL.len() + dir.index()
    }

    /// Cached verdict for `(proc, dir)` at exactly `hash`, if any.
    pub fn lookup<P: PlaneId>(&mut self, hash: u64, proc: P, dir: Direction) -> Option<bool> {
        let (h, verdict) = self.slots[Self::slot(proc.plane(), dir)]?;
        if h != hash {
            return None;
        }
        if obs::metrics_enabled() {
            obs::metrics()
                .counter(obs::metrics::names::PUSH_PROBE_CACHE_HITS)
                .inc();
        }
        Some(verdict)
    }

    /// Record a verdict computed at `hash`.
    pub fn record<P: PlaneId>(&mut self, hash: u64, proc: P, dir: Direction, verdict: bool) {
        self.slots[Self::slot(proc.plane(), dir)] = Some((hash, verdict));
    }

    /// Probe through the cache: serve a hash-matching slot, otherwise
    /// evaluate with the cache's own scratch and fill the slot.
    pub(crate) fn probe(&mut self, part: &Partition, proc: Proc, dir: Direction) -> bool {
        let hash = part.state_hash();
        if let Some(verdict) = self.lookup(hash, proc, dir) {
            return verdict;
        }
        let verdict = push_feasible_with(&mut self.scratch, part, proc, dir);
        self.record(hash, proc, dir, verdict);
        verdict
    }

    /// Drop the slots of every plane set in `touched_mask` (bit = plane
    /// id): the processors a successful push moved elements of (see the
    /// type-level docs: hygiene, not a correctness mechanism).
    pub fn evict_touched(&mut self, touched_mask: u64) {
        for (plane, slots) in self.slots.chunks_mut(Direction::ALL.len()).enumerate() {
            if touched_mask & (1u64 << plane) != 0 {
                slots.fill(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{try_push_any_type, would_push_reference};
    use hetmmm_partition::{random_partition, PartitionBuilder, Ratio};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The clone-free probe and the clone-based oracle agree for every
        /// (pushable proc, direction) pair on random partitions.
        #[test]
        fn probe_matches_clone_reference(seed in 0u64..1_000_000, n in 6usize..=20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let part = random_partition(n, Ratio::new(3, 2, 1), &mut rng);
            for proc in Proc::PUSHABLE {
                for dir in Direction::ALL {
                    prop_assert_eq!(
                        push_feasible(&part, proc, dir),
                        would_push_reference(&part, proc, dir),
                        "disagreement at seed {} for {} {}", seed, proc, dir
                    );
                }
            }
        }

        /// Same agreement holds at every intermediate state of a push
        /// sequence, not just on fresh random partitions — the states the
        /// DFA actually probes.
        #[test]
        fn probe_matches_reference_along_push_sequences(
            seed in 0u64..1_000_000,
            n in 6usize..=16,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = random_partition(n, Ratio::new(2, 1, 1), &mut rng);
            for _round in 0..8 {
                let mut moved = false;
                for proc in Proc::PUSHABLE {
                    for dir in Direction::ALL {
                        prop_assert_eq!(
                            push_feasible(&part, proc, dir),
                            would_push_reference(&part, proc, dir),
                            "disagreement at seed {} for {} {}", seed, proc, dir
                        );
                        moved |= try_push_any_type(&mut part, proc, dir).is_some();
                    }
                }
                if !moved {
                    break;
                }
            }
        }
    }

    #[test]
    fn probe_never_mutates() {
        let mut rng = StdRng::seed_from_u64(77);
        let part = random_partition(10, Ratio::new(2, 1, 1), &mut rng);
        let copy = part.clone();
        for proc in Proc::PUSHABLE {
            for dir in Direction::ALL {
                let _ = push_feasible(&part, proc, dir);
            }
        }
        assert_eq!(part, copy);
        part.assert_invariants();
    }

    #[test]
    fn probe_false_on_empty_processor() {
        let part = PartitionBuilder::new(5).build(); // all P
        for dir in Direction::ALL {
            assert!(!push_feasible(&part, Proc::R, dir));
            assert!(!push_feasible(&part, Proc::S, dir));
        }
    }

    #[test]
    fn cache_hits_only_on_exact_hash() {
        let mut rng = StdRng::seed_from_u64(5);
        let part = random_partition(10, Ratio::new(2, 1, 1), &mut rng);
        let mut cache = ProbeCache::new(3);
        let verdict = cache.probe(&part, Proc::R, Direction::Down);
        // Same state: served from the slot.
        assert_eq!(
            cache.lookup(part.state_hash(), Proc::R, Direction::Down),
            Some(verdict)
        );
        // Any other hash must miss.
        assert_eq!(
            cache.lookup(part.state_hash() ^ 1, Proc::R, Direction::Down),
            None
        );
    }

    #[test]
    fn cache_eviction_clears_touched_processors_only() {
        let mut rng = StdRng::seed_from_u64(6);
        let part = random_partition(10, Ratio::new(2, 1, 1), &mut rng);
        let mut cache = ProbeCache::new(3);
        cache.probe(&part, Proc::R, Direction::Down);
        cache.probe(&part, Proc::S, Direction::Up);
        cache.evict_touched(1 << Proc::R.q()); // R moved, S did not
        assert_eq!(
            cache.lookup(part.state_hash(), Proc::R, Direction::Down),
            None
        );
        assert!(cache
            .lookup(part.state_hash(), Proc::S, Direction::Up)
            .is_some());
        // k-processor plane ids address the same slot table.
        let mut cache = ProbeCache::new(5);
        cache.record(7, 4u8, Direction::Left, true);
        cache.record(7, 1u8, Direction::Left, false);
        cache.evict_touched(1 << 1);
        assert_eq!(cache.lookup(7, 4u8, Direction::Left), Some(true));
        assert_eq!(cache.lookup(7, 1u8, Direction::Left), None);
    }
}
