//! The generalized Push for `k` processors.
//!
//! The three-processor select-and-match operation carries over with one
//! structural change: there are `k − 1` possible displaced owners instead
//! of two, so the per-owner target buckets and the position-to-owner
//! assignment become vectors. The strictness ladder collapses the paper's
//! six types into three [`PushMode`]s (the displaced-side and active-side
//! knobs the types combine), each still governed by the exact ΔVoC
//! contract: `Strict` and `Budgeted` commit only on strict decrease,
//! `Relaxed` on non-increase.
//!
//! Mirroring the three-processor engine, the operation is split into a
//! mode-independent phase 1 (enclosing rectangle, cleaned line, per-owner
//! target counts, through the sweep shared with the three-processor kernel,
//! `hetmmm_push::sweep`) and a per-mode [`n_attempt`] that extracts target
//! buckets on demand. Both run on the three-processor engine's view layer
//! (`hetmmm_push::view`): the mutable `View` that applies real pushes, and
//! the read-only `ProbeView` overlay behind [`push_feasible_n`] that
//! answers feasibility without cloning. Only the rule table — the three
//! modes below — is this crate's own.

use hetmmm_partition::NPartition;
use hetmmm_push::sweep::Prepared;
use hetmmm_push::view::{with_probe_scratch, ProbeView, PushGrid, View};
use hetmmm_push::Direction;
use serde::{Deserialize, Serialize};

/// Legality ladder, from the paper's Type 1 (strictest) to Type 6.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PushMode {
    /// Active elements only into occupied lines; displaced owners only
    /// into positions they already share row/column with; ΔVoC < 0.
    Strict,
    /// Active side free (net budget), displaced side strict; ΔVoC < 0.
    Budgeted,
    /// Both sides free; ΔVoC ≤ 0.
    Relaxed,
}

impl PushMode {
    /// The ladder order `try_push_n` uses.
    pub const ALL: [PushMode; 3] = [PushMode::Strict, PushMode::Budgeted, PushMode::Relaxed];
}

/// Result of an applied generalized push.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NAppliedPush {
    /// The active processor.
    pub proc: u8,
    /// Direction.
    pub dir: Direction,
    /// Mode under which it was legal.
    pub mode: PushMode,
    /// Exact ΔVoC in line units.
    pub delta_voc_units: i64,
    /// Swaps performed.
    pub swaps: usize,
    /// Bitmask (bit = processor id, `k ≤ 64` by construction) of every
    /// processor whose elements the push moved: the active processor plus
    /// each displaced receiver. The search uses it to evict probe-cache
    /// slots for exactly the processors whose occupancy changed.
    pub touched_mask: u64,
}

/// Phase 1 — locate the cleaned line and count the interior targets of
/// every displaced owner (every processor except the active one,
/// ascending), through the sweep shared with the three-processor kernel;
/// [`n_attempt`] extracts targets on demand.
fn n_prepare<G: PushGrid<u8>>(view: &G, proc: u8, k: usize) -> Option<Prepared<u8>> {
    let owners = (0..k as u8).filter(|&p| p != proc).collect();
    Prepared::new(view, proc, owners, view.enclosing_rect(proc)?)
}

/// Outcome of a successful [`n_attempt`].
struct NAttemptOutcome {
    delta: i64,
    swaps: usize,
    touched_mask: u64,
}

/// Phases 2 and 3 under one mode — owner assignment, greedy pairing,
/// swaps, and the ΔVoC contract. Rolls back completely on failure.
fn n_attempt<G: PushGrid<u8>>(
    view: &mut G,
    proc: u8,
    mode: PushMode,
    prep: &mut Prepared<u8>,
    voc_before: i64,
) -> Option<NAttemptOutcome> {
    let kline = prep.k();
    let cleaned = prep.cleaned();
    let owners = prep.owners();
    let m = cleaned.len();

    // Phase 2: assign an owner to each vacated position. A position is
    // free for an owner when that owner already occupies both the cleaned
    // line and the position's cross line.
    let row_k_has: Vec<bool> = owners.iter().map(|&o| view.row_has(o, kline)).collect();
    let displaced_strict = !matches!(mode, PushMode::Relaxed);
    let mut demand = vec![0usize; owners.len()];
    let avail: Vec<usize> = (0..owners.len()).map(|s| prep.avail(s)).collect();
    let mut assignment: Vec<usize> = Vec::with_capacity(m);
    let mut flexible: Vec<usize> = Vec::new();
    for (idx, &v) in cleaned.iter().enumerate() {
        let free: Vec<usize> = (0..owners.len())
            .filter(|&s| row_k_has[s] && view.col_has(owners[s], v))
            .collect();
        match free.len() {
            0 if displaced_strict => return None,
            1 if demand[free[0]] < avail[free[0]] => {
                assignment.push(free[0]);
                demand[free[0]] += 1;
            }
            _ => {
                // Prefer a free owner with spare targets; resolved below.
                assignment.push(usize::MAX);
                flexible.push(idx);
            }
        }
    }
    for idx in flexible {
        let v = cleaned[idx];
        // Free owners first, then anyone with spare targets.
        let mut order: Vec<usize> = (0..owners.len()).collect();
        order.sort_by_key(|&s| !(row_k_has[s] && view.col_has(owners[s], v)));
        let mut placed = false;
        for s in order {
            if demand[s] < avail[s] {
                if displaced_strict && !(row_k_has[s] && view.col_has(owners[s], v)) {
                    continue;
                }
                assignment[idx] = s;
                demand[s] += 1;
                placed = true;
                break;
            }
        }
        if !placed {
            return None;
        }
    }

    // Phase 3: pair and swap under the active-side rules.
    let mut journal: Vec<((usize, usize), (usize, usize))> = Vec::with_capacity(m);
    let mut dirty_used = 0usize;
    let mut next = vec![0usize; owners.len()];
    let mut touched_mask = 0u64;
    let mut ok = true;
    'elems: for (idx, &slot) in assignment.iter().enumerate() {
        let v = prep.cleaned()[idx];
        loop {
            let Some((g, h)) = prep.target(&*view, slot, next[slot]) else {
                ok = false;
                break 'elems;
            };
            next[slot] += 1;
            if view.get(g, h) == proc {
                continue;
            }
            let col_has_excl_k = {
                let mut cnt = view.col_count(proc, h);
                if view.get(kline, h) == proc {
                    cnt -= 1;
                }
                cnt > 0
            };
            let cost = usize::from(!view.row_has(proc, g)) + usize::from(!col_has_excl_k);
            let admissible = match mode {
                PushMode::Strict => cost == 0 || dirty_used + cost <= 1,
                PushMode::Budgeted | PushMode::Relaxed => true,
            };
            if !admissible {
                continue;
            }
            view.swap((kline, v), (g, h));
            journal.push(((kline, v), (g, h)));
            touched_mask |= 1u64 << prep.owners()[slot];
            dirty_used += cost;
            break;
        }
    }

    let delta = view.voc_units() as i64 - voc_before;
    let contract_ok = match mode {
        PushMode::Strict | PushMode::Budgeted => delta < 0,
        PushMode::Relaxed => delta <= 0,
    };
    if !ok || !contract_ok {
        for &(a, b) in journal.iter().rev() {
            view.swap(a, b);
        }
        debug_assert_eq!(view.voc_units() as i64, voc_before);
        return None;
    }
    touched_mask |= 1u64 << proc;
    Some(NAttemptOutcome {
        delta,
        swaps: journal.len(),
        touched_mask,
    })
}

/// Attempt a push of `proc` in `dir`, trying modes strictest-first.
/// Commits the first legal one; otherwise leaves the partition untouched.
/// Phase 1 is mode-independent (and failed attempts roll back exactly),
/// so it is computed once and shared across the ladder.
pub fn try_push_n(part: &mut NPartition, proc: u8, dir: Direction) -> Option<NAppliedPush> {
    let k = part.k();
    let voc_before = part.voc_units() as i64;
    let mut view = View::new(part, dir);
    let mut prep = n_prepare(&view, proc, k)?;
    PushMode::ALL.iter().find_map(|&mode| {
        n_attempt(&mut view, proc, mode, &mut prep, voc_before).map(|out| NAppliedPush {
            proc,
            dir,
            mode,
            delta_voc_units: out.delta,
            swaps: out.swaps,
            touched_mask: out.touched_mask,
        })
    })
}

/// Attempt a push under one specific mode.
pub fn try_push_mode(
    part: &mut NPartition,
    proc: u8,
    dir: Direction,
    mode: PushMode,
) -> Option<NAppliedPush> {
    let k = part.k();
    let voc_before = part.voc_units() as i64;
    let mut view = View::new(part, dir);
    let mut prep = n_prepare(&view, proc, k)?;
    n_attempt(&mut view, proc, mode, &mut prep, voc_before).map(|out| NAppliedPush {
        proc,
        dir,
        mode,
        delta_voc_units: out.delta,
        swaps: out.swaps,
        touched_mask: out.touched_mask,
    })
}

/// Non-mutating query: would a push of `proc` in `dir` be legal under any
/// [`PushMode`]? Decided by the same kernel as [`try_push_n`] against the
/// shared read-only overlay — no clone of the `O(N²)` grid, safe on a
/// shared reference.
pub fn push_feasible_n(part: &NPartition, proc: u8, dir: Direction) -> bool {
    with_probe_scratch(|scratch| {
        let voc_before = part.voc_units() as i64;
        let mut view = ProbeView::new(part, scratch, dir);
        let Some(mut prep) = n_prepare(&view, proc, part.k()) else {
            return false;
        };
        PushMode::ALL
            .iter()
            .any(|&mode| n_attempt(&mut view, proc, mode, &mut prep, voc_before).is_some())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_push::sweep::SweepGrid;
    use hetmmm_push::ProbeCache;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_never_raises_voc_k4() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut part = NPartition::random(24, &[6, 3, 2, 1], &mut rng);
        let mut voc = part.voc();
        for _ in 0..50 {
            let mut any = false;
            for proc in 1..4u8 {
                for dir in Direction::ALL {
                    if let Some(ap) = try_push_n(&mut part, proc, dir) {
                        assert!(ap.delta_voc_units <= 0);
                        assert!(part.voc() <= voc);
                        assert!(ap.touched_mask & (1 << proc) != 0);
                        voc = part.voc();
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
        }
        part.assert_invariants();
    }

    #[test]
    fn failed_push_rolls_back_k5() {
        let mut rng = StdRng::seed_from_u64(2);
        let part = NPartition::random(16, &[8, 3, 2, 2, 1], &mut rng);
        for proc in 1..5u8 {
            for dir in Direction::ALL {
                for mode in PushMode::ALL {
                    let mut scratch = part.clone();
                    if try_push_mode(&mut scratch, proc, dir, mode).is_none() {
                        assert_eq!(scratch, part, "{proc} {dir:?} {mode:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn element_counts_preserved() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut part = NPartition::random(20, &[5, 2, 2, 1], &mut rng);
        let before: Vec<usize> = (0..4).map(|p| part.elems(p as u8)).collect();
        for proc in 1..4u8 {
            for dir in Direction::ALL {
                let _ = try_push_n(&mut part, proc, dir);
            }
        }
        let after: Vec<usize> = (0..4).map(|p| part.elems(p as u8)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn exact_square_is_fixed_point() {
        // A k=4 partition with three exact corner squares: no pushes.
        let mut part = NPartition::new(12, 4);
        for i in 0..4 {
            for j in 0..4 {
                part.set(i, j, 1);
                part.set(i + 8, j + 8, 2);
                part.set(i, j + 8, 3);
            }
        }
        for proc in 1..4u8 {
            for dir in Direction::ALL {
                let mut scratch = part.clone();
                assert!(
                    try_push_n(&mut scratch, proc, dir).is_none(),
                    "{proc} {dir:?} should not push"
                );
                // And the probe agrees without needing the clone.
                assert!(!push_feasible_n(&part, proc, dir));
            }
        }
    }

    /// [`n_prepare`] through the eager reference sweep.
    fn n_prepare_reference<G: PushGrid<u8>>(view: &G, proc: u8, k: usize) -> Option<Prepared<u8>> {
        let owners = (0..k as u8).filter(|&p| p != proc).collect();
        Prepared::eager(view, proc, owners, view.enclosing_rect(proc)?)
    }

    /// [`try_push_n`] driven by the eager [`n_prepare_reference`].
    fn try_push_n_reference(
        part: &mut NPartition,
        proc: u8,
        dir: Direction,
    ) -> Option<NAppliedPush> {
        let k = part.k();
        let voc_before = part.voc_units() as i64;
        let mut view = View::new(part, dir);
        let mut prep = n_prepare_reference(&view, proc, k)?;
        PushMode::ALL.iter().find_map(|&mode| {
            n_attempt(&mut view, proc, mode, &mut prep, voc_before).map(|out| NAppliedPush {
                proc,
                dir,
                mode,
                delta_voc_units: out.delta,
                swaps: out.swaps,
                touched_mask: out.touched_mask,
            })
        })
    }

    /// Every target of owner `slot`, extracting all remaining buckets.
    fn force_all<G: SweepGrid<u8>>(
        prep: &mut Prepared<u8>,
        grid: &G,
        slot: usize,
    ) -> Vec<(usize, usize)> {
        (0..)
            .map_while(|idx| prep.target(grid, slot, idx))
            .collect()
    }

    /// A random (`shape` 0) partition, or (`shape` 1) one rectangle per
    /// processor `1..k` on processor 0 plus `n / 2` random strays, so rows
    /// and columns miss the active processor and owners thin out to one
    /// element per line.
    fn sample_npartition(n: usize, k: usize, shape: usize, rng: &mut StdRng) -> NPartition {
        use rand::RngExt;
        if shape == 0 {
            let weights: Vec<u32> = (0..k).map(|i| 1 + 2 * (k - i) as u32).collect();
            return NPartition::random(n, &weights, rng);
        }
        let mut part = NPartition::new(n, k);
        for proc in 1..k as u8 {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            let (c, d) = (rng.random_range(0..n), rng.random_range(0..n));
            for i in a.min(b)..=a.max(b) {
                for j in c.min(d)..=c.max(d) {
                    part.set(i, j, proc);
                }
            }
        }
        for _ in 0..n / 2 {
            let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
            part.set(i, j, rng.random_range(0..k as u8));
        }
        part
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Along random push sequences, across word boundaries and
        /// processor counts, the lazy sweep yields the eager sweep's
        /// targets and counts, and pushes and probes decide exactly as
        /// with the eager sweep.
        #[test]
        fn lazy_n_prepare_matches_eager_reference(
            seed in 0u64..1_000_000,
            n_idx in 0usize..6,
            k in 3usize..=6,
            shape in 0usize..2,
        ) {
            let n = [7, 63, 64, 65, 100, 129][n_idx];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = sample_npartition(n, k, shape, &mut rng);
            for _round in 0..3 {
                let mut moved = false;
                for proc in 1..k as u8 {
                    for dir in Direction::ALL {
                        {
                            let view = View::new(&mut part, dir);
                            let lazy = n_prepare(&view, proc, k);
                            let eager = n_prepare_reference(&view, proc, k);
                            prop_assert_eq!(lazy.is_some(), eager.is_some());
                            if let (Some(mut lazy), Some(mut eager)) = (lazy, eager) {
                                prop_assert_eq!(lazy.k(), eager.k());
                                prop_assert_eq!(lazy.cleaned(), eager.cleaned());
                                prop_assert_eq!(lazy.owners(), eager.owners());
                                let m = lazy.cleaned().len();
                                for slot in 0..k - 1 {
                                    let expected = force_all(&mut eager, &view, slot);
                                    prop_assert_eq!(lazy.avail(slot), expected.len().min(m));
                                    prop_assert_eq!(force_all(&mut lazy, &view, slot), expected);
                                }
                            }
                        }
                        let mut eager = part.clone();
                        let expected = try_push_n_reference(&mut eager, proc, dir);
                        prop_assert_eq!(push_feasible_n(&part, proc, dir), expected.is_some());
                        let applied = try_push_n(&mut part, proc, dir);
                        prop_assert_eq!(applied, expected);
                        prop_assert!(part == eager, "partitions diverged");
                        moved |= applied.is_some();
                    }
                }
                if !moved {
                    break;
                }
            }
        }

        /// Buckets extracted *after* swaps on a live `View` hold the same
        /// targets as the eager sweep of the pre-push grid.
        #[test]
        fn n_extraction_after_swaps_reads_pre_push_bits(
            seed in 0u64..1_000_000,
            n_idx in 0usize..6,
            k in 3usize..=6,
            shape in 0usize..2,
        ) {
            let n = [7, 63, 64, 65, 100, 129][n_idx];
            let mut rng = StdRng::seed_from_u64(seed);
            let part = sample_npartition(n, k, shape, &mut rng);
            for proc in 1..k as u8 {
                for dir in Direction::ALL {
                    let mut scratch = part.clone();
                    let mut view = View::new(&mut scratch, dir);
                    let (Some(mut lazy), Some(mut eager)) =
                        (n_prepare(&view, proc, k), n_prepare_reference(&view, proc, k))
                    else {
                        continue;
                    };
                    let expected: Vec<_> =
                        (0..k - 1).map(|slot| force_all(&mut eager, &view, slot)).collect();
                    // Swap cleaned elements into the owners' first targets,
                    // round-robin over owners, extracting buckets as the
                    // cursors reach them.
                    let kline = lazy.k();
                    let cleaned = lazy.cleaned().to_vec();
                    let mut next = vec![0usize; k - 1];
                    for (idx, &v) in cleaned.iter().enumerate() {
                        let slot = idx % (k - 1);
                        if let Some((g, h)) = lazy.target(&view, slot, next[slot]) {
                            next[slot] += 1;
                            PushGrid::<u8>::swap(&mut view, (kline, v), (g, h));
                        }
                    }
                    for (slot, expected) in expected.iter().enumerate() {
                        prop_assert_eq!(&force_all(&mut lazy, &view, slot), expected);
                    }
                }
            }
        }
    }

    /// Clone-based oracle for the probe equivalence properties.
    fn would_push_n_reference(part: &NPartition, proc: u8, dir: Direction) -> bool {
        let mut scratch = part.clone();
        try_push_n(&mut scratch, proc, dir).is_some()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The clone-free probe and the clone-based oracle agree for every
        /// (pushable proc, direction) pair, including at intermediate
        /// states of a push sequence, across processor counts.
        #[test]
        fn probe_matches_clone_reference(seed in 0u64..1_000_000, k in 3usize..=6) {
            let weights: Vec<u32> = (0..k).map(|i| 1 + 2 * (k - i) as u32).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = NPartition::random(16, &weights, &mut rng);
            for _round in 0..4 {
                let mut moved = false;
                for proc in 1..k as u8 {
                    for dir in Direction::ALL {
                        prop_assert_eq!(
                            push_feasible_n(&part, proc, dir),
                            would_push_n_reference(&part, proc, dir),
                            "disagreement at seed {} for proc {} {:?}", seed, proc, dir
                        );
                        moved |= try_push_n(&mut part, proc, dir).is_some();
                    }
                }
                if !moved {
                    break;
                }
            }
            part.assert_invariants();
        }
    }

    #[test]
    fn probe_cache_hits_on_exact_hash_and_evicts_touched() {
        let mut rng = StdRng::seed_from_u64(9);
        let part = NPartition::random(14, &[5, 3, 2, 1], &mut rng);
        let hash = part.state_hash();
        let mut cache = ProbeCache::new(4);
        let verdict = push_feasible_n(&part, 1, Direction::Down);
        cache.record(hash, 1u8, Direction::Down, verdict);
        assert_eq!(cache.lookup(hash, 1u8, Direction::Down), Some(verdict));
        assert_eq!(cache.lookup(hash ^ 1, 1u8, Direction::Down), None);
        let verdict = push_feasible_n(&part, 2, Direction::Up);
        cache.record(hash, 2u8, Direction::Up, verdict);
        cache.evict_touched(1 << 1); // proc 1 moved, proc 2 did not
        assert_eq!(cache.lookup(hash, 1u8, Direction::Down), None);
        assert!(cache.lookup(hash, 2u8, Direction::Up).is_some());
    }
}
