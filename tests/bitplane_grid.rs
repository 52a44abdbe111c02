//! Keep-alive oracles for the bit-plane grid store.
//!
//! `NPartition` stores ownership as per-processor bit-planes (one `u64`
//! word per 64 columns per line), and `Partition` is its `k = 3` facade;
//! these properties pin the bit-plane-derived state — occupancy counts,
//! line predicates, enclosing rectangles, plane words — against a
//! from-scratch reference `Vec` of owners rebuilt after every arbitrary
//! `set` sequence. Sizes straddle the 64-bit word boundary so tail-word
//! masking stays covered.

use hetmmm::prelude::*;
use hetmmm_nproc::NPartition;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Reference owner store: a plain row-major `Vec`, recomputed queries.
struct VecOracle {
    n: usize,
    cells: Vec<u8>,
}

impl VecOracle {
    fn new(n: usize, fill: u8) -> VecOracle {
        VecOracle {
            n,
            cells: vec![fill; n * n],
        }
    }

    fn set(&mut self, i: usize, j: usize, p: u8) {
        self.cells[i * self.n + j] = p;
    }

    fn rows_occupied(&self, p: u8) -> usize {
        (0..self.n)
            .filter(|&i| (0..self.n).any(|j| self.cells[i * self.n + j] == p))
            .count()
    }

    fn cols_occupied(&self, p: u8) -> usize {
        (0..self.n)
            .filter(|&j| (0..self.n).any(|i| self.cells[i * self.n + j] == p))
            .count()
    }

    fn rect(&self, p: u8) -> Option<(usize, usize, usize, usize)> {
        let mut found = None;
        for i in 0..self.n {
            for j in 0..self.n {
                if self.cells[i * self.n + j] == p {
                    let (t, b, l, r) = found.unwrap_or((i, i, j, j));
                    found = Some((t.min(i), b.max(i), l.min(j), r.max(j)));
                }
            }
        }
        found
    }

    fn line_word(&self, p: u8, i: usize, w: usize) -> u64 {
        let mut word = 0u64;
        for b in 0..64 {
            let j = w * 64 + b;
            if j < self.n && self.cells[i * self.n + j] == p {
                word |= 1u64 << b;
            }
        }
        word
    }
}

/// Sizes that exercise sub-word, exact-word and multi-word (tail-masked)
/// plane lines.
fn grid_sizes() -> impl Strategy<Value = usize> {
    (0usize..5).prop_map(|i| [7usize, 63, 64, 65, 100][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Three-processor grid: every bit-plane-derived query of the
    /// `Partition` facade agrees with the reference `Vec` after an
    /// arbitrary random `set` sequence, and the facade equals a k = 3
    /// store driven by the same churn.
    #[test]
    fn partition_matches_vec_oracle(seed in 0u64..1_000_000, n in grid_sizes()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut part = Partition::new(n, Proc::P);
        let mut store = NPartition::new(n, 3);
        let mut oracle = VecOracle::new(n, Proc::P.q());
        store.fill_rect(Rect::new(0, n - 1, 0, n - 1), Proc::P.q());
        for _ in 0..600 {
            let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
            let p = [Proc::R, Proc::S, Proc::P][rng.random_range(0..3)];
            part.set(i, j, p);
            store.set(i, j, p.q());
            oracle.set(i, j, p.q());
        }
        for p in [Proc::R, Proc::S, Proc::P] {
            prop_assert_eq!(part.rows_occupied(p), oracle.rows_occupied(p.q()));
            prop_assert_eq!(part.cols_occupied(p), oracle.cols_occupied(p.q()));
            let rect = part.enclosing_rect(p)
                .map(|r| (r.top, r.bottom, r.left, r.right));
            prop_assert_eq!(rect, oracle.rect(p.q()));
            for i in 0..n {
                for w in 0..part.words_per_line() {
                    prop_assert_eq!(
                        part.row_plane_word(p, i, w),
                        oracle.line_word(p.q(), i, w),
                        "row plane mismatch at proc {} row {} word {}", p, i, w
                    );
                }
            }
        }
        prop_assert!(*part == store, "facade and store diverged");
        part.assert_invariants();
    }

    /// k-processor grid: occupancy, rectangles and plane words from the
    /// bit-planes match the reference `Vec` after arbitrary churn.
    #[test]
    fn npartition_matches_vec_oracle(seed in 0u64..1_000_000, n in grid_sizes(), k in 3usize..=6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut part = NPartition::new(n, k);
        let mut oracle = VecOracle::new(n, 0);
        for _ in 0..600 {
            let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
            let p = rng.random_range(0..k) as u8;
            part.set(i, j, p);
            oracle.set(i, j, p);
        }
        for p in 0..k as u8 {
            let rows = (0..n).filter(|&i| part.row_has(p, i)).count();
            let cols = (0..n).filter(|&j| part.col_has(p, j)).count();
            prop_assert_eq!(rows, oracle.rows_occupied(p));
            prop_assert_eq!(cols, oracle.cols_occupied(p));
            prop_assert_eq!(part.rows_occupied(p), rows);
            prop_assert_eq!(part.cols_occupied(p), cols);
            let rect = part.enclosing_rect(p)
                .map(|r| (r.top, r.bottom, r.left, r.right));
            prop_assert_eq!(rect, oracle.rect(p));
            for i in 0..n {
                for w in 0..part.words_per_line() {
                    prop_assert_eq!(
                        part.row_plane_word(p, i, w),
                        oracle.line_word(p, i, w),
                        "row plane mismatch at proc {} row {} word {}", p, i, w
                    );
                }
            }
            for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))) {
                prop_assert_eq!(part.get(i, j), oracle.cells[i * n + j]);
            }
        }
        part.assert_invariants();
    }
}

/// Single-row and single-column shapes keep exact one-line rectangles on
/// both grids (degenerate bounds, exercised deterministically).
#[test]
fn single_line_partitions_round_trip() {
    let n = 70;
    let mut part = Partition::new(n, Proc::P);
    for j in 10..50 {
        part.set(3, j, Proc::R);
    }
    for i in 60..70 {
        part.set(i, 65, Proc::S);
    }
    assert_eq!(part.enclosing_rect(Proc::R), Some(Rect::new(3, 3, 10, 49)));
    assert_eq!(
        part.enclosing_rect(Proc::S),
        Some(Rect::new(60, 69, 65, 65))
    );
    assert_eq!(part.rows_occupied(Proc::R), 1);
    assert_eq!(part.cols_occupied(Proc::S), 1);
    part.assert_invariants();

    let mut npart = NPartition::new(n, 4);
    for j in 10..50 {
        npart.set(3, j, 1);
    }
    for i in 60..70 {
        npart.set(i, 65, 2);
    }
    assert_eq!(npart.enclosing_rect(1), Some(Rect::new(3, 3, 10, 49)));
    assert_eq!(npart.enclosing_rect(2), Some(Rect::new(60, 69, 65, 65)));
    npart.assert_invariants();
}

/// Push behaviour is identical across word-boundary grid sizes: running
/// the deterministic mode ladder from the same seeded random start must
/// keep the probe and the clone-based oracle in agreement (the bit-plane
/// word sweeps feed both).
#[test]
fn probe_agrees_with_reference_across_word_boundaries() {
    use hetmmm_nproc::{push_feasible_n, try_push_n};
    for n in [63usize, 64, 65] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut part = NPartition::random(n, &[5, 3, 2], &mut rng);
        for _ in 0..3 {
            for proc in 1..3u8 {
                for dir in Direction::ALL {
                    let probe = push_feasible_n(&part, proc, dir);
                    let mut clone = part.clone();
                    let oracle = try_push_n(&mut clone, proc, dir).is_some();
                    assert_eq!(probe, oracle, "n={n} proc={proc} {dir:?}");
                    let _ = try_push_n(&mut part, proc, dir);
                }
            }
        }
        part.assert_invariants();
    }
}
