//! Exact push equivariance of the shared view layer.
//!
//! Both push kernels see a grid only through the canonical table in
//! `hetmmm_push::geom`, which sends each of these pairs to the *same*
//! canonical grid:
//!
//! - `(P, Down)` and `(transpose P, Right)`,
//! - `(P, Up)` and `(transpose P, Left)`,
//! - `(P, Down)` and `(mirror_v P, Up)`,
//! - `(P, Right)` and `(mirror_h P, Left)`.
//!
//! So each pair must push identically — same type (or mode), ΔVoC, swap
//! count and touched processors, with results that are each other's image
//! — and the probes must agree. Checked for the 3-processor kernel and for
//! the k-processor one at k ∈ {3, 4, 5}, at N ∈ {7, 64, 65}, on random
//! partitions and along push sequences from them.

use hetmmm::prelude::*;
use hetmmm::push::push_feasible;
use hetmmm_nproc::{push_feasible_n, try_push_n, NPartition};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The grid symmetries of the table's pairs; each is an involution.
#[derive(Clone, Copy, Debug)]
enum Sym {
    Transpose,
    MirrorV,
    MirrorH,
}

impl Sym {
    /// The cell of the original that cell `(i, j)` of the image holds.
    fn src(self, n: usize, i: usize, j: usize) -> (usize, usize) {
        match self {
            Sym::Transpose => (j, i),
            Sym::MirrorV => (n - 1 - i, j),
            Sym::MirrorH => (i, n - 1 - j),
        }
    }

    fn image(self, part: &NPartition) -> NPartition {
        let n = part.n();
        let mut out = NPartition::new(n, part.k());
        for i in 0..n {
            for j in 0..n {
                let (a, b) = self.src(n, i, j);
                out.set(i, j, part.get(a, b));
            }
        }
        out
    }

    fn image3(self, part: &Partition) -> Partition {
        let n = part.n();
        Partition::from_fn(n, |i, j| {
            let (a, b) = self.src(n, i, j);
            part.get(a, b)
        })
    }
}

/// `(direction on P, symmetry, direction on the image)`.
const PAIRS: [(Direction, Sym, Direction); 4] = [
    (Direction::Down, Sym::Transpose, Direction::Right),
    (Direction::Up, Sym::Transpose, Direction::Left),
    (Direction::Down, Sym::MirrorV, Direction::Up),
    (Direction::Right, Sym::MirrorH, Direction::Left),
];

const SIZES: [usize; 3] = [7, 64, 65];

/// Every pair pushes and probes identically on the 3-processor kernel.
fn check_three(part: &Partition) {
    for (d1, sym, d2) in PAIRS {
        let img = sym.image3(part);
        assert_eq!(
            sym.image3(&img),
            part.clone(),
            "{:?} is not an involution",
            sym
        );
        for proc in Proc::PUSHABLE {
            let (mut a, mut b) = (part.clone(), img.clone());
            let ra = try_push_any_type(&mut a, proc, d1);
            let rb = try_push_any_type(&mut b, proc, d2);
            let tag = format!("{proc} {d1:?} vs {sym:?} {d2:?}");
            assert_eq!(push_feasible(part, proc, d1), ra.is_some(), "{}", tag);
            assert_eq!(push_feasible(&img, proc, d2), rb.is_some(), "{}", tag);
            assert_eq!(
                ra.map(|r| (r.ty, r.delta_voc_units, r.swaps, r.touched_mask)),
                rb.map(|r| (r.ty, r.delta_voc_units, r.swaps, r.touched_mask)),
                "{}",
                tag
            );
            assert!(sym.image3(&a) == b, "results are not images: {}", tag);
        }
    }
}

/// Every pair pushes and probes identically on the k-processor kernel.
fn check_k(part: &NPartition) {
    for (d1, sym, d2) in PAIRS {
        let img = sym.image(part);
        for proc in 1..part.k() as u8 {
            let (mut a, mut b) = (part.clone(), img.clone());
            let ra = try_push_n(&mut a, proc, d1);
            let rb = try_push_n(&mut b, proc, d2);
            let tag = format!("k={} proc {proc} {d1:?} vs {sym:?} {d2:?}", part.k());
            assert_eq!(push_feasible_n(part, proc, d1), ra.is_some(), "{}", tag);
            assert_eq!(push_feasible_n(&img, proc, d2), rb.is_some(), "{}", tag);
            assert_eq!(
                ra.map(|r| (r.mode, r.delta_voc_units, r.swaps, r.touched_mask)),
                rb.map(|r| (r.mode, r.delta_voc_units, r.swaps, r.touched_mask)),
                "{}",
                tag
            );
            assert!(sym.image(&a) == b, "results are not images: {}", tag);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 3-processor kernel: pairs agree on a random start and after each of
    /// a few seeded pushes.
    #[test]
    fn three_proc_pushes_are_equivariant(
        seed in 0u64..1_000_000,
        n_idx in 0usize..3,
        ratio_idx in 0usize..3,
    ) {
        let ratio = [Ratio::new(2, 1, 1), Ratio::new(5, 4, 1), Ratio::new(10, 1, 1)][ratio_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut part = random_partition(SIZES[n_idx], ratio, &mut rng);
        for _ in 0..3 {
            check_three(&part);
            let proc = Proc::PUSHABLE[rng.random_range(0..2usize)];
            let moved = Direction::ALL
                .into_iter()
                .any(|dir| try_push_any_type(&mut part, proc, dir).is_some());
            if !moved {
                break;
            }
        }
    }

    /// k-processor kernel: the same, at k ∈ {3, 4, 5}.
    #[test]
    fn k_proc_pushes_are_equivariant(
        seed in 0u64..1_000_000,
        n_idx in 0usize..3,
        k in 3usize..=5,
    ) {
        let weights: Vec<u32> = (0..k).map(|i| 1 + 2 * (k - i) as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut part = NPartition::random(SIZES[n_idx], &weights, &mut rng);
        for _ in 0..3 {
            check_k(&part);
            let proc = rng.random_range(1..k as u8);
            let moved = Direction::ALL
                .into_iter()
                .any(|dir| try_push_n(&mut part, proc, dir).is_some());
            if !moved {
                break;
            }
        }
    }
}
