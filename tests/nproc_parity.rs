//! Parity between the three-processor machinery and its k-processor
//! generalization: for `k = 3` the two implementations must agree on the
//! quantities they both define.

use hetmmm::prelude::*;
use hetmmm_nproc::{NDfaConfig, NDfaRunner, NPartition};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mirror a three-processor `Partition` into an `NPartition` with the id
/// mapping P→0, R→1, S→2 (fastest first).
fn mirror(part: &Partition) -> NPartition {
    let n = part.n();
    let mut npart = NPartition::new(n, 3);
    for i in 0..n {
        for j in 0..n {
            let id = match part.get(i, j) {
                Proc::P => 0u8,
                Proc::R => 1,
                Proc::S => 2,
            };
            npart.set(i, j, id);
        }
    }
    npart
}

#[test]
fn voc_agrees_between_representations() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..10 {
        let part = random_partition(24, Ratio::new(4, 2, 1), &mut rng);
        let npart = mirror(&part);
        assert_eq!(part.voc(), npart.voc());
        assert_eq!(part.voc_units(), npart.voc_units());
        npart.assert_invariants();
    }
}

#[test]
fn enclosing_rects_agree() {
    let mut rng = StdRng::seed_from_u64(12);
    let part = random_partition(20, Ratio::new(3, 2, 1), &mut rng);
    let npart = mirror(&part);
    for (proc, id) in [(Proc::P, 0u8), (Proc::R, 1), (Proc::S, 2)] {
        let a = part.enclosing_rect(proc).expect("non-empty");
        let b = npart.enclosing_rect(id).expect("non-empty");
        assert_eq!(
            (a.top, a.bottom, a.left, a.right),
            (b.top, b.bottom, b.left, b.right)
        );
    }
}

#[test]
fn element_counts_agree() {
    let mut rng = StdRng::seed_from_u64(13);
    let part = random_partition(30, Ratio::new(5, 3, 1), &mut rng);
    let npart = mirror(&part);
    assert_eq!(part.elems(Proc::P), npart.elems(0));
    assert_eq!(part.elems(Proc::R), npart.elems(1));
    assert_eq!(part.elems(Proc::S), npart.elems(2));
}

#[test]
fn k3_search_reaches_comparable_quality() {
    // The generalized engine collapses the six push types into three
    // modes, so fixed points differ in detail — but the achieved VoC
    // should be in the same band as the specialized engine across seeds.
    let n = 30;
    let ratio = Ratio::new(2, 1, 1);

    let runner3 = DfaRunner::new(DfaConfig::new(n, ratio));
    let best3 = runner3
        .run_many(0..12u64)
        .into_iter()
        .map(|o| o.voc_final)
        .min()
        .unwrap();

    let runner_n = NDfaRunner::new(NDfaConfig::new(n, vec![2, 1, 1]));
    let best_n = runner_n
        .run_many(0..12u64)
        .into_iter()
        .map(|o| o.voc_final)
        .min()
        .unwrap();

    let lo = best3.min(best_n) as f64;
    let hi = best3.max(best_n) as f64;
    assert!(
        hi / lo < 1.5,
        "engines diverged: specialized best {best3}, generalized best {best_n}"
    );
}

#[test]
fn generalized_push_preserves_conservation_at_k3() {
    use hetmmm_nproc::try_push_n;
    let mut rng = StdRng::seed_from_u64(14);
    let part = random_partition(20, Ratio::new(3, 1, 1), &mut rng);
    let mut npart = mirror(&part);
    let before: Vec<usize> = (0..3).map(|p| npart.elems(p as u8)).collect();
    let mut voc = npart.voc();
    for proc in 1..3u8 {
        for dir in Direction::ALL {
            if let Some(ap) = try_push_n(&mut npart, proc, dir) {
                assert!(ap.delta_voc_units <= 0);
                assert!(npart.voc() <= voc);
                voc = npart.voc();
            }
        }
    }
    let after: Vec<usize> = (0..3).map(|p| npart.elems(p as u8)).collect();
    assert_eq!(before, after);
    npart.assert_invariants();
}
