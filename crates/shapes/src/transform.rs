//! Archetype reductions (Section VIII, Theorems 8.1–8.4).
//!
//! The paper proves that every Archetype B, C and D partition can be
//! transformed into an Archetype A partition without increasing the volume
//! of communication, so only Archetype A shapes need further study.
//!
//! - **Theorem 8.1** — translating the two slower processors *jointly*
//!   (keeping their relative position) does not change the VoC:
//!   [`translate_combined`].
//! - **Theorem 8.2** — an Archetype B "L + rectangle" pair can be reshaped
//!   into two disjoint rectangles within the same bounding box.
//! - **Theorem 8.3** — Archetype C partitions still admit Push operations in
//!   the directions the randomized run did not select; applying them (the
//!   program's "beautify" pass) finishes the job.
//! - **Theorem 8.4** — an Archetype D "surround" reduces to B by moving the
//!   inner rectangle to a corner of the outer enclosing rectangle
//!   (the two-processor canonical-form move of [8]), then to A by
//!   Theorem 8.2.
//!
//! [`reduce_to_archetype_a`] composes all of the above into a single
//! operation and verifies the VoC guarantee at runtime.

use crate::archetype::{classify, Archetype};
use crate::candidates::CandidateType;
use hetmmm_partition::{Partition, Proc};
use hetmmm_push::beautify;

/// Theorem 8.1: translate the combined R∪S region by `(di, dj)`.
///
/// Returns `None` if the translation would move any R/S element out of the
/// matrix. The VoC of the result equals the VoC of the input whenever the
/// combined region's rows and columns do not change their overlap pattern
/// with P's remainder — which holds for condensed shapes; the general
/// invariant `VoC(out) <= VoC(in)` is asserted in tests rather than here
/// because Theorem 8.1 is stated for shapes, not arbitrary scatters.
pub fn translate_combined(part: &Partition, di: isize, dj: isize) -> Option<Partition> {
    let n = part.n() as isize;
    // Collect the combined region.
    let cells: Vec<(usize, usize, Proc)> = part
        .cells_of(Proc::R)
        .map(|(i, j)| (i, j, Proc::R))
        .chain(part.cells_of(Proc::S).map(|(i, j)| (i, j, Proc::S)))
        .collect();
    // Bounds check first.
    for &(i, j, _) in &cells {
        let (ni, nj) = (i as isize + di, j as isize + dj);
        if ni < 0 || nj < 0 || ni >= n || nj >= n {
            return None;
        }
    }
    let mut out = Partition::new(part.n(), Proc::P);
    for &(i, j, proc) in &cells {
        let (ni, nj) = ((i as isize + di) as usize, (j as isize + dj) as usize);
        out.set(ni, nj, proc);
    }
    Some(out)
}

/// The constructive core of Theorems 8.2 / 8.4: rebuild R and S as two
/// disjoint rectangle-like regions with the same element counts, choosing
/// the Archetype A layout (among the six canonical candidates of Section
/// IX) with the lowest VoC.
///
/// The theorem proofs reshape the L / surround shape by a push-like
/// transformation that is allowed to *expand* the active processor's
/// enclosing rectangle in one direction while shrinking it in another —
/// i.e. the result is some Archetype A arrangement of the same areas. By
/// Theorem 8.1 its VoC does not depend on placement, so the minimum-VoC
/// canonical candidate is at least as good as the particular arrangement
/// the proof constructs.
fn best_archetype_a_rebuild(part: &Partition) -> Option<Partition> {
    let n = part.n();
    let e_r = part.elems(Proc::R);
    let e_s = part.elems(Proc::S);
    CandidateType::ALL
        .iter()
        .filter_map(|ty| ty.construct_from_areas(n, e_r, e_s))
        .map(|c| c.partition)
        .min_by_key(|c| c.voc())
}

/// Reduce any condensed partition to Archetype A without increasing VoC
/// (Theorems 8.2–8.4 composed).
///
/// Returns the reduced partition. Panics (debug assertion) if the result has
/// a higher VoC than the input; returns the input unchanged when it is
/// already Archetype A (or degenerate).
pub fn reduce_to_archetype_a(part: &Partition) -> Partition {
    let voc_in = part.voc();
    let mut current = part.clone();

    // Theorem 8.3: finish any residual pushes first (Archetype C, and a
    // cheap improvement for anything ragged).
    beautify(&mut current);

    if classify(&current) != Archetype::A {
        // Theorems 8.2 / 8.4: replace the B/C/D arrangement with the best
        // Archetype A arrangement of the same areas, keeping it only if it
        // does not worsen VoC (the theorems guarantee it will not).
        if let Some(rebuilt) = best_archetype_a_rebuild(&current) {
            if rebuilt.voc() <= current.voc() {
                current = rebuilt;
            }
        }
    }

    debug_assert!(current.voc() <= voc_in, "reduction must not worsen VoC");
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::{PartitionBuilder, Rect};

    /// An Archetype B instance: S rectangle with R L-wrapped around it.
    fn archetype_b() -> Partition {
        PartitionBuilder::new(12)
            .rect(Rect::new(4, 11, 0, 2), Proc::R)
            .rect(Rect::new(9, 11, 3, 7), Proc::R)
            .rect(Rect::new(4, 8, 3, 7), Proc::S)
            .build()
    }

    /// An Archetype D instance: S strictly inside R's enclosing rectangle.
    fn archetype_d() -> Partition {
        PartitionBuilder::new(12)
            .rect(Rect::new(2, 9, 2, 9), Proc::R)
            .rect(Rect::new(4, 6, 4, 6), Proc::S)
            .build()
    }

    /// An Archetype C instance: interlocking staircases, rectangular union.
    fn archetype_c() -> Partition {
        PartitionBuilder::new(12)
            .rect(Rect::new(0, 2, 0, 5), Proc::R)
            .rect(Rect::new(3, 5, 0, 2), Proc::R)
            .rect(Rect::new(3, 5, 3, 5), Proc::S)
            .rect(Rect::new(6, 8, 0, 5), Proc::S)
            .build()
    }

    #[test]
    fn fixtures_classify_as_intended() {
        assert_eq!(classify(&archetype_b()), Archetype::B);
        assert_eq!(classify(&archetype_d()), Archetype::D);
        assert_eq!(classify(&archetype_c()), Archetype::C);
    }

    #[test]
    fn translate_preserves_voc_for_condensed_shapes() {
        let part = PartitionBuilder::new(10)
            .rect(Rect::new(0, 1, 0, 3), Proc::R)
            .rect(Rect::new(0, 1, 4, 5), Proc::S)
            .build();
        let voc = part.voc();
        let moved = translate_combined(&part, 3, 2).expect("fits");
        assert_eq!(moved.voc(), voc, "Theorem 8.1");
        assert_eq!(moved.elems(Proc::R), part.elems(Proc::R));
        moved.assert_invariants();
    }

    #[test]
    fn translate_rejects_out_of_bounds() {
        let part = PartitionBuilder::new(6)
            .rect(Rect::new(4, 5, 4, 5), Proc::R)
            .rect(Rect::new(0, 0, 0, 0), Proc::S)
            .build();
        assert!(translate_combined(&part, 1, 0).is_none());
        assert!(translate_combined(&part, 0, -1).is_none()); // S at col 0
    }

    #[test]
    fn reduce_b_to_a() {
        let part = archetype_b();
        let reduced = reduce_to_archetype_a(&part);
        assert!(reduced.voc() <= part.voc(), "Theorem 8.2 VoC guarantee");
        assert_eq!(classify(&reduced), Archetype::A);
        assert_eq!(reduced.elems(Proc::R), part.elems(Proc::R));
        assert_eq!(reduced.elems(Proc::S), part.elems(Proc::S));
    }

    #[test]
    fn reduce_c_to_a() {
        let part = archetype_c();
        let reduced = reduce_to_archetype_a(&part);
        assert!(reduced.voc() <= part.voc(), "Theorem 8.3 VoC guarantee");
        assert_eq!(classify(&reduced), Archetype::A);
    }

    #[test]
    fn reduce_d_to_a() {
        let part = archetype_d();
        let reduced = reduce_to_archetype_a(&part);
        assert!(reduced.voc() <= part.voc(), "Theorem 8.4 VoC guarantee");
        assert_eq!(classify(&reduced), Archetype::A);
    }

    #[test]
    fn reduce_is_identity_like_on_archetype_a() {
        let part = PartitionBuilder::new(12)
            .rect(Rect::new(0, 3, 0, 3), Proc::R)
            .rect(Rect::new(8, 11, 8, 11), Proc::S)
            .build();
        let reduced = reduce_to_archetype_a(&part);
        assert_eq!(reduced.voc(), part.voc());
        assert_eq!(classify(&reduced), Archetype::A);
    }
}
