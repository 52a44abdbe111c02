//! The push kernels' view layer: direction-canonicalizing windows onto the
//! grid store.
//!
//! The paper describes Push↓ in full and notes "the ↑, ← and → directions
//! are similar" (Section IV-A). Rather than maintaining four near-identical
//! implementations, a view maps *canonical* coordinates `(u, v)` — in which
//! every push is a Push↓ cleaning the canonical top row `u = rect.top` — onto
//! the real grid, through the `Canon` table in [`crate::geom`].
//! Canonical "rows" are the lines perpendicular to the push direction, and
//! canonical "columns" the lines parallel to it, so the occupancy
//! predicates of the push rules translate directly — and because
//! within-line bit order is direction-independent, the store's bit-plane
//! words are served to the kernels verbatim via
//! [`SweepGrid::line_word`].
//!
//! Two views implement the kernels' accessor trait [`PushGrid`], once for
//! every processor id type ([`PlaneId`]: `Proc` for the 3-processor kernel,
//! `u8` for the k-processor one):
//!
//! - [`View`] applies real pushes to a mutable [`NPartition`];
//! - [`ProbeView`] answers feasibility without cloning or mutating: where a
//!   real push swaps cells, it records the swaps in a small overlay
//!   ([`ProbeScratch`]) layered over the immutable base grid — per-cell
//!   reassignments, per-line occupancy deltas and the running ΔVoC,
//!   mirroring the incremental bookkeeping of [`NPartition::set`] exactly.
//!
//! One kernel deciding both real and probed pushes is what makes a probe
//! agree with the push it predicts by construction — there is no second
//! legality implementation to drift.

use crate::geom::{Axis, Canon};
use crate::op::Direction;
use crate::sweep::SweepGrid;
use hetmmm_partition::{NPartition, PlaneId, Rect};
use std::cell::RefCell;

/// Canonical-coordinate grid accessors the push kernels need, on top of
/// the reads the target sweep shares ([`SweepGrid`]), generic over the
/// processor id type `P`.
pub trait PushGrid<P: Copy>: SweepGrid<P> {
    /// Owner of canonical cell `(u, v)`.
    fn get(&self, u: usize, v: usize) -> P;
    /// Swap two canonical cells.
    fn swap(&mut self, a: (usize, usize), b: (usize, usize));
    /// Does canonical column `v` contain elements of `proc`?
    fn col_has(&self, proc: P, v: usize) -> bool;
    /// Enclosing rectangle of `proc` in canonical coordinates. The kernels
    /// consult it only to build a [`crate::sweep::Prepared`], before any
    /// swap of the push, so overlay implementations may answer it from
    /// their base grid.
    fn enclosing_rect(&self, proc: P) -> Option<Rect>;
    /// VoC line units of the underlying grid.
    fn voc_units(&self) -> u64;
}

/// A mutable, direction-canonicalized window onto a grid.
pub struct View<'a> {
    part: &'a mut NPartition,
    canon: Canon,
}

impl<'a> View<'a> {
    /// Wrap `part` so that pushing in `dir` looks like a canonical Push↓.
    pub fn new(part: &'a mut NPartition, dir: Direction) -> View<'a> {
        let canon = Canon::new(dir, part.n());
        View { part, canon }
    }
}

impl<P: PlaneId> PushGrid<P> for View<'_> {
    #[inline]
    fn get(&self, u: usize, v: usize) -> P {
        let (i, j) = self.canon.map(u, v);
        P::from_plane(self.part.get(i, j))
    }

    #[inline]
    fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        let ra = self.canon.map(a.0, a.1);
        let rb = self.canon.map(b.0, b.1);
        self.part.swap(ra, rb);
    }

    #[inline]
    fn col_has(&self, proc: P, v: usize) -> bool {
        match self.canon.col_line(v) {
            (j, Axis::Col) => self.part.col_has(proc.plane(), j),
            (i, Axis::Row) => self.part.row_has(proc.plane(), i),
        }
    }

    fn enclosing_rect(&self, proc: P) -> Option<Rect> {
        Some(self.canon.rect(self.part.enclosing_rect(proc.plane())?))
    }

    #[inline]
    fn voc_units(&self) -> u64 {
        self.part.voc_units()
    }
}

impl<P: PlaneId> SweepGrid<P> for View<'_> {
    #[inline]
    fn row_has(&self, proc: P, u: usize) -> bool {
        match self.canon.row_line(u) {
            (i, Axis::Row) => self.part.row_has(proc.plane(), i),
            (j, Axis::Col) => self.part.col_has(proc.plane(), j),
        }
    }

    #[inline]
    fn row_count(&self, proc: P, u: usize) -> u32 {
        match self.canon.row_line(u) {
            (i, Axis::Row) => self.part.row_count(proc.plane(), i),
            (j, Axis::Col) => self.part.col_count(proc.plane(), j),
        }
    }

    #[inline]
    fn col_count(&self, proc: P, v: usize) -> u32 {
        match self.canon.col_line(v) {
            (j, Axis::Col) => self.part.col_count(proc.plane(), j),
            (i, Axis::Row) => self.part.row_count(proc.plane(), i),
        }
    }

    /// Live plane words. Mid-attempt they differ from the pre-push grid
    /// only in the cleaned row and at already-popped targets, which is
    /// what [`SweepGrid::line_word`] allows.
    #[inline]
    fn line_word(&self, proc: P, u: usize, w: usize) -> u64 {
        self.canon.line_word(self.part, proc.plane(), u, w)
    }
}

/// Per-line count deltas of the lines one probe touched: `lines[s]` is a
/// real line index and `deltas[s * k + plane]` that line's per-plane delta.
#[derive(Debug, Default)]
struct LineDeltas {
    lines: Vec<u32>,
    deltas: Vec<i32>,
}

impl LineDeltas {
    fn clear(&mut self) {
        self.lines.clear();
        self.deltas.clear();
    }

    #[inline]
    fn get(&self, k: usize, line: usize, plane: u8) -> i32 {
        self.lines
            .iter()
            .position(|&l| l == line as u32)
            .map_or(0, |s| self.deltas[s * k + usize::from(plane)])
    }

    fn bump(&mut self, k: usize, line: usize, plane: u8, by: i32) {
        let s = match self.lines.iter().position(|&l| l == line as u32) {
            Some(s) => s,
            None => {
                self.lines.push(line as u32);
                self.deltas.resize(self.deltas.len() + k, 0);
                self.lines.len() - 1
            }
        };
        self.deltas[s * k + usize::from(plane)] += by;
    }
}

/// Reusable overlay storage for one probe at a time. Cheap to keep around,
/// cleared (not freed) between probes.
///
/// All maps are sparse, keyed by the lines/cells a probe actually touches
/// — O(cleaned-line) entries — instead of mirroring `n`-sized per-cell or
/// per-line state, so one scratch serves every grid size and processor
/// count without a sizing step.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// Overlay cell assignments as `(flat index, plane)`. Linear-scanned:
    /// a probe touches at most one cleaned line's worth of cells.
    cells: Vec<(u32, u8)>,
    /// Row element-count deltas relative to the base.
    rows: LineDeltas,
    /// Column element-count deltas relative to the base.
    cols: LineDeltas,
    /// Overlay ΔVoC in line units relative to the base.
    voc_delta: i64,
}

thread_local! {
    static SCRATCH: RefCell<ProbeScratch> = RefCell::new(ProbeScratch::default());
}

/// Run `f` with this thread's probe scratch: the storage behind every
/// uncached probe, so a probe allocates nothing in steady state.
pub fn with_probe_scratch<R>(f: impl FnOnce(&mut ProbeScratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// A read-only, direction-canonicalized view: the base grid plus the
/// [`ProbeScratch`] overlay, with the same canonical mapping as [`View`].
pub struct ProbeView<'a> {
    base: &'a NPartition,
    scratch: &'a mut ProbeScratch,
    canon: Canon,
}

impl<'a> ProbeView<'a> {
    /// An overlay onto `base` for probing a push in `dir`, emptying
    /// `scratch` first.
    pub fn new(base: &'a NPartition, scratch: &'a mut ProbeScratch, dir: Direction) -> Self {
        scratch.cells.clear();
        scratch.rows.clear();
        scratch.cols.clear();
        scratch.voc_delta = 0;
        let canon = Canon::new(dir, base.n());
        ProbeView {
            base,
            scratch,
            canon,
        }
    }

    /// Owner of real cell `(i, j)`, overlay first.
    #[inline]
    fn get_real(&self, i: usize, j: usize) -> u8 {
        let idx = (i * self.base.n() + j) as u32;
        for &(c, p) in &self.scratch.cells {
            if c == idx {
                return p;
            }
        }
        self.base.get(i, j)
    }

    /// Overlay-adjusted element count of `plane` in real row `i`.
    #[inline]
    fn row_count_real(&self, plane: u8, i: usize) -> i64 {
        let delta = self.scratch.rows.get(self.base.k(), i, plane);
        i64::from(self.base.row_count(plane, i)) + i64::from(delta)
    }

    /// Overlay-adjusted element count of `plane` in real column `j`.
    #[inline]
    fn col_count_real(&self, plane: u8, j: usize) -> i64 {
        let delta = self.scratch.cols.get(self.base.k(), j, plane);
        i64::from(self.base.col_count(plane, j)) + i64::from(delta)
    }

    /// Overlay mirror of [`NPartition::set`]: reassign real cell `(i, j)`
    /// and update the per-line deltas and ΔVoC with the same 1→0 / 0→1
    /// transition rules the real grid uses.
    fn set_real(&mut self, i: usize, j: usize, plane: u8) {
        let old = self.get_real(i, j);
        if old == plane {
            return;
        }
        let idx = (i * self.base.n() + j) as u32;
        match self.scratch.cells.iter_mut().find(|(c, _)| *c == idx) {
            Some(entry) => entry.1 = plane,
            None => self.scratch.cells.push((idx, plane)),
        }
        let k = self.base.k();
        if self.row_count_real(old, i) == 1 {
            self.scratch.voc_delta -= 1;
        }
        self.scratch.rows.bump(k, i, old, -1);
        if self.row_count_real(plane, i) == 0 {
            self.scratch.voc_delta += 1;
        }
        self.scratch.rows.bump(k, i, plane, 1);
        if self.col_count_real(old, j) == 1 {
            self.scratch.voc_delta -= 1;
        }
        self.scratch.cols.bump(k, j, old, -1);
        if self.col_count_real(plane, j) == 0 {
            self.scratch.voc_delta += 1;
        }
        self.scratch.cols.bump(k, j, plane, 1);
    }
}

impl<P: PlaneId> PushGrid<P> for ProbeView<'_> {
    #[inline]
    fn get(&self, u: usize, v: usize) -> P {
        let (i, j) = self.canon.map(u, v);
        P::from_plane(self.get_real(i, j))
    }

    fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        let ra = self.canon.map(a.0, a.1);
        let rb = self.canon.map(b.0, b.1);
        let pa = self.get_real(ra.0, ra.1);
        let pb = self.get_real(rb.0, rb.1);
        if pa == pb {
            return;
        }
        self.set_real(ra.0, ra.1, pb);
        self.set_real(rb.0, rb.1, pa);
    }

    #[inline]
    fn col_has(&self, proc: P, v: usize) -> bool {
        self.col_count(proc, v) > 0
    }

    /// Canonical enclosing rectangle, answered from the *base* grid: the
    /// kernels only consult it before any overlay swap, so base and overlay
    /// agree whenever this is called (leftover identity entries from a
    /// rolled-back attempt have zero net occupancy effect).
    fn enclosing_rect(&self, proc: P) -> Option<Rect> {
        Some(self.canon.rect(self.base.enclosing_rect(proc.plane())?))
    }

    #[inline]
    fn voc_units(&self) -> u64 {
        let units = self.base.voc_units() as i64 + self.scratch.voc_delta;
        debug_assert!(units >= 0, "overlay drove voc_units negative");
        units as u64
    }
}

impl<P: PlaneId> SweepGrid<P> for ProbeView<'_> {
    #[inline]
    fn row_has(&self, proc: P, u: usize) -> bool {
        self.row_count(proc, u) > 0
    }

    #[inline]
    fn row_count(&self, proc: P, u: usize) -> u32 {
        let count = match self.canon.row_line(u) {
            (i, Axis::Row) => self.row_count_real(proc.plane(), i),
            (j, Axis::Col) => self.col_count_real(proc.plane(), j),
        };
        debug_assert!(count >= 0, "overlay drove a line count negative");
        count as u32
    }

    #[inline]
    fn col_count(&self, proc: P, v: usize) -> u32 {
        let count = match self.canon.col_line(v) {
            (j, Axis::Col) => self.col_count_real(proc.plane(), j),
            (i, Axis::Row) => self.row_count_real(proc.plane(), i),
        };
        debug_assert!(count >= 0, "overlay drove a line count negative");
        count as u32
    }

    /// Bit-plane line words, answered from the *base* grid: the pre-push
    /// grid throughout a probe, as [`SweepGrid::line_word`] requires for
    /// extraction mid-attempt.
    #[inline]
    fn line_word(&self, proc: P, u: usize, w: usize) -> u64 {
        self.canon.line_word(self.base, proc.plane(), u, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmmm_partition::{Partition, PartitionBuilder, Proc};

    fn sample() -> Partition {
        // 5x5, R at (1,2), S block rows 3..=4 cols 0..=1.
        PartitionBuilder::new(5)
            .rect(Rect::new(1, 1, 2, 2), Proc::R)
            .rect(Rect::new(3, 4, 0, 1), Proc::S)
            .build()
    }

    /// Owner of canonical `(u, v)`, as the 3-processor kernel reads it.
    fn owner(view: &View, u: usize, v: usize) -> Proc {
        PushGrid::get(view, u, v)
    }

    #[test]
    fn map_roundtrips_ownership() {
        let mut part = sample();
        for dir in Direction::ALL {
            let view = View::new(part.grid_mut(), dir);
            // Every canonical cell maps to exactly one real cell.
            let mut seen = std::collections::HashSet::new();
            for u in 0..5 {
                for v in 0..5 {
                    assert!(
                        seen.insert(view.canon.map(u, v)),
                        "duplicate mapping {dir:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn down_view_is_identity() {
        let mut part = sample();
        let view = View::new(part.grid_mut(), Direction::Down);
        assert_eq!(owner(&view, 1, 2), Proc::R);
        assert_eq!(view.enclosing_rect(Proc::S), Some(Rect::new(3, 4, 0, 1)));
        assert!(view.row_has(Proc::R, 1));
        assert!(view.col_has(Proc::R, 2));
    }

    #[test]
    fn up_view_flips_rows() {
        let mut part = sample();
        let view = View::new(part.grid_mut(), Direction::Up);
        // Real row 1 is canonical row 3 when n = 5.
        assert_eq!(owner(&view, 3, 2), Proc::R);
        // S rows 3..=4 become canonical rows 0..=1.
        assert_eq!(view.enclosing_rect(Proc::S), Some(Rect::new(0, 1, 0, 1)));
    }

    #[test]
    fn right_view_transposes() {
        let mut part = sample();
        let view = View::new(part.grid_mut(), Direction::Right);
        // Real (1, 2) appears at canonical (2, 1).
        assert_eq!(owner(&view, 2, 1), Proc::R);
        // S real rows 3..=4 / cols 0..=1 -> canonical rows 0..=1 / cols 3..=4.
        assert_eq!(view.enclosing_rect(Proc::S), Some(Rect::new(0, 1, 3, 4)));
        assert!(view.row_has(Proc::S, 0)); // real col 0 has S
        assert!(view.col_has(Proc::S, 3)); // real row 3 has S
    }

    #[test]
    fn left_view_flips_cols_and_transposes() {
        let mut part = sample();
        let view = View::new(part.grid_mut(), Direction::Left);
        // Real (1, 2): canonical u = n-1-j = 2, v = i = 1.
        assert_eq!(owner(&view, 2, 1), Proc::R);
        // S cols 0..=1 -> canonical rows 3..=4; S rows 3..=4 -> canonical cols 3..=4.
        assert_eq!(view.enclosing_rect(Proc::S), Some(Rect::new(3, 4, 3, 4)));
    }

    #[test]
    fn swap_acts_on_real_grid() {
        let mut part = sample();
        {
            let mut view = View::new(part.grid_mut(), Direction::Right);
            // canonical (2, 1) is real (1, 2) = R; canonical (0, 0) is real (0, 0) = P.
            PushGrid::<Proc>::swap(&mut view, (2, 1), (0, 0));
        }
        assert_eq!(part.get(0, 0), Proc::R);
        assert_eq!(part.get(1, 2), Proc::P);
        part.assert_invariants();
    }

    #[test]
    fn counts_match_direction_semantics() {
        let mut part = sample();
        let view = View::new(part.grid_mut(), Direction::Left);
        // Canonical row u counts = real column n-1-u counts.
        assert_eq!(view.row_count(Proc::S, 4), 2); // real col 0
        assert_eq!(view.row_count(Proc::S, 3), 2); // real col 1
        assert_eq!(view.col_count(Proc::S, 3), 2); // real row 3
    }
}
