//! Canonical-coordinate geometry shared by both push views.
//!
//! The paper describes Push↓ in full and notes "the ↑, ← and → directions
//! are similar" (Section IV-A). Both direction-canonicalizing views — the
//! mutable [`crate::view::View`] and the read-only
//! [`crate::view::ProbeView`] overlay, each serving the 3-processor and the
//! k-processor kernel — hold one `Canon` and share its coordinate
//! convention:
//!
//! | direction | cleaned edge      | canonical `(u, v)` → real `(i, j)` |
//! |-----------|-------------------|-------------------------------------|
//! | Down      | top row           | `(u, v)`                            |
//! | Up        | bottom row        | `(n-1-u, v)`                        |
//! | Right     | leftmost column   | `(v, u)`                            |
//! | Left      | rightmost column  | `(v, n-1-u)`                        |
//!
//! Two facts fall out of the table and are load-bearing for the bit-plane
//! fast path:
//!
//! 1. a canonical **row** `u` is always one whole real line — a real row
//!    (Down/Up) or a real column (Right/Left), possibly with a flipped
//!    *line index* (`n-1-u`);
//! 2. the canonical **within-line** position `v` is never reversed by any
//!    direction, so a base grid's plane words can be handed out verbatim:
//!    word `w` of the canonical line is word `w` of the real line, bit for
//!    bit.
//!
//! `Canon` is the table's one definition of "which real line is
//! canonical row `u`", so the push table has nothing to drift from.

use crate::op::Direction;
use hetmmm_partition::{NPartition, Rect};

/// Which real axis a canonical line maps to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Axis {
    /// The canonical line is a real row; pair it with row counts and the
    /// row-major bit-plane.
    Row,
    /// The canonical line is a real column; pair it with column counts and
    /// the transposed (column-major) bit-plane.
    Col,
}

/// The canonical mapping of one push direction on an `n x n` grid.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Canon {
    dir: Direction,
    n: usize,
}

impl Canon {
    /// The mapping under which a push in `dir` on an `n x n` grid is a
    /// canonical Push↓.
    pub(crate) fn new(dir: Direction, n: usize) -> Canon {
        Canon { dir, n }
    }

    /// Map canonical `(u, v)` to real `(i, j)`.
    #[inline]
    pub(crate) fn map(self, u: usize, v: usize) -> (usize, usize) {
        match self.dir {
            Direction::Down => (u, v),
            Direction::Up => (self.n - 1 - u, v),
            Direction::Right => (v, u),
            Direction::Left => (v, self.n - 1 - u),
        }
    }

    /// The real line holding canonical row `u`: its index and axis.
    #[inline]
    pub(crate) fn row_line(self, u: usize) -> (usize, Axis) {
        match self.dir {
            Direction::Down => (u, Axis::Row),
            Direction::Up => (self.n - 1 - u, Axis::Row),
            Direction::Right => (u, Axis::Col),
            Direction::Left => (self.n - 1 - u, Axis::Col),
        }
    }

    /// The real line holding canonical column `v`. Within-line indices are
    /// never flipped, so the line index is always `v` itself.
    #[inline]
    pub(crate) fn col_line(self, v: usize) -> (usize, Axis) {
        match self.dir {
            Direction::Down | Direction::Up => (v, Axis::Col),
            Direction::Right | Direction::Left => (v, Axis::Row),
        }
    }

    /// A real bounding box in canonical coordinates.
    #[inline]
    pub(crate) fn rect(self, r: Rect) -> Rect {
        let n = self.n;
        match self.dir {
            Direction::Down => r,
            Direction::Up => Rect::new(n - 1 - r.bottom, n - 1 - r.top, r.left, r.right),
            Direction::Right => Rect::new(r.left, r.right, r.top, r.bottom),
            Direction::Left => Rect::new(n - 1 - r.right, n - 1 - r.left, r.top, r.bottom),
        }
    }

    /// Bit-plane fast path: word `w` of plane `plane`'s canonical-row-`u`
    /// line in `grid` (fact 2 above: within-line bit order is
    /// direction-independent). A mutable view passes its live grid, a
    /// read-only overlay its pre-push base grid; both satisfy
    /// [`crate::sweep::SweepGrid::line_word`]'s contract, which only asks
    /// for pre-push bits at cells of buckets not yet extracted.
    #[inline]
    pub(crate) fn line_word(self, grid: &NPartition, plane: u8, u: usize, w: usize) -> u64 {
        match self.row_line(u) {
            (i, Axis::Row) => grid.row_plane_word(plane, i, w),
            (j, Axis::Col) => grid.col_plane_word(plane, j, w),
        }
    }
}
