//! Canonical-coordinate geometry shared by every push view.
//!
//! The paper describes Push↓ in full and notes "the ↑, ← and → directions
//! are similar" (Section IV-A). All four direction-canonicalizing views —
//! the mutable 3-processor [`crate::view::View`], its read-only probe
//! overlay, and the n-processor pair in `hetmmm-nproc` — share one
//! coordinate convention:
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
//! [`canonical_geometry!`] generates the whole dispatch once per view type
//! instead of four hand-written `match self.dir` blocks per view, so the
//! 6-types × 4-directions push table has exactly one definition of "which
//! real line is canonical row `u`" to drift from.

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

/// Generate the canonical-coordinate geometry methods for one view type.
///
/// The expanding type must have `dir: $dir_ty` and `n: usize` fields, and a
/// `$base` field whose grid exposes `row_plane_word(proc, line, word)` and
/// `col_plane_word(proc, line, word)` (both
/// [`Partition`](hetmmm_partition::Partition) and `hetmmm-nproc`'s
/// `NPartition` do). `$dir_ty` must have `Down` / `Up` / `Left` / `Right`
/// variants with the table's semantics.
///
/// Generated methods (all inherent, `pub(crate)`-free so the expanding
/// module controls visibility through the impl block):
///
/// - `map(u, v) -> (i, j)`: canonical cell to real cell,
/// - `canon_row_line(u) -> (line, Axis)`: the real line behind canonical
///   row `u`,
/// - `canon_col_line(v) -> (line, Axis)`: the real line behind canonical
///   column `v`,
/// - `canon_rect(t, b, l, r) -> (t, b, l, r)`: a real bounding box in
///   canonical coordinates,
/// - `plane_line_word(proc, u, w)`: the bit-plane fast path, answered from
///   the base grid. For a mutable view that is the live grid; for a
///   read-only overlay it is the pre-push grid, ignoring overlay swaps.
///   Both satisfy [`crate::sweep::SweepGrid::line_word`]'s contract, which
///   only asks for pre-push bits at cells of buckets not yet extracted.
#[macro_export]
macro_rules! canonical_geometry {
    (dir: $dir_ty:path, proc: $proc_ty:ty, base: $base:ident) => {
        /// Map canonical `(u, v)` to real `(i, j)` (see the table in
        /// `hetmmm_push::geom`).
        #[inline]
        fn map(&self, u: usize, v: usize) -> (usize, usize) {
            use $dir_ty as D;
            match self.dir {
                D::Down => (u, v),
                D::Up => (self.n - 1 - u, v),
                D::Right => (v, u),
                D::Left => (v, self.n - 1 - u),
            }
        }

        /// The real line holding canonical row `u`: its index and axis.
        #[inline]
        fn canon_row_line(&self, u: usize) -> (usize, $crate::geom::Axis) {
            use $crate::geom::Axis;
            use $dir_ty as D;
            match self.dir {
                D::Down => (u, Axis::Row),
                D::Up => (self.n - 1 - u, Axis::Row),
                D::Right => (u, Axis::Col),
                D::Left => (self.n - 1 - u, Axis::Col),
            }
        }

        /// The real line holding canonical column `v`. Within-line indices
        /// are never flipped, so the line index is always `v` itself.
        #[inline]
        fn canon_col_line(&self, v: usize) -> (usize, $crate::geom::Axis) {
            use $crate::geom::Axis;
            use $dir_ty as D;
            match self.dir {
                D::Down | D::Up => (v, Axis::Col),
                D::Right | D::Left => (v, Axis::Row),
            }
        }

        /// A real bounding box `(top, bottom, left, right)` in canonical
        /// coordinates.
        #[inline]
        fn canon_rect(
            &self,
            top: usize,
            bottom: usize,
            left: usize,
            right: usize,
        ) -> (usize, usize, usize, usize) {
            use $dir_ty as D;
            let n = self.n;
            match self.dir {
                D::Down => (top, bottom, left, right),
                D::Up => (n - 1 - bottom, n - 1 - top, left, right),
                D::Right => (left, right, top, bottom),
                D::Left => (n - 1 - right, n - 1 - left, top, bottom),
            }
        }

        /// Bit-plane fast path: word `w` of `proc`'s canonical-row-`u`
        /// plane line, straight from the base grid (fact 2 in
        /// `hetmmm_push::geom`: within-line bit order is direction-
        /// independent). Overlay swaps are not reflected; see
        /// `hetmmm_push::sweep::SweepGrid::line_word` for why the push
        /// kernel's mid-attempt reads are still exact.
        #[inline]
        fn plane_line_word(&self, proc: $proc_ty, u: usize, w: usize) -> u64 {
            match self.canon_row_line(u) {
                (i, $crate::geom::Axis::Row) => self.$base.row_plane_word(proc, i, w),
                (j, $crate::geom::Axis::Col) => self.$base.col_plane_word(proc, j, w),
            }
        }
    };
}
