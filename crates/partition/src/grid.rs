//! The partition grid: `q(i, j) -> owner` with incremental accounting.
//!
//! [`NPartition`] is the workspace's one grid store and the workhorse of the
//! whole reproduction. It holds a partition of an `n x n` matrix among `k`
//! processors, identified by `u8` **plane ids** `0..k`. The assignment is
//! stored as per-processor **bit-planes** — one `u64` mask word per 64
//! columns per row (and a transposed copy per column) — so that:
//!
//! - occupancy counts ([`NPartition::rows_occupied`]) are `popcount` over a
//!   single occupied-line mask,
//! - enclosing-rectangle shrink scans are word-wise sweeps
//!   (`trailing_zeros` / `leading_zeros` over the occupied-line masks)
//!   instead of per-line count walks,
//! - the Push engine can sweep a whole canonical line 64 cells at a time
//!   via [`NPartition::row_plane_word`] / [`NPartition::col_plane_word`].
//!
//! Besides the raw planes it maintains, under every mutation:
//!
//! - `count[p][u]`, per axis: how many elements of plane `p` live in row
//!   (column) `u`,
//! - `procs[u]`, per axis: the paper's `c_i` / `c_j` — how many *distinct*
//!   processors own elements in that line,
//! - `voc_units`: `Σ_i (c_i - 1) + Σ_j (c_j - 1)`, so that the paper's
//!   Eq. 1 volume of communication is `N * voc_units`,
//! - `elems[p]`: the element count `∈p` of each processor,
//! - a Zobrist state hash and per-processor enclosing-rectangle bounds.
//!
//! All of these update in `O(1)` per [`NPartition::set`] (the shrink sweep
//! is amortized by the word width), which is what lets the Push engine
//! evaluate the legality (ΔVoC) of a candidate push cheaply and roll it
//! back if illegal.
//!
//! [`Partition`] is the three-processor facade: a `k = 3` store read and
//! written through [`Proc`]-typed accessors, with plane id = [`Proc::q`].
//! Because the Zobrist key schedule is `mix64(idx * k + plane)` and
//! `R = 0`, `S = 1`, `P = 2`, a `Partition`'s state hash is exactly the
//! hash of the paper's `q` encoding, whichever type reads it.
//!
//! ## Word layout
//!
//! For a plane line of `n` bits, `words_per_line = ceil(n / 64)`. Bit `v`
//! of line `u` of plane `p` lives in word `(p * n + u) * words_per_line +
//! v / 64` at bit position `v % 64` (LSB-first). The tail word of each line
//! keeps its unused high bits at zero — [`NPartition::set`] never touches
//! them — so popcounts and word sweeps need no per-call tail masking.

use crate::bits::{full_line, next_occupied, prev_occupied};
use crate::proc_::Proc;
use crate::rect::Rect;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// A processor id the grid store can be read and written with: a `u8`
/// plane id for `k` processors, or a [`Proc`] for the three-processor
/// facade (plane id = [`Proc::q`]).
pub trait PlaneId: Copy + Eq {
    /// The store's plane id.
    fn plane(self) -> u8;
    /// The processor behind plane id `plane`.
    fn from_plane(plane: u8) -> Self;
}

impl PlaneId for u8 {
    #[inline]
    fn plane(self) -> u8 {
        self
    }
    #[inline]
    fn from_plane(plane: u8) -> u8 {
        plane
    }
}

impl PlaneId for Proc {
    #[inline]
    fn plane(self) -> u8 {
        self.q()
    }
    #[inline]
    fn from_plane(plane: u8) -> Proc {
        Proc::from_q(plane)
    }
}

/// The per-axis half of the store: everything about rows (or, transposed,
/// columns). Row `u` / element `v` of the row axis is cell `(u, v)`; of the
/// column axis, cell `(v, u)`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
struct Lines {
    /// Bit-planes, plane-major: bit `v % 64` of word
    /// `(p * n + u) * words + v / 64` is set iff element `v` of line `u`
    /// belongs to plane `p`.
    bits: Vec<u64>,
    /// Occupied-line mask per plane (`words` words each): bit `u` of plane
    /// `p`'s mask is set iff `count[p * n + u] > 0`.
    occ: Vec<u64>,
    /// `count[p * n + u]`: elements of plane `p` in line `u`.
    count: Vec<u32>,
    /// Distinct planes per line: the paper's `c_i` (rows) or `c_j`
    /// (columns).
    procs: Vec<u8>,
}

impl Lines {
    /// Every line wholly owned by `fill`.
    fn filled(n: usize, k: usize, fill: usize) -> Lines {
        let words = n.div_ceil(64);
        let line = full_line(n);
        let mut bits = vec![0u64; k * n * words];
        for u in 0..n {
            bits[(fill * n + u) * words..][..words].copy_from_slice(&line);
        }
        let mut occ = vec![0u64; k * words];
        occ[fill * words..][..words].copy_from_slice(&line);
        let mut count = vec![0u32; k * n];
        count[fill * n..][..n].fill(n as u32);
        Lines {
            bits,
            occ,
            count,
            procs: vec![1; n],
        }
    }

    /// Move element `v` of line `u` from plane `old` to plane `new`,
    /// keeping `voc_units` in step. The gaining plane's transition is
    /// applied first, so `voc_units` never dips below its final value (at
    /// `n = 1` the losing side alone would take it below zero). Returns
    /// whether `old` left the line.
    #[inline(always)]
    fn transfer(
        &mut self,
        voc_units: &mut u64,
        words: usize,
        (u, v): (usize, usize),
        (old, new): (PlaneAt, PlaneAt),
    ) -> bool {
        let (bit_word, bit) = (u * words + v / 64, 1u64 << (v % 64));
        self.bits[old.bits + bit_word] &= !bit;
        self.bits[new.bits + bit_word] |= bit;
        let (occ_word, occ_bit) = (u / 64, 1u64 << (u % 64));
        let gained = &mut self.count[new.count + u];
        if *gained == 0 {
            self.procs[u] += 1;
            *voc_units += 1;
            self.occ[new.occ + occ_word] |= occ_bit;
        }
        *gained += 1;
        let lost = &mut self.count[old.count + u];
        *lost -= 1;
        let emptied = *lost == 0;
        if emptied {
            self.procs[u] -= 1;
            *voc_units -= 1;
            self.occ[old.occ + occ_word] &= !occ_bit;
        }
        emptied
    }

    /// Occupied-line mask of the plane at `at`.
    #[inline]
    fn occ_of(&self, at: PlaneAt, words: usize) -> &[u64] {
        &self.occ[at.occ..at.occ + words]
    }

    /// Recompute this axis from the reference `owner(u, v)` and panic on
    /// any drift: every plane bit (so each element is claimed by exactly
    /// its owner's plane), tail bits of plane lines and occupancy masks,
    /// counts, occupancy, and distinct-owner counts. Returns the axis's
    /// share of `voc_units`.
    #[allow(clippy::needless_range_loop)] // index math mirrors the derivation being checked
    fn assert_matches(
        &self,
        axis: &str,
        (n, k, words): (usize, usize, usize),
        owner: impl Fn(usize, usize) -> usize,
    ) -> u64 {
        let mut count = vec![0u32; k * n];
        for u in 0..n {
            for v in 0..n {
                let p = owner(u, v);
                count[p * n + u] += 1;
                for q in 0..k {
                    let has = (self.bits[(q * n + u) * words + v / 64] >> (v % 64)) & 1 == 1;
                    assert_eq!(
                        has,
                        q == p,
                        "{axis} plane {q} disagrees at line {u}, element {v}"
                    );
                }
            }
        }
        let tail = n % 64;
        if tail != 0 {
            let junk = !((1u64 << tail) - 1);
            for q in 0..k {
                for u in 0..n {
                    assert_eq!(
                        self.bits[(q * n + u + 1) * words - 1] & junk,
                        0,
                        "{axis} plane tail junk (plane {q}, line {u})"
                    );
                }
                assert_eq!(
                    self.occ[(q + 1) * words - 1] & junk,
                    0,
                    "{axis} occ tail junk"
                );
            }
        }
        assert_eq!(count, self.count, "{axis} count drift");
        let mut units = 0u64;
        for u in 0..n {
            for q in 0..k {
                let bit = (self.occ[q * words + u / 64] >> (u % 64)) & 1 == 1;
                assert_eq!(bit, count[q * n + u] > 0, "{axis} occ drift at line {u}");
            }
            let c = (0..k).filter(|&q| count[q * n + u] > 0).count() as u8;
            assert_eq!(c, self.procs[u], "{axis} procs drift at line {u}");
            units += u64::from(c) - 1;
        }
        units
    }
}

/// Where one plane's data starts in a [`Lines`]' arrays (the same for
/// both axes).
#[derive(Clone, Copy)]
struct PlaneAt {
    bits: usize,
    count: usize,
    occ: usize,
}

/// A partition of an `n x n` matrix among `k` processors, identified by
/// plane ids `0..k`.
///
/// See the [module documentation](self) for the maintained invariants.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NPartition {
    n: usize,
    k: usize,
    /// `ceil(n / 64)`: `u64` words per plane line.
    words: usize,
    /// `n * words`: words per plane, the distance between two planes'
    /// copies of one line word.
    stride: usize,
    /// Row axis: cell `(i, j)` is element `j` of line `i`.
    rows: Lines,
    /// Column axis (transposed): cell `(i, j)` is element `i` of line `j`.
    cols: Lines,
    /// `Σ_i (c_i - 1) + Σ_j (c_j - 1)`; `VoC = n * voc_units`.
    voc_units: u64,
    /// `∈p` per plane.
    elems: Vec<usize>,
    /// Zobrist-style state hash, maintained incrementally: XOR of a mixed
    /// key per `(cell, owner)` pair. Lets the Push search detect revisited
    /// states (VoC-neutral cycles) in `O(1)`. The key schedule
    /// (`mix64(idx * k + plane)` over row-major `idx`) is independent of
    /// the plane storage, so hashes are stable across representation
    /// changes.
    zobrist: u64,
    /// Per-plane enclosing-rectangle bounds, maintained incrementally in
    /// [`NPartition::set`] like the Zobrist hash, making
    /// [`NPartition::enclosing_rect`] an `O(1)` read. Canonical: exactly the
    /// bounding box while the plane owns any element, and
    /// [`Bounds::EMPTY`] otherwise, so the derived `Eq`/serde stay
    /// content-addressed regardless of mutation history.
    bounds: Vec<Bounds>,
}

/// Incrementally maintained bounding box of one processor's cells
/// (inclusive on all four sides).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
struct Bounds {
    top: usize,
    bottom: usize,
    left: usize,
    right: usize,
}

impl Bounds {
    /// Canonical "no elements" value; recognizable by `top > bottom`, and
    /// chosen so that [`Bounds::expand`] from empty yields the single-cell
    /// box directly.
    const EMPTY: Bounds = Bounds {
        top: usize::MAX,
        bottom: 0,
        left: usize::MAX,
        right: 0,
    };

    #[inline]
    fn expand(&mut self, i: usize, j: usize) {
        self.top = self.top.min(i);
        self.bottom = self.bottom.max(i);
        self.left = self.left.min(j);
        self.right = self.right.max(j);
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixer used to derive the
/// per-(cell, owner) Zobrist keys without storing a table.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl NPartition {
    /// All cells assigned to processor 0 (the fastest), as in the paper's
    /// random start procedure.
    pub fn new(n: usize, k: usize) -> NPartition {
        NPartition::filled(n, k, 0)
    }

    /// A `k`-processor partition with every element assigned to `fill`.
    fn filled(n: usize, k: usize, fill: u8) -> NPartition {
        assert!(n > 0, "matrix size must be positive");
        assert!((2..=64).contains(&k), "2..=64 processors supported");
        let fill_p = usize::from(fill);
        assert!(
            fill_p < k,
            "fill plane {fill} out of range for {k} processors"
        );
        let mut elems = vec![0usize; k];
        elems[fill_p] = n * n;
        let mut zobrist = 0u64;
        for idx in 0..(n * n) as u64 {
            zobrist ^= mix64(idx * k as u64 + u64::from(fill));
        }
        let mut bounds = vec![Bounds::EMPTY; k];
        bounds[fill_p] = Bounds {
            top: 0,
            bottom: n - 1,
            left: 0,
            right: n - 1,
        };
        NPartition {
            n,
            k,
            words: n.div_ceil(64),
            stride: n * n.div_ceil(64),
            rows: Lines::filled(n, k, fill_p),
            cols: Lines::filled(n, k, fill_p),
            voc_units: 0,
            elems,
            zobrist,
            bounds,
        }
    }

    /// Matrix dimension `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of processors.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// `ceil(n / 64)`: how many `u64` words make up one plane line.
    #[inline]
    pub fn words_per_line(&self) -> usize {
        self.words
    }

    /// Word `w` of plane `proc`'s row line `i`: bit `b` is set iff cell
    /// `(i, w * 64 + b)` belongs to `proc`.
    #[inline]
    pub fn row_plane_word(&self, proc: u8, i: usize, w: usize) -> u64 {
        self.rows.bits[usize::from(proc) * self.stride + i * self.words + w]
    }

    /// Word `w` of plane `proc`'s column line `j`: bit `b` is set iff cell
    /// `(w * 64 + b, j)` belongs to `proc`.
    #[inline]
    pub fn col_plane_word(&self, proc: u8, j: usize, w: usize) -> u64 {
        self.cols.bits[usize::from(proc) * self.stride + j * self.words + w]
    }

    /// Owner of cell `(i, j)`: an `O(k)` probe of the row planes. Every
    /// cell is owned by exactly one plane, so a miss on the first `k - 1`
    /// planes means the last one.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u8 {
        // A constant `k` unrolls the probe; three processors is the paper's
        // case and the `Partition` facade's.
        match self.k {
            3 => self.owner(i, j, 3),
            k => self.owner(i, j, k),
        }
    }

    /// [`NPartition::get`] for a store of `k` planes: the first plane
    /// whose row word has the cell's bit, the last plane if none of the
    /// others has it.
    #[inline(always)]
    fn owner(&self, i: usize, j: usize, k: usize) -> u8 {
        debug_assert!(i < self.n && j < self.n && k == self.k);
        let bit = 1u64 << (j % 64);
        let stride = self.stride;
        let at = i * self.words + j / 64;
        for p in 0..k - 1 {
            if self.rows.bits[at + p * stride] & bit != 0 {
                return p as u8;
            }
        }
        debug_assert!(
            self.rows.bits[at + (k - 1) * stride] & bit != 0,
            "cell ({i}, {j}) owned by nobody"
        );
        (k - 1) as u8
    }

    /// Offsets of plane `p` in either axis's arrays.
    #[inline(always)]
    fn plane_at(&self, p: usize) -> PlaneAt {
        PlaneAt {
            bits: p * self.stride,
            count: p * self.n,
            occ: p * self.words,
        }
    }

    /// Reassign cell `(i, j)` to `proc`, returning the previous owner.
    ///
    /// Updates every derived count in `O(1)` (plus an amortized word-wise
    /// boundary sweep when a boundary line of the losing processor empties).
    pub fn set(&mut self, i: usize, j: usize, proc: u8) -> u8 {
        let old = self.get(i, j);
        if old != proc {
            self.reassign(i, j, old, proc);
        }
        old
    }

    /// Move cell `(i, j)` from its owner `old` to `proc != old`.
    #[inline(always)]
    fn reassign(&mut self, i: usize, j: usize, old: u8, proc: u8) {
        debug_assert!(usize::from(proc) < self.k, "plane {proc} out of range");
        debug_assert_eq!(self.get(i, j), old);
        let (o, p) = (usize::from(old), usize::from(proc));
        let planes = (self.plane_at(o), self.plane_at(p));
        let row_emptied = self
            .rows
            .transfer(&mut self.voc_units, self.words, (i, j), planes);
        let col_emptied = self
            .cols
            .transfer(&mut self.voc_units, self.words, (j, i), planes);
        self.elems[o] -= 1;
        self.elems[p] += 1;
        let key = ((i * self.n + j) * self.k) as u64;
        self.zobrist ^= mix64(key + u64::from(old)) ^ mix64(key + u64::from(proc));

        // Enclosing-rectangle bookkeeping. The gaining processor expands in
        // O(1); the losing processor shrinks by sweeping its occupied-line
        // mask inward from a boundary line that just emptied — only then,
        // word-wise, and never past the opposite edge (some line is nonzero
        // while the processor owns elements).
        self.bounds[p].expand(i, j);
        let mut scans = 0u64;
        if self.elems[o] == 0 {
            self.bounds[o] = Bounds::EMPTY;
        } else {
            let b = &mut self.bounds[o];
            if row_emptied {
                let occ = self.rows.occ_of(planes.0, self.words);
                if i == b.top {
                    let (t, s) = next_occupied(occ, b.top);
                    b.top = t;
                    scans += s;
                }
                if i == b.bottom {
                    let (t, s) = prev_occupied(occ, b.bottom);
                    b.bottom = t;
                    scans += s;
                }
            }
            if col_emptied {
                let occ = self.cols.occ_of(planes.0, self.words);
                if j == b.left {
                    let (l, s) = next_occupied(occ, b.left);
                    b.left = l;
                    scans += s;
                }
                if j == b.right {
                    let (l, s) = prev_occupied(occ, b.right);
                    b.right = l;
                    scans += s;
                }
            }
        }
        if scans != 0 && hetmmm_obs::metrics_enabled() {
            hetmmm_obs::metrics()
                .counter(hetmmm_obs::metrics::names::GRID_SHRINK_WORD_SCANS)
                .add(scans);
        }
    }

    /// Swap the assignments of two cells. A no-op if they match.
    pub fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        let pa = self.get(a.0, a.1);
        let pb = self.get(b.0, b.1);
        if pa != pb {
            self.reassign(a.0, a.1, pa, pb);
            self.reassign(b.0, b.1, pb, pa);
        }
    }

    /// `∈p`: the number of elements assigned to `proc`.
    #[inline]
    pub fn elems(&self, proc: u8) -> usize {
        self.elems[usize::from(proc)]
    }

    /// Elements of `proc` in row `i`.
    #[inline]
    pub fn row_count(&self, proc: u8, i: usize) -> u32 {
        self.rows.count[usize::from(proc) * self.n + i]
    }

    /// Elements of `proc` in column `j`.
    #[inline]
    pub fn col_count(&self, proc: u8, j: usize) -> u32 {
        self.cols.count[usize::from(proc) * self.n + j]
    }

    /// The paper's `row(q, i, X)` predicate: does row `i` contain any element
    /// of `proc`? (Section VI-B.)
    #[inline]
    pub fn row_has(&self, proc: u8, i: usize) -> bool {
        self.row_count(proc, i) > 0
    }

    /// The paper's `col(q, j, X)` predicate.
    #[inline]
    pub fn col_has(&self, proc: u8, j: usize) -> bool {
        self.col_count(proc, j) > 0
    }

    /// `c_i`: number of distinct processors owning elements in row `i`.
    #[inline]
    pub fn procs_in_row(&self, i: usize) -> u8 {
        self.rows.procs[i]
    }

    /// `c_j`: number of distinct processors owning elements in column `j`.
    #[inline]
    pub fn procs_in_col(&self, j: usize) -> u8 {
        self.cols.procs[j]
    }

    /// Popcount of an occupied-line mask, counted in `grid.popcount.words`.
    fn occupied(&self, lines: &Lines, proc: u8) -> usize {
        let _span = hetmmm_obs::fine_span("partition.occupancy");
        let mask = lines.occ_of(self.plane_at(usize::from(proc)), self.words);
        if hetmmm_obs::metrics_enabled() {
            hetmmm_obs::metrics()
                .counter(hetmmm_obs::metrics::names::GRID_POPCOUNT_WORDS)
                .add(mask.len() as u64);
        }
        mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `i_X`: the number of rows containing elements of `proc`
    /// (used by the PCB model, Eq. 6). A popcount over the occupied-row
    /// mask: `ceil(n / 64)` words instead of `n` counter loads.
    pub fn rows_occupied(&self, proc: u8) -> usize {
        self.occupied(&self.rows, proc)
    }

    /// `j_X`: the number of columns containing elements of `proc`.
    pub fn cols_occupied(&self, proc: u8) -> usize {
        self.occupied(&self.cols, proc)
    }

    /// `Σ_i (c_i - 1) + Σ_j (c_j - 1)`, the volume of communication in units
    /// of "lines": `VoC = N * voc_units()` (Eq. 1).
    #[inline]
    pub fn voc_units(&self) -> u64 {
        self.voc_units
    }

    /// The paper's Eq. 1 volume of communication, in elements.
    #[inline]
    pub fn voc(&self) -> u64 {
        self.n as u64 * self.voc_units
    }

    /// A 64-bit hash of the full assignment, maintained incrementally
    /// (Zobrist hashing). Equal partitions always hash equal; the Push
    /// search uses it to detect revisited states in VoC-neutral push cycles.
    #[inline]
    pub fn state_hash(&self) -> u64 {
        self.zobrist
    }

    /// The enclosing rectangle of `proc` (Fig. 4), or `None` if the processor
    /// owns no elements. `O(1)` read of the incrementally maintained bounds.
    pub fn enclosing_rect(&self, proc: u8) -> Option<Rect> {
        let _span = hetmmm_obs::fine_span("partition.enclosing_rect");
        let b = self.bounds[usize::from(proc)];
        if b.top > b.bottom {
            return None;
        }
        Some(Rect::new(b.top, b.bottom, b.left, b.right))
    }

    /// Iterate over the cells assigned to `proc`, row-major (word-wise
    /// bit extraction, LSB first, so the order matches a per-cell scan
    /// exactly — seeded shuffles over this order are stable).
    pub fn cells_of(&self, proc: u8) -> impl Iterator<Item = (usize, usize)> + '_ {
        let words = self.words;
        let plane = &self.rows.bits[usize::from(proc) * self.stride..][..self.stride];
        (0..self.n).flat_map(move |i| {
            (0..words).flat_map(move |w| {
                let mut m = plane[i * words + w];
                std::iter::from_fn(move || {
                    if m == 0 {
                        return None;
                    }
                    let b = m.trailing_zeros() as usize;
                    m &= m - 1;
                    Some((i, w * 64 + b))
                })
            })
        })
    }

    /// Assign every cell of `rect` to `proc`.
    pub fn fill_rect(&mut self, rect: Rect, proc: u8) {
        assert!(
            rect.bottom < self.n && rect.right < self.n,
            "rect out of bounds"
        );
        for (i, j) in rect.cells() {
            self.set(i, j, proc);
        }
    }

    /// Does `proc` exactly fill its enclosing rectangle? (A *rectangular*
    /// processor in the strict sense.)
    pub fn is_exact_rect(&self, proc: u8) -> bool {
        match self.enclosing_rect(proc) {
            None => false,
            Some(rect) => rect.area() == self.elems(proc),
        }
    }

    /// Fully recompute every derived quantity from the raw bit-planes and
    /// panic on any mismatch, including plane mutual-exclusion/coverage, the
    /// transposed column planes, occupied-line masks, and tail-bit hygiene.
    /// Test/debug aid; `O(k N²)`.
    pub fn assert_invariants(&self) {
        let (n, k, words) = (self.n, self.k, self.words);
        assert_eq!(words, n.div_ceil(64), "words_per_line drift");
        assert_eq!(self.stride, n * words, "plane stride drift");
        // Reconstruct the ownership map from the row planes, checking that
        // exactly one plane claims each cell.
        let mut cells = vec![0u8; n * n];
        for i in 0..n {
            for j in 0..n {
                let owners: Vec<u8> = (0..k as u8)
                    .filter(|&p| (self.row_plane_word(p, i, j / 64) >> (j % 64)) & 1 == 1)
                    .collect();
                assert_eq!(owners.len(), 1, "cell ({i}, {j}) claimed by {owners:?}");
                cells[i * n + j] = owners[0];
            }
        }
        let owner = |i: usize, j: usize| usize::from(cells[i * n + j]);
        let units = self.rows.assert_matches("row", (n, k, words), owner)
            + self
                .cols
                .assert_matches("col", (n, k, words), |j, i| owner(i, j));
        assert_eq!(units, self.voc_units, "voc_units drift");
        let mut elems = vec![0usize; k];
        let mut zobrist = 0u64;
        let mut bounds = vec![Bounds::EMPTY; k];
        for (idx, &p) in cells.iter().enumerate() {
            elems[usize::from(p)] += 1;
            zobrist ^= mix64((idx * k) as u64 + u64::from(p));
            bounds[usize::from(p)].expand(idx / n, idx % n);
        }
        assert_eq!(elems, self.elems, "elems drift");
        assert_eq!(zobrist, self.zobrist, "zobrist drift");
        assert_eq!(bounds, self.bounds, "enclosing-rect bounds drift");
    }
}

/// A partition of an `n x n` matrix among processors `R`, `S`, `P`: a
/// `k = 3` [`NPartition`] read and written through [`Proc`]-typed
/// accessors, with plane id = [`Proc::q`].
///
/// Derefs to the store for every processor-independent read (`n`, `voc`,
/// `voc_units`, `state_hash`, `procs_in_row`, `assert_invariants`, ...).
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    grid: NPartition,
}

impl Deref for Partition {
    type Target = NPartition;

    #[inline]
    fn deref(&self) -> &NPartition {
        &self.grid
    }
}

impl Partition {
    /// A partition with every element assigned to `fill`.
    ///
    /// The paper's random `q0` generator starts from an all-`P` matrix
    /// (Section VI-A-2).
    pub fn new(n: usize, fill: Proc) -> Partition {
        Partition {
            grid: NPartition::filled(n, 3, fill.q()),
        }
    }

    /// Build a partition by evaluating `f(i, j)` for every cell.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> Proc) -> Partition {
        let mut part = Partition::new(n, Proc::P);
        for i in 0..n {
            for j in 0..n {
                part.set(i, j, f(i, j));
            }
        }
        part
    }

    /// The underlying store, for code written against plane ids (the push
    /// views). Any plane id it accepts names a [`Proc`], so writes through
    /// it keep the facade valid.
    #[inline]
    pub fn grid_mut(&mut self) -> &mut NPartition {
        &mut self.grid
    }

    /// Word `w` of processor `proc`'s row-plane line `i`: bit `b` is set
    /// iff `q(i, w * 64 + b) = proc`.
    #[inline]
    pub fn row_plane_word(&self, proc: Proc, i: usize, w: usize) -> u64 {
        self.grid.row_plane_word(proc.q(), i, w)
    }

    /// Word `w` of processor `proc`'s column-plane line `j`: bit `b` is set
    /// iff `q(w * 64 + b, j) = proc`.
    #[inline]
    pub fn col_plane_word(&self, proc: Proc, j: usize, w: usize) -> u64 {
        self.grid.col_plane_word(proc.q(), j, w)
    }

    /// The processor assigned to cell `(i, j)`: two plane-word probes.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Proc {
        Proc::from_plane(self.grid.owner(i, j, 3))
    }

    /// Reassign cell `(i, j)` to `proc`, returning the previous owner.
    /// See [`NPartition::set`].
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, proc: Proc) -> Proc {
        Proc::from_plane(self.grid.set(i, j, proc.q()))
    }

    /// Swap the assignments of two cells. A no-op if they match.
    #[inline]
    pub fn swap(&mut self, a: (usize, usize), b: (usize, usize)) {
        self.grid.swap(a, b);
    }

    /// `∈X`: the number of elements assigned to `proc`.
    #[inline]
    pub fn elems(&self, proc: Proc) -> usize {
        self.grid.elems(proc.q())
    }

    /// Elements of `proc` in row `i`.
    #[inline]
    pub fn row_count(&self, proc: Proc, i: usize) -> u32 {
        self.grid.row_count(proc.q(), i)
    }

    /// Elements of `proc` in column `j`.
    #[inline]
    pub fn col_count(&self, proc: Proc, j: usize) -> u32 {
        self.grid.col_count(proc.q(), j)
    }

    /// The paper's `row(q, i, X)` predicate (Section VI-B).
    #[inline]
    pub fn row_has(&self, proc: Proc, i: usize) -> bool {
        self.grid.row_has(proc.q(), i)
    }

    /// The paper's `col(q, j, X)` predicate.
    #[inline]
    pub fn col_has(&self, proc: Proc, j: usize) -> bool {
        self.grid.col_has(proc.q(), j)
    }

    /// `i_X`: the number of rows containing elements of `proc` (Eq. 6).
    pub fn rows_occupied(&self, proc: Proc) -> usize {
        self.grid.rows_occupied(proc.q())
    }

    /// `j_X`: the number of columns containing elements of `proc`.
    pub fn cols_occupied(&self, proc: Proc) -> usize {
        self.grid.cols_occupied(proc.q())
    }

    /// The enclosing rectangle of `proc` (Fig. 4), or `None` if the
    /// processor owns no elements.
    pub fn enclosing_rect(&self, proc: Proc) -> Option<Rect> {
        self.grid.enclosing_rect(proc.q())
    }

    /// Iterate over the cells assigned to `proc`, row-major.
    pub fn cells_of(&self, proc: Proc) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.grid.cells_of(proc.q())
    }

    /// Assign every cell of `rect` to `proc`.
    pub fn fill_rect(&mut self, rect: Rect, proc: Proc) {
        self.grid.fill_rect(rect, proc.q());
    }

    /// Does `proc` exactly fill its enclosing rectangle?
    pub fn is_exact_rect(&self, proc: Proc) -> bool {
        self.grid.is_exact_rect(proc.q())
    }
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Partition(n={}, voc={}, elems R={} S={} P={})",
            self.n(),
            self.voc(),
            self.elems(Proc::R),
            self.elems(Proc::S),
            self.elems(Proc::P),
        )?;
        if self.n() <= 64 {
            for i in 0..self.n() {
                for j in 0..self.n() {
                    write!(f, "{}", self.get(i, j).letter())?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn new_is_uniform() {
        let p = Partition::new(8, Proc::P);
        assert_eq!(p.elems(Proc::P), 64);
        assert_eq!(p.elems(Proc::R), 0);
        assert_eq!(p.voc(), 0);
        assert_eq!(p.enclosing_rect(Proc::P), Some(Rect::new(0, 7, 0, 7)));
        assert_eq!(p.enclosing_rect(Proc::R), None);
        p.assert_invariants();
    }

    #[test]
    fn new_is_all_proc_zero() {
        let part = NPartition::new(8, 4);
        assert_eq!(part.elems(0), 64);
        assert_eq!(part.voc(), 0);
        part.assert_invariants();
    }

    #[test]
    fn set_updates_counts_and_voc() {
        let mut p = Partition::new(4, Proc::P);
        p.set(1, 2, Proc::R);
        // Row 1 and column 2 now have two processors each: +2 line units.
        assert_eq!(p.voc_units(), 2);
        assert_eq!(p.voc(), 8);
        assert_eq!(p.elems(Proc::R), 1);
        assert_eq!(p.procs_in_row(1), 2);
        assert_eq!(p.procs_in_col(2), 2);
        p.assert_invariants();

        // Setting back restores everything.
        p.set(1, 2, Proc::P);
        assert_eq!(p.voc(), 0);
        assert_eq!(p.elems(Proc::R), 0);
        p.assert_invariants();
    }

    #[test]
    fn set_updates_counts_for_many_procs() {
        let mut part = NPartition::new(6, 5);
        part.set(0, 0, 1);
        part.set(0, 1, 2);
        part.set(0, 2, 3);
        part.set(0, 3, 4);
        // Row 0 now hosts 5 distinct processors: +4 row units; each column
        // touched hosts 2: +1 each.
        assert_eq!(part.voc_units(), 4 + 4);
        assert_eq!(part.procs_in_row(0), 5);
        part.assert_invariants();
    }

    #[test]
    fn three_procs_in_one_row() {
        let mut p = Partition::new(3, Proc::P);
        p.set(0, 0, Proc::R);
        p.set(0, 1, Proc::S);
        assert_eq!(p.procs_in_row(0), 3);
        // Row 0 contributes 2 units; columns 0 and 1 contribute 1 each.
        assert_eq!(p.voc_units(), 4);
        p.assert_invariants();
    }

    #[test]
    fn k3_matches_three_proc_voc_semantics() {
        // Strips across 3 procs: the same VoC and hash as the facade.
        let n = 9;
        let mut part = NPartition::new(n, 3);
        let mut facade = Partition::new(n, Proc::R);
        for i in 3..9 {
            for j in 0..n {
                let p = if i < 6 { 1 } else { 2 };
                part.set(i, j, p);
                facade.set(i, j, Proc::from_q(p));
            }
        }
        assert_eq!(part.voc(), (n * n * 2) as u64);
        assert_eq!(&part, &*facade);
        assert_eq!(part.state_hash(), facade.state_hash());
    }

    #[test]
    fn swap_preserves_elem_counts() {
        let mut p = Partition::new(5, Proc::P);
        p.set(0, 0, Proc::R);
        p.set(4, 4, Proc::S);
        let before = [p.elems(Proc::R), p.elems(Proc::S), p.elems(Proc::P)];
        p.swap((0, 0), (4, 4));
        let after = [p.elems(Proc::R), p.elems(Proc::S), p.elems(Proc::P)];
        assert_eq!(before, after);
        assert_eq!(p.get(0, 0), Proc::S);
        assert_eq!(p.get(4, 4), Proc::R);
        p.assert_invariants();
    }

    #[test]
    fn swap_same_proc_is_noop() {
        let mut p = Partition::new(3, Proc::P);
        let before = p.clone();
        p.swap((0, 0), (2, 2));
        assert_eq!(p, before);
    }

    #[test]
    fn enclosing_rect_tracks_extremes() {
        let mut p = Partition::new(10, Proc::P);
        p.set(2, 3, Proc::R);
        p.set(7, 5, Proc::R);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(2, 7, 3, 5)));
        p.set(2, 3, Proc::P);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(7, 7, 5, 5)));
    }

    #[test]
    fn fill_rect_and_exact_rect() {
        let mut p = Partition::new(8, Proc::P);
        p.fill_rect(Rect::new(2, 4, 1, 3), Proc::R);
        assert!(p.is_exact_rect(Proc::R));
        assert_eq!(p.elems(Proc::R), 9);
        p.set(2, 1, Proc::S);
        assert!(!p.is_exact_rect(Proc::R));
        p.assert_invariants();
    }

    #[test]
    fn rows_cols_occupied() {
        let mut p = Partition::new(6, Proc::P);
        p.fill_rect(Rect::new(0, 2, 0, 1), Proc::S);
        assert_eq!(p.rows_occupied(Proc::S), 3);
        assert_eq!(p.cols_occupied(Proc::S), 2);
        assert_eq!(p.rows_occupied(Proc::P), 6);
        assert_eq!(p.cols_occupied(Proc::P), 6);
    }

    #[test]
    fn voc_matches_eq1_definition() {
        // Traditional three horizontal strips: every column has 3 procs,
        // every row exactly 1. VoC = N * N * 2 (columns only).
        let n = 9;
        let p = Partition::from_fn(n, |i, _| {
            if i < 3 {
                Proc::P
            } else if i < 6 {
                Proc::R
            } else {
                Proc::S
            }
        });
        assert_eq!(p.voc(), (n * n * 2) as u64);
        p.assert_invariants();
    }

    #[test]
    fn from_fn_matches_get() {
        let p = Partition::from_fn(5, |i, j| if (i + j) % 2 == 0 { Proc::R } else { Proc::S });
        for i in 0..5 {
            for j in 0..5 {
                let want = if (i + j) % 2 == 0 { Proc::R } else { Proc::S };
                assert_eq!(p.get(i, j), want);
            }
        }
    }

    #[test]
    fn random_respects_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let part = NPartition::random(40, &[8, 4, 2, 1, 1], &mut rng);
        let total = 1600usize;
        assert_eq!(part.elems(1), total * 4 / 16);
        assert_eq!(part.elems(2), total * 2 / 16);
        assert_eq!(part.elems(3), total / 16);
        assert_eq!(part.elems(4), total / 16);
        assert_eq!(
            part.elems(0),
            total - part.elems(1) - part.elems(2) - part.elems(3) - part.elems(4)
        );
        part.assert_invariants();
    }

    #[test]
    fn bounds_shrink_through_interior_and_edge_removals() {
        let mut p = Partition::new(12, Proc::P);
        p.fill_rect(Rect::new(2, 9, 3, 8), Proc::R);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(2, 9, 3, 8)));
        // Empty the top boundary row: top must skip past it.
        for j in 3..=8 {
            p.set(2, j, Proc::P);
        }
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(3, 9, 3, 8)));
        // Empty two boundary columns in one go (left edge 3 then 4).
        for i in 3..=9 {
            p.set(i, 3, Proc::P);
            p.set(i, 4, Proc::P);
        }
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(3, 9, 5, 8)));
        // Interior removals never move the box.
        p.set(5, 6, Proc::S);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(3, 9, 5, 8)));
        // Remove everything: back to None, and re-adding restarts cleanly.
        for (i, j) in Rect::new(3, 9, 5, 8).cells() {
            p.set(i, j, Proc::P);
        }
        assert_eq!(p.enclosing_rect(Proc::R), None);
        p.set(11, 0, Proc::R);
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(11, 11, 0, 0)));
        p.assert_invariants();
    }

    /// The enclosing rectangle of plane `q`, rescanned from the line
    /// predicates.
    fn scan_rect(part: &NPartition, q: u8) -> Option<Rect> {
        let n = part.n();
        let rows: Vec<usize> = (0..n).filter(|&i| part.row_has(q, i)).collect();
        let cols: Vec<usize> = (0..n).filter(|&j| part.col_has(q, j)).collect();
        match (rows.first(), rows.last(), cols.first(), cols.last()) {
            (Some(&t), Some(&b), Some(&l), Some(&r)) => Some(Rect::new(t, b, l, r)),
            _ => None,
        }
    }

    #[test]
    fn bounds_match_scan_recompute_on_random_set_sequences() {
        // Deterministic pseudo-random set() churn; after every mutation the
        // incremental bounds must equal a from-scratch scan.
        let n = 16;
        let mut p = Partition::new(n, Proc::P);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let r = next();
            let i = (r as usize >> 8) % n;
            let j = (r as usize >> 24) % n;
            let proc = Proc::from_q((r % 3) as u8);
            p.set(i, j, proc);
            for q in Proc::ALL {
                assert_eq!(p.enclosing_rect(q), scan_rect(&p, q.q()));
            }
        }
        p.assert_invariants();
    }

    #[test]
    fn bounds_track_random_set_churn() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 14;
        let k = 5u8;
        let mut part = NPartition::new(n, k as usize);
        for step in 0..1500u64 {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            let p = rng.random_range(0..k);
            part.set(i, j, p);
            for q in 0..k {
                assert_eq!(
                    part.enclosing_rect(q),
                    scan_rect(&part, q),
                    "owner {q} at step {step}"
                );
            }
        }
        part.assert_invariants();
    }

    #[test]
    fn state_hash_tracks_content_not_history() {
        let mut a = Partition::new(6, Proc::P);
        a.set(1, 1, Proc::R);
        a.set(2, 2, Proc::S);
        let mut b = Partition::new(6, Proc::P);
        b.set(2, 2, Proc::S);
        b.set(1, 1, Proc::R);
        assert_eq!(a.state_hash(), b.state_hash());
        a.set(1, 1, Proc::P);
        assert_ne!(a.state_hash(), b.state_hash());
        a.set(1, 1, Proc::R);
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn state_hash_content_addressed() {
        let mut a = NPartition::new(5, 4);
        let mut b = NPartition::new(5, 4);
        a.set(1, 2, 3);
        b.set(1, 2, 3);
        assert_eq!(a.state_hash(), b.state_hash());
        b.set(1, 2, 2);
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    #[should_panic(expected = "2..=64")]
    fn k_out_of_range_rejected() {
        let _ = NPartition::new(4, 1);
    }

    /// Reference implementation: a plain element→owner `Vec`, recomputed
    /// from scratch. The keep-alive oracle below pins the planes against
    /// it after arbitrary `set` churn.
    struct VecOracle {
        n: usize,
        cells: Vec<u8>,
    }

    impl VecOracle {
        fn rect(&self, q: u8) -> Option<Rect> {
            let mut b: Option<(usize, usize, usize, usize)> = None;
            for i in 0..self.n {
                for j in 0..self.n {
                    if self.cells[i * self.n + j] == q {
                        let e = b.get_or_insert((i, i, j, j));
                        e.0 = e.0.min(i);
                        e.1 = e.1.max(i);
                        e.2 = e.2.min(j);
                        e.3 = e.3.max(j);
                    }
                }
            }
            b.map(|(t, bo, l, r)| Rect::new(t, bo, l, r))
        }

        fn rows_occupied(&self, q: u8) -> usize {
            (0..self.n)
                .filter(|&i| (0..self.n).any(|j| self.cells[i * self.n + j] == q))
                .count()
        }

        fn cols_occupied(&self, q: u8) -> usize {
            (0..self.n)
                .filter(|&j| (0..self.n).any(|i| self.cells[i * self.n + j] == q))
                .count()
        }
    }

    /// Churn a `k = 3` facade from all-`P` (and, at `k = 5`, a bare store
    /// from all-0) with pseudo-random `set`s, then check every derived
    /// quantity against the Vec oracle.
    fn churn_against_oracle(n: usize, steps: usize, seed: u64) {
        let mut facade = Partition::new(n, Proc::P);
        let mut store = NPartition::new(n, 5);
        let mut oracles = [
            VecOracle {
                n,
                cells: vec![Proc::P.q(); n * n],
            },
            VecOracle {
                n,
                cells: vec![0; n * n],
            },
        ];
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..steps {
            let r = next();
            let i = (r as usize >> 8) % n;
            let j = (r as usize >> 24) % n;
            let proc = Proc::from_q((r % 3) as u8);
            facade.set(i, j, proc);
            oracles[0].cells[i * n + j] = proc.q();
            let plane = ((r >> 40) % 5) as u8;
            store.set(i, j, plane);
            oracles[1].cells[i * n + j] = plane;
        }
        for (grid, oracle) in [&*facade, &store].into_iter().zip(&oracles) {
            // Keep-alive ownership oracle: every cell, every derived quantity.
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(grid.get(i, j), oracle.cells[i * n + j], "({i}, {j})");
                }
            }
            for q in 0..grid.k() as u8 {
                assert_eq!(grid.enclosing_rect(q), oracle.rect(q));
                assert_eq!(grid.rows_occupied(q), oracle.rows_occupied(q));
                assert_eq!(grid.cols_occupied(q), oracle.cols_occupied(q));
                let got: Vec<(usize, usize)> = grid.cells_of(q).collect();
                let want: Vec<(usize, usize)> = (0..n * n)
                    .filter(|&idx| oracle.cells[idx] == q)
                    .map(|idx| (idx / n, idx % n))
                    .collect();
                assert_eq!(got, want, "cells_of order drift");
            }
            grid.assert_invariants();
        }
    }

    #[test]
    fn bitplanes_match_vec_oracle_after_random_churn() {
        churn_against_oracle(16, 3000, 0x9E37_79B9_7F4A_7C15);
    }

    #[test]
    fn tail_word_masking_n_not_multiple_of_64() {
        // n = 65 straddles a word boundary by one bit; n = 100 has a
        // 36-bit tail word. Both must behave identically to the oracle.
        churn_against_oracle(65, 4000, 0xDEAD_BEEF_CAFE_F00D);
        churn_against_oracle(100, 4000, 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn word_boundary_sizes_round_trip() {
        for n in [1, 2, 63, 64, 128] {
            churn_against_oracle(n, 500.min(n * n * 4), n as u64 + 1);
        }
    }

    #[test]
    fn single_row_and_single_column_partitions() {
        // One processor confined to a single row: rect is 1 line tall,
        // occupancy counts collapse to the line counts.
        let n = 70;
        let mut p = Partition::new(n, Proc::P);
        for j in 10..50 {
            p.set(3, j, Proc::R);
        }
        assert_eq!(p.enclosing_rect(Proc::R), Some(Rect::new(3, 3, 10, 49)));
        assert_eq!(p.rows_occupied(Proc::R), 1);
        assert_eq!(p.cols_occupied(Proc::R), 40);
        // And a single column crossing the word boundary at bit 64.
        for i in 60..n {
            p.set(i, 65, Proc::S);
        }
        assert_eq!(p.enclosing_rect(Proc::S), Some(Rect::new(60, 69, 65, 65)));
        assert_eq!(p.rows_occupied(Proc::S), 10);
        assert_eq!(p.cols_occupied(Proc::S), 1);
        p.assert_invariants();
    }

    #[test]
    fn plane_word_accessors_expose_the_documented_layout() {
        let n = 70;
        let mut p = Partition::new(n, Proc::P);
        p.set(2, 3, Proc::R);
        p.set(2, 67, Proc::R);
        assert_eq!(p.words_per_line(), 2);
        assert_eq!(p.row_plane_word(Proc::R, 2, 0), 1u64 << 3);
        assert_eq!(p.row_plane_word(Proc::R, 2, 1), 1u64 << 3); // bit 67 - 64
        assert_eq!(p.col_plane_word(Proc::R, 3, 0), 1u64 << 2);
        assert_eq!(p.col_plane_word(Proc::R, 67, 0), 1u64 << 2);
        // The P plane lost exactly those bits.
        assert_eq!(p.row_plane_word(Proc::P, 2, 0), !(1u64 << 3));
        let tail = (1u64 << (n - 64)) - 1;
        assert_eq!(p.row_plane_word(Proc::P, 2, 1), tail & !(1u64 << 3));
    }
}
