//! Phase 1 of a push, shared by the 3-processor and k-processor kernels:
//! the cleaned line, plus each displaced owner's interior targets, counted
//! word-wise and extracted only when the matcher reaches them.
//!
//! ## Buckets
//!
//! A push of the active processor X cleans canonical row `k = rect.top`.
//! Every interior cell `(g, h)` (`k < g <= rect.bottom`, `h` inside the
//! rect) owned by a displaced owner Y is a candidate target for Y, ranked
//! into bucket `cost * 2 + !cleans`:
//!
//! - `cost = row_dirty(g) + !col_ok(h)` — the lines of X that landing
//!   there would newly dirty (`row_dirty`: row `g` holds no X; `col_ok`:
//!   column `h` holds X outside row `k`);
//! - `cleans = row_cleans(g) || col_cleans(h)` — removing Y's element
//!   empties one of Y's lines.
//!
//! Y's target list is the six buckets concatenated, each in `(g, h)` order
//! and truncated to `cap = m + 64` (`m` = cleaned elements): the paper's
//! Type-1-first preference made operational.
//!
//! ## Frozen flags
//!
//! All four predicates are read once, from the grid as it stands when
//! [`Prepared::new`] runs: two flags per interior row, two masks per rect
//! column. Given a row's flags, bucket `b` of Y in that row is one AND of
//! Y's plane word with one of six column masks (`col_ok` or `!col_ok`,
//! times `col_cleans`, `!col_cleans` or all columns), or empty outright
//! ([`mask_sel`]). No per-cell classification remains.
//!
//! ## Counting
//!
//! The matcher only compares a demand `<= m` against each owner's target
//! count, so [`Prepared::avail`] saturates at `m`. Because every bucket
//! keeps at least `cap >= m` targets, the truncated list holds at least `m`
//! targets exactly when the owner has at least `m` interior cells, so one
//! masked `popcount` per word suffices, and the count sweep stops at the
//! first row where every owner has reached `m`.
//!
//! ## On-demand extraction
//!
//! [`Prepared::target`] extracts a whole bucket (up to `cap`) the first
//! time the cursor runs past the buckets already extracted, and keeps it
//! for the rest of the push: a failed attempt rolls back exactly, so the
//! next push type reuses it. Extraction reads plane words *during* an
//! attempt, after swaps. That reads the same bits as the pre-push grid:
//! each swap exchanges a cleaned-row cell (row `k`, outside every bucket)
//! with an already-popped target, and a popped target lies in an
//! already-extracted bucket of its owner. Under the frozen flags the six
//! bucket masks of one owner are disjoint, so the cell is outside every
//! bucket of that owner still to be extracted, and the swap never touches
//! another owner's plane bits. Read-only overlays answer plane words from
//! their base grid, which is the pre-push grid throughout.

use hetmmm_obs as obs;
use hetmmm_partition::Rect;

/// Grid reads the sweep needs, generic over the processor id type
/// (`Proc` for the 3-processor kernel, `u8` for the k-processor one).
/// Coordinates are canonical: the push cleans row `k` and moves "down".
pub trait SweepGrid<P: Copy> {
    /// Does canonical row `u` contain elements of `proc`?
    fn row_has(&self, proc: P, u: usize) -> bool;
    /// Elements of `proc` in canonical row `u`.
    fn row_count(&self, proc: P, u: usize) -> u32;
    /// Elements of `proc` in canonical column `v`.
    fn col_count(&self, proc: P, v: usize) -> u32;
    /// Word `w` of `proc`'s canonical-row-`u` bit-plane line: bit `b` is
    /// set iff canonical cell `(u, w * 64 + b)` belongs to `proc`.
    ///
    /// Read when a [`Prepared`] is built and again by every on-demand
    /// extraction, possibly mid-attempt. The contract: for each interior
    /// cell in a bucket not yet extracted, the bit must equal the pre-push
    /// grid's. A live grid meets it, since mid-attempt it differs from the
    /// pre-push grid only in row `k` and at popped targets (module docs);
    /// an overlay meets it by answering from its base grid.
    fn line_word(&self, proc: P, u: usize, w: usize) -> u64;
}

/// Buckets per owner.
const BUCKETS: u8 = 6;

/// Column-mask selectors per owner slot: `ok_sel * 3 + clean_sel`.
const SELS: usize = 6;

/// The column mask holding bucket `bucket`'s targets in a row with the
/// given frozen flags, as `ok_sel * 3 + clean_sel`. `ok_sel` 0 is `col_ok`
/// and 1 `!col_ok`; `clean_sel` 0 is `col_cleans`, 1 `!col_cleans` and 2
/// every column. `None` when no cell of the row can fall in the bucket.
fn mask_sel(bucket: u8, row_dirty: bool, row_cleans: bool) -> Option<usize> {
    let ok_sel = match (bucket / 2).checked_sub(u8::from(row_dirty))? {
        0 => 0,
        1 => 1,
        _ => return None,
    };
    let clean_sel = match (row_cleans, bucket % 2 == 0) {
        (true, true) => 2,
        (true, false) => return None,
        (false, true) => 0,
        (false, false) => 1,
    };
    Some(ok_sel * 3 + clean_sel)
}

/// Mask of the canonical columns `[left, right]` within word `w`.
fn rect_word(w: usize, left: usize, right: usize) -> u64 {
    let mut m = !0u64;
    if w == left / 64 {
        m &= !0u64 << (left % 64);
    }
    if w == right / 64 && right % 64 != 63 {
        m &= (1u64 << (right % 64 + 1)) - 1;
    }
    m
}

/// Add one sweep's work to the `push.prepare.*` counters.
fn record(words: u64, extracted: u64) {
    if obs::metrics_enabled() {
        let metrics = obs::metrics();
        metrics
            .counter(obs::metrics::names::PUSH_PREPARE_WORDS_SWEPT)
            .add(words);
        metrics
            .counter(obs::metrics::names::PUSH_PREPARE_TARGETS_EXTRACTED)
            .add(extracted);
    }
}

/// The type-independent part of a push attempt: the cleaned line and the
/// per-owner candidate targets. Built once per push and shared by every
/// push type (or mode) the kernel tries; targets are extracted on demand.
#[derive(Debug)]
pub struct Prepared<P> {
    /// Canonical index of the cleaned line (`rect.top`).
    k: usize,
    /// Canonical columns of the active processor's elements in that line,
    /// ascending.
    cleaned: Vec<usize>,
    /// Displaced owner per slot.
    owners: Vec<P>,
    /// First rect word; the column masks are indexed from it.
    w_lo: usize,
    /// Rect words per line.
    wn: usize,
    /// Targets kept per bucket.
    cap: usize,
    /// Frozen flags per interior row `g` (index `g - k - 1`): bit 0 — the
    /// active processor is absent from row `g`; bit `1 + slot` — that
    /// owner has exactly one element in row `g`.
    row_flags: Vec<u64>,
    /// Column masks, `SELS` per slot, rect-clipped:
    /// `masks[(slot * SELS + sel) * wn + w]` (see [`mask_sel`]).
    masks: Vec<u64>,
    /// Whether each `(slot, sel)` mask has a bit set.
    live: Vec<bool>,
    /// Per slot: the targets of every extracted bucket, best first.
    lists: Vec<Vec<(usize, usize)>>,
    /// Per slot: the next bucket to extract (`BUCKETS` once all are).
    next_bucket: Vec<u8>,
    /// Per slot: the target count, saturated at `m`.
    avail: Vec<usize>,
}

impl<P: Copy> Prepared<P> {
    /// Locate the cleaned line of `proc`'s canonical enclosing rectangle
    /// `rect`, freeze the bucket flags and count each owner's targets.
    /// `None` when the rectangle is a single line: a push would have to
    /// enlarge it, which is forbidden.
    pub fn new<G: SweepGrid<P>>(
        grid: &G,
        proc: P,
        owners: Vec<P>,
        rect: Rect,
    ) -> Option<Prepared<P>> {
        let Rect {
            top,
            bottom,
            left,
            right,
        } = rect;
        if bottom <= top {
            return None;
        }
        debug_assert!(owners.len() < 64, "row flags hold at most 63 owners");
        let k = top;
        let w_lo = left / 64;
        let rect: Vec<u64> = (w_lo..=right / 64)
            .map(|w| rect_word(w, left, right))
            .collect();
        let wn = rect.len();

        // The active processor's elements in the cleaned line, and the
        // per-column facts: `col_ok` bit — the column holds the active
        // processor outside row k; `col_cleans[slot]` bit — the owner has
        // exactly one element in the column.
        let mut cleaned = Vec::new();
        let mut col_ok = vec![0u64; wn];
        let mut col_cleans = vec![0u64; wn * owners.len()];
        for (i, &rm) in rect.iter().enumerate() {
            let w = w_lo + i;
            let row_k = grid.line_word(proc, k, w);
            let mut bits = row_k & rm;
            while bits != 0 {
                cleaned.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
            let mut bits = rm;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let h = w * 64 + b;
                if grid.col_count(proc, h) > u32::from((row_k >> b) & 1 == 1) {
                    col_ok[i] |= 1u64 << b;
                }
                for (slot, &owner) in owners.iter().enumerate() {
                    if grid.col_count(owner, h) == 1 {
                        col_cleans[slot * wn + i] |= 1u64 << b;
                    }
                }
            }
        }
        debug_assert!(
            !cleaned.is_empty(),
            "edge line of enclosing rect must contain proc"
        );
        let m = cleaned.len();

        let mut masks = Vec::with_capacity(owners.len() * SELS * wn);
        for cleans in col_cleans.chunks_exact(wn) {
            for ok_sel in 0..2 {
                for clean_sel in 0..3 {
                    masks.extend((0..wn).map(|i| {
                        let ok = if ok_sel == 0 { col_ok[i] } else { !col_ok[i] };
                        let cl = match clean_sel {
                            0 => cleans[i],
                            1 => !cleans[i],
                            _ => !0,
                        };
                        ok & cl & rect[i]
                    }));
                }
            }
        }
        let live = masks
            .chunks_exact(wn)
            .map(|mask| mask.iter().any(|&w| w != 0))
            .collect();

        let row_flags = ((k + 1)..=bottom)
            .map(|g| {
                let mut flags = u64::from(!grid.row_has(proc, g));
                for (slot, &owner) in owners.iter().enumerate() {
                    if grid.row_count(owner, g) == 1 {
                        flags |= 2 << slot;
                    }
                }
                flags
            })
            .collect();

        // Count each owner's interior cells until every owner has `m`.
        let mut avail = vec![0usize; owners.len()];
        let mut words = 0u64;
        for g in (k + 1)..=bottom {
            if avail.iter().all(|&a| a >= m) {
                break;
            }
            for (slot, &owner) in owners.iter().enumerate() {
                if avail[slot] >= m {
                    continue;
                }
                for (i, &rm) in rect.iter().enumerate() {
                    avail[slot] += (grid.line_word(owner, g, w_lo + i) & rm).count_ones() as usize;
                }
                words += wn as u64;
            }
        }
        for a in &mut avail {
            *a = (*a).min(m);
        }
        record(words, 0);

        let slots = owners.len();
        Some(Prepared {
            k,
            cleaned,
            owners,
            w_lo,
            wn,
            cap: m + 64,
            row_flags,
            masks,
            live,
            lists: vec![Vec::new(); slots],
            next_bucket: vec![0; slots],
            avail,
        })
    }

    /// The eager per-bit sweep, kept as the test oracle for
    /// [`Prepared::new`]: classifies every interior owner cell into its
    /// bucket up front and returns a fully extracted `Prepared` with
    /// unsaturated counts, driving the same matcher.
    #[doc(hidden)]
    pub fn eager<G: SweepGrid<P>>(
        grid: &G,
        proc: P,
        owners: Vec<P>,
        rect: Rect,
    ) -> Option<Prepared<P>> {
        if rect.height() <= 1 {
            return None;
        }
        let k = rect.top;
        let (w_lo, w_hi) = (rect.left / 64, rect.right / 64);
        let wn = w_hi - w_lo + 1;
        let mut cleaned: Vec<usize> = Vec::new();
        let mut col_ok = vec![0u64; wn];
        let mut col_cleans = vec![vec![0u64; wn]; owners.len()];
        for w in w_lo..=w_hi {
            let row_k = grid.line_word(proc, k, w);
            let mut bits = rect_word(w, rect.left, rect.right);
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let h = w * 64 + b;
                let mut cnt = grid.col_count(proc, h);
                if (row_k >> b) & 1 == 1 {
                    cleaned.push(h);
                    cnt -= 1;
                }
                if cnt > 0 {
                    col_ok[w - w_lo] |= 1u64 << b;
                }
                for (slot, &owner) in owners.iter().enumerate() {
                    if grid.col_count(owner, h) == 1 {
                        col_cleans[slot][w - w_lo] |= 1u64 << b;
                    }
                }
            }
        }
        let cap = cleaned.len() + 64;
        let mut buckets: Vec<[Vec<(usize, usize)>; BUCKETS as usize]> =
            (0..owners.len()).map(|_| Default::default()).collect();
        for g in (k + 1)..=rect.bottom {
            let row_dirty = usize::from(!grid.row_has(proc, g));
            for (slot, &owner) in owners.iter().enumerate() {
                let row_cleans = grid.row_count(owner, g) == 1;
                for w in w_lo..=w_hi {
                    let mut bits =
                        grid.line_word(owner, g, w) & rect_word(w, rect.left, rect.right);
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let cost = row_dirty + usize::from((col_ok[w - w_lo] >> b) & 1 == 0);
                        let cleans = row_cleans || (col_cleans[slot][w - w_lo] >> b) & 1 == 1;
                        let bucket = &mut buckets[slot][cost * 2 + usize::from(!cleans)];
                        if bucket.len() < cap {
                            bucket.push((g, w * 64 + b));
                        }
                    }
                }
            }
        }
        let slots = owners.len();
        let lists: Vec<Vec<(usize, usize)>> = buckets.iter().map(|b| b.concat()).collect();
        Some(Prepared {
            k,
            cleaned,
            owners,
            w_lo: 0,
            wn: 0,
            cap: 0,
            row_flags: Vec::new(),
            masks: Vec::new(),
            live: Vec::new(),
            avail: lists.iter().map(Vec::len).collect(),
            lists,
            next_bucket: vec![BUCKETS; slots],
        })
    }

    /// Canonical index of the cleaned line.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Canonical columns of the active processor's elements in the cleaned
    /// line, ascending.
    #[inline]
    pub fn cleaned(&self) -> &[usize] {
        &self.cleaned
    }

    /// Displaced owner per slot.
    #[inline]
    pub fn owners(&self) -> &[P] {
        &self.owners
    }

    /// Targets of owner `slot`, saturated at the cleaned-line length: exact
    /// for every comparison against a demand of at most that length.
    #[inline]
    pub fn avail(&self, slot: usize) -> usize {
        self.avail[slot]
    }

    /// Target `idx` of owner `slot` (canonical `(g, h)`), extracting
    /// further buckets from `grid` as the index reaches them; `None` past
    /// the end of the list. `grid` must satisfy the
    /// [`SweepGrid::line_word`] contract.
    pub fn target<G: SweepGrid<P>>(
        &mut self,
        grid: &G,
        slot: usize,
        idx: usize,
    ) -> Option<(usize, usize)> {
        while idx >= self.lists[slot].len() {
            let bucket = self.next_bucket[slot];
            if bucket == BUCKETS {
                return None;
            }
            self.next_bucket[slot] += 1;
            self.extract(grid, slot, bucket);
        }
        Some(self.lists[slot][idx])
    }

    /// Append bucket `bucket` of owner `slot`, in `(g, h)` order, up to
    /// `cap` targets.
    fn extract<G: SweepGrid<P>>(&mut self, grid: &G, slot: usize, bucket: u8) {
        let owner = self.owners[slot];
        let wn = self.wn;
        let list = &mut self.lists[slot];
        let start = list.len();
        let mut words = 0u64;
        'rows: for (i, &flags) in self.row_flags.iter().enumerate() {
            let row_dirty = flags & 1 == 1;
            let row_cleans = (flags >> (1 + slot)) & 1 == 1;
            let Some(sel) = mask_sel(bucket, row_dirty, row_cleans) else {
                continue;
            };
            let at = slot * SELS + sel;
            if !self.live[at] {
                continue;
            }
            let g = self.k + 1 + i;
            for (j, &mask) in self.masks[at * wn..(at + 1) * wn].iter().enumerate() {
                if mask == 0 {
                    continue;
                }
                words += 1;
                let w = self.w_lo + j;
                let mut bits = grid.line_word(owner, g, w) & mask;
                while bits != 0 {
                    list.push((g, w * 64 + bits.trailing_zeros() as usize));
                    if list.len() - start == self.cap {
                        break 'rows;
                    }
                    bits &= bits - 1;
                }
            }
        }
        record(words, (list.len() - start) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `mask_sel` reproduces `cost * 2 + !cleans` for every combination of
    /// row flags and column bits.
    #[test]
    fn mask_sel_matches_bucket_formula() {
        for row_dirty in [false, true] {
            for row_cleans in [false, true] {
                for col_ok in [false, true] {
                    for col_cleans in [false, true] {
                        let cost = u8::from(row_dirty) + u8::from(!col_ok);
                        let cleans = row_cleans || col_cleans;
                        let expected = cost * 2 + u8::from(!cleans);
                        for bucket in 0..BUCKETS {
                            let hit = mask_sel(bucket, row_dirty, row_cleans).is_some_and(|sel| {
                                let ok = if sel / 3 == 0 { col_ok } else { !col_ok };
                                let cl = match sel % 3 {
                                    0 => col_cleans,
                                    1 => !col_cleans,
                                    _ => true,
                                };
                                ok && cl
                            });
                            assert_eq!(hit, bucket == expected);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rect_word_clips_both_ends() {
        assert_eq!(rect_word(0, 0, 63), !0);
        assert_eq!(rect_word(0, 3, 5), 0b111000);
        assert_eq!(rect_word(1, 60, 65), 0b11);
        assert_eq!(rect_word(0, 60, 65), !0u64 << 60);
        assert_eq!(rect_word(2, 0, 200), !0);
    }
}
