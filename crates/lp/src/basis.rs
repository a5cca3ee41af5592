//! Basis-inverse representations for the revised simplex.
//!
//! The simplex loop needs three operations on the basis matrix `B`:
//!
//! * **ftran**: solve `B α = a` (column direction),
//! * **btran**: solve `Bᵀ y = c` (row direction: the duals `y = B⁻ᵀ c_B`,
//!   or one row `ρ_r = B⁻ᵀ e_r` of the inverse),
//! * **update**: replace the column in row `r` with the entering column,
//!   whose ftran image `α` is already known.
//!
//! Both solves work in place on a [`SparseVec`]: dense values plus the
//! list of rows that may hold a nonzero, left in ascending row order. The
//! simplex walks that list for the ratio test, the basic-value update and
//! the eta append instead of all `m` rows, and in that order, so every
//! tie breaks as it would in a dense loop.
//!
//! [`DenseInverse`] stores `B⁻¹` explicitly (`O(m²)` memory; see "Dense
//! inverse" below) — simple and robust for small problems; the simplex
//! uses it up to 600 rows. [`EtaFile`] stores the product form of the
//! inverse, `B⁻¹ = E_k ⋯ E_1` with sparse eta columns (the starting basis
//! is the all-slack identity, so the file starts empty); updates are
//! `O(nnz(α))`. The eta file is truncated by re-pivoting the basis
//! columns from the identity when it grows past a threshold (the simplex's
//! `refactor` picks each column's row by threshold pivoting with a
//! Markowitz count, to limit fill-in).
//!
//! # Dense inverse
//!
//! [`DenseInverse`] keeps `B⁻¹` column by column in one `m × m` array (a
//! 193-row program's is ~0.30 MB) and owns its scratch list, so no solve
//! allocates. With `nnz(v)` the nonzeros of a right-hand side:
//!
//! * ftran is one contiguous axpy per nonzero of `v`, in ascending row
//!   order: `O(m · nnz(v))`;
//! * the unit btran `ρ_r = B⁻ᵀe_r` gathers row `r` at stride `m`, `O(m)`;
//!   any other btran (the duals) is one dot product per column over `v`'s
//!   nonzeros, `O(m · nnz(v))`;
//! * update scales row `r` and eliminates `α`'s other nonzero rows only in
//!   the columns where row `r` is nonzero, `O(nnz(ρ_r) · nnz(α))`: the
//!   other columns do not change. The simplex passes those columns in as
//!   the `ρ_r` its pricing has just computed; a refactor, which has no
//!   `ρ_r`, lets the update scan row `r`.
//!
//! Every entry of `B⁻¹`, `α`, `ρ` and `y` comes from the same
//! floating-point operations in the same order as in the row-major inverse
//! this replaced, which eliminated across all `m` columns of every row `α`
//! touches, `O(m · nnz(α))` per update. The tests keep that inverse as an
//! oracle (`RowMajorInverse`): random update sequences and whole LP+LF
//! solves must match it bit for bit up to the sign of zero, and a
//! descending-order ftran sum or a skipped row-`r` scaling fails them.
//! Timed per call on the 36 serve-shaped programs `tests/lp_eta_path.rs`
//! pins (67–163 rows, 2-CPU VM), ftran, unit btran and update take 0.64,
//! 0.50 and 0.35 µs, against 1.31, 0.72 and 1.16 µs row-major; an update
//! there visits 5.7 columns for 17.7 nonzero rows of `α` on average. The
//! dual btran, a dot product per column, is the one slower operation
//! (2.6 against 1.5 µs), but a solve runs it only a few times. Its
//! right-hand side `c_B` stays sparse: on those programs and on
//! `serve_mix`'s solves at most a fifth of its rows are nonzero (7–8% in
//! the median), where a contiguous dot over every row of each column
//! measured five to nine times slower than the dot over the nonzeros.
//!
//! # Hyper-sparse btran
//!
//! Every entry of the eta file, pivots included, lives in one flat arena
//! of `(row, value, link)` triples. The link points at the next older
//! entry in the same row, so the arena doubles as a per-row incidence
//! index at 4 bytes per entry, with no per-eta or per-row allocation.
//! Applying eta `E_k` in btran reads the rows of its entries and writes
//! only its pivot row; when every row it reads is zero it changes nothing.
//! [`EtaFile::btran`] therefore visits only etas on the incidence chains of
//! nonzero rows: it starts a chain at each nonzero row of the right-hand
//! side and at each row an applied eta fills in, and pops entries newest
//! first from a heap, which is exactly reverse file order. On the pinned
//! 1000-node LP+LF solve (`tests/lp_eta_path.rs`) a unit btran applies 13
//! of the ~370 etas in the file on average (Hall & McKinnon,
//! "Hyper-sparsity in the revised simplex method and how to exploit it",
//! 2005). The result equals a plain reverse pass over the file bit for bit
//! (up to the sign of zeros).
//!
//! # Pricing
//!
//! On both representations the simplex keeps its reduced costs across
//! pivots and updates them from the pivot row `ρ_r = B⁻ᵀe_r`, one unit
//! btran per pivot (crate docs, "Pricing and hyper-sparsity"). On the
//! dense inverse that btran gathers row `r` of `B⁻¹`, and the update then
//! reuses it; on the eta file it is hyper-sparse.

use std::collections::BinaryHeap;
use std::ops::Range;

/// A length-`m` vector together with the rows it may be nonzero in.
///
/// `val` is dense. [`SparseVec::rows`] lists every row holding a nonzero
/// (and possibly rows that cancelled to zero), each once; both solves
/// leave it in ascending order. Write through [`SparseVec::set`], or write
/// `val` directly and call [`SparseVec::relist`].
#[derive(Debug)]
pub struct SparseVec {
    /// Dense values.
    pub val: Vec<f64>,
    rows: Vec<u32>,
    listed: Vec<bool>,
}

impl SparseVec {
    /// The zero vector of length `m`.
    pub fn new(m: usize) -> SparseVec {
        SparseVec { val: vec![0.0; m], rows: Vec::new(), listed: vec![false; m] }
    }

    /// Rows that may hold a nonzero.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Sets row `i` to `v`.
    pub fn set(&mut self, i: usize, v: f64) {
        self.val[i] = v;
        self.list(i);
    }

    fn list(&mut self, i: usize) {
        if !self.listed[i] {
            self.listed[i] = true;
            self.rows.push(i as u32);
        }
    }

    /// Lists exactly the rows whose value is nonzero, in ascending order
    /// (after writing `val` directly).
    pub fn relist(&mut self) {
        for &i in &self.rows {
            self.listed[i as usize] = false;
        }
        self.rows.clear();
        for (i, &v) in self.val.iter().enumerate() {
            if v != 0.0 {
                self.listed[i] = true;
                self.rows.push(i as u32);
            }
        }
    }

    /// Zeroes the vector in time proportional to its listed rows.
    pub fn clear(&mut self) {
        for &i in &self.rows {
            self.val[i as usize] = 0.0;
            self.listed[i as usize] = false;
        }
        self.rows.clear();
    }
}

/// Abstraction over how `B⁻¹` is represented.
pub trait BasisRep {
    /// Creates a representation of the identity basis of dimension `m`.
    fn identity(m: usize) -> Self;

    /// Solves `B α = v` in place.
    fn ftran(&mut self, v: &mut SparseVec);

    /// Solves `Bᵀ y = v` in place.
    fn btran(&mut self, v: &mut SparseVec);

    /// Replaces the basic column of row `r`; `alpha` is the ftran image of
    /// the entering column (`alpha.val[r]` is the pivot element). `rho`,
    /// when the caller has it, is the pivot row `ρ_r = B⁻ᵀe_r` as a unit
    /// btran just returned it for the current basis.
    ///
    /// Returns `false` if the pivot element is numerically unusable.
    fn update(&mut self, alpha: &SparseVec, rho: Option<&SparseVec>, r: usize) -> bool;

    /// A hint that the representation has grown enough that the caller
    /// should refactorize (rebuild from the basis column set).
    fn wants_refactor(&self) -> bool;

    /// Resets to the identity (used when refactorizing from scratch).
    fn reset(&mut self);

    /// Marks the end of a refactorization: the basis columns are back in.
    fn rebuilt(&mut self) {}
}

const PIVOT_TOL: f64 = 1e-10;

/// Explicit dense inverse, stored column by column (module docs, "Dense
/// inverse").
pub struct DenseInverse {
    m: usize,
    /// Column-major `m × m` matrix holding `B⁻¹`: column `j` is
    /// `inv[j m .. (j + 1) m]`.
    inv: Vec<f64>,
    /// Scratch: a right-hand side's or `α`'s nonzeros as `(row, value)`.
    nz: Vec<(usize, f64)>,
}

impl DenseInverse {
    /// Moves `v`'s nonzeros into `nz` in ascending row order and zeroes `v`.
    fn take_nonzeros(&mut self, v: &mut SparseVec) {
        v.rows.sort_unstable();
        self.nz.clear();
        for &i in &v.rows {
            let x = v.val[i as usize];
            if x != 0.0 {
                self.nz.push((i as usize, x));
            }
        }
        v.clear();
    }
}

impl BasisRep for DenseInverse {
    fn identity(m: usize) -> Self {
        let mut rep = DenseInverse { m, inv: vec![0.0; m * m], nz: Vec::with_capacity(m) };
        rep.reset();
        rep
    }

    fn ftran(&mut self, v: &mut SparseVec) {
        debug_assert_eq!(v.val.len(), self.m);
        let m = self.m;
        // B⁻¹ v = Σ_j v_j · (column j): one contiguous axpy per nonzero of
        // v, in ascending j.
        self.take_nonzeros(v);
        for &(j, x) in &self.nz {
            for (o, &a) in v.val.iter_mut().zip(&self.inv[j * m..(j + 1) * m]) {
                *o += a * x;
            }
        }
        v.relist();
    }

    fn btran(&mut self, v: &mut SparseVec) {
        debug_assert_eq!(v.val.len(), self.m);
        let m = self.m;
        self.take_nonzeros(v);
        match self.nz[..] {
            // ρ_r = B⁻ᵀe_r is row r of B⁻¹: a gather at stride m.
            [(r, 1.0)] => {
                for (j, o) in v.val.iter_mut().enumerate() {
                    *o = self.inv[j * m + r];
                }
            }
            // (B⁻ᵀ v)_j = (column j) · v, over v's nonzeros in ascending row
            // order.
            _ => {
                for (j, o) in v.val.iter_mut().enumerate() {
                    let col = &self.inv[j * m..(j + 1) * m];
                    let mut acc = 0.0;
                    for &(i, x) in &self.nz {
                        acc += x * col[i];
                    }
                    *o = acc;
                }
            }
        }
        v.relist();
    }

    fn update(&mut self, alpha: &SparseVec, rho: Option<&SparseVec>, r: usize) -> bool {
        let m = self.m;
        let pivot = alpha.val[r];
        if pivot.abs() < PIVOT_TOL {
            return false;
        }
        debug_assert!(
            rho.is_none_or(|rho| (0..m).all(|j| rho.val[j] == self.inv[j * m + r])),
            "rho is not row {r} of the inverse"
        );
        // B⁻¹ ← E · B⁻¹ where E is elementary in column r: row r scales by
        // 1/pivot and every other row i of α loses α_i times it. A column
        // whose row-r entry is zero does not change, so only the columns
        // ρ_r lists are visited, or without ρ_r those where row r reads
        // nonzero.
        let inv_pivot = 1.0 / pivot;
        self.nz.clear();
        for &i in alpha.rows() {
            let a = alpha.val[i as usize];
            if i as usize != r && a != 0.0 {
                self.nz.push((i as usize, a));
            }
        }
        let nz = &self.nz;
        let eliminate = |col: &mut [f64]| {
            let scaled = col[r] * inv_pivot;
            col[r] = scaled;
            for &(i, a) in nz {
                col[i] -= a * scaled;
            }
        };
        match rho {
            Some(rho) => {
                for &j in rho.rows() {
                    let j = j as usize;
                    eliminate(&mut self.inv[j * m..(j + 1) * m]);
                }
            }
            None => self.inv.chunks_exact_mut(m).filter(|col| col[r] != 0.0).for_each(eliminate),
        }
        true
    }

    fn wants_refactor(&self) -> bool {
        false
    }

    fn reset(&mut self) {
        self.inv.fill(0.0);
        for i in 0..self.m {
            self.inv[i * self.m + i] = 1.0;
        }
    }
}

/// The row-major dense inverse the column-major [`DenseInverse`] replaced,
/// kept as its oracle: every solve and update must match it bit for bit up
/// to the sign of zero. It allocates an `m`-vector per solve and eliminates
/// across all `m` columns of every row `α` touches.
#[cfg(test)]
pub(crate) struct RowMajorInverse {
    m: usize,
    /// Row-major `m × m` matrix holding `B⁻¹`.
    inv: Vec<f64>,
}

#[cfg(test)]
impl BasisRep for RowMajorInverse {
    fn identity(m: usize) -> Self {
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        RowMajorInverse { m, inv }
    }

    fn ftran(&mut self, v: &mut SparseVec) {
        debug_assert_eq!(v.val.len(), self.m);
        let m = self.m;
        let mut out = vec![0.0; m];
        // out = B⁻¹ · v ; skip zero entries of v (it is usually sparse).
        for (col, &x) in v.val.iter().enumerate() {
            if x != 0.0 {
                for (i, o) in out.iter_mut().enumerate() {
                    *o += self.inv[i * m + col] * x;
                }
            }
        }
        v.val.copy_from_slice(&out);
        v.relist();
    }

    fn btran(&mut self, v: &mut SparseVec) {
        debug_assert_eq!(v.val.len(), self.m);
        let m = self.m;
        let mut out = vec![0.0; m];
        // out = (B⁻¹)ᵀ · v = rowsᵀ; outⱼ = Σ_i v_i · inv[i][j]
        for (i, &x) in v.val.iter().enumerate() {
            if x != 0.0 {
                let row = &self.inv[i * m..(i + 1) * m];
                for (o, &a) in out.iter_mut().zip(row) {
                    *o += x * a;
                }
            }
        }
        v.val.copy_from_slice(&out);
        v.relist();
    }

    fn update(&mut self, alpha: &SparseVec, _rho: Option<&SparseVec>, r: usize) -> bool {
        let m = self.m;
        let pivot = alpha.val[r];
        if pivot.abs() < PIVOT_TOL {
            return false;
        }
        // B⁻¹ ← E · B⁻¹ where E is elementary in column r.
        let inv_pivot = 1.0 / pivot;
        // First scale row r.
        for j in 0..m {
            self.inv[r * m + j] *= inv_pivot;
        }
        // Then eliminate column r from every other row α touches; the
        // rows are independent, so their order does not matter.
        for &i in alpha.rows() {
            let i = i as usize;
            let factor = alpha.val[i];
            if i == r || factor == 0.0 {
                continue;
            }
            // row_i -= factor * row_r (row_r already scaled)
            let (head, tail) = self.inv.split_at_mut(r.max(i) * m);
            let (row_i, row_r) = if i < r {
                (&mut head[i * m..(i + 1) * m], &tail[..m])
            } else {
                (&mut tail[..m], &head[r * m..(r + 1) * m])
            };
            for (a, &b) in row_i.iter_mut().zip(row_r.iter()) {
                *a -= factor * b;
            }
        }
        true
    }

    fn wants_refactor(&self) -> bool {
        false
    }

    fn reset(&mut self) {
        self.inv.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..self.m {
            self.inv[i * self.m + i] = 1.0;
        }
    }
}

/// Ends an incidence chain.
const NONE: u32 = u32::MAX;

/// Product-form-of-the-inverse representation.
///
/// Eta `k` occupies the arena entries `start[k] .. start[k + 1]`: first its
/// pivot entry (pivot row, `1 / pivot`), then the entering column's ftran
/// image in every other row it touches, in ascending row order.
pub struct EtaFile {
    /// Arena index of each eta's pivot entry.
    start: Vec<u32>,
    /// Row of each arena entry.
    row: Vec<u32>,
    /// Value of each arena entry.
    val: Vec<f64>,
    /// Next older entry in the same row, or [`NONE`].
    older: Vec<u32>,
    /// Newest entry of each row, or [`NONE`]: the head of its chain.
    newest: Vec<u32>,
    /// Refactor hint threshold on stored entries: `64 m` (at least 4096),
    /// raised to twice what a rebuild leaves, so that a basis whose rebuild
    /// fills in past half the limit is not rebuilt again at every pivot.
    nnz_limit: usize,
    /// btran's pending arena entries (scratch, empty between calls).
    frontier: BinaryHeap<u32>,
}

impl EtaFile {
    /// Number of etas in the file.
    fn len(&self) -> usize {
        self.start.len()
    }

    /// Arena entries of eta `k`, pivot first.
    fn span(&self, k: usize) -> Range<usize> {
        let end = self.start.get(k + 1).map_or(self.row.len(), |&s| s as usize);
        self.start[k] as usize..end
    }

    /// The eta owning arena entry `e`.
    fn eta_of(&self, e: usize) -> usize {
        self.start.partition_point(|&s| s as usize <= e) - 1
    }

    fn push_entry(&mut self, i: usize, v: f64) {
        let e = self.row.len() as u32;
        self.row.push(i as u32);
        self.val.push(v);
        self.older.push(self.newest[i]);
        self.newest[i] = e;
    }
}

impl BasisRep for EtaFile {
    fn identity(m: usize) -> Self {
        EtaFile {
            start: Vec::new(),
            row: Vec::new(),
            val: Vec::new(),
            older: Vec::new(),
            newest: vec![NONE; m],
            nnz_limit: (64 * m).max(4096),
            frontier: BinaryHeap::new(),
        }
    }

    fn ftran(&mut self, v: &mut SparseVec) {
        // B⁻¹ = E_k ⋯ E_1, apply in file order.
        for k in 0..self.len() {
            let span = self.span(k);
            let p = span.start;
            let r = self.row[p] as usize;
            let vr = v.val[r];
            if vr != 0.0 {
                let scaled = vr * self.val[p];
                v.val[r] = scaled;
                for e in p + 1..span.end {
                    let i = self.row[e] as usize;
                    v.val[i] -= self.val[e] * scaled;
                    v.list(i);
                }
            }
        }
        v.rows.sort_unstable();
    }

    fn btran(&mut self, v: &mut SparseVec) {
        // (B⁻¹)ᵀ = E_1ᵀ ⋯ E_kᵀ, apply in reverse file order — but only the
        // etas that read a nonzero (module docs, "Hyper-sparse btran").
        let mut frontier = std::mem::take(&mut self.frontier);
        for &i in &v.rows {
            let head = self.newest[i as usize];
            if v.val[i as usize] != 0.0 && head != NONE {
                frontier.push(head);
            }
        }
        // Entries pop in strictly decreasing order apart from duplicates,
        // which pop back to back: two chains can meet at one entry, and
        // one eta can be reached through several of its rows.
        let (mut last_entry, mut last_eta) = (NONE, usize::MAX);
        while let Some(e) = frontier.pop() {
            if e == last_entry {
                continue;
            }
            last_entry = e;
            let e = e as usize;
            if self.older[e] != NONE {
                frontier.push(self.older[e]);
            }
            let k = self.eta_of(e);
            if k == last_eta {
                continue;
            }
            last_eta = k;
            let span = self.span(k);
            let p = span.start;
            let r = self.row[p] as usize;
            let before = v.val[r];
            let mut acc = before;
            for q in p + 1..span.end {
                acc -= self.val[q] * v.val[self.row[q] as usize];
            }
            v.val[r] = acc * self.val[p];
            if before == 0.0 && v.val[r] != 0.0 {
                // Row r just filled in: older etas reading it now matter.
                v.list(r);
                if self.older[p] != NONE {
                    frontier.push(self.older[p]);
                }
            }
        }
        self.frontier = frontier;
        v.rows.sort_unstable();
    }

    fn update(&mut self, alpha: &SparseVec, _rho: Option<&SparseVec>, r: usize) -> bool {
        let pivot = alpha.val[r];
        if pivot.abs() < PIVOT_TOL {
            return false;
        }
        self.start.push(self.row.len() as u32);
        self.push_entry(r, 1.0 / pivot);
        for &i in alpha.rows() {
            let a = alpha.val[i as usize];
            if i as usize != r && a != 0.0 {
                self.push_entry(i as usize, a);
            }
        }
        true
    }

    fn wants_refactor(&self) -> bool {
        self.row.len() > self.nnz_limit
    }

    fn reset(&mut self) {
        self.start.clear();
        self.row.clear();
        self.val.clear();
        self.older.clear();
        self.newest.fill(NONE);
    }

    fn rebuilt(&mut self) {
        self.nnz_limit = self.nnz_limit.max(2 * self.row.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Deterministic pseudo-random numbers in `[-0.5, 0.5)` without
    /// external crates.
    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    fn sparse(v: &[f64]) -> SparseVec {
        let mut w = SparseVec::new(v.len());
        w.val.copy_from_slice(v);
        w.relist();
        w
    }

    fn ftran<R: BasisRep>(rep: &mut R, v: &[f64]) -> Vec<f64> {
        let mut w = sparse(v);
        rep.ftran(&mut w);
        check_listing(&w);
        w.val
    }

    fn btran<R: BasisRep>(rep: &mut R, v: &[f64]) -> Vec<f64> {
        let mut w = sparse(v);
        rep.btran(&mut w);
        check_listing(&w);
        w.val
    }

    /// A solve must list every nonzero, each once, in ascending order.
    fn check_listing(w: &SparseVec) {
        assert!(w.rows().windows(2).all(|p| p[0] < p[1]), "rows not ascending: {:?}", w.rows());
        for (i, &v) in w.val.iter().enumerate() {
            assert!(v == 0.0 || w.rows().contains(&(i as u32)), "row {i} = {v} unlisted");
        }
    }

    impl EtaFile {
        /// btran by a plain reverse pass over every eta: the reference the
        /// skip-idle pass must match.
        fn btran_every_eta(&self, rhs: &mut [f64]) {
            for k in (0..self.len()).rev() {
                let span = self.span(k);
                let r = self.row[span.start] as usize;
                let mut acc = rhs[r];
                for q in span.start + 1..span.end {
                    acc -= self.val[q] * rhs[self.row[q] as usize];
                }
                rhs[r] = acc * self.val[span.start];
            }
        }
    }

    fn apply_updates<R: BasisRep>(rep: &mut R, cols: &[Vec<f64>], rows: &[usize]) {
        for (col, &r) in cols.iter().zip(rows) {
            let mut alpha = sparse(col);
            rep.ftran(&mut alpha);
            assert!(rep.update(&alpha, None, r));
        }
    }

    /// After pivoting columns [2,1;1,3] into rows 0 and 1, ftran must solve
    /// against that matrix.
    fn check_solves<R: BasisRep>(mut rep: R) {
        let c0 = vec![2.0, 1.0];
        let c1 = vec![1.0, 3.0];
        apply_updates(&mut rep, &[c0, c1], &[0, 1]);
        // B = [[2,1],[1,3]], det = 5. Solve B a = [1, 0] → a = [0.6, -0.2].
        let a = ftran(&mut rep, &[1.0, 0.0]);
        assert!((a[0] - 0.6).abs() < 1e-12 && (a[1] + 0.2).abs() < 1e-12);
        // B is symmetric, so Bᵀ y = [1, 1] gives y = B⁻¹ [1, 1] = [0.4, 0.2].
        let y = btran(&mut rep, &[1.0, 1.0]);
        assert!((y[0] - 0.4).abs() < 1e-12 && (y[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn dense_inverse_solves() {
        check_solves(DenseInverse::identity(2));
    }

    #[test]
    fn eta_file_solves() {
        check_solves(EtaFile::identity(2));
    }

    #[test]
    fn identity_is_noop() {
        let mut rep = EtaFile::identity(3);
        let v = [1.0, -2.0, 3.0];
        assert_eq!(ftran(&mut rep, &v), v);
        assert_eq!(btran(&mut rep, &v), v);
    }

    #[test]
    fn rejects_tiny_pivot() {
        let alpha = sparse(&[1e-14, 1.0]);
        let mut rep = DenseInverse::identity(2);
        assert!(!rep.update(&alpha, None, 0));
        let mut rep = EtaFile::identity(2);
        assert!(!rep.update(&alpha, None, 0));
        assert_eq!(rep.len(), 0);
    }

    /// A sparse column with a dominant entry in `pivot_row` and about
    /// `density` of the other rows filled.
    fn sparse_col(next: &mut impl FnMut() -> f64, m: usize, pivot_row: usize) -> Vec<f64> {
        (0..m)
            .map(|i| {
                if i == pivot_row {
                    2.0 + next().abs()
                } else if next() > 0.2 {
                    next()
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn assert_close(u: &[f64], v: &[f64], tol: f64, what: &str) {
        for (i, (a, b)) in u.iter().zip(v).enumerate() {
            assert!((a - b).abs() < tol, "{what}: row {i}: {a} vs {b}");
        }
    }

    /// Replaces basic columns in `rows` order on both representations and
    /// checks that every ftran agrees along the way.
    fn pivot_both(
        next: &mut impl FnMut() -> f64,
        dense: &mut DenseInverse,
        eta: &mut EtaFile,
        rows: impl Iterator<Item = usize>,
    ) {
        let m = dense.m;
        for pivot_row in rows {
            let col = sparse_col(next, m, pivot_row);
            let mut a1 = sparse(&col);
            dense.ftran(&mut a1);
            let mut a2 = sparse(&col);
            eta.ftran(&mut a2);
            check_listing(&a2);
            assert_close(&a1.val, &a2.val, 1e-9, "ftran");
            // Skip replacements the two cannot both take (near-singular).
            if a1.val[pivot_row].abs() > 1e-3 {
                assert!(dense.update(&a1, None, pivot_row));
                assert!(eta.update(&a2, None, pivot_row));
            }
        }
    }

    /// Both solves on dense and sparse right-hand sides, unit vectors
    /// included; the skip-idle btran must equal a plain reverse pass.
    fn check_agree(next: &mut impl FnMut() -> f64, dense: &mut DenseInverse, eta: &mut EtaFile) {
        let m = dense.m;
        let mut rhss: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                let mut e = vec![0.0; m];
                e[i] = 1.0;
                e
            })
            .collect();
        rhss.push((0..m).map(|_| next()).collect());
        rhss.push((0..m).map(|_| if next() > 0.3 { next() } else { 0.0 }).collect());
        for rhs in &rhss {
            assert_close(&ftran(dense, rhs), &ftran(eta, rhs), 1e-8, "ftran");
            let skip = btran(eta, rhs);
            let mut plain = rhs.clone();
            eta.btran_every_eta(&mut plain);
            assert_eq!(skip, plain, "skip-idle btran differs from the plain pass");
            assert_close(&btran(dense, rhs), &skip, 1e-8, "btran");
        }
    }

    #[test]
    fn dense_and_eta_agree_on_random_updates() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let m = 8;
        let mut dense = DenseInverse::identity(m);
        let mut eta = EtaFile::identity(m);
        pivot_both(&mut next, &mut dense, &mut eta, 0..m);
        check_agree(&mut next, &mut dense, &mut eta);

        // More replacements than rows: rows are replaced again and again,
        // so chains run through several etas of the same pivot row.
        let rows: Vec<usize> = (0..5 * m).map(|_| ((next() + 0.5) * m as f64) as usize).collect();
        pivot_both(&mut next, &mut dense, &mut eta, rows.into_iter());
        assert!(eta.len() > m);
        check_agree(&mut next, &mut dense, &mut eta);

        // Refactor from scratch: the incidence index must start over.
        dense.reset();
        eta.reset();
        assert_eq!(eta.len(), 0);
        check_agree(&mut next, &mut dense, &mut eta);
        pivot_both(&mut next, &mut dense, &mut eta, (0..m).rev().chain(0..m));
        check_agree(&mut next, &mut dense, &mut eta);
    }

    #[test]
    fn a_rebuild_that_fills_in_raises_the_refactor_threshold() {
        // 40 rows: the threshold starts at its 4096-entry floor.
        let m = 40;
        let mut eta = EtaFile::identity(m);
        let alpha = sparse(&vec![1.0; m]);
        for r in 0..m {
            assert!(eta.update(&alpha, None, r));
        }
        eta.rebuilt();
        assert_eq!(eta.nnz_limit, 4096, "1600 entries stay under half the floor");
        for r in 0..m {
            assert!(eta.update(&alpha, None, r));
        }
        eta.rebuilt();
        assert_eq!(eta.nnz_limit, 6400, "3200 entries double the threshold");
        assert!(!eta.wants_refactor());
    }

    /// A length-`m` vector written through [`SparseVec::set`] in random row
    /// order: about `density` of the rows hold a value, some drawn from a
    /// few exact magnitudes so that sums cancel, and a few listed rows hold
    /// an exact zero.
    fn random_sparse(rng: &mut StdRng, m: usize, density: f64) -> SparseVec {
        const EXACT: [f64; 6] = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0];
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut v = SparseVec::new(m);
        for i in order {
            if rng.random_bool(density) {
                let x = if rng.random_bool(0.3) {
                    EXACT[rng.random_range(0..EXACT.len())]
                } else {
                    rng.random_range(-1.0..1.0)
                };
                v.set(i, x);
            } else if rng.random_bool(0.05) {
                v.set(i, 0.0);
            }
        }
        v
    }

    /// A copy of `v` that lists its rows in the same order.
    fn copy(v: &SparseVec) -> SparseVec {
        SparseVec { val: v.val.clone(), rows: v.rows.clone(), listed: v.listed.clone() }
    }

    /// Equal entry by entry under `==` (bit for bit up to the sign of zero),
    /// with the same rows listed.
    fn same(a: &SparseVec, b: &SparseVec) -> bool {
        a.val == b.val && a.rows == b.rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The column-major inverse against the row-major oracle over random
        // update sequences. Each α is the ftran image of a random sparse
        // column, with extra listed rows holding exact zeros, and the update
        // gets ρ_r from a unit btran (as in the simplex) or finds row r
        // itself (as in a refactor). After each update, ftran of random
        // sparse columns, a unit btran and a dense btran must match.
        #[test]
        fn column_major_inverse_matches_the_row_major_oracle(
            seed in 0u64..u64::MAX,
            m in 1usize..40,
            density in 0.1f64..0.6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut new = DenseInverse::identity(m);
            let mut old = RowMajorInverse::identity(m);
            let solve = |new: &mut DenseInverse, old: &mut RowMajorInverse, v: &SparseVec, ftran| {
                let (mut a, mut b) = (copy(v), copy(v));
                if ftran {
                    new.ftran(&mut a);
                    old.ftran(&mut b);
                } else {
                    new.btran(&mut a);
                    old.btran(&mut b);
                }
                (a, b)
            };
            for step in 0..2 * m + 4 {
                let (mut alpha, mut alpha_old) = solve(&mut new, &mut old, &random_sparse(&mut rng, m, density), true);
                prop_assert!(same(&alpha, &alpha_old), "step {}: α", step);
                for _ in 0..rng.random_range(0..3) {
                    let i = rng.random_range(0..m);
                    if alpha.val[i] == 0.0 {
                        alpha.set(i, 0.0);
                        alpha_old.set(i, 0.0);
                    }
                }
                // The pivot row: any row within half of α's largest entry.
                let big = alpha.val.iter().fold(0.0f64, |b, a| b.max(a.abs()));
                if big == 0.0 {
                    continue;
                }
                let rows: Vec<usize> = (0..m).filter(|&i| alpha.val[i].abs() >= 0.5 * big).collect();
                let r = rows[rng.random_range(0..rows.len())];
                let mut unit = SparseVec::new(m);
                unit.set(r, 1.0);
                let (rho, rho_old) = solve(&mut new, &mut old, &unit, false);
                prop_assert!(same(&rho, &rho_old), "step {}: ρ_{}", step, r);
                let given = rng.random_bool(0.5).then_some(&rho);
                prop_assert!(new.update(&alpha, given, r));
                prop_assert!(old.update(&alpha_old, None, r));

                for _ in 0..3 {
                    let (a, b) = solve(&mut new, &mut old, &random_sparse(&mut rng, m, density), true);
                    prop_assert!(same(&a, &b), "step {}: ftran", step);
                }
                let mut unit = SparseVec::new(m);
                unit.set(rng.random_range(0..m), 1.0);
                let (a, b) = solve(&mut new, &mut old, &unit, false);
                prop_assert!(same(&a, &b), "step {}: unit btran", step);
                let (a, b) = solve(&mut new, &mut old, &random_sparse(&mut rng, m, 0.8), false);
                prop_assert!(same(&a, &b), "step {}: dense btran", step);
            }
        }
    }

    #[test]
    fn btran_skips_etas_that_read_only_zeros() {
        // Two disjoint 2×2 blocks: a unit btran in one block must not
        // touch the other, and still match the plain pass.
        let mut eta = EtaFile::identity(4);
        apply_updates(
            &mut eta,
            &[vec![2.0, 1.0, 0.0, 0.0], vec![0.0, 0.0, 3.0, 1.0], vec![1.0, 3.0, 0.0, 0.0]],
            &[0, 2, 1],
        );
        let mut w = sparse(&[0.0, 0.0, 1.0, 0.0]);
        eta.btran(&mut w);
        assert_eq!(w.rows(), &[2]);
        let mut plain = vec![0.0, 0.0, 1.0, 0.0];
        eta.btran_every_eta(&mut plain);
        assert_eq!(w.val, plain);
    }
}
