//! The packed, register-tiled GEMM kernel every MLP forward runs through.
//!
//! Every plan the search evaluates bottoms out in a handful of tiny dense
//! matrix products (`batch × 8 · 8 × 128`, `batch × 128 · 128 × 32`, …), so
//! the kernel is written for one thing: letting LLVM emit wide vector code
//! without `unsafe`. Three ingredients make that happen:
//!
//! * **register tiling** — [`PackedGemm::gemm_into`] computes an `MR × NR`
//!   (4 × 16) tile of the output at a time, keeping 64 scalar accumulators
//!   in registers across the whole `k` loop,
//! * **fixed-width inner loops** — the innermost loops run over `[f32; NR]`
//!   arrays with compile-time bounds, so there are no data-dependent
//!   branches and no bounds checks in the hot loop,
//! * **packed panels** — [`PackedGemm`] stores the right-hand operand as
//!   column panels of width `NR` (`[ceil(n/NR)][k][NR]`, zero-padded), so
//!   the `k` loop walks both operands contiguously. A layer packs its
//!   weights when they change (built, decoded or updated) and reuses the
//!   panels for every forward pass; the free [`gemm_into`] packs its
//!   operand on every call.
//!
//! A layer's forward adds its bias, and ReLU when a hidden layer asks for
//! it, as each finished tile is stored, so every activation is written once.
//!
//! # Bit-exactness contract
//!
//! Each output element is accumulated in a single `f32` accumulator that
//! starts at `+0.0` and adds `a[i][k] * b[k][j]` over `k` in ascending
//! order — the scalar `i, k, j` loop nest the unit tests and
//! `tests/kernel_conformance.rs` keep as a reference and compare by
//! `to_bits` across odd shapes. Tiling only reorders *which elements* are
//! computed when, never the additions *within* one element, and no
//! fused-multiply-add or re-association is introduced (rustc does not
//! contract float expressions). The bias and ReLU come after the sum, as
//! separate passes over the product would apply them: `(acc + b).max(0.0)`.
//!
//! The two backward-pass products (crate-internal, behind
//! [`crate::Mlp::backward`]) keep their own, equally fixed orders:
//! `PackedGemm::gemm_sum_into` over a transposed pack is bitwise the scalar
//! dot `Σₖ dy[k]·w[k]` folded the way `Iterator::sum::<f32>` folds (from
//! `-0.0`), and `at_b_into` accumulates `aᵀ·b` over rows in ascending
//! order in an `MR × NR` register tile, skipping zero entries of `a`,
//! before one scaled fold into its output.

/// Rows of the output register tile.
pub(crate) const MR: usize = 4;
/// Columns of the output register tile (and packed panel width).
pub(crate) const NR: usize = 16;

/// `out = a · b` with `a: m × k`, `b: k × n`, both row-major: packs `b`
/// into panels and runs [`PackedGemm::gemm_into`], so it is bitwise the
/// same product. A caller that multiplies by one `b` many times should
/// keep the [`PackedGemm`].
///
/// # Panics
///
/// Panics if slice lengths do not match the given dimensions.
pub fn gemm_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    PackedGemm::pack(b, k, n).gemm_into(a, m, out);
}

/// One operand of [`at_b_into`]: `(data, stride)`, row `r` starting at
/// `data[r * stride]` — a stride of `0` lets one row stand for every row.
pub(crate) type Rows<'a> = (&'a [f32], usize);

/// `out[i][j] += scale · Σᵣ a[r][i]·b[r][j]` over `rows` rows, with `out`
/// `m × n` row-major (`m = out.len() / n`) — a dense layer's weight
/// gradient `xᵀ · dy`, formed without the transpose and folded into an
/// accumulator as soon as it exists.
///
/// Each sum runs over `r` in ascending order in a register accumulator
/// that starts at `+0.0`, skipping every term whose `a[r][i]` is zero
/// (ReLU makes about half of a hidden layer's inputs zero); then comes one
/// multiply-add per element into `out`. The order, the skip and that last
/// step are part of the trainers' numerical contract.
///
/// The skip is free when `b` is finite: a zero `a` then adds a signed zero,
/// which keeps an accumulator that started at `+0.0` (it can never hold
/// `-0.0`). So the product runs in `MR × NR` register tiles, then
/// single-row ones, with no test in the loop — a data-dependent branch
/// there mispredicts on every other ReLU output, and LLVM lowers a select
/// on a scalar condition to exactly that branch. What the tiles leave (the
/// columns past the last `NR`-wide tile, or everything when `b` holds an
/// infinity or a NaN, which a zero `a` must not turn into a NaN) runs one
/// element at a time, testing each term.
///
/// # Panics
///
/// Panics if an operand is too short for `rows` rows.
pub(crate) fn at_b_into(a: Rows, b: Rows, rows: usize, n: usize, scale: f32, out: &mut [f32]) {
    if rows == 0 || n == 0 {
        return;
    }
    let m = out.len() / n;
    let all_finite = |row: &[f32]| row.iter().fold(true, |ok, v| ok & v.is_finite());
    let finite = (0..rows).all(|r| all_finite(&b.0[r * b.1..][..n]));
    let tiled = if finite { n - n % NR } else { 0 };
    let mut i = 0;
    while tiled > 0 && i + MR <= m {
        for j in (0..tiled).step_by(NR) {
            fold_tile(&at_b_tile::<MR>(a, b, rows, i, j), i, j, n, scale, out);
        }
        i += MR;
    }
    while tiled > 0 && i < m {
        for j in (0..tiled).step_by(NR) {
            fold_tile(&at_b_tile::<1>(a, b, rows, i, j), i, j, n, scale, out);
        }
        i += 1;
    }
    for (i, out) in out.chunks_exact_mut(n).enumerate() {
        for (j, out) in out.iter_mut().enumerate().skip(tiled) {
            let mut acc = 0.0f32;
            for r in 0..rows {
                let av = a.0[r * a.1 + i];
                if finite || av != 0.0 {
                    acc += av * b.0[r * b.1 + j];
                }
            }
            *out += acc * scale;
        }
    }
}

/// The `R × NR` tile of [`at_b_into`]'s sums at rows `i..`, columns `j..`
/// (finite `b`). Kept apart from the loops over tiles and from the fold:
/// fused with either, LLVM vectorizes the tile across the wrong axis and
/// runs it several times slower.
#[inline(always)]
fn at_b_tile<const R: usize>(a: Rows, b: Rows, rows: usize, i: usize, j: usize) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    for r in 0..rows {
        let av: &[f32; R] = a.0[r * a.1 + i..][..R].try_into().expect("R rows");
        let bk: &[f32; NR] = b.0[r * b.1 + j..][..NR].try_into().expect("NR columns");
        for ii in 0..R {
            for c in 0..NR {
                acc[ii][c] += av[ii] * bk[c];
            }
        }
    }
    acc
}

/// `out[i + ii][j..j + NR] += scale · acc[ii]` in an `n`-wide `out`.
#[inline(always)]
fn fold_tile<const R: usize>(
    acc: &[[f32; NR]; R],
    i: usize,
    j: usize,
    n: usize,
    scale: f32,
    out: &mut [f32],
) {
    for (ii, acc) in acc.iter().enumerate() {
        for (o, &v) in out[(i + ii) * n + j..][..NR].iter_mut().zip(acc) {
            *o += v * scale;
        }
    }
}

/// A right-hand operand pre-packed into `NR`-wide column panels.
///
/// Layout: `ceil(n / NR)` panels, each `k × NR` row-major, so panel `p`
/// holds columns `p*NR .. p*NR+NR` of the original `k × n` matrix with the
/// last panel zero-padded. The `k` loop of [`PackedGemm::gemm_into`] then
/// streams both operands contiguously. Padded lanes accumulate zeros and
/// are never stored, so padding never changes a result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedGemm {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedGemm {
    /// Packs a row-major `k × n` matrix into column panels.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[f32], k: usize, n: usize) -> Self {
        let mut packed = Self::default();
        packed.repack(b, k, n);
        packed
    }

    /// Re-packs in place from a row-major `k × n` matrix, reusing the panel
    /// allocation (a layer re-packs after every optimizer step).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub(crate) fn repack(&mut self, b: &[f32], k: usize, n: usize) {
        assert_eq!(b.len(), k * n, "pack: operand length mismatch");
        self.resize(k, n);
        for (p, panel) in self.panels.chunks_exact_mut((k * NR).max(1)).enumerate() {
            let j = p * NR;
            let w = (n - j).min(NR);
            for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                dst[..w].copy_from_slice(&b[kk * n + j..kk * n + j + w]);
            }
        }
    }

    /// Re-packs in place from the **transpose** of a row-major
    /// `rows × cols` matrix `w`: the packed operand is `wᵀ` (`cols × rows`),
    /// so `a · wᵀ` streams contiguously. Reuses the panel allocation.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != rows * cols`.
    pub(crate) fn repack_transposed(&mut self, w: &[f32], rows: usize, cols: usize) {
        assert_eq!(w.len(), rows * cols, "pack: operand length mismatch");
        let (k, n) = (cols, rows);
        self.resize(k, n);
        for (p, panel) in self.panels.chunks_exact_mut((k * NR).max(1)).enumerate() {
            let j = p * NR;
            let width = (n - j).min(NR);
            for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                for (c, d) in dst[..width].iter_mut().enumerate() {
                    *d = w[(j + c) * cols + kk];
                }
            }
        }
    }

    /// Zero-filled panels for a `k × n` operand, keeping the allocation.
    fn resize(&mut self, k: usize, n: usize) {
        self.k = k;
        self.n = n;
        self.panels.clear();
        self.panels.resize(n.div_ceil(NR) * k * NR, 0.0);
    }

    /// `out = a · B` where `a` is row-major `m × k` and `B` is the packed
    /// operand, each element summed over `k` in ascending order from `+0.0`
    /// (see the module's bit-exactness contract).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the given dimensions.
    pub fn gemm_into(&self, a: &[f32], m: usize, out: &mut [f32]) {
        self.gemm_from::<false>(a, m, None, out);
    }

    /// A dense layer's forward: `out = a · B` plus `bias` on every row,
    /// clamped at zero when `relu` is set, each element stored once as its
    /// tile finishes (`out` need not be initialised). Element `j` of a row
    /// is bitwise `(acc + bias[j]).max(0.0)` (without `relu`, `acc +
    /// bias[j]`), where `acc` is [`PackedGemm::gemm_into`]'s sum — what a
    /// bias pass and then a ReLU pass over the product would leave.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the given dimensions.
    pub(crate) fn gemm_bias_into(
        &self,
        a: &[f32],
        m: usize,
        bias: &[f32],
        relu: bool,
        out: &mut [f32],
    ) {
        assert_eq!(bias.len(), self.n, "packed gemm: bias length mismatch");
        self.gemm_from::<false>(a, m, Some((bias, relu)), out);
    }

    /// `out = a · B` with every accumulator started at `-0.0` instead of
    /// `+0.0` — the identity `Iterator::sum::<f32>` folds from. Over a
    /// [`PackedGemm::repack_transposed`] pack of `w` each `out[i][j]` is
    /// therefore **bitwise** the scalar dot
    /// `a.row(i).zip(w.row(j)).map(|(a, w)| a * w).sum::<f32>()`, computed
    /// sixteen `j` at a time. The two starts differ only when every product
    /// of an element is `-0.0` (the result keeps the sign).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the given dimensions.
    pub(crate) fn gemm_sum_into(&self, a: &[f32], m: usize, out: &mut [f32]) {
        self.gemm_from::<true>(a, m, None, out);
    }

    /// The packed kernel with every accumulator started at `-0.0`
    /// (`FROM_NEG_ZERO`) or `+0.0`, each finished tile stored through
    /// `epilogue` (see [`PackedGemm::store`]).
    ///
    /// The tile is four separate `[f32; NR]` rows, each updated by its own
    /// fixed-width loop: that shape vectorizes whatever the rows start from,
    /// where one `[[f32; NR]; MR]` block started at anything but a literal
    /// `+0.0` is left in memory by LLVM and runs six times slower.
    fn gemm_from<const FROM_NEG_ZERO: bool>(
        &self,
        a: &[f32],
        m: usize,
        epilogue: Epilogue,
        out: &mut [f32],
    ) {
        let (k, n) = (self.k, self.n);
        assert_eq!(a.len(), m * k, "packed gemm: lhs length mismatch");
        assert_eq!(out.len(), m * n, "packed gemm: out length mismatch");
        let start = || {
            if FROM_NEG_ZERO {
                [-0.0f32; NR]
            } else {
                [0.0f32; NR]
            }
        };
        // Panel `p`, its output columns and their part of the epilogue.
        let panel = |p: usize| {
            let (j, w) = (p * NR, (n - p * NR).min(NR));
            let epilogue = epilogue.map(|(bias, relu)| (&bias[j..j + w], relu));
            (
                &self.panels[p * k * NR..(p + 1) * k * NR],
                j..j + w,
                epilogue,
            )
        };
        let m_main = m - m % MR;
        let mut i = 0;
        while i < m_main {
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let a2 = &a[(i + 2) * k..(i + 3) * k];
            let a3 = &a[(i + 3) * k..(i + 4) * k];
            for (panel, cols, epilogue) in (0..n.div_ceil(NR)).map(panel) {
                let (mut acc0, mut acc1, mut acc2, mut acc3) = (start(), start(), start(), start());
                for ((((bk, &v0), &v1), &v2), &v3) in
                    panel.chunks_exact(NR).zip(a0).zip(a1).zip(a2).zip(a3)
                {
                    let bk: &[f32; NR] = bk.try_into().expect("NR-wide panel row");
                    for c in 0..NR {
                        acc0[c] += v0 * bk[c];
                    }
                    for c in 0..NR {
                        acc1[c] += v1 * bk[c];
                    }
                    for c in 0..NR {
                        acc2[c] += v2 * bk[c];
                    }
                    for c in 0..NR {
                        acc3[c] += v3 * bk[c];
                    }
                }
                for (r, acc) in [acc0, acc1, acc2, acc3].iter().enumerate() {
                    let row = (i + r) * n;
                    Self::store(&mut out[row + cols.start..row + cols.end], acc, epilogue);
                }
            }
            i += MR;
        }
        while i < m {
            let a_row = &a[i * k..(i + 1) * k];
            for (panel, cols, epilogue) in (0..n.div_ceil(NR)).map(panel) {
                let mut acc = start();
                for (bk, &av) in panel.chunks_exact(NR).zip(a_row) {
                    let bk: &[f32; NR] = bk.try_into().expect("NR-wide panel row");
                    for c in 0..NR {
                        acc[c] += av * bk[c];
                    }
                }
                Self::store(
                    &mut out[i * n + cols.start..i * n + cols.end],
                    &acc,
                    epilogue,
                );
            }
            i += 1;
        }
    }

    /// Stores the first `out.len()` lanes of a finished accumulator row:
    /// as they are, or plus the epilogue's bias and, when it says so,
    /// clamped at zero — `(acc + b).max(0.0)`, the value separate bias and
    /// ReLU passes would store.
    #[inline(always)]
    fn store(out: &mut [f32], acc: &[f32; NR], epilogue: Epilogue) {
        let Some((bias, relu)) = epilogue else {
            out.copy_from_slice(&acc[..out.len()]);
            return;
        };
        for ((o, &acc), &b) in out.iter_mut().zip(acc).zip(bias) {
            *o = if relu { (acc + b).max(0.0) } else { acc + b };
        }
    }
}

/// What the packed kernel adds to each finished sum before storing it: a
/// bias (one value per output column, sliced to the tile's columns) and
/// whether ReLU follows it; `None` stores the bare product.
type Epilogue<'b> = Option<(&'b [f32], bool)>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference: `out = a · b`, each `out[i][j]` summing
    /// `a[i][k] * b[k][j]` over `k` in ascending order from `+0.0` — the
    /// loop nest both GEMM entry points must match bit for bit.
    fn gemm_ref_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        assert_eq!((a.len(), b.len(), out.len()), (m * k, k * n, m * n));
        out.fill(0.0);
        for i in 0..m {
            for kk in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
    }

    fn dummy(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.73).cos()).collect();
        (a, b)
    }

    #[test]
    fn kernels_match_reference_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 8),
            (5, 7, 9),
            (3, 128, 32),
            (17, 8, 128),
            (1, 128, 1),
            (12, 1, 40),
            (0, 5, 3),
            (2, 0, 3),
            (3, 4, 0),
            (0, 0, 0),
        ] {
            let (a, b) = dummy(m, k, n);
            let shape = format!("m={m} k={k} n={n}");
            let mut want = vec![0.0f32; m * n];
            gemm_ref_into(&a, &b, m, k, n, &mut want);
            // Outputs start dirty: every element must be written.
            let mut got = vec![f32::NAN; m * n];
            gemm_into(&a, &b, m, k, n, &mut got);
            assert_eq!(bits(&want), bits(&got), "free gemm_into, {shape}");
            let mut got = vec![f32::NAN; m * n];
            PackedGemm::pack(&b, k, n).gemm_into(&a, m, &mut got);
            assert_eq!(bits(&want), bits(&got), "kept pack, {shape}");
        }
    }

    #[test]
    fn at_b_is_the_transposed_product_with_the_zero_skip() {
        // a: 2x3, b: 2x2 → aᵀ·b: 3x2, folded into `out` at scale 2.
        let a = [1.0, 2.0, 0.0, 4.0, 5.0, 0.0];
        let mut out = [1.0f32; 6];
        at_b_into((&a, 3), (&[1.0, 0.0, 0.0, 1.0], 2), 2, 2, 2.0, &mut out);
        assert_eq!(out, [3.0, 9.0, 5.0, 11.0, 1.0, 1.0]);
        // A zero entry of `a` is skipped, not multiplied: its row of the
        // product stays put even against a non-finite `b`.
        at_b_into((&a, 3), (&[f32::INFINITY; 2], 0), 2, 2, 1.0, &mut out);
        assert_eq!(out[4..], [1.0, 1.0]);
    }

    #[test]
    fn sum_kernel_over_a_transposed_pack_is_the_scalar_dot() {
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 9), (3, 32, 128), (4, 64, 32), (9, 1, 17)] {
            // `a`: m × k upstream rows; `w`: n × k weights, one row per output.
            let (a, w) = dummy(m, k, n);
            let mut packed = PackedGemm::default();
            packed.repack_transposed(&w, n, k);
            assert_eq!((packed.k, packed.n), (k, n));
            let mut got = vec![0.0f32; m * n];
            packed.gemm_sum_into(&a, m, &mut got);
            for i in 0..m {
                for j in 0..n {
                    let dot: f32 = (0..k).map(|kk| a[i * k + kk] * w[j * k + kk]).sum();
                    assert_eq!(got[i * n + j].to_bits(), dot.to_bits(), "m={m} k={k} n={n}");
                }
            }
        }
        // No terms: the empty sum, `-0.0`.
        let mut packed = PackedGemm::default();
        packed.repack_transposed(&[], 3, 0);
        let mut out = vec![1.0f32; 6];
        packed.gemm_sum_into(&[], 2, &mut out);
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn pack_round_trips_through_identity() {
        // Multiplying by identity reproduces the packed operand row by row.
        let (_, b) = dummy(0, 5, 11);
        let packed = PackedGemm::pack(&b, 5, 11);
        let eye: Vec<f32> = (0..25)
            .map(|i| if i % 6 == 0 { 1.0 } else { 0.0 })
            .collect();
        let mut out = vec![0.0f32; 55];
        packed.gemm_into(&eye, 5, &mut out);
        assert_eq!(out, b);
    }
}
