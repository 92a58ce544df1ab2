//! Fused, cache-blocked inner-loop kernels for the transformer hot path.
//!
//! RAGE's explanation search spends essentially all of its time in repeated
//! forward passes — in production the read-out path
//! [`Transformer::forward_readout`](crate::transformer::Transformer::forward_readout),
//! which shares its layer driver with the full-record
//! [`Transformer::forward_cached`](crate::transformer::Transformer::forward_cached)
//! — and within one pass the `O(tokens²)` attention score/softmax/mix loops
//! dominate. This module is the optimised implementation of those loops:
//! flat row-major buffers instead of `Vec<Vec<f64>>` pointer chasing,
//! four-way blocking so independent floating-point dependency chains
//! pipeline, and no per-query allocations. Both forwards call the same
//! kernels; the read-out path only calls them on fewer rows of the last
//! layer (every row for causal models, whose read-out sums the whole
//! prompt), so the contract below covers it unchanged.
//!
//! ## The bit-identity contract
//!
//! Every kernel in this module produces **bit-identical** `f64` results to
//! the straight-line reference loops in
//! [`Transformer::forward_reference`](crate::transformer::Transformer::forward_reference):
//! for each output scalar, the kernel performs exactly the same sequence of
//! IEEE-754 operations, in the same order, as the reference. Optimisations
//! are restricted to transformations that cannot change a rounded result:
//!
//! * **blocking / tiling** — loop structure changes, but the per-scalar
//!   operation sequence (e.g. the `d`-ascending accumulation of one dot
//!   product, or the `k`-ascending accumulation of one mixed value) does not;
//! * **flat buffers and copies** — moving an `f64` never rounds;
//! * **exact strength reduction** — `x / d` is replaced by `x * (1/d)` only
//!   when `d` is a power of two, where the reciprocal is exact and IEEE-754
//!   rounding makes the two expressions produce identical bits for every
//!   input (see [`exact_reciprocal`]).
//!
//! The contract is enforced by the differential suite in
//! `tests/kernel_equivalence.rs`, which compares fused and reference
//! forwards down to `f64::to_bits` across randomised prompts and model
//! configurations. Anything that would reassociate a reduction, fuse a
//! multiply-add, or reorder additions (true SIMD reductions, `fma`,
//! `-ffast-math`-style rewrites) is out of scope for *these* kernels — such
//! rewrites live behind [`KernelBackend::Simd`] instead.
//!
//! ## Backend selection and the re-baseline contract
//!
//! [`KernelBackend`] selects between two compiled-side-by-side
//! implementations at runtime:
//!
//! * [`KernelBackend::Scalar`] — the kernels in this module. Bit-identical
//!   to the reference; the oracle every other path is measured against.
//!   This is the default (and the backend all golden snapshots are pinned
//!   to) unless the `simd` cargo feature is enabled.
//! * [`KernelBackend::Simd`] — the lane-parallel kernels in [`simd`].
//!   Deliberately diverges from the oracle in the dot-product reductions
//!   (fixed 4-lane tree), the softmax `exp` (branch-free polynomial), the
//!   weight normalisation (reciprocal multiply instead of per-element
//!   division) and the value-mix head averaging (weight-folded, exact for
//!   power-of-two head counts); every divergence is deterministic and
//!   ULP-bounded, with the bounds measured and asserted in
//!   `tests/simd_equivalence.rs`. Selecting it is
//!   a *re-baseline event* for any byte-compared artifact downstream:
//!   attention read-outs shift by ULPs, so JSON reports rendered from a
//!   SIMD-backed model are not byte-identical to the scalar goldens. The
//!   workspace keeps all golden snapshots scalar-pinned; a deployment that
//!   flips the default via the `simd` feature must regenerate its goldens
//!   once (`report -- smoke --out-dir …` and the snapshot tests' bless
//!   flow) and record the flip in `crates/bench/baselines/BENCH_baseline.json`.
//!
//! Both backends are always compiled regardless of the feature flag — the
//! feature only flips [`KernelBackend::default`] — so the differential suite
//! can compare them in every build configuration.

pub mod simd;

/// Runtime selection between the scalar oracle kernels and the
/// lane-parallel [`simd`] kernels. See the module docs for the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The bit-identical scalar kernels in this module (the oracle).
    Scalar,
    /// The lane-parallel kernels in [`simd`]: faster, ULP-divergent in the
    /// dot reductions, the softmax `exp` and the weight normalisation,
    /// deterministic everywhere.
    Simd,
}

impl Default for KernelBackend {
    /// `Scalar` unless the crate is built with the `simd` cargo feature, in
    /// which case newly-constructed models default to the SIMD backend.
    fn default() -> Self {
        if cfg!(feature = "simd") {
            Self::Simd
        } else {
            Self::Scalar
        }
    }
}

impl KernelBackend {
    /// Backend-dispatched [`scores_into`].
    #[inline]
    pub fn scores_into(
        self,
        query: &[f64],
        keys: &[f64],
        key_dim: usize,
        scale: f64,
        out: &mut [f64],
    ) {
        match self {
            Self::Scalar => scores_into(query, keys, key_dim, scale, out),
            Self::Simd => simd::scores_into(query, keys, key_dim, scale, out),
        }
    }

    /// Backend-dispatched [`matvec_into`].
    #[inline]
    pub fn matvec_into(self, matrix: &[f64], rows: usize, cols: usize, x: &[f64], out: &mut [f64]) {
        match self {
            Self::Scalar => matvec_into(matrix, rows, cols, x, out),
            Self::Simd => simd::matvec_into(matrix, rows, cols, x, out),
        }
    }

    /// Backend-dispatched [`softmax_exp_inplace`].
    #[inline]
    pub fn softmax_exp_inplace(self, scores: &mut [f64]) -> f64 {
        match self {
            Self::Scalar => softmax_exp_inplace(scores),
            Self::Simd => simd::softmax_exp_inplace(scores),
        }
    }

    /// Backend-dispatched [`weights_inplace`]. The scalar backend divides
    /// every score by `sum`; the SIMD backend multiplies by the reciprocal
    /// instead (one division total), which diverges by ~2 ULP per weight —
    /// part of the SIMD backend's documented divergence contract.
    #[inline]
    pub fn weights_inplace(self, scores: &mut [f64], sum: f64) {
        match self {
            Self::Scalar => weights_inplace(scores, sum),
            Self::Simd => simd::weights_inplace(scores, sum),
        }
    }

    /// Backend-dispatched [`mix_accumulate`]. The SIMD backend folds the
    /// `1/heads` average into each weight once per key instead of once per
    /// element — bit-identical for power-of-two head counts (the default
    /// models), ULP-divergent otherwise; see [`simd::mix_accumulate`]. The
    /// SIMD *forward pass* additionally folds the per-head mixes into one
    /// combined pass — that restructuring lives in the transformer, not here.
    #[inline]
    pub fn mix_accumulate(
        self,
        weights: &[f64],
        values: &[f64],
        dim: usize,
        heads: f64,
        out: &mut [f64],
    ) {
        match self {
            Self::Scalar => mix_accumulate(weights, values, dim, heads, out),
            Self::Simd => simd::mix_accumulate(weights, values, dim, heads, out),
        }
    }

    /// Backend-dispatched [`residual_normalize`]. Shared between backends
    /// (bit-identical): the halving is elementwise and the norm reduction is
    /// kept sequential so the normalised rows match the oracle exactly.
    #[inline]
    pub fn residual_normalize(self, hidden: &mut [f64], mixed: &[f64], dim: usize) {
        residual_normalize(hidden, mixed, dim);
    }
}

/// Number of independent accumulator chains in the blocked kernels.
///
/// Four chains is enough to cover the latency of a scalar `mulsd`/`addsd`
/// pipeline on current x86-64 and AArch64 cores without spilling
/// accumulators to the stack.
const BLOCK: usize = 4;

/// `Some(1/d)` when multiplying by it is bit-identical to dividing by `d`.
///
/// That holds exactly when `d` is a (normal, finite) power of two: the
/// reciprocal is then exactly representable, `x / d` and `x * (1/d)` name
/// the same real number, and IEEE-754 round-to-nearest maps equal reals to
/// equal bit patterns. For any other divisor the rounded reciprocal would
/// introduce a second rounding step, so the caller must keep dividing.
pub fn exact_reciprocal(d: f64) -> Option<f64> {
    const MANTISSA_MASK: u64 = (1u64 << 52) - 1;
    if d.is_normal() && d > 0.0 && (d.to_bits() & MANTISSA_MASK) == 0 {
        let inv = 1.0 / d;
        // The reciprocal of a finite power of two can be infinite (d =
        // 2^-1022 has no normal reciprocal partner at the top of the range —
        // it does, 2^1022, but 2^1023 * 2 overflows); guard anyway.
        if inv.is_normal() {
            return Some(inv);
        }
    }
    None
}

/// Scaled dot-product scores of one query row against a block of key rows:
/// `out[k] = dot(query, keys[k]) * scale` for every row `k` of `keys`.
///
/// `keys` is a flat row-major `out.len() × key_dim` buffer. Keys are
/// processed `BLOCK` at a time with one independent accumulator each; every
/// accumulator starts at `-0.0` — the identity element `Iterator::sum`
/// uses for floats — and adds `query[d] * key[d]` in ascending `d` order,
/// which is exactly the operation sequence of the reference `dot(a, b)`
/// (`iter().zip().map(|(x, y)| x * y).sum()`). Starting at `+0.0` instead
/// would flip the sign of all-zero dots (`key_dim == 0`, or every product
/// `-0.0`): IEEE `+0.0 + -0.0` is `+0.0`, while `.sum()` yields `-0.0`.
pub fn scores_into(query: &[f64], keys: &[f64], key_dim: usize, scale: f64, out: &mut [f64]) {
    let n = out.len();
    assert_eq!(keys.len(), n * key_dim, "keys buffer shape mismatch");
    assert_eq!(query.len(), key_dim, "query length mismatch");
    let mut k = 0;
    while k + BLOCK <= n {
        let base = k * key_dim;
        let r0 = &keys[base..base + key_dim];
        let r1 = &keys[base + key_dim..base + 2 * key_dim];
        let r2 = &keys[base + 2 * key_dim..base + 3 * key_dim];
        let r3 = &keys[base + 3 * key_dim..base + 4 * key_dim];
        let (mut a0, mut a1, mut a2, mut a3) = (-0.0f64, -0.0f64, -0.0f64, -0.0f64);
        for d in 0..key_dim {
            let q = query[d];
            a0 += q * r0[d];
            a1 += q * r1[d];
            a2 += q * r2[d];
            a3 += q * r3[d];
        }
        out[k] = a0 * scale;
        out[k + 1] = a1 * scale;
        out[k + 2] = a2 * scale;
        out[k + 3] = a3 * scale;
        k += BLOCK;
    }
    while k < n {
        let row = &keys[k * key_dim..(k + 1) * key_dim];
        let mut acc = -0.0f64;
        for d in 0..key_dim {
            acc += query[d] * row[d];
        }
        out[k] = acc * scale;
        k += 1;
    }
}

/// Dense row-major matrix–vector product: `out[r] = dot(matrix.row(r), x)`.
///
/// Used for the per-head query/key projection of one token's hidden state.
/// Rows are blocked `BLOCK` at a time; each row's accumulation is the
/// reference `dot` sequence, so results are bit-identical to projecting row
/// by row.
pub fn matvec_into(matrix: &[f64], rows: usize, cols: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(matrix.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(out.len(), rows, "output length mismatch");
    // A matvec is the same computation as one unscaled score row with the
    // matrix rows as keys.
    scores_into(x, matrix, cols, 1.0, out);
}

/// Numerically-stable softmax, first half: subtract the row maximum and
/// exponentiate in place, returning the sum of the exponentials.
///
/// Identical operation order to the reference: the maximum is a
/// `fold(NEG_INFINITY, f64::max)` over the row, then each score becomes
/// `(s - max).exp()` in ascending order with the sum accumulated in the same
/// pass.
pub fn softmax_exp_inplace(scores: &mut [f64]) -> f64 {
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0f64;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    sum
}

/// Softmax, second half: divide every exponentiated score by `sum`, turning
/// the row into attention weights (one division per element, as in the
/// reference `weight = s / sum`).
pub fn weights_inplace(scores: &mut [f64], sum: f64) {
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

/// Fused value mix: accumulate the attention-weighted, head-averaged value
/// rows into one query's mixed vector.
///
/// For every key `k` (ascending) and dimension `d` the reference performs
/// `out[d] += weights[k] * values[k][d] / heads`; this kernel performs the
/// same per-scalar additions in the same `k` order, but processes `BLOCK`
/// key rows per pass over `out` so the accumulator row stays in registers.
/// When `heads` is a power of two the division is replaced by an exact
/// reciprocal multiplication (see [`exact_reciprocal`]); otherwise the
/// division is kept.
pub fn mix_accumulate(weights: &[f64], values: &[f64], dim: usize, heads: f64, out: &mut [f64]) {
    match exact_reciprocal(heads) {
        Some(inv) => mix_accumulate_with(weights, values, dim, out, |x| x * inv),
        None => mix_accumulate_with(weights, values, dim, out, |x| x / heads),
    }
}

#[inline(always)]
fn mix_accumulate_with(
    weights: &[f64],
    values: &[f64],
    dim: usize,
    out: &mut [f64],
    head_average: impl Fn(f64) -> f64,
) {
    let n = weights.len();
    assert_eq!(values.len(), n * dim, "values buffer shape mismatch");
    assert_eq!(out.len(), dim, "output row length mismatch");
    let mut k = 0;
    while k + BLOCK <= n {
        let base = k * dim;
        let r0 = &values[base..base + dim];
        let r1 = &values[base + dim..base + 2 * dim];
        let r2 = &values[base + 2 * dim..base + 3 * dim];
        let r3 = &values[base + 3 * dim..base + 4 * dim];
        let (w0, w1, w2, w3) = (weights[k], weights[k + 1], weights[k + 2], weights[k + 3]);
        for d in 0..dim {
            // One load/store of out[d] per four keys; the additions keep the
            // reference's ascending-k order per scalar.
            let mut acc = out[d];
            acc += head_average(w0 * r0[d]);
            acc += head_average(w1 * r1[d]);
            acc += head_average(w2 * r2[d]);
            acc += head_average(w3 * r3[d]);
            out[d] = acc;
        }
        k += BLOCK;
    }
    while k < n {
        let row = &values[k * dim..(k + 1) * dim];
        let w = weights[k];
        for d in 0..dim {
            out[d] += head_average(w * row[d]);
        }
        k += 1;
    }
}

/// Fused residual update + renormalisation over all token rows:
/// `hidden[t][d] = 0.5 * hidden[t][d] + 0.5 * mixed[t][d]`, then each row is
/// normalised to unit L2 norm with the shared
/// [`normalize`](crate::embedding::normalize) (identical operation order to
/// the reference's per-row loop).
///
/// ## Zero- and subnormal-norm rows
///
/// `normalize` guards its division with an epsilon: rows whose L2 norm is
/// `<= 1e-12` (all-zero rows, or rows of subnormal residuals whose squares
/// underflow) are left unscaled instead of being divided by (near-)zero.
/// A divide-by-zero here would send NaN through every downstream score and
/// defeat the report layer's `total_cmp` hardening, so the guard is part of
/// the kernel contract and pinned by `residual_normalize_never_produces_nan`
/// below. The same guard runs in the reference path (shared function), so
/// the two stay bit-identical even on degenerate rows.
///
/// ## Shape requirements
///
/// `dim` must be positive and divide the buffer length exactly; both are
/// asserted. (A non-dividing `dim` would previously skip the trailing
/// partial row silently — making it loud is part of the remainder-lane
/// hardening.) Empty buffers are a no-op for any positive `dim`.
pub fn residual_normalize(hidden: &mut [f64], mixed: &[f64], dim: usize) {
    assert_eq!(hidden.len(), mixed.len(), "buffer length mismatch");
    if hidden.is_empty() {
        return;
    }
    assert!(dim > 0, "row dimension must be positive");
    assert_eq!(
        hidden.len() % dim,
        0,
        "buffer length must be a multiple of dim"
    );
    for (h, m) in hidden.chunks_exact_mut(dim).zip(mixed.chunks_exact(dim)) {
        for d in 0..dim {
            h[d] = 0.5 * h[d] + 0.5 * m[d];
        }
        crate::embedding::normalize(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::dot;

    /// SplitMix64 step for test data generation.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_vec(state: &mut u64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
            .collect()
    }

    #[test]
    fn exact_reciprocal_accepts_only_powers_of_two() {
        assert_eq!(exact_reciprocal(2.0), Some(0.5));
        assert_eq!(exact_reciprocal(8.0), Some(0.125));
        assert_eq!(exact_reciprocal(1.0), Some(1.0));
        assert_eq!(exact_reciprocal(3.0), None);
        assert_eq!(exact_reciprocal(6.0), None);
        assert_eq!(exact_reciprocal(0.0), None);
        assert_eq!(exact_reciprocal(-2.0), None);
        assert_eq!(exact_reciprocal(f64::INFINITY), None);
        assert_eq!(exact_reciprocal(f64::NAN), None);
    }

    #[test]
    fn reciprocal_multiplication_matches_division_bitwise() {
        let mut state = 0xDEAD_BEEF;
        for heads in [1.0f64, 2.0, 4.0, 8.0] {
            let inv = exact_reciprocal(heads).unwrap();
            for x in random_vec(&mut state, 1000) {
                assert_eq!((x / heads).to_bits(), (x * inv).to_bits(), "x={x}");
            }
        }
    }

    #[test]
    fn scores_match_reference_dot_bitwise() {
        let mut state = 42;
        // Lengths around the block size exercise both loops and the tail.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            for key_dim in [1usize, 3, 16, 32] {
                let query = random_vec(&mut state, key_dim);
                let keys = random_vec(&mut state, n * key_dim);
                let scale = 1.75;
                let mut out = vec![0.0; n];
                scores_into(&query, &keys, key_dim, scale, &mut out);
                for k in 0..n {
                    let reference = dot(&query, &keys[k * key_dim..(k + 1) * key_dim]) * scale;
                    assert_eq!(out[k].to_bits(), reference.to_bits(), "n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn matvec_matches_row_dots_bitwise() {
        let mut state = 7;
        let (rows, cols) = (9, 32);
        let matrix = random_vec(&mut state, rows * cols);
        let x = random_vec(&mut state, cols);
        let mut out = vec![0.0; rows];
        matvec_into(&matrix, rows, cols, &x, &mut out);
        for r in 0..rows {
            let reference = dot(&matrix[r * cols..(r + 1) * cols], &x);
            assert_eq!(out[r].to_bits(), reference.to_bits(), "row {r}");
        }
    }

    #[test]
    fn softmax_matches_reference_bitwise() {
        let mut state = 99;
        for n in [1usize, 3, 4, 6, 17] {
            let scores = random_vec(&mut state, n);
            // Reference: straight-line loops from the original forward pass.
            let mut reference = scores.clone();
            let max = reference.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut ref_sum = 0.0;
            for s in reference.iter_mut() {
                *s = (*s - max).exp();
                ref_sum += *s;
            }
            let ref_weights: Vec<f64> = reference.iter().map(|s| s / ref_sum).collect();

            let mut fused = scores.clone();
            let sum = softmax_exp_inplace(&mut fused);
            assert_eq!(sum.to_bits(), ref_sum.to_bits());
            weights_inplace(&mut fused, sum);
            for (w, r) in fused.iter().zip(ref_weights.iter()) {
                assert_eq!(w.to_bits(), r.to_bits());
            }
        }
    }

    #[test]
    fn mix_matches_reference_bitwise_for_all_head_counts() {
        let mut state = 1234;
        for heads in [1usize, 2, 3, 4, 5, 8] {
            for n in [1usize, 2, 4, 5, 9, 12] {
                let dim = 16;
                let weights = random_vec(&mut state, n);
                let values = random_vec(&mut state, n * dim);
                let heads_f = heads as f64;

                let mut reference = random_vec(&mut state, dim);
                let mut fused = reference.clone();
                for k in 0..n {
                    for d in 0..dim {
                        reference[d] += weights[k] * values[k * dim + d] / heads_f;
                    }
                }
                mix_accumulate(&weights, &values, dim, heads_f, &mut fused);
                for d in 0..dim {
                    assert_eq!(
                        fused[d].to_bits(),
                        reference[d].to_bits(),
                        "heads={heads} n={n} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn residual_normalize_matches_reference_bitwise() {
        let mut state = 5678;
        let (n, dim) = (7, 32);
        let hidden = random_vec(&mut state, n * dim);
        let mixed = random_vec(&mut state, n * dim);

        let mut reference = hidden.clone();
        for t in 0..n {
            let row = &mut reference[t * dim..(t + 1) * dim];
            for d in 0..dim {
                row[d] = 0.5 * row[d] + 0.5 * mixed[t * dim + d];
            }
            crate::embedding::normalize(row);
        }

        let mut fused = hidden.clone();
        residual_normalize(&mut fused, &mixed, dim);
        for (f, r) in fused.iter().zip(reference.iter()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "keys buffer shape mismatch")]
    fn scores_rejects_bad_shapes() {
        let mut out = vec![0.0; 2];
        scores_into(&[1.0, 2.0], &[1.0, 2.0, 3.0], 2, 1.0, &mut out);
    }

    #[test]
    fn residual_normalize_never_produces_nan() {
        // Zero rows: residual of two zero rows has zero norm; the epsilon
        // guard in `normalize` must leave the row at zero, not NaN.
        let mut hidden = vec![0.0; 8];
        let mixed = vec![0.0; 8];
        residual_normalize(&mut hidden, &mixed, 4);
        assert!(hidden.iter().all(|x| *x == 0.0));

        // Subnormal rows: the squared norm underflows to ~0, tripping the
        // same guard; the row must come back finite (unscaled), never NaN.
        let tiny = f64::MIN_POSITIVE / 4.0; // subnormal
        let mut hidden = vec![tiny; 6];
        let mixed = vec![-tiny; 6];
        residual_normalize(&mut hidden, &mixed, 3);
        assert!(hidden.iter().all(|x| x.is_finite()), "{hidden:?}");

        // Opposite rows cancel exactly: 0.5*h + 0.5*(-h) == 0 per element.
        let mut hidden = vec![1.0, -2.0, 3.0];
        let mixed = vec![-1.0, 2.0, -3.0];
        residual_normalize(&mut hidden, &mixed, 3);
        assert_eq!(hidden, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn residual_normalize_empty_is_noop_for_any_dim() {
        let mut hidden: Vec<f64> = Vec::new();
        residual_normalize(&mut hidden, &[], 0);
        residual_normalize(&mut hidden, &[], 7);
        assert!(hidden.is_empty());
    }

    #[test]
    #[should_panic(expected = "row dimension must be positive")]
    fn residual_normalize_rejects_zero_dim_with_data() {
        let mut hidden = vec![1.0, 2.0];
        residual_normalize(&mut hidden, &[3.0, 4.0], 0);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn residual_normalize_rejects_partial_rows() {
        // A trailing partial row used to be skipped silently; now it's loud.
        let mut hidden = vec![1.0; 7];
        let mixed = vec![0.0; 7];
        residual_normalize(&mut hidden, &mixed, 4);
    }

    #[test]
    fn backend_default_tracks_feature_flag() {
        let expected = if cfg!(feature = "simd") {
            KernelBackend::Simd
        } else {
            KernelBackend::Scalar
        };
        assert_eq!(KernelBackend::default(), expected);
    }

    #[test]
    fn backend_dispatch_agrees_between_shared_kernels() {
        // At a power-of-two head count the SIMD mix's weight fold is exact,
        // so dispatching through either backend must be bitwise the scalar
        // kernel. (weights_inplace and non-power-of-two mixes ARE divergent,
        // pinned in tests/simd_equivalence.rs and kernels::simd::tests.)
        let mut state = 31337;
        let weights = random_vec(&mut state, 9);
        let values = random_vec(&mut state, 9 * 4);
        for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
            let mut a = vec![0.0; 4];
            backend.mix_accumulate(&weights, &values, 4, 2.0, &mut a);
            let mut b = vec![0.0; 4];
            mix_accumulate(&weights, &values, 4, 2.0, &mut b);
            assert_eq!(a, b);
        }
    }
}
