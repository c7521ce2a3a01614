//! Batched Algorithm 1: one pass over the stream columns of many rows.
//!
//! [`InterferenceModel::predict_columns`] resolves a whole batch of
//! 4-tuples, stored as four stream columns, into one wall-clock time per
//! row. On `x86_64` CPUs with AVX-512F it runs eight rows per vector
//! with no branches inside a vector; everywhere else, and for the tail
//! rows that do not fill a vector, it calls the scalar
//! [`InterferenceModel::predict`] per row. The tier is picked at runtime
//! with `is_x86_feature_detected!`, like the compiled stage programs of
//! `mist-symbolic`.
//!
//! See [`InterferenceModel::predict_columns`] for why the two tiers
//! agree bit for bit.

use crate::model::{InterferenceModel, NUM_STREAMS};

/// Masks the 4-bit live set can take: one factor-table entry each.
const MASKS: usize = 1 << NUM_STREAMS;

/// Instruction-set tier a batch runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// `predict` per row.
    Scalar,
    /// Eight rows per AVX-512F vector, `predict` for the tail.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Tier {
    /// The best tier the running CPU supports.
    fn detect() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            return Tier::Avx512;
        }
        Tier::Scalar
    }
}

impl InterferenceModel {
    /// Batched Algorithm 1: `out[r] = self.predict([x[0][r], x[1][r],
    /// x[2][r], x[3][r]])` for every row `r`, bit for bit, with the
    /// columns in [`StreamKind`](crate::StreamKind) order.
    ///
    /// # Exactness
    ///
    /// The AVX-512 tier is bit-identical to `predict`, row by row (NaN
    /// payloads aside, which Rust leaves unspecified). Each lane performs
    /// the same IEEE operations in the same order:
    ///
    /// * the live mask is `x > 0` per stream, as in `predict`;
    /// * each lane's factors are the 16-entry factor column of each stream,
    ///   indexed by that lane's own mask (a two-table `permutex2var` lookup),
    ///   so a lane sees exactly `factors[mask]`;
    /// * the overlap is the minimum of `x · f` over the live streams (in a
    ///   tree, which picks the same value: no candidate is NaN or `−0`), the
    ///   remaining times are `max(x · f − overlap, 0) / f`, flushed to zero
    ///   below `1e-15`, and only lanes with at least two live streams are
    ///   updated (masked selects stand in for `predict`'s early return);
    /// * the final sum folds `−0.0 + x₀ + x₁ + x₂ + x₃` left to right, as
    ///   `Iterator::sum` does, and is added to the accumulated overlap.
    ///
    /// Every round retires at least one stream of each updated lane (the
    /// stream that attains the minimum has nothing left), so three rounds
    /// bring every lane to at most one live stream, the point where
    /// `predict` stops. The vector `min`/`max` instructions differ from
    /// `f64::min`/`f64::max` only on NaN operands and on `+0`/`−0` ties.
    /// With positive factors neither reaches them: a live `x · f` is never
    /// NaN or `−0`, and `x · f − overlap` is never `−0`; its NaN (from
    /// `∞ − ∞`) goes to the operand order that returns `0`, as `f64::max`
    /// does. The vector tier therefore runs only when every factor is
    /// positive (NaN excluded), which every table [`InterferenceModel`]
    /// builds satisfies (`from_pairwise` and `fit` keep factors ≥ 1); any
    /// other table runs the scalar tier.
    ///
    /// # Panics
    ///
    /// Panics if a column's length differs from `out.len()`.
    ///
    /// # Example
    ///
    /// ```
    /// use mist_interference::InterferenceModel;
    ///
    /// let m = InterferenceModel::pcie_defaults();
    /// let (c, n, h, d) = ([10e-3, 1e-3], [0.0, 2e-3], [5e-3, 0.0], [0.0, 1e-3]);
    /// let mut out = [0.0; 2];
    /// m.predict_columns([&c, &n, &h, &d], &mut out);
    /// assert_eq!(out[0].to_bits(), m.predict([10e-3, 0.0, 5e-3, 0.0]).to_bits());
    /// assert_eq!(out[1].to_bits(), m.predict([1e-3, 2e-3, 0.0, 1e-3]).to_bits());
    /// ```
    pub fn predict_columns(&self, x: [&[f64]; NUM_STREAMS], out: &mut [f64]) {
        self.predict_columns_on(Tier::detect(), x, out);
    }

    /// [`Self::predict_columns`] on an explicit tier (tests pin the
    /// scalar tier here on any CPU).
    fn predict_columns_on(&self, tier: Tier, x: [&[f64]; NUM_STREAMS], out: &mut [f64]) {
        let n = out.len();
        assert!(
            x.iter().all(|c| c.len() == n),
            "stream columns must have {n} rows"
        );
        let done = match tier {
            Tier::Scalar => 0,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => match FactorColumns::positive(self) {
                // SAFETY: `Tier::Avx512` is only chosen after detecting
                // AVX-512F on the running CPU, and every column was just
                // checked to hold `out.len()` rows.
                Some(f) => unsafe { avx512::predict(&f, x, out) },
                None => 0,
            },
        };
        for (r, o) in out.iter_mut().enumerate().skip(done) {
            *o = self.predict([x[0][r], x[1][r], x[2][r], x[3][r]]);
        }
    }
}

/// The factor table transposed to one 16-entry column per stream:
/// `0[i][mask] = factors[mask][i]`.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct FactorColumns([[f64; MASKS]; NUM_STREAMS]);

#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
impl FactorColumns {
    /// The transposed table, or `None` unless every factor is positive
    /// (the precondition of the vector tier's exactness).
    fn positive(model: &InterferenceModel) -> Option<FactorColumns> {
        let mut cols = [[0.0; MASKS]; NUM_STREAMS];
        for (mask, row) in model.factors().iter().enumerate() {
            for (col, &f) in cols.iter_mut().zip(row) {
                if f.is_nan() || f <= 0.0 {
                    return None;
                }
                col[mask] = f;
            }
        }
        Some(FactorColumns(cols))
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::{FactorColumns, NUM_STREAMS};

    /// Rows per vector.
    const LANES: usize = 8;

    /// Vector constants shared by every block of rows.
    struct Consts {
        /// Factor columns, entries `0..8` and `8..16` of each stream.
        lo: [__m512d; NUM_STREAMS],
        hi: [__m512d; NUM_STREAMS],
        /// `1 << i` per stream: the stream's bit in a lane's mask.
        bit: [__m512i; NUM_STREAMS],
    }

    /// Algorithm 1 over the leading whole vectors of `x`; returns the
    /// number of rows written (a multiple of [`LANES`]).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and every column of `x` must have
    /// at least `out.len()` rows.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn predict(
        f: &FactorColumns,
        x: [&[f64]; NUM_STREAMS],
        out: &mut [f64],
    ) -> usize {
        let mut c = Consts {
            lo: [_mm512_setzero_pd(); NUM_STREAMS],
            hi: [_mm512_setzero_pd(); NUM_STREAMS],
            bit: [_mm512_setzero_si512(); NUM_STREAMS],
        };
        for i in 0..NUM_STREAMS {
            c.lo[i] = _mm512_loadu_pd(f.0[i].as_ptr());
            c.hi[i] = _mm512_loadu_pd(f.0[i][LANES..].as_ptr());
            c.bit[i] = _mm512_set1_epi64(1 << i);
        }
        // Two vectors per block keep the divider busy while one
        // vector's dependency chain waits; more spill registers. Every
        // block ends at or before `out.len()`, which the caller
        // guarantees every column holds, so `block`'s bounds hold.
        let mut r = 0;
        while r + 2 * LANES <= out.len() {
            block::<2>(&c, x, out, r);
            r += 2 * LANES;
        }
        while r + LANES <= out.len() {
            block::<1>(&c, x, out, r);
            r += LANES;
        }
        r
    }

    /// Algorithm 1 for rows `r .. r + V·LANES`, `V` vectors side by side.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and `out` and every column of `x`
    /// must hold at least `r + V·LANES` rows.
    // Index loops walk the parallel per-stream arrays together.
    #[allow(clippy::needless_range_loop)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn block<const V: usize>(
        c: &Consts,
        x: [&[f64]; NUM_STREAMS],
        out: &mut [f64],
        r: usize,
    ) {
        let zero = _mm512_setzero_pd();
        let inf = _mm512_set1_pd(f64::INFINITY);
        let flush = _mm512_set1_pd(1e-15);
        let mut xs = [[zero; NUM_STREAMS]; V];
        for (v, xv) in xs.iter_mut().enumerate() {
            for (i, xi) in xv.iter_mut().enumerate() {
                *xi = _mm512_loadu_pd(x[i].as_ptr().add(r + v * LANES));
            }
        }
        let mut total = [zero; V];
        // Each round retires a stream in every updated lane.
        for _ in 1..NUM_STREAMS {
            let mut live = [[0u8; NUM_STREAMS]; V];
            let mut active = [0u8; V];
            for v in 0..V {
                for i in 0..NUM_STREAMS {
                    live[v][i] = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(xs[v][i], zero);
                }
                // Lanes with at least two live streams.
                let l = live[v];
                active[v] = (l[0] & (l[1] | l[2] | l[3])) | (l[1] & (l[2] | l[3])) | (l[2] & l[3]);
            }
            if active == [0; V] {
                break;
            }
            for v in 0..V {
                let mut mask = _mm512_setzero_si512();
                for i in 0..NUM_STREAMS {
                    mask = _mm512_or_si512(mask, _mm512_maskz_mov_epi64(live[v][i], c.bit[i]));
                }
                let mut fs = [zero; NUM_STREAMS];
                let mut scaled = [zero; NUM_STREAMS];
                let mut cand = [inf; NUM_STREAMS];
                for i in 0..NUM_STREAMS {
                    fs[i] = _mm512_permutex2var_pd(c.lo[i], mask, c.hi[i]);
                    scaled[i] = _mm512_mul_pd(xs[v][i], fs[i]);
                    cand[i] = _mm512_mask_mov_pd(inf, live[v][i], scaled[i]);
                }
                // Neither NaN nor `−0` among the candidates, so the
                // tree order picks the same value as a left fold.
                let overlap = _mm512_min_pd(
                    _mm512_min_pd(cand[0], cand[1]),
                    _mm512_min_pd(cand[2], cand[3]),
                );
                total[v] = _mm512_mask_add_pd(total[v], active[v], total[v], overlap);
                for i in 0..NUM_STREAMS {
                    let left = _mm512_max_pd(_mm512_sub_pd(scaled[i], overlap), zero);
                    let left = _mm512_div_pd(left, fs[i]);
                    let tiny = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(left, flush);
                    let left = _mm512_mask_mov_pd(left, tiny, zero);
                    xs[v][i] = _mm512_mask_mov_pd(xs[v][i], live[v][i] & active[v], left);
                }
            }
        }
        for v in 0..V {
            let mut sum = _mm512_set1_pd(-0.0);
            for xi in xs[v] {
                sum = _mm512_add_pd(sum, xi);
            }
            let t = _mm512_add_pd(total[v], sum);
            _mm512_storeu_pd(out.as_mut_ptr().add(r + v * LANES), t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every tier this CPU can run, the scalar fallback included.
    fn tiers() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar];
        if Tier::detect() != Tier::Scalar {
            tiers.push(Tier::detect());
        }
        tiers
    }

    /// Bits with every NaN mapped to one pattern: Rust leaves NaN
    /// payloads unspecified, so only "is NaN" is comparable.
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Checks every tier against `predict`, row by row.
    fn check(m: &InterferenceModel, rows: &[[f64; NUM_STREAMS]]) -> Result<(), String> {
        let cols: Vec<Vec<f64>> = (0..NUM_STREAMS)
            .map(|i| rows.iter().map(|r| r[i]).collect())
            .collect();
        for tier in tiers() {
            let mut out = vec![f64::NAN; rows.len()];
            m.predict_columns_on(tier, [&cols[0], &cols[1], &cols[2], &cols[3]], &mut out);
            for (r, row) in rows.iter().enumerate() {
                let want = m.predict(*row);
                if bits(out[r]) != bits(want) {
                    return Err(format!(
                        "{tier:?} row {r} of {}: {row:?} gives {} ({:#x}), predict {want} ({:#x})",
                        rows.len(),
                        out[r],
                        out[r].to_bits(),
                        want.to_bits()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Stream values: ordinary times plus zeros of both signs, ∞, NaN,
    /// subnormals, negatives and tiny values near the flush threshold.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            1e-6f64..50e-3,
            prop::sample::select(vec![1e-3, 2e-3, 4e-3, 1.2e-3, 5e-3]),
            prop::sample::select(vec![
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                f64::MIN_POSITIVE,
                5e-324,
                1e-300,
                -1e-3,
                1e-15,
                9e-16,
                f64::MAX,
            ]),
        ]
    }

    /// A row with a forced live mask (`mask` bit clear → idle value).
    fn row() -> impl Strategy<Value = [f64; NUM_STREAMS]> {
        (
            0u8..16,
            (value(), value(), value(), value()),
            prop::sample::select(vec![0.0, -0.0, -1e-3, f64::NAN]),
        )
            .prop_map(|(mask, (a, b, c, d), idle)| {
                let mut x = [a, b, c, d];
                for (i, v) in x.iter_mut().enumerate() {
                    if mask & (1 << i) == 0 {
                        *v = idle;
                    }
                }
                x
            })
    }

    /// Rows whose scaled times tie under `m`: `x_i = c / f_i` for the
    /// full mask, so several streams can finish in the same round.
    fn tie_rows(m: &InterferenceModel, c: f64) -> Vec<[f64; NUM_STREAMS]> {
        (1..MASKS)
            .map(|mask| {
                let f = m.factors()[mask];
                std::array::from_fn(|i| if mask & (1 << i) != 0 { c / f[i] } else { 0.0 })
            })
            .collect()
    }

    fn fitted() -> InterferenceModel {
        let truth = InterferenceModel::from_pairwise(|i, j| if i == j { 1.0 } else { 1.3 });
        let samples: Vec<([f64; NUM_STREAMS], f64)> = (0..60)
            .map(|k| {
                let x = [
                    1e-3 * (1 + k % 7) as f64,
                    if k % 2 == 0 {
                        0.5e-3 * (k % 5) as f64
                    } else {
                        0.0
                    },
                    if k % 3 == 0 { 0.7e-3 } else { 0.0 },
                    if k % 4 == 0 { 0.3e-3 } else { 0.0 },
                ];
                (x, truth.predict(x))
            })
            .collect();
        crate::fit(&InterferenceModel::pcie_defaults(), &samples, 300, 3).0
    }

    fn named_models() -> Vec<InterferenceModel> {
        vec![
            InterferenceModel::pcie_defaults(),
            InterferenceModel::nvlink_defaults(),
            fitted(),
        ]
    }

    /// A random positive factor table, some entries below 1. Half the
    /// tables use powers of two only, so products with the power-of-two
    /// multiples among the stream values tie exactly.
    fn random_model() -> impl Strategy<Value = InterferenceModel> {
        let factor = prop_oneof![0.25f64..4.0, prop::sample::select(vec![0.5, 1.0, 2.0, 4.0]),];
        prop::collection::vec(factor, MASKS * NUM_STREAMS).prop_map(|v| {
            InterferenceModel::from_factors(
                v.chunks(NUM_STREAMS)
                    .map(|c| [c[0], c[1], c[2], c[3]])
                    .collect(),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn columns_match_predict_on_named_tables(
            rows in prop::collection::vec(row(), 0..=17),
            which in 0usize..3,
        ) {
            let m = &named_models()[which];
            if let Err(e) = check(m, &rows) {
                prop_assert!(false, "{e}");
            }
        }

        #[test]
        fn columns_match_predict_on_random_tables(
            m in random_model(),
            rows in prop::collection::vec(row(), 0..=17),
        ) {
            if let Err(e) = check(&m, &rows) {
                prop_assert!(false, "{e}");
            }
        }
    }

    #[test]
    fn every_live_mask_and_length_around_the_vector_width() {
        let base = [7e-3, 3e-3, 2e-3, 1e-3];
        for m in named_models() {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 24, 33] {
                let rows: Vec<_> = (0..len)
                    .map(|k| {
                        let mask = k % MASKS;
                        std::array::from_fn(|i| {
                            if mask & (1 << i) != 0 {
                                base[i] * (1.0 + k as f64 * 0.1)
                            } else {
                                0.0
                            }
                        })
                    })
                    .collect();
                check(&m, &rows).unwrap();
            }
        }
    }

    #[test]
    fn ties_retire_several_streams_in_one_round() {
        for m in named_models() {
            for c in [1e-3, 3.7e-3, f64::INFINITY, 5e-324] {
                check(&m, &tie_rows(&m, c)).unwrap();
            }
        }
    }

    #[test]
    fn tables_with_nonpositive_factors_run_the_scalar_tier() {
        let mut factors = InterferenceModel::pcie_defaults().factors().to_vec();
        factors[0b0011][0] = 0.0;
        factors[0b1111][2] = -1.0;
        let m = InterferenceModel::from_factors(factors);
        assert!(FactorColumns::positive(&m).is_none());
        let rows: Vec<_> = (0..20)
            .map(|k| {
                [
                    1e-3 * k as f64,
                    2e-3,
                    if k % 2 == 0 { 1e-3 } else { 0.0 },
                    4e-3,
                ]
            })
            .collect();
        check(&m, &rows).unwrap();
    }
}
