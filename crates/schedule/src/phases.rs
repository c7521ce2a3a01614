//! Folding per-stream totals into microbatch times via the interference
//! model (Eq. 5/6).

use mist_graph::StagePoint;
use mist_interference::InterferenceModel;
use serde::{Deserialize, Serialize};

/// The `(t, d)` decomposition of a stage's runtime (paper Fig. 10):
/// `t` is the stable-microbatch wall-clock; `d` the extra wall-clock the
/// first and last microbatches add on top of one stable microbatch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageStreams {
    /// Stable microbatch time `t` (seconds).
    pub t: f64,
    /// First/last-microbatch delta `d` (seconds, ≥ 0).
    pub d: f64,
}

/// Computes `t = I(fwd) + I(bwd)` and
/// `d = I(fwd + first_extra) + I(bwd + last_extra) − t` for one stage
/// point (Eq. 5/6). Interference is applied *within* each phase: forward
/// transfers overlap forward compute, never backward compute.
pub fn stage_times(point: &StagePoint, model: &InterferenceModel) -> StageStreams {
    let i = |streams: [f64; 4]| model.predict(StagePoint::interference_tuple(streams));
    let t = i(point.fwd) + i(point.bwd);
    let first = add(point.fwd, point.first_extra);
    let last = add(point.bwd, point.last_extra);
    let d = (i(first) + i(last) - t).max(0.0);
    StageStreams { t, d }
}

fn add(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]
}

/// Rows per chunk of [`stage_times_columns`]; its scratch columns
/// (two summed phases and four predictions, 24 KiB) live on the stack.
const CHUNK: usize = 256;

/// Columnar [`stage_times`]: `(t[r], d[r])` for every row `r` of sixteen
/// stream columns, bit for bit what [`stage_times`] gives for the point
/// whose `fwd`, `bwd`, `first_extra` and `last_extra` are
/// `streams[0..4]`, `[4..8]`, `[8..12]` and `[12..16]` at row `r` (the
/// stage program's root order). The four interference predictions run
/// through [`InterferenceModel::predict_columns`], the batched
/// Algorithm 1, one chunk of rows at a time.
///
/// # Panics
///
/// Panics if `d` or a stream column is not as long as `t`.
pub fn stage_times_columns(
    streams: [&[f64]; 16],
    model: &InterferenceModel,
    t: &mut [f64],
    d: &mut [f64],
) {
    let n = t.len();
    assert!(
        d.len() == n && streams.iter().all(|c| c.len() == n),
        "stage-time columns must have {n} rows"
    );
    let mut first = [[0.0; CHUNK]; 4];
    let mut last = [[0.0; CHUNK]; 4];
    // `I(fwd)`, `I(bwd)`, `I(first)`, `I(last)`.
    let mut pred = [[0.0; CHUNK]; 4];
    for c0 in (0..n).step_by(CHUNK) {
        let m = CHUNK.min(n - c0);
        let col = |i: usize| &streams[i][c0..c0 + m];
        for k in 0..4 {
            for (r, (f, l)) in first[k][..m].iter_mut().zip(&mut last[k][..m]).enumerate() {
                *f = col(k)[r] + col(8 + k)[r];
                *l = col(4 + k)[r] + col(12 + k)[r];
            }
        }
        let phases: [[&[f64]; 4]; 4] = [
            std::array::from_fn(col),
            std::array::from_fn(|k| col(4 + k)),
            std::array::from_fn(|k| &first[k][..m]),
            std::array::from_fn(|k| &last[k][..m]),
        ];
        for (p, phase) in pred.iter_mut().zip(phases) {
            model.predict_columns(StagePoint::interference_tuple(phase), &mut p[..m]);
        }
        let [i_fwd, i_bwd, i_first, i_last] = &pred;
        for r in 0..m {
            let tr = i_fwd[r] + i_bwd[r];
            t[c0 + r] = tr;
            d[c0 + r] = (i_first[r] + i_last[r] - tr).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn point() -> StagePoint {
        StagePoint {
            mem_fwd: 0.0,
            mem_bwd: 0.0,
            mem_resident: 0.0,
            mem_act_per_mb: 0.0,
            mem_transient_fwd: 0.0,
            mem_transient_bwd: 0.0,
            fwd: [10e-3, 2e-3, 1e-3, 1e-3],
            bwd: [20e-3, 2e-3, 0.0, 2e-3],
            first_extra: [3e-3, 1e-3, 0.0, 4e-3],
            last_extra: [0.0, 5e-3, 2e-3, 0.0],
        }
    }

    #[test]
    fn stable_time_reflects_overlap() {
        let m = InterferenceModel::pcie_defaults();
        let st = stage_times(&point(), &m);
        // Never better than pure compute, never worse than serial sum.
        assert!(st.t >= 30e-3);
        let serial: f64 = point().fwd.iter().sum::<f64>() + point().bwd.iter().sum::<f64>();
        assert!(st.t < serial);
    }

    #[test]
    fn delta_is_nonnegative_and_grows_with_extras() {
        let m = InterferenceModel::pcie_defaults();
        let mut p = point();
        let d1 = stage_times(&p, &m).d;
        p.first_extra[3] *= 4.0;
        let d2 = stage_times(&p, &m).d;
        assert!(d1 >= 0.0);
        assert!(d2 > d1);
    }

    #[test]
    fn extras_can_hide_inside_compute() {
        // A small extra transfer under a long compute phase costs almost
        // nothing extra — the overlap-centric schedule at work.
        let m = InterferenceModel::nvlink_defaults();
        let p = StagePoint {
            mem_fwd: 0.0,
            mem_bwd: 0.0,
            mem_resident: 0.0,
            mem_act_per_mb: 0.0,
            mem_transient_fwd: 0.0,
            mem_transient_bwd: 0.0,
            fwd: [50e-3, 0.0, 0.0, 0.0],
            bwd: [100e-3, 0.0, 0.0, 0.0],
            first_extra: [0.0, 0.0, 0.0, 5e-3],
            last_extra: [0.0, 0.0, 0.0, 0.0],
        };
        let st = stage_times(&p, &m);
        assert!(st.d < 1e-3, "delta {} should be mostly hidden", st.d);
    }

    #[test]
    fn zero_extras_give_zero_delta() {
        let m = InterferenceModel::pcie_defaults();
        let mut p = point();
        p.first_extra = [0.0; 4];
        p.last_extra = [0.0; 4];
        let st = stage_times(&p, &m);
        assert!(st.d.abs() < 1e-12);
    }

    /// Bits with every NaN mapped to one pattern (Rust leaves NaN
    /// payloads unspecified).
    fn bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Checks [`stage_times_columns`] against [`stage_times`] row by row.
    fn check(m: &InterferenceModel, rows: &[[f64; 16]]) -> Result<(), String> {
        let cols: Vec<Vec<f64>> = (0..16)
            .map(|i| rows.iter().map(|r| r[i]).collect())
            .collect();
        let n = rows.len();
        let (mut t, mut d) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        stage_times_columns(std::array::from_fn(|i| &cols[i][..]), m, &mut t, &mut d);
        for (r, row) in rows.iter().enumerate() {
            let quad = |b: usize| [row[b], row[b + 1], row[b + 2], row[b + 3]];
            let mut p = point();
            (p.fwd, p.bwd, p.first_extra, p.last_extra) = (quad(0), quad(4), quad(8), quad(12));
            let st = stage_times(&p, m);
            if bits(t[r]) != bits(st.t) || bits(d[r]) != bits(st.d) {
                return Err(format!(
                    "row {r} of {n}: {row:?} gives ({}, {}), stage_times ({}, {})",
                    t[r], d[r], st.t, st.d
                ));
            }
        }
        Ok(())
    }

    /// The default tables treat H2D and D2H alike; the third does not,
    /// so a stream-order slip shows up in more than rounding.
    fn models() -> [InterferenceModel; 3] {
        [
            InterferenceModel::pcie_defaults(),
            InterferenceModel::nvlink_defaults(),
            InterferenceModel::from_pairwise(|i, j| 1.0 + 0.1 * (4 * i + j) as f64),
        ]
    }

    /// Stream seconds: ordinary values, exact repeats (ties), and the
    /// non-finite, signed-zero, subnormal and negative edge cases.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0f64..20e-3,
            prop::sample::select(vec![0.0, 0.0, 1e-3, 2e-3, 4e-3]),
            prop::sample::select(vec![-0.0, f64::INFINITY, f64::NAN, 5e-324, -1e-3, 1e-15,]),
        ]
    }

    fn row() -> impl Strategy<Value = [f64; 16]> {
        prop::collection::vec(value(), 16).prop_map(|v| std::array::from_fn(|i| v[i]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn columns_match_stage_times(
            rows in prop::collection::vec(row(), 0..=40),
            which in 0usize..3,
        ) {
            if let Err(e) = check(&models()[which], &rows) {
                prop_assert!(false, "{e}");
            }
        }
    }

    #[test]
    fn columns_match_stage_times_across_chunks() {
        let p = point();
        for m in models() {
            for n in [0, 1, 7, 8, 9, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 9] {
                let rows: Vec<[f64; 16]> = (0..n)
                    .map(|r| {
                        let s = 1.0 + (r % 13) as f64 * 0.07;
                        let streams = [p.fwd, p.bwd, p.first_extra, p.last_extra];
                        std::array::from_fn(|i| {
                            let v = streams[i / 4][i % 4];
                            // Idle streams in a rotating pattern.
                            if (r + i) % 5 == 0 {
                                0.0
                            } else {
                                v * s
                            }
                        })
                    })
                    .collect();
                check(&m, &rows).unwrap();
            }
        }
    }
}
