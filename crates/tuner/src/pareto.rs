//! Pareto-frontier extraction and sampling.
//!
//! Intra-stage tuning produces many `(t, d)` pairs per candidate; only the
//! non-dominated ones can appear in an optimal pipeline (paper §5.3). The
//! frontier is extracted exactly, then down-sampled to `K` points spread
//! along the trade-off — the equivalent of the paper's uniform `α`
//! sampling of `α·G·t + (1−α)·d`.

/// Returns the indices of the Pareto-optimal `(t, d)` points (minimizing
/// both), sorted by increasing `t`.
///
/// Duplicate-coordinate points keep only the first occurrence.
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
    });
    let mut out: Vec<usize> = Vec::new();
    let mut best_d = f64::INFINITY;
    let mut last_t = f64::NAN;
    for &i in &idx {
        let (t, d) = points[i];
        if t == last_t {
            continue; // Same t: the earlier (smaller-d) one dominates.
        }
        if d < best_d {
            out.push(i);
            best_d = d;
            last_t = t;
        }
    }
    out
}

/// Drops points that [`pareto_frontier`] can never keep, whatever other
/// points surround them: returns, in ascending order, the indices of the
/// points that survive a prefix-minimum-`d` filter in `(t, d, index)`
/// [`f64::total_cmp`] order.
///
/// Exactness: for any list `W` cut into contiguous chunks, running
/// [`pareto_frontier`] (and so [`sample_frontier`]) over the
/// concatenated per-chunk survivors selects the same points as running
/// it over `W`. A dropped point `p` has an earlier point `q` of its own
/// chunk with `q.d <= p.d`, and [`pareto_frontier`] never keeps a point
/// once such a `q` precedes it. That holds only when `q` cannot be
/// hidden by the frontier's equal-`t` skip, which compares with `==`
/// and so treats `-0.0` and `+0.0` as equal although the sort tells them
/// apart: a zero-`t` point may be skipped over the whole list without
/// its `d` ever entering the running minimum, so zero-`t` points never
/// tighten the filter here. For the same reason the filter itself must
/// not skip equal-`t` points. Points whose `d` is NaN or `+∞` are
/// dropped: the frontier never keeps them either.
pub fn prefilter(points: &[(f64, f64)]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
    });
    let mut keep: Vec<usize> = Vec::new();
    let mut best_d = f64::INFINITY;
    for &i in &idx {
        let (t, d) = points[i];
        if d < best_d {
            keep.push(i);
            if t != 0.0 {
                best_d = d;
            }
        }
    }
    keep.sort_unstable();
    keep
}

/// Down-samples a frontier (indices into `points`, sorted by `t`) to at
/// most `k` entries: always keeps both endpoints, fills the middle with
/// evenly spaced picks.
pub fn sample_frontier(frontier: &[usize], k: usize) -> Vec<usize> {
    assert!(k >= 1);
    if frontier.len() <= k {
        return frontier.to_vec();
    }
    if k == 1 {
        return vec![frontier[0]];
    }
    let mut out = Vec::with_capacity(k);
    let n = frontier.len();
    for j in 0..k {
        let pos = j * (n - 1) / (k - 1);
        out.push(frontier[pos]);
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominated_points_are_dropped() {
        let pts = vec![(1.0, 5.0), (2.0, 3.0), (3.0, 4.0), (4.0, 1.0), (2.5, 3.5)];
        let f = pareto_frontier(&pts);
        assert_eq!(f, vec![0, 1, 3]);
    }

    #[test]
    fn single_point_is_its_own_frontier() {
        assert_eq!(pareto_frontier(&[(1.0, 1.0)]), vec![0]);
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn all_nondominated_survive_in_t_order() {
        let pts = vec![(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)];
        let f = pareto_frontier(&pts);
        assert_eq!(f, vec![1, 2, 0]);
    }

    #[test]
    fn duplicates_keep_one() {
        let pts = vec![(1.0, 2.0), (1.0, 2.0), (1.0, 1.0)];
        let f = pareto_frontier(&pts);
        assert_eq!(f.len(), 1);
        assert_eq!(pts[f[0]], (1.0, 1.0));
    }

    #[test]
    fn sampling_keeps_endpoints() {
        let frontier: Vec<usize> = (0..20).collect();
        let s = sample_frontier(&frontier, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(*s.first().unwrap(), 0);
        assert_eq!(*s.last().unwrap(), 19);
    }

    #[test]
    fn sampling_never_exceeds_k_or_input() {
        let frontier: Vec<usize> = (0..3).collect();
        assert_eq!(sample_frontier(&frontier, 10), vec![0, 1, 2]);
        assert_eq!(sample_frontier(&frontier, 1), vec![0]);
    }

    #[test]
    fn infinite_t_points_never_dominate() {
        let pts = vec![(f64::INFINITY, 0.0), (1.0, 1.0)];
        let f = pareto_frontier(&pts);
        assert!(f.contains(&1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The points `pareto_frontier` + `sample_frontier` select, as
    /// indices into `points`.
    fn selected(points: &[(f64, f64)], k: usize) -> Vec<usize> {
        sample_frontier(&pareto_frontier(points), k)
    }

    /// The same selection, computed over the concatenated survivors of
    /// `filter` applied to each chunk (`cuts` are chunk end offsets).
    fn selected_chunked(
        points: &[(f64, f64)],
        cuts: &[usize],
        k: usize,
        filter: fn(&[(f64, f64)]) -> Vec<usize>,
    ) -> Vec<usize> {
        let mut origin: Vec<usize> = Vec::new();
        let mut start = 0;
        for &end in cuts.iter().chain(std::iter::once(&points.len())) {
            let end = end.clamp(start, points.len());
            origin.extend(filter(&points[start..end]).into_iter().map(|i| start + i));
            start = end;
        }
        let survivors: Vec<(f64, f64)> = origin.iter().map(|&i| points[i]).collect();
        selected(&survivors, k)
            .into_iter()
            .map(|i| origin[i])
            .collect()
    }

    /// The tempting "simplification": reuse `pareto_frontier` itself
    /// (with its equal-`t` skip) as the per-chunk filter.
    fn equal_t_skip_filter(points: &[(f64, f64)]) -> Vec<usize> {
        let mut keep = pareto_frontier(points);
        keep.sort_unstable();
        keep
    }

    /// A plain prefix minimum that lets zero-`t` points tighten it.
    fn plain_prefix_min_filter(points: &[(f64, f64)]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..points.len()).collect();
        idx.sort_by(|&a, &b| {
            points[a]
                .0
                .total_cmp(&points[b].0)
                .then(points[a].1.total_cmp(&points[b].1))
        });
        let mut best_d = f64::INFINITY;
        let mut keep: Vec<usize> = idx
            .into_iter()
            .filter(|&i| {
                let kept = points[i].1 < best_d;
                if kept {
                    best_d = points[i].1;
                }
                kept
            })
            .collect();
        keep.sort_unstable();
        keep
    }

    #[test]
    fn equal_t_skip_filter_is_not_exact() {
        // (+0.0, 1.0) is skipped inside its chunk behind (-0.0, 5.0),
        // but over the whole list (-1.0, 3.0) hides (-0.0, 5.0) and the
        // frontier keeps (+0.0, 1.0).
        let pts = [(-0.0, 5.0), (0.0, 1.0), (-1.0, 3.0)];
        let cuts = [2];
        assert_eq!(selected(&pts, 8), vec![2, 1]);
        assert_ne!(
            selected_chunked(&pts, &cuts, 8, equal_t_skip_filter),
            selected(&pts, 8)
        );
        assert_eq!(
            selected_chunked(&pts, &cuts, 8, prefilter),
            selected(&pts, 8)
        );
    }

    #[test]
    fn zero_t_points_must_not_tighten_the_prefilter() {
        // Over the whole list (+0.0, 1.0) is skipped as equal-`t` to
        // (-0.0, 5.0), so (0.5, 3.0) reaches the frontier; a filter that
        // let (+0.0, 1.0) tighten its chunk would drop (0.5, 3.0).
        let pts = [(0.0, 1.0), (0.5, 3.0), (-0.0, 5.0)];
        let cuts = [2];
        assert_eq!(selected(&pts, 8), vec![2, 1]);
        assert_ne!(
            selected_chunked(&pts, &cuts, 8, plain_prefix_min_filter),
            selected(&pts, 8)
        );
        assert_eq!(
            selected_chunked(&pts, &cuts, 8, prefilter),
            selected(&pts, 8)
        );
    }

    /// Coordinates drawn from a small pool so duplicates, equal `t` with
    /// different `d`, and signed zeros are common.
    fn coord() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(-0.0),
            Just(0.0),
            Just(1.0),
            Just(2.0),
            Just(-1.0),
            (0u8..6).prop_map(|v| f64::from(v) * 0.5),
            -2.0f64..3.0,
        ]
    }

    proptest! {
        #[test]
        fn chunked_prefilter_selects_the_same_points(
            pts in prop::collection::vec((coord(), coord()), 0..60),
            cuts in prop::collection::vec(0usize..60, 0..8),
            k in 1usize..8,
        ) {
            let mut cuts = cuts;
            cuts.sort_unstable();
            prop_assert_eq!(
                selected_chunked(&pts, &cuts, k, prefilter),
                selected(&pts, k)
            );
        }

        #[test]
        fn frontier_is_mutually_nondominated(
            pts in prop::collection::vec((0.1f64..100.0, 0.0f64..100.0), 1..60)
        ) {
            let f = pareto_frontier(&pts);
            prop_assert!(!f.is_empty());
            for &i in &f {
                for &j in &f {
                    if i != j {
                        let dominated = pts[j].0 <= pts[i].0
                            && pts[j].1 <= pts[i].1
                            && (pts[j].0 < pts[i].0 || pts[j].1 < pts[i].1);
                        prop_assert!(!dominated, "{i} dominated by {j}");
                    }
                }
            }
            // The frontier contains the global minima of both axes.
            let min_t = pts.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
            let min_d = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
            prop_assert!(f.iter().any(|&i| pts[i].0 == min_t));
            prop_assert!(f.iter().any(|&i| pts[i].1 == min_d));
        }

        #[test]
        fn every_point_is_dominated_by_some_frontier_point(
            pts in prop::collection::vec((0.1f64..100.0, 0.0f64..100.0), 1..60)
        ) {
            let f = pareto_frontier(&pts);
            for (k, p) in pts.iter().enumerate() {
                let covered = f.iter().any(|&i| pts[i].0 <= p.0 && pts[i].1 <= p.1);
                prop_assert!(covered, "point {k} uncovered");
            }
        }

        #[test]
        fn sampling_is_a_subsequence(k in 1usize..10, n in 1usize..40) {
            let frontier: Vec<usize> = (0..n).map(|i| i * 3).collect();
            let s = sample_frontier(&frontier, k);
            prop_assert!(s.len() <= k.max(1).min(n));
            // Subsequence check.
            let mut it = frontier.iter();
            for v in &s {
                prop_assert!(it.any(|x| x == v));
            }
        }
    }
}
