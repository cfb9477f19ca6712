//! Order statistics and the parent-vs-change verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches the
//! one an external script computes from the same run values.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// True when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Median, first and third quartile, and sample count of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `values` (any order). `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let [q1, median, q3] = quartiles(values)?;
        Some(Summary {
            n: values.len(),
            q1,
            median,
            q3,
        })
    }

    /// Interquartile distance as a share of the median's magnitude (0 when
    /// the median is 0).
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)` with the
/// default exclusive method; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let (n, m) = (4i64, ld + 1);
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..n) {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = i * m - j * n;
                let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
                *slot = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
            }
            Some(out)
        }
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(data[n / 2]),
        _ => Some((data[n / 2 - 1] + data[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    if data.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    Some(data[rank.clamp(1, data.len()) - 1])
}

/// Outcome of comparing a change against its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs the change won, out of the pairs that were not ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairScore {
    pub won: usize,
    pub total: usize,
}

pub fn score_pairs(pairs: &[(f64, f64)], better: Better) -> PairScore {
    PairScore {
        won: pairs.iter().filter(|(p, c)| better.beats(*c, *p)).count(),
        total: pairs.len(),
    }
}

/// Judge a change against its parent on one metric.
///
/// - **improved**: the change wins at least nine tenths of all pairs
///   (ties count for neither side) and its median beats the parent's by
///   more than the parent's own interquartile distance; or the parent's
///   spread is wider than `bound` but every change run beats every
///   parent run.
/// - **unresolved**: the parent's spread is wider than `bound` (and the
///   runs do not separate completely), so "no worse than the bound"
///   cannot be shown.
/// - **worse**: the change's median is worse than the parent's by more
///   than `bound` times the parent's median.
/// - **unchanged**: otherwise.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    better: Better,
    bound: f64,
) -> Verdict {
    let (Some(p), Some(c)) = (Summary::of(parent), Summary::of(change)) else {
        return Verdict::Unresolved;
    };
    let score = score_pairs(pairs, better);
    let wins_pairs = score.total > 0 && score.won * 10 >= score.total * 9;
    if wins_pairs && better.beats(c.median, p.median) && (c.median - p.median).abs() > p.q3 - p.q1 {
        return Verdict::Improved;
    }
    if p.rel_spread() > bound {
        let separated = change
            .iter()
            .all(|&cv| parent.iter().all(|&pv| better.beats(cv, pv)));
        return if separated {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let allowed = bound * p.median.abs();
    let worse_by = match better {
        Better::Lower => c.median - p.median,
        Better::Higher => p.median - c.median,
    };
    if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert!(
            close(q[0], 1.25) && close(q[1], 2.5) && close(q[2], 3.75),
            "{q:?}"
        );
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        let q = quartiles(&[7.0, 5.0]).unwrap();
        assert!(
            close(q[0], 4.5) && close(q[1], 6.0) && close(q[2], 7.5),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let q = quartiles(&[1.0, 2.0, 4.0]).unwrap();
        assert!(
            close(q[0], 1.0) && close(q[1], 2.0) && close(q[2], 4.0),
            "{q:?}"
        );
        assert_eq!(quartiles(&[3.5]), Some([3.5; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn rel_spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert!(close(s.rel_spread(), (8.25 - 2.75) / 5.5));
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().rel_spread(), 0.0);
    }

    fn paired(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    #[test]
    fn clear_speedup_is_improved() {
        let parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.2, 9.8, 10.1, 9.9];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            0.1,
        );
        assert_eq!(v, Verdict::Improved);
        // The same numbers read as a throughput metric are a loss, and a
        // 20% loss is beyond a 10% bound.
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Higher,
            0.1,
        );
        assert_eq!(v, Verdict::Worse);
    }

    #[test]
    fn nine_in_ten_pairs_rule() {
        let parent = [10.0; 10];
        // Wins 8 of 10 pairs by a wide margin: not enough for a claim.
        let mut change = [8.0; 10];
        change[0] = 10.5;
        change[1] = 10.5;
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            0.1,
        );
        assert_eq!(v, Verdict::Unchanged);
        // Wins 9 of 10: improved.
        change[1] = 8.0;
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            0.1,
        );
        assert_eq!(v, Verdict::Improved);
        assert_eq!(
            score_pairs(&paired(&parent, &change), Better::Lower),
            PairScore { won: 9, total: 10 }
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [5.0; 10];
        let change = [5.0; 10];
        let s = score_pairs(&paired(&parent, &change), Better::Lower);
        assert_eq!(s, PairScore { won: 0, total: 10 });
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            0.05,
        );
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn small_win_inside_parent_spread_is_not_a_gain() {
        let parent = [9.0, 11.0, 9.5, 10.5, 10.0, 9.2, 10.8, 9.7, 10.3, 10.0];
        let change: Vec<f64> = parent.iter().map(|v| v - 0.05).collect();
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            0.25,
        );
        assert_eq!(v, Verdict::Unchanged);
    }

    #[test]
    fn worse_only_beyond_the_bound() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.04).collect();
        let v = verdict(
            &parent,
            &slower,
            &paired(&parent, &slower),
            Better::Lower,
            0.05,
        );
        assert_eq!(v, Verdict::Unchanged);
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.08).collect();
        let v = verdict(
            &parent,
            &slower,
            &paired(&parent, &slower),
            Better::Lower,
            0.05,
        );
        assert_eq!(v, Verdict::Worse);
    }

    #[test]
    fn noisy_parent_is_unresolved_unless_runs_separate() {
        let parent = [1.0, 2.0, 1.5, 0.8, 1.9, 1.2, 1.7, 0.9, 1.4, 1.6];
        let change = [1.1, 1.9, 1.6, 0.9, 1.8, 1.3, 1.6, 1.0, 1.5, 1.5];
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            0.1,
        );
        assert_eq!(v, Verdict::Unresolved);
        let change = [0.1; 10];
        let v = verdict(
            &parent,
            &change,
            &paired(&parent, &change),
            Better::Lower,
            0.1,
        );
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn empty_side_is_unresolved() {
        assert_eq!(
            verdict(&[], &[1.0], &[], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
