//! Dataset statistics: the histograms behind Figure 2 and the grouped
//! summaries behind Figures 3–4.

use std::collections::BTreeMap;

use crate::Graph;

/// A discrete histogram keyed by an integer bin (degree, size, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<usize, usize>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Increments the count of `bin`.
    pub fn add(&mut self, bin: usize) {
        *self.counts.entry(bin).or_insert(0) += 1;
    }

    /// Count in `bin` (0 when absent).
    pub fn count(&self, bin: usize) -> usize {
        self.counts.get(&bin).copied().unwrap_or(0)
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Sorted `(bin, count)` pairs.
    pub fn bins(&self) -> Vec<(usize, usize)> {
        self.counts.iter().map(|(&b, &c)| (b, c)).collect()
    }

    /// Relative frequency of `bin` in `[0, 1]`; 0 for an empty histogram.
    pub fn frequency(&self, bin: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(bin) as f64 / total as f64
        }
    }
}

impl FromIterator<usize> for Histogram {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for bin in iter {
            h.add(bin);
        }
        h
    }
}

impl Extend<usize> for Histogram {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for bin in iter {
            self.add(bin);
        }
    }
}

/// Degree histogram over all nodes of all graphs (Fig. 2a).
pub fn degree_histogram<'a, I: IntoIterator<Item = &'a Graph>>(graphs: I) -> Histogram {
    graphs.into_iter().flat_map(|g| g.degrees()).collect()
}

/// Graph-size histogram (Fig. 2b).
pub fn size_histogram<'a, I: IntoIterator<Item = &'a Graph>>(graphs: I) -> Histogram {
    graphs.into_iter().map(|g| g.n()).collect()
}

/// Mean and (population) standard deviation of a sample; `(0, 0)` when empty.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Five-number-style summary of a sample grouped under one key, used for the
/// interval plots of Figures 3–4.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// The group key (graph size or degree).
    pub key: usize,
    /// Sample count.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Mean value.
    pub mean: f64,
    /// Maximum value.
    pub max: f64,
    /// Standard deviation.
    pub std: f64,
}

/// Groups `(key, value)` observations and summarizes each group, sorted by key.
pub fn grouped_summary(observations: &[(usize, f64)]) -> Vec<GroupSummary> {
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(k, v) in observations {
        groups.entry(k).or_default().push(v);
    }
    groups
        .into_iter()
        .map(|(key, vals)| {
            let (mean, std) = mean_std(&vals);
            GroupSummary {
                key,
                count: vals.len(),
                min: vals.iter().copied().fold(f64::INFINITY, f64::min),
                mean,
                max: vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                std,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        h.add(3);
        h.add(3);
        h.add(5);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(4), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.bins(), vec![(3, 2), (5, 1)]);
        assert!((h.frequency(3) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Histogram::new().frequency(1), 0.0);
    }

    #[test]
    fn histogram_from_iterator_and_extend() {
        let mut h: Histogram = vec![1, 1, 2].into_iter().collect();
        h.extend(vec![2, 3]);
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(3), 1);
    }

    #[test]
    fn degree_histogram_counts_nodes() {
        let graphs = vec![Graph::cycle(4).unwrap(), Graph::star(4).unwrap()];
        let h = degree_histogram(&graphs);
        // cycle: four degree-2 nodes; star: one degree-3 + three degree-1.
        assert_eq!(h.count(2), 4);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(1), 3);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn size_histogram_counts_graphs() {
        let graphs = vec![
            Graph::cycle(4).unwrap(),
            Graph::cycle(4).unwrap(),
            Graph::path(7).unwrap(),
        ];
        let h = size_histogram(&graphs);
        assert_eq!(h.count(4), 2);
        assert_eq!(h.count(7), 1);
    }

    #[test]
    fn mean_std_matches_hand_computation() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((s - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn grouped_summary_sorted_and_correct() {
        let obs = vec![(5, 0.5), (3, 1.0), (5, 0.7), (3, 0.8)];
        let summary = grouped_summary(&obs);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].key, 3);
        assert_eq!(summary[0].count, 2);
        assert!((summary[0].mean - 0.9).abs() < 1e-12);
        assert_eq!(summary[1].key, 5);
        assert!((summary[1].min - 0.5).abs() < 1e-12);
        assert!((summary[1].max - 0.7).abs() < 1e-12);
    }
}
