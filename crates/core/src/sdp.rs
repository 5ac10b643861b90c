//! Selective Data Pruning (§3.3).
//!
//! Random initialization leaves many labels with approximation ratios near
//! 50%, which "misdirect the GNN's learning". Plain thresholding fixes the
//! quality but shrinks the dataset too much, so the paper adds a *selective
//! rate*: of the entries below the AR threshold, only a fraction is pruned
//! and the rest is preserved for coverage. `selective_rate = 0.7` keeps 70%
//! of the would-be-discarded data.

use qrand::Rng;

use crate::dataset::Dataset;

/// Selective-Data-Pruning configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdpConfig {
    /// Approximation-ratio threshold below which an entry is a pruning
    /// candidate (paper's initial experiment: 0.7).
    pub threshold: f64,
    /// Fraction of below-threshold entries to *keep* (paper's example: 0.7
    /// keeps 70% of the otherwise-discarded data). `0.0` reduces to plain
    /// threshold pruning; `1.0` disables pruning entirely.
    pub selective_rate: f64,
}

impl SdpConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless both values lie in `[0, 1]`.
    pub fn new(threshold: f64, selective_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&selective_rate),
            "selective rate must be in [0, 1]"
        );
        SdpConfig {
            threshold,
            selective_rate,
        }
    }

    /// The paper's §3.3 working point: threshold 0.7, selective rate 0.7.
    pub fn paper_default() -> Self {
        SdpConfig::new(0.7, 0.7)
    }
}

/// Outcome statistics of one pruning pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdpStats {
    /// Entries in the input dataset.
    pub input: usize,
    /// Entries below the threshold (pruning candidates).
    pub below_threshold: usize,
    /// Candidates that were kept by the selective rate.
    pub kept_low_quality: usize,
    /// Entries actually removed.
    pub pruned: usize,
}

/// Applies Selective Data Pruning, returning the surviving dataset and the
/// pass statistics. Entry order is preserved.
pub fn prune<R: Rng + ?Sized>(
    dataset: &Dataset,
    config: &SdpConfig,
    rng: &mut R,
) -> (Dataset, SdpStats) {
    let mut below = 0usize;
    let mut kept_low = 0usize;
    let entries: Vec<_> = dataset
        .entries
        .iter()
        .filter(|e| {
            if e.approx_ratio >= config.threshold {
                return true;
            }
            below += 1;
            if rng.gen::<f64>() < config.selective_rate {
                kept_low += 1;
                true
            } else {
                false
            }
        })
        .cloned()
        .collect();
    let stats = SdpStats {
        input: dataset.len(),
        below_threshold: below,
        kept_low_quality: kept_low,
        pruned: below - kept_low,
    };
    (Dataset { entries }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::LabeledGraph;
    use qaoa::Params;
    use qgraph::Graph;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    fn entry(ar: f64) -> LabeledGraph {
        let graph = Graph::cycle(4).unwrap();
        LabeledGraph {
            graph,
            params: Params::zeros(1),
            expectation: ar * 4.0,
            optimal: 4.0,
            approx_ratio: ar,
        }
    }

    fn dataset(ars: &[f64]) -> Dataset {
        ars.iter().map(|&ar| entry(ar)).collect()
    }

    #[test]
    fn zero_threshold_is_noop() {
        let ds = dataset(&[0.1, 0.5, 0.9]);
        let mut rng = StdRng::seed_from_u64(121);
        let (pruned, stats) = prune(&ds, &SdpConfig::new(0.0, 0.0), &mut rng);
        assert_eq!(pruned, ds);
        assert_eq!(stats.pruned, 0);
        assert_eq!(stats.below_threshold, 0);
    }

    #[test]
    fn selective_rate_one_keeps_everything() {
        let ds = dataset(&[0.1, 0.2, 0.3]);
        let mut rng = StdRng::seed_from_u64(122);
        let (pruned, stats) = prune(&ds, &SdpConfig::new(0.9, 1.0), &mut rng);
        assert_eq!(pruned.len(), 3);
        assert_eq!(stats.below_threshold, 3);
        assert_eq!(stats.kept_low_quality, 3);
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn selective_rate_zero_is_hard_threshold() {
        let ds = dataset(&[0.95, 0.4, 0.8, 0.2]);
        let mut rng = StdRng::seed_from_u64(123);
        let (pruned, stats) = prune(&ds, &SdpConfig::new(0.7, 0.0), &mut rng);
        assert_eq!(pruned.len(), 2);
        assert!(pruned.entries.iter().all(|e| e.approx_ratio >= 0.7));
        assert_eq!(stats.pruned, 2);
    }

    #[test]
    fn pruned_is_subset_and_order_preserved() {
        let ars: Vec<f64> = (0..50).map(|i| i as f64 / 50.0).collect();
        let ds = dataset(&ars);
        let mut rng = StdRng::seed_from_u64(124);
        let (pruned, stats) = prune(&ds, &SdpConfig::paper_default(), &mut rng);
        assert!(pruned.len() <= ds.len());
        assert_eq!(stats.input, 50);
        assert_eq!(
            stats.input - stats.pruned,
            pruned.len(),
            "stats must be consistent"
        );
        // Surviving ARs appear in original relative order.
        let survivors: Vec<u64> = pruned
            .entries
            .iter()
            .map(|e| e.approx_ratio.to_bits())
            .collect();
        let mut it = ds.entries.iter().map(|e| e.approx_ratio.to_bits());
        for s in survivors {
            assert!(it.any(|o| o == s), "survivor out of order");
        }
    }

    #[test]
    fn selective_rate_statistics() {
        // With rate 0.5 and many candidates, roughly half survive.
        let ds = dataset(&vec![0.1; 2000]);
        let mut rng = StdRng::seed_from_u64(125);
        let (pruned, stats) = prune(&ds, &SdpConfig::new(0.7, 0.5), &mut rng);
        let frac = pruned.len() as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "kept fraction {frac}");
        assert_eq!(stats.below_threshold, 2000);
    }

    #[test]
    fn pruning_raises_mean_quality() {
        let ars: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let ds = dataset(&ars);
        let before = ds.mean_approx_ratio();
        let mut rng = StdRng::seed_from_u64(126);
        let (pruned, _) = prune(&ds, &SdpConfig::new(0.7, 0.3), &mut rng);
        assert!(pruned.mean_approx_ratio() > before);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_rejected() {
        let _ = SdpConfig::new(1.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "selective rate")]
    fn bad_rate_rejected() {
        let _ = SdpConfig::new(0.5, -0.1);
    }
}
