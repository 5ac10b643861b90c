//! Fixed-angle label augmentation (§3.3).
//!
//! For regular graphs whose degree falls in the published lookup range
//! (3–11), the fixed-angle conjecture provides instance-independent angles
//! that are often better than what 500 iterations from a random start
//! found. This pass replaces a label with the fixed angles whenever they
//! improve its approximation ratio — mirroring how the paper used the
//! JPMorgan lookup on "about 6% of our dataset".

use qaoa::{fixed_angle, Evaluator, MaxCutHamiltonian, QaoaCircuit};

use crate::dataset::Dataset;

/// Statistics of one augmentation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedAngleStats {
    /// Entries whose graph is regular with degree in the lookup range.
    pub eligible: usize,
    /// Eligible entries whose label actually improved.
    pub improved: usize,
    /// Mean AR gain over improved entries (0 when none improved).
    pub mean_gain: f64,
}

/// Replaces labels with fixed angles where that improves the approximation
/// ratio. Returns the augmented dataset and pass statistics.
pub fn augment(dataset: &Dataset) -> (Dataset, FixedAngleStats) {
    let mut eligible = 0usize;
    let mut improved = 0usize;
    let mut total_gain = 0.0;
    let entries = dataset
        .entries
        .iter()
        .map(|entry| {
            let Some(fa) = fixed_angle::for_graph(&entry.graph) else {
                return entry.clone();
            };
            eligible += 1;
            // Fixed angles are defined for p=1 labels only.
            if entry.params.depth() != 1 {
                return entry.clone();
            }
            let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&entry.graph));
            let mut evaluator = Evaluator::new(&circuit);
            let expectation = evaluator.expectation_in_place(&fa.params);
            let ratio = circuit.hamiltonian().approximation_ratio(expectation);
            if ratio > entry.approx_ratio {
                improved += 1;
                total_gain += ratio - entry.approx_ratio;
                let mut better = entry.clone();
                better.params = fa.params;
                better.expectation = expectation;
                better.approx_ratio = ratio;
                better
            } else {
                entry.clone()
            }
        })
        .collect();
    let stats = FixedAngleStats {
        eligible,
        improved,
        mean_gain: if improved > 0 {
            total_gain / improved as f64
        } else {
            0.0
        },
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

    fn poor_label(graph: Graph) -> LabeledGraph {
        // Zero angles: AR = (W/2) / opt, deliberately bad.
        let hamiltonian = MaxCutHamiltonian::new(&graph);
        let circuit = QaoaCircuit::new(hamiltonian.clone());
        let params = Params::zeros(1);
        let expectation = circuit.expectation(&params);
        let approx_ratio = hamiltonian.approximation_ratio(expectation);
        LabeledGraph {
            graph,
            params,
            expectation,
            optimal: hamiltonian.optimal_value(),
            approx_ratio,
        }
    }

    #[test]
    fn augment_improves_poor_regular_labels() {
        let mut rng = StdRng::seed_from_u64(131);
        let ds: Dataset = (0..4)
            .map(|_| poor_label(qgraph::generate::random_regular(10, 3, &mut rng).unwrap()))
            .collect();
        let before = ds.mean_approx_ratio();
        let (augmented, stats) = augment(&ds);
        assert_eq!(stats.eligible, 4);
        assert_eq!(stats.improved, 4);
        assert!(stats.mean_gain > 0.0);
        assert!(augmented.mean_approx_ratio() > before);
    }

    #[test]
    fn out_of_range_degrees_untouched() {
        // 2-regular (ring) is below the lookup range.
        let ds: Dataset = vec![poor_label(Graph::cycle(8).unwrap())]
            .into_iter()
            .collect();
        let (augmented, stats) = augment(&ds);
        assert_eq!(stats.eligible, 0);
        assert_eq!(augmented, ds);
    }

    #[test]
    fn irregular_graphs_untouched() {
        let ds: Dataset = vec![poor_label(Graph::star(6).unwrap())]
            .into_iter()
            .collect();
        let (augmented, stats) = augment(&ds);
        assert_eq!(stats.eligible, 0);
        assert_eq!(augmented, ds);
    }

    #[test]
    fn good_labels_never_degraded() {
        // Label a graph well first; augmentation must keep the better label.
        let mut rng = StdRng::seed_from_u64(132);
        let g = qgraph::generate::random_regular(8, 3, &mut rng).unwrap();
        let good =
            crate::dataset::label_graph(&g, &crate::dataset::LabelConfig::quick(200), &mut rng);
        let before = good.approx_ratio;
        let ds: Dataset = vec![good].into_iter().collect();
        let (augmented, _) = augment(&ds);
        assert!(augmented.entries[0].approx_ratio >= before - 1e-12);
    }

    #[test]
    fn deeper_labels_skipped() {
        let mut rng = StdRng::seed_from_u64(133);
        let g = qgraph::generate::random_regular(6, 3, &mut rng).unwrap();
        let hamiltonian = MaxCutHamiltonian::new(&g);
        let circuit = QaoaCircuit::new(hamiltonian.clone());
        let params = Params::zeros(2);
        let expectation = circuit.expectation(&params);
        let entry = LabeledGraph {
            graph: g,
            params: params.clone(),
            expectation,
            optimal: hamiltonian.optimal_value(),
            approx_ratio: hamiltonian.approximation_ratio(expectation),
        };
        let ds: Dataset = vec![entry.clone()].into_iter().collect();
        let (augmented, stats) = augment(&ds);
        assert_eq!(stats.eligible, 1);
        assert_eq!(stats.improved, 0);
        assert_eq!(augmented.entries[0].params, params);
    }
}
