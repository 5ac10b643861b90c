//! Golden regression suite for label canonicalization and the labeling
//! optimizer.
//!
//! PR 1 fixed the bimodal regression-target problem by folding
//! symmetry-equivalent QAOA angles onto one canonical branch
//! (`QaoaCircuit::canonical_label`). These tests pin exact outputs for a
//! fixed seed batch so any future change to the canonicalization *or* to
//! the labeling optimizer trips a bit-exact comparison instead of silently
//! shifting every training target. If a change here is intentional
//! (e.g. a better optimizer), regenerate the constants and say so in the
//! commit.
//!
//! All comparisons are exact (`==` on f64): the pinned literals are
//! shortest-round-trip representations, so they parse back to the precise
//! bits the code produced.

use qaoa::{MaxCutHamiltonian, Params, QaoaCircuit};
use qaoa_gnn::dataset::LabelConfig;
use qaoa_gnn::Dataset;
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

/// The fixed probe angles fed to `canonical_label`. Chosen to cover: a
/// point in the foldable region, a point whose γ wraps past 2π, and a
/// point already on the canonical branch.
fn probes() -> [Params; 3] {
    [
        Params::new(vec![2.5], vec![1.2]),
        Params::new(vec![5.9], vec![0.3]),
        Params::new(vec![1.0], vec![1.5]),
    ]
}

/// The fixed seed-2024 batch the labeling goldens run on.
fn seed_batch() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(2024);
    (0..6)
        .map(|i| qgraph::generate::erdos_renyi(5 + i % 4, 0.5, &mut rng).unwrap())
        .collect()
}

#[test]
fn canonical_label_goldens_on_regular_graphs() {
    // On symmetric instances the γ → π−γ mirror is a true symmetry and
    // must fold: this is the bimodal-label fix in action.
    let expected: [[(f64, f64); 3]; 3] = [
        // cycle(6)
        [
            (0.6415926535897931, 0.3707963267948966),
            (0.3831853071795859, 1.2707963267948965),
            (1.0, 1.5),
        ],
        // complete(5)
        [
            (0.6415926535897931, 0.3707963267948966),
            (0.3831853071795859, 1.2707963267948965),
            (1.0, 1.5),
        ],
        // star(6): γ folds, β stays (β-mirror is not a symmetry here)
        [
            (0.6415926535897931, 1.2),
            (0.3831853071795859, 1.2707963267948965),
            (1.0, 1.5),
        ],
    ];
    let graphs = [
        Graph::cycle(6).unwrap(),
        Graph::complete(5).unwrap(),
        Graph::star(6).unwrap(),
    ];
    for (gi, (g, want_row)) in graphs.iter().zip(&expected).enumerate() {
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(g));
        for (pi, (probe, &(want_gamma, want_beta))) in probes().iter().zip(want_row).enumerate() {
            let label = circuit.canonical_label(probe);
            assert_eq!(
                label.gammas()[0],
                want_gamma,
                "graph {gi} probe {pi}: gamma"
            );
            assert_eq!(label.betas()[0], want_beta, "graph {gi} probe {pi}: beta");
        }
    }
}

#[test]
fn canonical_label_goldens_on_seed_batch() {
    // Irregular instances: the mirror is NOT a symmetry, so canonical
    // labeling must leave the first probe untouched — folding it anyway
    // was exactly the pre-fix bug.
    let expected = [
        (2.5, 1.2),
        (0.3831853071795859, 1.2707963267948965),
        (1.0, 1.5),
    ];
    for (gi, g) in seed_batch().iter().enumerate() {
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(g));
        for (pi, (probe, &(want_gamma, want_beta))) in probes().iter().zip(&expected).enumerate() {
            let label = circuit.canonical_label(probe);
            assert_eq!(
                label.gammas()[0],
                want_gamma,
                "graph {gi} probe {pi}: gamma"
            );
            assert_eq!(label.betas()[0], want_beta, "graph {gi} probe {pi}: beta");
        }
    }
}

#[test]
fn label_graphs_goldens_pin_the_optimizer() {
    // Full labeling of the fixed batch: any change to the optimizer, the
    // evaluator, the RNG substream scheme, or canonicalization shows up
    // here as a bit-level diff.
    let expected: [(f64, f64, f64, f64, f64); 6] = [
        (
            0.5201519581202101,
            0.2967920463026599,
            4.371132455701429,
            5.0,
            0.8742264911402857,
        ),
        (
            2.436623919194319,
            0.4591163297738823,
            4.621136760609703,
            6.0,
            0.7701894601016172,
        ),
        (
            1.7367217470522398,
            1.136005133801416,
            5.102593736258219,
            8.0,
            0.6378242170322774,
        ),
        (
            0.48844777536731776,
            0.3201567240538088,
            9.271566518617808,
            11.0,
            0.8428696835107098,
        ),
        (
            2.3415431488347456,
            0.43845996062613946,
            3.2586280372712753,
            4.0,
            0.8146570093178188,
        ),
        (
            2.525383935735083,
            0.4358619884845538,
            5.219362440840971,
            7.0,
            0.7456232058344244,
        ),
    ];
    let ds = Dataset::label_graphs(&seed_batch(), &LabelConfig::quick(40), 2024);
    assert_eq!(ds.len(), expected.len());
    for (i, (entry, &(gamma, beta, expectation, optimal, ratio))) in
        ds.entries.iter().zip(&expected).enumerate()
    {
        assert_eq!(entry.params.gammas()[0], gamma, "graph {i}: gamma");
        assert_eq!(entry.params.betas()[0], beta, "graph {i}: beta");
        assert_eq!(entry.expectation, expectation, "graph {i}: expectation");
        assert_eq!(entry.optimal, optimal, "graph {i}: optimal");
        assert_eq!(entry.approx_ratio, ratio, "graph {i}: approx ratio");
    }
}
