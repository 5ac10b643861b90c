//! Bit parity between the tape-free [`Frozen`] forward and the autodiff
//! tape's eval-mode forward: every architecture, every readout, graph
//! sizes 2–15, one-hot and degree-only features, weighted graphs (GCN's
//! `norm_adj` is weighted, GAT's mask is binary), `gin_eps ≠ 0`, and one to
//! three layers. Angles are compared with `to_bits`, not a tolerance.

use qcheck::{choice, prop_assert_eq, properties};

use gnn::{Frozen, GnnKind, GnnModel, GraphContext, ModelConfig, Readout};
use qgraph::features::FeatureConfig;
use qgraph::generate::{erdos_renyi, randomize_weights};
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::{Rng, SeedableRng};

/// Feature/graph/ε variant bits of one case.
const DEGREE_ONLY: u8 = 1;
const WEIGHTED: u8 = 2;
const GIN_EPS: u8 = 4;

fn config(readout: Readout, layers: usize, variant: u8) -> ModelConfig {
    let mut config = ModelConfig {
        readout,
        layers,
        ..ModelConfig::default()
    };
    if variant & DEGREE_ONLY != 0 {
        config.features = FeatureConfig {
            one_hot_dim: 0,
            include_degree: true,
        };
    }
    if variant & GIN_EPS != 0 {
        config.gin_eps = 0.37;
    }
    config
}

/// A model whose every parameter, biases included, is non-trivial: Xavier
/// init leaves biases at zero, so each entry gets a uniform nudge.
fn model(kind: GnnKind, config: ModelConfig, rng: &mut StdRng) -> GnnModel {
    let model = GnnModel::new(kind, config, rng);
    let nudged: Vec<_> = model
        .snapshot()
        .iter()
        .map(|m| m.map(|v| v + rng.gen_range(-0.3..0.3)))
        .collect();
    model.restore(&nudged);
    model
}

fn graph(n: usize, variant: u8, rng: &mut StdRng) -> Graph {
    let g = erdos_renyi(n, 0.5, rng).unwrap();
    if variant & WEIGHTED != 0 {
        randomize_weights(&g, 0.1, 2.0, rng).unwrap()
    } else {
        g
    }
}

/// The reference: the tape's forward in eval mode (dropout off).
fn tape_predict(model: &GnnModel, ctx: &GraphContext) -> (f64, f64) {
    model.tape().set_training(false);
    let out = model.forward(ctx, &mut StdRng::seed_from_u64(0)).value();
    model.tape().reset();
    gnn::denormalize_target([out[(0, 0)], out[(0, 1)]])
}

fn bits((gamma, beta): (f64, f64)) -> (u64, u64) {
    (gamma.to_bits(), beta.to_bits())
}

/// Checks all three frozen entry points against the tape on one graph.
fn assert_parity(model: &GnnModel, frozen: &Frozen, g: &Graph) -> Result<(), String> {
    let config = model.config();
    let ctx = GraphContext::new(g, &config.features, config.gin_eps);
    let want = bits(tape_predict(model, &ctx));
    for (path, got) in [
        ("Frozen::predict", frozen.predict(g)),
        ("Frozen::predict_ctx", frozen.predict_ctx(&ctx)),
        ("GnnModel::predict", model.predict(g)),
    ] {
        if bits(got) != want {
            return Err(format!(
                "{} {:?} n={}: {path} {:?} != tape {:?}",
                model.kind(),
                config.readout,
                g.n(),
                bits(got),
                want
            ));
        }
    }
    Ok(())
}

fn arb_kind() -> impl qcheck::Gen<Item = GnnKind> {
    choice(GnnKind::ALL)
}

fn arb_readout() -> impl qcheck::Gen<Item = Readout> {
    choice([Readout::Mean, Readout::Sum, Readout::Max])
}

properties! {
    cases = 256;

    fn frozen_forward_is_bit_identical_to_tape(
        kind in arb_kind(),
        readout in arb_readout(),
        n in 2usize..16,
        layers in choice([1usize, 2, 3]),
        variant in 0u8..8,
        seed in qcheck::any_u64(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = model(kind, config(readout, layers, variant), &mut rng);
        let frozen = Frozen::new(&model.export_weights()).unwrap();
        let g = graph(n, variant, &mut rng);
        prop_assert_eq!(assert_parity(&model, &frozen, &g), Ok(()));
    }
}

/// Every architecture × readout × layer count × variant, each at every
/// size 2–15: the property above samples this space, this walks all of it.
#[test]
fn frozen_forward_matches_tape_on_the_full_grid() {
    let mut rng = StdRng::seed_from_u64(15);
    for kind in GnnKind::ALL {
        for readout in [Readout::Mean, Readout::Sum, Readout::Max] {
            for layers in [1, 3] {
                for variant in 0..8 {
                    let model = model(kind, config(readout, layers, variant), &mut rng);
                    let frozen = model.freeze();
                    for n in 2..=15 {
                        let g = graph(n, variant, &mut rng);
                        assert_parity(&model, &frozen, &g).unwrap();
                    }
                }
            }
        }
    }
}

/// The tape adds a bias as `h + (0.0 + b)` and the frozen path as `h + b`;
/// with every bias −0.0 the two must still agree bit for bit.
#[test]
fn negative_zero_biases_keep_bit_parity() {
    let mut rng = StdRng::seed_from_u64(16);
    for kind in GnnKind::ALL {
        for readout in [Readout::Mean, Readout::Sum, Readout::Max] {
            let model = model(kind, config(readout, 2, 0), &mut rng);
            // With hidden_dim > 1 the 1-row parameters are exactly the biases.
            let signed: Vec<_> = model
                .snapshot()
                .iter()
                .map(|m| {
                    if m.rows() == 1 {
                        m.map(|_| -0.0)
                    } else {
                        m.clone()
                    }
                })
                .collect();
            model.restore(&signed);
            let frozen = model.freeze();
            for g in [
                Graph::path(4).unwrap(),
                Graph::empty(3).unwrap(),
                Graph::complete(6).unwrap(),
            ] {
                assert_parity(&model, &frozen, &g).unwrap();
            }
        }
    }
}

#[test]
#[should_panic(expected = "one-hot width")]
fn frozen_rejects_oversize_graph_like_graph_context() {
    let mut rng = StdRng::seed_from_u64(17);
    let frozen = GnnModel::new(GnnKind::Sage, ModelConfig::default(), &mut rng).freeze();
    let _ = frozen.predict(&Graph::cycle(16).unwrap());
}
