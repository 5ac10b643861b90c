//! Micro-benchmarks of GNN inference (model and frozen) and training steps
//! for all four architectures — the per-example cost of the §4.1 training
//! loop and of one served prediction.

use qbench::Bench;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

use gnn::{GnnKind, GnnModel, GraphContext, ModelConfig};
use tensor::optim::{Adam, Optimizer};
use tensor::Matrix;

fn context() -> GraphContext {
    let mut rng = StdRng::seed_from_u64(21);
    let graph = qgraph::generate::random_regular(12, 4, &mut rng).expect("feasible shape");
    GraphContext::new(&graph, &ModelConfig::default().features, 0.0)
}

fn bench_predict(bench: &mut Bench) {
    let ctx = context();
    for kind in GnnKind::ALL {
        let mut rng = StdRng::seed_from_u64(22);
        let model = GnnModel::new(kind, ModelConfig::default(), &mut rng);
        let ctx = &ctx;
        bench.bench_with_input("gnn_predict_n12", kind, move || model.predict_ctx(ctx));
    }
}

/// The same forward on a model frozen once up front: the serving path's
/// cost without `gnn_predict_n12`'s per-call weight copy.
fn bench_frozen_predict(bench: &mut Bench) {
    let ctx = context();
    for kind in GnnKind::ALL {
        let mut rng = StdRng::seed_from_u64(22);
        let frozen = GnnModel::new(kind, ModelConfig::default(), &mut rng).freeze();
        let ctx = &ctx;
        bench.bench_with_input("gnn_frozen_predict_n12", kind, move || frozen.predict_ctx(ctx));
    }
}

fn bench_train_step(bench: &mut Bench) {
    let ctx = context();
    let target = Matrix::row_vector(&[0.3, 0.7]);
    for kind in GnnKind::ALL {
        let mut rng = StdRng::seed_from_u64(23);
        let model = GnnModel::new(kind, ModelConfig::default(), &mut rng);
        let mut optimizer = Adam::new(0.01);
        let (ctx, target) = (&ctx, &target);
        bench.bench_with_input("gnn_train_step_n12", kind, move || {
            model.tape().reset();
            let out = model.forward(ctx, &mut rng);
            let loss = out.mse(target);
            model.tape().backward(&loss);
            optimizer.step(model.parameters());
        });
    }
}

fn bench_hidden_dim_scaling(bench: &mut Bench) {
    let ctx = context();
    for hidden in [16usize, 32, 64, 128] {
        let mut rng = StdRng::seed_from_u64(24);
        let model = GnnModel::new(
            GnnKind::Gin,
            ModelConfig {
                hidden_dim: hidden,
                ..ModelConfig::default()
            },
            &mut rng,
        );
        let ctx = &ctx;
        bench.bench_with_input("gin_predict_by_width", hidden, move || {
            model.predict_ctx(ctx)
        });
    }
}

fn main() {
    let mut bench = Bench::from_env();
    bench_predict(&mut bench);
    bench_frozen_predict(&mut bench);
    bench_train_step(&mut bench);
    bench_hidden_dim_scaling(&mut bench);
    bench.finish();
}
