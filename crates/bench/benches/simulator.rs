//! Micro-benchmarks for the state-vector simulator: the inner loop of
//! dataset labeling. One QAOA objective evaluation is a fused
//! phase+mixer sweep per depth on the evaluator's scratch buffer.

use qbench::Bench;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

use qaoa::{Evaluator, MaxCutHamiltonian, Params, QaoaCircuit};
use qsim::diagonal::DiagonalOperator;
use qsim::{fused, gates, StateVector};

fn bench_hadamard_layer(bench: &mut Bench) {
    for qubits in [8usize, 12, 15] {
        bench.bench_with_input("h_all", qubits, move || {
            let mut psi = StateVector::zero_state(qubits);
            gates::h_all(&mut psi);
            psi.amplitude(0)
        });
    }
}

fn bench_diagonal_phase(bench: &mut Bench) {
    for qubits in [8usize, 12, 15] {
        let op = DiagonalOperator::from_fn(qubits, |z| z.count_ones() as f64);
        let mut psi = StateVector::uniform_superposition(qubits);
        bench.bench_with_input("diagonal_phase", qubits, move || {
            op.apply_phase(&mut psi, 0.137);
            psi.amplitude(0)
        });
    }
}

/// The mixer layer alone: per-qubit sweeps vs the fused paired-qubit
/// kernel. Same unitary, ⌈n/2⌉ memory passes instead of n.
fn bench_rx_layer(bench: &mut Bench) {
    for qubits in [8usize, 12, 15] {
        let mut psi = StateVector::uniform_superposition(qubits);
        bench.bench_with_input("rx_layer_unfused", qubits, move || {
            gates::rx_all(&mut psi, 0.6);
            psi.amplitude(0)
        });
        let mut psi = StateVector::uniform_superposition(qubits);
        bench.bench_with_input("rx_layer_fused", qubits, move || {
            fused::rx_all(&mut psi, 0.6);
            psi.amplitude(0)
        });
    }
}

/// One full QAOA layer (phase separation + mixer): separate passes vs the
/// fully fused sweep that applies the diagonal phase at first load.
fn bench_qaoa_layer(bench: &mut Bench) {
    for qubits in [8usize, 12, 15] {
        let op = DiagonalOperator::from_fn(qubits, |z| z.count_ones() as f64);
        let mut psi = StateVector::uniform_superposition(qubits);
        bench.bench_with_input("qaoa_layer_unfused", qubits, move || {
            op.apply_phase(&mut psi, 0.137);
            gates::rx_all(&mut psi, 0.6);
            psi.amplitude(0)
        });
        let op = DiagonalOperator::from_fn(qubits, |z| z.count_ones() as f64);
        let mut psi = StateVector::uniform_superposition(qubits);
        let mut phases = fused::PhaseTable::default();
        bench.bench_with_input("qaoa_layer_fused", qubits, move || {
            op.apply_phase_rx_all(&mut psi, 0.137, 0.6, &mut phases);
            psi.amplitude(0)
        });
    }
}

fn bench_qaoa_expectation(bench: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(1);
    // n·d must be even for a d-regular graph to exist, so cap at 14 nodes.
    for nodes in [8usize, 12, 14] {
        let graph = qgraph::generate::random_regular(nodes, 3, &mut rng)
            .expect("feasible shape");
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&graph));
        let mut evaluator = Evaluator::new(&circuit);
        let params = Params::new(vec![0.7], vec![0.3]);
        bench.bench_with_input("qaoa_expectation_p1", nodes, || {
            evaluator.expectation_in_place(&params)
        });
    }
}

fn bench_qaoa_depth_scaling(bench: &mut Bench) {
    let mut rng = StdRng::seed_from_u64(2);
    let graph = qgraph::generate::random_regular(12, 3, &mut rng).expect("feasible shape");
    let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&graph));
    let mut evaluator = Evaluator::new(&circuit);
    for depth in [1usize, 2, 4, 8] {
        let params = Params::new(vec![0.5; depth], vec![0.2; depth]);
        let evaluator = &mut evaluator;
        bench.bench_with_input("qaoa_expectation_depth", depth, move || {
            evaluator.expectation_in_place(&params)
        });
    }
}

fn main() {
    let mut bench = Bench::from_env();
    bench_hadamard_layer(&mut bench);
    bench_diagonal_phase(&mut bench);
    bench_rx_layer(&mut bench);
    bench_qaoa_layer(&mut bench);
    bench_qaoa_expectation(&mut bench);
    bench_qaoa_depth_scaling(&mut bench);
    bench.finish();
}
