//! Golden bit pins for the serial state-vector path.
//!
//! The split re/im storage rewrote every simulator kernel; the serial
//! path must still produce the *exact bits* it produced before. The
//! golden table below was captured from the pre-refactor
//! interleaved-`Complex` build; every kernel change must keep it.

use qaoa::{MaxCutHamiltonian, Params, QaoaCircuit};
use qgraph::Graph;
use qrand::rngs::StdRng;
use qrand::SeedableRng;

fn depth_params() -> [Params; 3] {
    [
        Params::new(vec![0.7], vec![0.3]),
        Params::new(vec![0.9, 0.25], vec![0.55, 0.1]),
        Params::new(vec![1.3, 2.0, 0.4], vec![0.2, 0.35, 0.05]),
    ]
}

/// Expectation bits captured from the pre-refactor serial build
/// (interleaved `Complex` storage) on the graphs of [`golden_graphs`]
/// at the parameters of [`depth_params`].
const PRE_REFACTOR_BITS: [(&str, usize, u64); 15] = [
    ("cycle6", 0, 0x401182c81d1f4823),      // 4.377716498407639
    ("cycle6", 1, 0x400f1205a2f8f5cd),      // 3.883799813482915
    ("cycle6", 2, 0x400b8670f35d00d4),      // 3.4406451237447104
    ("complete5", 0, 0x4016334c8d0b39c6),   // 5.550096706209336
    ("complete5", 1, 0x400a1fc54a9b331f),   // 3.2655130222905338
    ("complete5", 2, 0x40117ba20fb89288),   // 4.370735402717976
    ("regular8x3", 0, 0x401f8045081c2d7d),  // 7.875263334960775
    ("regular8x3", 1, 0x401a2d3c6b19357d),  // 6.544175790227539
    ("regular8x3", 2, 0x4011f30f942e8ea5),  // 4.487364116040827
    ("regular12x3", 0, 0x40281717bfd14622), // 12.04510306768049
    ("regular12x3", 1, 0x4024c4a8000fbc70), // 10.384094240113171
    ("regular12x3", 2, 0x401ca99c3007f540), // 7.165634870992392
    ("er10", 0, 0x40277af2e44cac32),        // 11.740134367331937
    ("er10", 1, 0x40245b62a57257c8),        // 10.178486986358521
    ("er10", 2, 0x4024cae3ff6d043d),        // 10.396270734842
];

/// The graphs the golden bits were captured on. Construction order
/// matters: the regular and ER graphs consume the shared rng stream.
fn golden_graphs() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(0x60_1d);
    vec![
        ("cycle6", Graph::cycle(6).unwrap()),
        ("complete5", Graph::complete(5).unwrap()),
        (
            "regular8x3",
            qgraph::generate::random_regular(8, 3, &mut rng).unwrap(),
        ),
        (
            "regular12x3",
            qgraph::generate::random_regular(12, 3, &mut rng).unwrap(),
        ),
        (
            "er10",
            qgraph::generate::erdos_renyi(10, 0.4, &mut rng).unwrap(),
        ),
    ]
}

#[test]
fn serial_path_matches_pre_refactor_golden_bits() {
    let graphs = golden_graphs();
    for &(name, depth_index, bits) in &PRE_REFACTOR_BITS {
        let graph = &graphs.iter().find(|(g, _)| *g == name).unwrap().1;
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(graph));
        let e = circuit.expectation(&depth_params()[depth_index]);
        assert_eq!(
            e.to_bits(),
            bits,
            "{name} p={}: serial path drifted from pre-refactor bits \
             (got {e} = 0x{:016x}, want 0x{bits:016x})",
            depth_index + 1,
            e.to_bits(),
        );
    }
}
