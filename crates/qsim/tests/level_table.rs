//! Bit-identity of the level-table phase layer: the diagonal's levels
//! reproduce every value's bits, and the fused kernels match a verbatim
//! copy of the per-amplitude `cis` kernel they replaced.

#[path = "common/cis_reference.rs"]
mod cis_reference;

use qcheck::{any_u64, prop_assert, prop_assert_eq, properties, vec};

use cis_reference::state_bits;
use qsim::diagonal::DiagonalOperator;
use qsim::fused::{self, PhaseTable};
use qsim::{gates, StateVector};

/// A diagonal that draws each entry from `pool` by a hash of its index,
/// so values repeat the way cut values do and every pool entry's exact
/// bits (signed zeros included) reach the table.
fn pooled_diagonal(n: usize, pool: &[f64], salt: u64) -> DiagonalOperator {
    DiagonalOperator::from_fn(n, |z| {
        let h = (z ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        pool[h as usize % pool.len()]
    })
}

fn scrambled_state(n: usize, angles: &[f64]) -> StateVector {
    let mut psi = StateVector::uniform_superposition(n);
    for (i, &a) in angles.iter().enumerate() {
        match i % 3 {
            0 => gates::rx(&mut psi, i % n, a),
            1 => gates::rz(&mut psi, i % n, a),
            _ => gates::ry(&mut psi, i % n, a),
        }
    }
    psi
}

properties! {
    /// `levels[level_of[z]]` has the bits of `values[z]` for every `z`, the
    /// levels are distinct by bits, and `-0.0` and `+0.0` stay apart.
    fn levels_reproduce_value_bits(
        n in 1usize..11,
        pool in vec(-1.3f64..2.7, 1usize..40),
        salt in any_u64(),
    ) {
        let mut pool = pool;
        pool.extend([0.0, -0.0]);
        let op = pooled_diagonal(n, &pool, salt);
        let (values, levels, level_of) = (op.values(), op.levels(), op.level_of());
        prop_assert_eq!(level_of.len(), values.len());
        for (z, &level) in level_of.iter().enumerate() {
            prop_assert_eq!(levels[level as usize].to_bits(), values[z].to_bits());
        }
        let mut bits: Vec<u64> = levels.iter().map(|v| v.to_bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        prop_assert_eq!(bits.len(), levels.len());
        let has = |x: f64| values.iter().any(|v| v.to_bits() == x.to_bits());
        let level_count = |x: f64| levels.iter().filter(|v| v.to_bits() == x.to_bits()).count();
        prop_assert_eq!(level_count(0.0), usize::from(has(0.0)));
        prop_assert_eq!(level_count(-0.0), usize::from(has(-0.0)));
    }

    /// The fused layer is bit-identical, amplitude by amplitude, to the
    /// per-amplitude `cis` kernel, at depth 1–3 on diagonals with
    /// repeated, negative and signed-zero values.
    fn fused_layers_match_cis_reference(
        n in 1usize..11,
        pool in vec(-1.3f64..2.7, 1usize..24),
        salt in any_u64(),
        angles in vec(-3.0f64..3.0, 1usize..8),
        layers in vec((-2.0f64..2.0, -1.5f64..1.5), 1usize..4),
    ) {
        let mut pool = pool;
        pool.extend([0.0, -0.0]);
        let op = pooled_diagonal(n, &pool, salt);
        let mut reference = scrambled_state(n, &angles);
        let mut serial = reference.clone();
        let mut phases = PhaseTable::default();
        for &(gamma, beta) in &layers {
            cis_reference::phase_rx_all(&mut reference, op.values(), gamma, 2.0 * beta);
            phases.fill(op.levels(), gamma);
            fused::phase_rx_all(&mut serial, op.level_of(), &phases, 2.0 * beta);
        }
        prop_assert!(state_bits(&serial) == state_bits(&reference), "serial n={n}");
    }
}

#[test]
fn all_distinct_values_grow_the_table() {
    // Every entry distinct: the open-addressed table must grow past its
    // initial capacity many times and still map each entry to itself.
    let op = DiagonalOperator::from_fn(12, |z| z as f64 * 0.37 - 100.0);
    assert_eq!(op.levels().len(), op.values().len());
    for (z, &level) in op.level_of().iter().enumerate() {
        assert_eq!(level as usize, z);
    }
}
