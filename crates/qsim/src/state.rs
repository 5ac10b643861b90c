use qrand::Rng;

use crate::{Complex, MAX_QUBITS};

/// A dense `n`-qubit quantum state: `2^n` complex amplitudes.
///
/// Basis states are indexed little-endian: bit `q` of the index is the value
/// of qubit `q`.
///
/// # Storage layout
///
/// Amplitudes are stored **struct-of-arrays**: one `Vec<f64>` of real parts
/// and one of imaginary parts, rather than an interleaved `Vec<Complex>`.
/// The fused butterfly sweeps in [`crate::fused`] then reduce to flat
/// same-stride `f64` loops that the compiler auto-vectorizes.
/// [`Self::amplitude`] and [`Self::to_amplitudes`] provide the
/// interleaved view where convenience beats throughput.
///
/// # Example
///
/// ```
/// use qsim::StateVector;
///
/// let psi = StateVector::uniform_superposition(3);
/// assert_eq!(psi.num_qubits(), 3);
/// assert!((psi.norm() - 1.0).abs() < 1e-12);
/// assert!((psi.probability(0b101) - 0.125).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl StateVector {
    /// The computational basis state `|0...0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is 0 or exceeds [`MAX_QUBITS`].
    pub fn zero_state(num_qubits: usize) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// The computational basis state `|index⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is 0, exceeds [`MAX_QUBITS`], or
    /// `index >= 2^num_qubits`.
    pub fn basis_state(num_qubits: usize, index: u64) -> Self {
        assert!(
            (1..=MAX_QUBITS).contains(&num_qubits),
            "num_qubits must be in 1..={MAX_QUBITS}, got {num_qubits}"
        );
        let dim = 1usize << num_qubits;
        assert!((index as usize) < dim, "basis index {index} out of range");
        let mut re = vec![0.0; dim];
        re[index as usize] = 1.0;
        StateVector {
            num_qubits,
            re,
            im: vec![0.0; dim],
        }
    }

    /// The uniform superposition `|+⟩^⊗n` — QAOA's initial state.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is 0 or exceeds [`MAX_QUBITS`].
    pub fn uniform_superposition(num_qubits: usize) -> Self {
        let mut psi = Self::zero_state(num_qubits);
        psi.set_uniform_superposition();
        psi
    }

    /// Resets this state to `|+⟩^⊗n` in place, reusing the existing
    /// allocation. This is what lets an evaluation loop (hundreds of
    /// optimizer-driven circuit runs per labeled graph) run without any
    /// state-vector allocations after setup.
    pub fn set_uniform_superposition(&mut self) {
        let amp = 1.0 / (self.dim() as f64).sqrt();
        self.re.fill(amp);
        self.im.fill(0.0);
    }

    /// Resets this state to the computational basis state `|index⟩` in
    /// place, reusing the existing allocation.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn set_basis_state(&mut self, index: u64) {
        assert!(
            (index as usize) < self.dim(),
            "basis index {index} out of range"
        );
        self.re.fill(0.0);
        self.im.fill(0.0);
        self.re[index as usize] = 1.0;
    }

    /// Builds a state from raw interleaved amplitudes (length must be a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if the length is not `2^k` for `1 <= k <= MAX_QUBITS`.
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Self {
        let dim = amplitudes.len();
        assert!(
            dim >= 2 && dim.is_power_of_two(),
            "length must be a power of two >= 2"
        );
        let num_qubits = dim.trailing_zeros() as usize;
        assert!(num_qubits <= MAX_QUBITS, "too many qubits");
        StateVector {
            num_qubits,
            re: amplitudes.iter().map(|a| a.re).collect(),
            im: amplitudes.iter().map(|a| a.im).collect(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension `2^n` of the underlying vector.
    pub fn dim(&self) -> usize {
        self.re.len()
    }

    /// The real parts, one per basis state.
    pub fn re(&self) -> &[f64] {
        &self.re
    }

    /// The imaginary parts, one per basis state.
    pub fn im(&self) -> &[f64] {
        &self.im
    }

    /// Mutable views of both component arrays (used by gate kernels; one
    /// call because the borrow checker must see the two disjoint borrows
    /// at once).
    pub fn re_im_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        (&mut self.re, &mut self.im)
    }

    /// The amplitudes gathered into interleaved form — a convenience for
    /// tests and diagnostics; kernels work on the split arrays directly.
    pub fn to_amplitudes(&self) -> Vec<Complex> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&re, &im)| Complex::new(re, im))
            .collect()
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn amplitude(&self, index: usize) -> Complex {
        Complex::new(self.re[index], self.im[index])
    }

    /// `⟨self|self⟩^{1/2}`.
    pub fn norm(&self) -> f64 {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&re, &im)| re * re + im * im)
            .sum::<f64>()
            .sqrt()
    }

    /// Rescales to unit norm.
    ///
    /// # Panics
    ///
    /// Panics if the state is (numerically) the zero vector.
    pub fn normalize(&mut self) {
        let n = self.norm();
        assert!(n > 1e-300, "cannot normalize the zero vector");
        let inv = 1.0 / n;
        for re in &mut self.re {
            *re *= inv;
        }
        for im in &mut self.im {
            *im *= inv;
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(
            self.num_qubits, other.num_qubits,
            "inner product requires equal qubit counts"
        );
        let mut acc = Complex::ZERO;
        for i in 0..self.dim() {
            acc += self.amplitude(i).conj() * other.amplitude(i);
        }
        acc
    }

    /// Fidelity `|⟨self|other⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Probability of measuring basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^n`.
    pub fn probability(&self, index: usize) -> f64 {
        self.re[index] * self.re[index] + self.im[index] * self.im[index]
    }

    /// All basis-state probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&re, &im)| re * re + im * im)
            .collect()
    }

    /// Samples one computational-basis measurement outcome.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut u: f64 = rng.gen::<f64>() * self.norm().powi(2);
        for i in 0..self.dim() {
            u -= self.re[i] * self.re[i] + self.im[i] * self.im[i];
            if u <= 0.0 {
                return i as u64;
            }
        }
        (self.dim() - 1) as u64
    }

    /// Samples `shots` measurement outcomes and returns per-basis-state
    /// counts (length `2^n`).
    pub fn sample_counts<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<usize> {
        let mut counts = vec![0usize; self.dim()];
        for _ in 0..shots {
            counts[self.sample(rng) as usize] += 1;
        }
        counts
    }

    /// Expectation value of a real diagonal observable given as per-basis
    /// values.
    ///
    /// The sum folds left-to-right over basis states and is kept
    /// bit-identical across releases — the golden suites pin it.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2^n`.
    pub fn expectation_diagonal(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.dim(), "diagonal length must equal 2^n");
        self.re
            .iter()
            .zip(&self.im)
            .zip(values)
            .map(|((&re, &im), &v)| (re * re + im * im) * v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    #[test]
    fn zero_state_is_basis_zero() {
        let psi = StateVector::zero_state(3);
        assert_eq!(psi.dim(), 8);
        assert_eq!(psi.amplitude(0), Complex::ONE);
        assert!((psi.norm() - 1.0).abs() < 1e-15);
        assert_eq!(psi.probability(0), 1.0);
    }

    #[test]
    fn basis_state_places_amplitude() {
        let psi = StateVector::basis_state(2, 0b10);
        assert_eq!(psi.amplitude(2), Complex::ONE);
        assert_eq!(psi.amplitude(0), Complex::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_state_rejects_large_index() {
        let _ = StateVector::basis_state(2, 4);
    }

    #[test]
    #[should_panic(expected = "num_qubits")]
    fn zero_qubits_rejected() {
        let _ = StateVector::zero_state(0);
    }

    #[test]
    fn uniform_superposition_probabilities() {
        let psi = StateVector::uniform_superposition(4);
        for i in 0..16 {
            assert!((psi.probability(i) - 1.0 / 16.0).abs() < 1e-15);
        }
    }

    #[test]
    fn in_place_resets_match_constructors() {
        let mut psi = StateVector::basis_state(3, 5);
        psi.set_uniform_superposition();
        assert_eq!(psi, StateVector::uniform_superposition(3));
        psi.set_basis_state(6);
        assert_eq!(psi, StateVector::basis_state(3, 6));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_basis_state_rejects_large_index() {
        let mut psi = StateVector::zero_state(2);
        psi.set_basis_state(4);
    }

    #[test]
    fn from_amplitudes_round_trip() {
        let amps = vec![Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO];
        let psi = StateVector::from_amplitudes(amps);
        assert_eq!(psi.num_qubits(), 2);
        assert_eq!(psi, StateVector::zero_state(2));
    }

    #[test]
    fn split_and_interleaved_views_agree() {
        let amps = vec![
            Complex::new(0.1, -0.2),
            Complex::new(0.3, 0.4),
            Complex::new(-0.5, 0.6),
            Complex::new(0.7, -0.8),
        ];
        let psi = StateVector::from_amplitudes(amps.clone());
        assert_eq!(psi.to_amplitudes(), amps);
        for (i, a) in amps.iter().enumerate() {
            assert_eq!(psi.re()[i], a.re);
            assert_eq!(psi.im()[i], a.im);
            assert_eq!(psi.amplitude(i), *a);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_non_power_of_two() {
        let _ = StateVector::from_amplitudes(vec![Complex::ONE; 3]);
    }

    #[test]
    fn normalize_rescales() {
        let mut psi =
            StateVector::from_amplitudes(vec![Complex::new(3.0, 0.0), Complex::new(0.0, 4.0)]);
        psi.normalize();
        assert!((psi.norm() - 1.0).abs() < 1e-15);
        assert!((psi.probability(0) - 0.36).abs() < 1e-12);
    }

    #[test]
    fn inner_product_orthogonal_and_self() {
        let a = StateVector::basis_state(2, 0);
        let b = StateVector::basis_state(2, 3);
        assert_eq!(a.inner_product(&b), Complex::ZERO);
        assert_eq!(a.inner_product(&a), Complex::ONE);
        assert_eq!(a.fidelity(&b), 0.0);
        assert_eq!(a.fidelity(&a), 1.0);
    }

    #[test]
    fn sampling_matches_distribution() {
        let psi = StateVector::uniform_superposition(2);
        let mut rng = StdRng::seed_from_u64(9);
        let counts = psi.sample_counts(40_000, &mut rng);
        for &c in &counts {
            let freq = c as f64 / 40_000.0;
            assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
        }
    }

    #[test]
    fn deterministic_sampling_on_basis_state() {
        let psi = StateVector::basis_state(3, 5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(psi.sample(&mut rng), 5);
        }
    }

    #[test]
    fn expectation_diagonal_uniform() {
        let psi = StateVector::uniform_superposition(2);
        let values = [0.0, 1.0, 2.0, 3.0];
        assert!((psi.expectation_diagonal(&values) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "diagonal length")]
    fn expectation_diagonal_rejects_wrong_length() {
        let psi = StateVector::uniform_superposition(2);
        let _ = psi.expectation_diagonal(&[1.0, 2.0]);
    }
}
