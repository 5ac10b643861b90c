use std::f64::consts::PI;

use qrand::Rng;

/// QAOA variational parameters: `p` phase angles γ and `p` mixer angles β.
///
/// The standard Max-Cut QAOA landscape is periodic — γ over `[0, 2π)` (for
/// integer-weight graphs) and β over `[0, π)` — so random initialization
/// (the paper's baseline, §3.1) samples those ranges.
///
/// # Example
///
/// ```
/// use qaoa::Params;
///
/// let params = Params::new(vec![0.5, 1.0], vec![0.2, 0.3]);
/// assert_eq!(params.depth(), 2);
/// let flat = params.to_flat();
/// assert_eq!(Params::from_flat(&flat).unwrap(), params);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    gammas: Vec<f64>,
    betas: Vec<f64>,
}

impl Params {
    /// Creates parameters from explicit angle vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or are empty.
    pub fn new(gammas: Vec<f64>, betas: Vec<f64>) -> Self {
        assert_eq!(
            gammas.len(),
            betas.len(),
            "gamma and beta vectors must have equal length"
        );
        assert!(!gammas.is_empty(), "depth p must be at least 1");
        Params { gammas, betas }
    }

    /// Uniformly random parameters: γ ∈ [0, 2π), β ∈ [0, π) — the paper's
    /// random-initialization baseline.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn random<R: Rng + ?Sized>(depth: usize, rng: &mut R) -> Self {
        assert!(depth >= 1, "depth p must be at least 1");
        let gammas = (0..depth).map(|_| rng.gen_range(0.0..2.0 * PI)).collect();
        let betas = (0..depth).map(|_| rng.gen_range(0.0..PI)).collect();
        Params { gammas, betas }
    }

    /// All-zero parameters of the given depth (the QAOA identity circuit).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn zeros(depth: usize) -> Self {
        assert!(depth >= 1, "depth p must be at least 1");
        Params {
            gammas: vec![0.0; depth],
            betas: vec![0.0; depth],
        }
    }

    /// Circuit depth `p`.
    pub fn depth(&self) -> usize {
        self.gammas.len()
    }

    /// Phase-separation angles γ.
    pub fn gammas(&self) -> &[f64] {
        &self.gammas
    }

    /// Mixer angles β.
    pub fn betas(&self) -> &[f64] {
        &self.betas
    }

    /// Flattens to `[γ_1..γ_p, β_1..β_p]` — the layout the optimizers use.
    pub fn to_flat(&self) -> Vec<f64> {
        let mut flat = self.gammas.clone();
        flat.extend_from_slice(&self.betas);
        flat
    }

    /// Rebuilds from the flat layout produced by [`Self::to_flat`].
    ///
    /// Returns `None` if the length is zero or odd.
    pub fn from_flat(flat: &[f64]) -> Option<Self> {
        if flat.is_empty() || !flat.len().is_multiple_of(2) {
            return None;
        }
        let p = flat.len() / 2;
        Some(Params {
            gammas: flat[..p].to_vec(),
            betas: flat[p..].to_vec(),
        })
    }

    /// Wraps angles into a canonical fundamental domain:
    /// `γ_1 ∈ [0, π]`, remaining `γ ∈ [0, 2π)`, `β ∈ [0, π/2)`.
    ///
    /// For integer-weight Max-Cut these are exact symmetries of the QAOA
    /// expectation: the cost eigenvalues are integers so `e^{-iγC}` has
    /// period 2π in γ; shifting any β by π/2 appends `(−i)^n X⊗…⊗X`, and
    /// the global bit-flip commutes with every layer and leaves the cut
    /// value invariant; and time reversal (complex conjugation of the
    /// whole circuit) gives `E(γ⃗, β⃗) = E(−γ⃗, −β⃗)`, which folds `γ_1`
    /// into `[0, π]`. Canonicalizing labels before training removes the
    /// several-copies-of-every-optimum ambiguity that otherwise makes the
    /// regression targets multimodal (§3.3's "noisy labels").
    pub fn canonical(&self) -> Params {
        let wrap = |gammas: &[f64], betas: &[f64]| Params {
            gammas: gammas.iter().map(|g| g.rem_euclid(2.0 * PI)).collect(),
            betas: betas.iter().map(|b| b.rem_euclid(PI / 2.0)).collect(),
        };
        let wrapped = wrap(&self.gammas, &self.betas);
        if wrapped.gammas[0] <= PI {
            return wrapped;
        }
        // Time-reversal fold: negate every angle, then re-wrap.
        let neg_g: Vec<f64> = wrapped.gammas.iter().map(|g| -g).collect();
        let neg_b: Vec<f64> = wrapped.betas.iter().map(|b| -b).collect();
        wrap(&neg_g, &neg_b)
    }

    /// Euclidean distance to another parameter vector of the same depth.
    ///
    /// # Panics
    ///
    /// Panics if depths differ.
    pub fn distance(&self, other: &Params) -> f64 {
        assert_eq!(self.depth(), other.depth(), "depths must match");
        self.to_flat()
            .iter()
            .zip(other.to_flat())
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    #[test]
    fn construction_and_accessors() {
        let p = Params::new(vec![0.1, 0.2], vec![0.3, 0.4]);
        assert_eq!(p.depth(), 2);
        assert_eq!(p.gammas(), &[0.1, 0.2]);
        assert_eq!(p.betas(), &[0.3, 0.4]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_rejected() {
        let _ = Params::new(vec![0.1], vec![0.3, 0.4]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn empty_rejected() {
        let _ = Params::new(vec![], vec![]);
    }

    #[test]
    fn random_in_documented_ranges() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let p = Params::random(3, &mut rng);
            for &g in p.gammas() {
                assert!((0.0..2.0 * PI).contains(&g));
            }
            for &b in p.betas() {
                assert!((0.0..PI).contains(&b));
            }
        }
    }

    #[test]
    fn flat_round_trip() {
        let p = Params::new(vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]);
        let flat = p.to_flat();
        assert_eq!(flat, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(Params::from_flat(&flat).unwrap(), p);
    }

    #[test]
    fn from_flat_rejects_odd_or_empty() {
        assert!(Params::from_flat(&[1.0, 2.0, 3.0]).is_none());
        assert!(Params::from_flat(&[]).is_none());
    }

    #[test]
    fn canonical_wraps_into_ranges() {
        let p = Params::new(vec![7.0, -1.0], vec![4.0, -0.5]);
        let c = p.canonical();
        assert!(c.gammas()[0] <= PI, "first gamma folded into [0, π]");
        for &g in c.gammas() {
            assert!((0.0..2.0 * PI).contains(&g));
        }
        for &b in c.betas() {
            assert!((0.0..PI / 2.0).contains(&b));
        }
        // Already-canonical params are untouched.
        let q = Params::new(vec![1.0], vec![0.5]);
        assert_eq!(q.canonical(), q);
    }

    #[test]
    fn canonical_folds_time_reversed_pairs_together() {
        // (γ, β) and (2π−γ, π−β) are the same physical point; both must map
        // to the same canonical representative.
        let a = Params::new(vec![1.1], vec![0.4]);
        let b = Params::new(vec![2.0 * PI - 1.1], vec![PI - 0.4]);
        let ca = a.canonical();
        let cb = b.canonical();
        assert!((ca.gammas()[0] - cb.gammas()[0]).abs() < 1e-12);
        assert!((ca.betas()[0] - cb.betas()[0]).abs() < 1e-12);
    }

    #[test]
    fn canonical_folds_beta_period_pi_over_2() {
        // β and β + π/2 are the same physical point.
        let a = Params::new(vec![0.7], vec![0.3]);
        let b = Params::new(vec![0.7], vec![0.3 + PI / 2.0]);
        assert!(a.canonical().distance(&b.canonical()) < 1e-12);
    }

    #[test]
    fn canonical_preserves_expectation() {
        use crate::{MaxCutHamiltonian, QaoaCircuit};
        let g = qgraph::Graph::cycle(5).unwrap();
        let circuit = QaoaCircuit::new(MaxCutHamiltonian::new(&g));
        let p = Params::new(vec![9.3, -2.0], vec![5.1, -1.2]);
        let e1 = circuit.expectation(&p);
        let e2 = circuit.expectation(&p.canonical());
        assert!((e1 - e2).abs() < 1e-9, "{e1} vs {e2}");
    }

    #[test]
    fn zeros_and_distance() {
        let z = Params::zeros(2);
        let p = Params::new(vec![3.0, 0.0], vec![0.0, 4.0]);
        assert!((z.distance(&p) - 5.0).abs() < 1e-12);
        assert_eq!(z.distance(&z), 0.0);
    }
}
