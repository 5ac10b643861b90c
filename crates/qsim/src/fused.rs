//! Fused whole-register kernels for the QAOA labeling hot path.
//!
//! One QAOA layer is a diagonal phase `e^{-iγC}` followed by the mixer
//! `RX(2β)` on every qubit. Applied gate by gate that is `n + 1` full
//! sweeps over the `2^n` amplitudes per layer; the kernels here cut that
//! down in three ways:
//!
//! * **Qubit pairing.** `RX(θ)^⊗2` on a qubit pair is a single 4-amplitude
//!   butterfly, so [`rx_all`] processes qubits two at a time — `⌈n/2⌉`
//!   sweeps instead of `n`, and with shared sub-expressions fewer flops
//!   per amplitude than two independent 2×2 butterflies.
//! * **Phase fusion.** The diagonal phase is per-amplitude, so
//!   [`phase_rx_all`] folds it into the first mixer sweep: each amplitude
//!   is phased as it is first loaded, eliminating one full memory pass
//!   per layer.
//! * **Level table.** A cost diagonal takes few distinct values (at most
//!   `m + 1` for an unweighted Max-Cut instance), so the phase is not
//!   computed per amplitude: [`PhaseTable::fill`] evaluates
//!   `(cos(-γ·v), sin(-γ·v))` once per distinct value `v` (a *level* of
//!   the [`DiagonalOperator`](crate::diagonal::DiagonalOperator)), and
//!   the sweep gathers amplitude `z`'s factor through the operator's
//!   `level_of[z]`. Equal angle bits give equal `cos`/`sin` bits and the
//!   complex multiply keeps its operation order, so this is bit-identical
//!   to a per-amplitude `Complex::cis`.
//! * **Flip symmetry.** [`phase_rx_half`] runs a layer on half the
//!   register. A QAOA state starts as `|+⟩^⊗n`, which the global bit flip
//!   `z ↦ 2^n − 1 − z` leaves unchanged. So does a layer whose diagonal
//!   is flip-symmetric (a Max-Cut cost depends only on `bit_u XOR bit_v`),
//!   since `RX^⊗n` commutes with `X^⊗n`. The kernels keep that equality
//!   bit for bit, not just up to rounding: mirrored amplitudes get the
//!   same level, hence the same phase bits, and a butterfly whose inputs
//!   are mirrored computes its mirrored outputs from the same products,
//!   only with the operands of each `+` swapped (`x01 + x10` against
//!   `x10 + x01`). IEEE addition is commutative and nothing here is
//!   contracted into an FMA, so the results are equal. The sweeps for
//!   qubits `0..n − 1` never mix the two halves and run on the lower half
//!   unchanged; one mirror sweep does the group that holds qubit `n − 1`.
//!   [`expectation_half`] sums the lower half forward, then backward,
//!   which is exactly the full register's left-to-right sum, term for
//!   term. [`unfold_half`] writes out the full state when one is needed.
//!
//! The sweeps run directly on the state's split re/im `f64` arrays
//! (see [`StateVector`]). Each butterfly block is split into its four
//! lanes with `chunks_exact_mut`/`split_at_mut`, so the loop body is
//! straight-line scalar arithmetic over same-index lanes of equal-length
//! slices: no bounds checks, which the compiler auto-vectorizes.
//!
//! Both kernels are exact — the golden equivalence suite in
//! `tests/fused.rs` pins them against the gate-by-gate path to 1e-12 —
//! and allocation-free: they mutate the state in place, and the phase
//! table is caller-owned scratch.

use crate::{Complex, StateVector};

/// Precomputed constants for the two-qubit `RX(θ)⊗RX(θ)` butterfly.
///
/// With `c = cos(θ/2)`, `s = sin(θ/2)` the tensor square works out to
/// (writing `p = x01 + x10`, `q = x00 + x11`):
///
/// ```text
/// y00 = c²·x00 − s²·x11 − i·cs·p
/// y01 = c²·x01 − s²·x10 − i·cs·q
/// y10 = c²·x10 − s²·x01 − i·cs·q
/// y11 = c²·x11 − s²·x00 − i·cs·p
/// ```
#[derive(Clone, Copy)]
struct RxPair {
    cc: f64,
    ss: f64,
    cs: f64,
}

impl RxPair {
    fn new(theta: f64) -> Self {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        RxPair {
            cc: c * c,
            ss: s * s,
            cs: c * s,
        }
    }

    /// One 4-amplitude butterfly on split components, returned as
    /// `[y00re, y00im, y01re, y01im, y10re, y10im, y11re, y11im]`.
    ///
    /// The re and im lanes are independent scalar expressions in the
    /// exact operation order of the historical `Complex` formulation, so
    /// results are bit-identical to it (the golden suites rely on this).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn butterfly(
        self,
        x00re: f64,
        x00im: f64,
        x01re: f64,
        x01im: f64,
        x10re: f64,
        x10im: f64,
        x11re: f64,
        x11im: f64,
    ) -> [f64; 8] {
        let p_re = x01re + x10re;
        let p_im = x01im + x10im;
        let q_re = x00re + x11re;
        let q_im = x00im + x11im;
        // Multiplication by −i·cs: −i·(re + i·im) = im − i·re.
        let rot_p_re = self.cs * p_im;
        let rot_p_im = -self.cs * p_re;
        let rot_q_re = self.cs * q_im;
        let rot_q_im = -self.cs * q_re;
        [
            x00re * self.cc - x11re * self.ss + rot_p_re,
            x00im * self.cc - x11im * self.ss + rot_p_im,
            x01re * self.cc - x10re * self.ss + rot_q_re,
            x01im * self.cc - x10im * self.ss + rot_q_im,
            x10re * self.cc - x01re * self.ss + rot_q_re,
            x10im * self.cc - x01im * self.ss + rot_q_im,
            x11re * self.cc - x00re * self.ss + rot_p_re,
            x11im * self.cc - x00im * self.ss + rot_p_im,
        ]
    }
}

/// The per-level phase factors `e^{-iγ·v}` of one QAOA layer, stored as
/// `(cos, sin)` pairs in the level order of a
/// [`DiagonalOperator`](crate::diagonal::DiagonalOperator).
///
/// The fused layer gathers each amplitude's factor through the operator's
/// `level_of` table, so `cos`/`sin` run once per distinct diagonal value
/// rather than once per amplitude. Refilling a table reuses its buffer.
#[derive(Debug, Clone, Default)]
pub struct PhaseTable {
    factors: Vec<(f64, f64)>,
}

impl PhaseTable {
    /// The factors `e^{-iγ·v}` for every `v` in `levels`.
    pub fn new(levels: &[f64], gamma: f64) -> Self {
        let mut table = PhaseTable::default();
        table.fill(levels, gamma);
        table
    }

    /// Overwrites the table with the factors for `levels` at `gamma`.
    ///
    /// The angle is `t = (-γ)·v` and the factor `(cos t, sin t)`: the same
    /// `t` bits, hence the same factor bits, as the per-amplitude
    /// `Complex::cis(-γ·v)` of
    /// [`DiagonalOperator::apply_phase`](crate::diagonal::DiagonalOperator::apply_phase).
    pub fn fill(&mut self, levels: &[f64], gamma: f64) {
        let neg_gamma = -gamma;
        self.factors.clear();
        self.factors.extend(levels.iter().map(|&v| {
            let t = neg_gamma * v;
            (t.cos(), t.sin())
        }));
    }
}

/// Multiplies the amplitude `(re, im)` by the unit phase `(c, s)` — the
/// split-component form of `Complex * Complex::new(c, s)`, in its
/// operation order.
#[inline(always)]
fn phased(re: f64, im: f64, (c, s): (f64, f64)) -> (f64, f64) {
    (re * c - im * s, re * s + im * c)
}

/// Splits a butterfly block into its four equal lanes `x00, x01, x10,
/// x11`. All four have the same known length, so indexing them over
/// `0..len` compiles without bounds checks.
#[inline(always)]
fn lanes(block: &mut [f64]) -> [&mut [f64]; 4] {
    let q = block.len() / 4;
    let (x00, rest) = block.split_at_mut(q);
    let (x01, rest) = rest.split_at_mut(q);
    let (x10, x11) = rest.split_at_mut(q);
    [x00, x01, x10, &mut x11[..q]]
}

/// Applies the `RX(θ)⊗RX(θ)` butterfly to qubit pair `(a, a + 1)` in one
/// sweep over the state's split arrays.
///
/// Kept out of line, like [`phase_rx_pair01_sweep`]: inlined into their
/// callers, the two sweeps made one expectation ~7% slower at n = 13
/// (median of 40 paired runs on a 2-vCPU x86-64 VM), with the same bits.
#[inline(never)]
fn rx_pair_sweep(re: &mut [f64], im: &mut [f64], a: usize, k: RxPair) {
    let block = 4usize << a;
    for (re_b, im_b) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
        let [r00, r01, r10, r11] = lanes(re_b);
        let [i00, i01, i10, i11] = lanes(im_b);
        for j in 0..r00.len() {
            let y = k.butterfly(
                r00[j], i00[j], r01[j], i01[j], r10[j], i10[j], r11[j], i11[j],
            );
            r00[j] = y[0];
            i00[j] = y[1];
            r01[j] = y[2];
            i01[j] = y[3];
            r10[j] = y[4];
            i10[j] = y[5];
            r11[j] = y[6];
            i11[j] = y[7];
        }
    }
}

/// Like [`rx_pair_sweep`] on pair `(0, 1)`, but multiplies each amplitude
/// by its level's phase factor as it is loaded — the fused phase + first
/// mixer sweep. Each quadruple is four consecutive amplitudes, so the
/// level indices are read in order.
#[inline(never)]
fn phase_rx_pair01_sweep(
    re: &mut [f64],
    im: &mut [f64],
    level_of: &[u32],
    phases: &[(f64, f64)],
    k: RxPair,
) {
    debug_assert_eq!(re.len(), level_of.len());
    let quads = re
        .chunks_exact_mut(4)
        .zip(im.chunks_exact_mut(4))
        .zip(level_of.chunks_exact(4));
    for ((r, i), l) in quads {
        let (x00re, x00im) = phased(r[0], i[0], phases[l[0] as usize]);
        let (x01re, x01im) = phased(r[1], i[1], phases[l[1] as usize]);
        let (x10re, x10im) = phased(r[2], i[2], phases[l[2] as usize]);
        let (x11re, x11im) = phased(r[3], i[3], phases[l[3] as usize]);
        let y = k.butterfly(x00re, x00im, x01re, x01im, x10re, x10im, x11re, x11im);
        r[0] = y[0];
        i[0] = y[1];
        r[1] = y[2];
        i[1] = y[3];
        r[2] = y[4];
        i[2] = y[5];
        r[3] = y[6];
        i[3] = y[7];
    }
}

/// Single-qubit `RX(θ)` sweep (the leftover qubit when `n` is odd, and the
/// whole mixer when `n == 1`).
///
/// Loads each amplitude pair into [`Complex`] and applies the historical
/// formulas verbatim — including the structural-zero matrix entries — so
/// even signed-zero results stay bit-identical to every prior release.
fn rx_single_sweep(re: &mut [f64], im: &mut [f64], qubit: usize, theta: f64) {
    let c = Complex::from((theta / 2.0).cos());
    let s = Complex::new(0.0, -(theta / 2.0).sin());
    let block = 2usize << qubit;
    for (re_b, im_b) in re.chunks_exact_mut(block).zip(im.chunks_exact_mut(block)) {
        let (r0, r1) = re_b.split_at_mut(block / 2);
        let (i0, i1) = im_b.split_at_mut(block / 2);
        for j in 0..r0.len() {
            let a0 = Complex::new(r0[j], i0[j]);
            let a1 = Complex::new(r1[j], i1[j]);
            let y0 = c * a0 + s * a1;
            let y1 = s * a0 + c * a1;
            r0[j] = y0.re;
            i0[j] = y0.im;
            r1[j] = y1.re;
            i1[j] = y1.im;
        }
    }
}

/// The mixer sweeps on qubits `from_q..n`: consecutive pairs plus a
/// possible odd leftover.
fn rx_tail(re: &mut [f64], im: &mut [f64], n: usize, from_q: usize, theta: f64, k: RxPair) {
    let mut q = from_q;
    while q + 1 < n {
        rx_pair_sweep(re, im, q, k);
        q += 2;
    }
    if q < n {
        rx_single_sweep(re, im, q, theta);
    }
}

/// Amplitude pairs `(&mut re, &mut im)` of equal-length component slices,
/// walkable from either end.
fn amps<'a>(
    re: &'a mut [f64],
    im: &'a mut [f64],
) -> impl DoubleEndedIterator<Item = (&'a mut f64, &'a mut f64)> {
    re.iter_mut().zip(im.iter_mut())
}

/// The mirror sweep for the top pair `(n − 2, n − 1)` on the lower half
/// `L` of a flip-symmetric register (`n ≥ 2`, `L.len() = 2^(n−1)`).
///
/// With `Q = L.len() / 2`, the full-register block `j` of this pair holds
/// `x00 = L[j]`, `x01 = L[Q + j]` and, mirrored in from the upper half,
/// `x10 = L[2Q − 1 − j]`, `x11 = L[Q − 1 − j]`. Blocks `j` and
/// `Q − 1 − j` touch the same four lower-half amplitudes and are mirror
/// images of each other, so one butterfly per pair writes all four.
#[inline(never)]
fn rx_top_pair_mirror_sweep(re: &mut [f64], im: &mut [f64], k: RxPair) {
    let q = re.len() / 2;
    if q == 1 {
        // n = 2: block 0 is its own mirror image.
        let y = k.butterfly(re[0], im[0], re[1], im[1], re[1], im[1], re[0], im[0]);
        (re[0], im[0], re[1], im[1]) = (y[0], y[1], y[2], y[3]);
        return;
    }
    let (a_re, b_re) = re.split_at_mut(q);
    let (a_im, b_im) = im.split_at_mut(q);
    let (a_lo_re, a_hi_re) = a_re.split_at_mut(q / 2);
    let (a_lo_im, a_hi_im) = a_im.split_at_mut(q / 2);
    let (b_lo_re, b_hi_re) = b_re.split_at_mut(q / 2);
    let (b_lo_im, b_hi_im) = b_im.split_at_mut(q / 2);
    let x00 = amps(a_lo_re, a_lo_im);
    let x01 = amps(b_lo_re, b_lo_im);
    let x10 = amps(b_hi_re, b_hi_im).rev();
    let x11 = amps(a_hi_re, a_hi_im).rev();
    for (((r00, i00), (r01, i01)), ((r10, i10), (r11, i11))) in x00.zip(x01).zip(x10.zip(x11)) {
        let y = k.butterfly(*r00, *i00, *r01, *i01, *r10, *i10, *r11, *i11);
        (*r00, *i00, *r01, *i01) = (y[0], y[1], y[2], y[3]);
        (*r10, *i10, *r11, *i11) = (y[4], y[5], y[6], y[7]);
    }
}

/// The mirror sweep for the single top qubit `n − 1` (odd `n`) on the
/// lower half `L` of a flip-symmetric register: the full-register pair
/// `j` holds `a0 = L[j]` and, mirrored in, `a1 = L[H − 1 − j]`, and pairs
/// `j` and `H − 1 − j` are mirror images, so one butterfly per pair
/// writes both. Same `Complex` arithmetic as [`rx_single_sweep`].
#[inline(never)]
fn rx_top_single_mirror_sweep(re: &mut [f64], im: &mut [f64], theta: f64) {
    let c = Complex::from((theta / 2.0).cos());
    let s = Complex::new(0.0, -(theta / 2.0).sin());
    let h = re.len();
    if h == 1 {
        // n = 1: the one pair is its own mirror image.
        let a = Complex::new(re[0], im[0]);
        let y0 = c * a + s * a;
        (re[0], im[0]) = (y0.re, y0.im);
        return;
    }
    let (lo_re, hi_re) = re.split_at_mut(h / 2);
    let (lo_im, hi_im) = im.split_at_mut(h / 2);
    for ((r0, i0), (r1, i1)) in amps(lo_re, lo_im).zip(amps(hi_re, hi_im).rev()) {
        let a0 = Complex::new(*r0, *i0);
        let a1 = Complex::new(*r1, *i1);
        let y0 = c * a0 + s * a1;
        let y1 = s * a0 + c * a1;
        (*r0, *i0, *r1, *i1) = (y0.re, y0.im, y1.re, y1.im);
    }
}

/// [`phase_rx_all`] on a flip-symmetric register, given only its lower
/// half: the `H = 2^(n−1)` amplitudes with qubit `n − 1` clear, whose
/// mirrors `z ↦ 2^n − 1 − z` fill the upper half. `level_of` is the lower
/// half of the level table, whose upper half must mirror it too.
///
/// The half after this call is bit for bit the lower half of what
/// [`phase_rx_all`] leaves in the full register (see the module doc).
///
/// # Panics
///
/// Panics if `re`, `im` and `level_of` differ in length or the length is
/// not a power of two, or if a level index is out of range of `phases`.
pub fn phase_rx_half(
    re: &mut [f64],
    im: &mut [f64],
    level_of: &[u32],
    phases: &PhaseTable,
    theta: f64,
) {
    let h = re.len();
    assert!(
        h.is_power_of_two() && im.len() == h && level_of.len() == h,
        "half register must be 2^(n-1) re, im and level entries"
    );
    let n = h.trailing_zeros() as usize + 1;
    let phases = &phases.factors;
    let k = RxPair::new(theta);
    let mut q = if n <= 2 {
        // Too short for a fused quad sweep: phase, then the top sweep, in
        // the order the fused full-register sweep applies them.
        for ((r, i), &l) in amps(re, im).zip(level_of) {
            (*r, *i) = phased(*r, *i, phases[l as usize]);
        }
        0
    } else {
        phase_rx_pair01_sweep(re, im, level_of, phases, k);
        2
    };
    while q + 2 < n {
        rx_pair_sweep(re, im, q, k);
        q += 2;
    }
    if q + 2 == n {
        rx_top_pair_mirror_sweep(re, im, k);
    } else {
        rx_top_single_mirror_sweep(re, im, theta);
    }
}

/// `⟨ψ|D|ψ⟩` of a flip-symmetric register from its lower half and the
/// lower half of a mirror-symmetric diagonal `D`: the terms of the upper
/// half are those of the lower half in reverse, so one sum over the half
/// forward and then backward folds exactly the terms of
/// [`StateVector::expectation_diagonal`], in its order.
///
/// # Panics
///
/// Panics if `re`, `im` and `values` differ in length.
pub fn expectation_half(re: &[f64], im: &[f64], values: &[f64]) -> f64 {
    assert!(
        im.len() == re.len() && values.len() == re.len(),
        "half register and diagonal lengths must match"
    );
    let terms = re
        .iter()
        .zip(im)
        .zip(values)
        .map(|((&re, &im), &v)| (re * re + im * im) * v);
    terms.clone().chain(terms.rev()).sum()
}

/// Writes the full flip-symmetric register whose lower half is `re`/`im`
/// into `psi`: the half itself, then its mirror image.
///
/// # Panics
///
/// Panics if `psi` is not twice as long as the half.
pub fn unfold_half(re: &[f64], im: &[f64], psi: &mut StateVector) {
    let h = re.len();
    assert!(
        im.len() == h && psi.dim() == 2 * h,
        "state must hold twice the half's amplitudes"
    );
    let (full_re, full_im) = psi.re_im_mut();
    for (full, half) in [(full_re, re), (full_im, im)] {
        let (lo, hi) = full.split_at_mut(h);
        lo.copy_from_slice(half);
        for (dst, &src) in hi.iter_mut().zip(half.iter().rev()) {
            *dst = src;
        }
    }
}

/// Applies `RX(θ)` to every qubit in `⌈n/2⌉` sweeps instead of `n`.
///
/// Exactly equivalent to [`crate::gates::rx_all`]; this is the fused fast
/// path the QAOA mixer layer uses (`θ = 2β`).
pub fn rx_all(psi: &mut StateVector, theta: f64) {
    let n = psi.num_qubits();
    let (re, im) = psi.re_im_mut();
    if n == 1 {
        rx_single_sweep(re, im, 0, theta);
        return;
    }
    rx_tail(re, im, n, 0, theta, RxPair::new(theta));
}

/// One fused QAOA layer: the diagonal phase `e^{-iγD}` followed by
/// `RX(θ)` on every qubit, with the phase folded into the first mixer
/// sweep. `D` is given by its level table: amplitude `z` is multiplied by
/// the factor of level `level_of[z]` in `phases`, which
/// [`PhaseTable::fill`] builds from `D`'s levels at angle `γ`.
///
/// Exactly equivalent to `DiagonalOperator::apply_phase` followed by
/// [`crate::gates::rx_all`], in `⌈n/2⌉` sweeps instead of `n + 1`.
///
/// # Panics
///
/// Panics if `level_of.len() != 2^n`, or if a level index is out of range
/// of `phases`.
pub fn phase_rx_all(psi: &mut StateVector, level_of: &[u32], phases: &PhaseTable, theta: f64) {
    let n = psi.num_qubits();
    assert_eq!(level_of.len(), psi.dim(), "diagonal length must equal 2^n");
    let phases = &phases.factors;
    let (re, im) = psi.re_im_mut();
    if n == 1 {
        for (i, &l) in level_of.iter().enumerate() {
            (re[i], im[i]) = phased(re[i], im[i], phases[l as usize]);
        }
        rx_single_sweep(re, im, 0, theta);
        return;
    }
    let k = RxPair::new(theta);
    phase_rx_pair01_sweep(re, im, level_of, phases, k);
    rx_tail(re, im, n, 2, theta, k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagonal::DiagonalOperator;
    use crate::gates;

    fn max_amp_diff(a: &StateVector, b: &StateVector) -> f64 {
        a.to_amplitudes()
            .iter()
            .zip(b.to_amplitudes())
            .map(|(x, y)| (*x - y).norm())
            .fold(0.0, f64::max)
    }

    #[test]
    fn rx_all_matches_per_qubit_path() {
        for n in 1..=7 {
            let mut fused = StateVector::uniform_superposition(n);
            // Break the symmetry so every amplitude is distinct.
            for q in 0..n {
                gates::rz(&mut fused, q, 0.3 + q as f64);
            }
            let mut unfused = fused.clone();
            rx_all(&mut fused, 0.77);
            gates::rx_all(&mut unfused, 0.77);
            assert!(
                max_amp_diff(&fused, &unfused) < 1e-13,
                "n={n}: fused RX layer diverges"
            );
        }
    }

    #[test]
    fn phase_rx_all_matches_sequential_path() {
        for n in 1..=7 {
            let op =
                DiagonalOperator::from_fn(n, |z| (z.count_ones() as f64) * 0.8 + z as f64 * 0.01);
            let mut fused = StateVector::uniform_superposition(n);
            for q in 0..n {
                gates::ry(&mut fused, q, 0.2 * (q + 1) as f64);
            }
            let mut unfused = fused.clone();
            phase_rx_all(
                &mut fused,
                op.level_of(),
                &PhaseTable::new(op.levels(), 0.41),
                0.93,
            );
            op.apply_phase(&mut unfused, 0.41);
            gates::rx_all(&mut unfused, 0.93);
            assert!(
                max_amp_diff(&fused, &unfused) < 1e-13,
                "n={n}: fused phase+mixer layer diverges"
            );
        }
    }

    #[test]
    fn half_register_layers_match_full_register_bits() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 1..=8 {
            // Flip-symmetric and with many distinct levels: a function of
            // the lower-half representative of each mirror pair.
            let mask = (1u64 << n) - 1;
            let op = DiagonalOperator::from_fn(n, |z| {
                let r = z.min(!z & mask);
                (r as f64 * 0.37).sin() - 0.25 * r.count_ones() as f64
            });
            let h = op.values().len() / 2;
            let mut full = StateVector::uniform_superposition(n);
            let mut re = full.re()[..h].to_vec();
            let mut im = full.im()[..h].to_vec();
            let mut unfolded = StateVector::zero_state(n);
            for (gamma, theta) in [(0.83, -0.41), (-1.9, 2.4), (2.6, 0.37)] {
                let phases = PhaseTable::new(op.levels(), gamma);
                phase_rx_all(&mut full, op.level_of(), &phases, theta);
                phase_rx_half(&mut re, &mut im, &op.level_of()[..h], &phases, theta);
                unfold_half(&re, &im, &mut unfolded);
                assert_eq!(bits(unfolded.re()), bits(full.re()), "n={n}");
                assert_eq!(bits(unfolded.im()), bits(full.im()), "n={n}");
                assert_eq!(
                    expectation_half(&re, &im, &op.values()[..h]).to_bits(),
                    full.expectation_diagonal(op.values()).to_bits(),
                    "n={n}"
                );
            }
        }
    }

    #[test]
    fn fused_layers_preserve_norm() {
        let op = DiagonalOperator::from_fn(5, |z| z as f64);
        let mut psi = StateVector::uniform_superposition(5);
        for _ in 0..4 {
            phase_rx_all(
                &mut psi,
                op.level_of(),
                &PhaseTable::new(op.levels(), 0.9),
                0.6,
            );
        }
        assert!((psi.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "diagonal length")]
    fn phase_rx_all_rejects_wrong_table() {
        let mut psi = StateVector::uniform_superposition(3);
        phase_rx_all(&mut psi, &[0; 4], &PhaseTable::new(&[0.0], 0.1), 0.2);
    }
}
