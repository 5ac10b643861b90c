//! Reference copy of the fused QAOA layer as it was before the level
//! table: serial only, one `cos`/`sin` pair per amplitude, computed-index
//! butterfly sweeps. The bit-identity suites compare the production
//! kernels against it, so it must stay a verbatim copy of that
//! arithmetic: per-amplitude `Complex::cis(-γ·v)` phases, the paired
//! `RX⊗RX` butterfly in its historical operation order, and the
//! `Complex`-form single-qubit sweep with its structural-zero entries.

#![allow(dead_code)]

use qsim::{Complex, StateVector};

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

fn phased(re: f64, im: f64, t: f64) -> (f64, f64) {
    let ph_re = t.cos();
    let ph_im = t.sin();
    (re * ph_re - im * ph_im, re * ph_im + im * ph_re)
}

fn rx_pair_sweep(re: &mut [f64], im: &mut [f64], a: usize, b: usize, k: RxPair) {
    let sa = 1usize << a;
    let sb = 1usize << b;
    let dim = re.len();
    let mut hi = 0;
    while hi < dim {
        let mut mid = hi;
        while mid < hi + sb {
            for i00 in mid..mid + sa {
                let i01 = i00 + sa;
                let i10 = i00 + sb;
                let i11 = i10 + sa;
                let y = k.butterfly(
                    re[i00], im[i00], re[i01], im[i01], re[i10], im[i10], re[i11], im[i11],
                );
                re[i00] = y[0];
                im[i00] = y[1];
                re[i01] = y[2];
                im[i01] = y[3];
                re[i10] = y[4];
                im[i10] = y[5];
                re[i11] = y[6];
                im[i11] = y[7];
            }
            mid += 2 * sa;
        }
        hi += 2 * sb;
    }
}

fn phase_rx_pair01_sweep(re: &mut [f64], im: &mut [f64], values: &[f64], gamma: f64, k: RxPair) {
    let neg_gamma = -gamma;
    let mut i = 0;
    while i < re.len() {
        let (x00re, x00im) = phased(re[i], im[i], neg_gamma * values[i]);
        let (x01re, x01im) = phased(re[i + 1], im[i + 1], neg_gamma * values[i + 1]);
        let (x10re, x10im) = phased(re[i + 2], im[i + 2], neg_gamma * values[i + 2]);
        let (x11re, x11im) = phased(re[i + 3], im[i + 3], neg_gamma * values[i + 3]);
        let y = k.butterfly(x00re, x00im, x01re, x01im, x10re, x10im, x11re, x11im);
        re[i] = y[0];
        im[i] = y[1];
        re[i + 1] = y[2];
        im[i + 1] = y[3];
        re[i + 2] = y[4];
        im[i + 2] = y[5];
        re[i + 3] = y[6];
        im[i + 3] = y[7];
        i += 4;
    }
}

fn rx_single_sweep(
    re: &mut [f64],
    im: &mut [f64],
    qubit: usize,
    theta: f64,
    phase: Option<(&[f64], f64)>,
) {
    let c = Complex::from((theta / 2.0).cos());
    let s = Complex::new(0.0, -(theta / 2.0).sin());
    let stride = 1usize << qubit;
    let dim = re.len();
    let mut base = 0;
    while base < dim {
        for offset in 0..stride {
            let i0 = base + offset;
            let i1 = i0 + stride;
            let mut a0 = Complex::new(re[i0], im[i0]);
            let mut a1 = Complex::new(re[i1], im[i1]);
            if let Some((values, gamma)) = phase {
                a0 *= Complex::cis(-gamma * values[i0]);
                a1 *= Complex::cis(-gamma * values[i1]);
            }
            let y0 = c * a0 + s * a1;
            let y1 = s * a0 + c * a1;
            re[i0] = y0.re;
            im[i0] = y0.im;
            re[i1] = y1.re;
            im[i1] = y1.im;
        }
        base += 2 * stride;
    }
}

/// One fused layer `RX(θ)^⊗n · e^{-iγD}` with `D` given per amplitude by
/// `values`, exactly as the serial kernel computed it before the level
/// table.
pub fn phase_rx_all(psi: &mut StateVector, values: &[f64], gamma: f64, theta: f64) {
    assert_eq!(values.len(), psi.dim(), "diagonal length must equal 2^n");
    let n = psi.num_qubits();
    let (re, im) = psi.re_im_mut();
    if n == 1 {
        rx_single_sweep(re, im, 0, theta, Some((values, gamma)));
        return;
    }
    let k = RxPair::new(theta);
    phase_rx_pair01_sweep(re, im, values, gamma, k);
    let mut q = 2;
    while q + 1 < n {
        rx_pair_sweep(re, im, q, q + 1, k);
        q += 2;
    }
    if q < n {
        rx_single_sweep(re, im, q, theta, None);
    }
}

/// The bits of every amplitude, re then im — exact comparison that also
/// tells `-0.0` from `+0.0`.
pub fn state_bits(psi: &StateVector) -> Vec<u64> {
    psi.re()
        .iter()
        .chain(psi.im())
        .map(|x| x.to_bits())
        .collect()
}
