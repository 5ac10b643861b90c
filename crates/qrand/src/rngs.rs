//! Concrete generators: the workspace-standard [`StdRng`] and the
//! [`mock::StepRng`] test double.

use crate::{RngCore, SeedableRng};

/// SplitMix64 step: the seeding PRNG (and the stream mixer for substreams).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace-standard generator: xoshiro256** (Blackman & Vigna, 2018),
/// seeded through SplitMix64.
///
/// Fast (4 words of state, a handful of arithmetic ops per draw), equi-
/// distributed in 4 dimensions, and with a 2^256 − 1 period. The output
/// stream for a given seed is a compatibility promise: regression tests may
/// hard-code values drawn from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Builds a generator from four raw state words.
    ///
    /// # Panics
    ///
    /// Panics if all words are zero (the one forbidden xoshiro state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256** state must be nonzero"
        );
        StdRng { s }
    }

    /// The four raw state words. Feeding them back through
    /// [`Self::from_state`] reproduces this generator exactly — the pair is
    /// the save/restore protocol for mid-stream checkpointing.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// A generator for substream `stream` of `seed`: deterministic in both
    /// arguments, and decorrelated across streams — worker `i` of a
    /// parallel loop can take `StdRng::substream(seed, i as u64)`.
    pub fn substream(seed: u64, stream: u64) -> Self {
        let mut state = seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut state);
        }
        if s.iter().all(|&w| w == 0) {
            s[0] = 1;
        }
        StdRng { s }
    }

    /// Splits off an independent child generator, advancing `self`.
    pub fn split(&mut self) -> Self {
        let seed = self.next_u64();
        StdRng::seed_from_u64(seed)
    }

    /// Advances the state by 2^128 steps in O(1): calling `jump` k times
    /// yields 2^128 non-overlapping substreams of length 2^128 each.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut t = [0u64; 4];
        for word in JUMP {
            for b in 0..64 {
                if word & (1u64 << b) != 0 {
                    for (ti, si) in t.iter_mut().zip(&self.s) {
                        *ti ^= si;
                    }
                }
                let _ = self.next_u64();
            }
        }
        self.s = t;
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        StdRng::substream(seed, 0)
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Mock generators for tests.
pub mod mock {
    use crate::RngCore;

    /// An arithmetic-progression "generator": yields `initial`,
    /// `initial + increment`, `initial + 2·increment`, … Useful to pin a
    /// code path's RNG consumption in tests, or as a do-nothing generator
    /// where an API demands one but never draws.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StepRng {
        value: u64,
        increment: u64,
    }

    impl StepRng {
        /// A generator yielding `initial`, then adding `increment` per draw.
        pub fn new(initial: u64, increment: u64) -> Self {
            StepRng {
                value: initial,
                increment,
            }
        }
    }

    impl RngCore for StepRng {
        fn next_u64(&mut self) -> u64 {
            let out = self.value;
            self.value = self.value.wrapping_add(self.increment);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn reference_stream_is_stable() {
        // Compatibility anchor: if this changes, every seeded artifact in
        // the repo silently changes with it.
        let mut rng = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(first.len(), 4);
        let mut again = StdRng::seed_from_u64(0);
        let repeat: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, repeat);
        // Distinct from the seed=1 stream.
        let mut other = StdRng::seed_from_u64(1);
        assert_ne!(first[0], other.next_u64());
    }

    #[test]
    fn substreams_are_decorrelated() {
        let mut a = StdRng::substream(99, 0);
        let mut b = StdRng::substream(99, 1);
        let equal = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn jump_diverges_from_parent() {
        let mut a = StdRng::seed_from_u64(4);
        let mut b = a.clone();
        b.jump();
        let equal = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn jump_streams_mutually_distinct() {
        let base = StdRng::seed_from_u64(5);
        let mut s0 = base.clone();
        let mut s1 = base.clone();
        s1.jump();
        let mut s2 = s1.clone();
        s2.jump();
        let a = s0.next_u64();
        let b = s1.next_u64();
        let c = s2.next_u64();
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn split_children_differ() {
        let mut parent = StdRng::seed_from_u64(6);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn step_rng_walks_arithmetically() {
        let mut rng = mock::StepRng::new(10, 3);
        assert_eq!(rng.next_u64(), 10);
        assert_eq!(rng.next_u64(), 13);
        assert_eq!(rng.next_u64(), 16);
    }

    #[test]
    fn step_rng_zero_draws_tiny_floats() {
        // StepRng::new(0, 1) must keep gen::<f64>() pinned at ~0 for a
        // while — code paths use it as a "never really random" stand-in.
        let mut rng = mock::StepRng::new(0, 1);
        for _ in 0..100 {
            assert!(rng.gen::<f64>() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn all_zero_state_rejected() {
        let _ = StdRng::from_state([0; 4]);
    }

    #[test]
    fn state_round_trip_resumes_mid_stream() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..17 {
            let _ = rng.next_u64();
        }
        let mut resumed = StdRng::from_state(rng.state());
        let tail_a: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let tail_b: Vec<u64> = (0..32).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail_a, tail_b);
    }
}
