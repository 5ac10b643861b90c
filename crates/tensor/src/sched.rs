//! Learning-rate schedulers.
//!
//! The paper uses "ReduceLROnPlateau as scheduler to monitor the training
//! loss and reduces the learning rate when there is no improvements for a
//! defined number of epochs. In particular, we set scheduler mode to min,
//! factor to 5, patience to 5 and minimum learning rate to 1e-5" (§4.1).
//! [`ReduceLrOnPlateau`] reproduces that behavior (interpreting "factor 5"
//! as dividing the rate by 5, the multiplicative factor 0.2).

use crate::optim::Optimizer;

/// Reduce-on-plateau scheduler in the paper's `min` mode: cuts the learning
/// rate by `factor` when the monitored loss has not fallen for `patience`
/// consecutive epochs.
///
/// # Example
///
/// ```
/// use tensor::optim::{Adam, Optimizer};
/// use tensor::sched::ReduceLrOnPlateau;
///
/// let mut opt = Adam::new(0.01);
/// let mut sched = ReduceLrOnPlateau::paper_default();
/// // Stagnant loss for many epochs drives the rate down.
/// for _ in 0..12 {
///     sched.step(1.0, &mut opt);
/// }
/// assert!(opt.learning_rate() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceLrOnPlateau {
    /// Multiplicative factor applied on plateau (e.g. `0.2` = divide by 5).
    pub factor: f64,
    /// Epochs without improvement before reducing.
    pub patience: usize,
    /// Lower bound on the learning rate.
    pub min_lr: f64,
    best: Option<f64>,
    bad_epochs: usize,
}

impl ReduceLrOnPlateau {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < factor < 1` and `min_lr >= 0`.
    pub fn new(factor: f64, patience: usize, min_lr: f64) -> Self {
        assert!(factor > 0.0 && factor < 1.0, "factor must be in (0, 1)");
        assert!(min_lr >= 0.0, "min_lr must be non-negative");
        ReduceLrOnPlateau {
            factor,
            patience,
            min_lr,
            best: None,
            bad_epochs: 0,
        }
    }

    /// The paper's §4.1 configuration: mode `min`, factor 5 (i.e. ×0.2),
    /// patience 5, minimum learning rate `1e-5`.
    pub fn paper_default() -> Self {
        Self::new(0.2, 5, 1e-5)
    }

    /// Snapshots the mutable scheduler state (best metric seen and the
    /// current bad-epoch streak) for checkpointing. Hyperparameters are not
    /// included — the restoring side reconstructs the scheduler from config
    /// and grafts this state on via [`Self::import_state`].
    pub fn export_state(&self) -> PlateauState {
        PlateauState {
            best: self.best,
            bad_epochs: self.bad_epochs,
        }
    }

    /// Restores state captured by [`Self::export_state`]. After import the
    /// scheduler steps bit-identically to the one the state came from
    /// (given identical hyperparameters).
    pub fn import_state(&mut self, state: &PlateauState) {
        self.best = state.best;
        self.bad_epochs = state.bad_epochs;
    }

    /// Reports one epoch's loss (improvement means it got smaller); reduces
    /// the optimizer's learning rate if the plateau condition fires. Returns
    /// `true` when a reduction happened.
    pub fn step<O: Optimizer + ?Sized>(&mut self, metric: f64, optimizer: &mut O) -> bool {
        let improved = self.best.is_none_or(|best| metric < best);
        if improved {
            self.best = Some(metric);
            self.bad_epochs = 0;
            return false;
        }
        self.bad_epochs += 1;
        if self.bad_epochs > self.patience {
            let new_lr = (optimizer.learning_rate() * self.factor).max(self.min_lr);
            let reduced = new_lr < optimizer.learning_rate();
            optimizer.set_learning_rate(new_lr);
            self.bad_epochs = 0;
            return reduced;
        }
        false
    }
}

/// The mutable state of a [`ReduceLrOnPlateau`] scheduler, detached from its
/// hyperparameters for checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct PlateauState {
    /// Best metric observed so far (`None` before the first step).
    pub best: Option<f64>,
    /// Consecutive epochs without improvement.
    pub bad_epochs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn plateau_reduces_after_patience() {
        let mut opt = Adam::new(1.0);
        let mut sched = ReduceLrOnPlateau::new(0.2, 2, 1e-5);
        assert!(!sched.step(1.0, &mut opt)); // sets best
        assert!(!sched.step(1.0, &mut opt)); // bad 1
        assert!(!sched.step(1.0, &mut opt)); // bad 2 == patience
        assert!(sched.step(1.0, &mut opt)); // bad 3 > patience → reduce
        assert!((opt.learning_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn plateau_resets_on_improvement() {
        let mut opt = Adam::new(1.0);
        let mut sched = ReduceLrOnPlateau::new(0.5, 1, 1e-5);
        sched.step(1.0, &mut opt);
        sched.step(1.0, &mut opt); // bad 1
        sched.step(0.5, &mut opt); // improvement resets
        sched.step(0.6, &mut opt); // bad 1
        assert_eq!(opt.learning_rate(), 1.0); // not yet reduced
        assert!(sched.step(0.6, &mut opt)); // bad 2 > patience 1 → reduce
        assert_eq!(opt.learning_rate(), 0.5);
    }

    #[test]
    fn plateau_respects_min_lr() {
        let mut opt = Adam::new(1e-4);
        let mut sched = ReduceLrOnPlateau::paper_default();
        for _ in 0..100 {
            sched.step(1.0, &mut opt);
        }
        assert!((opt.learning_rate() - 1e-5).abs() < 1e-12);
    }

    #[test]
    fn paper_default_matches_section_4_1() {
        let s = ReduceLrOnPlateau::paper_default();
        assert!((s.factor - 0.2).abs() < 1e-12);
        assert_eq!(s.patience, 5);
        assert!((s.min_lr - 1e-5).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn bad_factor_rejected() {
        let _ = ReduceLrOnPlateau::new(1.5, 5, 0.0);
    }

    /// Export mid-sequence, import into a fresh scheduler, and drive both
    /// through the same metric tail: decisions must match exactly.
    #[test]
    fn plateau_state_round_trip_preserves_decisions() {
        let metrics = [1.0, 0.9, 0.9, 0.9, 0.95, 0.9, 0.9, 0.9, 0.9, 0.85];
        let mut opt_a = Adam::new(1.0);
        let mut sched_a = ReduceLrOnPlateau::new(0.5, 2, 1e-5);
        for &m in &metrics[..4] {
            sched_a.step(m, &mut opt_a);
        }
        let state = sched_a.export_state();

        let mut opt_b = Adam::new(opt_a.learning_rate());
        let mut sched_b = ReduceLrOnPlateau::new(0.5, 2, 1e-5);
        sched_b.import_state(&state);
        assert_eq!(sched_b.export_state(), state);

        for &m in &metrics[4..] {
            let ra = sched_a.step(m, &mut opt_a);
            let rb = sched_b.step(m, &mut opt_b);
            assert_eq!(ra, rb, "reduction decision diverged at metric {m}");
            assert_eq!(
                opt_a.learning_rate().to_bits(),
                opt_b.learning_rate().to_bits()
            );
        }
    }

    #[test]
    fn plateau_fresh_state_is_empty() {
        let sched = ReduceLrOnPlateau::paper_default();
        let state = sched.export_state();
        assert_eq!(state.best, None);
        assert_eq!(state.bad_epochs, 0);
    }
}
