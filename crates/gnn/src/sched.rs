//! The paper's learning-rate schedule: "ReduceLROnPlateau as scheduler to
//! monitor the training loss ... we set scheduler mode to min, factor to 5,
//! patience to 5 and minimum learning rate to 1e-5" (§4.1). "Factor 5"
//! divides the rate by 5, the multiplicative factor 0.2.

/// The plateau schedule's cut: "factor 5" divides the learning rate by 5.
pub(crate) const FACTOR: f64 = 0.2;
/// Epochs in a row without a lower loss that the schedule tolerates; the
/// next one cuts the learning rate.
pub(crate) const PATIENCE: usize = 5;
/// The schedule never cuts the learning rate below this.
pub(crate) const MIN_LR: f64 = 1e-5;

/// ReduceLROnPlateau in `min` mode after an epoch with mean loss `loss`. A
/// loss below `best_loss` becomes the new best and restarts the
/// `bad_epochs` streak; any other loss extends it, and the epoch that takes
/// it past [`PATIENCE`] cuts `lr` by [`FACTOR`] (never below [`MIN_LR`]) and
/// restarts it. Returns whether the loss improved.
pub(crate) fn plateau_step(
    best_loss: &mut f64,
    bad_epochs: &mut usize,
    lr: &mut f64,
    loss: f64,
) -> bool {
    let improved = loss < *best_loss;
    if improved {
        *best_loss = loss;
        *bad_epochs = 0;
    } else {
        *bad_epochs += 1;
        if *bad_epochs > PATIENCE {
            *lr = (*lr * FACTOR).max(MIN_LR);
            *bad_epochs = 0;
        }
    }
    improved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainConfig, TrainState};
    use crate::{GnnKind, GnnModel, ModelConfig};
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    /// A schedule's `(best_loss, bad_epochs, lr)` as a fresh run holds it.
    fn fresh(lr: f64) -> (f64, usize, f64) {
        (f64::INFINITY, 0, lr)
    }

    /// The learning rate after each scripted epoch loss.
    fn rates(state: &mut (f64, usize, f64), losses: &[f64]) -> Vec<f64> {
        losses
            .iter()
            .map(|&loss| {
                plateau_step(&mut state.0, &mut state.1, &mut state.2, loss);
                state.2
            })
            .collect()
    }

    #[test]
    fn plateau_reduces_after_patience() {
        let mut state = fresh(1.0);
        // The first loss sets the best; five equal ones are tolerated
        // (equal is not better), and the sixth cuts the rate.
        assert_eq!(rates(&mut state, &[1.0; 6]), [1.0; 6]);
        assert_eq!(state.1, PATIENCE);
        assert_eq!(rates(&mut state, &[1.0]), [0.2]);
        assert_eq!(state.1, 0);
    }

    #[test]
    fn plateau_resets_on_improvement() {
        let mut state = fresh(1.0);
        // Four epochs without a lower loss, then an improvement.
        assert_eq!(rates(&mut state, &[1.0, 1.0, 1.0, 1.0, 0.5]), [1.0; 5]);
        assert_eq!((state.0, state.1), (0.5, 0));
        // The streak counts again from the improvement: five are tolerated.
        assert_eq!(rates(&mut state, &[0.6; 5]), [1.0; 5]);
        assert_eq!(rates(&mut state, &[0.6]), [0.2]);
        assert_eq!(state.0, 0.5);
    }

    #[test]
    fn plateau_respects_min_lr() {
        let mut state = fresh(1e-4);
        let tail = rates(&mut state, &[1.0; 100]);
        assert_eq!(tail[6], 1e-4 * 0.2);
        assert!(tail.iter().all(|&lr| lr >= MIN_LR));
        assert_eq!(tail[12..], [MIN_LR; 88]);
    }

    #[test]
    fn paper_default_matches_section_4_1() {
        assert_eq!((FACTOR, PATIENCE, MIN_LR), (0.2, 5, 1e-5));
    }

    #[test]
    fn plateau_fresh_state_is_empty() {
        let mut rng = StdRng::seed_from_u64(108);
        let model = GnnModel::new(GnnKind::Gcn, ModelConfig::default(), &mut rng);
        let mut state = TrainState::fresh(&model, &TrainConfig::default(), 4, &rng);
        assert_eq!((state.best_loss, state.bad_epochs), (f64::INFINITY, 0));
        // Any finite first loss, however large, is an improvement.
        let lr = state.optimizer.lr;
        assert!(plateau_step(
            &mut state.best_loss,
            &mut state.bad_epochs,
            &mut state.optimizer.lr,
            1e300,
        ));
        assert_eq!((state.best_loss, state.bad_epochs), (1e300, 0));
        assert_eq!(state.optimizer.lr, lr);
    }
}
