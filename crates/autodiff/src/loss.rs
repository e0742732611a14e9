//! The arithmetic of the fused classification losses: the loss value and
//! its gradient template with respect to the scores.
//!
//! [`Graph::margin_loss`](crate::Graph::margin_loss) and
//! [`Graph::cross_entropy_logits`](crate::Graph::cross_entropy_logits)
//! record these on the tape; a hand-derived training step calls them
//! directly on its own buffers, so both produce the same bits.

use crate::AutodiffError;
use pnc_linalg::Matrix;

/// Checks that `targets` has one in-range class per score row.
fn check_targets(batch: usize, classes: usize, targets: &[usize]) -> Result<(), AutodiffError> {
    if targets.len() != batch {
        return Err(AutodiffError::TargetLengthMismatch {
            batch,
            targets: targets.len(),
        });
    }
    if let Some(&bad) = targets.iter().find(|&&t| t >= classes) {
        return Err(AutodiffError::InvalidTarget {
            class: bad,
            num_classes: classes,
        });
    }
    Ok(())
}

/// Checks that the gradient template has the scores' shape.
fn check_grad(op: &'static str, scores: &Matrix, grad: &Matrix) -> Result<(), AutodiffError> {
    if grad.shape() != scores.shape() {
        return Err(AutodiffError::ShapeMismatch {
            op,
            lhs: scores.shape(),
            rhs: grad.shape(),
        });
    }
    Ok(())
}

/// Mean softmax cross-entropy over the rows of `scores` with integer class
/// targets. Writes `∂loss/∂scores` into `grad` (same shape, fully
/// overwritten) and returns the loss.
///
/// # Errors
///
/// Returns [`AutodiffError::TargetLengthMismatch`] or
/// [`AutodiffError::InvalidTarget`] on malformed targets and
/// [`AutodiffError::ShapeMismatch`] if `grad` is not shaped like `scores`.
pub fn cross_entropy_logits(
    scores: &Matrix,
    targets: &[usize],
    grad: &mut Matrix,
) -> Result<f64, AutodiffError> {
    let (batch, classes) = scores.shape();
    check_targets(batch, classes, targets)?;
    check_grad("cross_entropy_logits", scores, grad)?;
    let mut loss = 0.0;
    let mut exps = vec![0.0; classes];
    for i in 0..batch {
        // Stable softmax.
        let row_max = (0..classes)
            .map(|j| scores[(i, j)])
            .fold(f64::NEG_INFINITY, f64::max);
        for (j, e) in exps.iter_mut().enumerate() {
            *e = (scores[(i, j)] - row_max).exp();
        }
        let denom: f64 = exps.iter().sum();
        let y = targets[i];
        loss += -(exps[y] / denom).ln();
        for j in 0..classes {
            let p = exps[j] / denom;
            grad[(i, j)] = (p - if j == y { 1.0 } else { 0.0 }) / batch as f64;
        }
    }
    Ok(loss / batch as f64)
}

/// The pNN margin loss, `mean_i max(0, margin − s_y + max_{j≠y} s_j)`:
/// the true-class output voltage should exceed every other output by
/// `margin`. Writes `∂loss/∂scores` into `grad` (same shape, fully
/// overwritten) and returns the loss.
///
/// # Errors
///
/// As for [`cross_entropy_logits`].
pub fn margin_loss(
    scores: &Matrix,
    targets: &[usize],
    margin: f64,
    grad: &mut Matrix,
) -> Result<f64, AutodiffError> {
    let (batch, classes) = scores.shape();
    check_targets(batch, classes, targets)?;
    check_grad("margin_loss", scores, grad)?;
    grad.as_mut_slice().fill(0.0);
    let mut loss = 0.0;
    for i in 0..batch {
        let y = targets[i];
        let (mut best_j, mut best) = (usize::MAX, f64::NEG_INFINITY);
        for j in 0..classes {
            if j != y && scores[(i, j)] > best {
                best = scores[(i, j)];
                best_j = j;
            }
        }
        if best_j == usize::MAX {
            // Single-class degenerate case: loss is zero.
            continue;
        }
        let violation = margin - scores[(i, y)] + best;
        if violation > 0.0 {
            loss += violation;
            grad[(i, y)] -= 1.0 / batch as f64;
            grad[(i, best_j)] += 1.0 / batch as f64;
        }
    }
    Ok(loss / batch as f64)
}
