#ifndef FDX_LINALG_GLASSO_NEWTON_H_
#define FDX_LINALG_GLASSO_NEWTON_H_

#include "linalg/glasso.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace fdx {

/// Output of one QUIC-style Newton solve on a block-local problem.
struct NewtonBlockResult {
  Matrix w;      ///< Theta^{-1} at the final iterate.
  Matrix theta;  ///< Sparse precision estimate (symmetric, exact zeros).
  /// Newton iterations spent at the target lambda (line-searched steps
  /// plus the final convergence check).
  size_t iterations = 0;
  /// Lambda-path continuation stages run before the target lambda.
  size_t path_stages = 0;
  /// Mean absolute Theta change of the last accepted Newton step.
  double final_mean_change = 0.0;
};

/// Second-order solver for one (dense) connected component of the
/// graphical lasso, in the style of QUIC (Hsieh, Sustik, Dhillon &
/// Ravikumar 2011): minimize
///
///   f(Theta) = -log det Theta + tr(S' Theta) + lambda ||Theta||_1,
///   S' = s + diagonal_ridge * I,
///
/// by coordinate descent on the Newton direction over the free set
/// (entries that are nonzero or violate the KKT bound), followed by an
/// Armijo line search on f with a Cholesky positive-definiteness check.
/// This is the same fixed point as the FHT block coordinate descent —
/// w_jj = s_jj + ridge + lambda on the diagonal, |w_ij - s_ij| <= lambda
/// off it — reached in a handful of quadratically-convergent steps
/// where dense structure forces CD to grind through many full sweeps.
///
/// Convergence: minimum-norm subgradient max-norm <= tolerance *
/// s_scale (same problem scale the CD solver normalizes by). Cold
/// solves first run a short lambda-path continuation: the target lambda
/// is warm-started from a few sparser solves. It is purely an
/// initial-point device — it never changes the fixed point — and
/// deterministic, so lineage-keyed result caches stay valid.
/// `warm_theta`, when non-null and positive definite, seeds the iterate
/// directly and skips the path.
///
/// `s` must be the block-local covariance (members gathered); the
/// result matrices come back in the same local order. Deterministic:
/// fixed coordinate order, no thread interaction.
Result<NewtonBlockResult> SolveBlockNewton(const Matrix& s,
                                           const GlassoOptions& options,
                                           const Matrix* warm_theta);

}  // namespace fdx

#endif  // FDX_LINALG_GLASSO_NEWTON_H_
