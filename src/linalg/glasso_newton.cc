#include "linalg/glasso_newton.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "linalg/factorization.h"
#include "linalg/lasso.h"
#include "util/fault_injection.h"

namespace fdx {

namespace {

/// Outer Newton iteration caps: at the target lambda, and per
/// lambda-path continuation stage.
constexpr size_t kNewtonMaxIterations = 50;
constexpr size_t kPathStageIterations = 8;

/// log det(A) from its lower Cholesky factor.
double LogDetFromCholesky(const Matrix& l) {
  double acc = 0.0;
  for (size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
  return 2.0 * acc;
}

/// Elementwise dot of two symmetric matrices ( = tr(A B) ).
double SymmetricDot(const Matrix& a, const Matrix& b) {
  const size_t m = a.rows();
  double acc = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double* ra = a.RowPtr(i);
    const double* rb = b.RowPtr(i);
    for (size_t j = 0; j < m; ++j) acc += ra[j] * rb[j];
  }
  return acc;
}

double L1Norm(const Matrix& a) {
  const size_t m = a.rows();
  double acc = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double* row = a.RowPtr(i);
    for (size_t j = 0; j < m; ++j) acc += std::fabs(row[j]);
  }
  return acc;
}

void FillZero(Matrix* a) {
  const size_t m = a->rows();
  std::fill(a->RowPtr(0), a->RowPtr(0) + m * a->cols(), 0.0);
}

/// Mean absolute off-diagonal of the block's S — the same problem scale
/// the CD solver normalizes its tolerance by.
double ProblemScale(const Matrix& s) {
  const size_t m = s.rows();
  if (m < 2) return 1.0;
  double scale = 0.0;
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < m; ++b) {
      if (a != b) scale += std::fabs(s(a, b));
    }
  }
  scale /= static_cast<double>(m * (m - 1));
  return scale > 0.0 ? scale : 1.0;
}

struct StageOutcome {
  size_t iterations = 0;
  double final_mean_change = 0.0;
};

/// One Newton solve at a fixed lambda, updating `theta` in place and
/// leaving `w` = theta^{-1} of the final iterate. `stop_tol` bounds the
/// minimum-norm subgradient max-norm at convergence.
Status NewtonAtLambda(const Matrix& sp, double lambda,
                      const GlassoOptions& options, double stop_tol,
                      size_t max_iterations, Matrix* theta, Matrix* w,
                      StageOutcome* out) {
  const size_t m = sp.rows();

  FDX_ASSIGN_OR_RETURN(CholeskyResult chol, CholeskyFactor(*theta));
  double f_cur = -LogDetFromCholesky(chol.l) + SymmetricDot(sp, *theta) +
                 lambda * L1Norm(*theta);

  // D is the symmetric Newton direction; UT holds (D W)^T, i.e. row j of
  // UT is column j of U = D W, so the quadratic term (W D W)_ij =
  // W_i. · U_.j reduces to two contiguous row dots. Coordinate moves
  // update U rows i and j — columns i and j of UT (strided, but only
  // paid for coordinates that actually move).
  Matrix d(m, m);
  Matrix ut(m, m);
  Matrix theta_try(m, m);
  std::vector<std::pair<uint32_t, uint32_t>> free_set;
  free_set.reserve(m * (m + 1) / 2);

  out->iterations = 0;
  double best_subgrad = 0.0;
  size_t stalled = 0;
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    if (options.deadline != nullptr && options.deadline->Expired()) {
      return Status::Timeout("glasso: time budget exhausted after " +
                             std::to_string(iter) + " newton iterations");
    }
    if (FaultTriggered(kFaultGlassoSweep)) {
      return Status::NumericalError("injected fault: glasso.sweep " +
                                    std::to_string(iter));
    }
    FDX_ASSIGN_OR_RETURN(Matrix w_cur, InverseSpd(*theta));
    *w = std::move(w_cur);

    // Free set and convergence: an entry is free when it is nonzero or
    // its gradient escapes the [-lambda, lambda] subdifferential box;
    // the minimum-norm subgradient is zero everywhere else.
    double subgrad_max = 0.0;
    free_set.clear();
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = i; j < m; ++j) {
        const double g = sp(i, j) - (*w)(i, j);
        const double t = (*theta)(i, j);
        double sg;
        if (t != 0.0) {
          sg = std::fabs(g + (t > 0.0 ? lambda : -lambda));
        } else {
          sg = std::max(std::fabs(g) - lambda, 0.0);
        }
        subgrad_max = std::max(subgrad_max, sg);
        if (t != 0.0 || std::fabs(g) > lambda) free_set.emplace_back(i, j);
      }
    }
    out->iterations = iter + 1;
    if (subgrad_max <= stop_tol) return Status::OK();
    // Stall exit: at the solver's numerical floor the subgradient stops
    // improving *and* the accepted steps collapse to rounding noise —
    // more iterations cannot improve the iterate, accept it as
    // converged. The step-size gate keeps ordinary mid-run subgradient
    // plateaus (where steps are still substantial) from exiting early.
    const bool tiny_step =
        iter > 0 && out->final_mean_change <= 1e-4 * stop_tol + 1e-15;
    if (iter == 0 || subgrad_max < 0.999 * best_subgrad) {
      best_subgrad = subgrad_max;
      stalled = 0;
    } else if (tiny_step && ++stalled >= 2) {
      return Status::OK();
    }

    // Inner solve of the quadratic model over the free set. When the
    // free set is dense the unconstrained Newton system W D W = -R has
    // the closed-form solution D0 = -Theta R Theta (the Hessian inverse
    // of -logdet is Theta (x) Theta), which captures exactly the global
    // coupled mode that coordinate descent resolves slowly on
    // ill-conditioned dense problems (e.g. equicorrelation). Seed the
    // direction with the masked closed form and let coordinate descent
    // clean up the l1 geometry; on sparse free sets the mask invalidates
    // the closed form, so start from zero as before.
    FillZero(&d);
    FillZero(&ut);
    const size_t total_entries = m * (m + 1) / 2;
    if (free_set.size() * 2 >= total_entries) {
      // R = g + lambda * sigma on the free set (sigma the minimum-norm
      // subgradient sign), zero elsewhere.
      Matrix r(m, m);
      for (const auto& [i, j] : free_set) {
        const double g = sp(i, j) - (*w)(i, j);
        const double t = (*theta)(i, j);
        double sigma;
        if (t != 0.0) {
          sigma = t > 0.0 ? 1.0 : -1.0;
        } else {
          sigma = g > 0.0 ? -1.0 : 1.0;
        }
        const double rij = g + lambda * sigma;
        r(i, j) = rij;
        if (i != j) r(j, i) = rij;
      }
      const Matrix tr = theta->Multiply(r);
      Matrix d0 = tr.Multiply(*theta);
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < m; ++j) d0(i, j) = -d0(i, j);
      }
      // Mask to the free set (frozen zeros must stay zero) and
      // re-symmetrize: the mask is symmetric, so averaging merely
      // removes matmul rounding asymmetry.
      FillZero(&d);
      for (const auto& [i, j] : free_set) {
        const double v = 0.5 * (d0(i, j) + d0(j, i));
        d(i, j) = v;
        if (i != j) d(j, i) = v;
      }
      // UT = (D W)^T = W D for symmetric W, D.
      ut = w->Multiply(d);
      // The mask can push the seed above the D = 0 model value, and a
      // capped inner solve may not repair that — the final direction
      // would not be a descent direction and the line search would have
      // nothing to accept. Evaluate the quadratic model at the seed
      // (g.D + 0.5 tr(WDWD) + lambda(|Theta+D|_1 - |Theta|_1), with
      // tr(WDWD) = sum_ij UT_ij UT_ji since UT = WD) and keep it only
      // when it already improves on zero; coordinate descent from zero
      // is monotone from q(0) = 0, so descent is then guaranteed.
      double q_gd = 0.0;
      double q_quad = 0.0;
      double q_l1 = 0.0;
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < m; ++j) {
          q_gd += (sp(i, j) - (*w)(i, j)) * d(i, j);
          q_quad += ut(i, j) * ut(j, i);
          q_l1 += std::fabs((*theta)(i, j) + d(i, j)) -
                  std::fabs((*theta)(i, j));
        }
      }
      const double q_seed = q_gd + 0.5 * q_quad + lambda * q_l1;
      if (!(q_seed < 0.0)) {
        FillZero(&d);
        FillZero(&ut);
      }
    }
    const double inner_tol =
        std::min(options.lasso_tolerance, 0.01 * stop_tol);
    const size_t inner_cap =
        std::min(options.lasso_max_iterations, 8 + 8 * iter);
    for (size_t sweep = 0; sweep < inner_cap; ++sweep) {
      if (options.deadline != nullptr && options.deadline->Expired()) {
        return Status::Timeout("glasso: time budget exhausted after " +
                               std::to_string(iter) + " newton iterations");
      }
      double max_move = 0.0;
      for (const auto& [i, j] : free_set) {
        const double wii = (*w)(i, i);
        const double wjj = (*w)(j, j);
        const double wij = (*w)(i, j);
        const double quad =
            i == j ? wii * wii : wij * wij + wii * wjj;
        const double* w_row_i = w->RowPtr(i);
        const double* ut_row_j = ut.RowPtr(j);
        double wdw = 0.0;
        for (size_t r = 0; r < m; ++r) wdw += w_row_i[r] * ut_row_j[r];
        const double b = sp(i, j) - wij + wdw;
        const double c = (*theta)(i, j) + d(i, j);
        const double mu =
            -c + SoftThreshold(c - b / quad, lambda / quad);
        if (mu != 0.0) {
          d(i, j) += mu;
          if (i != j) d(j, i) += mu;
          // U_i. += mu W_j. and U_j. += mu W_i. — columns i, j of UT.
          const double* w_row_j = w->RowPtr(j);
          if (i == j) {
            for (size_t r = 0; r < m; ++r) ut(r, i) += mu * w_row_i[r];
          } else {
            for (size_t r = 0; r < m; ++r) {
              ut(r, i) += mu * w_row_j[r];
              ut(r, j) += mu * w_row_i[r];
            }
          }
          max_move = std::max(max_move, std::fabs(mu));
        }
      }
      if (max_move <= inner_tol) break;
    }

    // Armijo backtracking on the penalized objective, with the Cholesky
    // factorization doubling as the positive-definiteness check.
    double gd = 0.0;
    double l1_plus = 0.0;
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        gd += (sp(i, j) - (*w)(i, j)) * d(i, j);
        l1_plus += std::fabs((*theta)(i, j) + d(i, j));
      }
    }
    const double l1_cur = L1Norm(*theta);
    const double descent = gd + lambda * (l1_plus - l1_cur);
    constexpr double kArmijoSigma = 1e-4;
    double alpha = 1.0;
    bool accepted = false;
    double f_try = f_cur;
    // Within a few decades of the optimum the true descent falls below
    // the rounding noise of f (~eps * |f|), so the sufficient-decrease
    // test can reject steps that are analytically descending. The unit
    // Newton step is still correct there — take it on the Cholesky
    // (positive-definiteness) check alone.
    const double f_resolution = 1e-12 * (1.0 + std::fabs(f_cur));
    if (std::fabs(descent) <= f_resolution) {
      for (size_t i = 0; i < m; ++i) {
        const double* theta_row = theta->RowPtr(i);
        const double* d_row = d.RowPtr(i);
        double* try_row = theta_try.RowPtr(i);
        for (size_t j = 0; j < m; ++j) try_row[j] = theta_row[j] + d_row[j];
      }
      Result<CholeskyResult> unit_chol = CholeskyFactor(theta_try);
      if (unit_chol.ok()) {
        accepted = true;
        f_try = -LogDetFromCholesky(unit_chol.value().l) +
                SymmetricDot(sp, theta_try) + lambda * L1Norm(theta_try);
      }
    }
    for (int backtrack = 0; !accepted && backtrack < 40;
         ++backtrack, alpha *= 0.5) {
      for (size_t i = 0; i < m; ++i) {
        const double* theta_row = theta->RowPtr(i);
        const double* d_row = d.RowPtr(i);
        double* try_row = theta_try.RowPtr(i);
        for (size_t j = 0; j < m; ++j) {
          try_row[j] = theta_row[j] + alpha * d_row[j];
        }
      }
      Result<CholeskyResult> try_chol = CholeskyFactor(theta_try);
      if (!try_chol.ok()) continue;
      f_try = -LogDetFromCholesky(try_chol.value().l) +
              SymmetricDot(sp, theta_try) + lambda * L1Norm(theta_try);
      if (f_try <= f_cur + kArmijoSigma * alpha * descent) {
        accepted = true;
        break;
      }
    }
    if (!accepted) {
      return Status::NumericalError(
          "glasso newton: line search failed to find a descent step");
    }
    double step_change = 0.0;
    for (size_t i = 0; i < m; ++i) {
      const double* d_row = d.RowPtr(i);
      for (size_t j = 0; j < m; ++j) {
        step_change += std::fabs(alpha * d_row[j]);
      }
    }
    out->final_mean_change =
        step_change / static_cast<double>(m * m);
    std::swap(*theta, theta_try);
    f_cur = f_try;
  }

  // Iteration cap hit: leave W consistent with the final iterate.
  FDX_ASSIGN_OR_RETURN(Matrix w_final, InverseSpd(*theta));
  *w = std::move(w_final);
  return Status::OK();
}

}  // namespace

Result<NewtonBlockResult> SolveBlockNewton(const Matrix& s,
                                           const GlassoOptions& options,
                                           const Matrix* warm_theta) {
  const size_t m = s.rows();
  const double lambda = options.lambda;

  Matrix sp = s;
  for (size_t j = 0; j < m; ++j) sp(j, j) += options.diagonal_ridge;

  const double s_scale = ProblemScale(s);
  const double stop_tol = options.tolerance * s_scale;

  NewtonBlockResult result;

  // Initial iterate: a positive-definite warm theta wins outright (and
  // skips the continuation); otherwise the diagonal start
  // theta_jj = 1 / (s'_jj + lambda), whose inverse already satisfies the
  // diagonal KKT condition w_jj = s'_jj + lambda exactly.
  bool warm_ok = false;
  if (warm_theta != nullptr && warm_theta->rows() == m &&
      warm_theta->cols() == m) {
    warm_ok = CholeskyFactor(*warm_theta).ok();
    if (warm_ok) result.theta = *warm_theta;
  }
  if (!warm_ok) {
    result.theta = Matrix(m, m);
    for (size_t j = 0; j < m; ++j) {
      const double denom = sp(j, j) + lambda;
      if (denom <= 0.0) {
        return Status::NumericalError(
            "glasso: non-positive theta diagonal");
      }
      result.theta(j, j) = 1.0 / denom;
    }
  }

  // Lambda-path continuation (cold solves only): a few sparser solves
  // at descending multiples of lambda, each warm-starting the next.
  // Multiples at or above lambda_max = max |s'_offdiag| are skipped —
  // there the solution is the diagonal start itself.
  std::vector<double> lambdas;
  if (!warm_ok && lambda > 0.0) {
    double lambda_max = 0.0;
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = i + 1; j < m; ++j) {
        lambda_max = std::max(lambda_max, std::fabs(sp(i, j)));
      }
    }
    for (double factor : {8.0, 4.0, 2.0}) {
      const double stage = lambda * factor;
      if (stage < lambda_max) lambdas.push_back(stage);
    }
  }
  result.path_stages = lambdas.size();
  lambdas.push_back(lambda);

  for (size_t stage = 0; stage < lambdas.size(); ++stage) {
    const bool target = stage + 1 == lambdas.size();
    // Path stages are initial-point devices: loose tolerance, few
    // iterations. Only the target stage runs to the real stop.
    const double stage_tol = target ? stop_tol : stop_tol * 100.0;
    const size_t stage_cap =
        target ? kNewtonMaxIterations : kPathStageIterations;
    StageOutcome outcome;
    FDX_RETURN_IF_ERROR(NewtonAtLambda(sp, lambdas[stage], options,
                                       stage_tol, stage_cap, &result.theta,
                                       &result.w, &outcome));
    if (target) {
      result.iterations = outcome.iterations;
      result.final_mean_change = outcome.final_mean_change;
    }
  }
  return result;
}

}  // namespace fdx
