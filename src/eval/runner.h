#ifndef FDX_EVAL_RUNNER_H_
#define FDX_EVAL_RUNNER_H_

#include <string>
#include <vector>

#include "baselines/cords.h"
#include "baselines/gl_baseline.h"
#include "baselines/pyro.h"
#include "baselines/rfi.h"
#include "baselines/tane.h"
#include "core/fdx.h"
#include "data/table.h"
#include "fd/fd.h"

namespace fdx {

/// Identifier of a discovery method as reported in the paper's tables.
enum class MethodId {
  kFdx,
  kGl,
  kPyro,
  kTane,
  kCords,
  kRfi30,   ///< RFI with alpha = 0.3
  kRfi50,   ///< RFI with alpha = 0.5
  kRfi100,  ///< RFI with alpha = 1.0
};

/// All methods in the paper's column order
/// (FDX, GL, PYRO, TANE, CORDS, RFI(.3), RFI(.5), RFI(1.0)).
std::vector<MethodId> AllMethods();
std::string MethodName(MethodId method);

/// Per-run tuning knobs shared across methods.
struct RunnerConfig {
  /// Expected noise rate, passed to the error thresholds of TANE/PYRO
  /// (the paper sets their error hyper-parameter to the noise level).
  double expected_error = 0.01;
  /// Wall-clock budget per run, honored by every method including FDX
  /// (via FdxOptions::time_budget_seconds); expired runs report timeout.
  double time_budget_seconds = 60.0;
  /// FDX options (lambda, threshold, ordering, transform caps).
  FdxOptions fdx;
  /// RFI LHS cap (0 = unbounded, the original algorithm).
  size_t rfi_max_lhs = 0;
  uint64_t seed = 1;
  /// Worker threads for RunMethodsParallel fan-out (and, through
  /// `fdx.threads`, for FDX's internal stages when running a single
  /// method). 0 picks the `FDX_THREADS` environment variable or the
  /// hardware concurrency. Every method's EncodedTable::Encode runs at
  /// that default whatever this is; `FDX_THREADS=1` pins it too.
  size_t threads = 0;
};

/// Outcome of one discovery run.
struct RunOutcome {
  bool ok = false;
  bool timeout = false;
  FdSet fds;
  double seconds = 0.0;
  std::string error;
};

/// Runs one method on a table under the shared configuration. Never
/// crashes on method failure; errors are reported in the outcome.
RunOutcome RunMethod(MethodId method, const Table& table,
                     const RunnerConfig& config);

/// One (method, dataset) cell of a benchmark sweep. The table pointer is
/// non-owning and must outlive the RunMethodsParallel call.
struct MethodTask {
  MethodId method;
  const Table* table = nullptr;
};

/// Runs every cell under the shared configuration, fanning the cells out
/// over `config.threads` workers (each cell keeps the per-run time
/// budget). Outcomes are returned in task order regardless of scheduling.
/// When the fan-out itself is parallel, each cell's internal FDX stages
/// are pinned to one thread to avoid oversubscription — this does not
/// change results, because FDX discovery is bit-identical at every
/// thread count.
std::vector<RunOutcome> RunMethodsParallel(const std::vector<MethodTask>& tasks,
                                           const RunnerConfig& config);

}  // namespace fdx

#endif  // FDX_EVAL_RUNNER_H_
