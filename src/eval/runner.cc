#include "eval/runner.h"

#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fdx {

std::vector<MethodId> AllMethods() {
  return {MethodId::kFdx,   MethodId::kGl,    MethodId::kPyro,
          MethodId::kTane,  MethodId::kCords, MethodId::kRfi30,
          MethodId::kRfi50, MethodId::kRfi100};
}

std::string MethodName(MethodId method) {
  switch (method) {
    case MethodId::kFdx:
      return "FDX";
    case MethodId::kGl:
      return "GL";
    case MethodId::kPyro:
      return "PYRO";
    case MethodId::kTane:
      return "TANE";
    case MethodId::kCords:
      return "CORDS";
    case MethodId::kRfi30:
      return "RFI(.3)";
    case MethodId::kRfi50:
      return "RFI(.5)";
    case MethodId::kRfi100:
      return "RFI(1.0)";
  }
  return "?";
}

namespace {

RunOutcome FromResult(Result<FdSet> result, double seconds) {
  RunOutcome outcome;
  outcome.seconds = seconds;
  if (result.ok()) {
    outcome.ok = true;
    outcome.fds = std::move(result).value();
  } else {
    outcome.timeout = result.status().code() == StatusCode::kTimeout;
    outcome.error = result.status().ToString();
  }
  return outcome;
}

}  // namespace

RunOutcome RunMethod(MethodId method, const Table& table,
                     const RunnerConfig& config) {
  Stopwatch watch;
  switch (method) {
    case MethodId::kFdx: {
      FdxOptions fdx_options = config.fdx;
      if (fdx_options.threads == 0) fdx_options.threads = config.threads;
      // FDX honors the same per-run budget as the baselines so the
      // runtime tables compare like with like.
      if (fdx_options.time_budget_seconds <= 0.0) {
        fdx_options.time_budget_seconds = config.time_budget_seconds;
      }
      FdxDiscoverer discoverer(fdx_options);
      Result<FdxResult> result = discoverer.Discover(table);
      RunOutcome outcome;
      outcome.seconds = watch.ElapsedSeconds();
      if (result.ok()) {
        outcome.ok = true;
        outcome.fds = std::move(result->fds);
      } else {
        outcome.timeout = result.status().code() == StatusCode::kTimeout;
        outcome.error = result.status().ToString();
      }
      return outcome;
    }
    case MethodId::kGl: {
      GlBaselineOptions options;
      options.seed = config.seed;
      return FromResult(DiscoverGlBaseline(table, options),
                        watch.ElapsedSeconds());
    }
    case MethodId::kPyro: {
      PyroOptions options;
      options.max_error = config.expected_error;
      options.time_budget_seconds = config.time_budget_seconds;
      options.seed = config.seed;
      Result<FdSet> result = DiscoverPyro(table, options);
      return FromResult(std::move(result), watch.ElapsedSeconds());
    }
    case MethodId::kTane: {
      TaneOptions options;
      options.max_error = config.expected_error;
      options.time_budget_seconds = config.time_budget_seconds;
      Result<FdSet> result = DiscoverTane(table, options);
      return FromResult(std::move(result), watch.ElapsedSeconds());
    }
    case MethodId::kCords: {
      CordsOptions options;
      options.seed = config.seed;
      return FromResult(DiscoverCords(table, options),
                        watch.ElapsedSeconds());
    }
    case MethodId::kRfi30:
    case MethodId::kRfi50:
    case MethodId::kRfi100: {
      RfiOptions options;
      options.alpha = method == MethodId::kRfi30
                          ? 0.3
                          : (method == MethodId::kRfi50 ? 0.5 : 1.0);
      options.max_lhs_size = config.rfi_max_lhs;
      options.time_budget_seconds = config.time_budget_seconds;
      options.seed = config.seed;
      Result<FdSet> result = DiscoverRfi(table, options);
      return FromResult(std::move(result), watch.ElapsedSeconds());
    }
  }
  RunOutcome outcome;
  outcome.error = "unknown method";
  return outcome;
}

std::vector<RunOutcome> RunMethodsParallel(
    const std::vector<MethodTask>& tasks, const RunnerConfig& config) {
  std::vector<RunOutcome> outcomes(tasks.size());
  const size_t threads = ResolveThreadCount(config.threads);
  RunnerConfig cell_config = config;
  if (threads > 1) {
    // Cells already saturate the workers; keep each cell single-threaded
    // inside (identical results — FDX is thread-count invariant). Ingest
    // is the exception: a cell's EncodedTable::Encode has no thread
    // argument and fans its columns out to the shared pool (DESIGN.md §7).
    cell_config.threads = 1;
    cell_config.fdx.threads = 1;
    cell_config.fdx.transform.threads = 1;
  }
  ParallelFor(0, tasks.size(), threads, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      outcomes[i] = RunMethod(tasks[i].method, *tasks[i].table, cell_config);
    }
  });
  return outcomes;
}

}  // namespace fdx
