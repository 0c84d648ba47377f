// Shared pieces of the FDX benchmark program: options, the report every
// workload fills, statistics and memory probes, and the traced replay of
// the structure-learning half of the pipeline.
#ifndef FDX_PERFBENCH_BENCH_H_
#define FDX_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/fdx.h"
#include "fd/fd.h"
#include "linalg/matrix.h"
#include "synth/generator.h"
#include "trace.h"
#include "util/status.h"

namespace fdx::bench {

/// Untraced runs repeat set-up this often and report the median.
constexpr size_t kSetupRuns = 3;
/// Timed repetitions per untraced run, at least.
constexpr size_t kMinReps = 3;
/// Traced repetitions per traced run, at least, each next to an
/// untraced one.
constexpr size_t kMinTracedReps = 2;
/// Lowest edge F1 against the planted FDs that counts as correct: a
/// guard against gross quality regressions, well below the F1 any
/// workload reaches on the seeds tried.
constexpr double kMinF1 = 0.25;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated inputs, stores and the trace file.
  std::string workdir;
  /// Toy input sizes (the smoke check).
  bool toy = false;
  /// Replace every discovered FD set with a wrong one before it is
  /// checked, to show that the checks count it as a failure.
  bool corrupt_fds = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// What one workload run produces: metrics, the operations attempted
/// and how many failed or returned a wrong output, and the trace.
class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           size_t samples = 1);
  /// Counts `n` checked operations.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Marks one attempted operation as failed or wrong.
  void Fail(const std::string& why);
  /// Records why a metric is not reported in this run.
  void Omit(const std::string& name, const std::string& why) {
    omitted_.push_back(name + ": " + why);
  }
  /// Fails one operation unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }

  const std::vector<Metric>& metrics() const { return metrics_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::string>& omitted() const { return omitted_; }

  /// Chrome trace-event JSON of the traced run (empty otherwise).
  std::string trace_json;

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> omitted_;
};

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1] (0 when empty).
double Quantile(std::vector<double> values, double q);
/// Highest-percentile rule: p99 only when at least ten samples lie
/// beyond it, i.e. from 1000 samples on.
bool HasP99(size_t samples);

/// Returns freed heap to the OS and restarts the kernel's peak-RSS
/// counter, so PeakRssMb() covers only what runs after this call.
void ResetPeakRss();
/// Peak resident set size (VmHWM) since the last ResetPeakRss, in MB.
double PeakRssMb();

/// Seconds on a monotonic clock.
double NowSeconds();

/// Edge F1 of `fds` against the planted FDs, orientation-insensitive
/// like the repository's paper benchmarks (ScoreFdsUndirected).
double FdF1(const FdSet& fds, const FdSet& truth);
/// Bitwise equality of two matrices.
bool SameMatrix(const Matrix& a, const Matrix& b);
/// A deliberately wrong FD set over `k` attributes, sharing no edge
/// with `truth` (smoke check).
FdSet WrongFds(size_t k, const FdSet& truth);

/// A generated input file and the FDs planted in it.
struct Dataset {
  std::string path;
  FdSet truth;
  size_t columns = 0;
};

/// The paper's generator (§5.1): attributes in groups of 2..4,
/// alternating planted FDs and correlations, 5% of FD cells flipped.
SyntheticConfig PaperSyntheticConfig(uint64_t seed, size_t rows,
                                     size_t attributes);
/// PaperSyntheticConfig's data written to `path` as CSV.
Result<Dataset> GeneratePaperSynthetic(uint64_t seed, const std::string& path,
                                       size_t rows, size_t attributes);

/// Runs `generate` kSetupRuns times (once in traced runs), appending
/// each duration to `times`, and returns the last dataset.
Result<Dataset> SetUpInput(const Options& options,
                           const std::function<Result<Dataset>()>& generate,
                           std::vector<double>* times);

/// Per-layer values summed over the traced repetitions of a run and
/// reported as per-repetition means under the names BENCHMARK.json
/// lists. A span named "<layer>.<what>" yields "<layer>.<what>_s", its
/// self time ("core.discover" yields "core.discover_unattributed_s");
/// every root adds its layers' self times ("self.<layer>_s") and its own
/// self time ("self.unattributed_s"), which sum to "traced_wall_s".
/// Names a workload never sets report 0: that layer is idle on it.
class LayerTotals {
 public:
  void AddSpans(const Tracer& tracer, int64_t root);
  void Add(const std::string& name, double value) { values_[name] += value; }
  /// A value reported as is rather than averaged over repetitions.
  void Set(const std::string& name, double value) { fixed_[name] = value; }
  void Emit(size_t reps, Report* report) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, double> fixed_;
};

/// The structure-learning half of FdxDiscoverer::Discover — correlation,
/// graphical lasso, ordering, U D U^T, FD generation — replayed call by
/// call under spans. Follows the library's first-attempt path (the one a
/// run with no numerical trouble takes) and adds the glasso counters to
/// `totals`; callers check the result against the untraced call.
Result<FdxResult> TracedLearn(const Matrix& covariance,
                              const FdxOptions& options, Tracer* tracer,
                              LayerTotals* totals);

/// Workloads.
void RunBatchCsv(const Options& options, Report* report);
void RunWideCorr(const Options& options, Report* report);
void RunOocoreBounded(const Options& options, Report* report);
void RunServiceSessions(const Options& options, Report* report);

}  // namespace fdx::bench

#endif  // FDX_PERFBENCH_BENCH_H_
