#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/ordering.h"
#include "data/csv.h"
#include "linalg/factorization.h"
#include "linalg/glasso.h"
#include "linalg/stats.h"
#include "synth/generator.h"

namespace fdx::bench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. BENCHMARK.json's "per_layer"
/// lists the same names.
constexpr LayerMetric kLayerMetrics[] = {
    {"data.read_csv_s", "s"},
    {"data.encode_s", "s"},
    {"core.transform_s", "s"},
    {"core.transform.sort_cpu_s", "s"},
    {"core.transform.pack_cpu_s", "s"},
    {"core.transform.accumulate_cpu_s", "s"},
    {"core.transform.samples", "count"},
    {"core.ordering_s", "s"},
    {"core.fdgen_s", "s"},
    {"core.discover_unattributed_s", "s"},
    {"linalg.correlation_s", "s"},
    {"linalg.glasso_s", "s"},
    {"linalg.glasso.screen_s", "s"},
    {"linalg.glasso.decompose_s", "s"},
    {"linalg.glasso.solve_s", "s"},
    {"linalg.glasso.assemble_s", "s"},
    {"linalg.glasso.components", "count"},
    {"linalg.glasso.max_component", "count"},
    {"linalg.glasso.sweeps", "count"},
    {"linalg.glasso.newton_iterations", "count"},
    {"linalg.udut_s", "s"},
    {"store.append_s", "s"},
    {"store.read_column_s", "s"},
    {"store.stream_transform_s", "s"},
    {"store.transform.sort_cpu_s", "s"},
    {"store.transform.pack_cpu_s", "s"},
    {"store.transform.accumulate_cpu_s", "s"},
    {"store.bytes", "bytes"},
    {"store.mapped_resident_mb", "MB"},
    {"store.mmap_fallbacks", "count"},
    {"core.incremental_append_s", "s"},
    {"core.incremental_discover_s", "s"},
    {"service.json_parse_s", "s"},
    {"service.batch_csv_parse_s", "s"},
    {"service.fingerprint_s", "s"},
    {"service.render_s", "s"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.warm_solve_ratio", "ratio"},
    {"service.queue_rejected", "count"},
    {"service.shed_total", "count"},
    {"service.unattributed_ms", "ms"},
    {"self.data_s", "s"},
    {"self.core_s", "s"},
    {"self.linalg_s", "s"},
    {"self.store_s", "s"},
    {"self.service_s", "s"},
    {"self.unattributed_s", "s"},
    {"traced_wall_s", "s"},
    {"trace_overhead_frac", "ratio"},
};

}  // namespace

void Report::Add(std::string name, double value, std::string unit,
                 size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::Fail(const std::string& why) {
  ++failed_;
  // Keep the log short: a systematic fault repeats on every operation.
  if (failures_.size() < 20) failures_.push_back(why);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (q == 0.5 && values.size() % 2 == 0) {
    const size_t mid = values.size() / 2;
    return 0.5 * (values[mid - 1] + values[mid]);
  }
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool HasP99(size_t samples) { return samples >= 1000; }

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets the VmHWM high-water mark to the current RSS.
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double FdF1(const FdSet& fds, const FdSet& truth) {
  return ScoreFdsUndirected(fds, truth).f1;
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    if (a.cols() > 0 && std::memcmp(a.RowPtr(i), b.RowPtr(i),
                                    a.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

FdSet WrongFds(size_t k, const FdSet& truth) {
  // One FD per attribute whose determinant shares no planted edge in
  // either orientation, so the set scores an F1 of exactly 0.
  const auto edges = FdEdges(truth);
  const auto planted = [&](size_t a, size_t b) {
    for (const auto& [x, y] : edges) {
      if ((x == a && y == b) || (x == b && y == a)) return true;
    }
    return false;
  };
  FdSet fds;
  for (size_t j = 0; j < k; ++j) {
    for (size_t i = 0; i < k; ++i) {
      if (i != j && !planted(i, j)) {
        fds.emplace_back(std::vector<size_t>{i}, j);
        break;
      }
    }
  }
  return fds;
}

SyntheticConfig PaperSyntheticConfig(uint64_t seed, size_t rows,
                                     size_t attributes) {
  SyntheticConfig config;
  config.num_tuples = rows;
  config.num_attributes = attributes;
  config.noise_rate = 0.05;
  // The midpoint of the paper's [64, 216] domain range for every group:
  // the seed then changes the planted structure and the values but not
  // the value widths, which would move parse and encode times.
  config.domain_min = 140;
  config.domain_max = 140;
  config.seed = seed;
  return config;
}

Result<Dataset> GeneratePaperSynthetic(uint64_t seed, const std::string& path,
                                       size_t rows, size_t attributes) {
  const SyntheticConfig config = PaperSyntheticConfig(seed, rows, attributes);
  FDX_ASSIGN_OR_RETURN(SyntheticDataset data, GenerateSynthetic(config));
  FDX_RETURN_IF_ERROR(WriteCsv(data.noisy, path));
  return Dataset{path, std::move(data.true_fds), attributes};
}

Result<Dataset> SetUpInput(const Options& options,
                           const std::function<Result<Dataset>()>& generate,
                           std::vector<double>* times) {
  Result<Dataset> data = Status::Internal("no set-up run");
  for (size_t i = 0; i < (options.trace ? 1 : kSetupRuns); ++i) {
    const double start = NowSeconds();
    data = generate();
    times->push_back(NowSeconds() - start);
    if (!data.ok()) break;
  }
  return data;
}

void LayerTotals::AddSpans(const Tracer& tracer, int64_t root) {
  const std::vector<double> self = tracer.SelfTimes();
  std::vector<bool> inside(tracer.spans().size(), false);
  inside[root] = true;
  for (size_t i = static_cast<size_t>(root) + 1; i < inside.size(); ++i) {
    const Tracer::Span& span = tracer.spans()[i];
    if (span.parent == Tracer::kNoParent || !inside[span.parent]) continue;
    inside[i] = true;
    // A span's own metric is its self time: a parent such as the CSV
    // reader that drives store appends reports only its own work.
    const std::string metric = span.name == "core.discover"
                                   ? "core.discover_unattributed_s"
                                   : span.name + "_s";
    values_[metric] += self[i];
    values_["self." + span.name.substr(0, span.name.find('.')) + "_s"] +=
        self[i];
  }
  values_["self.unattributed_s"] += self[root];
  values_["traced_wall_s"] += tracer.Duration(root);
}

void LayerTotals::Emit(size_t reps, Report* report) const {
  const double scale = reps == 0 ? 0.0 : 1.0 / static_cast<double>(reps);
  for (const LayerMetric& metric : kLayerMetrics) {
    double value = 0.0;
    if (auto it = fixed_.find(metric.name); it != fixed_.end()) {
      value = it->second;
    } else if (auto it = values_.find(metric.name); it != values_.end()) {
      value = it->second * scale;
    }
    report->Add(metric.name, value, metric.unit, reps);
  }
}

Result<FdxResult> TracedLearn(const Matrix& covariance,
                              const FdxOptions& options, Tracer* tracer,
                              LayerTotals* totals) {
  const size_t k = covariance.rows();
  Matrix input;
  {
    ScopedSpan span(tracer, "linalg.correlation");
    input = options.normalize_covariance
                ? CorrelationFromCovariance(covariance, options.zero_tolerance)
                : covariance;
  }
  GlassoOptions glasso_options = options.glasso;
  glasso_options.lambda = options.lambda;
  if (glasso_options.threads == 0) glasso_options.threads = options.threads;
  Result<GlassoResult> glasso = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "linalg.glasso");
    glasso = GraphicalLasso(input, glasso_options);
  }
  if (!glasso.ok()) return glasso.status();
  const GlassoStats& stats = glasso->stats;
  totals->Add("linalg.glasso.screen_s", stats.screen_seconds);
  totals->Add("linalg.glasso.decompose_s", stats.decompose_seconds);
  totals->Add("linalg.glasso.solve_s", stats.solve_seconds);
  totals->Add("linalg.glasso.assemble_s", stats.assemble_seconds);
  totals->Add("linalg.glasso.components",
              static_cast<double>(stats.components));
  size_t max_component = 0;
  for (size_t size : stats.component_sizes) {
    max_component = std::max(max_component, size);
  }
  totals->Add("linalg.glasso.max_component",
              static_cast<double>(max_component));
  totals->Add("linalg.glasso.sweeps", static_cast<double>(stats.sweeps));
  totals->Add("linalg.glasso.newton_iterations",
              static_cast<double>(stats.newton_iterations));

  FdxResult result;
  {
    ScopedSpan span(tracer, "core.ordering");
    result.ordering = ComputeOrdering(glasso->theta, options.ordering,
                                      options.zero_tolerance);
  }
  Result<UdutResult> udut = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "linalg.udut");
    udut = UdutFactor(glasso->theta.PermuteSymmetric(result.ordering));
  }
  if (!udut.ok()) return udut.status();
  Matrix b(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) b(i, j) = -udut->u(i, j);
  }
  {
    ScopedSpan span(tracer, "core.fdgen");
    result.fds = GenerateFdsFromAutoregression(
        b, result.ordering, options.sparsity_threshold,
        options.relative_threshold, options.minimum_column_weight,
        options.zero_tolerance);
  }
  result.theta = std::move(glasso->theta);
  result.autoregression = Matrix(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      result.autoregression(result.ordering[i], result.ordering[j]) = b(i, j);
    }
  }
  return result;
}

}  // namespace fdx::bench
