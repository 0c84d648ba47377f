// batch_csv and wide_corr: a CSV file on disk turned into an FD set by
// ReadCsv -> FdxDiscoverer::Discover, the default `fdxtool discover` path.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/transform.h"
#include "data/csv.h"
#include "data/table.h"
#include "util/rng.h"

namespace fdx::bench {

namespace {

/// Attributes tied to a few shared latent columns. Each latent column
/// L_g is an attribute itself, uniform over 64 values; every other
/// attribute A_j of group g is a balanced random map of L_g onto 16
/// values, replaced by a random value in 30% of the rows. The planted FDs
/// are L_g -> A_j. Indicators within a group are all correlated, so
/// covariance screening leaves one component per group — large and dense
/// enough for the Newton backend. Every attribute has the same domain and
/// noise, so the solver's work barely depends on the seed.
Result<Dataset> GenerateLatentGroups(uint64_t seed, const std::string& path,
                                     size_t rows, size_t attributes,
                                     size_t groups) {
  constexpr uint64_t kLatentDomain = 64;
  constexpr uint64_t kDomain = 16;
  constexpr double kNoise = 0.3;
  Rng rng(seed);
  std::vector<size_t> group(attributes);
  std::vector<std::vector<uint64_t>> map(attributes);
  FdSet truth;
  for (size_t j = groups; j < attributes; ++j) {
    group[j] = j % groups;
    map[j].resize(kLatentDomain);
    for (uint64_t v = 0; v < kLatentDomain; ++v) map[j][v] = v % kDomain;
    for (uint64_t v = kLatentDomain - 1; v > 0; --v) {
      std::swap(map[j][v], map[j][rng.NextUint64(v + 1)]);
    }
    truth.emplace_back(std::vector<size_t>{group[j]}, j);
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + path);
  std::string line;
  for (size_t j = 0; j < attributes; ++j) {
    if (j > 0) line += ',';
    line += (j < groups ? "L" : "A") + std::to_string(j);
  }
  line += '\n';
  std::vector<uint64_t> latent(groups);
  for (size_t r = 0; r < rows; ++r) {
    for (uint64_t& v : latent) v = rng.NextUint64(kLatentDomain);
    for (size_t j = 0; j < attributes; ++j) {
      uint64_t v = 0;
      if (j < groups) {
        v = latent[j];
      } else if (rng.NextDouble() < kNoise) {
        v = rng.NextUint64(kDomain);
      } else {
        v = map[j][latent[group[j]]];
      }
      if (j > 0) line += ',';
      line += std::to_string(v);
    }
    line += '\n';
    if (line.size() > (1 << 20)) {
      std::fwrite(line.data(), 1, line.size(), out);
      line.clear();
    }
  }
  std::fwrite(line.data(), 1, line.size(), out);
  if (std::fclose(out) != 0) return Status::IOError("cannot write " + path);
  return Dataset{path, std::move(truth), attributes};
}

Result<FdxResult> FileToFds(const std::string& path) {
  FDX_ASSIGN_OR_RETURN(Table table, ReadCsv(path));
  return FdxDiscoverer().Discover(table);
}

/// FileToFds with a span around every library call: the transform and
/// the structure-learning calls replayed as Discover makes them.
/// The parsed table is left in `table` for the encode probe.
Result<FdxResult> TracedFileToFds(const std::string& path, Tracer* tracer,
                                  LayerTotals* totals, Table* table) {
  {
    ScopedSpan span(tracer, "data.read_csv");
    Result<Table> read = ReadCsv(path);
    if (!read.ok()) return read.status();
    *table = std::move(read).value();
  }
  const FdxOptions options;
  ScopedSpan discover(tracer, "core.discover");
  TransformOptions transform = options.transform;
  if (transform.threads == 0) transform.threads = options.threads;
  TransformProfile profile;
  transform.profile = &profile;
  Result<TransformedMoments> moments = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "core.transform");
    moments = PairTransformMoments(*table, transform);
  }
  if (!moments.ok()) return moments.status();
  totals->Add("core.transform.sort_cpu_s", profile.sort_seconds);
  totals->Add("core.transform.pack_cpu_s", profile.pack_seconds);
  totals->Add("core.transform.accumulate_cpu_s", profile.accumulate_seconds);
  totals->Add("core.transform.samples",
              static_cast<double>(moments->num_samples));
  return TracedLearn(moments->cov, options, tracer, totals);
}

/// Times EncodedTable::Encode on its own. Discover encodes inside
/// PairTransformMoments, where no span can reach, so this probe — a root
/// span outside the repetition — measures the encode share of
/// core.transform_s.
void EncodeProbe(const Table& table, Tracer* tracer, LayerTotals* totals) {
  const int64_t id = tracer->Begin("data.encode");
  const EncodedTable encoded = EncodedTable::Encode(table);
  tracer->End(id);
  totals->Add("data.encode_s", tracer->Duration(id));
}

/// Checks one repetition's output; the first correct one becomes the
/// reference every later repetition must match bit for bit.
void CheckRep(const Options& options, const Dataset& data,
              Result<FdxResult> result,
              FdxResult* reference, bool* have_reference, Report* report) {
  report->Attempt();
  if (!result.ok()) {
    report->Fail("discover failed: " + result.status().ToString());
    return;
  }
  if (options.corrupt_fds) result->fds = WrongFds(data.columns, data.truth);
  const double f1 = FdF1(result->fds, data.truth);
  if (f1 < kMinF1) {
    report->Fail("fd_f1 " + std::to_string(f1) + " below " +
                 std::to_string(kMinF1));
    return;
  }
  if (!*have_reference) {
    *reference = std::move(result).value();
    *have_reference = true;
    return;
  }
  report->Check(result->fds == reference->fds &&
                    SameMatrix(result->theta, reference->theta),
                "repetition differs from the first");
}

void RunFile(const Options& options,
             const std::function<Result<Dataset>()>& generate,
             Report* report) {
  std::vector<double> setup_times;
  Result<Dataset> generated = SetUpInput(options, generate, &setup_times);
  if (!generated.ok()) {
    report->Attempt();
    report->Fail("setup: " + generated.status().ToString());
    return;
  }
  const Dataset data = std::move(generated).value();

  FdxResult reference;
  bool have_reference = false;
  std::vector<double> times;
  if (!options.trace) {
    std::vector<double> peaks;
    const double start = NowSeconds();
    while (times.size() < kMinReps || NowSeconds() - start < options.seconds) {
      ResetPeakRss();
      const double rep_start = NowSeconds();
      Result<FdxResult> result = FileToFds(data.path);
      times.push_back(NowSeconds() - rep_start);
      peaks.push_back(PeakRssMb());
      CheckRep(options, data, std::move(result), &reference,
               &have_reference, report);
    }
    report->Add("setup_s", Median(setup_times), "s", setup_times.size());
    report->Add("time_to_fds_s", Median(times), "s", times.size());
    report->Add("peak_rss_mb", Median(peaks), "MB", peaks.size());
    report->Add("fd_f1",
                have_reference ? FdF1(reference.fds, data.truth) : 0.0,
                "ratio", 1);
    return;
  }

  // Traced run: untraced and traced repetitions alternate; the traced
  // ones must reproduce the untraced result exactly.
  Tracer tracer;
  LayerTotals totals;
  std::vector<double> traced_times;
  const double start = NowSeconds();
  while (traced_times.size() < kMinTracedReps ||
         NowSeconds() - start < options.seconds) {
    const double rep_start = NowSeconds();
    Result<FdxResult> result = FileToFds(data.path);
    times.push_back(NowSeconds() - rep_start);
    CheckRep(options, data, std::move(result), &reference,
             &have_reference, report);

    Table table;
    const int64_t root = tracer.Begin("rep");
    Result<FdxResult> traced =
        TracedFileToFds(data.path, &tracer, &totals, &table);
    tracer.End(root);
    traced_times.push_back(tracer.Duration(root));
    totals.AddSpans(tracer, root);
    report->Attempt();
    report->Check(traced.ok() && have_reference &&
                      traced->fds == reference.fds &&
                      SameMatrix(traced->theta, reference.theta),
                  "traced replay differs from Discover");
    EncodeProbe(table, &tracer, &totals);
  }
  totals.Set("trace_overhead_frac",
             Median(traced_times) / Median(times) - 1.0);
  totals.Emit(traced_times.size(), report);
  report->trace_json = tracer.ToChromeJson();
}

}  // namespace

void RunBatchCsv(const Options& options, Report* report) {
  const size_t rows = options.toy ? 4000 : 1000000;
  RunFile(options, [&] {
    return GeneratePaperSynthetic(options.seed, options.workdir + "/input.csv",
                                  rows, 12);
  }, report);
}

void RunWideCorr(const Options& options, Report* report) {
  const size_t rows = options.toy ? 2000 : 20000;
  RunFile(options, [&] {
    return GenerateLatentGroups(options.seed, options.workdir + "/input.csv",
                                rows, 200, 2);
  }, report);
}

}  // namespace fdx::bench
