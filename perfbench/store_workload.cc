// oocore_bounded: a CSV file streamed into a spilled chunk store and
// discovered under a bounded column cache and an RSS ceiling —
// ReadCsvChunked -> ChunkedTable::AppendBatch -> DiscoverFromStore, the
// `fdxtool discover --max-memory-mb` path.
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "data/csv.h"
#include "store/chunked_table.h"
#include "store/store_discover.h"
#include "store/stream_transform.h"
#include "util/file_io.h"

namespace fdx::bench {

namespace {

/// fdxtool's default --chunk-rows.
constexpr size_t kChunkRows = 65536;
constexpr size_t kAttributes = 16;

struct StoreRun {
  uint64_t column_cache_bytes = 0;
  uint64_t rss_limit_bytes = 0;
  std::string store_dir;
};

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// Streams `path` into a fresh spilled store with the default codec.
/// With a tracer, each append gets a span inside the reader's.
Status Ingest(const std::string& path, const StoreRun& run, Tracer* tracer,
              ChunkedTable* store) {
  (void)RemoveDirectoryRecursive(run.store_dir);
  bool created = false;
  ScopedSpan read(tracer, "data.read_csv");
  return ReadCsvChunked(
      path, CsvOptions{}, kChunkRows, [&](Table&& chunk) -> Status {
        ScopedSpan append(tracer, "store.append");
        if (!created) {
          FDX_ASSIGN_OR_RETURN(*store, ChunkedTable::Create(
                                           chunk.schema(), run.store_dir));
          created = true;
        }
        if (chunk.num_rows() == 0) return Status::OK();
        return store->AppendBatch(chunk);
      });
}

Result<FdxResult> FileToFds(const std::string& path, const StoreRun& run,
                            uint64_t* store_bytes) {
  ChunkedTable store;
  FDX_RETURN_IF_ERROR(Ingest(path, run, nullptr, &store));
  StoreDiscoverOptions options;
  options.column_cache_bytes = run.column_cache_bytes;
  options.rss_limit_bytes = run.rss_limit_bytes;
  Result<FdxResult> result = DiscoverFromStore(store, options);
  *store_bytes = DirectoryBytes(run.store_dir);
  return result;
}

/// FileToFds with spans: DiscoverFromStore replayed as its streaming
/// transform plus the structure-learning calls.
Result<FdxResult> TracedFileToFds(const std::string& path,
                                  const StoreRun& run, Tracer* tracer,
                                  LayerTotals* totals, ChunkedTable* store) {
  FDX_RETURN_IF_ERROR(Ingest(path, run, tracer, store));
  const FdxOptions options;
  ScopedSpan discover(tracer, "core.discover");
  StreamTransformOptions stream;
  stream.transform = options.transform;
  if (stream.transform.threads == 0) stream.transform.threads = options.threads;
  stream.column_cache_bytes = run.column_cache_bytes;
  stream.rss_limit_bytes = run.rss_limit_bytes;
  TransformProfile profile;
  stream.transform.profile = &profile;
  Result<TransformedMoments> moments = Status::Internal("unset");
  {
    ScopedSpan span(tracer, "store.stream_transform");
    moments = StreamTransformMoments(*store, stream);
  }
  if (!moments.ok()) return moments.status();
  totals->Add("store.transform.sort_cpu_s", profile.sort_seconds);
  totals->Add("store.transform.pack_cpu_s", profile.pack_seconds);
  totals->Add("store.transform.accumulate_cpu_s", profile.accumulate_seconds);
  totals->Add("core.transform.samples",
              static_cast<double>(moments->num_samples));
  totals->Add("store.mapped_resident_mb",
              static_cast<double>(store->MappedResidentBytes()) / 1048576.0);
  totals->Add("store.mmap_fallbacks",
              static_cast<double>(store->mmap_fallbacks()));
  totals->Add("store.bytes",
              static_cast<double>(DirectoryBytes(run.store_dir)));
  return TracedLearn(moments->cov, options, tracer, totals);
}

/// Reads every column back once, the decode/IO cost the streaming
/// transform pays per column read; a root span outside the repetition.
void ReadColumnProbe(const ChunkedTable& store, Tracer* tracer,
                     LayerTotals* totals) {
  const int64_t id = tracer->Begin("store.read_column");
  std::vector<int32_t> codes;
  for (size_t col = 0; col < store.num_columns(); ++col) {
    (void)store.ReadColumnCodes(col, &codes);
  }
  tracer->End(id);
  totals->Add("store.read_column_s", tracer->Duration(id));
}

}  // namespace

void RunOocoreBounded(const Options& options, Report* report) {
  const size_t rows = options.toy ? 20000 : 1000000;
  StoreRun run;
  run.store_dir = options.workdir + "/store";
  // The column cache holds about a quarter of the decoded columns
  // (4 bytes per cell), so the bounded wave schedule runs.
  run.column_cache_bytes = rows * kAttributes * 4 / 4;
  run.rss_limit_bytes = uint64_t{1} << 30;
  const std::string path = options.workdir + "/input.csv";

  std::vector<double> setup_times;
  Result<Dataset> generated = SetUpInput(
      options,
      [&] {
        return GeneratePaperSynthetic(options.seed, path, rows, kAttributes);
      },
      &setup_times);
  if (!generated.ok()) {
    report->Attempt();
    report->Fail("setup: " + generated.status().ToString());
    return;
  }
  const Dataset data = std::move(generated).value();
  const double csv_bytes =
      static_cast<double>(std::filesystem::file_size(path));

  // Every repetition's FDs and theta must equal the first one's, and the
  // first must equal an in-memory Discover of the same file.
  std::vector<FdxResult> results;
  const auto check = [&](Result<FdxResult> result) {
    report->Attempt();
    if (!result.ok()) {
      report->Fail("discover failed: " + result.status().ToString());
      return;
    }
    if (options.corrupt_fds) result->fds = WrongFds(data.columns, data.truth);
    results.push_back(std::move(result).value());
  };

  std::vector<double> times;
  std::vector<double> traced_times;
  double store_bytes = 0.0;
  std::vector<double> peaks;
  Tracer tracer;
  LayerTotals totals;
  if (!options.trace) {
    const double start = NowSeconds();
    while (times.size() < kMinReps || NowSeconds() - start < options.seconds) {
      uint64_t bytes = 0;
      ResetPeakRss();
      const double rep_start = NowSeconds();
      Result<FdxResult> result = FileToFds(path, run, &bytes);
      times.push_back(NowSeconds() - rep_start);
      peaks.push_back(PeakRssMb());
      store_bytes = static_cast<double>(bytes);
      check(std::move(result));
    }
  } else {
    const double start = NowSeconds();
    while (traced_times.size() < kMinTracedReps ||
           NowSeconds() - start < options.seconds) {
      uint64_t bytes = 0;
      const double rep_start = NowSeconds();
      Result<FdxResult> result = FileToFds(path, run, &bytes);
      times.push_back(NowSeconds() - rep_start);
      check(std::move(result));

      ChunkedTable store;
      const int64_t root = tracer.Begin("rep");
      Result<FdxResult> traced =
          TracedFileToFds(path, run, &tracer, &totals, &store);
      tracer.End(root);
      traced_times.push_back(tracer.Duration(root));
      totals.AddSpans(tracer, root);
      check(std::move(traced));
      ReadColumnProbe(store, &tracer, &totals);
    }
  }
  (void)RemoveDirectoryRecursive(run.store_dir);

  // The in-memory reference, outside the timed RSS window.
  Result<Table> table = ReadCsv(path);
  Result<FdxResult> reference = table.ok() ? FdxDiscoverer().Discover(*table)
                                           : Result<FdxResult>(table.status());
  if (!reference.ok()) {
    report->Attempt();
    report->Fail("in-memory reference failed: " +
                 reference.status().ToString());
    return;
  }
  for (const FdxResult& result : results) {
    report->Check(result.fds == reference->fds &&
                      SameMatrix(result.theta, reference->theta),
                  "store result differs from in-memory Discover");
  }
  const double f1 =
      results.empty() ? 0.0 : FdF1(results.front().fds, data.truth);
  if (!results.empty() && f1 < kMinF1) {
    report->Fail("fd_f1 " + std::to_string(f1) + " below " +
                 std::to_string(kMinF1));
  }

  if (!options.trace) {
    report->Add("setup_s", Median(setup_times), "s", setup_times.size());
    report->Add("time_to_fds_s", Median(times), "s", times.size());
    report->Add("peak_rss_mb", Median(peaks), "MB", peaks.size());
    report->Add("fd_f1", f1, "ratio", 1);
    report->Add("store_bytes_ratio", store_bytes / csv_bytes, "ratio", 1);
    return;
  }
  totals.Set("trace_overhead_frac",
             Median(traced_times) / Median(times) - 1.0);
  totals.Emit(traced_times.size(), report);
  report->trace_json = tracer.ToChromeJson();
}

}  // namespace fdx::bench
