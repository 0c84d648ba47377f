// fdxtool — command-line FD profiler built on the FDX library.
//
// Subcommands:
//   discover <csv>   discover FDs (text or JSON output)
//   profile  <csv>   discovery + dependency heatmap + repairability
//   validate <csv> --fd="A,B -> C"   validate one FD, list violations
//   repair   <csv> --fd="A,B -> C" --out=<csv>   majority-vote repair
//   compare  <csv>   run all discovery methods, report time and #FDs
//   rank     <csv>   score every unary AFD candidate under 4 measures
//   cfd      <csv>   discover constant conditional FDs
//   generate --out=<csv>   emit a synthetic dataset with planted FDs
//
// Common flags: --format=text|json, --lambda=, --tau=, --ordering=,
// --budget=, --tuples=, --attributes=, --noise=, --seed=, --max-pairs=,
// --time-budget= (wall-clock seconds; expired runs exit 4 with a
// Timeout status), --no-recovery (fail fast instead of retrying).
// --lambda (>= 0), --tau, --relative and --time-budget must be finite
// numbers, --error, --noise, --support, --confidence and --min-score
// numbers in [0, 1], --budget a number >= 0, and the counts
// (--max-pairs, --tuples, --attributes, --seed, --top, --max-size,
// --max-lhs, --max-predicates, --sample-pairs) integers >= 0; a
// malformed value is a usage error (exit 2) reported before any input
// is read.
//
// Beyond-RAM discovery (discover only): --max-memory-mb=N streams the
// CSV through a spillable chunk store and runs the bounded-memory
// transform under an N-MB process-RSS ceiling; --chunk-rows= sets the
// ingest chunk size (default 65536), --store-dir= keeps the chunk store
// (default: a temp dir next to the CSV, removed afterwards),
// --store-compression=none|varint picks the chunk payload codec, and
// --stable omits timing fields so the two paths' outputs can be
// compared byte-for-byte. A malformed --max-memory-mb or --chunk-rows
// is a usage error (exit 2); the run never silently falls back to the
// in-memory path.
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 validation violations, 4 timeout.

#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>

#include "core/fdx.h"
#include "data/csv.h"
#include "datasets/real_world.h"
#include "eval/report.h"
#include "eval/afd_ranking.h"
#include "eval/profiler.h"
#include "eval/runner.h"
#include "baselines/denial.h"
#include "baselines/ucc.h"
#include "fd/cfd.h"
#include "fd/validation.h"
#include "store/chunked_table.h"
#include "store/store_discover.h"
#include "synth/generator.h"
#include "util/file_io.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace fdx::tool {
namespace {

/// --key=value / --flag argument reader (positional args excluded).
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        flags_.push_back(arg);
      } else {
        positional_.push_back(arg);
      }
    }
  }

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    const std::string prefix = "--" + name + "=";
    for (const auto& flag : flags_) {
      if (flag.rfind(prefix, 0) == 0) return flag.substr(prefix.size());
    }
    return fallback;
  }

  bool Has(const std::string& name) const {
    for (const auto& flag : flags_) {
      if (flag == "--" + name) return true;
    }
    return false;
  }

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::vector<std::string> flags_;
  std::vector<std::string> positional_;
};

/// Prints a failure status and maps it to the tool's exit code
/// (4 for timeouts so scripts can distinguish budget expiry).
int FailWith(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return status.code() == StatusCode::kTimeout ? 4 : 1;
}

/// Prints a malformed-flag error and returns the usage exit code.
int RejectFlag(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 2;
}

/// Upper bound of a number flag that has none of its own.
constexpr double kAnyNumber = std::numeric_limits<double>::max();

/// Reads the number flag --`name` into `*value` (left as is when the
/// flag is absent); see ParseNumberFlag.
Status NumberFlag(const Args& args, const std::string& name, double min,
                  double max, double* value) {
  const std::string text = args.Get(name);
  if (text.empty()) return Status::OK();
  FDX_ASSIGN_OR_RETURN(*value, ParseNumberFlag("--" + name, text, min, max));
  return Status::OK();
}

/// Reads the count flag --`name` (an integer >= 0) into `*value` (left
/// as is when the flag is absent); see ParseIntFlag.
template <typename T>
Status CountFlag(const Args& args, const std::string& name, T* value) {
  const std::string text = args.Get(name);
  if (text.empty()) return Status::OK();
  FDX_ASSIGN_OR_RETURN(const int64_t parsed,
                       ParseIntFlag("--" + name, text, 0,
                                    std::numeric_limits<int64_t>::max()));
  *value = static_cast<T>(parsed);
  return Status::OK();
}

/// The first failed status of a subcommand's flag reads, or OK.
Status FirstError(std::initializer_list<Status> statuses) {
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

/// The discoverer flags. A malformed number, --solver or --ordering is a
/// named error (exit 2 through RejectFlag), never a silent run on the
/// default.
Result<FdxOptions> OptionsFromArgs(const Args& args) {
  FdxOptions options;
  FDX_RETURN_IF_ERROR(
      NumberFlag(args, "lambda", 0, kAnyNumber, &options.lambda));
  FDX_RETURN_IF_ERROR(NumberFlag(args, "time-budget", -kAnyNumber,
                                 kAnyNumber, &options.time_budget_seconds));
  if (args.Has("no-recovery")) options.recovery.enabled = false;
  FDX_RETURN_IF_ERROR(NumberFlag(args, "tau", -kAnyNumber, kAnyNumber,
                                 &options.sparsity_threshold));
  FDX_RETURN_IF_ERROR(NumberFlag(args, "relative", -kAnyNumber, kAnyNumber,
                                 &options.relative_threshold));
  const std::string max_pairs = args.Get("max-pairs");
  if (!max_pairs.empty()) {
    FDX_ASSIGN_OR_RETURN(
        const int64_t pairs,
        ParseIntFlag("--max-pairs", max_pairs, 0,
                     std::numeric_limits<int64_t>::max()));
    options.transform.max_pairs_per_attribute = static_cast<size_t>(pairs);
  }
  const std::string ordering = args.Get("ordering");
  if (!ordering.empty()) {
    auto parsed = ParseOrderingMethod(ordering);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          "--ordering must be one of natural|heuristic|mindegree|amd|"
          "colamd|metis|nesdis, got \"" + ordering + "\"");
    }
    options.ordering = *parsed;
  }
  const std::string solver = args.Get("solver");
  if (!solver.empty() && !ParseGlassoSolver(solver, &options.glasso.solver)) {
    return Status::InvalidArgument(
        "--solver must be one of auto|cd|newton, got \"" + solver + "\"");
  }
  return options;
}

Result<Table> LoadTable(const Args& args, const std::string& path) {
  CsvOptions csv;
  const std::string delim = args.Get("delimiter");
  if (!delim.empty()) csv.delimiter = delim[0];
  return ReadCsv(path, csv);
}

/// `stable` drops every timing-derived field (transform/learning
/// seconds, diagnostics) so the in-memory and out-of-core paths emit
/// byte-identical JSON for the same table — CI compares them with cmp.
void EmitFdsJson(const Schema& schema, size_t rows, const FdxResult& result,
                 bool stable) {
  std::vector<std::string> attribute_names;
  for (size_t c = 0; c < schema.size(); ++c) {
    attribute_names.push_back(schema.name(c));
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("rows");
  json.Integer(static_cast<int64_t>(rows));
  json.Key("columns");
  json.Integer(static_cast<int64_t>(schema.size()));
  if (!stable) {
    json.Key("transform_seconds");
    json.Number(result.transform_seconds);
    json.Key("learning_seconds");
    json.Number(result.learning_seconds);
    json.Key("diagnostics");
    WriteRunDiagnosticsJson(&json, result.diagnostics, attribute_names);
  }
  json.Key("fds");
  json.BeginArray();
  for (const auto& fd : result.fds) {
    json.BeginObject();
    json.Key("lhs");
    json.BeginArray();
    for (size_t a : fd.lhs) json.String(schema.name(a));
    json.EndArray();
    json.Key("rhs");
    json.String(schema.name(fd.rhs));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.TakeString().c_str());
}

/// Text twin of EmitFdsJson with the same `stable` contract.
void EmitFdsText(const Schema& schema, size_t rows, const FdxResult& result,
                 bool stable) {
  if (stable) {
    std::printf("%zu rows x %zu columns; %zu FDs discovered\n\n%s", rows,
                schema.size(), result.fds.size(),
                FdSetToString(result.fds, schema).c_str());
    return;
  }
  std::printf("%zu rows x %zu columns; %zu FDs discovered in %.3fs\n\n%s",
              rows, schema.size(), result.fds.size(),
              result.transform_seconds + result.learning_seconds,
              FdSetToString(result.fds, schema).c_str());
  std::vector<std::string> names;
  for (size_t c = 0; c < schema.size(); ++c) names.push_back(schema.name(c));
  const std::string diagnostics =
      RenderRunDiagnostics(result.diagnostics, names);
  if (!diagnostics.empty()) std::printf("\n%s", diagnostics.c_str());
}

/// Upper bounds of the beyond-RAM flags; the ceiling's byte count must
/// fit a uint64_t.
constexpr int64_t kMaxChunkRows = 2147483647;
constexpr int64_t kMaxMemoryMb = int64_t{1} << 40;

/// The beyond-RAM discover path: stream the CSV into a spillable chunk
/// store, then run the bounded-memory transform + the usual structure
/// learning under a process-RSS ceiling. Bit-identical results to the
/// in-memory path (EmitFds* with --stable makes that checkable by cmp).
int StreamingDiscover(const Args& args, const FdxOptions& fdx,
                      const std::string& path, uint64_t rss_limit,
                      size_t chunk_rows) {
  std::string store_dir = args.Get("store-dir");
  const bool temp_store = store_dir.empty();
  if (temp_store) {
    store_dir = path + ".fdxstore";
    (void)RemoveDirectoryRecursive(store_dir);  // stale leftovers
  }
  CsvOptions csv;
  const std::string delim = args.Get("delimiter");
  if (!delim.empty()) csv.delimiter = delim[0];

  const std::string codec = args.Get("store-compression");
  ChunkedTable store;
  bool created = false;
  Status read =
      ReadCsvChunked(path, csv, chunk_rows, [&](Table&& chunk) -> Status {
        if (!created) {
          FDX_ASSIGN_OR_RETURN(
              store, ChunkedTable::Create(chunk.schema(), store_dir, codec));
          created = true;
        }
        if (chunk.num_rows() == 0) return Status::OK();
        return store.AppendBatch(chunk);
      });
  if (!read.ok()) {
    if (temp_store) (void)RemoveDirectoryRecursive(store_dir);
    std::fprintf(stderr, "%s\n", read.ToString().c_str());
    return 1;
  }

  StoreDiscoverOptions options;
  options.fdx = fdx;
  options.rss_limit_bytes = rss_limit;
  // Decoded columns may use at most a quarter of the ceiling; the rest
  // is left for dictionaries, counts, and the process baseline.
  options.column_cache_bytes = rss_limit / 4;
  auto result = DiscoverFromStore(store, options);
  const Schema schema = store.schema();
  const size_t rows = store.num_rows();
  if (temp_store) (void)RemoveDirectoryRecursive(store_dir);
  if (!result.ok()) return FailWith(result.status());
  if (args.Get("format") == "json") {
    EmitFdsJson(schema, rows, *result, args.Has("stable"));
  } else {
    EmitFdsText(schema, rows, *result, args.Has("stable"));
  }
  return 0;
}

int Discover(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: fdxtool discover <csv> [flags]\n");
    return 2;
  }
  // Flags are checked before anything is read: a malformed ceiling must
  // not drop the user onto the unbounded path.
  const Result<FdxOptions> options = OptionsFromArgs(args);
  if (!options.ok()) return RejectFlag(options.status());
  const Result<int64_t> chunk_rows = ParseIntFlag(
      "--chunk-rows", args.Get("chunk-rows", "65536"), 1, kMaxChunkRows);
  if (!chunk_rows.ok()) return RejectFlag(chunk_rows.status());
  const std::string max_memory = args.Get("max-memory-mb");
  if (!max_memory.empty()) {
    double mb = 0.0;
    if (!ParseExact(max_memory, &mb) || !(mb > 0.0 && mb <= kMaxMemoryMb)) {
      return RejectFlag(Status::InvalidArgument(
          "--max-memory-mb must be a number of megabytes in (0, " +
          std::to_string(kMaxMemoryMb) + "], got \"" + max_memory + "\""));
    }
    return StreamingDiscover(args, *options, args.positional()[0],
                             static_cast<uint64_t>(mb * 1024.0 * 1024.0),
                             static_cast<size_t>(*chunk_rows));
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  FdxDiscoverer discoverer(*options);
  auto result = discoverer.Discover(*table);
  if (!result.ok()) return FailWith(result.status());
  if (args.Get("format") == "json") {
    EmitFdsJson(table->schema(), table->num_rows(), *result,
                args.Has("stable"));
  } else {
    EmitFdsText(table->schema(), table->num_rows(), *result,
                args.Has("stable"));
  }
  return 0;
}

int Profile(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: fdxtool profile <csv> [flags]\n");
    return 2;
  }
  const Result<FdxOptions> options = OptionsFromArgs(args);
  if (!options.ok()) return RejectFlag(options.status());
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  FdxDiscoverer discoverer(*options);
  auto result = discoverer.Discover(*table);
  if (!result.ok()) return FailWith(result.status());
  const Schema& schema = table->schema();
  std::printf("Dependency heatmap (rows determine columns):\n\n");
  static const char kScale[] = " .:-=+*#%@";
  for (size_t i = 0; i < schema.size(); ++i) {
    std::printf("  ");
    for (size_t j = 0; j < schema.size(); ++j) {
      const double v = std::min(
          1.0, std::max(0.0, result->autoregression(i, j)));
      std::printf(" %c ", kScale[static_cast<size_t>(v * 9.0)]);
    }
    std::printf(" %s\n", schema.name(i).c_str());
  }
  std::printf("\nDiscovered FDs (with g3 validation error):\n");
  const EncodedTable encoded = EncodedTable::Encode(*table);
  for (const auto& fd : result->fds) {
    std::printf("  %-50s %.4f\n", fd.ToString(schema).c_str(),
                FdG3Error(encoded, fd));
  }
  std::vector<std::string> names;
  for (size_t c = 0; c < schema.size(); ++c) names.push_back(schema.name(c));
  const std::string diagnostics =
      RenderRunDiagnostics(result->diagnostics, names);
  if (!diagnostics.empty()) std::printf("\n%s", diagnostics.c_str());
  return 0;
}

int Validate(const Args& args) {
  if (args.positional().empty() || args.Get("fd").empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool validate <csv> --fd=\"A,B -> C\"\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto fd = ParseFd(table->schema(), args.Get("fd"));
  if (!fd.ok()) {
    std::fprintf(stderr, "%s\n", fd.status().ToString().c_str());
    return 1;
  }
  const EncodedTable encoded = EncodedTable::Encode(*table);
  auto report = ValidateFd(encoded, *fd);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "%s\n  g3 error: %.4f\n  LHS groups: %zu (%zu violating)\n",
      fd->ToString(table->schema()).c_str(), report->g3_error,
      report->groups, report->violating_groups);
  const size_t shown = std::min<size_t>(report->violations.size(), 10);
  for (size_t v = 0; v < shown; ++v) {
    const auto& violation = report->violations[v];
    std::printf("  violation: rows");
    for (size_t r : violation.deviating_rows) std::printf(" %zu", r);
    std::printf(" deviate from the majority of their group\n");
  }
  if (report->violations.size() > shown) {
    std::printf("  ... and %zu more violating groups\n",
                report->violations.size() - shown);
  }
  return report->violating_groups == 0 ? 0 : 3;
}

int Repair(const Args& args) {
  if (args.positional().empty() || args.Get("fd").empty() ||
      args.Get("out").empty()) {
    std::fprintf(
        stderr,
        "usage: fdxtool repair <csv> --fd=\"A,B -> C\" --out=<csv>\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto fd = ParseFd(table->schema(), args.Get("fd"));
  if (!fd.ok()) {
    std::fprintf(stderr, "%s\n", fd.status().ToString().c_str());
    return 1;
  }
  const EncodedTable encoded = EncodedTable::Encode(*table);
  ValidationOptions options;
  options.max_violations = 0;
  auto repairs = SuggestRepairs(encoded, *fd, options);
  if (!repairs.ok()) {
    std::fprintf(stderr, "%s\n", repairs.status().ToString().c_str());
    return 1;
  }
  const Table repaired = ApplyRepairs(*table, *repairs);
  Status written = WriteCsv(repaired, args.Get("out"));
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("applied %zu repairs; wrote %s\n", repairs->size(),
              args.Get("out").c_str());
  return 0;
}

int Compare(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: fdxtool compare <csv> [--budget=S]\n");
    return 2;
  }
  const Result<FdxOptions> options = OptionsFromArgs(args);
  if (!options.ok()) return RejectFlag(options.status());
  RunnerConfig config;
  config.time_budget_seconds = 30.0;
  const Status flags = FirstError(
      {NumberFlag(args, "budget", 0, kAnyNumber, &config.time_budget_seconds),
       NumberFlag(args, "error", 0, 1, &config.expected_error)});
  if (!flags.ok()) return RejectFlag(flags);
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  config.fdx = *options;
  std::printf("time budget: %s s per method\n\n",
              FormatDouble(config.time_budget_seconds, 1).c_str());
  ReportTable report({"method", "time (s)", "# FDs", "status"});
  for (MethodId method : AllMethods()) {
    RunOutcome outcome = RunMethod(method, *table, config);
    report.AddRow({MethodName(method), FormatDouble(outcome.seconds, 2),
                   outcome.ok ? std::to_string(outcome.fds.size()) : "-",
                   outcome.ok ? "ok"
                              : (outcome.timeout ? "timeout" : "failed")});
  }
  std::printf("%s", report.ToString().c_str());
  return 0;
}

int Report(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: fdxtool report <csv>\n");
    return 2;
  }
  const Result<FdxOptions> fdx = OptionsFromArgs(args);
  if (!fdx.ok()) return RejectFlag(fdx.status());
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  ProfilerOptions options;
  options.fdx = *fdx;
  auto profile = ProfileTable(*table, options);
  if (!profile.ok()) return FailWith(profile.status());
  std::printf("%s", RenderProfile(*profile, table->schema()).c_str());
  return 0;
}

int Dc(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool dc <csv> [--max-predicates=K]"
                 " [--sample-pairs=N] [--top=N]\n");
    return 2;
  }
  DcOptions options;
  size_t top = 40;
  const Status flags =
      FirstError({CountFlag(args, "max-predicates", &options.max_predicates),
                  CountFlag(args, "sample-pairs", &options.sample_pairs),
                  CountFlag(args, "top", &top)});
  if (!flags.ok()) return RejectFlag(flags);
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto dcs = DiscoverDenialConstraints(*table, options);
  if (!dcs.ok()) {
    std::fprintf(stderr, "%s\n", dcs.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu minimal denial constraints (showing up to %zu):\n",
              dcs->size(), top);
  for (size_t i = 0; i < dcs->size() && i < top; ++i) {
    std::printf("  %s\n", (*dcs)[i].ToString(table->schema()).c_str());
  }
  return 0;
}

int Keys(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool keys <csv> [--error=E] [--max-size=K]\n");
    return 2;
  }
  UccOptions options;
  const Status flags =
      FirstError({NumberFlag(args, "error", 0, 1, &options.max_error),
                  CountFlag(args, "max-size", &options.max_size)});
  if (!flags.ok()) return RejectFlag(flags);
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto uccs = DiscoverUccs(*table, options);
  if (!uccs.ok()) {
    std::fprintf(stderr, "%s\n", uccs.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu minimal unique column combinations:\n", uccs->size());
  for (const auto& ucc : *uccs) {
    std::printf("  {");
    for (size_t i = 0; i < ucc.attributes.size(); ++i) {
      std::printf("%s%s", i > 0 ? ", " : "",
                  table->schema().name(ucc.attributes[i]).c_str());
    }
    std::printf("}  error=%.4f\n", ucc.error);
  }
  return 0;
}

int Cfd(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool cfd <csv> [--support=S] [--confidence=C]"
                 " [--max-lhs=K] [--top=N]\n");
    return 2;
  }
  CfdOptions options;
  size_t top = 40;
  const Status flags = FirstError(
      {NumberFlag(args, "support", 0, 1, &options.min_support),
       NumberFlag(args, "confidence", 0, 1, &options.min_confidence),
       CountFlag(args, "max-lhs", &options.max_lhs_size),
       CountFlag(args, "top", &top)});
  if (!flags.ok()) return RejectFlag(flags);
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto cfds = DiscoverConstantCfds(*table, options);
  if (!cfds.ok()) {
    std::fprintf(stderr, "%s\n", cfds.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu constant CFDs (showing up to %zu):\n", cfds->size(),
              top);
  for (size_t i = 0; i < cfds->size() && i < top; ++i) {
    const ConditionalFd& cfd = (*cfds)[i];
    std::printf("  %-60s support=%.3f confidence=%.3f\n",
                cfd.ToString(table->schema()).c_str(), cfd.support,
                cfd.confidence);
  }
  return 0;
}

int Rank(const Args& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool rank <csv> [--min-score=S] [--top=N]\n");
    return 2;
  }
  AfdRankingOptions options;
  options.min_reliable_fraction = 0.05;
  size_t top = 20;
  const Status flags = FirstError(
      {NumberFlag(args, "min-score", 0, 1, &options.min_reliable_fraction),
       CountFlag(args, "top", &top)});
  if (!flags.ok()) return RejectFlag(flags);
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto ranked = RankUnaryAfds(*table, options);
  if (!ranked.ok()) {
    std::fprintf(stderr, "%s\n", ranked.status().ToString().c_str());
    return 1;
  }
  ReportTable report(
      {"candidate FD", "reliable", "frac-info", "g3", "strength"});
  for (size_t i = 0; i < ranked->size() && i < top; ++i) {
    const AfdCandidate& c = (*ranked)[i];
    report.AddRow({c.fd.ToString(table->schema()),
                   FormatDouble(c.reliable_fraction, 3),
                   FormatDouble(c.fraction_of_information, 3),
                   FormatDouble(c.g3_error, 3),
                   FormatDouble(c.strength, 3)});
  }
  std::printf("%s", report.ToString().c_str());
  return 0;
}

int Generate(const Args& args) {
  if (args.Get("out").empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool generate --out=<csv> [--tuples=N]"
                 " [--attributes=K] [--noise=R] [--seed=S]\n");
    return 2;
  }
  SyntheticConfig config;
  config.num_attributes = 10;
  const Status flags =
      FirstError({CountFlag(args, "tuples", &config.num_tuples),
                  CountFlag(args, "attributes", &config.num_attributes),
                  NumberFlag(args, "noise", 0, 1, &config.noise_rate),
                  CountFlag(args, "seed", &config.seed)});
  if (!flags.ok()) return RejectFlag(flags);
  auto ds = GenerateSynthetic(config);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  Status written = WriteCsv(ds->noisy, args.Get("out"));
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows, %zu attributes)\nplanted FDs:\n%s",
              args.Get("out").c_str(), ds->noisy.num_rows(),
              ds->noisy.num_columns(),
              FdSetToString(ds->true_fds, ds->noisy.schema()).c_str());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "fdxtool — statistical FD discovery (FDX, SIGMOD 2020)\n\n"
      "subcommands:\n"
      "  discover <csv>                    discover FDs\n"
      "  profile <csv>                     heatmap + validated FDs\n"
      "  validate <csv> --fd=\"A -> B\"      validate one FD\n"
      "  repair <csv> --fd=.. --out=<csv>  majority-vote repair\n"
      "  compare <csv>                     run all methods\n"
      "  rank <csv>                        score unary AFD candidates\n"
      "  cfd <csv>                         constant conditional FDs\n"
      "  generate --out=<csv>              synthetic data generator\n\n"
      "robustness flags:\n"
      "  --time-budget=S   wall-clock budget in seconds; expired runs\n"
      "                    exit 4 with a Timeout status\n"
      "  --no-recovery     fail fast on numerical errors instead of\n"
      "                    retrying with ridge escalation / fallback\n"
      "  --solver=NAME     glasso backend: auto (default; Newton on\n"
      "                    large dense components, CD elsewhere), cd,\n"
      "                    or newton\n\n"
      "beyond-RAM flags (discover):\n"
      "  --max-memory-mb=N stream the CSV through a spillable chunk\n"
      "                    store and discover under an N-MB RSS ceiling\n"
      "                    (N > 0)\n"
      "  --chunk-rows=N    ingest chunk size, N >= 1 (default 65536)\n"
      "  --store-dir=DIR   keep the chunk store at DIR (default: temp)\n"
      "  --store-compression=none|varint\n"
      "                    chunk payload codec (varint delta-compresses\n"
      "                    dictionary codes; results are identical)\n"
      "  --stable          omit timing fields so in-memory and chunked\n"
      "                    outputs compare byte-for-byte\n");
  return 2;
}

}  // namespace
}  // namespace fdx::tool

int main(int argc, char** argv) {
  using namespace fdx::tool;
  if (argc < 2) return Usage();
  const Args args(argc, argv);
  const std::string command = argv[1];
  if (command == "discover") return Discover(args);
  if (command == "profile") return Profile(args);
  if (command == "validate") return Validate(args);
  if (command == "repair") return Repair(args);
  if (command == "compare") return Compare(args);
  if (command == "report") return Report(args);
  if (command == "dc") return Dc(args);
  if (command == "keys") return Keys(args);
  if (command == "cfd") return Cfd(args);
  if (command == "rank") return Rank(args);
  if (command == "generate") return Generate(args);
  return Usage();
}
