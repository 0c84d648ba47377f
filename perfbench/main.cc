// FDX benchmark program. Runs one workload from a seed, checks every
// output, and prints its metrics: one line per metric for people, then
// one JSON object with everything (host block included) as the last
// line. perfbench/run.py builds this program and turns that object into
// the benchmark's result line.
//
//   fdx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --workdir DIR [--trace-file PATH] [--commit SHA]
//                 [--toy] [--corrupt-fds]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "linalg/simd.h"
#include "util/file_io.h"
#include "util/json_writer.h"

namespace fdx::bench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "fdx_perfbench: %s\n"
               "usage: fdx_perfbench --workload "
               "batch_csv|wide_corr|oocore_bounded|service_sessions\n"
               "         --seed N --seconds S --trace 0|1 --workdir DIR\n"
               "         [--trace-file PATH] [--commit SHA] [--toy] "
               "[--corrupt-fds]\n",
               why);
  return 2;
}

/// A number with all its digits.
std::string Digits(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string HostJson(const std::string& commit) {
  JsonWriter json;
  json.BeginObject();
  json.Key("nproc");
  json.Integer(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("simd_detected");
  json.String(SimdLevelName(DetectedSimdLevel()));
  json.Key("simd_active");
  json.String(SimdLevelName(ActiveSimdLevel()));
  json.Key("build_type");
  json.String(FDX_BENCH_BUILD_TYPE);
  json.Key("commit");
  json.String(commit);
  json.EndObject();
  return json.TakeString();
}

}  // namespace
}  // namespace fdx::bench

int main(int argc, char** argv) {
  using namespace fdx::bench;
  Options options;
  std::string trace_file;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--toy") {
      options.toy = true;
    } else if (arg == "--corrupt-fds") {
      options.corrupt_fds = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(v) == "1";
      have_trace = true;
    } else if (arg == "--workdir") {
      options.workdir = v;
    } else if (arg == "--trace-file") {
      trace_file = v;
    } else if (arg == "--commit") {
      commit = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_trace || options.workdir.empty() ||
      !(options.seconds > 0.0)) {
    return Usage("--seed, --seconds, --trace and --workdir are required");
  }
  void (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "batch_csv") {
    run = RunBatchCsv;
  } else if (options.workload == "wide_corr") {
    run = RunWideCorr;
  } else if (options.workload == "oocore_bounded") {
    run = RunOocoreBounded;
  } else if (options.workload == "service_sessions") {
    run = RunServiceSessions;
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  (void)fdx::RemoveDirectoryRecursive(options.workdir);
  if (!fdx::EnsureDirectory(options.workdir).ok()) {
    return Usage(("cannot create " + options.workdir).c_str());
  }

  Report report;
  run(options, &report);
  (void)fdx::RemoveDirectoryRecursive(options.workdir);
  if (!options.trace) {
    const double attempted = static_cast<double>(report.attempted());
    report.Add("failed_frac",
               attempted > 0 ? static_cast<double>(report.failed()) / attempted
                             : 1.0,
               "ratio", report.attempted());
  }
  if (options.trace && !trace_file.empty()) {
    if (!fdx::WriteFileAtomic(trace_file, report.trace_json).ok()) {
      report.Fail("cannot write " + trace_file);
    }
  }
  const bool correct = report.attempted() > 0 && report.failed() == 0;

  const std::string host = HostJson(commit);
  std::printf("host %s\n", host.c_str());
  for (const Metric& m : report.metrics()) {
    std::printf("%-16s %-34s %22s %-6s n=%zu\n", options.workload.c_str(),
                m.name.c_str(), Digits(m.value).c_str(), m.unit.c_str(),
                m.samples);
  }
  for (const std::string& why : report.omitted()) {
    std::printf("%-16s not reported: %s\n", options.workload.c_str(),
                why.c_str());
  }
  for (const std::string& why : report.failures()) {
    std::printf("FAILED %s\n", why.c_str());
  }
  std::printf("verdict %s: %llu of %llu operations failed\n",
              correct ? "correct" : "WRONG",
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));

  std::string line = "{\"workload\":\"" + options.workload +
                     "\",\"seed\":" + std::to_string(options.seed) +
                     ",\"trace\":" + (options.trace ? "1" : "0") +
                     ",\"host\":" + host +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(report.attempted()) +
                     ",\"failed\":" + std::to_string(report.failed()) +
                     ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const Metric& m = report.metrics()[i];
    if (i > 0) line += ',';
    line += "\"" + m.name + "\":{\"value\":" + Digits(m.value) +
            ",\"unit\":\"" + m.unit +
            "\",\"samples\":" + std::to_string(m.samples) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
