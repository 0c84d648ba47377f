// fdxd — the FD-discovery daemon (loopback TCP, line-delimited JSON).
//
// Serves the ops documented in DESIGN.md §9: open / append / discover /
// status / shutdown (plus the test-only `sleep` behind --debug-ops).
// Shut it down with `fdxctl shutdown`; the daemon drains in-flight
// discovery jobs under --drain-seconds and exits.
//
// I/O architecture (DESIGN.md §12): a fixed set of epoll event-loop
// threads multiplexes every connection with pipelined request framing;
// solver-bound work runs on a bounded pool of worker threads.
//
// Flags (all --key=value). A number flag whose value is not a finite
// number (an integer, for the integer flags) or lies outside the flag's
// range is a usage error: the daemon names the flag and its range and
// exits with code 2 before starting any thread. Seconds flags take
// [0, 1e9], --time-budget any finite number.
//   --port=N            listen port; 0 (default) picks an ephemeral port
//   --port-file=PATH    write the bound port to PATH (for scripts/CI)
//   --io-threads=N      event-loop threads, 1..1024         (default 1)
//   --workers=N         discovery worker threads, 1..1024   (default 2)
//   --queue-capacity=N  admitted-unfinished job cap         (default 8)
//   --max-sessions=N    open dataset sessions cap           (default 32)
//   --session-ttl=SEC   idle-session eviction, 0 disables   (default 600)
//   --session-shards=N  session-registry mutex stripes      (default 8)
//   --drain-seconds=SEC shutdown drain budget               (default 10)
//   --cache-capacity=N  result-cache entries                (default 64)
//   --cache-shards=N    result-cache mutex stripes          (default 8)
//   --max-pipeline-depth=N  per-connection pipelined frames (default 1024)
//   --lambda=, --time-budget=   baseline FdxOptions for requests that
//                               don't override them (--lambda >= 0)
//   --debug-ops         enable the test-only `sleep` op
//
// Robustness flags (DESIGN.md §13):
//   --state-dir=PATH    durable mode: sessions keep their rows in chunk
//                       stores under PATH (one manifest commit per
//                       append), the result cache spills there; startup
//                       replays them and serves bit-identical results
//   --snapshot-interval=SEC  cache spill period in durable mode (default 5)
//   --default-deadline=SEC   server-side deadline applied to requests
//                            that don't send "deadline_seconds" (0 = none)
//   --shed-watermark=F  shed new discover jobs once queue depth crosses
//                       F * queue capacity, F in [0, 1] (0 disables)
//   --shed-rss-mb=N     shed new discover jobs above N MiB RSS (0 = off)
//   --shed-retry-after=SEC   retry_after hint on shed responses (default 0.2)
//   --store-compression=none|varint  chunk payload codec for durable
//                       sessions' stores; fingerprints cover the uncompressed
//                       bytes, so results and cache keys are unchanged
//
// SIGTERM/SIGINT trigger the same graceful drain as a `shutdown`
// request.
//
// Exit codes: 0 clean client-requested shutdown (jobs drained), 1
// startup failure or unclean drain, 2 usage, 3 clean signal-initiated
// shutdown (so supervisors can tell a drained SIGTERM from an operator
// `fdxctl shutdown`).

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "service/server.h"
#include "util/string_util.h"

namespace fdx::daemon {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fdxd [--port=N] [--port-file=PATH]\n"
               "            [--io-threads=N] [--workers=N]\n"
               "            [--queue-capacity=N]\n"
               "            [--max-sessions=N] [--session-ttl=SEC]\n"
               "            [--session-shards=N] [--drain-seconds=SEC]\n"
               "            [--cache-capacity=N] [--cache-shards=N]\n"
               "            [--max-pipeline-depth=N] [--lambda=L]\n"
               "            [--time-budget=SEC] [--debug-ops]\n"
               "            [--state-dir=PATH] [--snapshot-interval=SEC]\n"
               "            [--default-deadline=SEC] [--shed-watermark=F]\n"
               "            [--shed-rss-mb=N] [--shed-retry-after=SEC]\n"
               "            [--store-compression=none|varint]\n");
  return 2;
}

/// Raises the fd soft limit to the hard limit. One epoll thread happily
/// owns thousands of sockets; the usual 1024 soft default would cap the
/// daemon long before the event loop breaks a sweat. Best-effort — on
/// failure the accept path's transient-EMFILE handling degrades
/// gracefully instead of dying.
void RaiseFdLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= limit.rlim_max) return;
  limit.rlim_cur = limit.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &limit);
}

int Main(int argc, char** argv) {
  ServerOptions options;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    // Number flags: a value that is not a number (an integer, for the
    // integer flags) in the flag's range is reported by name before
    // anything starts.
    Status bad_value = Status::OK();
    const auto int_flag = [&](const char* name, int64_t min, int64_t max,
                              auto* out) {
      return ConsumeIntFlag(arg, name, min, max, out, &bad_value);
    };
    const auto number_flag = [&](const char* name, double min, double max,
                                 double* out) {
      return ConsumeNumberFlag(arg, name, min, max, out, &bad_value);
    };
    constexpr int64_t kMaxThreads = 1024;
    constexpr int64_t kMaxCount = int64_t{1} << 24;
    // Durations stay within what steady_clock's nanosecond ticks hold.
    constexpr double kMaxSeconds = 1e9;
    constexpr double kAnyNumber = std::numeric_limits<double>::max();
    if (int_flag("--port", 0, 65535, &options.port) ||
        int_flag("--io-threads", 1, kMaxThreads, &options.io_threads) ||
        int_flag("--workers", 1, kMaxThreads, &options.workers) ||
        int_flag("--queue-capacity", 0, kMaxCount, &options.queue_capacity) ||
        int_flag("--max-sessions", 0, kMaxCount, &options.max_sessions) ||
        int_flag("--session-shards", 1, kMaxThreads, &options.session_shards) ||
        int_flag("--cache-capacity", 0, kMaxCount, &options.cache_capacity) ||
        int_flag("--cache-shards", 1, kMaxThreads, &options.cache_shards) ||
        int_flag("--max-pipeline-depth", 1, kMaxCount,
                 &options.max_pipeline_depth) ||
        int_flag("--shed-rss-mb", 0, kMaxCount, &options.shed_max_rss_mb) ||
        number_flag("--session-ttl", 0, kMaxSeconds,
                    &options.session_ttl_seconds) ||
        number_flag("--drain-seconds", 0, kMaxSeconds,
                    &options.drain_seconds) ||
        number_flag("--lambda", 0, kAnyNumber, &options.fdx.lambda) ||
        number_flag("--time-budget", -kAnyNumber, kAnyNumber,
                    &options.fdx.time_budget_seconds) ||
        number_flag("--snapshot-interval", 0, kMaxSeconds,
                    &options.snapshot_interval_seconds) ||
        number_flag("--default-deadline", 0, kMaxSeconds,
                    &options.default_deadline_seconds) ||
        number_flag("--shed-watermark", 0, 1,
                    &options.shed_queue_watermark) ||
        number_flag("--shed-retry-after", 0, kMaxSeconds,
                    &options.shed_retry_after_seconds)) {
      if (!bad_value.ok()) {
        std::fprintf(stderr, "fdxd: %s\n", bad_value.message().c_str());
        return Usage();
      }
    } else if (arg.rfind("--port-file=", 0) == 0) {
      port_file = value("--port-file=");
    } else if (arg == "--debug-ops") {
      options.enable_debug_ops = true;
    } else if (arg.rfind("--state-dir=", 0) == 0) {
      options.state_dir = value("--state-dir=");
    } else if (arg.rfind("--store-compression=", 0) == 0) {
      options.store_compression = value("--store-compression=");
    } else {
      std::fprintf(stderr, "fdxd: unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }

  RaiseFdLimit();

  // SIGTERM/SIGINT must drain, not kill. The signals are blocked in
  // every thread (spawned threads inherit this mask) and consumed by a
  // dedicated sigwait thread — signal-safe by construction, since the
  // handler work (server.Shutdown()) runs in ordinary thread context.
  sigset_t signal_mask;
  sigemptyset(&signal_mask);
  sigaddset(&signal_mask, SIGTERM);
  sigaddset(&signal_mask, SIGINT);
  sigaddset(&signal_mask, SIGUSR1);  // wake-up for clean sigwait exit
  pthread_sigmask(SIG_BLOCK, &signal_mask, nullptr);

  FdxServer server(options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "fdxd: %s\n", started.ToString().c_str());
    return 1;
  }

  std::atomic<bool> signal_shutdown{false};
  std::atomic<bool> exiting{false};
  std::thread signal_thread([&] {
    for (;;) {
      int sig = 0;
      if (sigwait(&signal_mask, &sig) != 0) continue;
      if (exiting.load()) return;
      if (sig == SIGTERM || sig == SIGINT) {
        std::fprintf(stderr, "fdxd: caught %s, draining\n",
                     sig == SIGTERM ? "SIGTERM" : "SIGINT");
        signal_shutdown.store(true);
        server.Shutdown();
        return;
      }
    }
  });
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "fdxd: cannot write port file %s\n",
                   port_file.c_str());
      return 1;
    }
  }
  std::printf("fdxd listening on 127.0.0.1:%u (epoll)\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  server.Wait();  // returns once a `shutdown` request or signal drained

  exiting.store(true);
  ::kill(::getpid(), SIGUSR1);  // wake sigwait if no signal ever arrived
  signal_thread.join();

  if (!server.drained_cleanly()) {
    std::fprintf(stderr, "fdxd: drain budget expired with jobs in flight\n");
    return 1;
  }
  return signal_shutdown.load() ? 3 : 0;
}

}  // namespace
}  // namespace fdx::daemon

int main(int argc, char** argv) { return fdx::daemon::Main(argc, argv); }
