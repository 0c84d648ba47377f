// service_sessions: an in-process fdxd (FdxServer, default ServerOptions)
// on loopback. One client thread drives four connections in a closed
// loop at pipeline depth 1; each owns a memory session over a 40-attribute
// planted-FD schema and repeats: append a 1,000-row CSV batch, discover
// (a fresh warm re-solve), discover again (a cache hit), status.
//
// Checks: every fresh discover response is byte-identical to replaying
// the same batches through IncrementalFdx and RenderDiscoverResponse,
// every cached response equals the fresh one before it, and every other
// response is ok.
#include <poll.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "data/csv.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/fingerprint.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/socket.h"

namespace fdx::bench {

namespace {

constexpr size_t kConnections = 4;
constexpr size_t kAttributes = 40;
/// Distinct batches; session c appends batch (c * 7 + i) % kBatches at
/// its i-th iteration.
constexpr size_t kBatches = 32;

enum Op : size_t { kAppend = 0, kFresh, kCached, kStatus, kOps };

struct Setup {
  Schema schema;
  FdSet truth;
  std::vector<std::string> batch_csv;  ///< headerless CSV per batch
  std::unique_ptr<FdxServer> server;
  std::vector<Socket> sockets;
  std::vector<std::string> sessions;
};

size_t BatchIndex(size_t conn, size_t iteration) {
  return (conn * 7 + iteration) % kBatches;
}

std::string AppendRequest(const std::string& session, const std::string& csv) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op");
  json.String("append");
  json.Key("session");
  json.String(session);
  json.Key("csv");
  json.String(csv);
  json.EndObject();
  return json.TakeString();
}

std::string DiscoverRequest(const std::string& session) {
  return "{\"op\":\"discover\",\"session\":\"" + session + "\"}";
}

Result<std::string> RoundTrip(Socket* socket, const std::string& request) {
  FDX_RETURN_IF_ERROR(socket->SendAll(request + "\n"));
  std::string line;
  FDX_RETURN_IF_ERROR(socket->ReadLine(&line));
  return line;
}

/// Generates the batches, starts the server and opens one session per
/// connection.
Status SetUp(const Options& options, size_t batch_rows, Setup* setup) {
  FDX_ASSIGN_OR_RETURN(
      SyntheticDataset data,
      GenerateSynthetic(PaperSyntheticConfig(options.seed,
                                             kBatches * batch_rows,
                                             kAttributes)));
  setup->schema = data.noisy.schema();
  setup->truth = std::move(data.true_fds);
  setup->batch_csv.assign(kBatches, "");
  for (size_t r = 0; r < data.noisy.num_rows(); ++r) {
    std::string& csv = setup->batch_csv[r / batch_rows];
    for (size_t c = 0; c < kAttributes; ++c) {
      if (c > 0) csv += ',';
      csv += data.noisy.cell(r, c).ToString();
    }
    csv += '\n';
  }

  setup->server = std::make_unique<FdxServer>(ServerOptions{});
  FDX_RETURN_IF_ERROR(setup->server->Start());
  JsonWriter open;
  open.BeginObject();
  open.Key("op");
  open.String("open");
  open.Key("schema");
  open.BeginArray();
  for (const std::string& name : setup->schema.names()) open.String(name);
  open.EndArray();
  open.EndObject();
  const std::string open_request = open.TakeString();
  setup->sockets.clear();
  setup->sessions.clear();
  for (size_t c = 0; c < kConnections; ++c) {
    FDX_ASSIGN_OR_RETURN(Socket socket,
                         Socket::ConnectLoopback(setup->server->port()));
    FDX_ASSIGN_OR_RETURN(std::string response,
                         RoundTrip(&socket, open_request));
    FDX_ASSIGN_OR_RETURN(JsonValue parsed, JsonValue::Parse(response));
    const std::string session = parsed.StringOr("session", "");
    if (session.empty()) return Status::Internal("open failed: " + response);
    setup->sockets.push_back(std::move(socket));
    setup->sessions.push_back(session);
  }
  return Status::OK();
}

/// What the client saw on one connection.
struct ConnLog {
  std::vector<double> latency_ms[kOps];
  std::vector<uint64_t> fresh_hashes;  ///< one per completed iteration
  size_t iterations = 0;               ///< completed iterations
};

uint64_t Hash(const std::string& text) {
  Fingerprint fp;
  fp.UpdateString(text);
  return fp.lo();
}

/// The closed loop: each connection keeps exactly one request in flight
/// until `seconds` have passed, then finishes its current iteration.
void DriveClients(Setup* setup, double seconds, std::vector<ConnLog>* logs,
                  Report* report) {
  struct Conn {
    size_t op = kAppend;
    double sent_at = 0.0;
    std::string inbox;
    std::string last_fresh;
    bool done = false;
  };
  std::vector<Conn> conns(kConnections);
  logs->assign(kConnections, ConnLog{});
  const std::string status_request = "{\"op\":\"status\"}";
  const auto send = [&](size_t c) {
    Conn& conn = conns[c];
    std::string request;
    if (conn.op == kAppend) {
      request = AppendRequest(
          setup->sessions[c],
          setup->batch_csv[BatchIndex(c, (*logs)[c].iterations)]);
    } else if (conn.op == kStatus) {
      request = status_request;
    } else {
      request = DiscoverRequest(setup->sessions[c]);
    }
    conn.sent_at = NowSeconds();
    report->Attempt();
    if (!setup->sockets[c].SendAll(request + "\n").ok()) {
      report->Fail("send failed");
      conn.done = true;
    }
  };

  const double start = NowSeconds();
  for (size_t c = 0; c < kConnections; ++c) send(c);
  std::vector<pollfd> fds(kConnections);
  std::vector<char> buf(1 << 16);
  size_t open_conns = kConnections;
  while (open_conns > 0) {
    for (size_t c = 0; c < kConnections; ++c) {
      fds[c] = {conns[c].done ? -1 : setup->sockets[c].fd(), POLLIN, 0};
    }
    if (::poll(fds.data(), fds.size(), 10000) <= 0) {
      report->Fail("no response within 10 s");
      return;
    }
    for (size_t c = 0; c < kConnections; ++c) {
      if (conns[c].done || fds[c].revents == 0) continue;
      Conn& conn = conns[c];
      Result<IoOutcome> got = setup->sockets[c].RecvRaw(buf.data(), buf.size());
      if (!got.ok() || got->closed) {
        report->Fail("connection closed by the server");
        conn.done = true;
        --open_conns;
        continue;
      }
      conn.inbox.append(buf.data(), got->bytes);
      const size_t eol = conn.inbox.find('\n');
      if (eol == std::string::npos) continue;
      const double now = NowSeconds();
      std::string response = conn.inbox.substr(0, eol);
      conn.inbox.erase(0, eol + 1);
      ConnLog& log = (*logs)[c];
      log.latency_ms[conn.op].push_back((now - conn.sent_at) * 1e3);
      const bool ok = response.rfind("{\"ok\":true", 0) == 0;
      if (conn.op == kFresh) {
        report->Check(ok, "fresh discover failed: " + response.substr(0, 200));
        log.fresh_hashes.push_back(Hash(response));
        conn.last_fresh = std::move(response);
      } else if (conn.op == kCached) {
        report->Check(response == conn.last_fresh,
                      "cached discover differs from the fresh one");
      } else {
        report->Check(ok, "request failed: " + response.substr(0, 200));
      }
      conn.op = (conn.op + 1) % kOps;
      if (conn.op == kAppend) {
        ++log.iterations;
        if (now - start >= seconds) {
          conn.done = true;
          --open_conns;
          continue;
        }
      }
      send(c);
    }
  }
}

/// Replays one session's batches through the library and counts in
/// `mismatches` the fresh responses that differ from the replay's. With
/// a tracer, every call gets a span and each iteration is a root.
FdxResult ReplaySession(const Options& options, const Setup& setup, size_t c,
                        const ConnLog& log, Tracer* tracer,
                        LayerTotals* totals, size_t* mismatches) {
  IncrementalFdx fdx(setup.schema, FdxOptions{});
  Fingerprint content;
  FdxResult last;
  const std::string discover_line = DiscoverRequest(setup.sessions[c]);
  CsvOptions csv_options;
  csv_options.has_header = false;
  for (size_t i = 0; i < log.iterations; ++i) {
    const std::string append_line = AppendRequest(
        setup.sessions[c], setup.batch_csv[BatchIndex(c, i)]);
    const int64_t root = tracer ? tracer->Begin("rep") : Tracer::kNoParent;
    std::string rendered;
    {
      Result<JsonValue> request = Status::Internal("unset");
      {
        ScopedSpan span(tracer, "service.json_parse");
        request = JsonValue::Parse(append_line);
      }
      Result<Table> batch = request.status();
      if (request.ok()) {
        ScopedSpan span(tracer, "service.batch_csv_parse");
        batch = ReadCsvFromString(request->StringOr("csv", ""), csv_options);
        if (batch.ok()) batch->ReplaceSchema(setup.schema);
      }
      Status appended = batch.status();
      if (appended.ok()) {
        ScopedSpan span(tracer, "core.incremental_append");
        appended = fdx.Append(*batch);
      }
      if (appended.ok()) {
        ScopedSpan span(tracer, "service.fingerprint");
        content.UpdateString("batch");
        UpdateTableFingerprint(&content, *batch);
      }
      {
        ScopedSpan span(tracer, "service.json_parse");
        request = JsonValue::Parse(discover_line);
      }
      Result<FdxResult> result = Status::Internal("unset");
      if (appended.ok()) {
        ScopedSpan span(tracer, "core.incremental_discover");
        result = fdx.CurrentFds();
      }
      if (result.ok()) {
        if (options.corrupt_fds) {
          result->fds = WrongFds(kAttributes, setup.truth);
        }
        ScopedSpan span(tracer, "service.render");
        rendered = RenderDiscoverResponse(setup.schema, fdx.total_rows(),
                                          *result);
        last = std::move(result).value();
      }
    }
    if (tracer != nullptr) {
      tracer->End(root);
      totals->AddSpans(*tracer, root);
    }
    if (i >= log.fresh_hashes.size() ||
        Hash(rendered) != log.fresh_hashes[i]) {
      ++*mismatches;
    }
  }
  return last;
}

}  // namespace

void RunServiceSessions(const Options& options, Report* report) {
  const size_t batch_rows = options.toy ? 100 : 1000;
  Setup setup;
  std::vector<double> setup_times;
  for (size_t i = 0; i < (options.trace ? 1 : kSetupRuns); ++i) {
    setup.server.reset();
    const double start = NowSeconds();
    const Status status = SetUp(options, batch_rows, &setup);
    setup_times.push_back(NowSeconds() - start);
    if (!status.ok()) {
      report->Attempt();
      report->Fail("setup: " + status.ToString());
      return;
    }
  }

  std::vector<ConnLog> logs;
  ResetPeakRss();
  const double start = NowSeconds();
  DriveClients(&setup, options.trace ? options.seconds / 2 : options.seconds,
               &logs, report);
  const double elapsed = NowSeconds() - start;
  const double peak_mb = PeakRssMb();

  const FdxServer& server = *setup.server;
  const double lookups =
      static_cast<double>(server.cache().hits() + server.cache().misses());
  const auto solver = server.sessions().SolverStats();
  const double cache_hit_ratio =
      lookups > 0 ? static_cast<double>(server.cache().hits()) / lookups : 0.0;
  const double warm_solve_ratio =
      solver.solves > 0 ? static_cast<double>(solver.warm_solves) /
                              static_cast<double>(solver.solves)
                        : 0.0;
  const double queue_rejected = static_cast<double>(server.queue().rejected());
  const double shed_total = static_cast<double>(
      server.shed_queue() + server.shed_memory() + server.shed_deadline());
  setup.sockets.clear();
  setup.server.reset();

  std::vector<double> latency[kOps];
  std::vector<double> time_to_fds;
  size_t requests = 0;
  size_t iterations = 0;
  for (const ConnLog& log : logs) {
    for (size_t op = 0; op < kOps; ++op) {
      latency[op].insert(latency[op].end(), log.latency_ms[op].begin(),
                         log.latency_ms[op].end());
      requests += log.latency_ms[op].size();
    }
    for (size_t i = 0; i < log.iterations; ++i) {
      time_to_fds.push_back(
          (log.latency_ms[kAppend][i] + log.latency_ms[kFresh][i]) / 1e3);
    }
    iterations += log.iterations;
  }

  // The library replay, after the timed phase. Untraced runs replay the
  // sessions in parallel; traced runs replay each one twice, untraced
  // then traced, to measure the trace overhead.
  std::vector<FdxResult> finals(kConnections);
  std::vector<size_t> mismatches(kConnections, 0);
  const auto report_mismatches = [&] {
    for (size_t c = 0; c < kConnections; ++c) {
      for (size_t i = 0; i < mismatches[c]; ++i) {
        report->Fail("fresh discover differs from the library replay");
      }
    }
  };
  if (!options.trace) {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        finals[c] = ReplaySession(options, setup, c, logs[c], nullptr,
                                  nullptr, &mismatches[c]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    report_mismatches();
  } else {
    Tracer tracer;
    LayerTotals totals;
    double untraced = 0.0;
    double traced = 0.0;
    std::vector<size_t> untraced_mismatches(kConnections, 0);
    for (size_t c = 0; c < kConnections; ++c) {
      double t0 = NowSeconds();
      ReplaySession(options, setup, c, logs[c], nullptr, nullptr,
                    &untraced_mismatches[c]);
      untraced += NowSeconds() - t0;
      t0 = NowSeconds();
      finals[c] = ReplaySession(options, setup, c, logs[c], &tracer, &totals,
                                &mismatches[c]);
      traced += NowSeconds() - t0;
    }
    report_mismatches();
    double client_ms = 0.0;
    for (double ms : latency[kAppend]) client_ms += ms;
    for (double ms : latency[kFresh]) client_ms += ms;
    const double replay_ms = traced * 1e3;
    totals.Set("service.unattributed_ms",
               iterations > 0 ? (client_ms - replay_ms) /
                                    static_cast<double>(iterations)
                              : 0.0);
    totals.Set("service.cache_hit_ratio", cache_hit_ratio);
    totals.Set("service.warm_solve_ratio", warm_solve_ratio);
    totals.Set("service.queue_rejected", queue_rejected);
    totals.Set("service.shed_total", shed_total);
    totals.Set("trace_overhead_frac",
               untraced > 0 ? traced / untraced - 1.0 : 0.0);
    totals.Emit(iterations, report);
    report->trace_json = tracer.ToChromeJson();
    return;
  }

  double f1 = 0.0;
  for (const FdxResult& result : finals) {
    f1 += FdF1(result.fds, setup.truth) / static_cast<double>(kConnections);
  }
  report->Check(f1 >= kMinF1, "fd_f1 " + std::to_string(f1) + " below " +
                                  std::to_string(kMinF1));
  report->Add("setup_s", Median(setup_times), "s", setup_times.size());
  report->Add("time_to_fds_s", Median(time_to_fds), "s", time_to_fds.size());
  report->Add("peak_rss_mb", peak_mb, "MB", 1);
  report->Add("fd_f1", f1, "ratio", kConnections);
  report->Add("service_rps", static_cast<double>(requests) / elapsed, "req/s",
              requests);
  const auto add_latency = [&](const char* name, Op op, double q) {
    if (q == 0.99 && !HasP99(latency[op].size())) {
      report->Omit(name, "p99 needs ten samples beyond it; n=" +
                             std::to_string(latency[op].size()) + " < 1000");
      return;
    }
    report->Add(name, Quantile(latency[op], q), "ms", latency[op].size());
  };
  add_latency("fresh_discover_p50_ms", kFresh, 0.5);
  add_latency("fresh_discover_p99_ms", kFresh, 0.99);
  add_latency("cached_discover_p50_ms", kCached, 0.5);
  add_latency("append_p50_ms", kAppend, 0.5);
  add_latency("append_p99_ms", kAppend, 0.99);
}

}  // namespace fdx::bench
