// Span recorder for the benchmark's traced run.
//
// Spans are recorded around calls into the library's public functions,
// from the benchmark's own code: each has a name ("<layer>.<what>"), a
// start, an end and a parent. They stay in memory until the run ends,
// then are written as Chrome trace-event JSON (chrome://tracing and
// Perfetto open it offline) and folded into per-layer self times.
#ifndef FDX_PERFBENCH_TRACE_H_
#define FDX_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fdx::bench {

class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    std::string name;
    int64_t parent = kNoParent;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
  };

  /// Opens a span under the innermost open span; returns its id.
  int64_t Begin(std::string name);
  /// Closes span `id`, which must be the innermost open span.
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  double Duration(int64_t id) const {
    return spans_[id].end_s - spans_[id].start_s;
  }

  /// Per span: its duration minus the time its direct children cover.
  std::vector<double> SelfTimes() const;

  /// Chrome trace-event JSON: one complete ("X") event per span, with
  /// its id and parent id in "args".
  std::string ToChromeJson() const;

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(std::move(name)) : Tracer::kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace fdx::bench

#endif  // FDX_PERFBENCH_TRACE_H_
