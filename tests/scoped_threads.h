#ifndef FDX_TESTS_SCOPED_THREADS_H_
#define FDX_TESTS_SCOPED_THREADS_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace fdx {

/// Sets FDX_THREADS for one scope, then restores the caller's setting.
/// The ingest layer (ReadCsv's ranges, EncodedTable::Encode's columns)
/// takes no thread argument, so tests reach its thread count this way.
class ScopedThreads {
 public:
  explicit ScopedThreads(size_t threads) {
    const char* saved = std::getenv("FDX_THREADS");
    had_ = saved != nullptr;
    if (had_) saved_ = saved;
    EXPECT_EQ(setenv("FDX_THREADS", std::to_string(threads).c_str(), 1), 0);
  }
  ~ScopedThreads() {
    if (had_) {
      setenv("FDX_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("FDX_THREADS");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

}  // namespace fdx

#endif  // FDX_TESTS_SCOPED_THREADS_H_
