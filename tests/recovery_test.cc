#include <gtest/gtest.h>

#include "core/fdx.h"
#include "eval/report.h"
#include "eval/runner.h"
#include "linalg/glasso.h"
#include "synth/generator.h"
#include "util/fault_injection.h"

namespace fdx {
namespace {

/// A table with one planted unary FD (x -> y) and an independent column,
/// large enough for glasso to recover the structure cleanly.
Table FdTable(int rows = 2000) {
  Table t{Schema({"x", "y", "z"})};
  Rng rng(11);
  for (int i = 0; i < rows; ++i) {
    const int64_t x = rng.NextInt(0, 19);
    t.AppendRow({Value(x), Value((x * 7 + 3) % 20), Value(rng.NextInt(0, 19))});
  }
  return t;
}

/// Same planted FD plus a constant column — the quarantine candidate.
Table FdTableWithConstant(int rows = 2000) {
  Table t{Schema({"x", "y", "z", "konst"})};
  Rng rng(12);
  for (int i = 0; i < rows; ++i) {
    const int64_t x = rng.NextInt(0, 19);
    t.AppendRow({Value(x), Value((x * 7 + 3) % 20), Value(rng.NextInt(0, 19)),
                 Value(int64_t{5})});
  }
  return t;
}

bool HasFd(const FdSet& fds, size_t lhs, size_t rhs) {
  for (const auto& fd : fds) {
    if (fd.rhs == rhs && fd.lhs.size() == 1 && fd.lhs[0] == lhs) return true;
  }
  return false;
}

class RecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmFaults(); }
};

TEST_F(RecoveryTest, CleanRunHasCleanDiagnostics) {
  auto result = FdxDiscoverer().Discover(FdTable());
  ASSERT_TRUE(result.ok());
  const RunDiagnostics& diag = result->diagnostics;
  EXPECT_FALSE(diag.Degraded());
  EXPECT_EQ(diag.glasso_attempts, 1u);
  EXPECT_FALSE(diag.fallback_sequential);
  EXPECT_FALSE(diag.quarantined);
  EXPECT_TRUE(RenderRunDiagnostics(diag).empty());
}

TEST_F(RecoveryTest, GlassoFaultTriggersRidgeRetry) {
  ASSERT_TRUE(ArmFaults(std::string(kFaultGlassoSweep) + ":1").ok());
  FdxDiscoverer discoverer;
  auto result = discoverer.Discover(FdTable());
  ASSERT_TRUE(result.ok());
  const RunDiagnostics& diag = result->diagnostics;
  EXPECT_TRUE(diag.Degraded());
  EXPECT_EQ(diag.glasso_attempts, 2u);
  // The winning attempt ran with the escalated ridge (base 1e-6 x 10).
  EXPECT_NEAR(diag.ridge_used,
              discoverer.options().glasso.diagonal_ridge *
                  RecoveryPolicy::kRidgeMultiplier,
              1e-12);
  EXPECT_FALSE(diag.fallback_sequential);
  ASSERT_FALSE(diag.events.empty());
  EXPECT_EQ(diag.events.back().action, "retry_ridge");
  // The salvaged run still finds the planted FD.
  EXPECT_TRUE(HasFd(result->fds, 0, 1));
}

TEST_F(RecoveryTest, UdutFaultTriggersRidgeRetry) {
  ASSERT_TRUE(ArmFaults(std::string(kFaultUdutPivot) + ":1").ok());
  auto result = FdxDiscoverer().Discover(FdTable());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->diagnostics.glasso_attempts, 2u);
  EXPECT_TRUE(HasFd(result->fds, 0, 1));
}

TEST_F(RecoveryTest, PersistentGlassoFaultFallsBackToSequentialLasso) {
  ASSERT_TRUE(ArmFaults(kFaultGlassoSweep).ok());  // every attempt diverges
  FdxDiscoverer discoverer;
  auto result = discoverer.Discover(FdTable());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunDiagnostics& diag = result->diagnostics;
  EXPECT_EQ(diag.glasso_attempts, RecoveryPolicy::kMaxRidgeRetries + 1);
  EXPECT_TRUE(diag.fallback_sequential);
  EXPECT_FALSE(diag.quarantined);
  EXPECT_TRUE(HasFd(result->fds, 0, 1));
  // The rendered diagnostics mention the fallback.
  const std::string rendered = RenderRunDiagnostics(diag);
  EXPECT_NE(rendered.find("sequential"), std::string::npos);
}

TEST_F(RecoveryTest, FullChainEndsInQuarantine) {
  // Glasso always diverges; the first sequential-lasso attempt dies too.
  // Recovery must quarantine the constant column and succeed on the rest.
  ASSERT_TRUE(ArmFaults(std::string(kFaultGlassoSweep) + "," +
                        kFaultSeqLassoColumn + ":1")
                  .ok());
  const Table table = FdTableWithConstant();
  auto result = FdxDiscoverer().Discover(table);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunDiagnostics& diag = result->diagnostics;
  EXPECT_TRUE(diag.Degraded());
  EXPECT_TRUE(diag.fallback_sequential);
  EXPECT_TRUE(diag.quarantined);
  ASSERT_EQ(diag.quarantined_attributes.size(), 1u);
  EXPECT_EQ(diag.quarantined_attributes[0], 3u);  // "konst"
  // Quarantined attributes never appear in discovered FDs…
  for (const auto& fd : result->fds) {
    EXPECT_NE(fd.rhs, 3u);
    for (size_t lhs : fd.lhs) EXPECT_NE(lhs, 3u);
  }
  // …their matrix rows/columns are zeroed…
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(result->autoregression(i, 3), 0.0);
    EXPECT_DOUBLE_EQ(result->autoregression(3, i), 0.0);
  }
  // …and the planted FD still comes out of the salvaged attributes.
  EXPECT_TRUE(HasFd(result->fds, 0, 1));
  // The event log records the whole ladder, in order.
  ASSERT_GE(diag.events.size(), 3u);
  bool saw_retry = false, saw_fallback = false, saw_quarantine = false;
  for (const auto& event : diag.events) {
    if (event.action == "retry_ridge") saw_retry = true;
    if (event.action == "fallback_sequential") saw_fallback = true;
    if (event.action == "rerun_without_degenerate") saw_quarantine = true;
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_fallback);
  EXPECT_TRUE(saw_quarantine);
}

TEST_F(RecoveryTest, DisabledRecoveryFailsFast) {
  ASSERT_TRUE(ArmFaults(kFaultGlassoSweep).ok());
  FdxOptions options;
  options.recovery.enabled = false;
  auto result = FdxDiscoverer(options).Discover(FdTable());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNumericalError);
  EXPECT_NE(result.status().message().find("injected fault"),
            std::string::npos);
}

TEST_F(RecoveryTest, SequentialEstimatorFaultWithoutQuarantineCandidates) {
  // No degenerate attributes to quarantine: the error must surface.
  ASSERT_TRUE(ArmFaults(kFaultSeqLassoColumn).ok());
  FdxOptions options;
  options.estimator = StructureEstimator::kSequentialLasso;
  auto result = FdxDiscoverer(options).Discover(FdTable());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNumericalError);
}

TEST_F(RecoveryTest, UnarmedFaultBuildIsBitwiseDeterministic) {
  SyntheticConfig config;
  config.num_tuples = 1000;
  config.num_attributes = 8;
  config.seed = 21;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  FdxDiscoverer discoverer;
  auto baseline = discoverer.Discover(ds->noisy);
  ASSERT_TRUE(baseline.ok());

  // Arm a point that never fires, run, then disarm and run again: the
  // instrumentation must not perturb a single bit of the output.
  ASSERT_TRUE(ArmFaults(std::string(kFaultGlassoSweep) + ":999999").ok());
  auto armed = discoverer.Discover(ds->noisy);
  DisarmFaults();
  auto disarmed = discoverer.Discover(ds->noisy);
  ASSERT_TRUE(armed.ok());
  ASSERT_TRUE(disarmed.ok());

  for (const FdxResult* other : {&armed.value(), &disarmed.value()}) {
    ASSERT_EQ(other->fds.size(), baseline->fds.size());
    for (size_t f = 0; f < baseline->fds.size(); ++f) {
      EXPECT_EQ(other->fds[f].lhs, baseline->fds[f].lhs);
      EXPECT_EQ(other->fds[f].rhs, baseline->fds[f].rhs);
    }
    ASSERT_EQ(other->ordering, baseline->ordering);
    for (size_t i = 0; i < baseline->theta.rows(); ++i) {
      for (size_t j = 0; j < baseline->theta.cols(); ++j) {
        EXPECT_EQ(other->theta(i, j), baseline->theta(i, j));
        EXPECT_EQ(other->autoregression(i, j),
                  baseline->autoregression(i, j));
      }
    }
  }
}

TEST_F(RecoveryTest, TinyBudgetTimesOutQuickly) {
  FdxOptions options;
  options.time_budget_seconds = 1e-9;
  Stopwatch watch;
  auto result = FdxDiscoverer(options).Discover(FdTable(20000));
  EXPECT_LT(watch.ElapsedSeconds(), 5.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST_F(RecoveryTest, GlassoHonorsExpiredDeadline) {
  const Deadline deadline(1e-12);
  while (!deadline.Expired()) {
  }
  GlassoOptions options;
  options.deadline = &deadline;
  Matrix s = Matrix::Identity(4);
  s(0, 1) = s(1, 0) = 0.4;
  auto result = GraphicalLasso(s, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

TEST_F(RecoveryTest, RunnerReportsFdxTimeout) {
  RunnerConfig config;
  config.time_budget_seconds = 1e-9;
  RunOutcome outcome = RunMethod(MethodId::kFdx, FdTable(20000), config);
  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.timeout) << outcome.error;
}

TEST_F(RecoveryTest, RunnerCapturesInjectedFdxError) {
  ASSERT_TRUE(ArmFaults(kFaultGlassoSweep).ok());
  RunnerConfig config;
  config.fdx.recovery.enabled = false;
  RunOutcome outcome = RunMethod(MethodId::kFdx, FdTable(), config);
  EXPECT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.timeout);
  EXPECT_NE(outcome.error.find("injected fault"), std::string::npos);
}

TEST_F(RecoveryTest, DiagnosticsSerializeToJson) {
  ASSERT_TRUE(ArmFaults(std::string(kFaultGlassoSweep) + ":1").ok());
  auto result = FdxDiscoverer().Discover(FdTable());
  ASSERT_TRUE(result.ok());
  JsonWriter json;
  WriteRunDiagnosticsJson(&json, result->diagnostics, {"x", "y", "z"});
  const std::string out = json.TakeString();
  EXPECT_NE(out.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(out.find("\"glasso_attempts\":2"), std::string::npos);
  EXPECT_NE(out.find("retry_ridge"), std::string::npos);
}

}  // namespace
}  // namespace fdx
