// Durable fdxd sessions keep their rows only in a spilled chunk store:
// the session snapshot (written once, at open) holds no rows, the store
// manifest commits each append together with the session's content
// fingerprint, restarts replay the chunks to bit-identical results, and
// corrupted or inconsistent state is dropped loudly instead of revived
// wrong.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "service/server.h"
#include "util/file_io.h"
#include "util/json_parser.h"
#include "util/socket.h"

namespace fdx {
namespace {

/// One-shot request helper (connect, one line out, one line in).
Result<std::string> Request(uint16_t port, const std::string& line) {
  FDX_ASSIGN_OR_RETURN(Socket sock, Socket::ConnectLoopback(port));
  FDX_RETURN_IF_ERROR(sock.SendAll(line + "\n"));
  std::string response;
  FDX_RETURN_IF_ERROR(sock.ReadLine(&response));
  return response;
}

std::string RowsJson(int rows, int modulus, int offset = 0) {
  std::string json = "[";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) json += ",";
    const int a = (i + offset) % modulus;
    json += "[" + std::to_string(a) + "," + std::to_string(2 * a) + "," +
            std::to_string(i % 3) + "]";
  }
  return json + "]";
}

bool IsOk(const Result<std::string>& response) {
  if (!response.ok()) return false;
  auto parsed = JsonValue::Parse(*response);
  return parsed.ok() && parsed->BoolOr("ok", false);
}

class ChunkedSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    state_dir_ =
        ::testing::TempDir() + "fdx_store_state_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    (void)RemoveDirectoryRecursive(state_dir_);
  }

  void TearDown() override { (void)RemoveDirectoryRecursive(state_dir_); }

  ServerOptions DurableOptions() {
    ServerOptions options;
    options.state_dir = state_dir_;
    options.snapshot_interval_seconds = 60.0;  // no background spills mid-test
    return options;
  }

  std::string state_dir_;
};

TEST_F(ChunkedSessionTest, SnapshotReferencesStoreInsteadOfEmbeddingRows) {
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  auto open =
      Request(server.port(), R"({"op":"open","schema":["a","b","c"]})");
  ASSERT_TRUE(IsOk(open)) << *open;
  const std::string snapshot_path = state_dir_ + "/sessions/s-1.json";
  auto opened_snapshot = ReadFileToString(snapshot_path);
  ASSERT_TRUE(opened_snapshot.ok());
  auto append =
      Request(server.port(), R"({"op":"append","session":"s-1","rows":)" +
                                 RowsJson(24, 5) + "}");
  ASSERT_TRUE(IsOk(append)) << *append;

  // The chunk store holds the rows, and its manifest commits the
  // session's content fingerprint with them...
  auto manifest = ReadFileToString(state_dir_ + "/stores/s-1/manifest.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest->find("\"total_rows\":24"), std::string::npos)
      << *manifest;
  EXPECT_NE(manifest->find("\"label\":\""), std::string::npos) << *manifest;
  auto chunk = ReadFileToString(state_dir_ + "/stores/s-1/chunk-000000.bin");
  ASSERT_TRUE(chunk.ok());

  // ...and the session snapshot holds no rows and is not rewritten by
  // appends.
  auto snapshot = ReadFileToString(snapshot_path);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(*snapshot, *opened_snapshot);
  EXPECT_EQ(snapshot->find("\"batches\""), std::string::npos) << *snapshot;
  EXPECT_EQ(snapshot->find("\"storage\""), std::string::npos) << *snapshot;
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, RestartReplaysChunksBitIdentically) {
  std::string cold_response;
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    auto open =
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})");
    ASSERT_TRUE(IsOk(open)) << *open;
    // Mixed appends: rows and CSV (with a null and a type change).
    ASSERT_TRUE(IsOk(Request(server.port(),
                             R"({"op":"append","session":"s-1","rows":)" +
                                 RowsJson(24, 5) + "}")));
    ASSERT_TRUE(IsOk(Request(
        server.port(),
        R"({"op":"append","session":"s-1","csv":"0,0,0\n1,2,1\n2,4,2\n1.5,x,\n"})")));
    auto cold = Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(IsOk(cold)) << *cold;
    cold_response = *cold;
    server.Shutdown();
  }
  // Drop the spilled result cache: the restarted server must *recompute*
  // the same bytes from the replayed chunks, not just re-serve them.
  (void)RemoveFile(state_dir_ + "/cache.json");
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 1u);
    EXPECT_EQ(server.sessions_recovery_failed(), 0u);
    auto warm = Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(*warm, cold_response);
    // The restored session keeps accepting appends, and the store keeps
    // growing through them.
    auto append =
        Request(server.port(), R"({"op":"append","session":"s-1","rows":)" +
                                   RowsJson(8, 5) + "}");
    ASSERT_TRUE(IsOk(append)) << *append;
    EXPECT_DOUBLE_EQ(JsonValue::Parse(*append)->NumberOr("total_rows", 0), 36);
    auto manifest = ReadFileToString(state_dir_ + "/stores/s-1/manifest.json");
    ASSERT_TRUE(manifest.ok());
    EXPECT_NE(manifest->find("\"total_rows\":36"), std::string::npos)
        << *manifest;
    server.Shutdown();
  }
}

// Every keyed option survives a restart, the glasso solver included: a
// session opened with a forced solver restores with that solver and
// serves the bytes it served before.
TEST_F(ChunkedSessionTest, ForcedSolverSessionsSurviveRestart) {
  const std::vector<std::string> opens = {
      R"({"op":"open","schema":["a","b","c"],"options":{"solver":"newton"}})",
      R"({"op":"open","schema":["a","b","c"],"options":{"solver":"cd",)"
      R"("pooled_covariance":true}})"};
  std::vector<std::string> before;
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    for (size_t i = 0; i < opens.size(); ++i) {
      ASSERT_TRUE(IsOk(Request(server.port(), opens[i])));
      const std::string id = "s-" + std::to_string(i + 1);
      ASSERT_TRUE(IsOk(Request(server.port(),
                               R"({"op":"append","session":")" + id +
                                   R"(","rows":)" + RowsJson(40, 7) + "}")));
      auto discover = Request(server.port(),
                              R"({"op":"discover","session":")" + id + "\"}");
      ASSERT_TRUE(IsOk(discover)) << *discover;
      before.push_back(*discover);
    }
    server.Shutdown();
  }
  (void)RemoveFile(state_dir_ + "/cache.json");
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.sessions_recovered(), 2u);
  EXPECT_EQ(server.sessions_recovery_failed(), 0u);
  for (size_t i = 0; i < before.size(); ++i) {
    const std::string id = "s-" + std::to_string(i + 1);
    auto after = Request(server.port(),
                         R"({"op":"discover","session":")" + id + "\"}");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, before[i]) << id;
  }
  server.Shutdown();
}

// Subnormal doubles cross the store's dictionary deltas as exact
// decimal text; a restart must parse them back, not drop the session
// (and with it the acknowledged rows) as corrupt.
TEST_F(ChunkedSessionTest, SubnormalCellsSurviveRestart) {
  std::string cold_response;
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(IsOk(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
    ASSERT_TRUE(IsOk(Request(server.port(),
                             R"({"op":"append","session":"s-1","rows":)" +
                                 RowsJson(24, 5) + "}")));
    auto append = Request(server.port(),
                          R"({"op":"append","session":"s-1",)"
                          R"("csv":"1e-310,x,0\n2.5e-320,y,1\n"})");
    ASSERT_TRUE(IsOk(append)) << *append;
    auto cold = Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(IsOk(cold)) << *cold;
    cold_response = *cold;
    server.Shutdown();
  }
  (void)RemoveFile(state_dir_ + "/cache.json");
  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.sessions_recovered(), 1u);
  EXPECT_EQ(server.sessions_recovery_failed(), 0u);
  auto warm = Request(server.port(), R"({"op":"discover","session":"s-1"})");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm, cold_response);
  EXPECT_TRUE(ReadFileToString(state_dir_ + "/stores/s-1/manifest.json").ok());
  server.Shutdown();
}

TEST_F(ChunkedSessionTest, CorruptStoreIsDroppedOnRestart) {
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(IsOk(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
    ASSERT_TRUE(IsOk(Request(server.port(),
                             R"({"op":"append","session":"s-1","rows":)" +
                                 RowsJson(24, 5) + "}")));
    server.Shutdown();
  }
  // Flip a byte inside the chunk payload.
  const std::string victim = state_dir_ + "/stores/s-1/chunk-000000.bin";
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(40);
    f.write(&byte, 1);
  }
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 0u);
    EXPECT_EQ(server.sessions_recovery_failed(), 1u);
    // Consistent-or-absent: session gone, snapshot gone, store dir gone.
    auto discover =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(discover.ok());
    EXPECT_FALSE(JsonValue::Parse(*discover)->BoolOr("ok", true)) << *discover;
    EXPECT_FALSE(ReadFileToString(state_dir_ + "/sessions/s-1.json").ok());
    EXPECT_FALSE(ReadFileToString(victim).ok());
    server.Shutdown();
  }
}

/// Opens s-1 on a durable server and appends RowsJson(24, 5), then
/// RowsJson(12, 5, 2). `after_open` / `after_first_append` (may be null)
/// receive copies of the session snapshot and the store manifest taken
/// at those points; returns the discover response before shutdown.
std::string OpenAppendTwiceAndDiscover(const ServerOptions& options,
                                       const std::string& state_dir,
                                       std::string* after_open,
                                       std::string* after_first_append) {
  FdxServer server(options);
  EXPECT_TRUE(server.Start().ok());
  EXPECT_TRUE(IsOk(
      Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
  if (after_open != nullptr) {
    auto snapshot = ReadFileToString(state_dir + "/sessions/s-1.json");
    EXPECT_TRUE(snapshot.ok());
    if (snapshot.ok()) *after_open = *snapshot;
  }
  EXPECT_TRUE(IsOk(Request(server.port(),
                           R"({"op":"append","session":"s-1","rows":)" +
                               RowsJson(24, 5) + "}")));
  if (after_first_append != nullptr) {
    auto manifest = ReadFileToString(state_dir + "/stores/s-1/manifest.json");
    EXPECT_TRUE(manifest.ok());
    if (manifest.ok()) *after_first_append = *manifest;
  }
  EXPECT_TRUE(IsOk(Request(server.port(),
                           R"({"op":"append","session":"s-1","rows":)" +
                               RowsJson(12, 5, 2) + "}")));
  auto discover =
      Request(server.port(), R"({"op":"discover","session":"s-1"})");
  EXPECT_TRUE(IsOk(discover));
  server.Shutdown();
  return discover.ok() ? *discover : "";
}

// The manifest, not the session snapshot, is the per-append commit
// point: a snapshot rolled back to its post-open copy (the state a crash
// between two commit points would leave if the snapshot were one)
// changes nothing about what the restart recovers.
TEST_F(ChunkedSessionTest, SnapshotRollbackKeepsAcknowledgedBatches) {
  std::string after_open;
  const std::string cold = OpenAppendTwiceAndDiscover(
      DurableOptions(), state_dir_, &after_open, nullptr);
  ASSERT_FALSE(cold.empty());
  ASSERT_TRUE(
      WriteFileAtomic(state_dir_ + "/sessions/s-1.json", after_open).ok());
  (void)RemoveFile(state_dir_ + "/cache.json");  // force a re-solve

  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.sessions_recovered(), 1u);
  EXPECT_EQ(server.sessions_recovery_failed(), 0u);
  auto warm = Request(server.port(), R"({"op":"discover","session":"s-1"})");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(*warm, cold);
  server.Shutdown();
}

// A manifest rolled back to an earlier commit (a crash after the second
// chunk file landed but before its manifest write) recovers the session
// exactly as it was at that commit, and it keeps accepting appends that
// survive further restarts.
TEST_F(ChunkedSessionTest, ManifestRollbackRecoversAtCommittedBatch) {
  std::string first_commit;
  OpenAppendTwiceAndDiscover(DurableOptions(), state_dir_, nullptr,
                             &first_commit);
  ASSERT_TRUE(WriteFileAtomic(state_dir_ + "/stores/s-1/manifest.json",
                              first_commit)
                  .ok());
  (void)RemoveFile(state_dir_ + "/cache.json");

  // Reference: a non-durable session fed batch 1 and the new batch.
  std::string reference;
  {
    FdxServer server{ServerOptions{}};
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(IsOk(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
    for (const std::string& rows : {RowsJson(24, 5), RowsJson(8, 5, 1)}) {
      ASSERT_TRUE(IsOk(Request(
          server.port(),
          R"({"op":"append","session":"s-1","rows":)" + rows + "}")));
    }
    auto discover =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(IsOk(discover));
    reference = *discover;
    server.Shutdown();
  }

  std::string recovered;
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 1u);
    EXPECT_EQ(server.sessions_recovery_failed(), 0u);
    auto append =
        Request(server.port(), R"({"op":"append","session":"s-1","rows":)" +
                                   RowsJson(8, 5, 1) + "}");
    ASSERT_TRUE(IsOk(append)) << *append;
    // Batch 1 (24 rows) was recovered; batch 2 was not.
    EXPECT_DOUBLE_EQ(JsonValue::Parse(*append)->NumberOr("total_rows", 0), 32);
    EXPECT_DOUBLE_EQ(JsonValue::Parse(*append)->NumberOr("batches", 0), 2);
    auto discover =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(IsOk(discover));
    recovered = *discover;
    EXPECT_EQ(recovered, reference);
    server.Shutdown();
  }
  (void)RemoveFile(state_dir_ + "/cache.json");
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.sessions_recovered(), 1u);
    EXPECT_EQ(server.sessions_recovery_failed(), 0u);
    auto discover =
        Request(server.port(), R"({"op":"discover","session":"s-1"})");
    ASSERT_TRUE(discover.ok());
    EXPECT_EQ(*discover, recovered);
    server.Shutdown();
  }
}

TEST_F(ChunkedSessionTest, TamperedManifestLabelDropsSession) {
  OpenAppendTwiceAndDiscover(DurableOptions(), state_dir_, nullptr, nullptr);
  const std::string manifest_path = state_dir_ + "/stores/s-1/manifest.json";
  auto manifest = ReadFileToString(manifest_path);
  ASSERT_TRUE(manifest.ok());
  const size_t at = manifest->find("\"label\":\"");
  ASSERT_NE(at, std::string::npos) << *manifest;
  std::string tampered = *manifest;
  char& digit = tampered[at + 9];
  digit = digit == '0' ? '1' : '0';
  ASSERT_TRUE(WriteFileAtomic(manifest_path, tampered).ok());

  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.sessions_recovered(), 0u);
  EXPECT_EQ(server.sessions_recovery_failed(), 1u);
  auto discover =
      Request(server.port(), R"({"op":"discover","session":"s-1"})");
  ASSERT_TRUE(discover.ok());
  EXPECT_FALSE(JsonValue::Parse(*discover)->BoolOr("ok", true)) << *discover;
  EXPECT_FALSE(ReadFileToString(state_dir_ + "/sessions/s-1.json").ok());
  EXPECT_FALSE(ReadFileToString(manifest_path).ok());
  server.Shutdown();
}

// Older snapshot versions are not read: version 1 embedded the rows as
// JSON cells, version 2 kept a JSON copy of every option. Such a file is
// dropped and counted, its version named in the log line, its store
// swept, and the remaining sessions still restore.
TEST_F(ChunkedSessionTest, VersionOneSnapshotIsDroppedAndCounted) {
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(IsOk(
          Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
    }
    ASSERT_TRUE(IsOk(Request(server.port(),
                             R"({"op":"append","session":"s-3","rows":)" +
                                 RowsJson(24, 5) + "}")));
    server.Shutdown();
  }
  // Rewrite s-1 in the version 1 layout (the content fingerprint and
  // the embedded typed-cell batches) and s-2 in the version 2 layout
  // (the options as a JSON object next to their key).
  const auto rewrite = [this](const std::string& id, int version,
                              const std::string& extra) {
    const std::string path = state_dir_ + "/sessions/" + id + ".json";
    auto current = ReadFileToString(path);
    ASSERT_TRUE(current.ok());
    std::string old = *current;
    const size_t version_at = old.find("\"version\":3");
    ASSERT_NE(version_at, std::string::npos) << old;
    old.replace(version_at, 11, "\"version\":" + std::to_string(version));
    old.pop_back();  // trailing '}'
    old += extra + "}";
    ASSERT_TRUE(WriteFileAtomic(path, old).ok());
  };
  rewrite("s-1", 1,
          R"(,"content":"00","batches":[[[["i","1"],["i","2"],["s","x"]]]])");
  rewrite("s-2", 2, R"(,"options":{"estimator":"glasso","lambda":"0.06"})");

  FdxServer server(DurableOptions());
  ::testing::internal::CaptureStderr();
  const Status started = server.Start();
  const std::string log = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_EQ(server.sessions_recovered(), 1u);
  EXPECT_EQ(server.sessions_recovery_failed(), 2u);
  for (const char* id : {"s-1", "s-2"}) {
    EXPECT_FALSE(
        ReadFileToString(state_dir_ + "/sessions/" + id + ".json").ok());
    EXPECT_FALSE(
        ReadFileToString(state_dir_ + "/stores/" + id + "/manifest.json")
            .ok());
  }
  EXPECT_NE(log.find("unsupported version 1"), std::string::npos) << log;
  EXPECT_NE(log.find("unsupported version 2"), std::string::npos) << log;
  auto append =
      Request(server.port(), R"({"op":"append","session":"s-3","rows":)" +
                                 RowsJson(8, 5) + "}");
  ASSERT_TRUE(IsOk(append)) << *append;
  EXPECT_DOUBLE_EQ(JsonValue::Parse(*append)->NumberOr("total_rows", 0), 32);
  server.Shutdown();
}

// A store directory with no session snapshot — left by a crash between
// creating a session's store and writing its snapshot, or between an
// eviction's two removals — is deleted at startup; owned stores stay.
TEST_F(ChunkedSessionTest, OrphanStoreIsSweptAtStartup) {
  {
    FdxServer server(DurableOptions());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(IsOk(
        Request(server.port(), R"({"op":"open","schema":["a","b","c"]})")));
    ASSERT_TRUE(IsOk(Request(server.port(),
                             R"({"op":"append","session":"s-1","rows":)" +
                                 RowsJson(24, 5) + "}")));
    server.Shutdown();
  }
  const std::string orphan = state_dir_ + "/stores/s-9";
  ASSERT_TRUE(EnsureDirectory(orphan).ok());
  ASSERT_TRUE(WriteFileAtomic(orphan + "/manifest.json", "{}").ok());

  FdxServer server(DurableOptions());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.sessions_recovered(), 1u);
  EXPECT_EQ(server.sessions_recovery_failed(), 0u);
  auto stores = ListDirectory(state_dir_ + "/stores",
                              DirectoryEntries::kDirectories);
  ASSERT_TRUE(stores.ok());
  EXPECT_EQ(*stores, std::vector<std::string>{"s-1"});
  server.Shutdown();
}

}  // namespace
}  // namespace fdx
