// The fast out-of-core I/O layer: mmap-backed chunk reads (with pread
// as the bit-identical fallback when a map fails), the `store.mmap` /
// `store.decompress` fault points, and the varint chunk codec. The
// contract under test: mapped and fallback reads of every codec produce
// the same bytes, compressed stores fingerprint identically to raw
// ones, and every corruption mode fails loudly with kIOError on both
// read paths.
#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "data/table.h"
#include "store/chunk_codec.h"
#include "store/chunked_table.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/mmap_file.h"

namespace fdx {
namespace {

std::string FreshDir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + "fdx_store_io_" + tag + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  (void)RemoveDirectoryRecursive(dir);
  return dir;
}

/// Mixed-type rows with repeats, nulls, negative ints (zigzag corner)
/// and growing dictionaries, so varint deltas are both positive and
/// negative across chunks.
Table IoTable(size_t rows) {
  Table table{Schema({"a", "b", "c"})};
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row(3);
    row[0] = Value(static_cast<int64_t>(r % 29) - 14);
    row[1] = r % 13 == 0 ? Value::Null()
                         : Value("v" + std::to_string((r * 7) % 17));
    row[2] = Value(static_cast<double>(r % 5) * 0.5);
    table.AppendRow(std::move(row));
  }
  return table;
}

void AppendInChunks(const Table& table, size_t chunk_rows,
                    ChunkedTable* store) {
  for (size_t lo = 0; lo < table.num_rows(); lo += chunk_rows) {
    const size_t hi = std::min(table.num_rows(), lo + chunk_rows);
    Table batch{table.schema()};
    std::vector<Value> row(table.num_columns());
    for (size_t r = lo; r < hi; ++r) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        row[c] = table.cell(r, c);
      }
      batch.AppendRow(row);
    }
    ASSERT_TRUE(store->AppendBatch(batch).ok());
  }
}

std::vector<std::vector<int32_t>> AllCodes(const ChunkedTable& store) {
  std::vector<std::vector<int32_t>> codes(store.num_columns());
  for (size_t c = 0; c < store.num_columns(); ++c) {
    EXPECT_TRUE(store.ReadColumnCodes(c, &codes[c]).ok());
  }
  return codes;
}

/// On-disk footprint of a spilled store: manifest plus chunk files.
uint64_t StoreBytes(const std::string& dir) {
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  uint64_t total = 0;
  for (const std::string& name : names.value()) {
    auto contents = ReadFileToString(dir + "/" + name);
    EXPECT_TRUE(contents.ok()) << name;
    total += contents.value().size();
  }
  return total;
}

TEST(MmapFileTest, MapsReadsAndReleases) {
  const std::string dir = FreshDir("mmap");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string path = dir + "/blob.bin";
  std::string contents;
  for (int i = 0; i < 10000; ++i) contents += static_cast<char>(i % 251);
  ASSERT_TRUE(WriteFileAtomic(path, contents).ok());

  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value().mapped());
  ASSERT_EQ(file.value().size(), contents.size());
  EXPECT_EQ(std::string(file.value().data(), file.value().size()), contents);
  // Touched every byte above, so some pages must be resident; dropping
  // them is advisory but must never report more resident than the
  // page-rounded mapping.
  EXPECT_GT(file.value().ResidentBytes(), 0u);
  file.value().AdviseDontNeed(0, file.value().size());
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  EXPECT_LE(file.value().ResidentBytes(),
            (file.value().size() + page - 1) / page * page);

  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

// Column slices of a spilled chunk start and end mid-page (32-byte
// header, rows * 4-byte slices). Once every column has been read, no
// page of any chunk mapping may stay mapped: pages straddling two
// slices are released along with the slice that finishes them.
TEST(StoreIoTest, ReadingEveryColumnLeavesNoPageMapped) {
  const std::string dir = FreshDir("residency");
  const Table table = IoTable(9000);
  {
    auto store = ChunkedTable::Create(table.schema(), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 3001, &store.value());
  }
  auto store = ChunkedTable::Open(dir);
  ASSERT_TRUE(store.ok()) << store.status().message();
  ASSERT_EQ(store.value().num_chunks(), 3u);
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  ASSERT_NE(3001 * 4 % page, 0u);
  const auto codes = AllCodes(store.value());
  EXPECT_EQ(store.value().mmap_fallbacks(), 0u);
  EXPECT_EQ(store.value().MappedResidentBytes(), 0u);
  const EncodedTable encoded = EncodedTable::Encode(table);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EXPECT_EQ(codes[c], encoded.column_codes(c)) << "col " << c;
  }
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(MmapFileTest, EmptyFileAndMissingFile) {
  const std::string dir = FreshDir("mmap_edge");
  ASSERT_TRUE(EnsureDirectory(dir).ok());
  const std::string empty = dir + "/empty.bin";
  ASSERT_TRUE(WriteFileAtomic(empty, "").ok());
  auto mapped = MmapFile::Open(empty);
  ASSERT_TRUE(mapped.ok());
  EXPECT_FALSE(mapped.value().mapped());
  EXPECT_EQ(mapped.value().size(), 0u);
  EXPECT_EQ(mapped.value().ResidentBytes(), 0u);

  EXPECT_FALSE(MmapFile::Open(dir + "/nope.bin").ok());
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, MmapAndReadPathsAreBitIdentical) {
  const std::string dir = FreshDir("modes");
  const Table table = IoTable(200);
  {
    auto store = ChunkedTable::Create(table.schema(), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 23, &store.value());
  }
  // Two reopened copies of one store: the first maps every chunk, the
  // second has every map failed by the `store.mmap` fault point and so
  // reads every chunk through the pread fallback.
  const auto read_all = [](const ChunkedTable& store,
                           std::vector<std::vector<int32_t>>* codes,
                           std::vector<Table>* chunks) {
    *codes = AllCodes(store);
    for (size_t chunk = 0; chunk < store.num_chunks(); ++chunk) {
      auto values = store.ReadChunkValues(chunk);
      ASSERT_TRUE(values.ok()) << values.status().message();
      chunks->push_back(std::move(values).value());
    }
  };
  auto via_mmap = ChunkedTable::Open(dir);
  ASSERT_TRUE(via_mmap.ok());
  std::vector<std::vector<int32_t>> mmap_codes;
  std::vector<Table> mmap_chunks;
  read_all(via_mmap.value(), &mmap_codes, &mmap_chunks);

  ASSERT_TRUE(ArmFaults(std::string(kFaultStoreMmap)).ok());
  auto via_read = ChunkedTable::Open(dir);
  std::vector<std::vector<int32_t>> read_codes;
  std::vector<Table> read_chunks;
  if (via_read.ok()) read_all(via_read.value(), &read_codes, &read_chunks);
  DisarmFaults();
  ASSERT_TRUE(via_read.ok());

  EXPECT_EQ(via_mmap.value().mmap_fallbacks(), 0u);
  EXPECT_EQ(via_read.value().mmap_fallbacks(), via_read.value().num_chunks());
  EXPECT_EQ(mmap_codes, read_codes);
  ASSERT_EQ(mmap_chunks.size(), read_chunks.size());
  for (size_t chunk = 0; chunk < mmap_chunks.size(); ++chunk) {
    const Table& a = mmap_chunks[chunk];
    const Table& b = read_chunks[chunk];
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_columns(); ++c) {
        EXPECT_TRUE(a.cell(r, c).is_null()
                        ? b.cell(r, c).is_null()
                        : a.cell(r, c).EqualsStrict(b.cell(r, c)))
            << "chunk " << chunk << " row " << r << " col " << c;
      }
    }
  }
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, MmapFaultFallsBackToReadPath) {
  for (const char* codec : {"", "varint"}) {
    const std::string dir =
        FreshDir(std::string("fallback_") + (codec[0] == '\0' ? "raw" : codec));
    const Table table = IoTable(90);
    {
      auto store = ChunkedTable::Create(table.schema(), dir, codec);
      ASSERT_TRUE(store.ok());
      AppendInChunks(table, 30, &store.value());
    }
    // Armed across open *and* the column reads: Open establishes each
    // chunk's I/O state, and no column read may map a chunk either.
    ASSERT_TRUE(ArmFaults(std::string(kFaultStoreMmap)).ok());
    auto store = ChunkedTable::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().message();
    const EncodedTable encoded = EncodedTable::Encode(table);
    const auto codes = AllCodes(store.value());
    DisarmFaults();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(codes[c], encoded.column_codes(c)) << "col " << c;
    }
    // Every chunk's map attempt failed; all of them fell back to pread
    // and the store still served identical bytes.
    EXPECT_EQ(store.value().mmap_fallbacks(), store.value().num_chunks());
    EXPECT_EQ(store.value().MappedResidentBytes(), 0u);
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, VarintStoreFingerprintsMatchRawStore) {
  const std::string raw_dir = FreshDir("raw");
  const std::string var_dir = FreshDir("var");
  const Table table = IoTable(150);
  auto raw = ChunkedTable::Create(table.schema(), raw_dir);
  auto var = ChunkedTable::Create(table.schema(), var_dir, "varint");
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(var.ok());
  EXPECT_EQ(raw.value().codec(), "none");
  EXPECT_EQ(var.value().codec(), "varint");
  AppendInChunks(table, 31, &raw.value());
  AppendInChunks(table, 31, &var.value());

  // Fingerprints cover the uncompressed serialization, so the two
  // stores are fingerprint-identical even though the varint one is
  // smaller on disk.
  EXPECT_LT(StoreBytes(var_dir), StoreBytes(raw_dir));
  ASSERT_EQ(raw.value().num_chunks(), var.value().num_chunks());
  for (size_t i = 0; i < raw.value().num_chunks(); ++i) {
    EXPECT_EQ(raw.value().ChunkFingerprintHex(i),
              var.value().ChunkFingerprintHex(i))
        << "chunk " << i;
  }
  EXPECT_EQ(AllCodes(raw.value()), AllCodes(var.value()));

  // The codec is recorded in the manifest and survives reopen.
  auto manifest = ReadFileToString(var_dir + "/manifest.json");
  ASSERT_TRUE(manifest.ok());
  EXPECT_NE(manifest.value().find("\"varint\""), std::string::npos);
  auto reopened = ChunkedTable::Open(var_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().codec(), "varint");
  EXPECT_EQ(AllCodes(reopened.value()), AllCodes(raw.value()));

  ASSERT_TRUE(RemoveDirectoryRecursive(raw_dir).ok());
  ASSERT_TRUE(RemoveDirectoryRecursive(var_dir).ok());
}

TEST(StoreIoTest, CompressedRoundTripAtExtremeChunkSizes) {
  const Table table = IoTable(97);
  const EncodedTable encoded = EncodedTable::Encode(table);
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{65536}}) {
    const std::string dir = FreshDir("sz" + std::to_string(chunk_rows));
    auto store = ChunkedTable::Create(table.schema(), dir, "varint");
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, chunk_rows, &store.value());
    auto reopened = ChunkedTable::Open(dir);
    ASSERT_TRUE(reopened.ok()) << chunk_rows << ": "
                               << reopened.status().message();
    const auto codes = AllCodes(reopened.value());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(codes[c], encoded.column_codes(c))
          << "chunk_rows " << chunk_rows << " col " << c;
    }
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, UnknownCodecRejected) {
  auto store = ChunkedTable::Create(Schema({"a"}), "", "zstd");
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().message().find("unknown chunk codec"),
            std::string::npos);
}

TEST(StoreIoTest, DecompressFaultSurfacesLoudly) {
  const std::string dir = FreshDir("decomp_fault");
  const Table table = IoTable(60);
  {
    auto store = ChunkedTable::Create(table.schema(), dir, "varint");
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 30, &store.value());
  }
  auto store = ChunkedTable::Open(dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(ArmFaults(std::string(kFaultStoreDecompress) + ":1").ok());
  std::vector<int32_t> codes;
  const Status read = store.value().ReadColumnCodes(0, &codes);
  DisarmFaults();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kIOError);
  EXPECT_NE(read.message().find("decompression failed"), std::string::npos);
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, TruncatedCompressedChunkRejected) {
  const std::string dir = FreshDir("truncated");
  {
    auto store = ChunkedTable::Create(IoTable(1).schema(), dir, "varint");
    ASSERT_TRUE(store.ok());
    AppendInChunks(IoTable(80), 80, &store.value());
  }
  const std::string victim = dir + "/chunk-000000.bin";
  auto original = ReadFileToString(victim);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(
      WriteFileAtomic(victim, original.value().substr(0, 40)).ok());
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError);
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, CorruptCompressedChunkRejected) {
  for (bool fallback : {false, true}) {
    const std::string dir = FreshDir(fallback ? "cor_r" : "cor_m");
    {
      auto store = ChunkedTable::Create(IoTable(1).schema(), dir, "varint");
      ASSERT_TRUE(store.ok());
      AppendInChunks(IoTable(80), 40, &store.value());
    }
    // Flip a byte inside the first column's compressed payload (past the
    // 32-byte header and the 3-entry size table).
    const std::string victim = dir + "/chunk-000000.bin";
    auto contents = ReadFileToString(victim);
    ASSERT_TRUE(contents.ok());
    ASSERT_GT(contents.value().size(), 70u);
    contents.value()[62] = static_cast<char>(contents.value()[62] ^ 0x5a);
    ASSERT_TRUE(WriteFileAtomic(victim, contents.value()).ok());
    if (fallback) {
      ASSERT_TRUE(ArmFaults(std::string(kFaultStoreMmap)).ok());
    }
    auto reopened = ChunkedTable::Open(dir);
    DisarmFaults();
    // Either the varint decoder rejects the mangled stream or the
    // reconstructed payload fails fingerprint verification — both are
    // loud kIOError, never silently different data.
    ASSERT_FALSE(reopened.ok()) << (fallback ? "pread" : "mmap");
    EXPECT_EQ(reopened.status().code(), StatusCode::kIOError);
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, CorruptRawChunkRejectedOnOpen) {
  // Open() fingerprints every chunk's whole file before replaying its
  // dictionary delta, so a flipped code byte never gets past it.
  const std::string dir = FreshDir("cor_raw_open");
  {
    auto store = ChunkedTable::Create(IoTable(1).schema(), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(IoTable(60), 30, &store.value());
  }
  const std::string victim = dir + "/chunk-000000.bin";
  auto contents = ReadFileToString(victim);
  ASSERT_TRUE(contents.ok());
  contents.value()[40] = static_cast<char>(contents.value()[40] ^ 0x5a);
  ASSERT_TRUE(WriteFileAtomic(victim, contents.value()).ok());
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError);
  EXPECT_NE(reopened.status().message().find("fingerprint mismatch"),
            std::string::npos);
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, CorruptChunkRejectedOnFirstColumnReadOnBothPaths) {
  // A chunk rewritten under a live store (no reopen, so Open's check
  // never runs) with a code that is still in range: only the first-touch
  // fingerprint check can catch it, and it must on the mapped path and
  // on the pread fallback alike.
  for (bool fallback : {false, true}) {
    const std::string dir = FreshDir(fallback ? "touch_r" : "touch_m");
    auto store = ChunkedTable::Create(IoTable(1).schema(), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(IoTable(40), 40, &store.value());
    const std::string victim = dir + "/chunk-000000.bin";
    auto contents = ReadFileToString(victim);
    ASSERT_TRUE(contents.ok());
    // Byte 32 is the low byte of column 0's first storage code (past the
    // 32-byte header); 0 -> 1 names the column's second value.
    ASSERT_EQ(contents.value()[32], 0);
    contents.value()[32] = 1;
    ASSERT_TRUE(WriteFileAtomic(victim, contents.value()).ok());

    if (fallback) {
      ASSERT_TRUE(ArmFaults(std::string(kFaultStoreMmap)).ok());
    }
    std::vector<int32_t> codes;
    const Status read = store.value().ReadColumnCodes(0, &codes);
    DisarmFaults();
    ASSERT_FALSE(read.ok()) << (fallback ? "pread" : "mmap")
                            << ": first code " << codes.at(0);
    EXPECT_EQ(read.code(), StatusCode::kIOError);
    EXPECT_NE(read.message().find("fingerprint mismatch"), std::string::npos)
        << read.message();
    EXPECT_EQ(store.value().mmap_fallbacks(), fallback ? 1u : 0u);
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

// ReadColumnCodes decodes a column's chunks in parallel. Whatever the
// thread count, a read with several bad chunks must report the lowest
// one, and first touches racing on the same chunks must open each chunk
// once.

constexpr size_t kParallelChunks = 10;
constexpr size_t kParallelChunkRows = 50;
const size_t kReadThreads[] = {1, 2, 4, 8};

/// A spilled raw store of kParallelChunks chunks, still open (so Open's
/// own verification never runs on what the caller then corrupts).
ChunkedTable TenChunkStore(const std::string& dir) {
  auto store = ChunkedTable::Create(IoTable(1).schema(), dir);
  EXPECT_TRUE(store.ok());
  AppendInChunks(IoTable(kParallelChunks * kParallelChunkRows),
                 kParallelChunkRows, &store.value());
  EXPECT_EQ(store.value().num_chunks(), kParallelChunks);
  return std::move(store).value();
}

std::string ChunkPath(const std::string& dir, size_t chunk) {
  char name[32];
  std::snprintf(name, sizeof(name), "/chunk-%06zu.bin", chunk);
  return dir + name;
}

/// Overwrites 4 bytes of a chunk file in place (same inode, so a live
/// mapping of the chunk sees them once its pages fault back in).
void PatchInPlace(const std::string& path, size_t offset, int32_t value) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0) << path;
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>(static_cast<uint32_t>(value) >> (8 * i));
  }
  ASSERT_EQ(::pwrite(fd, bytes, 4, static_cast<off_t>(offset)), 4);
  ::close(fd);
}

TEST(StoreIoTest, ParallelDecodeReportsLowestFailingChunkOnFingerprint) {
  for (bool fallback : {false, true}) {
    const std::string dir = FreshDir(fallback ? "low_fp_r" : "low_fp_m");
    ChunkedTable store = TenChunkStore(dir);
    // Byte 32 is the low byte of column 0's first storage code; bumping
    // it keeps the code in range, so only the first-touch fingerprint
    // check can catch it.
    for (size_t chunk : {size_t{3}, size_t{7}}) {
      auto contents = ReadFileToString(ChunkPath(dir, chunk));
      ASSERT_TRUE(contents.ok());
      contents.value()[32] = static_cast<char>(contents.value()[32] ^ 1);
      ASSERT_TRUE(
          WriteFileAtomic(ChunkPath(dir, chunk), contents.value()).ok());
    }
    // A failed first touch publishes nothing, so every read retries it.
    for (size_t threads : kReadThreads) {
      if (fallback) {
        ASSERT_TRUE(ArmFaults(std::string(kFaultStoreMmap)).ok());
      }
      std::vector<int32_t> codes;
      const Status read = store.ReadColumnCodes(0, &codes, threads);
      DisarmFaults();
      ASSERT_FALSE(read.ok()) << threads;
      EXPECT_EQ(read.code(), StatusCode::kIOError);
      EXPECT_NE(read.message().find("chunk-000003.bin' fingerprint mismatch"),
                std::string::npos)
          << threads << " threads: " << read.message();
    }
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, ParallelDecodeReportsLowestFailingChunkOnCodeRange) {
  for (bool fallback : {false, true}) {
    const std::string dir = FreshDir(fallback ? "low_rng_r" : "low_rng_m");
    ChunkedTable store = TenChunkStore(dir);
    // Verify every chunk first, then corrupt codes in place: the file
    // is trusted now, so the code-range check is what must catch them.
    if (fallback) {
      ASSERT_TRUE(ArmFaults(std::string(kFaultStoreMmap)).ok());
    }
    std::vector<int32_t> codes;
    const Status clean = store.ReadColumnCodes(0, &codes);
    DisarmFaults();
    ASSERT_TRUE(clean.ok()) << clean.message();
    EXPECT_EQ(store.mmap_fallbacks(), fallback ? kParallelChunks : 0u);
    PatchInPlace(ChunkPath(dir, 7), 32 + 5 * 4, -7);
    PatchInPlace(ChunkPath(dir, 3), 32 + 9 * 4, 1 << 20);
    for (size_t threads : kReadThreads) {
      const Status read = store.ReadColumnCodes(0, &codes, threads);
      ASSERT_FALSE(read.ok()) << threads;
      EXPECT_EQ(read.code(), StatusCode::kIOError);
      EXPECT_EQ(read.message(),
                "store: chunk 'chunk-000003.bin' column 0 has out-of-range "
                "code 1048576")
          << threads << " threads";
    }
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, ConcurrentFirstTouchesFallBackOncePerChunk) {
  const std::string dir = FreshDir("race");
  const Table table = IoTable(kParallelChunks * kParallelChunkRows);
  ChunkedTable store = TenChunkStore(dir);
  const EncodedTable encoded = EncodedTable::Encode(table);
  // Chunks this store appended get their I/O state on first touch, so
  // every reader below races to first-touch all ten chunks.
  ASSERT_TRUE(ArmFaults(std::string(kFaultStoreMmap)).ok());
  std::vector<std::vector<int32_t>> codes(8);
  std::vector<Status> reads(codes.size());
  std::vector<std::thread> readers;
  for (size_t i = 0; i < codes.size(); ++i) {
    readers.emplace_back([&, i] {
      reads[i] = store.ReadColumnCodes(i % table.num_columns(), &codes[i],
                                       kReadThreads[i % 4]);
    });
  }
  for (std::thread& reader : readers) reader.join();
  DisarmFaults();
  for (size_t i = 0; i < codes.size(); ++i) {
    ASSERT_TRUE(reads[i].ok()) << reads[i].message();
    EXPECT_EQ(codes[i], encoded.column_codes(i % table.num_columns()));
  }
  EXPECT_EQ(store.mmap_fallbacks(), kParallelChunks);
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

// A reopened store establishes (maps or opens, and fingerprints) every
// chunk inside Open, once: no later column or value read builds a
// chunk's I/O state again. With the `store.mmap` fault point armed,
// every establishment counts one fallback, so the count pins it.
TEST(StoreIoTest, ReopenedStoreEstablishesEachChunkOnce) {
  const Table table = IoTable(kParallelChunks * kParallelChunkRows);
  const EncodedTable encoded = EncodedTable::Encode(table);
  for (const char* codec : {"", "varint"}) {
    const std::string dir =
        FreshDir(std::string("once_") + (codec[0] == '\0' ? "raw" : codec));
    {
      auto store = ChunkedTable::Create(table.schema(), dir, codec);
      ASSERT_TRUE(store.ok());
      AppendInChunks(table, kParallelChunkRows, &store.value());
    }
    ASSERT_TRUE(ArmFaults(std::string(kFaultStoreMmap)).ok());
    auto store = ChunkedTable::Open(dir);
    ASSERT_TRUE(store.ok()) << codec << ": " << store.status().message();
    ASSERT_EQ(store.value().num_chunks(), kParallelChunks);
    EXPECT_EQ(store.value().mmap_fallbacks(), kParallelChunks) << codec;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        std::vector<int32_t> codes;
        ASSERT_TRUE(store.value().ReadColumnCodes(c, &codes, threads).ok());
        EXPECT_EQ(codes, encoded.column_codes(c))
            << codec << " col " << c << " x" << threads;
      }
    }
    for (size_t chunk = 0; chunk < kParallelChunks; ++chunk) {
      auto values = store.value().ReadChunkValues(chunk);
      ASSERT_TRUE(values.ok()) << values.status().message();
      EXPECT_EQ(values.value().num_rows(), kParallelChunkRows);
    }
    DisarmFaults();
    EXPECT_EQ(store.value().mmap_fallbacks(), kParallelChunks) << codec;
    ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
  }
}

TEST(StoreIoTest, DecompressFaultSurfacesAtEveryThreadCount) {
  const std::string dir = FreshDir("decomp_threads");
  {
    auto store = ChunkedTable::Create(IoTable(1).schema(), dir, "varint");
    ASSERT_TRUE(store.ok());
    AppendInChunks(IoTable(kParallelChunks * kParallelChunkRows),
                   kParallelChunkRows, &store.value());
  }
  auto store = ChunkedTable::Open(dir);
  ASSERT_TRUE(store.ok());
  for (const char* schedule : {":1", ":6", ""}) {
    for (size_t threads : kReadThreads) {
      ASSERT_TRUE(
          ArmFaults(std::string(kFaultStoreDecompress) + schedule).ok());
      std::vector<int32_t> codes;
      const Status read = store.value().ReadColumnCodes(1, &codes, threads);
      DisarmFaults();
      ASSERT_FALSE(read.ok()) << schedule << " x" << threads;
      EXPECT_EQ(read.code(), StatusCode::kIOError);
      EXPECT_NE(read.message().find("decompression failed"),
                std::string::npos)
          << read.message();
    }
  }
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreIoTest, VarintCodecLookup) {
  auto none = FindChunkCodec("none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), nullptr);
  auto blank = FindChunkCodec("");
  ASSERT_TRUE(blank.ok());
  EXPECT_EQ(blank.value(), nullptr);
  auto varint = FindChunkCodec("varint");
  ASSERT_TRUE(varint.ok());
  ASSERT_NE(varint.value(), nullptr);
  EXPECT_STREQ(varint.value()->name(), "varint");

  // Strict decode: truncated and over-long streams are kIOError.
  const std::vector<int32_t> codes = {0, 5, -3, 1 << 30, 0, 42};
  std::string payload;
  varint.value()->EncodeColumn(codes.data(), codes.size(), &payload);
  std::vector<int32_t> out(codes.size());
  ASSERT_TRUE(varint.value()
                  ->DecodeColumn(payload.data(), payload.size(), codes.size(),
                                 out.data())
                  .ok());
  EXPECT_EQ(out, codes);
  EXPECT_EQ(varint.value()
                ->DecodeColumn(payload.data(), payload.size() - 1,
                               codes.size(), out.data())
                .code(),
            StatusCode::kIOError);
  const std::string padded = payload + '\0';
  EXPECT_EQ(varint.value()
                ->DecodeColumn(padded.data(), padded.size(), codes.size(),
                               out.data())
                .code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace fdx
