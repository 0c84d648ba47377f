#include "store/chunked_table.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

#include "store/chunk_codec.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/fingerprint.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/mmap_file.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fdx {
namespace {

constexpr char kChunkMagic[8] = {'F', 'D', 'X', 'C', 'H', 'N', 'K', '1'};
/// Compressed chunk: same u64 header, then a u64 per-column
/// compressed-size table, then the codec payloads, then the dict delta.
constexpr char kChunkMagicV2[8] = {'F', 'D', 'X', 'C', 'H', 'N', 'K', '2'};
constexpr size_t kChunkHeaderBytes = 8 + 3 * 8;  // magic + rows/cols/dict_bytes
constexpr int kManifestVersion = 1;
/// Bytes of a raw chunk hashed between page drops when it is verified.
constexpr uint64_t kVerifyWindowBytes = uint64_t{1} << 20;

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint64_t ReadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void WriteI32(char* p, int32_t v) {
  const uint32_t u = static_cast<uint32_t>(v);
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>(u >> (8 * i));
}

void AppendI32(std::string* out, int32_t v) {
  const uint32_t u = static_cast<uint32_t>(v);
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(u >> (8 * i)));
}

int32_t ReadI32(const char* p) {
  uint32_t u = 0;
  for (int i = 0; i < 4; ++i) {
    u |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return static_cast<int32_t>(u);
}

std::string ChunkFileName(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "chunk-%06zu.bin", index);
  return buf;
}

std::string FingerprintHexOf(const std::string& contents) {
  Fingerprint fp;
  fp.Update(contents.data(), contents.size());
  return fp.Hex();
}

/// Type-tagged cell: null | ["i",text] | ["d",text] | ["s",text].
void WriteDictionaryValue(JsonWriter* json, const Value& cell) {
  switch (cell.type()) {
    case ValueType::kNull:
      json->Null();
      return;
    case ValueType::kInt:
      json->BeginArray();
      json->String("i");
      json->String(std::to_string(cell.AsInt()));
      json->EndArray();
      return;
    case ValueType::kDouble:
      json->BeginArray();
      json->String("d");
      json->String(ExactDouble(cell.AsDouble()));
      json->EndArray();
      return;
    case ValueType::kString:
      json->BeginArray();
      json->String("s");
      json->String(cell.AsString());
      json->EndArray();
      return;
  }
}

Result<Value> ParseDictionaryValue(const JsonValue& cell) {
  if (!cell.is_array() || cell.array().size() != 2 ||
      !cell.array()[0].is_string() || !cell.array()[1].is_string()) {
    return Status::IOError("store: dictionary cell must be a [tag, text] pair");
  }
  const std::string& tag = cell.array()[0].string_value();
  const std::string& text = cell.array()[1].string_value();
  // from_chars, not strtod: it takes back every ExactDouble text —
  // subnormals included, where strtod reports ERANGE.
  if (tag == "i") {
    int64_t parsed = 0;
    if (!ParseExact(text, &parsed)) {
      return Status::IOError("store: malformed int cell '" + text + "'");
    }
    return Value(parsed);
  }
  if (tag == "d") {
    double parsed = 0.0;
    if (!ParseExact(text, &parsed)) {
      return Status::IOError("store: malformed double cell '" + text + "'");
    }
    return Value(parsed);
  }
  if (tag == "s") return Value(text);
  return Status::IOError("store: unknown cell tag '" + tag + "'");
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Decompresses one column payload, with the `store.decompress` fault
/// point in front (no fallback — a chunk that won't decode is corrupt).
Status DecodeCompressedColumn(const ChunkCodec& codec, const char* data,
                              size_t size, size_t n, int32_t* out,
                              const std::string& chunk_file) {
  FDX_INJECT_FAULT(kFaultStoreDecompress,
                   Status::IOError("store: chunk '" + chunk_file +
                                   "' decompression failed (injected fault)"));
  Status status = codec.DecodeColumn(data, size, n, out);
  if (!status.ok()) {
    return Status::IOError("store: chunk '" + chunk_file +
                           "': " + status.message());
  }
  return Status::OK();
}

}  // namespace

/// Cached per-chunk read state. Established once under its chunk's
/// ChunkIoOnce mutex; immutable afterwards, so concurrent column reads
/// share it without further locking (mapped reads and pread are both
/// safe).
struct ChunkedTable::ChunkIo {
  std::string path;    ///< the chunk file, for error messages
  MmapFile map;        ///< valid when use_mmap
  int fd = -1;         ///< pread fallback, kept open across column reads
  bool use_mmap = false;
  bool compressed = false;  ///< file is FDXCHNK2
  uint64_t file_size = 0;
  uint64_t dict_offset = 0;
  uint64_t dict_bytes = 0;
  /// Per-column payload byte ranges, parsed once from the header (and,
  /// for compressed chunks, the size table) — column reads never touch
  /// header state again.
  std::vector<uint64_t> col_offsets;
  std::vector<uint64_t> col_sizes;

  ChunkIo() = default;
  ChunkIo(const ChunkIo&) = delete;
  ChunkIo& operator=(const ChunkIo&) = delete;
  ~ChunkIo() {
    if (fd >= 0) ::close(fd);
  }

  /// Copies `[offset, offset+len)` of the chunk file into `dst`, from
  /// the map or via pread on the cached fd.
  Status ReadAt(uint64_t offset, size_t len, char* dst) const {
    FDX_RETURN_IF_ERROR(CheckRange(offset, len));
    if (use_mmap) {
      std::memcpy(dst, map.data() + offset, len);
      return Status::OK();
    }
    size_t done = 0;
    while (done < len) {
      const ssize_t got = ::pread(fd, dst + done, len - done,
                                  static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("store: cannot read chunk '" + path +
                               "': " + std::strerror(errno));
      }
      if (got == 0) {
        return Status::IOError("store: chunk '" + path +
                               "' truncated mid-read");
      }
      done += static_cast<size_t>(got);
    }
    return Status::OK();
  }

  /// Points `*data` at `[offset, offset+len)` of the chunk file: into the
  /// map, or (on the fallback) at `*buffer` holding a pread copy.
  Status Slice(uint64_t offset, size_t len, std::string* buffer,
               const char** data) const {
    if (use_mmap) {
      FDX_RETURN_IF_ERROR(CheckRange(offset, len));
      *data = map.data() + offset;
      return Status::OK();
    }
    buffer->resize(len);
    FDX_RETURN_IF_ERROR(ReadAt(offset, len, buffer->data()));
    *data = buffer->data();
    return Status::OK();
  }

  Status CheckRange(uint64_t offset, size_t len) const {
    if (offset > file_size || len > file_size - offset) {
      return Status::IOError("store: chunk '" + path +
                             "' is shorter than its header promises");
    }
    return Status::OK();
  }

  /// Unmaps the pages of a byte range (mmap mode only) so a streaming
  /// scan never accumulates mapped pages.
  void DropRange(uint64_t offset, size_t len) const {
    if (use_mmap) map.AdviseDontNeed(offset, len);
  }
};

struct ChunkedTable::ChunkIoOnce {
  std::mutex mu;
  /// The verified state, published last; null until then.
  std::atomic<ChunkIo*> ready{nullptr};
  std::unique_ptr<ChunkIo> io;  ///< owner of `ready`; set under mu
  uint64_t fallbacks = 0;       ///< failed map attempts; guarded by mu
};

ChunkedTable::ChunkedTable() = default;
ChunkedTable::~ChunkedTable() = default;
ChunkedTable::ChunkedTable(ChunkedTable&&) noexcept = default;
ChunkedTable& ChunkedTable::operator=(ChunkedTable&&) noexcept = default;

Result<ChunkedTable> ChunkedTable::Create(const Schema& schema,
                                          std::string dir,
                                          const std::string& codec,
                                          std::string label) {
  ChunkedTable table;
  table.schema_ = schema;
  table.dir_ = std::move(dir);
  table.label_ = std::move(label);
  table.dicts_.resize(schema.size());
  FDX_ASSIGN_OR_RETURN(table.codec_, FindChunkCodec(codec));
  table.codec_name_ = table.codec_ == nullptr ? "none" : table.codec_->name();
  if (!table.dir_.empty()) {
    FDX_RETURN_IF_ERROR(EnsureDirectory(table.dir_));
    FDX_RETURN_IF_ERROR(table.WriteManifest());
  }
  return table;
}

int32_t ChunkedTable::EncodeCell(const Value& v, size_t col) {
  ColumnDictionary& dict = dicts_[col];
  if (v.is_null()) {
    ++dict.null_count;
    return EncodedTable::kNullCode;
  }
  const int32_t next_storage = static_cast<int32_t>(dict.values.size());
  int32_t storage;
  switch (v.type()) {
    case ValueType::kString: {
      auto [it, inserted] = dict.by_string.try_emplace(v.AsString(),
                                                       next_storage);
      storage = it->second;
      if (!inserted) return storage;
      break;
    }
    case ValueType::kInt: {
      auto [it, inserted] = dict.by_int.try_emplace(v.AsInt(), next_storage);
      storage = it->second;
      if (!inserted) return storage;
      break;
    }
    default: {
      auto [it, inserted] =
          dict.by_double_bits.try_emplace(DoubleBits(v.AsDouble()),
                                          next_storage);
      storage = it->second;
      if (!inserted) return storage;
      break;
    }
  }
  // First appearance of this exact value: record it and assign (or
  // share) the transform code — numerics merge on NumericKey, matching
  // EncodedTable::Encode.
  dict.values.push_back(v);
  int32_t transform;
  if (v.type() == ValueType::kString) {
    auto [it, inserted] =
        dict.t_string.try_emplace(v.AsString(), dict.next_transform);
    transform = it->second;
    if (inserted) ++dict.next_transform;
  } else {
    auto [it, inserted] =
        dict.t_numeric.try_emplace(NumericKey(v.ToNumeric()),
                                   dict.next_transform);
    transform = it->second;
    if (inserted) ++dict.next_transform;
  }
  dict.to_transform.push_back(transform);
  return storage;
}

std::string ChunkedTable::SerializeChunk(
    const StoredChunk& chunk, const std::vector<size_t>& dict_starts) const {
  const size_t k = schema_.size();
  // Dictionary delta: per column, the storage codes [start, end) this
  // chunk introduced and their exact values.
  JsonWriter json;
  json.BeginObject();
  json.Key("cols");
  json.BeginArray();
  for (size_t c = 0; c < k; ++c) {
    json.BeginObject();
    json.Key("start");
    json.Integer(static_cast<int64_t>(dict_starts[c]));
    json.Key("values");
    json.BeginArray();
    for (size_t s = dict_starts[c]; s < dicts_[c].values.size(); ++s) {
      WriteDictionaryValue(&json, dicts_[c].values[s]);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  const std::string dict_json = json.TakeString();

  std::string out;
  out.reserve(kChunkHeaderBytes + chunk.rows * k * 4 + dict_json.size());
  out.append(kChunkMagic, sizeof(kChunkMagic));
  AppendU64(&out, chunk.rows);
  AppendU64(&out, k);
  AppendU64(&out, dict_json.size());
  for (size_t c = 0; c < k; ++c) {
    for (int32_t code : chunk.codes[c]) AppendI32(&out, code);
  }
  out += dict_json;
  return out;
}

std::string ChunkedTable::EncodeManifest() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Integer(kManifestVersion);
  json.Key("schema");
  json.BeginArray();
  for (size_t c = 0; c < schema_.size(); ++c) json.String(schema_.name(c));
  json.EndArray();
  // Raw stores omit the key, so their manifests stay byte-identical to
  // pre-codec writers.
  if (codec_name_ != "none") {
    json.Key("codec");
    json.String(codec_name_);
  }
  if (!label_.empty()) {
    json.Key("label");
    json.String(label_);
  }
  json.Key("total_rows");
  json.Integer(static_cast<int64_t>(total_rows_));
  json.Key("chunks");
  json.BeginArray();
  for (const StoredChunk& chunk : chunks_) {
    json.BeginObject();
    json.Key("file");
    json.String(chunk.file);
    json.Key("rows");
    json.Integer(static_cast<int64_t>(chunk.rows));
    json.Key("fingerprint");
    json.String(chunk.fingerprint_hex);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString();
}

Status ChunkedTable::WriteManifest() const {
  return WriteFileAtomic(dir_ + "/manifest.json", EncodeManifest());
}

Status ChunkedTable::AppendBatch(const Table& batch, std::string label) {
  const size_t k = schema_.size();
  if (batch.num_columns() != k) {
    return Status::InvalidArgument(
        "store: batch has " + std::to_string(batch.num_columns()) +
        " columns; expected " + std::to_string(k));
  }
  if (batch.num_rows() == 0) {
    return Status::InvalidArgument("store: batch has no rows");
  }
  std::vector<size_t> dict_starts(k);
  for (size_t c = 0; c < k; ++c) dict_starts[c] = dicts_[c].values.size();

  StoredChunk chunk;
  chunk.rows = batch.num_rows();
  chunk.codes.resize(k);
  for (size_t c = 0; c < k; ++c) {
    chunk.codes[c].reserve(chunk.rows);
    for (size_t r = 0; r < chunk.rows; ++r) {
      chunk.codes[c].push_back(EncodeCell(batch.cell(r, c), c));
    }
  }

  // The fingerprint always covers the uncompressed serialization, so
  // raw and compressed stores of the same data fingerprint identically.
  const std::string payload = SerializeChunk(chunk, dict_starts);
  chunk.fingerprint_hex = FingerprintHexOf(payload);
  if (!dir_.empty()) {
    chunk.file = ChunkFileName(chunks_.size());
    if (codec_ != nullptr) {
      // Re-frame as FDXCHNK2: header, per-column compressed sizes,
      // codec payloads, then the same dictionary delta tail.
      const size_t dict_bytes =
          payload.size() - kChunkHeaderBytes - chunk.rows * k * 4;
      std::string packed;
      packed.append(kChunkMagicV2, sizeof(kChunkMagicV2));
      AppendU64(&packed, chunk.rows);
      AppendU64(&packed, k);
      AppendU64(&packed, dict_bytes);
      std::string columns;
      for (size_t c = 0; c < k; ++c) {
        const size_t before = columns.size();
        codec_->EncodeColumn(chunk.codes[c].data(), chunk.rows, &columns);
        AppendU64(&packed, columns.size() - before);
      }
      packed += columns;
      packed.append(payload, payload.size() - dict_bytes, dict_bytes);
      FDX_RETURN_IF_ERROR(WriteFileAtomic(dir_ + "/" + chunk.file, packed));
    } else {
      FDX_RETURN_IF_ERROR(WriteFileAtomic(dir_ + "/" + chunk.file, payload));
    }
    chunk.codes.clear();  // durable now; drop the resident copy
    chunk.io = std::make_unique<ChunkIoOnce>();
  }
  total_rows_ += chunk.rows;
  chunks_.push_back(std::move(chunk));
  label_ = std::move(label);
  if (!dir_.empty()) {
    // Manifest is the commit point: a crash between the chunk write and
    // here leaves an orphan file the stale manifest never references.
    FDX_RETURN_IF_ERROR(WriteManifest());
  }
  return Status::OK();
}

Result<ChunkedTable::ChunkIo*> ChunkedTable::GetChunkIo(size_t index) const {
  const StoredChunk& chunk = chunks_[index];
  ChunkIoOnce& once = *chunk.io;
  if (ChunkIo* ready = once.ready.load(std::memory_order_acquire)) {
    return ready;
  }
  // Only this chunk's first readers wait here; a failed first touch
  // publishes nothing, so the next read retries it.
  std::lock_guard<std::mutex> lock(once.mu);
  if (once.io != nullptr) return once.io.get();

  auto io = std::make_unique<ChunkIo>();
  io->path = dir_ + "/" + chunk.file;
  const std::string& path = io->path;
  if (!FaultTriggered(kFaultStoreMmap)) {
    Result<MmapFile> mapped = MmapFile::Open(path);
    if (mapped.ok()) {
      io->map = std::move(mapped).value();
      io->use_mmap = true;
      io->file_size = io->map.size();
    }
  }
  if (!io->use_mmap) {
    ++once.fallbacks;  // the fault point counts like a real map failure
    io->fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (io->fd < 0) {
      return Status::IOError("store: cannot open chunk '" + path +
                             "': " + std::strerror(errno));
    }
    const off_t size = ::lseek(io->fd, 0, SEEK_END);
    if (size < 0) {
      return Status::IOError("store: cannot stat chunk '" + path +
                             "': " + std::strerror(errno));
    }
    io->file_size = static_cast<uint64_t>(size);
  }

  // Parse the header once; every later column read goes straight to its
  // precomputed byte range.
  char header[kChunkHeaderBytes];
  if (io->file_size < kChunkHeaderBytes) {
    return Status::IOError("store: chunk '" + path + "' has a bad header");
  }
  FDX_RETURN_IF_ERROR(io->ReadAt(0, kChunkHeaderBytes, header));
  const bool v1 = std::memcmp(header, kChunkMagic, sizeof(kChunkMagic)) == 0;
  const bool v2 =
      std::memcmp(header, kChunkMagicV2, sizeof(kChunkMagicV2)) == 0;
  if (!v1 && !v2) {
    return Status::IOError("store: chunk '" + path + "' has a bad header");
  }
  const uint64_t rows = ReadU64(header + 8);
  const uint64_t cols = ReadU64(header + 16);
  io->dict_bytes = ReadU64(header + 24);
  const size_t k = schema_.size();
  if (rows != chunk.rows || cols != k) {
    return Status::IOError("store: chunk '" + path +
                           "' shape disagrees with the manifest");
  }
  io->compressed = v2;
  io->col_offsets.resize(k);
  io->col_sizes.resize(k);
  if (v1) {
    for (size_t c = 0; c < k; ++c) {
      io->col_offsets[c] = kChunkHeaderBytes + c * rows * 4;
      io->col_sizes[c] = rows * 4;
    }
    io->dict_offset = kChunkHeaderBytes + rows * k * 4;
  } else {
    if (codec_ == nullptr) {
      return Status::IOError("store: chunk '" + path +
                             "' is compressed but the manifest names no "
                             "codec");
    }
    std::string table(k * 8, '\0');
    if (io->file_size < kChunkHeaderBytes + k * 8) {
      return Status::IOError("store: chunk '" + path + "' has a bad header");
    }
    FDX_RETURN_IF_ERROR(io->ReadAt(kChunkHeaderBytes, k * 8, table.data()));
    uint64_t offset = kChunkHeaderBytes + k * 8;
    for (size_t c = 0; c < k; ++c) {
      io->col_offsets[c] = offset;
      io->col_sizes[c] = ReadU64(table.data() + c * 8);
      offset += io->col_sizes[c];
    }
    io->dict_offset = offset;
  }
  if (io->file_size != io->dict_offset + io->dict_bytes) {
    return Status::IOError("store: chunk '" + path +
                           "' shape disagrees with the manifest");
  }

  // Verification: fingerprint the uncompressed (FDXCHNK1) serialization
  // before trusting any chunk byte — mapped or read. It streams: a raw
  // chunk one window at a time; a compressed one as its rebuilt raw
  // header, then one decompressed column at a time, then its dictionary
  // tail. Each mapped range's pages are dropped before the next, so
  // first touches running in parallel hold a window (or a column) each
  // rather than a chunk each.
  Fingerprint fingerprint;
  std::string buffer;
  const char* data = nullptr;
  if (!io->compressed) {
    fingerprint.BeginUpdate(io->file_size);
    for (uint64_t at = 0; at < io->file_size; at += kVerifyWindowBytes) {
      const size_t len = static_cast<size_t>(
          std::min<uint64_t>(kVerifyWindowBytes, io->file_size - at));
      FDX_RETURN_IF_ERROR(io->Slice(at, len, &buffer, &data));
      fingerprint.UpdatePart(data, len);
      io->DropRange(at, len);
    }
  } else {
    fingerprint.BeginUpdate(kChunkHeaderBytes + rows * k * 4 + io->dict_bytes);
    std::string raw;
    raw.append(kChunkMagic, sizeof(kChunkMagic));
    AppendU64(&raw, rows);
    AppendU64(&raw, k);
    AppendU64(&raw, io->dict_bytes);
    fingerprint.UpdatePart(raw.data(), raw.size());
    std::vector<int32_t> codes(rows);
    char* bytes = reinterpret_cast<char*>(codes.data());
    for (size_t c = 0; c < k; ++c) {
      FDX_RETURN_IF_ERROR(
          io->Slice(io->col_offsets[c], io->col_sizes[c], &buffer, &data));
      FDX_RETURN_IF_ERROR(DecodeCompressedColumn(
          *codec_, data, io->col_sizes[c], rows, codes.data(), chunk.file));
      io->DropRange(io->col_offsets[c], io->col_sizes[c]);
      // Rewritten in place as the raw format's little-endian bytes.
      for (size_t r = 0; r < rows; ++r) WriteI32(bytes + r * 4, codes[r]);
      fingerprint.UpdatePart(bytes, rows * 4);
    }
    FDX_RETURN_IF_ERROR(
        io->Slice(io->dict_offset, io->dict_bytes, &buffer, &data));
    fingerprint.UpdatePart(data, io->dict_bytes);
  }
  if (fingerprint.Hex() != chunk.fingerprint_hex) {
    return Status::IOError("store: chunk '" + path +
                           "' fingerprint mismatch (corrupt store)");
  }
  io->DropRange(0, io->file_size);

  once.io = std::move(io);
  once.ready.store(once.io.get(), std::memory_order_release);
  return once.io.get();
}

/// One chunk's column as codes in `out[0..rows)`: read from the resident
/// codes, the mapped or preaded slice, or its decompression. Every code
/// passes the store's one code-range check here, in the same pass that
/// writes it — as its transform code when `transform` is set.
Status ChunkedTable::DecodeChunkColumn(size_t index, size_t col,
                                       bool transform, int32_t* out) const {
  const StoredChunk& chunk = chunks_[index];
  const ColumnDictionary& dict = dicts_[col];
  const int32_t dict_size = static_cast<int32_t>(dict.values.size());
  const int32_t* to_transform = transform ? dict.to_transform.data() : nullptr;
  const auto check = [&](auto code_at) -> Status {
    for (size_t r = 0; r < chunk.rows; ++r) {
      const int32_t storage = code_at(r);
      if (storage < EncodedTable::kNullCode || storage >= dict_size) {
        return Status::IOError("store: chunk '" + chunk.file + "' column " +
                               std::to_string(col) +
                               " has out-of-range code " +
                               std::to_string(storage));
      }
      out[r] = to_transform == nullptr || storage < 0 ? storage
                                                      : to_transform[storage];
    }
    return Status::OK();
  };
  if (!chunk.codes.empty()) {
    const int32_t* codes = chunk.codes[col].data();
    return check([codes](size_t r) { return codes[r]; });
  }

  FDX_ASSIGN_OR_RETURN(ChunkIo * io, GetChunkIo(index));
  const uint64_t offset = io->col_offsets[col];
  const size_t size = static_cast<size_t>(io->col_sizes[col]);
  Status status;
  if (io->compressed) {
    std::string buffer;
    const char* data = nullptr;
    status = io->Slice(offset, size, &buffer, &data);
    if (status.ok()) {
      status = DecodeCompressedColumn(*codec_, data, size, chunk.rows, out,
                                      chunk.file);
    }
    if (status.ok()) status = check([out](size_t r) { return out[r]; });
  } else if (io->use_mmap) {
    // Little-endian i32s, decoded straight out of the page cache.
    const char* slice = io->map.data() + offset;
    status = check([slice](size_t r) { return ReadI32(slice + r * 4); });
  } else {
    // The fallback preads the slice into `out` and decodes it in place
    // (each element reads only its own four bytes).
    const char* slice = reinterpret_cast<const char*>(out);
    status = io->ReadAt(offset, size, reinterpret_cast<char*>(out));
    if (status.ok()) {
      status = check([slice](size_t r) { return ReadI32(slice + r * 4); });
    }
  }
  // The slice has been copied out as codes; its pages are dead weight.
  // Drop the whole mapping, not just the slice: every fault also maps
  // the cached pages around it (fault-around), and those would outlive
  // a slice-sized drop. A page another column still needs faults back.
  io->DropRange(0, io->file_size);
  return status;
}

Status ChunkedTable::ReadColumnCodes(size_t col, std::vector<int32_t>* out,
                                     size_t threads) const {
  out->resize(total_rows_);
  std::vector<size_t> starts(chunks_.size());
  size_t row = 0;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    starts[i] = row;
    row += chunks_[i].rows;
  }
  // Each task decodes a contiguous run of chunks and stops at its first
  // failure; the lowest failing chunk overall is then the first failure
  // recorded, whatever the task split.
  std::vector<Status> failures(chunks_.size());
  ParallelForChunks(0, chunks_.size(), ResolveThreadCount(threads), threads,
                    [&](size_t, size_t lo, size_t hi) {
                      for (size_t i = lo; i < hi; ++i) {
                        Status status = DecodeChunkColumn(
                            i, col, /*transform=*/true,
                            out->data() + starts[i]);
                        if (!status.ok()) {
                          failures[i] = std::move(status);
                          return;
                        }
                      }
                    });
  for (Status& status : failures) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Result<Table> ChunkedTable::ReadChunkValues(size_t index) const {
  if (index >= chunks_.size()) {
    return Status::InvalidArgument("store: no chunk " + std::to_string(index));
  }
  const size_t rows = chunks_[index].rows;
  const size_t k = schema_.size();
  std::vector<std::vector<int32_t>> codes(k, std::vector<int32_t>(rows));
  for (size_t c = 0; c < k; ++c) {
    FDX_RETURN_IF_ERROR(
        DecodeChunkColumn(index, c, /*transform=*/false, codes[c].data()));
  }
  Table out{schema_};
  std::vector<Value> row(k);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < k; ++c) {
      const int32_t storage = codes[c][r];
      row[c] = storage == EncodedTable::kNullCode ? Value::Null()
                                                  : dicts_[c].values[storage];
    }
    out.AppendRow(row);
  }
  return out;
}

uint64_t ChunkedTable::MappedResidentBytes() const {
  uint64_t total = 0;
  for (const StoredChunk& chunk : chunks_) {
    const ChunkIo* io =
        chunk.io == nullptr
            ? nullptr
            : chunk.io->ready.load(std::memory_order_acquire);
    if (io != nullptr && io->use_mmap) total += io->map.ResidentBytes();
  }
  return total;
}

uint64_t ChunkedTable::mmap_fallbacks() const {
  uint64_t total = 0;
  for (const StoredChunk& chunk : chunks_) {
    if (chunk.io == nullptr) continue;
    std::lock_guard<std::mutex> lock(chunk.io->mu);
    total += chunk.io->fallbacks;
  }
  return total;
}

Result<ChunkedTable> ChunkedTable::Open(std::string dir) {
  FDX_ASSIGN_OR_RETURN(std::string manifest_text,
                       ReadFileToString(dir + "/manifest.json"));
  FDX_ASSIGN_OR_RETURN(JsonValue root, JsonValue::Parse(manifest_text));
  if (!root.is_object()) {
    return Status::IOError("store: manifest must be an object");
  }
  const int64_t version = static_cast<int64_t>(root.NumberOr("version", 0));
  if (version != kManifestVersion) {
    return Status::IOError("store: unsupported manifest version " +
                           std::to_string(version));
  }
  const JsonValue* schema_json = root.Find("schema");
  if (schema_json == nullptr || !schema_json->is_array()) {
    return Status::IOError("store: manifest missing schema");
  }
  std::vector<std::string> names;
  names.reserve(schema_json->array().size());
  for (const JsonValue& name : schema_json->array()) {
    if (!name.is_string()) {
      return Status::IOError("store: schema names must be strings");
    }
    names.push_back(name.string_value());
  }

  ChunkedTable table;
  table.schema_ = Schema(std::move(names));
  table.dir_ = std::move(dir);
  table.dicts_.resize(table.schema_.size());
  table.codec_name_ = root.StringOr("codec", "none");
  FDX_ASSIGN_OR_RETURN(table.codec_, FindChunkCodec(table.codec_name_));
  table.label_ = root.StringOr("label", "");
  const size_t k = table.schema_.size();

  const JsonValue* chunks_json = root.Find("chunks");
  if (chunks_json == nullptr || !chunks_json->is_array()) {
    return Status::IOError("store: manifest missing chunks");
  }
  for (const JsonValue& entry : chunks_json->array()) {
    if (!entry.is_object()) {
      return Status::IOError("store: chunk entries must be objects");
    }
    StoredChunk chunk;
    chunk.file = entry.StringOr("file", "");
    chunk.rows = static_cast<size_t>(entry.NumberOr("rows", 0));
    chunk.fingerprint_hex = entry.StringOr("fingerprint", "");
    if (chunk.file.empty() || chunk.rows == 0 ||
        chunk.fingerprint_hex.empty()) {
      return Status::IOError("store: malformed chunk entry in manifest");
    }
    chunk.io = std::make_unique<ChunkIoOnce>();
    table.chunks_.push_back(std::move(chunk));
  }

  // Replay each chunk in order: establish it (which verifies its
  // fingerprint), extend the dictionaries with its delta, and count
  // nulls from its storage codes.
  std::vector<int32_t> codes;
  for (size_t i = 0; i < table.chunks_.size(); ++i) {
    const StoredChunk& chunk = table.chunks_[i];
    FDX_ASSIGN_OR_RETURN(ChunkIo * io, table.GetChunkIo(i));
    std::string dict_json(static_cast<size_t>(io->dict_bytes), '\0');
    FDX_RETURN_IF_ERROR(
        io->ReadAt(io->dict_offset, dict_json.size(), dict_json.data()));
    io->DropRange(0, io->file_size);
    FDX_ASSIGN_OR_RETURN(JsonValue dict_root, JsonValue::Parse(dict_json));
    const JsonValue* cols = dict_root.Find("cols");
    if (cols == nullptr || !cols->is_array() || cols->array().size() != k) {
      return Status::IOError("store: chunk '" + chunk.file +
                             "' dictionary delta is malformed");
    }
    for (size_t c = 0; c < k; ++c) {
      const JsonValue& col = cols->array()[c];
      const size_t start = static_cast<size_t>(col.NumberOr("start", 0));
      if (start != table.dicts_[c].values.size()) {
        return Status::IOError("store: chunk '" + chunk.file +
                               "' dictionary delta is out of sequence");
      }
      const JsonValue* values = col.Find("values");
      if (values == nullptr || !values->is_array()) {
        return Status::IOError("store: chunk '" + chunk.file +
                               "' dictionary delta missing values");
      }
      for (const JsonValue& cell : values->array()) {
        FDX_ASSIGN_OR_RETURN(Value v, ParseDictionaryValue(cell));
        // Re-encode through the normal path; a fresh value must land on
        // the exact storage code the delta implies.
        const size_t before = table.dicts_[c].values.size();
        table.EncodeCell(v, c);
        if (table.dicts_[c].values.size() != before + 1) {
          return Status::IOError("store: chunk '" + chunk.file +
                                 "' dictionary delta repeats a value");
        }
      }
    }
    // Null counts come from the codes themselves (EncodeCell above
    // counted nothing: dictionary values are never null).
    codes.resize(chunk.rows);
    for (size_t c = 0; c < k; ++c) {
      FDX_RETURN_IF_ERROR(
          table.DecodeChunkColumn(i, c, /*transform=*/false, codes.data()));
      table.dicts_[c].null_count += static_cast<size_t>(
          std::count(codes.begin(), codes.end(), EncodedTable::kNullCode));
    }
    table.total_rows_ += chunk.rows;
  }

  const uint64_t manifest_rows =
      static_cast<uint64_t>(root.NumberOr("total_rows", 0));
  if (manifest_rows != table.total_rows_) {
    return Status::IOError("store: manifest row count " +
                           std::to_string(manifest_rows) +
                           " disagrees with chunks (" +
                           std::to_string(table.total_rows_) + ")");
  }
  return table;
}

}  // namespace fdx
