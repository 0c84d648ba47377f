#ifndef FDX_STORE_CHUNKED_TABLE_H_
#define FDX_STORE_CHUNKED_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/table.h"
#include "util/status.h"

namespace fdx {

class ChunkCodec;

/// Out-of-core columnar table: rows arrive in batches, each batch is
/// dictionary-encoded against an *incremental* dictionary (codes are
/// stable across chunks — appending never renumbers anything) and kept
/// as one immutable chunk. With a store directory, chunk payloads spill
/// to disk through the same write-temp-fsync-rename pattern as the
/// service snapshots and only the dictionaries stay resident, so the
/// table itself can be far larger than RAM; without one, chunks stay in
/// memory (same code paths, useful for tests and small inputs).
///
/// Two code spaces per column:
///
///  * storage codes — exact values. int 3, double 3.0, and string "3"
///    get distinct codes, so chunks round-trip losslessly through
///    ReadChunkValues (the service replays them through fingerprinted
///    appends, which must reproduce the original bytes).
///  * transform codes — the EncodedTable contract: numerics merge on
///    NumericKey (3 == 3.0, -0.0 == 0.0, every NaN alike), first
///    appearance in row order assigns the next dense code.
///    ReadColumnCodes emits these, which is what makes the streaming
///    transform bit-identical to EncodedTable::Encode of the
///    concatenated table.
///
/// Durable layout under `dir`:
///
///   manifest.json    — schema, total rows, codec, optional label,
///                      per-chunk {file, rows, fingerprint}; rewritten
///                      atomically per append (O(#chunks), chunk
///                      payloads immutable) — the append's commit point
///   chunk-NNNNNN.bin — raw format: magic FDXCHNK1; u64 rows, cols,
///                      dict_bytes; column-major i32 storage codes (one
///                      column = one contiguous slice); then a JSON
///                      dictionary *delta* — only the values first seen
///                      in this chunk. Compressed format (codec !=
///                      none): magic FDXCHNK2, same u64 header, a u64
///                      per-column compressed-size table, the per-column
///                      codec payloads, then the dictionary delta.
///                      Fingerprints always cover the *uncompressed*
///                      serialization, so raw and compressed stores of
///                      the same data fingerprint identically.
///
/// Spilled chunks are read back through one path: each chunk file is
/// memory-mapped once and column slices are decoded straight out of the
/// page cache, with `madvise(SEQUENTIAL)` on map and `madvise(DONTNEED)`
/// after each slice so a bounded-memory scan never accumulates mapped
/// residency. If the map cannot be established (or the `store.mmap`
/// fault point fires) that chunk is read with pread(2) instead and the
/// fallback is counted. Either way no chunk byte is trusted before the
/// chunk's fingerprint matches the manifest, and every chunk is verified
/// once: at Open for chunks on disk, on first touch for chunks appended
/// in this process. Every stored code is range-checked against its
/// column's dictionary as it is decoded.
///
/// Open() establishes every chunk (so a reopened store holds one mapping
/// per chunk from Open on — one fd per chunk on the pread fallback),
/// replays the dictionary deltas in chunk order and counts nulls from
/// the codes, so a reopened store either matches the writer's state
/// exactly or fails loudly.
///
/// Appends are single-writer (callers serialize them; the service wraps
/// a store in its per-session mutex). Reads — ReadColumnCodes and
/// ReadChunkValues — are safe to call concurrently with each other, and
/// ReadColumnCodes itself decodes a column's chunks in parallel on the
/// shared pool. Each chunk's I/O state (its map, offset index and
/// fingerprint check) is built once, under that chunk's own mutex, and
/// published for lock-free reuse, so the first reads of different
/// appended chunks open and verify them in parallel; there is no
/// store-wide lock.
class ChunkedTable {
 public:
  // Defined out of line: StoredChunk holds a unique_ptr to the
  // incomplete ChunkIo type.
  ChunkedTable();
  ~ChunkedTable();
  ChunkedTable(ChunkedTable&&) noexcept;
  ChunkedTable& operator=(ChunkedTable&&) noexcept;
  ChunkedTable(const ChunkedTable&) = delete;
  ChunkedTable& operator=(const ChunkedTable&) = delete;

  /// New empty store. `dir` empty keeps chunks in memory; otherwise the
  /// directory is created and an empty manifest written immediately.
  /// `codec` names the chunk-payload compression ("" or "none" stores
  /// raw, "varint" delta-compresses dictionary codes); unknown names
  /// are an error. `label` is stored as by AppendBatch.
  static Result<ChunkedTable> Create(const Schema& schema, std::string dir,
                                     const std::string& codec = "",
                                     std::string label = "");

  /// Reopens a spilled store: establishes and fingerprint-verifies every
  /// chunk against the manifest, then replays the dictionary deltas.
  /// The codec is read from the manifest.
  static Result<ChunkedTable> Open(std::string dir);

  /// Encodes `batch` as one new chunk. Column count must match the
  /// schema; zero-row batches are rejected. With a store dir the chunk
  /// file and updated manifest are durable before this returns, and the
  /// chunk's codes are dropped from memory — append I/O is O(chunk)
  /// plus the O(#chunks) manifest rewrite. `label` is an opaque string
  /// committed by the same atomic manifest write (the service stores the
  /// session's content fingerprint there); an empty label omits the key,
  /// so unlabelled manifests keep their historical bytes.
  Status AppendBatch(const Table& batch, std::string label = "");

  const Schema& schema() const { return schema_; }
  const std::string& dir() const { return dir_; }
  bool spilled() const { return !dir_.empty(); }
  /// Codec name as recorded in the manifest ("none" when raw).
  const std::string& codec() const { return codec_name_; }
  /// Label committed with the latest append (or Create); "" if none.
  const std::string& label() const { return label_; }
  /// Times a chunk map failed (or was failed by the `store.mmap` fault
  /// point) and pread was used for that chunk instead.
  uint64_t mmap_fallbacks() const;
  size_t num_rows() const { return total_rows_; }
  size_t num_columns() const { return schema_.size(); }
  size_t num_chunks() const { return chunks_.size(); }
  const std::string& ChunkFingerprintHex(size_t chunk) const {
    return chunks_[chunk].fingerprint_hex;
  }

  /// Transform-code cardinality of a column (numerics merged), i.e.
  /// exactly EncodedTable::Encode(concatenated table).Cardinality(col).
  size_t Cardinality(size_t col) const {
    return static_cast<size_t>(dicts_[col].next_transform);
  }
  size_t NullCount(size_t col) const { return dicts_[col].null_count; }
  /// Distinct exact values seen in a column (storage codes).
  size_t DictionarySize(size_t col) const { return dicts_[col].values.size(); }

  /// Decodes one column's transform codes (kNullCode for nulls) into
  /// `out`, resized to num_rows() — the streaming transform's input.
  /// Chunks decode in parallel on the shared pool (`threads`: 0 = the
  /// default count), each straight into its rows of `out`; a spilled
  /// chunk costs one mapped-slice decode (or one pread) of the column's
  /// contiguous payload. On failure the lowest failing chunk's error is
  /// returned at every thread count. Thread-safe against concurrent
  /// reads.
  Status ReadColumnCodes(size_t col, std::vector<int32_t>* out,
                         size_t threads = 0) const;

  /// Exact value round-trip of one chunk (the service's replay path).
  /// A spilled chunk is read through the same verified state and code
  /// check as ReadColumnCodes, so a corrupted store surfaces as kIOError
  /// rather than as silently different data.
  Result<Table> ReadChunkValues(size_t chunk) const;

  /// Bytes of this store's chunk mappings currently resident in memory.
  /// These pages are clean and file-backed — the kernel reclaims them
  /// under pressure — so RSS-ceiling accounting subtracts them from the
  /// polled process figure instead of tripping on reclaimable cache.
  uint64_t MappedResidentBytes() const;

 private:
  /// Per-column incremental dictionary; see the class comment for the
  /// two code spaces.
  struct ColumnDictionary {
    std::vector<Value> values;  ///< by storage code
    std::unordered_map<std::string, int32_t> by_string;
    std::unordered_map<int64_t, int32_t> by_int;
    /// Doubles key on their bit pattern (distinguishes -0.0 from 0.0 for
    /// exact round-trip; the transform map below still merges them).
    std::unordered_map<uint64_t, int32_t> by_double_bits;
    /// Transform-code assignment, mirroring EncodedTable::Encode:
    /// numbers key on NumericKey.
    std::unordered_map<std::string, int32_t> t_string;
    std::unordered_map<uint64_t, int32_t> t_numeric;
    std::vector<int32_t> to_transform;  ///< storage code -> transform code
    int32_t next_transform = 0;
    size_t null_count = 0;
  };

  /// Cached per-chunk read state: the open map (or a plain fd as the
  /// fallback) and the per-column payload offset index (parsed once —
  /// column reads never re-touch header/manifest state). The only way
  /// to a spilled chunk's bytes.
  struct ChunkIo;
  /// A spilled chunk's once-only gate for its ChunkIo: built and
  /// fingerprint-verified by Open or the first reader under the chunk's
  /// own mutex, then published for lock-free reuse.
  struct ChunkIoOnce;

  struct StoredChunk {
    size_t rows = 0;
    std::string file;  ///< basename under dir_; empty in memory mode
    std::string fingerprint_hex;
    /// Storage codes per column; cleared once spilled.
    std::vector<std::vector<int32_t>> codes;
    /// Verified I/O state; set for spilled chunks only.
    std::unique_ptr<ChunkIoOnce> io;
  };

  int32_t EncodeCell(const Value& v, size_t col);
  std::string SerializeChunk(const StoredChunk& chunk,
                             const std::vector<size_t>& dict_starts) const;
  std::string EncodeManifest() const;
  Status WriteManifest() const;
  Result<ChunkIo*> GetChunkIo(size_t chunk) const;
  /// One chunk's column into `out[0..rows)`: storage codes, or transform
  /// codes with `transform`. Holds the store's one code-range check.
  Status DecodeChunkColumn(size_t chunk, size_t col, bool transform,
                           int32_t* out) const;

  Schema schema_;
  std::string dir_;
  std::string codec_name_ = "none";
  const ChunkCodec* codec_ = nullptr;  ///< nullptr when raw
  std::string label_;
  size_t total_rows_ = 0;
  std::vector<ColumnDictionary> dicts_;
  std::vector<StoredChunk> chunks_;
};

}  // namespace fdx

#endif  // FDX_STORE_CHUNKED_TABLE_H_
