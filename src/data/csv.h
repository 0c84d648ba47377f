#ifndef FDX_DATA_CSV_H_
#define FDX_DATA_CSV_H_

#include <functional>
#include <string>

#include "data/table.h"
#include "util/status.h"

namespace fdx {

/// Options for CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  bool has_header = true;
  /// Fields equal to any of these (after trimming) become nulls in
  /// addition to the empty string.
  std::vector<std::string> null_tokens = {"NULL", "null", "NA", "?"};
};

/// Reads a CSV file into a Table. Values are type-inferred per cell by
/// Value::Parse (integer, double, else string); empty fields and null
/// tokens map to null. Quoted fields with embedded delimiters/quotes are
/// supported. A record is one line: '\n' ends it even inside quotes, a
/// trailing '\r' is dropped, leading blank lines are skipped, and from
/// the first other line on every line is a record. Parse errors cite the
/// 1-based line number; duplicate or empty header names are rejected
/// with kInvalidArgument. Every entry point — ReadCsv,
/// ReadCsvFromString, and the chunked readers below — runs the same
/// byte-range parser, so they cannot diverge: identical tables,
/// identical error messages with identical line numbers, at any thread
/// count.
///
/// ReadCsv maps the file (a file that cannot be mapped, such as a pipe,
/// is read into memory whole first) and cuts its body at newlines into
/// ranges of at least 1 MiB; the ranges' line counts fix where each
/// one's rows and line numbers start, then the ranges parse in parallel
/// on the shared pool straight into columns sized once, and their mapped
/// pages are released as they finish. An input under 1 MiB parses
/// inline on the caller's thread.
///
/// A mapped file must not shrink while it is read: the process gets
/// SIGBUS on a page past the new end. A long-lived process that reads
/// files it does not own (fdxd) reads them with ReadFileToString and
/// parses the copy with ReadCsvFromString instead.
Result<Table> ReadCsv(const std::string& path, const CsvOptions& options = {});

/// Parses CSV from an in-memory buffer — the server's ingestion path for
/// uploaded batches (no temp files) — with the parser, type inference,
/// null handling and 1-based line numbers of ReadCsv.
Result<Table> ReadCsvFromString(const std::string& text,
                                const CsvOptions& options = {});

/// Receives one parsed chunk. Chunks arrive in file order, each carrying
/// the full schema; a non-OK return aborts the read and propagates.
using CsvChunkSink = std::function<Status(Table&&)>;

/// Streaming ingest: parses `path` and hands the rows to `sink` in
/// chunks of at most `chunk_rows` rows (0 means a single chunk). Each
/// chunk is one window of the mapped file, parsed as ReadCsv parses a
/// whole file, and the window's pages are released once it is parsed:
/// memory is bounded by one window, its table and the sink's own use.
/// An input that cannot be mapped (a pipe) is read into memory whole
/// before the first chunk, so its memory is bounded by the input.
/// On success the sink is invoked at least once — a row-less file yields
/// one empty chunk whose schema carries the (possibly empty) header — so
/// callers always learn the schema. On error, chunks already delivered
/// are void: the file failed to parse as a whole, exactly as ReadCsv
/// would report it.
Status ReadCsvChunked(const std::string& path, const CsvOptions& options,
                      size_t chunk_rows, const CsvChunkSink& sink);

/// ReadCsvChunked over an in-memory buffer (tests and the service).
Status ReadCsvChunkedFromString(const std::string& text,
                                const CsvOptions& options, size_t chunk_rows,
                                const CsvChunkSink& sink);

/// Historical alias of ReadCsvFromString (used heavily by tests).
Result<Table> ParseCsv(const std::string& text, const CsvOptions& options = {});

/// Writes a table as CSV with a header row. A failed open, write or
/// close is kIOError naming `path`. Doubles are written in shortest
/// round-trip form (std::to_chars), so a double cell reads back
/// bit-exact. The one exception, as before: an integral double that
/// prints in integer form ("3", "1234567") reads back as the int of the
/// same value.
Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options = {});

}  // namespace fdx

#endif  // FDX_DATA_CSV_H_
