#include "data/csv.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <string_view>
#include <unordered_set>

#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/mmap_file.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fdx {

namespace {

/// The smallest body range worth a pool task. A body under this size
/// (fdxd's append batches, most test inputs) parses inline on the
/// caller's thread.
constexpr size_t kMinRangeBytes = size_t{1} << 20;

/// Offset one past the '\n' that ends the line starting at `pos`, or
/// `size` when that line is the last one and has no newline.
size_t NextLine(const char* data, size_t pos, size_t size) {
  const void* nl = std::memchr(data + pos, '\n', size - pos);
  return nl == nullptr ? size : static_cast<const char*>(nl) - data + 1;
}

/// Unmaps the parsed bytes [begin, end) of `map`. The page holding
/// `end` stays unless the file ends there: the next range or window
/// reads it, and dropping it would only make that reader fault it back.
void DropParsed(const MmapFile& map, size_t begin, size_t end) {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  if (end != map.size()) end = end / page * page;
  if (end > begin) map.AdviseDontNeed(begin, end - begin);
}

/// The record text of the line [pos, next): without its '\n' and a
/// trailing '\r'.
std::string_view Record(const char* data, size_t pos, size_t next) {
  std::string_view line(data + pos, next - pos);
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Splits one record into `fields`, honouring double-quote escaping. An
/// unquoted field is a slice of `line`; a field holding a quote is
/// unescaped into `scratch`, which grows to the line's size so the views
/// into it stay valid until the next call.
void SplitRecord(std::string_view line, char delim, std::string* scratch,
                 std::vector<std::string_view>* fields) {
  fields->clear();
  const char* p = line.data();
  const char* const end = p + line.size();
  char* out = nullptr;  // next free scratch byte, set at the first quote
  for (;;) {
    const char* stop = p;
    while (stop != end && *stop != '"' && *stop != delim) ++stop;
    if (stop == end || *stop != '"') {
      fields->emplace_back(p, static_cast<size_t>(stop - p));
      if (stop == end) return;
      p = stop + 1;
      continue;
    }
    if (out == nullptr) {
      if (scratch->size() < line.size()) scratch->resize(line.size());
      out = scratch->data();
    }
    char* const field = out;
    out = std::copy(p, stop, out);
    bool in_quotes = false;
    for (p = stop; p != end; ++p) {
      const char ch = *p;
      if (in_quotes) {
        if (ch != '"') {
          *out++ = ch;
        } else if (p + 1 != end && p[1] == '"') {
          *out++ = '"';
          ++p;
        } else {
          in_quotes = false;
        }
      } else if (ch == '"') {
        in_quotes = true;
      } else if (ch == delim) {
        break;
      } else {
        *out++ = ch;
      }
    }
    fields->emplace_back(field, static_cast<size_t>(out - field));
    if (p == end) return;
    ++p;
  }
}

bool IsNullToken(std::string_view field, const CsvOptions& options) {
  if (field.empty()) return true;
  for (const auto& token : options.null_tokens) {
    if (field == token) return true;
  }
  return false;
}

/// A run of whole records: bytes [begin, end) of the text, holding
/// `rows` lines, the first of them table row `first_row`.
struct Range {
  size_t begin = 0;
  size_t end = 0;
  size_t rows = 0;
  size_t first_row = 0;
};

/// Types the records of `range` into their rows of `columns`, which are
/// already sized; row 0 is physical line `first_line`. Stops at the
/// range's first ragged record.
Status ParseRange(const char* data, const Range& range, size_t first_line,
                  size_t width, const CsvOptions& options,
                  std::vector<std::vector<Value>>* columns) {
  std::string scratch;
  std::vector<std::string_view> fields;
  fields.reserve(width);
  size_t row = range.first_row;
  for (size_t pos = range.begin; pos < range.end; ++row) {
    const size_t next = NextLine(data, pos, range.end);
    SplitRecord(Record(data, pos, next), options.delimiter, &scratch,
                &fields);
    if (fields.size() != width) {
      return Status::IOError("line " + std::to_string(first_line + row) +
                             ": CSV row with " +
                             std::to_string(fields.size()) +
                             " fields; expected " + std::to_string(width));
    }
    for (size_t c = 0; c < width; ++c) {
      const std::string_view cell = StripAsciiWhitespace(fields[c]);
      if (!IsNullToken(cell, options)) {
        (*columns)[c][row] = Value::Parse(cell);
      }
    }
    pos = next;
  }
  return Status::OK();
}

/// Parses the records in [begin, end) — every line of it is one row,
/// the first being physical line `first_line` — into a table. The bytes
/// are cut at newlines into ranges of at least kMinRangeBytes; their
/// line counts fix each range's first row (and so line number), then the
/// ranges parse in parallel on the shared pool, each dropping its pages
/// of `map` (when the text is mapped) once typed. A failure reports the
/// earliest failing range's error: that is the file's first bad line.
Result<Table> ParseRows(const char* data, size_t begin, size_t end,
                        size_t first_line, const Schema& schema,
                        const CsvOptions& options, const MmapFile* map) {
  const size_t threads = DefaultThreadCount();
  const size_t target = std::max(kMinRangeBytes, (end - begin) / threads / 4);
  std::vector<Range> ranges;
  for (size_t pos = begin; pos < end;) {
    const size_t cut =
        end - pos > target ? NextLine(data, pos + target - 1, end) : end;
    ranges.push_back(Range{pos, cut});
    pos = cut;
  }
  const size_t workers = ranges.size() > 1 ? threads : 1;
  ParallelForChunks(0, ranges.size(), ranges.size(), workers,
                    [&](size_t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      Range& range = ranges[i];
      for (size_t pos = range.begin; pos < range.end; ++range.rows) {
        pos = NextLine(data, pos, range.end);
      }
    }
  });
  size_t rows = 0;
  for (Range& range : ranges) {
    range.first_row = rows;
    rows += range.rows;
  }

  // Columns are allocated here, on the caller's thread, and only filled
  // on the pool: an allocation made by a pool thread would come from
  // that thread's malloc arena, and a chunked read would leave each
  // arena holding freed windows.
  const size_t width = schema.size();
  std::vector<std::vector<Value>> columns(width);
  for (auto& column : columns) column.reserve(rows);
  ParallelForChunks(0, width, width, workers,
                    [&](size_t, size_t lo, size_t hi) {
    for (size_t c = lo; c < hi; ++c) columns[c].resize(rows);
  });
  std::vector<Status> statuses(ranges.size());
  ParallelForChunks(0, ranges.size(), ranges.size(), workers,
                    [&](size_t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      statuses[i] =
          ParseRange(data, ranges[i], first_line, width, options, &columns);
      if (map != nullptr) DropParsed(*map, ranges[i].begin, ranges[i].end);
    }
  });
  for (Status& status : statuses) FDX_RETURN_IF_ERROR(status);
  return Table(schema, std::move(columns));
}

/// The parser behind every CSV entry point, over the whole text
/// [data, data + size) — a mapped file or a caller's buffer. Leading
/// blank lines are skipped; the first other line fixes the width (and is
/// the header unless `has_header` is off); from there on every line is a
/// record, ended by '\n' even inside quotes. Rows go to `sink` in windows
/// of at most `chunk_rows` lines (0 = one window), each window parsed by
/// ParseRows. Errors cite 1-based physical line numbers.
Status ParseCsvText(const char* data, size_t size, const MmapFile* map,
                    const CsvOptions& options, size_t chunk_rows,
                    const CsvChunkSink& sink) {
  size_t pos = 0;
  size_t line_number = 0;
  std::string_view first;
  while (pos < size && first.empty()) {
    const size_t next = NextLine(data, pos, size);
    first = Record(data, pos, next);
    ++line_number;
    if (first.empty() || options.has_header) pos = next;
  }
  if (first.empty()) return sink(Table{});

  std::string scratch;
  std::vector<std::string_view> fields;
  SplitRecord(first, options.delimiter, &scratch, &fields);
  std::vector<std::string> names;
  if (options.has_header) {
    std::unordered_set<std::string_view> seen;
    for (size_t c = 0; c < fields.size(); ++c) {
      if (fields[c].empty()) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": empty header name in column " + std::to_string(c + 1));
      }
      if (!seen.insert(fields[c]).second) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": duplicate header name '" + std::string(fields[c]) + "'");
      }
      names.emplace_back(fields[c]);
    }
    ++line_number;
  } else {
    for (size_t c = 0; c < fields.size(); ++c) {
      names.push_back("col" + std::to_string(c));
    }
  }
  const Schema schema(std::move(names));

  bool emitted = false;
  while (pos < size) {
    size_t end = size;
    if (chunk_rows != 0) {
      end = pos;
      for (size_t r = 0; r < chunk_rows && end < size; ++r) {
        end = NextLine(data, end, size);
      }
    }
    FDX_ASSIGN_OR_RETURN(Table chunk, ParseRows(data, pos, end, line_number,
                                                schema, options, map));
    line_number += chunk.num_rows();
    pos = end;
    FDX_RETURN_IF_ERROR(sink(std::move(chunk)));
    emitted = true;
  }
  // A row-less text still delivers one empty chunk: the sink always
  // learns the schema.
  return emitted ? Status::OK() : sink(Table{schema});
}

/// ParseCsvText over the file at `path`: mapped when it is a regular
/// file, read into memory when it cannot be mapped (a pipe, say).
Status ParseCsvFile(const std::string& path, const CsvOptions& options,
                    size_t chunk_rows, const CsvChunkSink& sink) {
  FDX_INJECT_FAULT(kFaultCsvRead,
                   Status::IOError("injected fault: csv.read " + path));
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot open " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    FDX_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
    return ParseCsvText(text.data(), text.size(), nullptr, options,
                        chunk_rows, sink);
  }
  FDX_ASSIGN_OR_RETURN(MmapFile map, MmapFile::Open(path));
  return ParseCsvText(map.data(), map.size(), &map, options, chunk_rows,
                      sink);
}

CsvChunkSink StoreInto(Table* out) {
  return [out](Table&& table) {
    *out = std::move(table);
    return Status::OK();
  };
}

}  // namespace

Result<Table> ReadCsv(const std::string& path, const CsvOptions& options) {
  Table out;
  FDX_RETURN_IF_ERROR(ParseCsvFile(path, options, 0, StoreInto(&out)));
  return out;
}

Result<Table> ReadCsvFromString(const std::string& text,
                                const CsvOptions& options) {
  Table out;
  FDX_RETURN_IF_ERROR(ParseCsvText(text.data(), text.size(), nullptr,
                                   options, 0, StoreInto(&out)));
  return out;
}

Status ReadCsvChunked(const std::string& path, const CsvOptions& options,
                      size_t chunk_rows, const CsvChunkSink& sink) {
  return ParseCsvFile(path, options, chunk_rows, sink);
}

Status ReadCsvChunkedFromString(const std::string& text,
                                const CsvOptions& options, size_t chunk_rows,
                                const CsvChunkSink& sink) {
  return ParseCsvText(text.data(), text.size(), nullptr, options, chunk_rows,
                      sink);
}

Result<Table> ParseCsv(const std::string& text, const CsvOptions& options) {
  return ReadCsvFromString(text, options);
}

Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  const auto quote = [&](const std::string& s) {
    if (s.find(options.delimiter) == std::string::npos &&
        s.find('"') == std::string::npos) {
      return s;
    }
    std::string quoted = "\"";
    for (char ch : s) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << options.delimiter;
    out << quote(table.schema().name(c));
  }
  out << '\n';
  // Doubles go out in shortest round-trip form, not Value::ToString's
  // 6-digit display form, so a written CSV reads back bit-exact.
  const auto text = [](const Value& cell) -> std::string {
    if (cell.type() != ValueType::kDouble) return cell.ToString();
    char buf[32];
    const auto written = std::to_chars(buf, buf + sizeof(buf), cell.AsDouble());
    return std::string(buf, written.ptr);
  };
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << options.delimiter;
      out << quote(text(table.cell(r, c)));
    }
    out << '\n';
  }
  out.flush();
  out.close();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace fdx
