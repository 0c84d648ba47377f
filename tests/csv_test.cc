#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "data/csv.h"
#include "scoped_threads.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fdx {
namespace {

/// A temp path of this process's own. ReadCsv maps its input, and a
/// file rewritten under another process's mapping faults that process —
/// ctest runs each case as its own process, in parallel.
std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + stem + "_" + std::to_string(getpid());
}

TEST(CsvTest, ParsesHeaderAndTypes) {
  auto table = ParseCsv("a,b,c\n1,x,2.5\n2,y,3.5\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->schema().name(0), "a");
  EXPECT_EQ(table->cell(0, 0).type(), ValueType::kInt);
  EXPECT_EQ(table->cell(0, 1).type(), ValueType::kString);
  EXPECT_EQ(table->cell(0, 2).type(), ValueType::kDouble);
}

TEST(CsvTest, EmptyAndNullTokensBecomeNull) {
  auto table = ParseCsv("a,b\n,NULL\nNA,?\n1,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->cell(0, 0).is_null());
  EXPECT_TRUE(table->cell(0, 1).is_null());
  EXPECT_TRUE(table->cell(1, 0).is_null());
  EXPECT_TRUE(table->cell(1, 1).is_null());
  EXPECT_FALSE(table->cell(2, 0).is_null());
}

TEST(CsvTest, QuotedFields) {
  auto table = ParseCsv("a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->cell(0, 0).AsString(), "x,y");
  EXPECT_EQ(table->cell(0, 1).AsString(), "say \"hi\"");
}

TEST(CsvTest, CrLfLineEndings) {
  auto table = ParseCsv("a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->cell(0, 1).AsInt(), 2);
}

TEST(CsvTest, NoHeaderGeneratesColumnNames) {
  CsvOptions options;
  options.has_header = false;
  auto table = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->schema().name(0), "col0");
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto table = ParseCsv("a;b\n1;2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->cell(0, 1).AsInt(), 2);
}

TEST(CsvTest, RaggedRowFails) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
}

TEST(CsvTest, RaggedRowErrorNamesLine) {
  auto table = ParseCsv("a,b\n1,2\n3\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos)
      << table.status().message();
}

TEST(CsvTest, DuplicateHeaderRejected) {
  auto table = ParseCsv("a,b,a\n1,2,3\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("'a'"), std::string::npos);
}

TEST(CsvTest, EmptyHeaderRejected) {
  auto table = ParseCsv("a,,c\n1,2,3\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("line 1"), std::string::npos);
}

TEST(CsvTest, HeaderlessInputSkipsHeaderValidation) {
  CsvOptions options;
  options.has_header = false;
  EXPECT_TRUE(ParseCsv("1,2\n3,4\n", options).ok());
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsv("/nonexistent/path/file.csv").ok());
}

TEST(CsvTest, ReadCsvFromStringMatchesReadCsv) {
  // ReadCsv parses a mapped file, ReadCsvFromString a caller's buffer,
  // through the same parser; pin the two paths to identical results.
  const std::string text = "a,b,c\n1,x,2.5\n,NULL,\"q,z\"\n3,y,4.5\n";
  auto from_string = ReadCsvFromString(text);
  ASSERT_TRUE(from_string.ok());

  const std::string path = TempPath("fdx_csv_string_test");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  auto from_file = ReadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(from_file.ok());

  ASSERT_EQ(from_string->num_rows(), from_file->num_rows());
  ASSERT_EQ(from_string->num_columns(), from_file->num_columns());
  for (size_t r = 0; r < from_string->num_rows(); ++r) {
    for (size_t c = 0; c < from_string->num_columns(); ++c) {
      EXPECT_EQ(from_string->cell(r, c).ToString(),
                from_file->cell(r, c).ToString())
          << "cell " << r << "," << c;
    }
  }
}

TEST(CsvTest, ReadCsvFromStringKeepsLineNumbersInErrors) {
  auto ragged = ReadCsvFromString("a,b\n1,2\n3\n");
  ASSERT_FALSE(ragged.ok());
  EXPECT_NE(ragged.status().message().find("line 3"), std::string::npos)
      << ragged.status().ToString();
}

TEST(CsvTest, ReadCsvFromStringHandlesMissingTrailingNewline) {
  auto table = ReadCsvFromString("a,b\n1,2\n3,4");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->cell(1, 1).AsInt(), 4);
}

TEST(CsvTest, ReadCsvFromStringEmptyInputYieldsEmptyTable) {
  auto table = ReadCsvFromString("");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_EQ(table->num_columns(), 0u);
}

TEST(CsvTest, WriteReadRoundTrip) {
  Table t{Schema({"name", "count", "note"})};
  t.AppendRow({Value(std::string("alpha")), Value(int64_t{1}),
               Value(std::string("a,b"))});
  t.AppendRow({Value(std::string("beta")), Value(int64_t{2}), Value::Null()});
  const std::string path = TempPath("fdx_csv_test");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->cell(0, 0).AsString(), "alpha");
  EXPECT_EQ(back->cell(0, 2).AsString(), "a,b");  // quoting survived
  EXPECT_EQ(back->cell(1, 1).AsInt(), 2);
  EXPECT_TRUE(back->cell(1, 2).is_null());
  std::remove(path.c_str());
}

TEST(CsvTest, WriteCsvRoundTripsDoublesBitExact) {
  // Shortest round-trip form: none of these survive a 6-digit %g. An
  // integral double prints in integer form and reads back as that int.
  const double cells[] = {0.1, 0.123456789, 1234567.5, 1e300,
                          4.9406564584124654e-324, -2.5e-310};
  Table t{Schema({"x", "integral"})};
  for (double cell : cells) t.AppendRow({Value(cell), Value(3.0)});
  const std::string path = TempPath("fdx_csv_doubles_test");
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto back = ReadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(back.ok()) << back.status().message();
  ASSERT_EQ(back->num_rows(), std::size(cells));
  for (size_t r = 0; r < std::size(cells); ++r) {
    ASSERT_EQ(back->cell(r, 0).type(), ValueType::kDouble) << r;
    double read = back->cell(r, 0).AsDouble();
    uint64_t want_bits = 0;
    uint64_t read_bits = 0;
    std::memcpy(&want_bits, &cells[r], sizeof(want_bits));
    std::memcpy(&read_bits, &read, sizeof(read_bits));
    EXPECT_EQ(read_bits, want_bits) << "row " << r;
    ASSERT_EQ(back->cell(r, 1).type(), ValueType::kInt);
    EXPECT_EQ(back->cell(r, 1).AsInt(), 3);
  }
}

// --- chunked streaming reader ------------------------------------------

/// Concatenates the chunks a chunked read produces back into one table.
Result<Table> ReassembleChunks(const std::string& text,
                               const CsvOptions& options, size_t chunk_rows,
                               size_t* num_chunks = nullptr) {
  Table out;
  bool first = true;
  size_t count = 0;
  FDX_RETURN_IF_ERROR(ReadCsvChunkedFromString(
      text, options, chunk_rows, [&](Table&& chunk) {
        ++count;
        if (first) {
          out = Table{chunk.schema()};
          first = false;
        }
        std::vector<Value> row(chunk.num_columns());
        for (size_t r = 0; r < chunk.num_rows(); ++r) {
          for (size_t c = 0; c < chunk.num_columns(); ++c) {
            row[c] = chunk.cell(r, c);
          }
          out.AppendRow(row);
        }
        return Status::OK();
      }));
  if (num_chunks != nullptr) *num_chunks = count;
  return out;
}

void ExpectTablesIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.schema().names(), b.schema().names());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      const Value& x = a.cell(r, c);
      const Value& y = b.cell(r, c);
      ASSERT_EQ(static_cast<int>(x.type()), static_cast<int>(y.type()))
          << "row " << r << " col " << c;
      if (!x.is_null()) {
        EXPECT_TRUE(x.EqualsStrict(y)) << "row " << r << " col " << c;
      }
    }
  }
}

TEST(CsvChunkedTest, ChunksReassembleToTheWholeFileRead) {
  std::string text = "a,b,c\n";
  for (int r = 0; r < 53; ++r) {
    text += std::to_string(r) + "," + (r % 7 == 0 ? "NULL" : "x" +
            std::to_string(r % 3)) + "," + std::to_string(r * 0.5) + "\n";
  }
  auto whole = ReadCsvFromString(text);
  ASSERT_TRUE(whole.ok());
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{53}, size_t{1000}}) {
    size_t num_chunks = 0;
    auto chunked = ReassembleChunks(text, {}, chunk_rows, &num_chunks);
    ASSERT_TRUE(chunked.ok()) << chunk_rows;
    ExpectTablesIdentical(whole.value(), chunked.value());
    EXPECT_EQ(num_chunks, (53 + chunk_rows - 1) / chunk_rows);
  }
}

TEST(CsvChunkedTest, MidFileErrorReportsTheSameLineOnBothPaths) {
  // Row 4 (line 5, counting the header) is ragged. The chunked reader
  // must cite the same 1-based physical line as the whole-file reader,
  // no matter where the chunk boundaries fall.
  const std::string text = "a,b\n1,2\n3,4\n5,6\nbroken\n7,8\n";
  auto whole = ReadCsvFromString(text);
  ASSERT_FALSE(whole.ok());
  ASSERT_NE(whole.status().message().find("line 5"), std::string::npos)
      << whole.status().ToString();
  for (size_t chunk_rows : {size_t{1}, size_t{2}, size_t{100}}) {
    auto chunked = ReassembleChunks(text, {}, chunk_rows);
    ASSERT_FALSE(chunked.ok()) << chunk_rows;
    EXPECT_EQ(chunked.status().code(), whole.status().code());
    EXPECT_EQ(chunked.status().message(), whole.status().message());
  }
}

TEST(CsvChunkedTest, HeaderlessChunksCarrySynthesizedSchema) {
  const std::string text = "1,2\n3,4\n5,6\n";
  CsvOptions options;
  options.has_header = false;
  size_t num_chunks = 0;
  auto chunked = ReassembleChunks(text, options, 2, &num_chunks);
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(num_chunks, 2u);
  EXPECT_EQ(chunked->schema().name(0), "col0");
  EXPECT_EQ(chunked->schema().name(1), "col1");
  EXPECT_EQ(chunked->num_rows(), 3u);
}

TEST(CsvChunkedTest, RowLessInputStillDeliversOneChunkWithSchema) {
  size_t num_chunks = 0;
  auto chunked = ReassembleChunks("a,b\n", {}, 4, &num_chunks);
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(num_chunks, 1u);
  EXPECT_EQ(chunked->num_rows(), 0u);
  EXPECT_EQ(chunked->schema().name(1), "b");
}

TEST(CsvChunkedTest, SinkErrorAbortsTheRead) {
  const std::string text = "a\n1\n2\n3\n4\n";
  size_t calls = 0;
  const Status status = ReadCsvChunkedFromString(
      text, {}, 1, [&](Table&&) {
        ++calls;
        return calls == 2 ? Status::Internal("sink says stop")
                          : Status::OK();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "sink says stop");
  EXPECT_EQ(calls, 2u);
}

TEST(CsvChunkedTest, FileAndStringChunkingAgree) {
  std::string text = "a,b\n";
  for (int r = 0; r < 20; ++r) {
    text += std::to_string(r) + "," + std::to_string(r % 3) + "\n";
  }
  const std::string path = TempPath("fdx_csv_chunk_test");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  size_t rows_string = 0;
  size_t rows_file = 0;
  ASSERT_TRUE(ReadCsvChunkedFromString(text, {}, 6, [&](Table&& chunk) {
                rows_string += chunk.num_rows();
                return Status::OK();
              }).ok());
  ASSERT_TRUE(ReadCsvChunked(path, {}, 6, [&](Table&& chunk) {
                rows_file += chunk.num_rows();
                return Status::OK();
              }).ok());
  EXPECT_EQ(rows_string, 20u);
  EXPECT_EQ(rows_file, 20u);
  std::remove(path.c_str());
}

TEST(CsvTest, WriteCsvReportsFailedWrites) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  Table t{Schema({"a"})};
  for (int64_t r = 0; r < 10000; ++r) t.AppendRow({Value(r)});
  const Status written = WriteCsv(t, "/dev/full");
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kIOError);
  EXPECT_NE(written.message().find("/dev/full"), std::string::npos)
      << written.ToString();
}

TEST(CsvTest, ReadingADirectoryFailsNamingIt) {
  const std::string dir = TempPath("fdx_csv_dir_test");
  std::filesystem::create_directories(dir);
  auto table = ReadCsv(dir);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
  EXPECT_NE(table.status().message().find(dir), std::string::npos)
      << table.status().ToString();
  std::filesystem::remove(dir);
}

TEST(CsvTest, ReadsAPipe) {
  const std::string path = TempPath("fdx_csv_fifo_test");
  std::remove(path.c_str());
  if (mkfifo(path.c_str(), 0600) != 0) GTEST_SKIP() << "no mkfifo here";
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\n1,x\n2,y\n";
  });
  auto table = ReadCsv(path);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->cell(1, 1).AsString(), "y");
}

TEST(CsvTest, NewlineInsideQuotesEndsTheRecord) {
  // A newline always ends a record, even inside quotes: the quoted
  // field runs to the end of its line, which leaves the row short.
  auto table = ParseCsv("a,b\n\"x\ny\",2\n");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError);
  EXPECT_EQ(table.status().message(),
            "line 2: CSV row with 1 fields; expected 2");
}

// --- differential test against the line-by-line stream parser -----------

/// The stream parser the byte-range parser replaced: std::getline, one
/// std::string per field, rows appended one at a time. It is the oracle
/// for every entry point's tables and error messages.
std::vector<std::string> OracleSplit(const std::string& line, char delim) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == delim) {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += ch;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

Result<Table> OracleParse(const std::string& text, const CsvOptions& options) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> header;
  Table out;
  bool have_schema = false;
  bool any_rows = false;
  size_t width = 0;
  size_t line_number = 0;
  bool first = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() && !any_rows && header.empty()) continue;
    std::vector<std::string> fields = OracleSplit(line, options.delimiter);
    if (first) {
      width = fields.size();
      first = false;
      if (options.has_header) {
        std::unordered_set<std::string> seen;
        for (size_t c = 0; c < fields.size(); ++c) {
          if (fields[c].empty()) {
            return Status::InvalidArgument(
                "line " + std::to_string(line_number) +
                ": empty header name in column " + std::to_string(c + 1));
          }
          if (!seen.insert(fields[c]).second) {
            return Status::InvalidArgument(
                "line " + std::to_string(line_number) +
                ": duplicate header name '" + fields[c] + "'");
          }
        }
        header = std::move(fields);
        continue;
      }
      for (size_t i = 0; i < width; ++i) {
        header.push_back("col" + std::to_string(i));
      }
    }
    if (fields.size() != width) {
      return Status::IOError("line " + std::to_string(line_number) +
                             ": CSV row with " +
                             std::to_string(fields.size()) +
                             " fields; expected " + std::to_string(width));
    }
    if (!have_schema) {
      out = Table{Schema(header)};
      have_schema = true;
    }
    std::vector<Value> row;
    row.reserve(width);
    for (auto& field : fields) {
      const std::string trimmed(StripAsciiWhitespace(field));
      bool null = trimmed.empty();
      for (const auto& token : options.null_tokens) null |= trimmed == token;
      row.push_back(null ? Value::Null() : Value::Parse(trimmed));
    }
    out.AppendRow(std::move(row));
    any_rows = true;
  }
  if (!have_schema) out = Table{Schema(std::move(header))};
  return out;
}

/// Cell for cell and type for type; doubles compare by bit pattern, so
/// NaN payloads and signed zeros count.
void ExpectSameCells(const Table& want, const Table& got,
                     const std::string& what) {
  ASSERT_EQ(want.schema().names(), got.schema().names()) << what;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << what;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    for (size_t r = 0; r < want.num_rows(); ++r) {
      const Value& x = want.cell(r, c);
      const Value& y = got.cell(r, c);
      ASSERT_EQ(static_cast<int>(x.type()), static_cast<int>(y.type()))
          << what << ": row " << r << " col " << c;
      bool same = true;
      switch (x.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kInt:
          same = x.AsInt() == y.AsInt();
          break;
        case ValueType::kDouble: {
          const double a = x.AsDouble();
          const double b = y.AsDouble();
          same = std::memcmp(&a, &b, sizeof(a)) == 0;
          break;
        }
        case ValueType::kString:
          same = x.AsString() == y.AsString();
          break;
      }
      ASSERT_TRUE(same) << what << ": row " << r << " col " << c << " '"
                        << x.ToString() << "' vs '" << y.ToString() << "'";
    }
  }
}

constexpr size_t kCorpusColumns = 7;

/// One random cell of column `c`: typed, boundary and malformed numbers,
/// quoted fields with delimiters and "" escapes, null tokens (bare,
/// padded and quoted) and surrounding whitespace.
std::string CorpusCell(size_t c, Rng* rng) {
  static const char* const kNumbers[] = {
      "9007199254740993", "9007199254740992", "-0", "007", "1e400",
      "-1e400", "nan", "-nan", "inf", "-inf", "-0.0", "0.0", "1e-320",
      "99999999999999999999", "+5", ".5", "5.", "0x10", "1e5", "3.0"};
  static const char* const kNulls[] = {"", "NULL", "null", "NA", "?",
                                       " NA ", "\"NULL\"", "\t?"};
  static const char* const kQuoted[] = {
      "\"a,b\"", "\"say \"\"hi\"\"\"", "x\"y\"z", "\"\"", "\" padded \"",
      "\"12\"", "\"1,5\"", "ab\"\"c", "\"q\"\",r\""};
  switch (c) {
    case 0:
      return std::to_string(rng->NextInt(-50, 50));
    case 1:
      return kNumbers[rng->NextUint64(std::size(kNumbers))];
    case 2:
      return rng->NextBernoulli(0.5)
                 ? kQuoted[rng->NextUint64(std::size(kQuoted))]
                 : "w" + std::to_string(rng->NextUint64(40));
    case 3:
      return rng->NextBernoulli(0.6)
                 ? kNulls[rng->NextUint64(std::size(kNulls))]
                 : std::to_string(rng->NextUint64(9));
    case 4: {
      const char* const pad[] = {"", " ", "\t", "  "};
      return pad[rng->NextUint64(4)] + std::to_string(rng->NextDouble()) +
             pad[rng->NextUint64(4)];
    }
    case 5:
      return rng->NextBernoulli(0.1) ? ""
                                     : "k" + std::to_string(rng->NextUint64(7));
    default:
      // An unterminated quote runs to the end of the record: last column
      // only, or it would swallow the delimiters after it.
      if (rng->NextBernoulli(0.05)) return "\"unterminated, still one";
      return std::string(40 + rng->NextUint64(40), 'a' + rng->NextUint64(26));
  }
}

/// A few MiB of CSV: leading blank lines (one of them CRLF), a header,
/// mixed LF/CRLF line ends and no newline after the last row.
std::string MakeCorpus(bool header, size_t bytes, uint64_t seed) {
  Rng rng(seed);
  std::string text = "\n\r\n\n";
  if (header) text += "a,b,c,d,e,f,g\r\n";
  while (text.size() < bytes) {
    for (size_t c = 0; c < kCorpusColumns; ++c) {
      if (c > 0) text += ',';
      text += CorpusCell(c, &rng);
    }
    text += rng.NextBernoulli(0.3) ? "\r\n" : "\n";
  }
  while (text.back() == '\n' || text.back() == '\r') text.pop_back();
  return text;
}

/// A one-column CSV whose body holds blank and whitespace-only lines:
/// there every line is a record, a blank one a null.
std::string MakeOneColumnCorpus(size_t bytes, uint64_t seed) {
  Rng rng(seed);
  std::string text = "\r\n\nv\n";
  const std::string lines[] = {"",     "\r",    "  ",    " 7 ",
                               "\"q,\"\"uoted\"\"\"", " NA ", "-0.0", "1e400",
                               std::string(200, 'v')};
  while (text.size() < bytes) {
    text += lines[rng.NextUint64(std::size(lines))];
    text += '\n';
  }
  return text;
}


/// Every entry point over `text` at `threads`, checked against the
/// oracle: the same table, or the same status, code and message.
void CheckAgainstOracle(const std::string& text, const CsvOptions& options,
                        const std::string& what) {
  const Result<Table> want = OracleParse(text, options);
  const std::string path = TempPath(
      std::string("fdx_csv_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const auto expect_same = [&](const Result<Table>& got,
                               const std::string& how) {
    if (!want.ok()) {
      ASSERT_FALSE(got.ok()) << how;
      EXPECT_EQ(got.status().code(), want.status().code()) << how;
      EXPECT_EQ(got.status().message(), want.status().message()) << how;
      return;
    }
    ASSERT_TRUE(got.ok()) << how << ": " << got.status().ToString();
    ExpectSameCells(want.value(), got.value(), how);
  };
  for (size_t threads : {1, 2, 4, 8}) {
    ScopedThreads scoped(threads);
    const std::string at =
        what + " at " + std::to_string(threads) + " threads";
    expect_same(ReadCsv(path, options), "ReadCsv " + at);
    expect_same(ReadCsvFromString(text, options), "ReadCsvFromString " + at);
    for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{65536}}) {
      Table whole;
      std::vector<size_t> sizes;
      const Status read = ReadCsvChunked(
          path, options, chunk_rows, [&](Table&& chunk) {
            if (sizes.empty()) whole = Table{chunk.schema()};
            sizes.push_back(chunk.num_rows());
            std::vector<Value> row(chunk.num_columns());
            for (size_t r = 0; r < chunk.num_rows(); ++r) {
              for (size_t c = 0; c < chunk.num_columns(); ++c) {
                row[c] = chunk.cell(r, c);
              }
              whole.AppendRow(row);
            }
            return Status::OK();
          });
      const std::string how =
          "ReadCsvChunked/" + std::to_string(chunk_rows) + " " + at;
      if (!read.ok()) {
        expect_same(read, how);
        continue;
      }
      expect_same(whole, how);
      if (!want.ok()) continue;
      // Full windows, then the remainder; a row-less file one empty chunk.
      const size_t rows = want.value().num_rows();
      std::vector<size_t> expected(rows / chunk_rows, chunk_rows);
      if (rows % chunk_rows != 0 || rows == 0) {
        expected.push_back(rows % chunk_rows);
      }
      EXPECT_EQ(sizes, expected) << how;
    }
  }
  std::remove(path.c_str());
}

/// Offset of the first line of the second body range: the parser cuts
/// after the first newline at or beyond 1 MiB - 1 into the body, when
/// the body is under 4 MiB (below that every thread count gets ranges
/// of exactly the 1 MiB floor).
size_t SecondRangeStart(const std::string& text, size_t body_begin) {
  return text.find('\n', body_begin + (size_t{1} << 20) - 1) + 1;
}

class CsvDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Size the shared pool for the widest thread count checked below.
    ScopedThreads scoped(8);
    (void)ThreadPool::Shared();
  }
};

TEST_F(CsvDifferentialTest, HeaderedCorpusMatchesTheOracle) {
  const std::string text = MakeCorpus(/*header=*/true, 5 << 18, 1);
  ASSERT_LT(text.size(), size_t{4} << 20);
  auto oracle = OracleParse(text, {});
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_GT(oracle->num_rows(), 10000u);
  CheckAgainstOracle(text, {}, "headered");
}

TEST_F(CsvDifferentialTest, HeaderlessCorpusMatchesTheOracle) {
  CsvOptions options;
  options.has_header = false;
  const std::string text = MakeCorpus(/*header=*/false, 5 << 18, 2);
  auto oracle = OracleParse(text, options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(oracle->schema().name(6), "col6");
  CheckAgainstOracle(text, options, "headerless");
}

TEST_F(CsvDifferentialTest, BlankBodyLinesAreNullRows) {
  const std::string text = MakeOneColumnCorpus(5 << 18, 3);
  auto oracle = OracleParse(text, {});
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  size_t nulls = 0;
  for (const Value& v : oracle->column(0)) nulls += v.is_null();
  EXPECT_GT(nulls, oracle->num_rows() / 4);
  CheckAgainstOracle(text, {}, "one column");
}

TEST_F(CsvDifferentialTest, RaggedRowsReportTheOraclesMessage) {
  const std::string text = MakeCorpus(/*header=*/true, 5 << 18, 4);
  const size_t body = text.find("a,b,c,d,e,f,g\r\n") + 15;
  const size_t second = SecondRangeStart(text, body);
  const size_t last = text.rfind('\n') + 1;
  const size_t early = text.find('\n', body + 1000) + 1;
  const auto ragged_at = [&](size_t pos, const std::string& row) {
    return text.substr(0, pos) + row + text.substr(pos);
  };
  // The first line of the second range, the first body line, the last
  // range (a long row before a long last line with no newline), and
  // ragged rows in the first and the last range at once. The earliest
  // one is reported.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"first line of a range", ragged_at(second, "1,2\n")},
      {"first body line", ragged_at(body, "\n")},
      {"last range", ragged_at(last, "1,2,3,4,5,6,7,8\r\n") + ",extra"},
      {"two ranges", ragged_at(early, "\n") + ",extra"},
  };
  ASSERT_EQ(SecondRangeStart(cases[0].second, body), second);
  for (const auto& [what, input] : cases) {
    auto oracle = OracleParse(input, {});
    ASSERT_FALSE(oracle.ok()) << what;
    CheckAgainstOracle(input, {}, what);
  }
}

}  // namespace
}  // namespace fdx
