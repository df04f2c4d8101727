// Tests for the CSV importer/exporter.

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/csv.h"
#include "relational/dependency.h"
#include "util/rng.h"
#include "util/strings.h"

namespace psem {
namespace {

TEST(CsvRecordTest, PlainFields) {
  auto f = *ParseCsvRecord("a,b,c");
  EXPECT_EQ(f, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ParseCsvRecord("")->size(), 1u);  // one empty field
  EXPECT_EQ(ParseCsvRecord("a,,c")->at(1), "");
}

TEST(CsvRecordTest, QuotedFields) {
  auto f = *ParseCsvRecord("\"a,b\",\"say \"\"hi\"\"\",plain");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "say \"hi\"");
  EXPECT_EQ(f[2], "plain");
}

TEST(CsvRecordTest, Errors) {
  EXPECT_FALSE(ParseCsvRecord("\"unterminated").ok());
  EXPECT_FALSE(ParseCsvRecord("ab\"cd\"").ok());
}

TEST(CsvRecordTest, ToleratesCrlf) {
  auto f = *ParseCsvRecord("a,b\r");
  EXPECT_EQ(f[1], "b");
}

TEST(CsvLoadTest, HeaderAndRows) {
  Database db;
  auto ri = LoadCsvRelation("A,B,C\n1,2,3\n4,5,6\n", &db, "t");
  ASSERT_TRUE(ri.ok());
  const Relation& r = db.relation(*ri);
  EXPECT_EQ(r.arity(), 3u);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(db.universe().Require("B").ok());
}

TEST(CsvLoadTest, RowWidthMismatch) {
  Database db;
  EXPECT_FALSE(LoadCsvRelation("A,B\n1\n", &db).ok());
  Database db2;
  EXPECT_FALSE(LoadCsvRelation("", &db2).ok());
  Database db3;
  EXPECT_FALSE(LoadCsvRelation("A,9bad\n1,2\n", &db3).ok());
}

TEST(CsvLoadTest, DuplicateRowsDeduplicated) {
  Database db;
  auto ri = LoadCsvRelation("A\nx\nx\ny\n", &db);
  ASSERT_TRUE(ri.ok());
  EXPECT_EQ(db.relation(*ri).size(), 2u);
}

TEST(CsvRoundTripTest, DumpThenLoad) {
  Database db;
  auto ri = LoadCsvRelation(
      "Name,Quote\nann,\"hello, world\"\nbob,\"she said \"\"hi\"\"\"\n", &db);
  ASSERT_TRUE(ri.ok());
  std::string dumped = DumpCsvRelation(db, db.relation(*ri));
  Database db2;
  auto ri2 = LoadCsvRelation(dumped, &db2, "again");
  ASSERT_TRUE(ri2.ok());
  EXPECT_EQ(DumpCsvRelation(db2, db2.relation(*ri2)), dumped);
  EXPECT_EQ(db2.relation(*ri2).size(), 2u);
}

TEST(CsvLoadTest, IntegratesWithDiscoveryPipeline) {
  // The adoption path: CSV in, dependencies out.
  Database db;
  auto ri = LoadCsvRelation(
      "Emp,Mgr,Floor\n"
      "ann,kim,3\n"
      "bob,kim,3\n"
      "eve,lee,2\n",
      &db, "staff");
  ASSERT_TRUE(ri.ok());
  // Emp -> Mgr and Mgr -> Floor hold in this data.
  Fd emp_mgr = *Fd::Parse(&db.universe(), "Emp -> Mgr");
  Fd mgr_floor = *Fd::Parse(&db.universe(), "Mgr -> Floor");
  EXPECT_TRUE(*SatisfiesFd(db.relation(*ri), emp_mgr));
  EXPECT_TRUE(*SatisfiesFd(db.relation(*ri), mgr_floor));
}

TEST(CsvRecordTest, FieldOfMaxLengthOnlyAtEndOfRecord) {
  // A field's length is checked before each byte it consumes, so a field
  // of exactly kMaxCsvFieldBytes loads only when no byte follows it.
  const std::string max(kMaxCsvFieldBytes, 'x');
  auto last = ParseCsvRecord("a," + max);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last->at(1), max);
  EXPECT_FALSE(ParseCsvRecord(max + ",a").ok());
  EXPECT_FALSE(ParseCsvRecord(max + "\r").ok());
  EXPECT_FALSE(ParseCsvRecord(max + "x").ok());
  // The closing quote is a byte after the field's content too.
  EXPECT_FALSE(ParseCsvRecord("\"" + max + "\"").ok());
  auto quoted = ParseCsvRecord("\"" + max.substr(1) + "\"");
  ASSERT_TRUE(quoted.ok());
  EXPECT_EQ(quoted->at(0).size(), kMaxCsvFieldBytes - 1);

  Database db;
  ASSERT_TRUE(LoadCsvRelation("A,B\na," + max + "\n", &db).ok());
  Database db2;
  auto bad = LoadCsvRelation("A,B\n" + max + ",a\n", &db2);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "CSV field exceeds the maximum length of " +
                                        std::to_string(kMaxCsvFieldBytes) +
                                        " bytes");
  EXPECT_EQ(db2.num_relations(), 0u);
}

TEST(CsvRecordTest, TextAfterClosingQuoteJoinsTheField) {
  auto f = ParseCsvRecord("\"a\"b,c");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f, (std::vector<std::string>{"ab", "c"}));
  auto bad = ParseCsvRecord("\"a\"b\"");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "quote in the middle of a field");
}

TEST(CsvRecordTest, CrOutsideQuotesIsDroppedInsideIsKept) {
  EXPECT_EQ(*ParseCsvRecord("a\rb,\rc\r"),
            (std::vector<std::string>{"ab", "c"}));
  EXPECT_EQ(*ParseCsvRecord("\"a\rb\",c"),
            (std::vector<std::string>{"a\rb", "c"}));
}

// --- Differential test against the line-split loader ----------------------
//
// The reference below is the loader as it was before it became one pass
// over string_views: split into line copies, parse each record into a
// vector<string> char by char, stage every row, then AddRow. It is a
// test-only oracle; the production loader must agree with it on every
// input, byte for byte in its statuses.

Result<std::vector<std::string>> RefParseCsvRecord(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (current.size() >= kMaxCsvFieldBytes) {
      return Status::InvalidArgument(
          "CSV field exceeds the maximum length of " +
          std::to_string(kMaxCsvFieldBytes) + " bytes");
    }
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      if (!current.empty()) {
        return Status::InvalidArgument("quote in the middle of a field");
      }
      in_quotes = true;
    } else if (c == ',') {
      if (fields.size() + 1 >= kMaxCsvFields) {
        return Status::InvalidArgument(
            "CSV record exceeds the maximum of " +
            std::to_string(kMaxCsvFields) + " fields");
      }
      fields.push_back(current);
      current.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      current += c;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field");
  }
  fields.push_back(current);
  return fields;
}

Result<std::size_t> RefLoadCsvRelation(const std::string& csv_text,
                                       Database* db, const std::string& name) {
  if (csv_text.size() > kMaxCsvBytes) {
    return Status::InvalidArgument(
        "CSV input of " + std::to_string(csv_text.size()) +
        " bytes exceeds the maximum of " + std::to_string(kMaxCsvBytes));
  }
  std::vector<std::string> lines;
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= csv_text.size(); ++i) {
      if (i == csv_text.size() || csv_text[i] == '\n') {
        std::string line = csv_text.substr(start, i - start);
        if (!StripAsciiWhitespace(line).empty()) lines.push_back(line);
        start = i + 1;
      }
    }
  }
  if (lines.empty()) {
    return Status::InvalidArgument("CSV needs a header row");
  }
  PSEM_ASSIGN_OR_RETURN(std::vector<std::string> header,
                        RefParseCsvRecord(lines[0]));
  std::unordered_set<std::string> seen_attrs;
  for (auto& h : header) {
    h = std::string(StripAsciiWhitespace(h));
    if (!IsIdentifier(h)) {
      return Status::InvalidArgument("header field '" + h +
                                     "' is not a valid attribute name");
    }
    if (!seen_attrs.insert(h).second) {
      return Status::InvalidArgument("duplicate attribute '" + h +
                                     "' in CSV header");
    }
  }
  std::vector<std::vector<std::string>> rows;
  rows.reserve(lines.size() - 1);
  for (std::size_t l = 1; l < lines.size(); ++l) {
    PSEM_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                          RefParseCsvRecord(lines[l]));
    if (fields.size() != header.size()) {
      return Status::InvalidArgument(
          "row " + std::to_string(l) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(header.size()));
    }
    rows.push_back(std::move(fields));
  }
  std::size_t ri = db->AddRelation(name, header);
  Relation& r = db->relation(ri);
  for (const auto& fields : rows) r.AddRow(&db->symbols(), fields);
  return ri;
}

// One field of a random record: mostly well-formed (plain, empty, quoted
// with commas, escaped quotes and CRs), sometimes raw bytes from the
// characters the scanner treats specially.
std::string RandomField(Rng* rng, bool dirty) {
  static const char* const kPlain[] = {"a", "b", "x1", "0", "42", " a", "b "};
  static const char* const kQuoted[] = {
      "\"a,b\"", "\"\"", "\"say \"\"hi\"\"\"", "\"a\rb\"", "\"x\"y", "\"0\""};
  if (dirty && rng->Chance(1, 3)) {
    static const char kBytes[] = {'a', ',', '"', '\r', ' ', 'b'};
    std::string soup;
    for (uint64_t n = rng->Below(5); n > 0; --n) soup += kBytes[rng->Below(6)];
    return soup;
  }
  switch (rng->Below(6)) {
    case 0:
      return "";
    case 1:
      return kQuoted[rng->Below(6)];
    case 2:
      return std::string(kPlain[rng->Below(7)]) + "\r";
    default:
      return kPlain[rng->Below(7)];
  }
}

std::string RandomCsv(Rng* rng) {
  const bool dirty = rng->Chance(1, 3);
  static const char* const kAttrs[] = {"A", "B", "C", "D", "Emp"};
  const uint64_t arity = 1 + rng->Below(4);
  std::string csv;
  for (uint64_t i = rng->Below(2); i > 0; --i) csv += rng->Chance(1, 2) ? "\n" : " \t\n";
  for (uint64_t c = 0; c < arity; ++c) {
    if (c > 0) csv += ',';
    if (rng->Chance(1, 25)) {
      csv += rng->Chance(1, 2) ? "9bad" : kAttrs[0];  // invalid or repeated
    } else {
      csv += c == 0 ? "" : " ";
      csv += kAttrs[c];
    }
  }
  csv += rng->Chance(1, 4) ? "\r\n" : "\n";
  std::vector<std::string> rows;
  for (uint64_t r = rng->Below(12); r > 0; --r) {
    switch (rng->Below(10)) {
      case 0:
        csv += rng->Chance(1, 2) ? "\n" : "  \r\n";  // blank line
        continue;
      case 1:
        if (!rows.empty()) {
          csv += rows[rng->Below(rows.size())];  // duplicate row
          continue;
        }
        break;
      default:
        break;
    }
    uint64_t width = arity;
    if (dirty && rng->Chance(1, 8)) width = rng->Below(arity + 2);
    std::string row;
    for (uint64_t c = 0; c < width; ++c) {
      if (c > 0) row += ',';
      row += RandomField(rng, dirty);
    }
    row += rng->Chance(1, 5) ? "\r\n" : "\n";
    rows.push_back(row);
    csv += row;
  }
  if (rng->Chance(1, 3) && !csv.empty()) csv.pop_back();  // no final newline
  return csv;
}

// A database that already holds symbols (some of which the CSV reuses)
// and a relation, so new symbols do not start at ValueId 0.
void Prefill(Database* db) {
  db->symbols().Intern("b");
  db->symbols().Intern("zz");
  db->symbols().Intern("42");
  std::size_t ri = db->AddRelation("old", {"B", "Z"});
  db->relation(ri).AddRow(&db->symbols(), {"a", "q"});
}

void ExpectSameDatabase(const Database& want, const Database& got) {
  ASSERT_EQ(want.num_relations(), got.num_relations());
  ASSERT_EQ(want.symbols().size(), got.symbols().size());
  for (ValueId v = 0; v < want.symbols().size(); ++v) {
    ASSERT_EQ(want.symbols().NameOf(v), got.symbols().NameOf(v)) << v;
  }
  ASSERT_EQ(want.universe().size(), got.universe().size());
  for (RelAttrId a = 0; a < want.universe().size(); ++a) {
    ASSERT_EQ(want.universe().NameOf(a), got.universe().NameOf(a)) << a;
  }
  for (std::size_t i = 0; i < want.num_relations(); ++i) {
    EXPECT_EQ(want.relation(i).schema().name, got.relation(i).schema().name);
    EXPECT_EQ(want.relation(i).schema().attrs, got.relation(i).schema().attrs);
    EXPECT_EQ(want.relation(i).rows(), got.relation(i).rows());
  }
}

TEST(CsvDifferentialTest, MatchesLineSplitLoader) {
  Rng rng(20261019);
  int loaded = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string csv = RandomCsv(&rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + csv);
    Database want, got, untouched;
    Prefill(&want);
    Prefill(&got);
    Prefill(&untouched);
    auto w = RefLoadCsvRelation(csv, &want, "t");
    auto g = LoadCsvRelation(csv, &got, "t");
    ASSERT_EQ(w.ok(), g.ok()) << (w.ok() ? g.status() : w.status()).ToString();
    if (w.ok()) {
      ++loaded;
      EXPECT_EQ(*w, *g);
    } else {
      ++rejected;
      EXPECT_EQ(w.status().code(), g.status().code());
      EXPECT_EQ(w.status().message(), g.status().message());
      ExpectSameDatabase(untouched, got);
    }
    ExpectSameDatabase(want, got);
  }
  // Both outcomes are well represented.
  EXPECT_GT(loaded, 1000);
  EXPECT_GT(rejected, 300);
}

}  // namespace
}  // namespace psem
