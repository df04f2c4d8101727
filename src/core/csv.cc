#include "core/csv.h"

#include <algorithm>
#include <unordered_set>

#include "util/interner.h"
#include "util/strings.h"

namespace psem {

namespace {

Status FieldTooLong() {
  return Status::InvalidArgument("CSV field exceeds the maximum length of " +
                                 std::to_string(kMaxCsvFieldBytes) + " bytes");
}

// Splits one record, calling `sink(std::string_view)` once per field in
// order. A plain field (no quote, no CR) is a view into `line`; any other
// field is unescaped into `*buf`, so the view is valid only during the
// call. One state machine: a field's length is checked before each byte
// it consumes, so a field of exactly kMaxCsvFieldBytes is accepted only
// at the end of the record.
template <typename Sink>
Status ScanCsvRecord(std::string_view line, std::string* buf, Sink&& sink) {
  const std::size_t n = line.size();
  std::size_t fields = 0;
  std::size_t i = 0;
  while (true) {
    const std::size_t start = i;
    while (i < n && line[i] != ',' && line[i] != '"' && line[i] != '\r') ++i;
    const std::size_t plain = i - start;
    if (plain > kMaxCsvFieldBytes || (i < n && plain == kMaxCsvFieldBytes)) {
      return FieldTooLong();
    }
    std::string_view field = line.substr(start, plain);
    if (i < n && line[i] != ',') {
      buf->assign(field);
      bool in_quotes = false;
      for (; i < n; ++i) {
        char c = line[i];
        if (buf->size() >= kMaxCsvFieldBytes) return FieldTooLong();
        if (in_quotes) {
          if (c == '"') {
            if (i + 1 < n && line[i + 1] == '"') {
              buf->push_back('"');
              ++i;
            } else {
              in_quotes = false;
            }
          } else {
            buf->push_back(c);
          }
        } else if (c == '"') {
          if (!buf->empty()) {
            return Status::InvalidArgument("quote in the middle of a field");
          }
          in_quotes = true;
        } else if (c == ',') {
          break;
        } else if (c != '\r') {  // a CR outside quotes is dropped (CRLF)
          buf->push_back(c);
        }
      }
      if (in_quotes) return Status::InvalidArgument("unterminated quoted field");
      field = *buf;
    }
    if (i == n) {
      sink(field);
      return Status::OK();
    }
    if (++fields >= kMaxCsvFields) {
      return Status::InvalidArgument("CSV record exceeds the maximum of " +
                                     std::to_string(kMaxCsvFields) + " fields");
    }
    sink(field);
    ++i;  // the comma
  }
}

// Sets `*line` to the next line of `text` at or after `*pos` that is not
// blank or whitespace-only (without its '\n') and moves `*pos` past it.
// Returns false when no such line is left.
bool NextCsvLine(std::string_view text, std::size_t* pos,
                 std::string_view* line) {
  while (*pos <= text.size()) {
    std::size_t end = std::min(text.find('\n', *pos), text.size());
    *line = text.substr(*pos, end - *pos);
    *pos = end + 1;
    if (!StripAsciiWhitespace(*line).empty()) return true;
  }
  return false;
}

}  // namespace

Result<std::vector<std::string>> ParseCsvRecord(std::string_view line) {
  std::vector<std::string> fields;
  std::string buf;
  PSEM_RETURN_IF_ERROR(ScanCsvRecord(
      line, &buf, [&](std::string_view f) { fields.emplace_back(f); }));
  return fields;
}

Result<std::size_t> LoadCsvRelation(const std::string& csv_text, Database* db,
                                    const std::string& name) {
  if (csv_text.size() > kMaxCsvBytes) {
    return Status::InvalidArgument(
        "CSV input of " + std::to_string(csv_text.size()) +
        " bytes exceeds the maximum of " + std::to_string(kMaxCsvBytes));
  }
  std::size_t pos = 0;
  std::string_view line;
  if (!NextCsvLine(csv_text, &pos, &line)) {
    return Status::InvalidArgument("CSV needs a header row");
  }
  PSEM_ASSIGN_OR_RETURN(std::vector<std::string> header, ParseCsvRecord(line));
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
  // Parse and validate every row BEFORE touching the database, so a
  // malformed input (the usual case for untrusted files) cannot leave a
  // half-loaded relation behind. Fields are interned into a local table
  // in row-major first-occurrence order, the order in which AddRow would
  // intern them, so the symbols get the same ValueIds either way.
  StringInterner values;
  std::vector<uint32_t> cells;  // rows x arity local value ids, row-major
  std::string buf;
  for (std::size_t row = 1; NextCsvLine(csv_text, &pos, &line); ++row) {
    std::size_t fields = 0;
    PSEM_RETURN_IF_ERROR(ScanCsvRecord(line, &buf, [&](std::string_view f) {
      if (fields++ < header.size()) cells.push_back(values.Intern(f));
    }));
    if (fields != header.size()) {
      return Status::InvalidArgument(
          "row " + std::to_string(row) + " has " + std::to_string(fields) +
          " fields, expected " + std::to_string(header.size()));
    }
  }
  std::size_t ri = db->AddRelation(name, header);
  Relation& r = db->relation(ri);
  std::vector<ValueId> ids(values.size());
  for (uint32_t v = 0; v < values.size(); ++v) {
    ids[v] = db->symbols().Intern(values.NameOf(v));
  }
  for (std::size_t c = 0; c < cells.size(); c += header.size()) {
    Tuple t(header.size());
    for (std::size_t a = 0; a < header.size(); ++a) t[a] = ids[cells[c + a]];
    r.AddTuple(std::move(t));
  }
  return ri;
}

namespace {

std::string QuoteIfNeeded(const std::string& s) {
  bool needs = s.find_first_of(",\"\n") != std::string::npos;
  if (!needs) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

std::string DumpCsvRelation(const Database& db, const Relation& r) {
  std::string out;
  for (std::size_t c = 0; c < r.arity(); ++c) {
    if (c > 0) out += ",";
    out += db.universe().NameOf(r.schema().attrs[c]);
  }
  out += "\n";
  for (const Tuple& t : r.rows()) {
    for (std::size_t c = 0; c < r.arity(); ++c) {
      if (c > 0) out += ",";
      out += QuoteIfNeeded(db.symbols().NameOf(t[c]));
    }
    out += "\n";
  }
  return out;
}

}  // namespace psem
