#include "util/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace mc3 {

Status ParseCsv(std::string_view text, const CsvRowHandler& on_row) {
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;

  auto end_field = [&] {
    row.push_back(std::move(field));
    field.clear();
  };
  // Hands the finished row to on_row, skipping comment rows (first field
  // starts with '#') and all-empty rows.
  auto end_row = [&]() -> Status {
    if (!row_has_content) return Status::OK();
    row_has_content = false;
    end_field();
    const bool all_empty =
        std::all_of(row.begin(), row.end(),
                    [](const std::string& f) { return f.empty(); });
    Status status = all_empty || row[0].starts_with('#') ? Status::OK()
                                                         : on_row(row);
    row.clear();
    return status;
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        end_field();
        row_has_content = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        MC3_RETURN_IF_ERROR(end_row());
        break;
      default:
        field += c;
        row_has_content = true;
        break;
    }
  }
  if (in_quotes) return Status::IOError("unterminated quoted field");
  return end_row();
}

Status ReadCsvFile(const std::string& path, const CsvRowHandler& on_row) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = std::move(buf).str();
  return ParseCsv(text, on_row);
}

namespace {

bool NeedsQuoting(const std::string& field) {
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(const std::string& field, std::string* out) {
  if (!NeedsQuoting(field)) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

}  // namespace

std::string FormatCsv(const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      AppendField(row[i], &out);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open file for writing: " + path);
  out << FormatCsv(rows);
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace mc3
