// Minimal CSV reading/writing for instance serialization and experiment
// output. Supports the subset of RFC 4180 the library emits: comma
// separation, double-quote quoting, quote escaping by doubling.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace mc3 {

/// Receives one parsed row; an error stops the parse.
using CsvRowHandler = std::function<Status(const std::vector<std::string>&)>;

/// Parses CSV text, handing each kept row to `on_row` as soon as it is
/// complete, so no document is ever held whole. Empty lines are skipped;
/// lines starting with '#' are treated as comments and skipped. Returns the
/// first error, a malformed field's or `on_row`'s.
Status ParseCsv(std::string_view text, const CsvRowHandler& on_row);

/// Reads the file at `path` and parses it as ParseCsv does. NotFound if the
/// file cannot be opened.
Status ReadCsvFile(const std::string& path, const CsvRowHandler& on_row);

/// Serializes rows to CSV text, quoting fields that contain separators.
std::string FormatCsv(const std::vector<std::vector<std::string>>& rows);

/// Writes rows to a CSV file, creating/truncating it.
Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

}  // namespace mc3

