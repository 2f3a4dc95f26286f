#include "online/update_trace.h"

#include <cstdio>
#include <memory>

#include "core/instance.h"

namespace mc3::online {
namespace {

/// Splits on whitespace and commas, dropping empty tokens.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r' || c == ',') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

/// Renders `token` for an error message, masking control characters so the
/// message itself stays printable.
std::string Printable(const std::string& token) {
  std::string out;
  out.reserve(token.size());
  for (const char c : token) {
    out += (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) ? '?' : c;
  }
  return out;
}

bool HasControlCharacter(const std::string& token) {
  for (const char c : token) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) return true;
  }
  return false;
}

Status LineError(size_t ln, const std::string& detail) {
  return Status::InvalidArgument("trace line " + std::to_string(ln + 1) +
                                 ": " + detail);
}

}  // namespace

Result<UpdateTrace> ParseUpdateTrace(const std::vector<std::string>& lines,
                                     PropertyInterner& interner) {
  UpdateTrace trace;
  for (size_t ln = 0; ln < lines.size(); ++ln) {
    std::vector<std::string> tokens = Tokenize(lines[ln]);
    if (tokens.empty() || tokens[0][0] == '#') {
      ++trace.skipped_lines;
      continue;
    }
    TraceOp op;
    size_t first = 0;
    if (tokens[0] == "+" || tokens[0] == "add") {
      first = 1;
    } else if (tokens[0] == "-" || tokens[0] == "remove") {
      op.kind = TraceOp::Kind::kRemove;
      first = 1;
    }
    if (first >= tokens.size()) {
      return LineError(ln, "operation '" + Printable(tokens[0]) +
                               "' without a query");
    }
    std::vector<PropertyId> ids;
    for (size_t t = first; t < tokens.size(); ++t) {
      const std::string& token = tokens[t];
      if (token == "+" || token == "-") {
        return LineError(
            ln, "stray operation marker '" + token + "' after token " +
                    std::to_string(t) +
                    " — one operation per line (is this two lines joined?)");
      }
      if (HasControlCharacter(token)) {
        return LineError(ln, "control character in property name '" +
                                 Printable(token) + "' (token " +
                                 std::to_string(t + 1 - first) + ")");
      }
      ids.push_back(interner.Intern(token));
    }
    op.query = PropertySet::FromUnsorted(std::move(ids));
    if (op.query.size() > kMaxQueryLength) {
      // Only the error names the properties, so only it reads the table.
      return LineError(
          ln, CheckQueryLength(op.query, NamesOf(interner.names())).message());
    }
    op.line = ln + 1;
    trace.ops.push_back(std::move(op));
  }
  return trace;
}

Result<UpdateTrace> ParseUpdateTrace(const std::vector<std::string>& lines,
                                     std::vector<std::string> base_names) {
  PropertyInterner interner;
  MC3_RETURN_IF_ERROR(interner.Load(
      std::make_shared<const std::vector<std::string>>(std::move(base_names))));
  auto trace = ParseUpdateTrace(lines, interner);
  if (trace.ok()) trace->property_names = NamesOf(interner.names());
  return trace;
}

namespace {

/// True iff `name` survives Tokenize + marker handling unchanged when it is
/// a non-first token of a line.
bool SerializableName(const std::string& name) {
  if (name.empty() || name == "+" || name == "-") return false;
  for (const char c : name) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ',' ||
        static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::string> RenderTraceOp(TraceOp::Kind kind, const PropertySet& query,
                                  const std::vector<std::string>& names) {
  if (query.empty()) {
    return Status::InvalidArgument("cannot render an empty query");
  }
  std::string line(kind == TraceOp::Kind::kAdd ? "+" : "-");
  for (const PropertyId id : query) {
    if (id >= names.size()) {
      return Status::InvalidArgument("property id " + std::to_string(id) +
                                     " has no name (table holds " +
                                     std::to_string(names.size()) + ")");
    }
    if (!SerializableName(names[id])) {
      return Status::InvalidArgument(
          "property name '" + Printable(names[id]) +
          "' is not serializable in the trace line format");
    }
    line += ' ';
    line += names[id];
  }
  return line;
}

Result<std::string> RenderUpdateBatch(const std::vector<PropertySet>& add,
                                      const std::vector<PropertySet>& remove,
                                      const std::vector<std::string>& names) {
  std::string text;
  for (const PropertySet& query : remove) {
    auto line = RenderTraceOp(TraceOp::Kind::kRemove, query, names);
    if (!line.ok()) return line.status();
    text += *line;
    text += '\n';
  }
  for (const PropertySet& query : add) {
    auto line = RenderTraceOp(TraceOp::Kind::kAdd, query, names);
    if (!line.ok()) return line.status();
    text += *line;
    text += '\n';
  }
  return text;
}

Result<UpdateTrace> LoadUpdateTrace(const std::string& path,
                                    std::vector<std::string> base_names) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::NotFound("cannot open trace file " + path);
  }
  std::vector<std::string> lines;
  std::string current;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += static_cast<char>(c);
    }
  }
  if (!current.empty()) lines.push_back(std::move(current));
  std::fclose(in);
  auto trace = ParseUpdateTrace(lines, std::move(base_names));
  if (!trace.ok()) {
    return Status::InvalidArgument(path + ": " + trace.status().message());
  }
  return trace;
}

}  // namespace mc3::online
