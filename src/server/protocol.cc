#include "server/protocol.h"

#include <algorithm>
#include <cmath>

#include "core/instance.h"
#include "obs/json.h"

namespace mc3::server {
namespace {

/// Extracts "add"/"remove" members: arrays of arrays of strings.
Status ParseQueryLists(const obs::JsonValue& value, const char* key,
                       std::vector<std::vector<std::string>>* out) {
  const obs::JsonValue* lists = value.Find(key);
  if (lists == nullptr) return Status::OK();
  if (!lists->is_array()) {
    return Status::InvalidArgument(std::string("\"") + key +
                                   "\" must be an array of queries");
  }
  for (const obs::JsonValue& query : lists->array) {
    if (!query.is_array() || query.array.empty()) {
      return Status::InvalidArgument(
          std::string("every \"") + key +
          "\" entry must be a non-empty array of property names");
    }
    std::vector<std::string> names;
    names.reserve(query.array.size());
    for (const obs::JsonValue& name : query.array) {
      if (!name.is_string() || name.string.empty()) {
        return Status::InvalidArgument(
            std::string("property names in \"") + key +
            "\" must be non-empty strings");
      }
      // Property names double as tokens of the update_trace line format
      // (WAL payloads, `mc3 wal dump`); admit only names that round-trip
      // through it so an accepted update is always serializable.
      for (const char c : name.string) {
        if (c == ' ' || c == '\t' || c == ',' ||
            static_cast<unsigned char>(c) < 0x20 || c == 0x7f) {
          return Status::InvalidArgument(
              std::string("property names in \"") + key +
              "\" must not contain whitespace, commas or control "
              "characters");
        }
      }
      if (name.string == "+" || name.string == "-") {
        return Status::InvalidArgument(
            std::string("property names in \"") + key +
            "\" must not be a bare '+' or '-' marker");
      }
      names.push_back(name.string);
    }
    if (names.size() > kMaxQueryLength) {
      std::vector<std::string> distinct = names;
      std::sort(distinct.begin(), distinct.end());
      const auto length = static_cast<size_t>(
          std::unique(distinct.begin(), distinct.end()) - distinct.begin());
      if (length > kMaxQueryLength) {
        return Status::InvalidArgument(
            std::string("a query in \"") + key + "\" has " +
            std::to_string(length) + " properties; at most " +
            std::to_string(kMaxQueryLength) + " are supported");
      }
    }
    out->push_back(std::move(names));
  }
  return Status::OK();
}

}  // namespace

const char* OpName(Request::Op op) {
  switch (op) {
    case Request::Op::kHealth:
      return "health";
    case Request::Op::kStats:
      return "stats";
    case Request::Op::kSolve:
      return "solve";
    case Request::Op::kUpdate:
      return "update";
    case Request::Op::kSnapshot:
      return "snapshot";
    case Request::Op::kCheckpoint:
      return "checkpoint";
    case Request::Op::kWalStats:
      return "wal_stats";
    case Request::Op::kMetrics:
      return "metrics";
    case Request::Op::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

Result<Request> ParseRequest(const std::string& line) {
  auto parsed = obs::ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  const obs::JsonValue& value = *parsed;
  if (!value.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const obs::JsonValue* op = value.Find("op");
  if (op == nullptr || !op->is_string()) {
    return Status::InvalidArgument("request needs a string \"op\" member");
  }
  Request request;
  if (op->string == "health") {
    request.op = Request::Op::kHealth;
  } else if (op->string == "stats") {
    request.op = Request::Op::kStats;
  } else if (op->string == "solve") {
    request.op = Request::Op::kSolve;
  } else if (op->string == "update") {
    request.op = Request::Op::kUpdate;
  } else if (op->string == "snapshot") {
    request.op = Request::Op::kSnapshot;
  } else if (op->string == "checkpoint") {
    request.op = Request::Op::kCheckpoint;
  } else if (op->string == "wal_stats") {
    request.op = Request::Op::kWalStats;
  } else if (op->string == "metrics") {
    request.op = Request::Op::kMetrics;
  } else if (op->string == "shutdown") {
    request.op = Request::Op::kShutdown;
  } else {
    return Status::InvalidArgument("unknown op \"" + op->string + "\"");
  }
  if (const obs::JsonValue* id = value.Find("id"); id != nullptr) {
    if (!id->is_number() || id->number < 0 ||
        id->number != std::floor(id->number)) {
      return Status::InvalidArgument(
          "\"id\" must be a non-negative integer");
    }
    request.id = static_cast<uint64_t>(id->number);
  }
  if (const obs::JsonValue* solution = value.Find("solution");
      solution != nullptr) {
    if (solution->kind != obs::JsonValue::Kind::kBool) {
      return Status::InvalidArgument("\"solution\" must be a boolean");
    }
    request.include_solution = solution->boolean;
  }
  MC3_RETURN_IF_ERROR(ParseQueryLists(value, "add", &request.add));
  MC3_RETURN_IF_ERROR(ParseQueryLists(value, "remove", &request.remove));
  if (request.op == Request::Op::kUpdate && request.add.empty() &&
      request.remove.empty()) {
    return Status::InvalidArgument(
        "update needs a non-empty \"add\" or \"remove\" member");
  }
  return request;
}

std::string RenderErrorResponse(uint64_t id, Request::Op op, int code,
                                const std::string& message,
                                double retry_after_ms) {
  obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("id").Int(id);
  writer.Key("op").String(OpName(op));
  writer.Key("code").Int(static_cast<uint64_t>(code));
  writer.Key("error").String(message);
  if (retry_after_ms > 0) {
    writer.Key("retry_after_ms").Number(retry_after_ms);
  }
  writer.EndObject();
  return writer.Take();
}

}  // namespace mc3::server
