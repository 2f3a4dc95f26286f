#include "durability/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace mc3::durability {
namespace {

namespace fs = std::filesystem;

/// Parses "snapshot-<20 digits>.json" into the sequence number.
bool ParseSnapshotName(const std::string& name, uint64_t* seq) {
  if (name.size() != 9 + 20 + 5) return false;
  if (name.rfind("snapshot-", 0) != 0) return false;
  if (name.compare(name.size() - 5, 5, ".json") != 0) return false;
  uint64_t value = 0;
  for (size_t i = 9; i < 9 + 20; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

void WriteIdArray(obs::JsonWriter* writer, const PropertySet& set) {
  writer->BeginArray();
  for (const PropertyId id : set.ids()) writer->Int(id);
  writer->EndArray();
}

/// Extracts a property-id array (range-checked against `num_names`) from a
/// snapshot document node.
Result<PropertySet> ParseIdArray(const obs::JsonValue& value, size_t num_names,
                                 const std::string& what) {
  if (!value.is_array()) {
    return Status::InvalidArgument(what + " must be an array of property ids");
  }
  std::vector<PropertyId> ids;
  ids.reserve(value.array.size());
  for (const obs::JsonValue& e : value.array) {
    if (!e.is_number() || e.number != std::floor(e.number) || e.number < 0 ||
        e.number >= static_cast<double>(num_names)) {
      return Status::InvalidArgument(
          what + " holds an id that is not an index into property_names");
    }
    ids.push_back(static_cast<PropertyId>(e.number));
  }
  return PropertySet::FromUnsorted(std::move(ids));
}

Result<uint64_t> ParseSeq(const obs::JsonValue& value) {
  // Doubles are exact through 2^53; a serving process appending a million
  // records per second would take ~285 years to get there.
  if (!value.is_number() || value.number != std::floor(value.number) ||
      value.number < 0 || value.number > 9007199254740992.0) {
    return Status::InvalidArgument("seq must be a non-negative integer");
  }
  return static_cast<uint64_t>(value.number);
}

}  // namespace

std::string SnapshotFileName(uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.json",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string RenderSnapshot(const online::EngineState& state, uint64_t seq) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kSnapshotSchema);
  writer.Key("seq").Int(seq);
  writer.Key("property_names").BeginArray();
  for (const std::string& name : state.property_names) writer.String(name);
  writer.EndArray();
  writer.Key("costs").BeginArray();
  for (const auto& [classifier, cost] : state.costs) {
    writer.BeginObject();
    writer.Key("classifier");
    WriteIdArray(&writer, classifier);
    writer.Key("cost").Number(cost);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("components").BeginArray();
  for (const online::EngineState::Component& component : state.components) {
    writer.BeginObject();
    writer.Key("queries").BeginArray();
    for (const PropertySet& query : component.queries) {
      WriteIdArray(&writer, query);
    }
    writer.EndArray();
    writer.Key("solution").BeginArray();
    for (const PropertySet& classifier : component.solution) {
      WriteIdArray(&writer, classifier);
    }
    writer.EndArray();
    writer.Key("cost").Number(component.cost);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.Take() + "\n";
}

Result<ParsedSnapshot> ParseSnapshot(const std::string& json) {
  auto parsed = obs::ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const obs::JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument("snapshot root must be an object");
  }
  const obs::JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      (schema->string != kSnapshotSchema &&
       schema->string != kSnapshotSchemaV2)) {
    return Status::InvalidArgument(std::string("snapshot schema must be '") +
                                   kSnapshotSchema + "' or '" +
                                   kSnapshotSchemaV2 + "'");
  }
  const bool sharded_schema = schema->string == kSnapshotSchemaV2;
  const obs::JsonValue* seq = root.Find("seq");
  if (seq == nullptr) return Status::InvalidArgument("snapshot lacks seq");
  auto seq_value = ParseSeq(*seq);
  if (!seq_value.ok()) return seq_value.status();

  ParsedSnapshot out;
  out.seq = *seq_value;

  // A /2 layout is validated, then dropped: its components restore into
  // the one engine in document order.
  double num_shards = 1;
  if (sharded_schema) {
    const obs::JsonValue* shards = root.Find("shards");
    if (shards == nullptr || !shards->is_number() ||
        shards->number != std::floor(shards->number) || shards->number < 1 ||
        shards->number > 65536) {
      return Status::InvalidArgument(
          "shards must be an integer in [1, 65536]");
    }
    num_shards = shards->number;
  }

  const obs::JsonValue* names = root.Find("property_names");
  if (names == nullptr || !names->is_array()) {
    return Status::InvalidArgument("property_names must be an array");
  }
  out.state.property_names.reserve(names->array.size());
  // Every interner keeps a name's first id, so a repeated name would leave
  // an id that no response tells apart and no client can name.
  std::unordered_map<std::string_view, size_t> first_entry;
  for (const obs::JsonValue& name : names->array) {
    if (!name.is_string()) {
      return Status::InvalidArgument("property_names entries must be strings");
    }
    const size_t entry = out.state.property_names.size();
    const auto [it, inserted] = first_entry.try_emplace(name.string, entry);
    if (!inserted) {
      return Status::InvalidArgument(
          "property_names entry " + std::to_string(entry) + " repeats entry " +
          std::to_string(it->second));
    }
    out.state.property_names.push_back(name.string);
  }
  const size_t num_names = out.state.property_names.size();

  const obs::JsonValue* costs = root.Find("costs");
  // mc3-lint: float-eq-ok(null-pointer check, not a cost comparison)
  if (costs == nullptr || !costs->is_array()) {
    return Status::InvalidArgument("costs must be an array");
  }
  out.state.costs.reserve(costs->array.size());
  for (const obs::JsonValue& entry : costs->array) {
    const obs::JsonValue* classifier =
        entry.is_object() ? entry.Find("classifier") : nullptr;
    const obs::JsonValue* cost =
        entry.is_object() ? entry.Find("cost") : nullptr;
    // mc3-lint: float-eq-ok(null-pointer check, not a cost comparison)
    if (classifier == nullptr || cost == nullptr || !cost->is_number() ||
        !std::isfinite(cost->number) || cost->number < 0) {
      return Status::InvalidArgument(
          "costs entries must be {classifier, cost} with a finite "
          "non-negative cost");
    }
    auto set = ParseIdArray(*classifier, num_names, "costs.classifier");
    if (!set.ok()) return set.status();
    out.state.costs.emplace_back(std::move(*set), cost->number);
  }

  const obs::JsonValue* components = root.Find("components");
  if (components == nullptr || !components->is_array()) {
    return Status::InvalidArgument("components must be an array");
  }
  out.state.components.reserve(components->array.size());
  for (const obs::JsonValue& entry : components->array) {
    const obs::JsonValue* queries =
        entry.is_object() ? entry.Find("queries") : nullptr;
    const obs::JsonValue* solution =
        entry.is_object() ? entry.Find("solution") : nullptr;
    const obs::JsonValue* cost =
        entry.is_object() ? entry.Find("cost") : nullptr;
    if (queries == nullptr || !queries->is_array() || solution == nullptr ||
        // mc3-lint: float-eq-ok(null-pointer check, not a cost comparison)
        !solution->is_array() || cost == nullptr || !cost->is_number() ||
        !std::isfinite(cost->number) || cost->number < 0) {
      return Status::InvalidArgument(
          "components entries must be {queries, solution, cost} with a "
          "finite non-negative cost");
    }
    if (sharded_schema) {
      const obs::JsonValue* shard_tag = entry.Find("shard");
      if (shard_tag == nullptr || !shard_tag->is_number() ||
          shard_tag->number != std::floor(shard_tag->number) ||
          shard_tag->number < 0 || shard_tag->number >= num_shards) {
        return Status::InvalidArgument(
            "components entries must carry a shard index below 'shards'");
      }
    }
    online::EngineState::Component component;
    component.cost = cost->number;
    component.queries.reserve(queries->array.size());
    for (const obs::JsonValue& query : queries->array) {
      auto set = ParseIdArray(query, num_names, "components.queries");
      if (!set.ok()) return set.status();
      component.queries.push_back(std::move(*set));
    }
    component.solution.reserve(solution->array.size());
    for (const obs::JsonValue& classifier : solution->array) {
      auto set = ParseIdArray(classifier, num_names, "components.solution");
      if (!set.ok()) return set.status();
      component.solution.push_back(std::move(*set));
    }
    out.state.components.push_back(std::move(component));
  }
  return out;
}

Status ValidateSnapshotJson(const std::string& json) {
  auto parsed = ParseSnapshot(json);
  if (!parsed.ok()) return parsed.status();
  return Status::OK();
}

namespace {

/// Publishes an already-rendered snapshot document atomically.
Result<uint64_t> PublishSnapshotDocument(const std::string& dir,
                                         std::string document, uint64_t seq);

}  // namespace

Result<uint64_t> WriteSnapshotFile(const std::string& dir,
                                   const online::EngineState& state,
                                   uint64_t seq) {
  return PublishSnapshotDocument(dir, RenderSnapshot(state, seq), seq);
}

namespace {

Result<uint64_t> PublishSnapshotDocument(const std::string& dir,
                                         std::string document, uint64_t seq) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  {
    Status valid = ValidateSnapshotJson(document);
    if (!valid.ok()) {
      return Status::Internal("rendered snapshot fails its own schema: " +
                              valid.message());
    }
  }

  const std::string path = dir + "/" + SnapshotFileName(seq);
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0) return Status::IOError("cannot create " + tmp);
    size_t off = 0;
    while (off < document.size()) {
      const ssize_t n =
          ::write(fd, document.data() + off, document.size() - off);
      if (n < 0) {
        ::close(fd);
        return Status::IOError("write failed on " + tmp);
      }
      off += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
      ::close(fd);
      return Status::IOError("fsync failed on " + tmp);
    }
    ::close(fd);
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot publish " + path + ": " + ec.message());
  }
  // Make the rename itself durable: fsync the directory entry.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return static_cast<uint64_t>(document.size());
}

}  // namespace

Result<LoadedSnapshot> LoadLatestSnapshot(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) {
    return Status::NotFound("no snapshot directory " + dir);
  }
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    const std::string name = entry.path().filename().string();
    if (ParseSnapshotName(name, &seq)) found.emplace_back(seq, name);
  }
  if (ec) return Status::IOError("cannot list " + dir + ": " + ec.message());
  std::sort(found.begin(), found.end());

  LoadedSnapshot out;
  for (size_t i = found.size(); i-- > 0;) {
    const std::string path = dir + "/" + found[i].second;
    std::FILE* in = std::fopen(path.c_str(), "rb");
    if (in == nullptr) {
      ++out.skipped_invalid;
      continue;
    }
    std::string bytes;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) bytes.append(buf, n);
    const bool bad = std::ferror(in) != 0;
    std::fclose(in);
    if (bad) {
      ++out.skipped_invalid;
      continue;
    }
    auto parsed = ParseSnapshot(bytes);
    if (!parsed.ok()) {
      ++out.skipped_invalid;
      continue;
    }
    if (parsed->seq != found[i].first) {
      // The embedded seq is authoritative; a mismatched name means the file
      // was tampered with or mis-copied.
      ++out.skipped_invalid;
      continue;
    }
    out.seq = parsed->seq;
    out.state = std::move(parsed->state);
    out.path = path;
    return out;
  }
  return Status::NotFound("no valid snapshot in " + dir);
}

}  // namespace mc3::durability
