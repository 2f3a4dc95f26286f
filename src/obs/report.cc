#include "obs/report.h"

#include <thread>

#include "obs/json.h"

namespace mc3::obs {

namespace {

void RenderHistogram(const HistogramSnapshot& h, JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("count").Int(h.count);
  writer->Key("sum").Number(h.sum);
  writer->Key("min").Number(h.min);
  writer->Key("max").Number(h.max);
  writer->Key("mean").Number(h.Mean());
  writer->Key("p50").Number(h.P50());
  writer->Key("p95").Number(h.P95());
  writer->Key("p99").Number(h.P99());
  writer->Key("buckets").BeginArray();
  for (const uint64_t b : h.buckets) writer->Int(b);
  writer->EndArray();
  writer->EndObject();
}

void RenderMetaBody(const SolveReportMeta& meta, JsonWriter* writer) {
  writer->Key("tool").String(meta.tool);
  writer->Key("solver").String(meta.solver);
  writer->Key("workload").String(meta.workload);
  writer->Key("instance").BeginObject();
  writer->Key("queries").Int(meta.num_queries);
  writer->Key("classifiers").Int(meta.num_classifiers);
  writer->Key("properties").Int(meta.num_properties);
  writer->Key("max_query_length").Int(meta.max_query_length);
  writer->EndObject();
  writer->Key("result").BeginObject();
  writer->Key("cost").Number(meta.cost);
  writer->Key("classifiers").Int(meta.solution_size);
  writer->Key("components").Int(meta.num_components);
  writer->Key("seconds").Number(meta.total_seconds);
  writer->EndObject();
}

}  // namespace

void RenderMetrics(const MetricsSnapshot& metrics, JsonWriter* writer) {
  writer->BeginObject();
  writer->Key("counters").BeginObject();
  for (const auto& [name, value] : metrics.counters) {
    writer->Key(name).Int(value);
  }
  writer->EndObject();
  writer->Key("gauges").BeginObject();
  for (const auto& [name, value] : metrics.gauges) {
    writer->Key(name).Number(value);
  }
  writer->EndObject();
  writer->Key("histograms").BeginObject();
  for (const auto& [name, h] : metrics.histograms) {
    writer->Key(name);
    RenderHistogram(h, writer);
  }
  writer->EndObject();
  writer->EndObject();
}

std::string RenderSolveReport(const SolveReportMeta& meta, const Trace& trace,
                              const MetricsSnapshot& metrics) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kSolveReportSchema);
  writer.Key("obs_enabled").Bool(true);
  RenderMetaBody(meta, &writer);
  writer.Key("phases");
  trace.Render(&writer);
  writer.Key("metrics");
  RenderMetrics(metrics, &writer);
  writer.EndObject();
  return writer.Take();
}

MachineInfo DescribeMachine() {
  MachineInfo machine;
#if defined(__linux__)
  machine.os = "linux";
#elif defined(__APPLE__)
  machine.os = "darwin";
#elif defined(_WIN32)
  machine.os = "windows";
#else
  machine.os = "unknown";
#endif
#if defined(__x86_64__) || defined(_M_X64)
  machine.arch = "x86_64";
#elif defined(__aarch64__) || defined(_M_ARM64)
  machine.arch = "aarch64";
#else
  machine.arch = "unknown";
#endif
#if defined(__VERSION__)
  machine.compiler = __VERSION__;
#else
  machine.compiler = "unknown";
#endif
  machine.hardware_threads = std::thread::hardware_concurrency();
  return machine;
}

std::string RenderBenchReport(const std::vector<BenchCase>& cases,
                              const MetricsSnapshot& metrics,
                              const BenchRunInfo& run) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kBenchReportSchema);
  writer.Key("obs_enabled").Bool(true);
  writer.Key("quick").Bool(run.quick);
  writer.Key("scale").Number(run.scale);
  writer.Key("seed").Int(run.seed);
  writer.Key("repeat").Int(run.repeat);
  writer.Key("warmup").Int(run.warmup);
  writer.Key("filter").String(run.filter);
  const MachineInfo machine = DescribeMachine();
  writer.Key("machine").BeginObject();
  writer.Key("os").String(machine.os);
  writer.Key("arch").String(machine.arch);
  writer.Key("compiler").String(machine.compiler);
  writer.Key("hardware_threads").Int(machine.hardware_threads);
  writer.EndObject();
  writer.Key("cases").BeginArray();
  for (const BenchCase& c : cases) {
    writer.BeginObject();
    RenderMetaBody(c.meta, &writer);
    writer.Key("counters").BeginObject();
    for (const auto& [name, value] : c.counters) {
      writer.Key(name).Int(value);
    }
    writer.EndObject();
    writer.Key("wall_seconds").BeginArray();
    for (const double s : c.wall_seconds) writer.Number(s);
    writer.EndArray();
    writer.Key("phases");
    c.trace->Render(&writer);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("metrics");
  RenderMetrics(metrics, &writer);
  writer.EndObject();
  return writer.Take();
}

// ---------------------------------------------------------------------------
// Validation.

namespace {

Status Violation(const std::string& path, const std::string& what) {
  return Status::InvalidArgument("schema violation at " + path + ": " + what);
}

Status RequireNumber(const JsonValue& object, const std::string& path,
                     const char* key, bool non_negative = true) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr || !field->is_number()) {
    return Violation(path + "." + key, "missing or not a number");
  }
  if (non_negative && field->number < 0) {
    return Violation(path + "." + key, "negative value");
  }
  return Status::OK();
}

Status RequireString(const JsonValue& object, const std::string& path,
                     const char* key) {
  const JsonValue* field = object.Find(key);
  if (field == nullptr || !field->is_string()) {
    return Violation(path + "." + key, "missing or not a string");
  }
  return Status::OK();
}

/// Span-tree node: name + seconds required; stats (numeric members) and
/// children (nodes) optional.
Status CheckSpanNode(const JsonValue& node, const std::string& path) {
  if (!node.is_object()) return Violation(path, "span is not an object");
  MC3_RETURN_IF_ERROR(RequireString(node, path, "name"));
  MC3_RETURN_IF_ERROR(RequireNumber(node, path, "seconds"));
  if (const JsonValue* stats = node.Find("stats")) {
    if (!stats->is_object()) return Violation(path + ".stats", "not an object");
    for (const auto& [key, value] : stats->object) {
      if (!value.is_number()) {
        return Violation(path + ".stats." + key, "not a number");
      }
    }
  }
  if (const JsonValue* children = node.Find("children")) {
    if (!children->is_array()) {
      return Violation(path + ".children", "not an array");
    }
    for (size_t i = 0; i < children->array.size(); ++i) {
      MC3_RETURN_IF_ERROR(CheckSpanNode(
          children->array[i], path + ".children[" + std::to_string(i) + "]"));
    }
  }
  return Status::OK();
}

/// The shared body of a solve report / bench case.
Status CheckReportBody(const JsonValue& body, const std::string& path) {
  MC3_RETURN_IF_ERROR(RequireString(body, path, "tool"));
  MC3_RETURN_IF_ERROR(RequireString(body, path, "solver"));
  MC3_RETURN_IF_ERROR(RequireString(body, path, "workload"));
  const JsonValue* instance = body.Find("instance");
  if (instance == nullptr || !instance->is_object()) {
    return Violation(path + ".instance", "missing or not an object");
  }
  for (const char* key :
       {"queries", "classifiers", "properties", "max_query_length"}) {
    MC3_RETURN_IF_ERROR(RequireNumber(*instance, path + ".instance", key));
  }
  const JsonValue* result = body.Find("result");
  if (result == nullptr || !result->is_object()) {
    return Violation(path + ".result", "missing or not an object");
  }
  MC3_RETURN_IF_ERROR(RequireNumber(*result, path + ".result", "cost"));
  MC3_RETURN_IF_ERROR(RequireNumber(*result, path + ".result", "classifiers"));
  MC3_RETURN_IF_ERROR(RequireNumber(*result, path + ".result", "components"));
  MC3_RETURN_IF_ERROR(RequireNumber(*result, path + ".result", "seconds"));
  const JsonValue* phases = body.Find("phases");
  if (phases == nullptr) return Violation(path + ".phases", "missing");
  return CheckSpanNode(*phases, path + ".phases");
}

Status CheckMetrics(const JsonValue& root, const std::string& path) {
  const JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return Violation(path + ".metrics", "missing or not an object");
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const JsonValue* s = metrics->Find(section);
    if (s == nullptr || !s->is_object()) {
      return Violation(path + ".metrics." + section,
                       "missing or not an object");
    }
  }
  for (const auto& [name, h] : metrics->Find("histograms")->object) {
    const std::string hpath = path + ".metrics.histograms." + name;
    if (!h.is_object()) return Violation(hpath, "not an object");
    MC3_RETURN_IF_ERROR(RequireNumber(h, hpath, "count"));
    MC3_RETURN_IF_ERROR(RequireNumber(h, hpath, "sum", false));
    const JsonValue* buckets = h.Find("buckets");
    if (buckets == nullptr || !buckets->is_array()) {
      return Violation(hpath + ".buckets", "missing or not an array");
    }
  }
  return Status::OK();
}

Result<JsonValue> ParseWithSchema(const std::string& json,
                                  const char* schema) {
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Violation("$", "document is not an object");
  }
  const JsonValue* declared = parsed->Find("schema");
  if (declared == nullptr || !declared->is_string() ||
      declared->string != schema) {
    return Violation("$.schema", std::string("expected \"") + schema + "\"");
  }
  const JsonValue* obs = parsed->Find("obs_enabled");
  if (obs == nullptr || obs->kind != JsonValue::Kind::kBool) {
    return Violation("$.obs_enabled", "missing or not a boolean");
  }
  return parsed;
}

/// Collects the names of every span in a phases tree into `out`.
void CollectSpanNames(const JsonValue& node, std::vector<std::string>* out) {
  if (const JsonValue* name = node.Find("name")) {
    if (name->is_string()) out->push_back(name->string);
  }
  if (const JsonValue* children = node.Find("children")) {
    for (const JsonValue& child : children->array) {
      CollectSpanNames(child, out);
    }
  }
}

}  // namespace

Status ValidateSolveReportJson(const std::string& json) {
  auto parsed = ParseWithSchema(json, kSolveReportSchema);
  if (!parsed.ok()) return parsed.status();
  MC3_RETURN_IF_ERROR(CheckReportBody(*parsed, "$"));
  return CheckMetrics(*parsed, "$");
}

Status ValidateBenchReportJson(const std::string& json) {
  auto parsed = ParseWithSchema(json, kBenchReportSchema);
  if (!parsed.ok()) return parsed.status();
  const JsonValue* quick = parsed->Find("quick");
  if (quick == nullptr || quick->kind != JsonValue::Kind::kBool) {
    return Violation("$.quick", "missing or not a boolean");
  }
  MC3_RETURN_IF_ERROR(RequireNumber(*parsed, "$", "scale"));
  const JsonValue* obs = parsed->Find("obs_enabled");
  MC3_RETURN_IF_ERROR(RequireNumber(*parsed, "$", "seed"));
  MC3_RETURN_IF_ERROR(RequireNumber(*parsed, "$", "repeat"));
  MC3_RETURN_IF_ERROR(RequireNumber(*parsed, "$", "warmup"));
  MC3_RETURN_IF_ERROR(RequireString(*parsed, "$", "filter"));
  const std::string& filter = parsed->Find("filter")->string;
  const JsonValue* machine = parsed->Find("machine");
  if (machine == nullptr || !machine->is_object()) {
    return Violation("$.machine", "missing or not an object");
  }
  for (const char* key : {"os", "arch", "compiler"}) {
    MC3_RETURN_IF_ERROR(RequireString(*machine, "$.machine", key));
  }
  MC3_RETURN_IF_ERROR(RequireNumber(*machine, "$.machine", "hardware_threads"));
  const JsonValue* cases = parsed->Find("cases");
  if (cases == nullptr || !cases->is_array() || cases->array.empty()) {
    return Violation("$.cases", "missing, not an array, or empty");
  }
  std::vector<std::string> span_names;
  for (size_t i = 0; i < cases->array.size(); ++i) {
    const std::string path = "$.cases[" + std::to_string(i) + "]";
    MC3_RETURN_IF_ERROR(CheckReportBody(cases->array[i], path));
    if (const JsonValue* phases = cases->array[i].Find("phases")) {
      CollectSpanNames(*phases, &span_names);
    }
    const JsonValue* counters = cases->array[i].Find("counters");
    if (counters == nullptr || !counters->is_object()) {
      return Violation(path + ".counters", "missing or not an object");
    }
    for (const auto& [name, value] : counters->object) {
      if (!value.is_number() || value.number < 0) {
        return Violation(path + ".counters." + name,
                         "not a non-negative number");
      }
    }
    // A report that declares obs_enabled must actually deliver the work
    // counters: an empty object would make the benchdiff gate vacuous.
    if (obs != nullptr && obs->boolean && counters->object.empty()) {
      return Violation(path + ".counters",
                       "empty although obs_enabled is true");
    }
    const JsonValue* walls = cases->array[i].Find("wall_seconds");
    if (walls == nullptr || !walls->is_array() || walls->array.empty()) {
      return Violation(path + ".wall_seconds",
                       "missing, not an array, or empty");
    }
    for (size_t r = 0; r < walls->array.size(); ++r) {
      if (!walls->array[r].is_number() || walls->array[r].number < 0) {
        return Violation(path + ".wall_seconds[" + std::to_string(r) + "]",
                         "not a non-negative number");
      }
    }
  }
  MC3_RETURN_IF_ERROR(CheckMetrics(*parsed, "$"));

  // A report that declares obs_enabled must carry the per-phase timings the
  // perf trajectory is tracked on: all four preprocessing steps, the k2 flow
  // path, both WSC phases, and the online update path. A filtered run
  // (subset of cases) is exempt — its report is a debugging aid, not a
  // trajectory point.
  if (obs != nullptr && obs->boolean && filter.empty()) {
    for (const char* required :
         {"preprocess", "step1", "step3", "step4", "partition", "k2_component",
          "maxflow", "greedy", "primal_dual", "online_update", "repartition",
          "solve_component"}) {
      bool found = false;
      for (const std::string& name : span_names) {
        if (name == required) {
          found = true;
          break;
        }
      }
      if (!found) {
        return Violation("$.cases[*].phases",
                         std::string("required phase \"") + required +
                             "\" missing from every case");
      }
    }
  }
  return Status::OK();
}

}  // namespace mc3::obs
