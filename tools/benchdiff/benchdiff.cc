#include "benchdiff/benchdiff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.h"
#include "obs/report.h"
#include "util/table.h"

namespace mc3::benchdiff {
namespace {

/// Scale factor turning a MAD into a standard-deviation estimate for
/// normally distributed noise.
constexpr double kMadToSigma = 1.4826;

std::string FormatMachine(const obs::JsonValue& machine) {
  const obs::JsonValue* os = machine.Find("os");
  const obs::JsonValue* arch = machine.Find("arch");
  const obs::JsonValue* compiler = machine.Find("compiler");
  const obs::JsonValue* threads = machine.Find("hardware_threads");
  std::string out;
  out += os != nullptr && os->is_string() ? os->string : "?";
  out += "/";
  out += arch != nullptr && arch->is_string() ? arch->string : "?";
  out += " ";
  out += compiler != nullptr && compiler->is_string() ? compiler->string
                                                      : "?";
  if (threads != nullptr && threads->is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " (%.0f threads)", threads->number);
    out += buf;
  }
  return out;
}

Status ParseCounters(const obs::JsonValue& counters, const std::string& path,
                     std::map<std::string, uint64_t>* out) {
  if (!counters.is_object()) {
    return Status::InvalidArgument(path + ": counters is not an object");
  }
  for (const auto& [name, value] : counters.object) {
    if (!value.is_number() || value.number < 0) {
      return Status::InvalidArgument(path + "." + name +
                                     ": not a non-negative number");
    }
    (*out)[name] = static_cast<uint64_t>(value.number);
  }
  return Status::OK();
}

Result<BenchData> LoadBaseline(const obs::JsonValue& root) {
  BenchData data;
  data.schema = kBenchBaselineSchema;
  const obs::JsonValue* obs_flag = root.Find("obs_enabled");
  data.obs_enabled = obs_flag != nullptr && obs_flag->boolean;
  const obs::JsonValue* cases = root.Find("cases");
  if (cases == nullptr || !cases->is_object()) {
    return Status::InvalidArgument(
        "baseline document: $.cases missing or not an object");
  }
  for (const auto& [name, counters] : cases->object) {
    CaseData case_data;
    MC3_RETURN_IF_ERROR(
        ParseCounters(counters, "$.cases." + name, &case_data.counters));
    data.cases.emplace_back(name, std::move(case_data));
  }
  return data;
}

Result<BenchData> LoadReport(const obs::JsonValue& root) {
  BenchData data;
  data.schema = obs::kBenchReportSchema;
  const obs::JsonValue* obs_flag = root.Find("obs_enabled");
  data.obs_enabled = obs_flag != nullptr && obs_flag->boolean;
  if (const obs::JsonValue* machine = root.Find("machine");
      machine != nullptr && machine->is_object()) {
    data.machine = FormatMachine(*machine);
  }
  const obs::JsonValue* cases = root.Find("cases");
  if (cases == nullptr || !cases->is_array()) {
    return Status::InvalidArgument(
        "report document: $.cases missing or not an array");
  }
  for (size_t i = 0; i < cases->array.size(); ++i) {
    const obs::JsonValue& entry = cases->array[i];
    const std::string path = "$.cases[" + std::to_string(i) + "]";
    const obs::JsonValue* workload = entry.Find("workload");
    if (workload == nullptr || !workload->is_string()) {
      return Status::InvalidArgument(path + ".workload missing");
    }
    CaseData case_data;
    const obs::JsonValue* counters = entry.Find("counters");
    if (counters == nullptr) {
      return Status::InvalidArgument(path + ".counters missing");
    }
    MC3_RETURN_IF_ERROR(
        ParseCounters(*counters, path + ".counters", &case_data.counters));
    const obs::JsonValue* walls = entry.Find("wall_seconds");
    if (walls == nullptr || !walls->is_array()) {
      return Status::InvalidArgument(path + ".wall_seconds missing");
    }
    for (const obs::JsonValue& w : walls->array) {
      if (!w.is_number()) {
        return Status::InvalidArgument(path + ".wall_seconds: not numbers");
      }
      case_data.wall_seconds.push_back(w.number);
    }
    data.cases.emplace_back(workload->string, std::move(case_data));
  }
  return data;
}

void AddFinding(DiffReport* report, Finding finding) {
  report->findings.push_back(std::move(finding));
}

std::string Percent(double change) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", 100 * change);
  return buf;
}

void DiffCounters(const std::string& name, const CaseData& base,
                  const CaseData& cur, const DiffOptions& options,
                  DiffReport* report) {
  for (const auto& [counter, base_value] : base.counters) {
    const auto it = cur.counters.find(counter);
    if (it == cur.counters.end()) {
      AddFinding(report,
                 Finding{"counter_missing", name, counter,
                         static_cast<double>(base_value), 0, -1.0, true,
                         "counter disappeared from the current report"});
      continue;
    }
    ++report->counters_compared;
    const double b = static_cast<double>(base_value);
    const double c = static_cast<double>(it->second);
    const double change = (c - b) / std::max(b, 1.0);
    if (std::fabs(change) > options.counter_tolerance) {
      AddFinding(report, Finding{"counter_drift", name, counter, b, c,
                                 change, true,
                                 "deterministic work count drifted by " +
                                     Percent(change)});
    }
  }
  for (const auto& [counter, value] : cur.counters) {
    if (base.counters.count(counter) == 0) {
      AddFinding(report,
                 Finding{"counter_new", name, counter, 0,
                         static_cast<double>(value), 1.0, true,
                         "counter absent from the baseline — refresh it"});
    }
  }
}

void DiffWalls(const std::string& name, const CaseData& base,
               const CaseData& cur, const DiffOptions& options,
               DiffReport* report) {
  if (base.wall_seconds.empty() || cur.wall_seconds.empty()) return;
  const double base_median = Median(base.wall_seconds);
  const double cur_median = Median(cur.wall_seconds);
  if (base_median < options.min_wall_seconds &&
      cur_median < options.min_wall_seconds) {
    return;  // too fast to time meaningfully
  }
  // Noise floor: the combined MAD-estimated sigma of both runs, or the
  // relative tolerance, whichever is larger.
  const double noise =
      kMadToSigma * (MedianAbsDeviation(base.wall_seconds, base_median) +
                     MedianAbsDeviation(cur.wall_seconds, cur_median));
  const double threshold =
      std::max(options.wall_tolerance * base_median, 3 * noise);
  const double change = (cur_median - base_median) / std::max(base_median, 1e-12);
  report->wall_compared = true;
  if (cur_median > base_median + threshold) {
    AddFinding(report,
               Finding{"wall_regression", name, "wall_seconds", base_median,
                       cur_median, change,
                       true, "median slowed by " + Percent(change) +
                           " (beyond the MAD noise floor)"});
  } else if (cur_median < base_median - threshold) {
    AddFinding(report,
               Finding{"wall_improvement", name, "wall_seconds", base_median,
                       cur_median, change, false,
                       "median improved by " + Percent(change)});
  }
}

}  // namespace

const CaseData* BenchData::FindCase(const std::string& name) const {
  for (const auto& [case_name, data] : cases) {
    if (case_name == name) return &data;
  }
  return nullptr;
}

Result<BenchData> LoadBenchData(const std::string& json) {
  auto parsed = obs::ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const obs::JsonValue* schema = parsed->Find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return Status::InvalidArgument("document has no schema string");
  }
  if (schema->string == kBenchBaselineSchema) return LoadBaseline(*parsed);
  if (schema->string == obs::kBenchReportSchema) return LoadReport(*parsed);
  return Status::InvalidArgument("unsupported schema '" + schema->string +
                                 "'");
}

size_t DiffReport::NumRegressions() const {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (f.regression) ++n;
  }
  return n;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MedianAbsDeviation(const std::vector<double>& values, double median) {
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (const double v : values) deviations.push_back(std::fabs(v - median));
  return Median(std::move(deviations));
}

DiffReport DiffBenchData(const BenchData& baseline, const BenchData& current,
                         const DiffOptions& options) {
  DiffReport report;
  // A current report without observability (written by an older build)
  // makes the counter gate vacuous; that must fail loudly rather than
  // report a clean diff.
  if (baseline.obs_enabled && !current.obs_enabled) {
    AddFinding(&report,
               Finding{"obs_disabled", "", "", 0, 0, 0, true,
                       "current report declares obs_enabled false; counters "
                       "cannot be gated"});
    return report;
  }
  const bool same_machine = !baseline.machine.empty() &&
                            baseline.machine == current.machine;
  for (const auto& [name, base_case] : baseline.cases) {
    const CaseData* cur_case = current.FindCase(name);
    if (cur_case == nullptr) {
      AddFinding(&report, Finding{"case_missing", name, "", 0, 0, 0, true,
                                  "case missing from the current report"});
      continue;
    }
    ++report.cases_compared;
    DiffCounters(name, base_case, *cur_case, options, &report);
    if (!options.counters_only) {
      if (same_machine) {
        DiffWalls(name, base_case, *cur_case, options, &report);
      } else if (!base_case.wall_seconds.empty() &&
                 !cur_case->wall_seconds.empty()) {
        AddFinding(&report,
                   Finding{"wall_skipped", name, "wall_seconds",
                           Median(base_case.wall_seconds),
                           Median(cur_case->wall_seconds), 0, false,
                           "machines differ or are unidentified; wall times "
                           "not comparable"});
      }
    }
  }
  for (const auto& [name, cur_case] : current.cases) {
    if (baseline.FindCase(name) == nullptr) {
      AddFinding(&report, Finding{"case_new", name, "", 0, 0, 0, false,
                                  "case absent from the baseline"});
    }
  }
  return report;
}

std::string RenderDiffJson(const DiffReport& report,
                           const DiffOptions& options) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kBenchDiffSchema);
  writer.Key("counters_only").Bool(options.counters_only);
  writer.Key("counter_tolerance").Number(options.counter_tolerance);
  writer.Key("wall_tolerance").Number(options.wall_tolerance);
  writer.Key("cases_compared").Int(report.cases_compared);
  writer.Key("counters_compared").Int(report.counters_compared);
  writer.Key("wall_compared").Bool(report.wall_compared);
  writer.Key("regressions").Int(report.NumRegressions());
  writer.Key("findings").BeginArray();
  for (const Finding& f : report.findings) {
    writer.BeginObject();
    writer.Key("kind").String(f.kind);
    writer.Key("case").String(f.case_name);
    writer.Key("metric").String(f.metric);
    writer.Key("baseline").Number(f.baseline);
    writer.Key("current").Number(f.current);
    writer.Key("change").Number(f.change);
    writer.Key("regression").Bool(f.regression);
    writer.Key("detail").String(f.detail);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return writer.Take();
}

Status ValidateBenchDiffJson(const std::string& json) {
  auto parsed = obs::ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const obs::JsonValue* schema = parsed->Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kBenchDiffSchema) {
    return Status::InvalidArgument(std::string("$.schema: expected ") +
                                   kBenchDiffSchema);
  }
  for (const char* key : {"cases_compared", "counters_compared",
                          "counter_tolerance", "wall_tolerance",
                          "regressions"}) {
    const obs::JsonValue* v = parsed->Find(key);
    if (v == nullptr || !v->is_number()) {
      return Status::InvalidArgument(std::string("$.") + key +
                                     ": missing or not a number");
    }
  }
  for (const char* key : {"counters_only", "wall_compared"}) {
    const obs::JsonValue* v = parsed->Find(key);
    if (v == nullptr || v->kind != obs::JsonValue::Kind::kBool) {
      return Status::InvalidArgument(std::string("$.") + key +
                                     ": missing or not a bool");
    }
  }
  const obs::JsonValue* findings = parsed->Find("findings");
  if (findings == nullptr || !findings->is_array()) {
    return Status::InvalidArgument("$.findings: missing or not an array");
  }
  for (size_t i = 0; i < findings->array.size(); ++i) {
    const obs::JsonValue& f = findings->array[i];
    const std::string path = "$.findings[" + std::to_string(i) + "]";
    for (const char* key : {"kind", "case", "metric", "detail"}) {
      const obs::JsonValue* v = f.Find(key);
      if (v == nullptr || !v->is_string()) {
        return Status::InvalidArgument(path + "." + key +
                                       ": missing or not a string");
      }
    }
    for (const char* key : {"baseline", "current", "change"}) {
      const obs::JsonValue* v = f.Find(key);
      if (v == nullptr || !v->is_number()) {
        return Status::InvalidArgument(path + "." + key +
                                       ": missing or not a number");
      }
    }
    const obs::JsonValue* regression = f.Find("regression");
    if (regression == nullptr ||
        regression->kind != obs::JsonValue::Kind::kBool) {
      return Status::InvalidArgument(path + ".regression: missing or not a "
                                     "bool");
    }
  }
  return Status::OK();
}

std::string RenderDiffTable(const DiffReport& report) {
  TablePrinter table({"kind", "case", "metric", "baseline", "current",
                      "change", "gate"});
  for (const Finding& f : report.findings) {
    table.AddRow({f.kind, f.case_name, f.metric, TablePrinter::Num(f.baseline, 6),
                  TablePrinter::Num(f.current, 6), Percent(f.change),
                  f.regression ? "REGRESSION" : "note"});
  }
  return table.ToString();
}

std::string RenderBaselineJson(const BenchData& data) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String(kBenchBaselineSchema);
  writer.Key("obs_enabled").Bool(data.obs_enabled);
  writer.Key("source_schema").String(data.schema);
  writer.Key("cases").BeginObject();
  for (const auto& [name, case_data] : data.cases) {
    writer.Key(name).BeginObject();
    for (const auto& [counter, value] : case_data.counters) {
      writer.Key(counter).Int(value);
    }
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
  return writer.Take();
}

}  // namespace mc3::benchdiff
