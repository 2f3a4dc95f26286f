#include "obs/exposition.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace mc3::obs {

namespace {

/// Prometheus float formatting: exact integers render bare, everything else
/// with enough digits to round-trip.
std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Label values escape backslash, double quote and newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void AppendLabels(const std::map<std::string, std::string>& labels,
                  std::string* out) {
  if (labels.empty()) return;
  *out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += k;
    *out += "=\"";
    *out += EscapeLabelValue(v);
    *out += '"';
  }
  *out += '}';
}

void AppendHeader(const std::string& name, const std::string& raw,
                  const std::string& type, std::string* out) {
  *out += "# HELP " + name + " mc3 metric " + raw + "\n";
  *out += "# TYPE " + name + " " + type + "\n";
}

}  // namespace

std::string PrometheusName(const std::string& raw) {
  std::string out = "mc3_";
  out.reserve(raw.size() + 4);
  for (char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string RenderPrometheus(const MetricsSnapshot& snap,
                             const std::vector<ExpositionSample>& extra) {
  std::string out;
  for (const auto& [raw, value] : snap.counters) {
    const std::string name = PrometheusName(raw) + "_total";
    AppendHeader(name, raw, "counter", &out);
    out += name + " " + FormatValue(static_cast<double>(value)) + "\n";
  }
  for (const auto& [raw, value] : snap.gauges) {
    const std::string name = PrometheusName(raw);
    AppendHeader(name, raw, "gauge", &out);
    out += name + " " + FormatValue(value) + "\n";
  }
  for (const auto& [raw, h] : snap.histograms) {
    const std::string name = PrometheusName(raw);
    AppendHeader(name, raw, "histogram", &out);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      out += name + "_bucket{le=\"" +
             FormatValue(HistogramBucketBound(static_cast<int>(i) + 1)) +
             "\"} " + FormatValue(static_cast<double>(cumulative)) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " +
           FormatValue(static_cast<double>(h.count)) + "\n";
    out += name + "_sum " + FormatValue(h.sum) + "\n";
    out += name + "_count " + FormatValue(static_cast<double>(h.count)) + "\n";
  }
  std::string last_name;  // adjacent same-name extras share one header
  for (const ExpositionSample& s : extra) {
    std::string name = PrometheusName(s.name);
    if (s.type == "counter") name += "_total";
    if (name != last_name) {
      AppendHeader(name, s.name, s.type, &out);
      last_name = name;
    }
    out += name;
    AppendLabels(s.labels, &out);
    out += ' ';
    out += FormatValue(s.value);
    out += '\n';
  }
  return out;
}

Result<std::vector<ParsedSample>> ParseExposition(const std::string& text) {
  std::vector<ParsedSample> samples;
  size_t pos = 0;
  int line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const auto fail = [&](const std::string& why) {
      return Status::InvalidArgument("exposition line " +
                                     std::to_string(line_no) + ": " + why +
                                     ": " + line);
    };
    size_t i = 0;
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i >= line.size() || line[i] == '#') continue;

    ParsedSample s;
    const size_t name_start = i;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_' || line[i] == ':')) {
      ++i;
    }
    if (i == name_start) return fail("expected metric name");
    s.name = line.substr(name_start, i - name_start);

    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const size_t key_start = i;
        while (i < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[i])) ||
                line[i] == '_')) {
          ++i;
        }
        const std::string key = line.substr(key_start, i - key_start);
        if (key.empty() || i >= line.size() || line[i] != '=')
          return fail("expected label key=");
        ++i;
        if (i >= line.size() || line[i] != '"')
          return fail("expected quoted label value");
        ++i;
        std::string value;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\' && i + 1 < line.size()) {
            ++i;
            if (line[i] == 'n') {
              value += '\n';
            } else {
              value += line[i];
            }
          } else {
            value += line[i];
          }
          ++i;
        }
        if (i >= line.size()) return fail("unterminated label value");
        ++i;  // closing quote
        s.labels[key] = value;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) return fail("unterminated label set");
      ++i;  // closing brace
    }

    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i >= line.size()) return fail("missing value");
    const std::string token = line.substr(i);
    if (token == "+Inf") {
      s.value = std::numeric_limits<double>::infinity();
    } else if (token == "-Inf") {
      s.value = -std::numeric_limits<double>::infinity();
    } else if (token == "NaN") {
      s.value = std::numeric_limits<double>::quiet_NaN();
    } else {
      char* end = nullptr;
      s.value = std::strtod(token.c_str(), &end);
      if (end == token.c_str()) return fail("malformed value");
      // An optional trailing integer timestamp is accepted and ignored.
      while (*end != '\0' &&
             std::isspace(static_cast<unsigned char>(*end))) {
        ++end;
      }
      if (*end != '\0') {
        char* ts_end = nullptr;
        (void)std::strtoll(end, &ts_end, 10);
        if (ts_end == end || *ts_end != '\0')
          return fail("trailing garbage after value");
      }
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

const ParsedSample* FindSample(
    const std::vector<ParsedSample>& samples, const std::string& name,
    const std::map<std::string, std::string>& labels) {
  for (const ParsedSample& s : samples) {
    if (s.name != name) continue;
    bool match = true;
    for (const auto& [k, v] : labels) {
      auto it = s.labels.find(k);
      if (it == s.labels.end() || it->second != v) {
        match = false;
        break;
      }
    }
    if (match) return &s;
  }
  return nullptr;
}

}  // namespace mc3::obs
