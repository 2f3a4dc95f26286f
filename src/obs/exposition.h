// Prometheus text exposition for the metrics registry (the serving `metrics`
// verb; docs/observability.md "Serving telemetry"). Renders a
// MetricsSnapshot plus caller-supplied labeled samples (server stats, build
// info) in the text exposition format:
//
//   # HELP mc3_server_requests_total ...
//   # TYPE mc3_server_requests_total counter
//   mc3_server_requests_total 42
//   mc3_build_info{build_type="Release",compiler="gcc 12.2.0",obs="on"} 1
//
// Counters get a `_total` suffix, histograms render as cumulative
// `_bucket{le="..."}` series plus `_sum`/`_count`. A small parser for the
// same format lives here too, so the load generator and tests can scrape
// without a real Prometheus client. Both directions operate on plain
// snapshot structs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace mc3::obs {

/// One labeled sample merged into the exposition output alongside the
/// registry (used for server stats and `mc3_build_info`).
struct ExpositionSample {
  std::string name;  ///< raw dotted name; sanitized via PrometheusName
  std::string type;  ///< "counter" or "gauge"
  std::map<std::string, std::string> labels;
  double value = 0;
};

/// Sanitized metric name: `mc3_` prefix, every non-[a-zA-Z0-9_] mapped to
/// '_'. Counter names additionally get `_total` at render time.
std::string PrometheusName(const std::string& raw);

/// Renders the snapshot plus `extra` samples as one exposition document.
/// Extra samples sharing a name must be adjacent (they share one # TYPE
/// line); within the registry, names are already sorted.
std::string RenderPrometheus(const MetricsSnapshot& snap,
                             const std::vector<ExpositionSample>& extra);

/// One scraped sample: sanitized name, labels, value.
struct ParsedSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

/// Parses an exposition document (comments and blank lines skipped).
/// Returns kInvalidArgument naming the offending line on malformed input.
Result<std::vector<ParsedSample>> ParseExposition(const std::string& text);

/// First sample matching `name` (and `labels`, when given); nullptr when
/// absent. Convenience for tests and the loadgen reconcile check.
const ParsedSample* FindSample(
    const std::vector<ParsedSample>& samples, const std::string& name,
    const std::map<std::string, std::string>& labels = {});

}  // namespace mc3::obs
