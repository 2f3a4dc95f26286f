// In-process replays of the serve_churn request sequence: the offline
// OnlineEngine oracle the served plan is checked against, and the traced
// replay that times each serving layer through its public call.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/instance.h"
#include "online/online_engine.h"
#include "util/status.h"

namespace perfbench {

/// (property names, price) per classifier of a plan.
using PlanRows = std::vector<std::pair<std::vector<std::string>, mc3::Cost>>;

/// The plan in the canonical text `mc3 recover --solution-out` writes:
/// one "<sorted names> # <price>" line per classifier, lines sorted, then
/// "total <sum>".
std::string CanonicalPlan(PlanRows rows);

/// Canonical plan of an engine's current solution.
std::string EnginePlan(const mc3::online::OnlineEngine& engine);

/// The correctness oracle: loads <dir>/catalog.csv, applies every request
/// of both writers one at a time through OnlineEngine::ApplyUpdate and
/// returns the final plan in canonical form.
mc3::Result<std::string> ReplayOffline(const std::string& dir);

/// Traced replay: after a checkpoint of the catalog and the warm-up, the
/// measured requests of the two writers, alternating and one per batch as
/// the live server applies them, pass through ParseRequest, UpdateCoalescer,
/// ApplyUpdate, the WAL, BuildReadView and the versioned publisher; the
/// resulting data directory `data_dir` is then recovered layer by layer.
/// The same replay runs once more untraced for the overhead. Writes
/// <dir>/traced-plan.txt and the spans to `trace_path`.
RunResult RunServeReplayTraced(const std::string& dir,
                               const std::string& data_dir,
                               const std::string& trace_path);

}  // namespace perfbench
