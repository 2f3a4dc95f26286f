// The two solve workloads: the paper's MC3[G] path (GeneralSolver on the
// §6.1 synthetic generator) and MC3[S] (K2ExactSolver on the Figure 3c
// length <= 2 restriction), run in-process through Solver::Solve.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "core/instance.h"
#include "util/status.h"

namespace perfbench {

enum class SolveKind { kGeneral, kShort };

mc3::Result<SolveKind> ParseSolveKind(const std::string& name);

/// The workload instance for `bench_seed`: 20,000 synthetic queries (k <=
/// 10) for kGeneral; the length <= 2 queries of 100,000 for kShort.
mc3::Instance GenerateSolveInstance(SolveKind kind, uint64_t bench_seed);

/// One measuring process: LoadInstance plus the first (cold) Solve is the
/// set-up; warm Solves then repeat until `seconds` have passed. Every plan
/// is checked for coverage and for the same cost as the cold plan.
RunResult RunSolve(SolveKind kind, const std::string& csv_path,
                   double seconds);

/// Traced run: three times, LoadInstance and then the solver's pipeline
/// re-driven layer by layer through the public calls, each inside a span;
/// once more untraced for the overhead. Writes the spans as Chrome trace
/// JSON to `trace_path`.
RunResult RunSolveTraced(SolveKind kind, const std::string& csv_path,
                         const std::string& trace_path);

}  // namespace perfbench
