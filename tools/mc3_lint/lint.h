// mc3_lint: project-specific static analysis for the MC3 codebase.
//
// A dependency-free, file/token-level pass (no compiler frontend) enforcing
// the project rules documented in docs/static_analysis.md:
//
//   R1 determinism      — no iteration over unordered_{map,set} in library
//                         code unless waived; unordered iteration order leaks
//                         into greedy tie-breaks and component ordering.
//   R2 float-equality   — no ==/!= on cost/weight doubles; use the ApproxEq /
//                         IsInfiniteCost / IsZeroCost helpers
//                         (util/float_cmp.h).
//   R3 header hygiene   — every header starts with #pragma once and is
//                         self-contained (enforced by generated per-header
//                         translation units, see EmitHeaderTu).
//   R4 banned constructs— rand()/srand(), time(NULL), std::cout / printf in
//                         src/ libraries (tools/, bench/, examples/ may
//                         print), naked new/delete, and raw std:: mutex,
//                         lock and condition-variable types outside
//                         src/util/sync.h.
//   R6 shared-mutable capture — a by-reference capture mutated inside a
//                         ParallelFor body without indexing by the worker
//                         slot, atomics, or a mutex is a data-race hazard
//                         (ThreadSanitizer in CI is the dynamic complement).
//   R8 guarded members  — a class owning a mutex must annotate every other
//                         mutable, non-thread-safe data member with
//                         MC3_GUARDED_BY (util/thread_annotations.h) or
//                         carry a guard-ok waiver explaining the ownership.
//   R9 thread lifetime  — no detached std::threads, and a directly declared
//                         std::thread must be join()ed somewhere in the
//                         scanned file set (vectors of threads are joined in
//                         loops and are out of scope for a token pass).
//   R10 lock order      — the static lock-acquisition graph (scoped guards
//                         nested inside held scopes, plus holds implied by
//                         MC3_REQUIRES annotations) must be acyclic; a cycle
//                         is a potential deadlock. The graph is emitted in
//                         the JSON report.
//
// R5 (unchecked Status) and R7 (bare condition-variable waits) are retired,
// and their numbers stay unused: [[nodiscard]] on Status and Result with
// -Werror=unused-result rejects a dropped result at compile time, and
// util::CondVar offers only predicate waits.
//
// Waivers: a finding is suppressed by a comment on the same line (or on an
// immediately preceding comment-only line) of the form
//
//     // mc3-lint: unordered-ok(ids are sorted two lines below)
//
// i.e. a rule tag (unordered, float-eq, pragma-once, print, new-delete,
// rand, time, raw-sync, capture, guard, detach, lock-order) followed
// by "-ok" and a non-empty parenthesized reason. A malformed waiver (unknown
// tag, empty reason) is itself a finding (W0), and so is a waiver for a
// per-file rule (R1-R9) that suppresses nothing in its file (W1).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace mc3::lint {

/// One rule violation.
struct Finding {
  std::string file;
  int line = 0;           ///< 1-based
  /// "R1".."R4", "R6", "R8".."R10", "W0" (malformed waiver) or "W1" (stale
  /// waiver)
  std::string rule;
  std::string tag;        ///< waiver tag that would suppress it
  std::string message;
};

/// Per-file knobs derived from the file's location.
struct FileConfig {
  bool allow_prints = false;  ///< tools/, bench/, examples/: printing is fine
  bool is_header = false;     ///< apply R3
};

/// One acquisition edge of the lock-order graph (rule R10): `to` was
/// acquired while `from` was held, at file:line. Waived edges (lock-order-ok
/// on the acquisition line) stay in the dumped graph but never participate
/// in cycle detection.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
  bool waived = false;
};

/// One cycle of the lock-order graph; `nodes` lists the mutexes in
/// acquisition order (first node repeated implicitly), file/line anchor the
/// back edge that closes the cycle.
struct LockCycle {
  std::vector<std::string> nodes;
  std::string file;
  int line = 0;
};

/// Symbols collected in the indexing pass over every scanned file. All
/// containers are ordered so lint output is deterministic by construction.
struct SymbolIndex {
  /// Type aliases resolving to unordered containers.
  std::set<std::string> unordered_aliases;
  /// Variables, members, parameters and accessor functions whose type (or
  /// return type) is an unordered container.
  std::set<std::string> unordered_symbols;
  /// Names declared with a thread-safe type (std::atomic, std::mutex,
  /// obs::Counter/Gauge/Histogram): exempt from R6.
  std::set<std::string> threadsafe_symbols;
  /// Thread names join()ed (or joinable()-probed) anywhere in the scanned
  /// file set; fill with CollectJoins over EVERY file — threads are often
  /// declared in a header and joined in the matching .cc (rule R9).
  std::set<std::string> joined_symbols;
  /// Function name -> mutexes named in an MC3_REQUIRES annotation on its
  /// declaration. Seeds the held-set at the function's out-of-line
  /// definition, where clang-style attributes are not repeated (rule R10).
  std::map<std::string, std::vector<std::string>> requires_map;
  /// Raw alias table (name -> definition text) used for transitive aliases.
  std::map<std::string, std::string> alias_defs;
  /// Scrubbed contents of every indexed file, re-scanned by ResolveAliases()
  /// once the full alias set is known.
  std::vector<std::string> indexed_contents;

  /// Resolves alias-of-alias chains; call once after indexing every file.
  void ResolveAliases();
};

/// `content` with comments and string/character literals blanked out
/// (replaced by spaces, newlines preserved), so rule scans never match
/// inside literals or prose. Handles raw string literals.
std::string Scrub(const std::string& content);

/// Comment text per line (1-based), for waiver extraction.
std::map<int, std::string> CommentsByLine(const std::string& content);

/// Indexing pass: records symbols declared in `content` into `index`.
void IndexFile(const std::string& content, SymbolIndex* index);

/// Join-index pass for rule R9: records every `x.join()` / `x.joinable()`
/// receiver in `content` into `index->joined_symbols`. Unlike IndexFile
/// (headers only in the driver), this must run over every scanned file.
void CollectJoins(const std::string& content, SymbolIndex* index);

/// Lock-order pass for rule R10: the acquisition edges observed in
/// `content`. `index` supplies requires_map so out-of-line definitions of
/// MC3_REQUIRES-annotated functions seed the held set.
std::vector<LockEdge> CollectLockEdges(const std::string& path,
                                       const std::string& content,
                                       const SymbolIndex& index);

/// Cycle detection over the non-waived edges of the lock-order graph.
/// Deterministic: cycles are reported once, in node-sorted order.
std::vector<LockCycle> FindLockCycles(const std::vector<LockEdge>& edges);

/// Renders a cycle as an R10 finding.
Finding CycleFinding(const LockCycle& cycle);

/// Linting pass: returns the findings for one file (rules R1-R9; R10 is a
/// whole-project pass — see CollectLockEdges/FindLockCycles). `index` must
/// have been built (and ResolveAliases() called) over every file in the
/// project so cross-file symbols (e.g. members declared in headers) resolve.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content,
                              const SymbolIndex& index,
                              const FileConfig& config);

/// Convenience for tests: index `content` alone, then lint it — including a
/// single-file R10 pass.
std::vector<Finding> LintSnippet(const std::string& path,
                                 const std::string& content,
                                 const FileConfig& config = {});

/// The generated translation unit proving `header_include_path` (an include
/// path relative to src/, e.g. "core/instance.h") is self-contained.
std::string HeaderTuSource(const std::string& header_include_path);

/// Renders findings as a mc3.lint_report/2 JSON document: per-rule counts
/// for every rule (zeros included), the findings, the lock-order graph with
/// its cycles, and the files that could not be read.
std::string FindingsToJson(const std::vector<Finding>& findings,
                           size_t files_scanned,
                           const std::vector<LockEdge>& lock_edges = {},
                           const std::vector<LockCycle>& lock_cycles = {},
                           const std::vector<std::string>& skipped_files = {});

}  // namespace mc3::lint
