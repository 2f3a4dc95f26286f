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
//
// R5 (unchecked Status) and R7 (bare condition-variable waits) are retired,
// and their numbers stay unused: [[nodiscard]] on Status and Result with
// -Werror=unused-result rejects a dropped result at compile time, and
// util::CondVar offers only predicate waits. Lock order is no lint rule:
// the TSan CI job's deadlock detector checks it at run time and follows
// every nesting across calls, which a token pass cannot.
//
// Waivers: a finding is suppressed by a comment on the same line (or on an
// immediately preceding comment-only line) of the form
//
//     // mc3-lint: unordered-ok(ids are sorted two lines below)
//
// i.e. a rule tag (unordered, float-eq, pragma-once, print, new-delete,
// rand, time, raw-sync, capture, guard, detach) followed by "-ok" and a
// non-empty parenthesized reason. A malformed waiver (unknown tag, empty
// reason) is itself a finding (W0), and so is a waiver that suppresses
// nothing in its file (W1).
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
  /// "R1".."R4", "R6", "R8", "R9", "W0" (malformed waiver) or "W1" (stale
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

/// Linting pass: returns the findings for one file. `index` must have been
/// built (and ResolveAliases() called) over every file in the project so
/// cross-file symbols (e.g. members declared in headers) resolve.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content,
                              const SymbolIndex& index,
                              const FileConfig& config);

/// Convenience for tests: index `content` alone, then lint it.
std::vector<Finding> LintSnippet(const std::string& path,
                                 const std::string& content,
                                 const FileConfig& config = {});

/// The generated translation unit proving `header_include_path` (an include
/// path relative to src/, e.g. "core/instance.h") is self-contained.
std::string HeaderTuSource(const std::string& header_include_path);

/// Renders findings as a mc3.lint_report/3 JSON document: per-rule counts
/// for every rule (zeros included), the findings, and the files that could
/// not be read.
std::string FindingsToJson(const std::vector<Finding>& findings,
                           size_t files_scanned,
                           const std::vector<std::string>& skipped_files = {});

}  // namespace mc3::lint
