// Unit tests for the mc3_lint rule engine (tools/mc3_lint/lint.h): one
// failing and one passing fixture per rule (R1-R4, R6, R8, R9), plus waiver
// syntax and report rendering. Fixtures live in string literals, so linting
// this file itself (the lint_clean test) sees none of them.
#include "mc3_lint/lint.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace mc3::lint {
namespace {

/// Findings for `code` linted as a standalone library .cc file.
std::vector<Finding> Lint(const std::string& code, FileConfig config = {}) {
  return LintSnippet("fixture.cc", code, config);
}

size_t CountRule(const std::vector<Finding>& findings,
                 const std::string& rule) {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// ---------------------------------------------------------------- R1

TEST(LintR1, FlagsRangeForOverUnorderedMap) {
  const auto findings = Lint(
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "void F() {\n"
      "  for (const auto& [k, v] : m) {\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R1"), 1u);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[0].tag, "unordered");
}

TEST(LintR1, ResolvesAliasChains) {
  const auto findings = Lint(
      "using Inner = std::unordered_map<int, double>;\n"
      "using CostTable = Inner;\n"
      "CostTable costs_;\n"
      "void F() {\n"
      "  for (const auto& entry : costs_) {\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R1"), 1u);
}

TEST(LintR1, ResolvesAccessorReturningUnordered) {
  const auto findings = Lint(
      "struct S {\n"
      "  const std::unordered_map<int, int>& table() const;\n"
      "};\n"
      "void F(const S& s) {\n"
      "  for (const auto& e : s.table()) {\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R1"), 1u);
}

TEST(LintR1, PassesOrderedMapAndLookups) {
  const auto findings = Lint(
      "#include <map>\n"
      "std::map<int, int> ordered;\n"
      "std::unordered_map<int, std::vector<int>> by_key;\n"
      "void F(int k) {\n"
      "  for (const auto& [a, b] : ordered) {\n"
      "  }\n"
      "  for (int v : by_key[k]) {\n"  // indexing, not iterating the map
      "  }\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R1"), 0u);
}

TEST(LintR1, CrossFileSymbolFromHeaderIndex) {
  SymbolIndex index;
  IndexFile("struct E { std::unordered_map<int, int> members_; };\n", &index);
  const std::string cc =
      "void F(E& e) {\n"
      "  for (const auto& m : e.members_) {\n"
      "  }\n"
      "}\n";
  IndexFile(cc, &index);
  index.ResolveAliases();
  const auto findings = LintFile("engine.cc", cc, index, FileConfig{});
  EXPECT_EQ(CountRule(findings, "R1"), 1u);
}

// ---------------------------------------------------------------- R2

TEST(LintR2, FlagsExactCostComparison) {
  const auto eq = Lint("bool F(double total_cost, double other_cost) {\n"
                       "  return total_cost == other_cost;\n"
                       "}\n");
  EXPECT_EQ(CountRule(eq, "R2"), 1u);
  EXPECT_EQ(eq[0].tag, "float-eq");
  const auto ne = Lint("bool G(double weight, double w2) {\n"
                       "  return weight != w2;\n"
                       "}\n");
  EXPECT_EQ(CountRule(ne, "R2"), 1u);
}

TEST(LintR2, PassesHelpersAndIteratorProtocol) {
  const auto findings = Lint(
      "bool F(double cost_a, double cost_b) {\n"
      "  return ApproxEq(cost_a, cost_b);\n"
      "}\n"
      "bool G(const CostMap& costs, CostMap::iterator it) {\n"
      "  return it == costs.end();\n"  // iterator compare, not a cost
      "}\n"
      "bool H(int count, int other) {\n"
      "  return count == other;\n"  // ints named nothing cost-like
      "}\n");
  EXPECT_EQ(CountRule(findings, "R2"), 0u);
}

// ---------------------------------------------------------------- R3

TEST(LintR3, FlagsHeaderWithoutPragmaOnce) {
  FileConfig config;
  config.is_header = true;
  const auto findings =
      LintSnippet("fixture.h", "#ifndef X\n#define X\n#endif\n", config);
  EXPECT_EQ(CountRule(findings, "R3"), 1u);
  EXPECT_EQ(findings[0].tag, "pragma-once");
}

TEST(LintR3, PassesPragmaOnceHeaderAndAnySource) {
  FileConfig header;
  header.is_header = true;
  EXPECT_EQ(CountRule(LintSnippet("fixture.h", "#pragma once\nint x;\n",
                                  header), "R3"), 0u);
  // .cc files are exempt from R3 entirely.
  EXPECT_EQ(CountRule(Lint("int x;\n"), "R3"), 0u);
}

TEST(LintR3, HeaderTuSourceIncludesTheHeader) {
  const std::string tu = HeaderTuSource("core/instance.h");
  EXPECT_NE(tu.find("#include \"core/instance.h\""), std::string::npos);
}

// ---------------------------------------------------------------- R4

TEST(LintR4, FlagsRandTimePrintAndNakedNew) {
  const auto findings = Lint(
      "#include <cstdlib>\n"
      "void F() {\n"
      "  srand(time(NULL));\n"
      "  int x = rand();\n"
      "  std::cout << x;\n"
      "  int* p = new int;\n"
      "  delete p;\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R4"), 6u);  // srand, time, rand, cout, new,
                                             // delete
}

TEST(LintR4, PassesToolsPrintingAndRaii) {
  FileConfig tool;
  tool.allow_prints = true;
  const auto printing = LintSnippet(
      "tools/cli.cc", "void F() { std::cout << 1; }\n", tool);
  EXPECT_EQ(CountRule(printing, "R4"), 0u);
  const auto raii = Lint(
      "struct S {\n"
      "  S(const S&) = delete;\n"  // deleted member, not naked delete
      "};\n"
      "void F() {\n"
      "  auto p = std::make_unique<int>(7);\n"
      "  double renewal = 0;\n"  // 'new' inside an identifier
      "}\n");
  EXPECT_EQ(CountRule(raii, "R4"), 0u);
}

TEST(LintR4, IgnoresBannedNamesInStringsAndComments) {
  const auto findings = Lint(
      "// rand() in a comment is fine\n"
      "const char* kMsg = \"call rand() and std::cout\";\n");
  EXPECT_EQ(CountRule(findings, "R4"), 0u);
}

TEST(LintR4, FlagsRawSyncTypesOutsideSyncHeader) {
  const auto findings = Lint(
      "std::mutex mu_;\n"
      "std::condition_variable cv_;\n"
      "void F() {\n"
      "  std::lock_guard<std::mutex> a(mu_);\n"
      "  std::unique_lock<std::mutex> b(mu_);\n"
      "  std::scoped_lock c(mu_);\n"
      "}\n");
  // mu_, cv_, and each guard with its template argument.
  EXPECT_EQ(CountRule(findings, "R4"), 7u);
  EXPECT_EQ(findings[0].tag, "raw-sync");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintR4, PassesUtilSyncTypesAndTheSyncHeader) {
  const auto wrapped = Lint(
      "util::Mutex mu_;\n"
      "util::CondVar cv_;\n"
      "void F() {\n"
      "  util::MutexLock a(mu_);\n"
      "  util::UniqueLock b(mu_);\n"
      "  std::mutex_like not_a_mutex;\n"  // a longer identifier
      "}\n");
  EXPECT_EQ(CountRule(wrapped, "R4"), 0u);
  // The wrappers themselves hold the raw types.
  const auto sync_header = LintSnippet(
      "src/util/sync.h",
      "#pragma once\n"
      "class Mutex {\n"
      "  std::mutex mu_;\n"
      "};\n"
      "class CondVar {\n"
      "  std::condition_variable cv_;\n"
      "};\n");
  EXPECT_EQ(CountRule(sync_header, "R4"), 0u);
}

// ---------------------------------------------------------------- R6

TEST(LintR6, FlagsSharedMutableCapture) {
  const auto findings = Lint(
      "void F(size_t n) {\n"
      "  int total = 0;\n"
      "  ParallelFor(n, 4, [&](size_t i) {\n"
      "    total += static_cast<int>(i);\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R6"), 1u);
  EXPECT_EQ(findings[0].tag, "capture");
}

TEST(LintR6, PassesSafePatterns) {
  const auto findings = Lint(
      "std::atomic<int> total;\n"
      "void F(size_t n, std::vector<int>& out) {\n"
      "  ParallelFor(n, 4, [&](size_t i) {\n"
      "    total += 1;\n"          // atomic
      "    out[i] = 7;\n"          // per-index addressing
      "    int local = 0;\n"
      "    local += 2;\n"          // declared in the body
      "  });\n"
      "  ParallelFor(n, 4, [](size_t i) {\n"
      "    (void)i;\n"             // no by-reference captures at all
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R6"), 0u);
}

TEST(LintR6, FlagsSharedMutableCaptureInPostedTasks) {
  // Tasks handed to the worker pool run on pool threads; a by-reference
  // captured accumulator is the same hazard as in a ParallelFor body. The
  // posted lambda is typically parameter-less.
  const auto findings = Lint(
      "void F(WorkerPool& pool) {\n"
      "  int total = 0;\n"
      "  pool.Post([&] {\n"
      "    total += 1;\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R6"), 1u);
  EXPECT_EQ(findings[0].tag, "capture");
}

TEST(LintR6, PassesSafePostedTasks) {
  const auto findings = Lint(
      "std::atomic<int> total;\n"
      "void F(WorkerPool& pool, std::shared_ptr<Connection> conn) {\n"
      "  pool.Post([&] {\n"
      "    total += 1;\n"          // atomic
      "    int local = 0;\n"
      "    local += 2;\n"          // declared in the body
      "  });\n"
      "  pool.Post([this, conn] {\n"
      "    HandleConnection(conn);\n"  // by-value captures only
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R6"), 0u);
}

TEST(LintR6, SkipsPostDeclarationAndDefinition) {
  const auto findings = Lint(
      "bool Post(Task task);\n"
      "bool Post(Task task) { return true; }\n");
  EXPECT_EQ(CountRule(findings, "R6"), 0u);
}

// ---------------------------------------------------------------- R8

TEST(LintR8, FlagsUnannotatedMembersOfMutexOwningClass) {
  const auto findings = Lint(
      "class Cache {\n"
      " public:\n"
      "  void Put(int k);\n"
      " private:\n"
      "  util::Mutex mu_;\n"
      "  int hits_ = 0;\n"
      "  std::vector<int> keys_;\n"
      "};\n");
  EXPECT_EQ(CountRule(findings, "R8"), 2u);
  EXPECT_EQ(findings[0].tag, "guard");
  EXPECT_EQ(findings[0].line, 6);
}

TEST(LintR8, PassesAnnotatedAtomicAndThreadSafeMembers) {
  const auto findings = Lint(
      "class Cache {\n"
      "  util::Mutex mu_;\n"
      "  int hits_ MC3_GUARDED_BY(mu_) = 0;\n"
      "  std::unique_ptr<int> slot_ MC3_PT_GUARDED_BY(mu_);\n"
      "  std::atomic<bool> stop_{false};\n"
      "  util::CondVar cv_;\n"
      "  obs::Counter* requests_ = nullptr;\n"
      "  static constexpr int kMax = 8;\n"
      "  const int capacity_ = 4;\n"
      "};\n");
  EXPECT_EQ(CountRule(findings, "R8"), 0u);
}

TEST(LintR8, PassesConcurrencyPrimitiveMembers) {
  // Epoch/publication types (src/concurrency/) are internally synchronized:
  // owning one next to a mutex needs no MC3_GUARDED_BY.
  const auto findings = Lint(
      "class Server {\n"
      "  util::Mutex mu_;\n"
      "  int epoch_state_ MC3_GUARDED_BY(mu_) = 0;\n"
      "  concurrency::EpochManager epochs_;\n"
      "  concurrency::VersionedPublisher<ReadIndex> index_publisher_;\n"
      "  concurrency::ReaderRegistration* reader_ = nullptr;\n"
      "};\n");
  EXPECT_EQ(CountRule(findings, "R8"), 0u);
}

TEST(LintR8, WaivesLockFreeEpochSlotMembers) {
  // A lock-free slot published by one thread and scanned by another cannot
  // carry MC3_GUARDED_BY; the guard-ok waiver (with a stated ownership
  // rule) covers the member on the next line — and an unwaived,
  // unannotated neighbor still flags.
  const auto findings = Lint(
      "struct EpochSlots {\n"
      "  util::Mutex slots_mu_;\n"
      "  // mc3-lint: guard-ok(single-writer slot scanned with seq_cst "
      "loads)\n"
      "  std::uint64_t pinned_epoch_ = 0;\n"
      "  std::uint64_t unguarded_count_ = 0;\n"
      "};\n");
  EXPECT_EQ(CountRule(findings, "R8"), 1u);
}

TEST(LintR8, PassesClassWithoutMutex) {
  // No owned mutex, nothing to guard: plain structs never trigger R8.
  const auto findings = Lint(
      "struct Stats {\n"
      "  int hits = 0;\n"
      "  std::vector<int> keys;\n"
      "};\n"
      "class Uses {\n"
      "  util::Mutex* borrowed_;\n"  // pointer: not owned by this class
      "  int x_ = 0;\n"
      "};\n");
  EXPECT_EQ(CountRule(findings, "R8"), 0u);
}

TEST(LintR8, DefaultBraceArgumentKeepsCheckingMembers) {
  // A `= {}` default argument is an initializer inside the parameter list,
  // not a function body: the members after it are still split and checked,
  // and so are those after a later inline body.
  const auto findings = Lint(
      "class Recorder {\n"
      " public:\n"
      "  void Open(const char* name, std::vector<uint64_t> ids = {});\n"
      "  void Note(int n, std::vector<int> extra = {}) { (void)n; }\n"
      " private:\n"
      "  util::Mutex mu_;\n"
      "  int recorded_ = 0;\n"
      "  int dropped_ MC3_GUARDED_BY(mu_) = 0;\n"
      "  std::vector<int> names_;\n"
      "};\n");
  ASSERT_EQ(CountRule(findings, "R8"), 2u);
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("recorded_"), std::string::npos);
  EXPECT_EQ(findings[1].line, 9);
}

TEST(LintR8, ChecksMembersWhoseTypeHoldsAParenthesis) {
  // A '(' inside template arguments, or one opening a parenthesized
  // declarator, does not make a member a function; the declarations above
  // the mutex still are functions and need no guard.
  const auto findings = Lint(
      "class Hooks {\n"
      " public:\n"
      "  Hooks() = default;\n"
      "  ~Hooks();\n"
      "  Hooks& operator=(const Hooks&) = delete;\n"
      "  [[nodiscard]] int Fire(int n);\n"
      "  std::function<void(int)> Callback() const;\n"
      "  void Set(std::function<void(int)> f) MC3_EXCLUDES(mu_);\n"
      " private:\n"
      "  util::Mutex mu_;\n"
      "  std::function<void(int)> on_fire_;\n"
      "  int (*raw_)(int);\n"
      "  std::function<void()> on_stop_ = [] {};\n"
      "  std::vector<int> names_;\n"
      "};\n");
  ASSERT_EQ(findings.size(), 4u);
  const std::vector<std::pair<int, std::string>> expected = {
      {11, "on_fire_"}, {12, "raw_"}, {13, "on_stop_"}, {14, "names_"}};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(findings[i].rule, "R8");
    EXPECT_EQ(findings[i].line, expected[i].first);
    EXPECT_NE(findings[i].message.find("'" + expected[i].second + "'"),
              std::string::npos)
        << findings[i].message;
  }
}

TEST(LintR8, NamesAQualifiedMemberByItsDeclarator) {
  // The name is cut at a lone ':' (a bit-field width), never at a '::'.
  const auto findings = Lint(
      "class Hooks {\n"
      "  util::Mutex mu_;\n"
      "  std::vector<int> names_;\n"
      "  std::map<std::string, int> counts_ = {};\n"
      "  unsigned flags_ : 3;\n"
      "};\n");
  ASSERT_EQ(findings.size(), 3u);
  const std::vector<std::string> expected = {"names_", "counts_", "flags_"};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(findings[i].rule, "R8");
    EXPECT_NE(findings[i].message.find("member '" + expected[i] +
                                       "' of 'Hooks'"),
              std::string::npos)
        << findings[i].message;
  }
}

TEST(LintR8, ChecksMembersAfterSpecifierAndMemberPointerParentheses) {
  // The operand of alignas or decltype is not a parameter list, and a
  // pointer-to-member declarator is a parenthesized declarator.
  const auto findings = Lint(
      "class Hooks {\n"
      "  util::Mutex mu_;\n"
      "  alignas(64) int counter_ = 0;\n"
      "  decltype(0) last_ = 0;\n"
      "  void (Hooks::*method_)(int);\n"
      "  int plain_ = 0;\n"
      "};\n");
  ASSERT_EQ(findings.size(), 4u);
  const std::vector<std::string> expected = {"counter_", "last_", "method_",
                                             "plain_"};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(findings[i].rule, "R8");
    EXPECT_EQ(findings[i].line, static_cast<int>(i) + 3);
    EXPECT_NE(findings[i].message.find("member '" + expected[i] + "'"),
              std::string::npos)
        << findings[i].message;
  }
}

// ---------------------------------------------------------------- R9

TEST(LintR9, FlagsDetachAndNeverJoinedThread) {
  const auto findings = Lint(
      "void F() {\n"
      "  std::thread orphan([] {});\n"
      "  std::thread runaway([] {});\n"
      "  runaway.detach();\n"
      "}\n");
  // orphan and runaway are both never join()ed, and the detach() call is a
  // finding of its own — detaching is never how a thread gets joined.
  EXPECT_EQ(CountRule(findings, "R9"), 3u);
  EXPECT_EQ(findings[0].tag, "detach");
}

TEST(LintR9, PassesJoinedThreadsAndPointerParams) {
  const auto findings = Lint(
      "void PinThreadToCore(std::thread* thread, int core);\n"
      "void F() {\n"
      "  std::thread worker([] {});\n"
      "  worker.join();\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R9"), 0u);
}

TEST(LintR9, JoinInAnotherFileSatisfiesHeaderDeclaration) {
  // The common split: the thread member lives in a header, the join in the
  // matching .cc. CollectJoins over the .cc must clear the header's R9.
  const std::string header =
      "class Pool {\n"
      "  util::Mutex mu_;\n"
      "  std::thread worker_;\n"
      "};\n";
  const std::string cc = "void Pool::Stop() { worker_.join(); }\n";
  SymbolIndex with_join;
  IndexFile(header, &with_join);
  CollectJoins(header, &with_join);
  CollectJoins(cc, &with_join);
  with_join.ResolveAliases();
  EXPECT_EQ(CountRule(LintFile("pool.h", header, with_join, FileConfig{}),
                      "R9"),
            0u);
  SymbolIndex without_join;
  IndexFile(header, &without_join);
  CollectJoins(header, &without_join);
  without_join.ResolveAliases();
  EXPECT_EQ(CountRule(LintFile("pool.h", header, without_join, FileConfig{}),
                      "R9"),
            1u);
}

// ------------------------------------------------------------- waivers

TEST(LintWaivers, SameLineAndPrecedingLineSuppress) {
  const std::string base =
      "std::unordered_map<int, int> m;\n"
      "void F() {\n";
  const auto same_line = Lint(
      base +
      "  for (const auto& [k, v] : m) {  // mc3-lint: unordered-ok(agg)\n"
      "  }\n}\n");
  EXPECT_EQ(CountRule(same_line, "R1"), 0u);
  const auto prev_line = Lint(
      base +
      "  // mc3-lint: unordered-ok(order-independent aggregation)\n"
      "  for (const auto& [k, v] : m) {\n"
      "  }\n}\n");
  EXPECT_EQ(CountRule(prev_line, "R1"), 0u);
}

TEST(LintWaivers, WrongTagDoesNotSuppress) {
  const auto findings = Lint(
      "std::unordered_map<int, int> m;\n"
      "void F() {\n"
      "  for (const auto& [k, v] : m) {  // mc3-lint: print-ok(not the tag)\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "R1"), 1u);
}

TEST(LintWaivers, ConcurrencyTagsSuppressTheirRules) {
  const auto guard = Lint(
      "class C {\n"
      "  util::Mutex mu_;\n"
      "  // mc3-lint: guard-ok(written once before threads start)\n"
      "  int config_;\n"
      "};\n");
  EXPECT_EQ(CountRule(guard, "R8"), 0u);
  const auto detach = Lint(
      "void F() {\n"
      "  std::thread t([] {});\n"
      "  t.detach();  // mc3-lint: detach-ok(fire-and-forget logger flush)\n"
      "}\n");
  // The waiver covers the detach() line; the declaration would still need a
  // join, so only the never-joined finding remains.
  EXPECT_EQ(CountRule(detach, "R9"), 1u);
  // Both concurrency tags are known: neither is a W0.
  EXPECT_EQ(CountRule(guard, "W0"), 0u);
  EXPECT_EQ(CountRule(detach, "W0"), 0u);
  // The tags of retired rules are unknown: a leftover waiver is one W0 and
  // never a stale-waiver W1.
  for (const std::string tag : {"lock-order", "cv-wait", "status"}) {
    const auto leftover =
        Lint("// mc3-lint: " + tag + "-ok(single-threaded phase)\nint x;\n");
    EXPECT_EQ(CountRule(leftover, "W0"), 1u) << tag;
    EXPECT_EQ(CountRule(leftover, "W1"), 0u) << tag;
  }
}

TEST(LintWaivers, MalformedWaiversAreFindings) {
  EXPECT_EQ(CountRule(Lint("// mc3-lint: unordered-ok()\nint x;\n"), "W0"),
            1u);  // empty reason
  EXPECT_EQ(CountRule(Lint("// mc3-lint: bogus-ok(reason)\nint x;\n"), "W0"),
            1u);  // unknown tag
  EXPECT_EQ(CountRule(Lint("// mc3-lint suppresses stuff\nint x;\n"), "W0"),
            1u);  // mention that parses as nothing
  EXPECT_EQ(CountRule(Lint("// mc3-lint: rand-ok(fixture helper)\nint x;\n"),
                      "W0"),
            0u);  // well-formed
}

TEST(LintWaivers, StaleWaiversAreFindings) {
  const std::string map = "std::unordered_map<int, int> m;\n";
  // Suppressing, on the line and on the line before: not stale.
  EXPECT_EQ(CountRule(Lint(map +
                           "void F() {\n"
                           "  for (auto& [k, v] : m) {  // mc3-lint: "
                           "unordered-ok(agg)\n"
                           "  }\n"
                           "  // mc3-lint: unordered-ok(agg)\n"
                           "  for (auto& [k, v] : m) {\n"
                           "  }\n"
                           "}\n"),
                      "W1"),
            0u);
  // Over a loop that iterates nothing unordered, and with the wrong tag:
  // both suppress nothing.
  const auto stale = Lint(
      "std::vector<int> v;\n"
      "void F() {\n"
      "  // mc3-lint: unordered-ok(was a map once)\n"
      "  for (int x : v) {\n"
      "  }\n"
      "  int y = 0;  // mc3-lint: print-ok(nothing prints here)\n"
      "}\n");
  ASSERT_EQ(CountRule(stale, "W1"), 2u);
  EXPECT_EQ(stale[0].line, 3);
  EXPECT_NE(stale[0].message.find("unordered-ok"), std::string::npos);
  EXPECT_EQ(stale[1].line, 6);
  // A wrong-tag waiver is stale and leaves the finding standing.
  const auto wrong = Lint(map +
                          "void F() {\n"
                          "  for (auto& [k, v] : m) {  // mc3-lint: "
                          "print-ok(not the tag)\n"
                          "  }\n"
                          "}\n");
  EXPECT_EQ(CountRule(wrong, "R1"), 1u);
  EXPECT_EQ(CountRule(wrong, "W1"), 1u);
  // A waiver covering no code is prose quoting the syntax: not checked.
  EXPECT_EQ(CountRule(Lint("// Waivers look like\n"
                           "//   // mc3-lint: unordered-ok(reason)\n"
                           "//\n"
                           "int x;\n"),
                      "W1"),
            0u);
}

// ------------------------------------------------------------- report

TEST(LintReport, RendersValidSchemaJson) {
  std::vector<Finding> findings = {
      {"src/a.cc", 3, "R1", "unordered", "iteration over 'm'"},
      {"src/b.cc", 9, "R4", "print", "library code must not print"},
  };
  const std::string json = FindingsToJson(findings, 42);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::JsonValue& root = *parsed;
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("schema")->string, "mc3.lint_report/3");
  EXPECT_EQ(root.Find("files_scanned")->number, 42);
  EXPECT_EQ(root.Find("num_findings")->number, 2);
  ASSERT_TRUE(root.Find("findings")->is_array());
  EXPECT_EQ(root.Find("findings")->array.size(), 2u);
  // Every live rule appears in the per-rule counts, zeros included, so
  // report consumers never need existence checks; retired rule numbers are
  // not counted.
  const obs::JsonValue* by_rule = root.Find("findings_by_rule");
  ASSERT_TRUE(by_rule != nullptr && by_rule->is_object());
  std::map<std::string, double> counts;
  for (const auto& [rule, count] : by_rule->object) counts[rule] = count.number;
  EXPECT_EQ(counts, (std::map<std::string, double>{{"R1", 1},
                                                   {"R2", 0},
                                                   {"R3", 0},
                                                   {"R4", 1},
                                                   {"R6", 0},
                                                   {"R8", 0},
                                                   {"R9", 0},
                                                   {"W0", 0},
                                                   {"W1", 0}}));
  // Exactly these sections, the skip list present even when empty.
  std::vector<std::string> keys;
  for (const auto& [key, value] : root.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"schema", "files_scanned",
                                            "num_findings",
                                            "findings_by_rule", "findings",
                                            "skipped"}));
  EXPECT_TRUE(root.Find("skipped")->array.empty());
}

TEST(LintReport, RendersSkippedFiles) {
  const std::string json = FindingsToJson({}, 7, {"src/unreadable.cc"});
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const obs::JsonValue& root = *parsed;
  EXPECT_EQ(root.Find("num_findings")->number, 0);
  ASSERT_EQ(root.Find("skipped")->array.size(), 1u);
  EXPECT_EQ(root.Find("skipped")->array[0].string, "src/unreadable.cc");
}

TEST(LintScrub, BlanksLiteralsPreservingLines) {
  const std::string code = Scrub(
      "int a = 1;  // trailing comment\n"
      "const char* s = \"for (x : m)\";\n"
      "int b = 2;\n");
  EXPECT_EQ(code.find("comment"), std::string::npos);
  EXPECT_EQ(code.find("for (x"), std::string::npos);
  EXPECT_NE(code.find("int b = 2;"), std::string::npos);
  // Line structure intact.
  EXPECT_EQ(std::count(code.begin(), code.end(), '\n'), 3);
}

}  // namespace
}  // namespace mc3::lint
