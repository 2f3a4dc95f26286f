// The compiler rejects a dropped Status or Result ([[nodiscard]] plus the
// root -Werror=unused-result). Each test builds one fixture from
// tests/compile_fail/ (an object target outside `all`, compiled with the
// tree's own options) and passes only when that build fails with exactly one
// error, the unused-result error on the fixture's dropped call.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <regex>
#include <sstream>
#include <string>

namespace {

struct BuildOutcome {
  int exit_code = -1;
  std::string output;  // stdout and stderr of the build, interleaved
};

BuildOutcome BuildTarget(const std::string& target) {
  const std::string command = std::string("\"") + MC3_CMAKE_COMMAND +
                              "\" --build \"" + MC3_BINARY_DIR +
                              "\" --target " + target + " 2>&1";
  BuildOutcome outcome;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) {
    outcome.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
  }
  return outcome;
}

struct ErrorLines {
  size_t all = 0;            // compiler diagnostics of severity error
  size_t unused_result = 0;  // of those, unused-result errors in `file`
};

// GCC spells the flag [-Werror=unused-result], clang [-Werror,-Wunused-result].
ErrorLines CountErrors(const std::string& output, const std::string& file) {
  const std::regex unused_result(file + ":[0-9]+:[0-9]+: error: .*" +
                                 R"(\[-Werror[=,](-W)?unused-result\])");
  ErrorLines counts;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(": error: ") == std::string::npos) continue;
    ++counts.all;
    if (std::regex_search(line, unused_result)) ++counts.unused_result;
  }
  return counts;
}

TEST(CompileFail, DroppedStatusIsRejected) {
  const BuildOutcome build = BuildTarget("dropped_status_fixture");
  EXPECT_NE(build.exit_code, 0) << build.output;
  const ErrorLines errors = CountErrors(build.output, R"(dropped_status\.cc)");
  EXPECT_EQ(errors.unused_result, 1u) << build.output;
  EXPECT_EQ(errors.all, 1u) << build.output;
}

TEST(CompileFail, DroppedResultIsRejected) {
  const BuildOutcome build = BuildTarget("dropped_result_fixture");
  EXPECT_NE(build.exit_code, 0) << build.output;
  const ErrorLines errors = CountErrors(build.output, R"(dropped_result\.cc)");
  EXPECT_EQ(errors.unused_result, 1u) << build.output;
  EXPECT_EQ(errors.all, 1u) << build.output;
}

}  // namespace
