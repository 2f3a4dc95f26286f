// mc3_lint command-line driver. Usage:
//
//   mc3_lint [--report <file.json>] <path>...
//   mc3_lint --emit-header-tus <dir> <path>...
//
// Paths are files or directories (searched recursively for .h/.cc). The
// first form lints and exits non-zero when any finding remains; the second
// form only writes the generated per-header translation units used by the
// mc3_header_tus build target (rule R3 self-containment) and exits 0.
//
// Files under tools/, bench/ and examples/ may print (R4's print ban only
// covers library and test code).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mc3_lint/lint.h"

namespace fs = std::filesystem;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc";
}

void CollectFiles(const fs::path& root, std::vector<fs::path>* out) {
  if (fs::is_regular_file(root)) {
    if (IsSourceFile(root)) out->push_back(root);
    return;
  }
  if (!fs::is_directory(root)) return;
  for (fs::recursive_directory_iterator it(root), end; it != end; ++it) {
    const std::string name = it->path().filename().string();
    if (it->is_directory() &&
        (name == ".git" || name.rfind("build", 0) == 0)) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && IsSourceFile(it->path())) {
      out->push_back(it->path());
    }
  }
}

mc3::lint::FileConfig ConfigFor(const fs::path& path) {
  mc3::lint::FileConfig config;
  const std::string p = path.generic_string();
  config.allow_prints = p.find("tools/") != std::string::npos ||
                        p.find("bench/") != std::string::npos ||
                        p.find("examples/") != std::string::npos;
  config.is_header = path.extension() == ".h";
  return config;
}

/// Include path of a header relative to its src/ root, or "" when the
/// header is not under a src/ directory.
std::string SrcRelative(const fs::path& path) {
  const std::string p = path.generic_string();
  const size_t at = p.rfind("src/");
  if (at == std::string::npos) return "";
  return p.substr(at + 4);
}

int EmitHeaderTus(const fs::path& dir, const std::vector<fs::path>& files) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  size_t emitted = 0;
  for (const fs::path& file : files) {
    if (file.extension() != ".h") continue;
    const std::string rel = SrcRelative(file);
    if (rel.empty()) continue;  // only library headers get TU checks
    std::string mangled = rel;
    std::replace(mangled.begin(), mangled.end(), '/', '_');
    mangled = "tu_" + mangled.substr(0, mangled.size() - 2) + ".cc";
    std::ofstream out(dir / mangled, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "mc3_lint: cannot write " << (dir / mangled) << "\n";
      return 2;
    }
    out << mc3::lint::HeaderTuSource(rel);
    ++emitted;
  }
  std::cout << "mc3_lint: emitted " << emitted << " header TUs under "
            << dir.string() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path;
  std::string tu_dir;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--emit-header-tus" && i + 1 < argc) {
      tu_dir = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: mc3_lint [--report out.json] <path>...\n"
                   "       mc3_lint --emit-header-tus <dir> <path>...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mc3_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "mc3_lint: no paths given (try: mc3_lint src tests tools "
                 "bench)\n";
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    if (!fs::exists(root)) {
      std::cerr << "mc3_lint: error: no such path: " << root
                << " (paths are files or directories scanned recursively "
                   "for .h/.cc)\n";
      return 2;
    }
    CollectFiles(root, &files);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  if (!tu_dir.empty()) return EmitHeaderTus(tu_dir, files);

  // Pass 1: cross-file symbol index over headers only. Members and
  // accessors declared in a header must resolve when their iteration site
  // is in a .cc, but names local to one .cc must not poison every other
  // file (a std::vector named like someone else's unordered_set is fine).
  // The join index (rule R9) spans every file regardless: threads are
  // routinely declared in a header and joined in the matching .cc. A file
  // that cannot be read is recorded, reported, and fails the run — but does
  // not abort the scan of everything else.
  mc3::lint::SymbolIndex header_index;
  std::map<std::string, std::string> contents;
  std::vector<std::string> skipped;
  for (const fs::path& file : files) {
    std::string content;
    if (!ReadFile(file, &content)) {
      std::cerr << "mc3_lint: error: cannot read " << file
                << " (recorded as skipped)\n";
      skipped.push_back(file.generic_string());
      continue;
    }
    if (file.extension() == ".h") {
      mc3::lint::IndexFile(content, &header_index);
    }
    mc3::lint::CollectJoins(content, &header_index);
    contents.emplace(file.generic_string(), std::move(content));
  }
  header_index.ResolveAliases();

  // Pass 2: lint each file against the header index plus its own symbols.
  std::vector<mc3::lint::Finding> findings;
  for (const auto& [path, content] : contents) {
    mc3::lint::SymbolIndex index = header_index;
    if (fs::path(path).extension() != ".h") {
      mc3::lint::IndexFile(content, &index);
      index.ResolveAliases();
    }
    std::vector<mc3::lint::Finding> file_findings =
        mc3::lint::LintFile(path, content, index, ConfigFor(path));
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }

  for (const mc3::lint::Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule
              << (f.tag.empty() ? "" : "/" + f.tag) << "] " << f.message
              << "\n";
  }
  std::cout << "mc3_lint: " << contents.size() << " files, "
            << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s");
  if (!skipped.empty()) {
    std::cout << ", " << skipped.size() << " skipped (unreadable)";
  }
  std::cout << "\n";

  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "mc3_lint: cannot write report " << report_path << "\n";
      return 2;
    }
    out << mc3::lint::FindingsToJson(findings, contents.size(), skipped);
  }
  if (!skipped.empty()) return 2;
  return findings.empty() ? 0 : 1;
}
