#include "mc3_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <optional>
#include <regex>
#include <sstream>
#include <utility>

#include "obs/json.h"

namespace mc3::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when content[pos..] starts the word `word` on both boundaries.
bool IsWordAt(const std::string& s, size_t pos, const std::string& word) {
  if (s.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsIdentChar(s[pos - 1])) return false;
  const size_t end = pos + word.size();
  return end >= s.size() || !IsIdentChar(s[end]);
}

size_t SkipSpaces(const std::string& s, size_t pos) {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Previous non-whitespace character before `pos`, or '\0'.
char PrevSignificant(const std::string& s, size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(s[pos])) == 0) return s[pos];
  }
  return '\0';
}

/// With s[pos] == open, returns the index one past the matching close (or
/// npos). Assumes literals are already scrubbed.
size_t SkipBalanced(const std::string& s, size_t pos, char open, char close) {
  int depth = 0;
  for (; pos < s.size(); ++pos) {
    if (s[pos] == open) ++depth;
    if (s[pos] == close && --depth == 0) return pos + 1;
  }
  return std::string::npos;
}

int LineOf(const std::string& s, size_t pos) {
  return 1 + static_cast<int>(std::count(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(std::min(pos, s.size())), '\n'));
}

const std::set<std::string>& KnownTags() {
  static const std::set<std::string> tags = {
      "unordered", "float-eq", "pragma-once", "print",
      "new-delete", "rand",     "time",        "raw-sync",
      "capture",    "guard",    "detach"};
  return tags;
}

/// True when the word `word` occurs in `s` on identifier boundaries.
bool ContainsWord(const std::string& s, const std::string& word) {
  size_t pos = s.find(word);
  while (pos != std::string::npos) {
    if (IsWordAt(s, pos, word)) return true;
    pos = s.find(word, pos + 1);
  }
  return false;
}

/// The identifier ending the member-access chain that terminates at `pos`
/// (exclusive): `c->reader` -> "reader", `workers_[i]` -> "workers_". Empty
/// when `pos` is not preceded by an identifier (or an indexed one).
std::string ReceiverBefore(const std::string& s, size_t pos) {
  while (pos > 0 &&
         std::isspace(static_cast<unsigned char>(s[pos - 1])) != 0) {
    --pos;
  }
  if (pos > 0 && s[pos - 1] == ']') {
    int depth = 0;
    while (pos > 0) {
      --pos;
      if (s[pos] == ']') ++depth;
      if (s[pos] == '[' && --depth == 0) break;
    }
  }
  size_t end = pos;
  while (pos > 0 && IsIdentChar(s[pos - 1])) --pos;
  return s.substr(pos, end - pos);
}

std::string TrimCopy(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
    --e;
  }
  return s.substr(b, e - b);
}

/// True when the nearest word before `pos` is `word` (e.g. `enum` before a
/// `class` keyword).
bool PrecededByWord(const std::string& s, size_t pos,
                    const std::string& word) {
  while (pos > 0 &&
         std::isspace(static_cast<unsigned char>(s[pos - 1])) != 0) {
    --pos;
  }
  size_t begin = pos;
  while (begin > 0 && IsIdentChar(s[begin - 1])) --begin;
  return s.compare(begin, pos - begin, word) == 0;
}

/// The name a class-member declaration (a segment with whitespace runs
/// collapsed) declares, or nullopt when it declares a function: when the
/// first '(' at template depth 0, before any initializer or bit-field
/// width, follows the declarator name. A '(' opening a parenthesized
/// declarator, as in `int (*raw_)(int)` or `void (Cls::*method_)(int)`,
/// does not, nor does the operand of `alignas(...)` or `decltype(...)`.
std::optional<std::string> DataMemberName(const std::string& text) {
  if (ContainsWord(text, "operator")) return std::nullopt;
  size_t end = text.size();
  int angle = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '<') {
      ++angle;
    } else if (c == '>') {
      angle = std::max(angle - 1, 0);
    } else if (angle > 0) {
      continue;
    } else if (text.compare(i, 2, "::") == 0) {
      ++i;  // a qualified name
    } else if (text.compare(i, 2, "[[") == 0) {
      i = std::min(text.find("]]", i), text.size());  // an attribute
    } else if (c == '=' || c == '{' || c == '[' || c == ':') {
      end = i;  // initializer, array bound or bit-field width
      break;
    } else if (c == '(') {
      if (PrecededByWord(text, i, "alignas") ||
          PrecededByWord(text, i, "decltype")) {
        i = std::min(SkipBalanced(text, i, '(', ')'), text.size()) - 1;
        continue;
      }
      const size_t inner = SkipSpaces(text, i + 1);
      // `(Cls::*name)`: the class qualifier runs up to a "::*".
      size_t star = inner;
      while (star < text.size() &&
             (IsIdentChar(text[star]) || text[star] == ':')) {
        ++star;
      }
      const bool member_pointer = star > inner + 1 && star < text.size() &&
                                  text[star] == '*' &&
                                  text.compare(star - 2, 2, "::") == 0;
      if (inner >= text.size() ||
          (text[inner] != '*' && text[inner] != '&' && !member_pointer)) {
        return std::nullopt;  // a parameter list
      }
      end = std::min(text.find(')', inner), text.size());
      break;
    }
  }
  const std::string decl = TrimCopy(text.substr(0, end));
  size_t tail = decl.size();
  while (tail > 0 && IsIdentChar(decl[tail - 1])) --tail;
  return decl.substr(tail);
}

/// Attribute-macro heuristic for class heads: MC3_SCOPED_CAPABILITY and
/// friends are SHOUTY_CASE with at least one underscore or digit.
bool LooksLikeMacro(const std::string& word) {
  bool has_sep = false;
  for (char c : word) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
    if (c == '_' || std::isdigit(static_cast<unsigned char>(c)) != 0) {
      has_sep = true;
    }
  }
  return has_sep && word.size() > 2;
}

struct ScrubResult {
  std::string code;                   ///< literals/comments blanked
  std::map<int, std::string> comments;  ///< comment text per line
};

ScrubResult ScrubImpl(const std::string& in) {
  ScrubResult out;
  out.code.assign(in.size(), ' ');
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;  // the )delim" terminator of a raw string
  int line = 1;
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '\n') {
      out.code[i] = '\n';
      if (state == State::kLineComment) state = State::kCode;
      ++line;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < in.size() && in[i + 1] == '/') {
          state = State::kLineComment;
        } else if (c == '/' && i + 1 < in.size() && in[i + 1] == '*') {
          state = State::kBlockComment;
          ++i;  // consume '*' so "/*/" is not a complete comment
          if (i < in.size() && in[i] == '\n') ++line, out.code[i] = '\n';
        } else if (c == 'R' && i + 1 < in.size() && in[i + 1] == '"' &&
                   (i == 0 || !IsIdentChar(in[i - 1]))) {
          // Raw string literal R"delim( ... )delim".
          size_t j = i + 2;
          std::string delim;
          while (j < in.size() && in[j] != '(') delim += in[j++];
          raw_delim = ")" + delim + "\"";
          state = State::kRawString;
          i = j;  // at '(' (or end)
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        } else {
          out.code[i] = c;
        }
        break;
      case State::kLineComment:
      case State::kBlockComment:
        out.comments[line] += c;
        if (state == State::kBlockComment && c == '*' && i + 1 < in.size() &&
            in[i + 1] == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
          if (i < in.size() && in[i] == '\n') ++line, out.code[i] = '\n';
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (c == ')' && in.compare(i, raw_delim.size(), raw_delim) == 0) {
          // Keep the line count right across the terminator.
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

/// After a type token (and optional template arguments) starting the
/// declaration at `pos` (one past the type name), extracts the declared
/// identifier, or "" when this is not a declaration site.
std::string DeclaredName(const std::string& s, size_t pos) {
  pos = SkipSpaces(s, pos);
  if (pos < s.size() && s[pos] == '<') {
    pos = SkipBalanced(s, pos, '<', '>');
    if (pos == std::string::npos) return "";
  }
  pos = SkipSpaces(s, pos);
  // Not a declaration when the type is only mentioned (::iterator, nested
  // template argument, cast, ...).
  if (pos < s.size() && (s[pos] == ':' || s[pos] == '>' || s[pos] == ',' ||
                         s[pos] == ')' || s[pos] == ';' || s[pos] == '{')) {
    return "";
  }
  while (pos < s.size() && (s[pos] == '&' || s[pos] == '*')) {
    pos = SkipSpaces(s, pos + 1);
  }
  if (pos >= s.size() || !IsIdentStart(s[pos])) return "";
  size_t end = pos;
  while (end < s.size() && IsIdentChar(s[end])) ++end;
  std::string name = s.substr(pos, end - pos);
  if (name == "const" || name == "constexpr" || name == "static" ||
      name == "operator") {
    return "";
  }
  return name;
}

/// Collects declarations whose type is named by `type_token` into `out`.
void CollectDecls(const std::string& code, const std::string& type_token,
                  std::set<std::string>* out) {
  size_t pos = 0;
  while ((pos = code.find(type_token, pos)) != std::string::npos) {
    const size_t start = pos;
    pos += type_token.size();
    if (start > 0 && IsIdentChar(code[start - 1])) {
      continue;  // suffix of a longer identifier
    }
    if (pos < code.size() && IsIdentChar(code[pos])) continue;
    // Alias right-hand sides are handled by the alias table.
    if (PrevSignificant(code, start) == '=') continue;
    const std::string name = DeclaredName(code, pos);
    if (!name.empty()) out->insert(name);
  }
}

bool ContainsCostWord(const std::string& expr) {
  static const std::regex kCostish("[Cc]ost|[Ww]eight");
  if (!std::regex_search(expr, kCostish)) return false;
  // Container-protocol calls on cost maps yield iterators/sizes, not costs.
  for (const char* ex : {".end(", ".begin(", ".size(", ".count(", ".find(",
                         ".empty(", ".contains("}) {
    if (expr.find(ex) != std::string::npos) return false;
  }
  return true;
}

/// Extends an operand of a comparison leftwards from `pos` (exclusive).
std::string OperandLeft(const std::string& s, size_t pos) {
  size_t end = pos;
  while (end > 0 &&
         std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  size_t begin = end;
  while (begin > 0) {
    const char c = s[begin - 1];
    if (IsIdentChar(c) || c == '.' || c == ':' || c == '_') {
      --begin;
    } else if (c == '>' && begin > 1 && s[begin - 2] == '-') {
      begin -= 2;
    } else if (c == ')' || c == ']') {
      const char open = (c == ')') ? '(' : '[';
      int depth = 0;
      size_t p = begin;
      while (p > 0) {
        --p;
        if (s[p] == c) ++depth;
        if (s[p] == open && --depth == 0) break;
      }
      if (depth != 0) break;
      begin = p;
    } else {
      break;
    }
  }
  return s.substr(begin, end - begin);
}

/// Extends an operand of a comparison rightwards from `pos` (inclusive).
std::string OperandRight(const std::string& s, size_t pos) {
  pos = SkipSpaces(s, pos);
  size_t end = pos;
  while (end < s.size()) {
    const char c = s[end];
    if (IsIdentChar(c) || c == '.' || c == ':') {
      ++end;
    } else if (c == '-' && end + 1 < s.size() && s[end + 1] == '>') {
      end += 2;
    } else if (c == '(' || c == '[') {
      const size_t next = SkipBalanced(s, end, c, c == '(' ? ')' : ']');
      if (next == std::string::npos) break;
      end = next;
    } else {
      break;
    }
  }
  return s.substr(pos, end - pos);
}

struct Waivers {
  /// line -> waived tags.
  std::map<int, std::set<std::string>> by_line;
  std::vector<Finding> malformed;
};

Waivers ExtractWaivers(const std::string& path, const ScrubResult& scrubbed) {
  Waivers out;
  static const std::regex kWaiver(
      R"(mc3-lint:\s*([a-z0-9-]+?)-ok\(([^)]*)\))");
  static const std::regex kMention("mc3-lint");
  for (const auto& [line, text] : scrubbed.comments) {
    bool any = false;
    for (std::sregex_iterator it(text.begin(), text.end(), kWaiver), end;
         it != end; ++it) {
      any = true;
      const std::string tag = (*it)[1].str();
      const std::string reason = (*it)[2].str();
      if (KnownTags().count(tag) == 0) {
        out.malformed.push_back(
            {path, line, "W0", "",
             "unknown waiver tag '" + tag + "' (see docs/static_analysis.md)"});
        continue;
      }
      if (SkipSpaces(reason, 0) >= reason.size()) {
        out.malformed.push_back(
            {path, line, "W0", "",
             "waiver '" + tag + "-ok' requires a non-empty reason"});
        continue;
      }
      out.by_line[line].insert(tag);
    }
    if (!any && std::regex_search(text, kMention)) {
      out.malformed.push_back(
          {path, line, "W0", "",
           "malformed waiver; expected 'mc3-lint: <tag>-ok(<reason>)'"});
    }
  }
  return out;
}

/// True when line `line` of the scrubbed code holds no code characters.
bool CodeLineBlank(const std::string& code, int line) {
  int at = 1;
  size_t pos = 0;
  while (at < line && pos < code.size()) {
    if (code[pos] == '\n') ++at;
    ++pos;
  }
  while (pos < code.size() && code[pos] != '\n') {
    if (std::isspace(static_cast<unsigned char>(code[pos])) == 0) return false;
    ++pos;
  }
  return true;
}

class Linter {
 public:
  Linter(const std::string& path, const ScrubResult& scrubbed,
         const SymbolIndex& index, const FileConfig& config)
      : path_(path), code_(scrubbed.code), index_(index), config_(config) {
    Waivers waivers = ExtractWaivers(path, scrubbed);
    // A waiver on a comment-only line covers the next line of code.
    for (const auto& [line, tags] : waivers.by_line) {
      const int target = CodeLineBlank(code_, line) ? line + 1 : line;
      for (const std::string& tag : tags) {
        waived_[target][tag].insert(line);
        if (target != line) waived_[line][tag].insert(line);
        // A waiver covering no code is prose quoting the syntax.
        if (!CodeLineBlank(code_, target)) {
          unused_.emplace(line, tag);
        }
      }
    }
    for (Finding& f : waivers.malformed) findings_.push_back(std::move(f));
  }

  std::vector<Finding> Run() {
    if (config_.is_header) RulePragmaOnce();
    RuleUnorderedIteration();
    RuleFloatEquality();
    RuleBannedConstructs();
    RuleSharedMutableCapture();
    RuleGuardedMembers();
    RuleThreadDetach();
    for (const auto& [line, tag] : unused_) {
      findings_.push_back({path_, line, "W1", "",
                           "stale waiver '" + tag +
                               "-ok' suppresses nothing; delete it"});
    }
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    return std::move(findings_);
  }

 private:
  void Report(size_t pos, const std::string& rule, const std::string& tag,
              std::string message) {
    const int line = LineOf(code_, pos);
    const auto it = waived_.find(line);
    if (it != waived_.end()) {
      const auto by_tag = it->second.find(tag);
      if (by_tag != it->second.end()) {
        for (int waiver_line : by_tag->second) {
          unused_.erase({waiver_line, tag});
        }
        return;
      }
    }
    findings_.push_back({path_, line, rule, tag, std::move(message)});
  }

  // R3 — headers must use #pragma once.
  void RulePragmaOnce() {
    if (code_.find("#pragma once") == std::string::npos) {
      findings_.push_back({path_, 1, "R3", "pragma-once",
                           "header must start with #pragma once (include "
                           "guards are not used in this project)"});
    }
  }

  // R1 — range-for over an unordered container.
  void RuleUnorderedIteration() {
    size_t pos = 0;
    while ((pos = code_.find("for", pos)) != std::string::npos) {
      const size_t at = pos;
      pos += 3;
      if (!IsWordAt(code_, at, "for")) continue;
      size_t open = SkipSpaces(code_, at + 3);
      if (open >= code_.size() || code_[open] != '(') continue;
      const size_t close = SkipBalanced(code_, open, '(', ')');
      if (close == std::string::npos) continue;
      // Find the range-for ':' at depth 1 (ignoring '::').
      int depth = 0;
      size_t colon = std::string::npos;
      for (size_t i = open; i < close; ++i) {
        const char c = code_[i];
        if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
        if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
        if (c == ':' && depth == 1) {
          if ((i + 1 < close && code_[i + 1] == ':') ||
              (i > 0 && code_[i - 1] == ':')) {
            continue;
          }
          colon = i;
          break;
        }
      }
      if (colon == std::string::npos) continue;
      std::string expr = code_.substr(colon + 1, close - 1 - (colon + 1));
      // Trim.
      while (!expr.empty() &&
             std::isspace(static_cast<unsigned char>(expr.back())) != 0) {
        expr.pop_back();
      }
      size_t lead = SkipSpaces(expr, 0);
      expr.erase(0, lead);
      if (expr.empty()) continue;
      // Indexing yields a mapped value, not the container itself.
      if (expr.back() == ']') continue;
      std::string target = expr;
      if (target.back() == ')') {
        // Strip the call's argument list: X.costs() -> X.costs
        int d = 0;
        size_t p = target.size();
        while (p > 0) {
          --p;
          if (target[p] == ')') ++d;
          if (target[p] == '(' && --d == 0) break;
        }
        target.resize(p);
      }
      size_t tail = target.size();
      while (tail > 0 && IsIdentChar(target[tail - 1])) --tail;
      const std::string name = target.substr(tail);
      const bool inline_unordered =
          expr.find("unordered_map<") != std::string::npos ||
          expr.find("unordered_set<") != std::string::npos;
      if (!inline_unordered && (name.empty() ||
                                index_.unordered_symbols.count(name) == 0)) {
        continue;
      }
      Report(at, "R1", "unordered",
             "iteration over unordered container '" + expr +
                 "': order is platform-dependent and can leak into "
                 "solutions; iterate a sorted copy (SortedCostEntries) or "
                 "waive with unordered-ok(<reason>)");
    }
  }

  // R2 — ==/!= on cost/weight values.
  void RuleFloatEquality() {
    for (size_t i = 0; i + 1 < code_.size(); ++i) {
      const bool eq = code_[i] == '=' && code_[i + 1] == '=';
      const bool ne = code_[i] == '!' && code_[i + 1] == '=';
      if (!eq && !ne) continue;
      if (i > 0 && std::string("=<>!+-*/%&|^").find(code_[i - 1]) !=
                       std::string::npos) {
        continue;
      }
      if (i + 2 < code_.size() && code_[i + 2] == '=') continue;
      const std::string lhs = OperandLeft(code_, i);
      const std::string rhs = OperandRight(code_, i + 2);
      if (!ContainsCostWord(lhs) && !ContainsCostWord(rhs)) continue;
      Report(i, "R2", "float-eq",
             "exact floating-point comparison on a cost/weight ('" + lhs +
                 (eq ? " == " : " != ") + rhs +
                 "'); use ApproxEq / IsInfiniteCost / IsZeroCost from "
                 "util/float_cmp.h");
    }
  }

  // R4 — rand(), time(NULL), printing from library code, naked new/delete,
  // raw std:: synchronization types.
  void RuleBannedConstructs() {
    for (const char* fn : {"rand", "srand"}) {
      size_t pos = 0;
      while ((pos = code_.find(fn, pos)) != std::string::npos) {
        const size_t at = pos;
        pos += std::string(fn).size();
        if (!IsWordAt(code_, at, fn)) continue;
        const size_t p = SkipSpaces(code_, pos);
        if (p < code_.size() && code_[p] == '(') {
          Report(at, "R4", "rand",
                 std::string(fn) +
                     "() is not seedable/deterministic; use util/rng.h");
        }
      }
    }
    {
      size_t pos = 0;
      while ((pos = code_.find("time", pos)) != std::string::npos) {
        const size_t at = pos;
        pos += 4;
        if (!IsWordAt(code_, at, "time")) continue;
        size_t p = SkipSpaces(code_, pos);
        if (p >= code_.size() || code_[p] != '(') continue;
        p = SkipSpaces(code_, p + 1);
        for (const char* arg : {"NULL", "nullptr", "0"}) {
          if (IsWordAt(code_, p, arg) || code_.compare(p, strlen(arg), arg) == 0) {
            const size_t q = SkipSpaces(code_, p + strlen(arg));
            if (q < code_.size() && code_[q] == ')') {
              Report(at, "R4", "time",
                     "wall-clock seeding breaks reproducibility; thread a "
                     "seed through util/rng.h");
            }
            break;
          }
        }
      }
    }
    if (!config_.allow_prints) {
      size_t pos = 0;
      while ((pos = code_.find("std::cout", pos)) != std::string::npos) {
        Report(pos, "R4", "print",
               "library code must not print (only tools/ and bench/ may); "
               "return data or use obs:: reporting");
        pos += 9;
      }
      for (const char* fn : {"printf", "fprintf", "puts", "putchar"}) {
        pos = 0;
        while ((pos = code_.find(fn, pos)) != std::string::npos) {
          const size_t at = pos;
          pos += std::string(fn).size();
          if (!IsWordAt(code_, at, fn)) continue;
          const size_t p = SkipSpaces(code_, pos);
          if (p < code_.size() && code_[p] == '(') {
            Report(at, "R4", "print",
                   "library code must not print (only tools/ and bench/ "
                   "may)");
          }
        }
      }
    }
    {
      size_t pos = 0;
      while ((pos = code_.find("new", pos)) != std::string::npos) {
        const size_t at = pos;
        pos += 3;
        if (!IsWordAt(code_, at, "new")) continue;
        const size_t p = SkipSpaces(code_, pos);
        if (p >= code_.size() ||
            (!IsIdentStart(code_[p]) && code_[p] != '(')) {
          continue;
        }
        Report(at, "R4", "new-delete",
               "naked new; use std::make_unique / containers (RAII)");
      }
      pos = 0;
      while ((pos = code_.find("delete", pos)) != std::string::npos) {
        const size_t at = pos;
        pos += 6;
        if (!IsWordAt(code_, at, "delete")) continue;
        if (PrevSignificant(code_, at) == '=') continue;  // = delete;
        Report(at, "R4", "new-delete",
               "naked delete; use std::make_unique / containers (RAII)");
      }
    }
    // Raw standard mutex, lock and condition-variable types: only
    // util/sync.h wraps them; everything else uses its annotated types, so
    // clang's thread-safety analysis sees every lock.
    if (path_.ends_with("src/util/sync.h")) return;
    for (const char* type :
         {"mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
          "shared_mutex", "shared_timed_mutex", "condition_variable",
          "condition_variable_any", "lock_guard", "unique_lock",
          "scoped_lock", "shared_lock"}) {
      const std::string raw = std::string("std::") + type;
      size_t pos = 0;
      while ((pos = code_.find(raw, pos)) != std::string::npos) {
        const size_t at = pos;
        pos += raw.size();
        if (!IsWordAt(code_, at, raw)) continue;
        Report(at, "R4", "raw-sync",
               "raw " + raw +
                   " outside util/sync.h; use util::Mutex / MutexLock / "
                   "UniqueLock / CondVar, which carry the thread-safety "
                   "annotations");
      }
    }
  }

  // R6 — by-reference captures mutated inside lambdas handed to a
  // concurrency entry point: ParallelFor bodies run on worker threads, and
  // tasks posted to a WorkerPool (Post) run on pool threads.
  void RuleSharedMutableCapture() {
    RuleSharedMutableCaptureFor("ParallelFor");
    RuleSharedMutableCaptureFor("Post");
  }

  void RuleSharedMutableCaptureFor(const std::string& entry) {
    size_t pos = 0;
    while ((pos = code_.find(entry, pos)) != std::string::npos) {
      const size_t at = pos;
      pos += entry.size();
      if (!IsWordAt(code_, at, entry)) continue;
      // Skip the definition/declaration itself (preceded by its return
      // type: 'void ParallelFor', 'bool Post').
      {
        size_t p = at;
        while (p > 0 &&
               std::isspace(static_cast<unsigned char>(code_[p - 1])) != 0) {
          --p;
        }
        if (p >= 4 && code_.compare(p - 4, 4, "void") == 0) continue;
        if (p >= 4 && code_.compare(p - 4, 4, "bool") == 0) continue;
      }
      const size_t call_open = SkipSpaces(code_, at + entry.size());
      if (call_open >= code_.size() || code_[call_open] != '(') continue;
      const size_t call_close = SkipBalanced(code_, call_open, '(', ')');
      if (call_close == std::string::npos) continue;
      const std::string args =
          code_.substr(call_open, call_close - call_open);
      const size_t cap_open = args.find('[');
      if (cap_open == std::string::npos) continue;
      const size_t cap_close = args.find(']', cap_open);
      if (cap_close == std::string::npos) continue;
      const std::string captures =
          args.substr(cap_open + 1, cap_close - cap_open - 1);
      if (captures.find('&') == std::string::npos) continue;
      // Parameter list, when present (posted tasks are usually param-less:
      // `Post([&] { ... })`).
      const size_t param_open = SkipSpaces(args, cap_close + 1);
      std::set<std::string> params;
      size_t body_from = cap_close + 1;
      if (param_open < args.size() && args[param_open] == '(') {
        const size_t param_close = SkipBalanced(args, param_open, '(', ')');
        if (param_close == std::string::npos) continue;
        std::string param_text =
            args.substr(param_open + 1, param_close - param_open - 2);
        std::string word;
        for (char c : param_text + ",") {
          if (IsIdentChar(c)) {
            word += c;
          } else if (!word.empty()) {
            params.insert(word);  // keep every token; over-approximation
            word.clear();
          }
        }
        body_from = param_close;
      }
      size_t body_open = args.find('{', body_from);
      if (body_open == std::string::npos) continue;
      const size_t body_close = SkipBalanced(args, body_open, '{', '}');
      if (body_close == std::string::npos) continue;
      const std::string body =
          args.substr(body_open, body_close - body_open);
      const size_t body_abs = call_open + body_open;
      CheckBodyMutations(body, body_abs, params, entry);
    }
  }

  bool DeclaredInBody(const std::string& body, const std::string& name) {
    // TYPE name =/;/{/( — enough to recognize locals, incl. auto& refs.
    const std::regex decl(
        "[;{(]\\s*(const\\s+)?[A-Za-z_][\\w:]*(<[^;{}]*>)?\\s*[&*]?\\s+" +
        name + "\\s*[\\[=;{(]");
    return std::regex_search(body, decl);
  }

  void CheckBodyMutations(const std::string& body, size_t body_abs,
                          const std::set<std::string>& params,
                          const std::string& entry) {
    static const std::regex kMutation(
        R"((\+\+|--)?\s*\b([A-Za-z_]\w*)\s*(\+\+|--|[+\-*/|&^]?=(?!=)|(?:\.|->)(?:push_back|emplace_back|emplace|insert|erase|clear|pop_back|resize|assign|Merge|Add)\s*\())");
    for (std::sregex_iterator it(body.begin(), body.end(), kMutation), end;
         it != end; ++it) {
      const std::smatch& m = *it;
      const std::string name = m[2].str();
      const size_t name_pos = static_cast<size_t>(m.position(2));
      // Member of / element of something else: fresh[i].queries = ...
      if (name_pos > 0) {
        const char before = PrevSignificant(body, name_pos);
        if (before == '.' || before == '>' || before == ']') continue;
      }
      // Indexed by the worker slot: statuses[i] = ... (the regex cannot
      // match that shape for '=', but ++hits[i] can reach here).
      const size_t after = name_pos + name.size();
      if (after < body.size() && SkipSpaces(body, after) < body.size() &&
          body[SkipSpaces(body, after)] == '[') {
        continue;
      }
      if (params.count(name) > 0) continue;
      if (index_.threadsafe_symbols.count(name) > 0) continue;
      if (DeclaredInBody(body, name)) continue;
      if (name == "this") continue;
      Report(body_abs + name_pos, "R6", "capture",
             "'" + name + "' is captured by reference and mutated inside a " +
                 entry +
                 " body without per-index addressing, an atomic, or a mutex "
                 "— data-race hazard (see the TSan CI job)");
    }
  }

  // R8 — every mutable, non-thread-safe member of a mutex-owning class must
  // carry MC3_GUARDED_BY (or a guard-ok waiver naming the ownership rule).
  void RuleGuardedMembers() {
    size_t pos = 0;
    while (pos < code_.size()) {
      const size_t ck = code_.find("class", pos);
      const size_t sk = code_.find("struct", pos);
      const size_t at = std::min(ck, sk);
      if (at == std::string::npos) break;
      const char* kw = (at == ck) ? "class" : "struct";
      pos = at + strlen(kw);
      if (!IsWordAt(code_, at, kw)) continue;
      if (PrecededByWord(code_, at, "enum")) continue;
      CheckClassBody(at + strlen(kw));
    }
  }

  void CheckClassBody(size_t p) {
    // Class head: skip attribute macros (MC3_SCOPED_CAPABILITY, possibly
    // with arguments) and `final`; a second plain identifier means this is
    // a variable declaration (`struct sockaddr_in addr{}`), not a
    // definition.
    p = SkipSpaces(code_, p);
    std::string name;
    while (p < code_.size() && IsIdentStart(code_[p])) {
      size_t e = p;
      while (e < code_.size() && IsIdentChar(code_[e])) ++e;
      const std::string word = code_.substr(p, e - p);
      p = SkipSpaces(code_, e);
      if (LooksLikeMacro(word) || word == "final" || word == "alignas") {
        if (p < code_.size() && code_[p] == '(') {
          p = SkipBalanced(code_, p, '(', ')');
          if (p == std::string::npos) return;
          p = SkipSpaces(code_, p);
        }
        continue;
      }
      if (!name.empty()) return;
      name = word;
    }
    if (name.empty()) return;
    if (p < code_.size() && code_[p] == ':' &&
        (p + 1 >= code_.size() || code_[p + 1] != ':')) {
      // Base-class list: scan to the body.
      while (p < code_.size() && code_[p] != '{' && code_[p] != ';') ++p;
    }
    if (p >= code_.size() || code_[p] != '{') return;
    const size_t body_end = SkipBalanced(code_, p, '{', '}');
    if (body_end == std::string::npos) return;

    // Depth-1 member segments: terminated by ';', with balanced inner
    // braces skipped (after a function head, closed again, the brace opens
    // a body, which is dropped; otherwise it is brace-initialization, such
    // as a `= {}` default argument inside the parameter list, and the
    // segment continues to the ';').
    struct Member {
      size_t pos = std::string::npos;
      std::string text;
    };
    std::vector<Member> members;
    Member seg;
    int paren_depth = 0;
    size_t i = p + 1;
    while (i + 1 < body_end) {
      const char c = code_[i];
      if (c == '{') {
        const size_t past = SkipBalanced(code_, i, '{', '}');
        if (past == std::string::npos) return;
        if (paren_depth == 0 && !DataMemberName(seg.text)) seg = Member{};
        i = past;
        continue;
      }
      if (c == '(') ++paren_depth;
      if (c == ')') --paren_depth;
      if (c == ';' && paren_depth == 0) {
        if (!seg.text.empty()) members.push_back(seg);
        seg = Member{};
        ++i;
        continue;
      }
      if (c == ':' && paren_depth == 0) {
        if (i + 1 < body_end && code_[i + 1] == ':') {
          seg.text += "::";
          i += 2;
          continue;
        }
        const std::string t = TrimCopy(seg.text);
        if (t == "public" || t == "private" || t == "protected") {
          seg = Member{};
        } else {
          seg.text += c;
        }
        ++i;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        if (seg.pos == std::string::npos) seg.pos = i;
        seg.text += c;
      } else if (!seg.text.empty() && seg.text.back() != ' ') {
        seg.text += ' ';
      }
      ++i;
    }

    const auto is_owned_mutex = [](const std::string& text) {
      if (text.find('&') != std::string::npos ||
          text.find('*') != std::string::npos) {
        return false;
      }
      for (const char* word : {"mutex", "shared_mutex", "recursive_mutex",
                               "timed_mutex", "Mutex"}) {
        if (ContainsWord(text, word)) return true;
      }
      return false;
    };
    bool has_mutex = false;
    for (const Member& m : members) {
      if (is_owned_mutex(m.text)) has_mutex = true;
    }
    if (!has_mutex) return;

    for (const Member& m : members) {
      std::string text = TrimCopy(m.text);
      for (const char* prefix : {"mutable ", "inline "}) {
        if (text.rfind(prefix, 0) == 0) text = text.substr(strlen(prefix));
      }
      // Immutable, type-only, or non-member segments need no guard.
      bool skip = false;
      for (const char* lead :
           {"static", "using", "typedef", "friend", "template", "enum",
            "struct", "class", "const", "constexpr", "operator", "public",
            "private", "protected", "explicit", "virtual"}) {
        if (IsWordAt(text, 0, lead)) skip = true;
      }
      if (skip) continue;
      if (text.find("MC3_GUARDED_BY") != std::string::npos ||
          text.find("MC3_PT_GUARDED_BY") != std::string::npos) {
        continue;
      }
      // Internally synchronized / owner-joined types are exempt.
      bool exempt = false;
      for (const char* word :
           {"atomic", "mutex", "shared_mutex", "recursive_mutex",
            "timed_mutex", "Mutex", "condition_variable",
            "condition_variable_any", "CondVar", "once_flag", "thread",
            "jthread", "Counter", "Gauge", "Histogram", "BoundedQueue",
            "WorkerPool", "MutexLock", "UniqueLock", "EpochManager",
            "VersionedPublisher", "ReadGuard", "ReaderRegistration"}) {
        if (ContainsWord(text, word)) exempt = true;
      }
      if (exempt) continue;
      const std::optional<std::string> member = DataMemberName(text);
      if (!member) continue;
      Report(m.pos, "R8", "guard",
             "member '" + (member->empty() ? text : *member) + "' of '" +
                 name +
                 "' (a mutex-owning class) has no MC3_GUARDED_BY "
                 "annotation; annotate it, make it atomic/const, or waive "
                 "with guard-ok(<ownership rule>)");
    }
  }

  // R9 — detached threads are unjoinable and outlive their state; directly
  // declared std::threads must be joined somewhere in the scanned file set.
  void RuleThreadDetach() {
    size_t pos = 0;
    while ((pos = code_.find("detach", pos)) != std::string::npos) {
      const size_t at = pos;
      pos += 6;
      if (!IsWordAt(code_, at, "detach")) continue;
      const size_t open = SkipSpaces(code_, at + 6);
      if (open >= code_.size() || code_[open] != '(') continue;
      size_t p = at;
      while (p > 0 &&
             std::isspace(static_cast<unsigned char>(code_[p - 1])) != 0) {
        --p;
      }
      const bool member =
          (p > 0 && code_[p - 1] == '.') ||
          (p > 1 && code_[p - 1] == '>' && code_[p - 2] == '-');
      if (!member) continue;
      Report(at, "R9", "detach",
             "detached thread: nothing can join it, so it races process "
             "shutdown and any state it touches; keep the std::thread and "
             "join it on the owner's shutdown path");
    }
    pos = 0;
    while ((pos = code_.find("std::thread", pos)) != std::string::npos) {
      const size_t at = pos;
      pos += 11;
      if (at > 0 && IsIdentChar(code_[at - 1])) continue;
      if (pos < code_.size() && IsIdentChar(code_[pos])) continue;
      // Non-owning pointer/reference declarators are out of scope.
      const size_t after = SkipSpaces(code_, pos);
      if (after < code_.size() &&
          (code_[after] == '&' || code_[after] == '*')) {
        continue;
      }
      const std::string decl_name = DeclaredName(code_, pos);
      if (decl_name.empty()) continue;
      if (index_.joined_symbols.count(decl_name) > 0) continue;
      Report(at, "R9", "detach",
             "'std::thread " + decl_name +
                 "' is never join()ed in the scanned files; join it on the "
                 "owner's shutdown path or waive with detach-ok(<reason>)");
    }
  }

  const std::string& path_;
  const std::string code_;
  const SymbolIndex& index_;
  const FileConfig& config_;
  /// Code line -> waived tag -> the lines of the waivers covering it.
  std::map<int, std::map<std::string, std::set<int>>> waived_;
  /// Per-file waivers (line, tag) that have not suppressed a finding yet.
  std::set<std::pair<int, std::string>> unused_;
  std::vector<Finding> findings_;
};

}  // namespace

std::string Scrub(const std::string& content) {
  return ScrubImpl(content).code;
}

std::map<int, std::string> CommentsByLine(const std::string& content) {
  return ScrubImpl(content).comments;
}

void SymbolIndex::ResolveAliases() {
  // Fixpoint over alias-of-alias chains.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, rhs] : alias_defs) {
      if (unordered_aliases.count(name) > 0) continue;
      bool unordered = rhs.find("unordered_map") != std::string::npos ||
                       rhs.find("unordered_set") != std::string::npos;
      for (const std::string& alias : unordered_aliases) {
        if (unordered) break;
        size_t pos = rhs.find(alias);
        while (pos != std::string::npos) {
          if (IsWordAt(rhs, pos, alias)) {
            unordered = true;
            break;
          }
          pos = rhs.find(alias, pos + 1);
        }
      }
      if (unordered) {
        unordered_aliases.insert(name);
        changed = true;
      }
    }
  }
  for (const std::string& content : indexed_contents) {
    for (const std::string& alias : unordered_aliases) {
      CollectDecls(content, alias, &unordered_symbols);
    }
  }
}

void IndexFile(const std::string& content, SymbolIndex* index) {
  const std::string code = Scrub(content);
  // Type aliases: using NAME = RHS;
  size_t pos = 0;
  while ((pos = code.find("using", pos)) != std::string::npos) {
    const size_t at = pos;
    pos += 5;
    if (!IsWordAt(code, at, "using")) continue;
    size_t p = SkipSpaces(code, at + 5);
    size_t end = p;
    while (end < code.size() && IsIdentChar(code[end])) ++end;
    if (end == p) continue;
    const std::string name = code.substr(p, end - p);
    p = SkipSpaces(code, end);
    if (p >= code.size() || code[p] != '=') continue;
    const size_t semi = code.find(';', p);
    if (semi == std::string::npos) continue;
    index->alias_defs[name] = code.substr(p + 1, semi - p - 1);
  }
  for (const char* type : {"unordered_map", "unordered_set"}) {
    CollectDecls(code, type, &index->unordered_symbols);
  }
  for (const char* type :
       {"std::atomic", "std::mutex", "std::shared_mutex", "std::once_flag",
        "std::condition_variable", "obs::Counter", "obs::Gauge",
        "obs::Histogram", "Counter", "Gauge", "Histogram", "Mutex",
        "CondVar", "BoundedQueue", "WorkerPool"}) {
    CollectDecls(code, type, &index->threadsafe_symbols);
  }
  index->indexed_contents.push_back(code);
}

void CollectJoins(const std::string& content, SymbolIndex* index) {
  const std::string code = Scrub(content);
  size_t pos = 0;
  while ((pos = code.find("join", pos)) != std::string::npos) {
    const size_t at = pos;
    pos += 4;
    size_t len = 0;
    if (IsWordAt(code, at, "join")) {
      len = 4;
    } else if (IsWordAt(code, at, "joinable")) {
      len = 8;
    } else {
      continue;
    }
    const size_t open = SkipSpaces(code, at + len);
    if (open >= code.size() || code[open] != '(') continue;
    // Member access only: x.join() / x->join().
    size_t p = at;
    while (p > 0 &&
           std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
      --p;
    }
    if (p > 0 && code[p - 1] == '.') {
      --p;
    } else if (p > 1 && code[p - 1] == '>' && code[p - 2] == '-') {
      p -= 2;
    } else {
      continue;
    }
    const std::string receiver = ReceiverBefore(code, p);
    if (!receiver.empty()) index->joined_symbols.insert(receiver);
  }
}

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& content,
                              const SymbolIndex& index,
                              const FileConfig& config) {
  const ScrubResult scrubbed = ScrubImpl(content);
  Linter linter(path, scrubbed, index, config);
  return linter.Run();
}

std::vector<Finding> LintSnippet(const std::string& path,
                                 const std::string& content,
                                 const FileConfig& config) {
  SymbolIndex index;
  IndexFile(content, &index);
  CollectJoins(content, &index);
  index.ResolveAliases();
  return LintFile(path, content, index, config);
}

std::string HeaderTuSource(const std::string& header_include_path) {
  return "// Generated by mc3_lint --emit-header-tus (rule R3): compiling\n"
         "// this TU proves the header is self-contained.\n"
         "#include \"" +
         header_include_path + "\"\n";
}

std::string FindingsToJson(const std::vector<Finding>& findings,
                           size_t files_scanned,
                           const std::vector<std::string>& skipped_files) {
  obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema").String("mc3.lint_report/3");
  writer.Key("files_scanned").Int(files_scanned);
  writer.Key("num_findings").Int(findings.size());
  // Every rule appears in the counts, zeros included, so report consumers
  // can distinguish "clean" from "rule did not run".
  std::map<std::string, uint64_t> by_rule;
  for (const char* rule :
       {"R1", "R2", "R3", "R4", "R6", "R8", "R9", "W0", "W1"}) {
    by_rule[rule] = 0;
  }
  for (const Finding& f : findings) ++by_rule[f.rule];
  writer.Key("findings_by_rule").BeginObject();
  for (const auto& [rule, count] : by_rule) {
    writer.Key(rule).Int(count);
  }
  writer.EndObject();
  writer.Key("findings").BeginArray();
  for (const Finding& f : findings) {
    writer.BeginObject();
    writer.Key("file").String(f.file);
    writer.Key("line").Int(static_cast<uint64_t>(f.line));
    writer.Key("rule").String(f.rule);
    writer.Key("tag").String(f.tag);
    writer.Key("message").String(f.message);
    writer.EndObject();
  }
  writer.EndArray();
  // Files the driver could not read; non-empty means the scan is partial
  // and the run exits non-zero even at zero findings.
  writer.Key("skipped").BeginArray();
  for (const std::string& path : skipped_files) writer.String(path);
  writer.EndArray();
  writer.EndObject();
  return writer.Take();
}

}  // namespace mc3::lint
