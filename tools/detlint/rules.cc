#include "rules.h"

#include <algorithm>
#include <cctype>

namespace detlint {
namespace {

// ---------------------------------------------------------------------------
// Path scoping helpers (work on both real paths and fixture virtual paths).
// ---------------------------------------------------------------------------

bool PathContains(const std::string& path, const std::string& frag) {
  return path.find(frag) != std::string::npos;
}

/// True when `path` lives under the top-level source tree `tree`
/// ("src", "tools", "bench", "tests") — either as an absolute path
/// containing "/tree/" or a repo-relative one starting with "tree/".
bool InTree(const std::string& path, const std::string& tree) {
  if (path.rfind(tree + "/", 0) == 0) return true;
  return PathContains(path, "/" + tree + "/");
}

// ---------------------------------------------------------------------------
// Rule catalog.
// ---------------------------------------------------------------------------

const std::map<std::string, std::string>& Catalog() {
  static const std::map<std::string, std::string> kCatalog = {
      {"unordered-iter",
       "iteration over a hash container: order is unspecified and "
       "salt-dependent, so it may not feed a decision"},
      {"raw-unordered",
       "direct std::unordered_map/set instead of the salted, "
       "non-iterable hermes::FlatMap (common/flat_map.h)"},
      {"std-rand",
       "std::rand/srand: global hidden state, unseeded; all randomness "
       "flows through seeded hermes::Rng"},
      {"random-device",
       "std::random_device: hardware entropy, unreproducible"},
      {"unseeded-rng",
       "default-constructed random engine (implementation-defined seed)"},
      {"wall-clock",
       "wall-clock read: simulated time is the only clock"},
      {"pointer-order",
       "ordered container or comparator keyed on pointer values: "
       "allocation-address order is nondeterministic"},
      {"raw-thread",
       "raw threading primitive: the simulator runs every event on one "
       "thread, so no code needs real concurrency"},
      {"obs-decision",
       "tracer state feeding a decision in src/core/ or "
       "src/routing/: observability is write-only by contract"},
      {"include-hygiene",
       "include (direct or transitive through project headers) of a "
       "thread or clock header"},
      {"env-read",
       "std::getenv outside the sanctioned accessor (src/common/env.cc): "
       "environment reads must flow through hermes::EnvRead"},
  };
  return kCatalog;
}

// ---------------------------------------------------------------------------
// Token helpers.
// ---------------------------------------------------------------------------

bool Is(const std::vector<Token>& t, size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

bool IsIdent(const std::vector<Token>& t, size_t i) {
  return i < t.size() && t[i].kind == TokKind::kIdent;
}

bool PrecededByStd(const std::vector<Token>& t, size_t i) {
  return i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std";
}

/// Matches a parenthesis group starting at the `(` token `open`;
/// returns the index of the matching `)`, or npos. Counts only parens:
/// braces and brackets inside (lambda bodies in call arguments) nest
/// their own parens and balance out.
size_t MatchParen(const std::vector<Token>& t, size_t open) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")" && --depth == 0) return i;
  }
  return std::string::npos;
}

/// Matches an angle-bracket group starting at the `<` token `open`.
/// `>>` closes two levels (nested template arguments). When the group
/// closes on the *first* `>` of a `>>` token, the type is itself nested
/// inside an enclosing template — `overshot` reports that, because the
/// token after the close then belongs to the outer template, not this
/// one.
size_t MatchAngle(const std::vector<Token>& t, size_t open,
                  bool* overshot = nullptr) {
  if (overshot != nullptr) *overshot = false;
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (x == "<") ++depth;
    if (x == ";" || x == "{") return std::string::npos;  // not a template
    if (x == ">" && --depth <= 0) return i;
    if (x == ">>") {
      depth -= 2;
      if (depth <= 0) {
        if (overshot != nullptr) *overshot = depth < 0;
        return i;
      }
    }
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// Identifier sets.
// ---------------------------------------------------------------------------

bool IsThreadPrimitive(const std::string& s) {
  static const std::set<std::string> kExact = {
      "thread",        "jthread",       "mutex",
      "timed_mutex",   "recursive_mutex", "shared_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",        "lock_guard",    "unique_lock",
      "scoped_lock",   "shared_lock",   "future",
      "promise",       "async",         "barrier",
      "latch",         "counting_semaphore", "binary_semaphore"};
  if (kExact.count(s) > 0) return true;
  return s.rfind("atomic_", 0) == 0 && s.size() > 7;
}

const std::set<std::string>& ThreadHeaders() {
  static const std::set<std::string> kHeaders = {
      "thread",    "mutex",     "atomic",   "condition_variable",
      "future",    "shared_mutex", "stop_token", "semaphore",
      "barrier",   "latch"};
  return kHeaders;
}

const std::set<std::string>& ClockHeaders() {
  static const std::set<std::string> kHeaders = {"chrono", "ctime", "time.h",
                                                 "sys/time.h"};
  return kHeaders;
}

bool IsRngEngine(const std::string& s) {
  static const std::set<std::string> kExact = {
      "mt19937", "mt19937_64", "default_random_engine", "minstd_rand",
      "minstd_rand0", "knuth_b"};
  if (kExact.count(s) > 0) return true;
  return s.rfind("ranlux", 0) == 0 && s.size() > 6;
}

bool IsHashContainerType(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" || s == "HashMap" ||
         s == "HashSet" || s == "FlatMap";
}

// ---------------------------------------------------------------------------
// Comment markers: suppressions.
// ---------------------------------------------------------------------------

std::string TrimmedTail(const std::string& comment, size_t pos) {
  size_t end = comment.find('\n', pos);
  if (end == std::string::npos) end = comment.size();
  std::string tail = comment.substr(pos, end - pos);
  // Block-comment closers are delimiters, not justification text.
  const size_t close = tail.rfind("*/");
  if (close != std::string::npos) tail = tail.substr(0, close);
  while (!tail.empty() &&
         std::isspace(static_cast<unsigned char>(tail.back()))) {
    tail.pop_back();
  }
  while (!tail.empty() &&
         std::isspace(static_cast<unsigned char>(tail.front()))) {
    tail.erase(tail.begin());
  }
  return tail;
}

void ParseSuppressions(const LexedFile& f,
                       std::vector<Suppression>* suppressions) {
  for (const Comment& c : f.comments) {
    // Suppressions: "allow(<rule>) <justification>" after the prefix.
    for (size_t pos = c.text.find("detlint:allow(");
         pos != std::string::npos;
         pos = c.text.find("detlint:allow(", pos + 1)) {
      const size_t name_begin = pos + 14;
      const size_t name_end = c.text.find(')', name_begin);
      if (name_end == std::string::npos) continue;
      Suppression s;
      s.file = f.path;
      s.line = LineOf(f, c.offset + pos);
      s.rule = c.text.substr(name_begin, name_end - name_begin);
      s.justification = TrimmedTail(c.text, name_end + 1);
      suppressions->push_back(std::move(s));
    }
  }
}

// ---------------------------------------------------------------------------
// Hash-container declared names (shared by unordered-iter).
// ---------------------------------------------------------------------------

void CollectHashContainerNames(const LexedFile& f,
                               std::set<std::string>* names) {
  const auto& t = f.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!IsIdent(t, i) || !IsHashContainerType(t[i].text)) continue;
    if (!Is(t, i + 1, "<")) continue;
    bool overshot = false;
    const size_t close = MatchAngle(t, i + 1, &overshot);
    if (close == std::string::npos) continue;
    // `vector<HashMap<K, V>> name` declares a vector: the name after the
    // `>>` belongs to the enclosing template, not the hash container.
    if (overshot) continue;
    size_t j = close + 1;
    while (Is(t, j, "&") || Is(t, j, "*")) ++j;
    if (!IsIdent(t, j)) continue;
    const std::string& name = t[j].text;
    if (name == "const" || name == "constexpr" || name == "static") continue;
    names->insert(name);
  }
}

// ---------------------------------------------------------------------------
// Include graph.
// ---------------------------------------------------------------------------

struct IncludeTaint {
  std::string header;  // banned system header reached
  std::string via;     // first project hop ("" when included directly)
};

class IncludeGraph {
 public:
  explicit IncludeGraph(const std::vector<LexedFile>& files) {
    for (const LexedFile& f : files) by_path_[f.virtual_path] = &f;
  }

  /// Resolves a quoted include target against the batch by path suffix
  /// (include paths are rooted at src/ or the including file's own dir).
  /// Candidates are tried in path order, so ties break deterministically.
  const LexedFile* Resolve(const std::string& target) const {
    for (const auto& [p, f] : by_path_) {
      if (p == target) return f;
      if (p.size() > target.size() + 1 &&
          p.compare(p.size() - target.size() - 1, target.size() + 1,
                    "/" + target) == 0) {
        return f;
      }
    }
    return nullptr;
  }

  /// Banned system headers reachable from `f` through any include chain,
  /// each with the first project hop that leads there.
  const std::map<std::string, IncludeTaint>& Closure(const LexedFile* f) {
    auto it = closures_.find(f->virtual_path);
    if (it != closures_.end()) return it->second;
    closures_[f->virtual_path] = {};  // cycle guard: in-progress nodes
                                      // contribute nothing
    std::map<std::string, IncludeTaint> result;
    for (const IncludeDirective& inc : f->includes) {
      if (inc.system) {
        if (ThreadHeaders().count(inc.target) > 0 ||
            ClockHeaders().count(inc.target) > 0) {
          result.emplace(inc.target, IncludeTaint{inc.target, ""});
        }
        continue;
      }
      const LexedFile* dep = Resolve(inc.target);
      if (dep == nullptr || dep == f) continue;
      for (const auto& [header, taint] : Closure(dep)) {
        (void)taint;
        result.emplace(header, IncludeTaint{header, inc.target});
      }
    }
    return closures_[f->virtual_path] = std::move(result);
  }

  /// Virtual paths of every project file transitively included by `f`
  /// (unordered-iter uses this to see hash-container members declared in
  /// included headers without conflating same-named locals elsewhere).
  const std::set<std::string>& ProjectClosure(const LexedFile* f) {
    auto it = project_closures_.find(f->virtual_path);
    if (it != project_closures_.end()) return it->second;
    project_closures_[f->virtual_path] = {};  // cycle guard
    std::set<std::string> result;
    for (const IncludeDirective& inc : f->includes) {
      if (inc.system) continue;
      const LexedFile* dep = Resolve(inc.target);
      if (dep == nullptr || dep == f) continue;
      result.insert(dep->virtual_path);
      const std::set<std::string>& sub = ProjectClosure(dep);
      result.insert(sub.begin(), sub.end());
    }
    return project_closures_[f->virtual_path] = std::move(result);
  }

 private:
  std::map<std::string, const LexedFile*> by_path_;
  std::map<std::string, std::map<std::string, IncludeTaint>> closures_;
  std::map<std::string, std::set<std::string>> project_closures_;
};

// ---------------------------------------------------------------------------
// The linter.
// ---------------------------------------------------------------------------

class Linter {
 public:
  explicit Linter(std::vector<Suppression>* suppressions)
      : suppressions_(suppressions) {}

  void AddFinding(const LexedFile& f, size_t offset, const std::string& rule,
                  std::string excerpt = "") {
    const int line = LineOf(f, offset);
    for (Suppression& s : *suppressions_) {
      if (s.file == f.path && s.rule == rule &&
          (s.line == line || s.line + 1 == line)) {
        s.used = true;
        return;
      }
    }
    if (excerpt.empty()) excerpt = LineText(f, line);
    findings_.push_back(Finding{f.path, line, rule, std::move(excerpt)});
  }

  // --- Simple token rules -------------------------------------------------

  void ScanTokens(const LexedFile& f, const RuleProfile& profile,
                  const std::set<std::string>& hash_names) {
    const auto& t = f.tokens;
    const bool obs_scope = PathContains(f.virtual_path, "src/core/") ||
                           PathContains(f.virtual_path, "src/routing/");
    const bool hash_header = PathContains(f.virtual_path, "common/hash.h");
    const bool env_accessor = PathContains(f.virtual_path, "common/env.cc") ||
                              PathContains(f.virtual_path, "common/env.h");

    for (size_t i = 0; i < t.size(); ++i) {
      if (!IsIdent(t, i)) continue;
      const std::string& x = t[i].text;

      if (profile.count("std-rand") > 0) {
        if ((x == "rand" && (PrecededByStd(t, i) || Is(t, i + 1, "("))) ||
            (x == "srand" && Is(t, i + 1, "("))) {
          AddFinding(f, t[i].offset, "std-rand");
        }
      }

      if (profile.count("random-device") > 0 && x == "random_device") {
        AddFinding(f, t[i].offset, "random-device");
      }

      if (profile.count("unseeded-rng") > 0 && IsRngEngine(x) &&
          IsIdent(t, i + 1) && Is(t, i + 2, ";")) {
        AddFinding(f, t[i].offset, "unseeded-rng");
      }

      if (profile.count("raw-thread") > 0 && IsThreadPrimitive(x) &&
          PrecededByStd(t, i)) {
        AddFinding(f, t[i - 2].offset, "raw-thread");
      }

      if (profile.count("wall-clock") > 0) {
        if (x == "system_clock" || x == "steady_clock" ||
            x == "high_resolution_clock" || x == "gettimeofday" ||
            x == "clock_gettime" || x == "localtime" || x == "gmtime") {
          AddFinding(f, t[i].offset, "wall-clock");
        } else if (x == "time" && Is(t, i + 1, "(")) {
          size_t j = i + 2;
          if (Is(t, j, "NULL") || Is(t, j, "nullptr") || Is(t, j, "0")) ++j;
          if (Is(t, j, ")")) AddFinding(f, t[i].offset, "wall-clock");
        }
      }

      if (profile.count("pointer-order") > 0 &&
          (x == "map" || x == "set" || x == "less" || x == "greater") &&
          Is(t, i + 1, "<")) {
        size_t j = i + 2;
        if (Is(t, j, "const")) ++j;
        size_t idents = 0;
        while (IsIdent(t, j) || Is(t, j, "::")) {
          if (IsIdent(t, j)) ++idents;
          ++j;
        }
        if (idents > 0 && Is(t, j, "*")) {
          AddFinding(f, t[i].offset, "pointer-order");
        }
      }

      if (profile.count("raw-unordered") > 0 && !hash_header &&
          (x == "unordered_map" || x == "unordered_set")) {
        AddFinding(f, t[i].offset, "raw-unordered");
      }

      if (profile.count("env-read") > 0 && !env_accessor &&
          (x == "getenv" || x == "secure_getenv")) {
        AddFinding(f, t[i].offset, "env-read");
      }

      if (profile.count("unordered-iter") > 0) {
        ScanUnorderedIterAt(f, i, hash_names);
      }

      if (profile.count("obs-decision") > 0 && obs_scope) {
        ScanObsDecisionAt(f, i);
      }
    }

    // Include-directive components of raw-thread / raw-unordered (v1
    // matched the directive text; directives are not tokens here).
    for (const IncludeDirective& inc : f.includes) {
      if (profile.count("raw-thread") > 0 && inc.system &&
          ThreadHeaders().count(inc.target) > 0) {
        AddFinding(f, inc.offset, "raw-thread");
      }
      if (profile.count("raw-unordered") > 0 && !hash_header && inc.system &&
          (inc.target == "unordered_map" || inc.target == "unordered_set")) {
        AddFinding(f, inc.offset, "raw-unordered");
      }
    }
  }

  // --- unordered-iter -----------------------------------------------------

  void ScanUnorderedIterAt(const LexedFile& f, size_t i,
                           const std::set<std::string>& hash_names) {
    const auto& t = f.tokens;
    // Range-for over a known hash-container name.
    if (t[i].text == "for" && Is(t, i + 1, "(")) {
      const size_t close = MatchParen(t, i + 1);
      if (close == std::string::npos) return;
      size_t colon = std::string::npos;
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        const std::string& x = t[j].text;
        if (x == "(" || x == "[" || x == "{") ++depth;
        if (x == ")" || x == "]" || x == "}") --depth;
        if (x == ";" && depth == 1) return;  // classic for
        if (x == ":" && depth == 1) {
          colon = j;
          break;
        }
      }
      if (colon == std::string::npos) return;
      // Trailing identifier of the sequence expression (`name`,
      // `obj.name`, `name()`, `obj.name()`).
      size_t last = close - 1;
      if (Is(t, last, ")") && Is(t, last - 1, "(")) last -= 2;
      if (last > colon && IsIdent(t, last) &&
          hash_names.count(t[last].text) > 0) {
        AddFinding(f, t[i].offset, "unordered-iter");
      }
      return;
    }
    // name.begin() / name().cbegin() on a known hash-container name.
    if (hash_names.count(t[i].text) > 0) {
      size_t j = i + 1;
      if (Is(t, j, "(") && Is(t, j + 1, ")")) j += 2;
      if (Is(t, j, ".") &&
          (Is(t, j + 1, "begin") || Is(t, j + 1, "cbegin")) &&
          Is(t, j + 2, "(")) {
        AddFinding(f, t[i].offset, "unordered-iter");
      }
    }
  }

  // --- obs-decision -------------------------------------------------------

  static bool IsObsSymbol(const std::vector<Token>& t, size_t i) {
    if (!(i < t.size() && t[i].kind == TokKind::kIdent)) return false;
    const std::string& x = t[i].text;
    if (x == "obs" && Is(t, i + 1, "::")) return true;
    if (x.rfind("tracer", 0) == 0) return true;
    return x.rfind("HERMES_TRACE", 0) == 0;
  }

  void ScanObsDecisionAt(const LexedFile& f, size_t i) {
    const auto& t = f.tokens;
    const std::string& x = t[i].text;
    if (x == "return") {
      for (size_t j = i + 1; j < t.size(); ++j) {
        const std::string& y = t[j].text;
        if (y == ";" || y == "{" || y == "}") break;
        if (IsObsSymbol(t, j)) {
          AddFinding(f, t[i].offset, "obs-decision");
          break;
        }
      }
      return;
    }
    if ((x == "if" || x == "while") && Is(t, i + 1, "(")) {
      const size_t close = MatchParen(t, i + 1);
      if (close == std::string::npos) return;
      bool has_obs = false;
      for (size_t j = i + 2; j < close; ++j) {
        if (IsObsSymbol(t, j)) {
          has_obs = true;
          break;
        }
      }
      if (!has_obs) return;
      // A bare `HERMES_TRACE_ACTIVE(...)` (optionally negated, no nested
      // parens) only gates event emission and is exempt: the condition
      // must be exactly [!] HERMES_TRACE_ACTIVE ( paren-free-tokens ).
      size_t j = i + 2;
      if (Is(t, j, "!")) ++j;
      if (Is(t, j, "HERMES_TRACE_ACTIVE") && Is(t, j + 1, "(")) {
        bool nested = false;
        for (size_t k = j + 2; k < close - 1; ++k) {
          if (t[k].text == "(" || t[k].text == ")") {
            nested = true;
            break;
          }
        }
        if (!nested && Is(t, close - 1, ")") && close - 1 > j + 1) return;
      }
      AddFinding(f, t[i].offset, "obs-decision");
    }
  }

  // --- include-hygiene ----------------------------------------------------

  void ScanIncludeHygiene(const LexedFile& f, const RuleProfile& profile,
                          IncludeGraph& graph) {
    if (profile.count("include-hygiene") == 0) return;
    for (const IncludeDirective& inc : f.includes) {
      if (inc.system) {
        // Direct thread-header includes are raw-thread's job; direct
        // clock headers were previously invisible and are flagged here.
        if (ClockHeaders().count(inc.target) > 0) {
          AddFinding(f, inc.offset, "include-hygiene",
                     LineText(f, inc.line) + "  (direct <" + inc.target +
                         "> include)");
        }
        continue;
      }
      const LexedFile* dep = graph.Resolve(inc.target);
      if (dep == nullptr) continue;
      const auto& taints = graph.Closure(dep);
      if (taints.empty()) continue;
      const auto& [header, taint] = *taints.begin();
      std::string via = taint.via.empty()
                            ? inc.target
                            : inc.target + " -> " + taint.via;
      AddFinding(f, inc.offset, "include-hygiene",
                 LineText(f, inc.line) + "  (reaches <" + header + "> via " +
                     via + ")");
    }
  }

  std::vector<Finding> findings_;

 private:
  std::vector<Suppression>* suppressions_;
};

}  // namespace

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = [] {
    std::set<std::string> r;
    for (const auto& [name, desc] : Catalog()) {
      (void)desc;
      r.insert(name);
    }
    return r;
  }();
  return kRules;
}

const std::map<std::string, std::string>& RuleDescriptions() {
  return Catalog();
}

RuleProfile ProfileFor(const std::string& virtual_path) {
  RuleProfile profile = KnownRules();
  if (InTree(virtual_path, "bench")) {
    profile.erase("raw-thread");
  } else if (InTree(virtual_path, "tests")) {
    profile.erase("raw-unordered");
    profile.erase("unordered-iter");
  }
  return profile;
}

AnalysisResult Analyze(std::vector<LexedFile>& files) {
  AnalysisResult result;
  for (const LexedFile& f : files) ParseSuppressions(f, &result.suppressions);

  std::map<std::string, std::set<std::string>> hash_names_by_path;
  for (const LexedFile& f : files) {
    CollectHashContainerNames(f, &hash_names_by_path[f.virtual_path]);
  }

  IncludeGraph graph(files);
  Linter linter(&result.suppressions);
  for (const LexedFile& f : files) {
    const RuleProfile profile = ProfileFor(f.virtual_path);
    // Hash-container names visible to this file: its own declarations
    // plus those of every project file it transitively includes.
    std::set<std::string> hash_names = hash_names_by_path[f.virtual_path];
    for (const std::string& dep : graph.ProjectClosure(&f)) {
      const auto it = hash_names_by_path.find(dep);
      if (it == hash_names_by_path.end()) continue;
      hash_names.insert(it->second.begin(), it->second.end());
    }
    linter.ScanTokens(f, profile, hash_names);
    linter.ScanIncludeHygiene(f, profile, graph);
  }

  std::sort(linter.findings_.begin(), linter.findings_.end());
  result.findings = std::move(linter.findings_);
  return result;
}

}  // namespace detlint
