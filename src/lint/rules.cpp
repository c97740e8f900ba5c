#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <set>

namespace dfly::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule ids

constexpr const char* kWallClock = "wall-clock";
constexpr const char* kRawRng = "raw-rng";
constexpr const char* kUnorderedIter = "unordered-iter";
constexpr const char* kPointerOrder = "pointer-order";
constexpr const char* kRawBytes = "raw-bytes";
constexpr const char* kPodAssert = "pod-assert";
constexpr const char* kBadAnnotation = "bad-annotation";
constexpr const char* kStaleAllow = "stale-allow";

// ---------------------------------------------------------------------------
// Annotations

struct Annotation {
  std::set<std::string> rules;
  std::string reason;
  int line = 0;          ///< line of the annotation comment
  int applies_line = 0;  ///< line of the code the annotation covers (0: none)
  bool used = false;
  bool malformed = false;
  std::string malformed_why;
};

std::string trim(std::string s) {
  const auto notspace = [](unsigned char c) { return !std::isspace(c); };
  s.erase(s.begin(), std::find_if(s.begin(), s.end(), notspace));
  s.erase(std::find_if(s.rbegin(), s.rend(), notspace).base(), s.end());
  return s;
}

/// Parses one annotation out of a comment's text, given the position right
/// after the "dfly-lint:" marker.
Annotation parse_annotation(const std::string& text, std::size_t after_marker, int line) {
  Annotation ann;
  ann.line = line;
  const auto fail = [&](const std::string& why) {
    ann.malformed = true;
    ann.malformed_why = why;
    return ann;
  };

  std::size_t p = text.find_first_not_of(" \t", after_marker);
  static constexpr std::string_view kAllow = "allow(";
  if (p == std::string::npos || text.compare(p, kAllow.size(), kAllow) != 0)
    return fail("expected allow(<rule>[,<rule>...]) after dfly-lint:");
  p += kAllow.size();
  const std::size_t close = text.find(')', p);
  if (close == std::string::npos) return fail("unclosed allow( rule list");

  std::string list = text.substr(p, close - p);
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string name =
        trim(comma == std::string::npos ? list.substr(start) : list.substr(start, comma - start));
    if (!name.empty()) {
      const std::string canon = canonical_rule(name);
      if (canon.empty()) return fail("unknown rule '" + name + "' in allow()");
      ann.rules.insert(canon);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (ann.rules.empty()) return fail("empty rule list in allow()");

  std::size_t r = text.find("reason=", close);
  if (r == std::string::npos) return fail("missing reason= after allow()");
  std::string reason = text.substr(r + 7);
  // Strip a block-comment terminator if the annotation lives in /* ... */.
  if (const std::size_t end = reason.rfind("*/"); end != std::string::npos)
    reason = reason.substr(0, end);
  ann.reason = trim(reason);
  if (ann.reason.empty()) return fail("empty reason= — exemptions must be justified");
  return ann;
}

// ---------------------------------------------------------------------------
// Per-file evaluation context

struct FileCtx {
  const SourceFile* file = nullptr;
  std::vector<const Token*> code;  ///< non-comment, non-preprocessor tokens
  std::vector<Annotation> annotations;
  /// Names declared with an unordered container as their full type.
  std::set<std::string> unordered_direct;
  /// Names whose declared type contains an unordered container somewhere
  /// inside (e.g. std::vector<std::unordered_map<...>> rows_).
  std::set<std::string> unordered_nested;
};

bool is_code(const Token& t) { return t.kind != TokKind::Comment && t.kind != TokKind::Pp; }

/// Position just past "dfly-lint:" if the comment *starts* with the marker
/// (after its // or /* opener and whitespace); npos otherwise. Anchoring at
/// the start keeps prose that merely quotes an annotation example from
/// parsing as one.
std::size_t annotation_marker(const std::string& comment) {
  std::size_t p = 0;
  while (p < comment.size() && (comment[p] == '/' || comment[p] == '*')) ++p;
  while (p < comment.size() && (comment[p] == ' ' || comment[p] == '\t')) ++p;
  static constexpr std::string_view kMarker = "dfly-lint:";
  if (comment.compare(p, kMarker.size(), kMarker) != 0) return std::string::npos;
  return p + kMarker.size();
}

void collect_annotations(FileCtx& ctx) {
  const std::vector<Token>& toks = ctx.file->tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::Comment) continue;
    const std::size_t marker = annotation_marker(t.text);
    if (marker == std::string::npos) continue;
    Annotation ann = parse_annotation(t.text, marker, t.line);
    // Trailing comment (code precedes it on the same line) covers only its
    // own line; a standalone comment line covers the next code line too.
    bool trailing = false;
    for (std::size_t j = i; j-- > 0;) {
      if (toks[j].line != t.line) break;
      if (is_code(toks[j])) {
        trailing = true;
        break;
      }
    }
    ann.applies_line = ann.line;
    if (!trailing) {
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (is_code(toks[j])) {
          ann.applies_line = toks[j].line;
          break;
        }
      }
    }
    ctx.annotations.push_back(std::move(ann));
  }
}

/// Walks a balanced <...> starting at the '<' code index; returns the index
/// one past the matching '>', or `end` if unbalanced. Records top-level
/// comma positions (depth 1) when `commas` is non-null.
std::size_t skip_template_args(const FileCtx& ctx, std::size_t open,
                               std::vector<std::size_t>* commas = nullptr) {
  int depth = 0;
  for (std::size_t i = open; i < ctx.code.size(); ++i) {
    const Token& t = *ctx.code[i];
    if (t.kind != TokKind::Punct) continue;
    if (t.text == "<") ++depth;
    if (t.text == ">") {
      --depth;
      if (depth == 0) return i + 1;
    }
    // A ';' or '{' at depth>0 means this '<' was a comparison, not a
    // template argument list — bail rather than swallowing the file.
    if (t.text == ";" || t.text == "{") return ctx.code.size();
    if (t.text == "," && depth == 1 && commas) commas->push_back(i);
  }
  return ctx.code.size();
}

const std::set<std::string>& unordered_container_names() {
  static const std::set<std::string> names = {"unordered_map", "unordered_set",
                                              "unordered_multimap", "unordered_multiset"};
  return names;
}

/// Finds declarations whose type involves an unordered container and records
/// the declared (or accessor-function) name.
void collect_unordered_decls(FileCtx& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i]->kind != TokKind::Identifier || !unordered_container_names().count(code[i]->text))
      continue;
    if (i + 1 >= code.size() || code[i + 1]->text != "<") continue;
    const std::size_t after = skip_template_args(ctx, i + 1);
    if (after >= code.size()) continue;

    // Direct: unordered_map<...> [const] [&*]* name
    std::size_t j = after;
    while (j < code.size() && code[j]->kind == TokKind::Punct &&
           (code[j]->text == "&" || code[j]->text == "*"))
      ++j;
    if (j < code.size() && code[j]->kind == TokKind::Identifier && code[j]->text != "const" &&
        ctx.unordered_direct.insert(code[j]->text).second) {
      continue;
    }

    // Nested: the unordered container is an inner template argument — walk
    // out to the enclosing declarator and take the first identifier after
    // the outermost '>' (e.g. vector<unordered_map<...>> rows_).
    if (after < code.size() && code[after]->text == ">") {
      std::size_t k = after;
      while (k < code.size() && code[k]->text == ">") ++k;
      while (k < code.size() && code[k]->kind == TokKind::Punct &&
             (code[k]->text == "&" || code[k]->text == "*"))
        ++k;
      if (k < code.size() && code[k]->kind == TokKind::Identifier && code[k]->text != "const")
        ctx.unordered_nested.insert(code[k]->text);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule bodies. Each returns raw findings; annotation resolution is shared.

struct Finding {
  std::string rule;
  int line;
  std::string message;
};

bool prev_is_member_access(const FileCtx& ctx, std::size_t i) {
  if (i == 0) return false;
  const Token& p = *ctx.code[i - 1];
  return p.kind == TokKind::Punct && (p.text == "." || p.text == ">");  // '>' tail of '->'
}

bool next_is(const FileCtx& ctx, std::size_t i, const char* punct) {
  return i + 1 < ctx.code.size() && ctx.code[i + 1]->kind == TokKind::Punct &&
         ctx.code[i + 1]->text == punct;
}

void rule_wall_clock(const FileCtx& ctx, std::vector<Finding>& out) {
  if (is_wallclock_module(ctx.file->module)) return;
  static const std::set<std::string> always = {
      "system_clock", "steady_clock",  "high_resolution_clock", "gettimeofday",
      "clock_gettime", "timespec_get", "localtime",             "gmtime",
      "mktime",        "strftime",     "asctime",               "ctime"};
  static const std::set<std::string> call_only = {"time", "clock"};
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const Token& t = *ctx.code[i];
    if (t.kind != TokKind::Identifier) continue;
    if (always.count(t.text)) {
      out.push_back({kWallClock, t.line,
                     t.text + " reads wall-clock time; simulation state must depend only on "
                             "sim-time and seeds (allowed module: prof/)"});
    } else if (call_only.count(t.text) && next_is(ctx, i, "(") && !prev_is_member_access(ctx, i)) {
      out.push_back({kWallClock, t.line,
                     t.text + "() reads wall-clock time; use the engine's sim-time clock"});
    }
  }
}

void rule_raw_rng(const FileCtx& ctx, std::vector<Finding>& out) {
  static const std::set<std::string> engines = {
      "random_device", "mt19937",        "mt19937_64",   "minstd_rand",
      "minstd_rand0",  "ranlux24",       "ranlux48",     "ranlux24_base",
      "ranlux48_base", "knuth_b",        "seed_seq",     "default_random_engine"};
  static const std::set<std::string> call_only = {"rand", "srand", "rand_r", "random",
                                                  "srandom", "drand48", "lrand48", "mrand48"};
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const Token& t = *ctx.code[i];
    if (t.kind != TokKind::Identifier) continue;
    if (engines.count(t.text)) {
      out.push_back({kRawRng, t.line,
                     t.text + " is a non-reproducible/unspecified random source; draw from a "
                             "seeded Rng stream (util/rng.hpp) instead"});
    } else if (call_only.count(t.text) && next_is(ctx, i, "(") && !prev_is_member_access(ctx, i)) {
      out.push_back({kRawRng, t.line,
                     t.text + "() is unseeded global-state randomness; draw from a seeded Rng "
                             "stream (util/rng.hpp) instead"});
    }
  }
}

void rule_unordered_iter(const FileCtx& ctx, const std::set<std::string>& direct,
                         const std::set<std::string>& nested, bool feeds_artifacts,
                         std::vector<Finding>& out) {
  if (!feeds_artifacts) return;
  const auto& code = ctx.code;

  // Range-for whose range expression names an unordered container.
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i]->kind != TokKind::Identifier || code[i]->text != "for") continue;
    if (!next_is(ctx, i, "(")) continue;
    // Find the ':' at paren depth 1 (skipping "::" which lexes as one token).
    int depth = 0;
    std::size_t colon = 0, close = 0;
    for (std::size_t j = i + 1; j < code.size(); ++j) {
      const Token& t = *code[j];
      if (t.kind != TokKind::Punct) continue;
      if (t.text == "(") ++depth;
      if (t.text == ")") {
        if (--depth == 0) {
          close = j;
          break;
        }
      }
      if (t.text == ":" && depth == 1 && colon == 0) colon = j;
      if (t.text == ";" && depth == 1) break;  // classic for loop
    }
    if (colon == 0 || close == 0) continue;
    bool names_direct = false, names_nested = false, element_access = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      const Token& t = *code[j];
      if (t.kind == TokKind::Identifier) {
        if (direct.count(t.text)) names_direct = true;
        if (nested.count(t.text)) names_nested = true;
      }
      if (t.kind == TokKind::Punct && (t.text == "[" || t.text == "(")) element_access = true;
    }
    // A nested name iterated whole (e.g. the outer vector) is ordered; only
    // element access like rows_[src] reaches the unordered payload.
    if (names_direct || (names_nested && element_access)) {
      out.push_back({kUnorderedIter, code[i]->line,
                     "iteration over an unordered container in artifact-feeding code; hash-map "
                     "order is implementation-defined and can leak into artifact bytes (sort "
                     "keys first, use an ordered container, or annotate the loop "
                     "order-insensitive)"});
    }
  }

  // Explicit iterator walks: name.begin() / name.cbegin(). end()/cend() are
  // deliberately not matched — `it != m.end()` is the find-and-test idiom
  // and iterating still requires a begin().
  for (std::size_t i = 2; i < code.size(); ++i) {
    const Token& t = *code[i];
    if (t.kind != TokKind::Identifier || (t.text != "begin" && t.text != "cbegin")) continue;
    if (!prev_is_member_access(ctx, i) || !next_is(ctx, i, "(")) continue;
    const Token& obj = *code[i - 2];
    if (obj.kind == TokKind::Identifier && direct.count(obj.text)) {
      out.push_back({kUnorderedIter, t.line,
                     "explicit iterator over unordered container '" + obj.text +
                         "' in artifact-feeding code"});
    }
  }
}

void rule_pointer_order(const FileCtx& ctx, std::vector<Finding>& out) {
  struct Spec {
    int key_args;  ///< template args that participate in ordering/hashing
    int max_args;  ///< more than this means a user-supplied comparator/hash
  };
  static const std::map<std::string, Spec> containers = {
      {"map", {1, 2}},          {"multimap", {1, 2}},
      {"set", {1, 1}},          {"multiset", {1, 1}},
      {"unordered_map", {1, 2}}, {"unordered_multimap", {1, 2}},
      {"unordered_set", {1, 1}}, {"unordered_multiset", {1, 1}},
      {"hash", {1, 1}},         {"less", {1, 1}},
      {"greater", {1, 1}}};
  const auto& code = ctx.code;
  for (std::size_t i = 1; i < code.size(); ++i) {
    const Token& t = *code[i];
    if (t.kind != TokKind::Identifier) continue;
    const auto spec = containers.find(t.text);
    if (spec == containers.end()) continue;
    // Require a qualified use (std::map) so a local variable named `map`
    // compared with `<` cannot fire the rule.
    if (!(code[i - 1]->kind == TokKind::Punct && code[i - 1]->text == "::")) continue;
    if (!next_is(ctx, i, "<")) continue;
    std::vector<std::size_t> commas;
    const std::size_t after = skip_template_args(ctx, i + 1, &commas);
    if (after >= code.size()) continue;
    const int nargs = static_cast<int>(commas.size()) + 1;
    if (nargs > spec->second.max_args) continue;  // custom comparator/hash governs ordering
    const std::size_t key_end = commas.empty() ? after - 1 : commas.front();
    for (std::size_t j = i + 2; j < key_end; ++j) {
      if (code[j]->kind == TokKind::Punct && code[j]->text == "*") {
        out.push_back({kPointerOrder, t.line,
                       "pointer type used as ordering/hash key in std::" + t.text +
                           "; pointer values vary run to run — key on a stable id instead"});
        break;
      }
    }
  }
}

void rule_raw_bytes(const FileCtx& ctx, std::vector<Finding>& out) {
  static const std::set<std::string> allowed_rels = {"ckpt/snapshot_io.hpp", "ckpt/snapshot_io.cpp",
                                                     "obs/json.hpp", "obs/json.cpp"};
  if (allowed_rels.count(ctx.file->rel)) return;
  static const std::set<std::string> raw = {"reinterpret_cast", "memcpy",          "memmove",
                                            "__builtin_memcpy", "__builtin_memmove", "fwrite",
                                            "fread"};
  for (const Token* t : ctx.code) {
    if (t->kind == TokKind::Identifier && raw.count(t->text)) {
      out.push_back({kRawBytes, t->line,
                     t->text + " performs raw byte reinterpretation; byte-level I/O is confined "
                              "to ckpt/snapshot_io and obs/json so format invariants live in "
                              "one place"});
    }
  }
}

void rule_pod_assert(const FileCtx& ctx, std::vector<Finding>& out) {
  if (ctx.file->module != "ckpt") return;
  const auto& code = ctx.code;

  // Struct names covered by a static_assert in this file: any static_assert
  // whose argument list mentions the name along with a triviality trait or
  // sizeof-based size pin.
  std::set<std::string> asserted;
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i]->kind != TokKind::Identifier || code[i]->text != "static_assert") continue;
    if (!next_is(ctx, i, "(")) continue;
    int depth = 0;
    bool qualifies = false;
    std::vector<std::string> mentioned;
    for (std::size_t j = i + 1; j < code.size(); ++j) {
      const Token& t = *code[j];
      if (t.kind == TokKind::Punct) {
        if (t.text == "(") ++depth;
        if (t.text == ")" && --depth == 0) break;
      }
      if (t.kind == TokKind::Identifier) {
        if (t.text.find("is_trivially_copyable") != std::string::npos || t.text == "sizeof")
          qualifies = true;
        mentioned.push_back(t.text);
      }
    }
    if (qualifies)
      for (const std::string& name : mentioned) asserted.insert(name);
  }

  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i]->kind != TokKind::Identifier || code[i]->text != "struct") continue;
    const Token& name = *code[i + 1];
    if (name.kind != TokKind::Identifier) continue;
    // Definition, not forward declaration: scan past a possible base-clause
    // to '{'; a ';' first means a declaration only.
    bool definition = false;
    for (std::size_t j = i + 2; j < code.size(); ++j) {
      const Token& t = *code[j];
      if (t.kind == TokKind::Punct && t.text == "{") {
        definition = true;
        break;
      }
      if (t.kind == TokKind::Punct && (t.text == ";" || t.text == "(")) break;
    }
    if (!definition || asserted.count(name.text)) continue;
    out.push_back({kPodAssert, name.line,
                   "struct " + name.text +
                       " in ckpt/ has no static_assert pinning its triviality/size; "
                       "snapshot-framed layouts must fail the build when they drift"});
  }
}

// ---------------------------------------------------------------------------
// Include closure (for visibility of unordered declarations across headers)

void closure_of(const std::string& rel, const std::map<std::string, SourceFile>& files,
                std::map<std::string, std::set<std::string>>& memo, std::set<std::string>& out,
                std::set<std::string>& visiting) {
  if (const auto it = memo.find(rel); it != memo.end()) {
    out.insert(it->second.begin(), it->second.end());
    return;
  }
  if (!visiting.insert(rel).second) return;  // include cycle — already on the path
  std::set<std::string> mine;
  const auto it = files.find(rel);
  if (it != files.end()) {
    for (const std::string& inc : it->second.includes) {
      if (!files.count(inc)) continue;
      mine.insert(inc);
      closure_of(inc, files, memo, mine, visiting);
    }
  }
  visiting.erase(rel);
  memo[rel] = mine;
  out.insert(mine.begin(), mine.end());
}

}  // namespace

std::string canonical_rule(const std::string& name) {
  static const std::map<std::string, std::string> names = {
      {"R1", kWallClock},      {"wall-clock", kWallClock},
      {"R2", kRawRng},         {"raw-rng", kRawRng},
      {"R3", kUnorderedIter},  {"unordered-iter", kUnorderedIter},
      {"R4", kPointerOrder},   {"pointer-order", kPointerOrder},
      {"R5", kRawBytes},       {"raw-bytes", kRawBytes},
      {"R6", kPodAssert},      {"pod-assert", kPodAssert}};
  const auto it = names.find(name);
  return it == names.end() ? std::string() : it->second;
}

LintResult run_rules(const std::map<std::string, SourceFile>& files) {
  LintResult result;
  result.files_scanned = static_cast<int>(files.size());
  const std::set<std::string> feeding = artifact_feeding_set(files);

  // Pass 1: lex-level context per file (annotations, unordered declarations).
  std::map<std::string, FileCtx> contexts;
  for (const auto& [rel, file] : files) {
    FileCtx& ctx = contexts[rel];
    ctx.file = &file;
    for (const Token& t : file.tokens)
      if (is_code(t)) ctx.code.push_back(&t);
    collect_annotations(ctx);
    collect_unordered_decls(ctx);
  }

  // Pass 2: rules + annotation resolution.
  std::map<std::string, std::set<std::string>> closure_memo;
  for (auto& [rel, ctx] : contexts) {
    std::vector<Finding> findings;
    rule_wall_clock(ctx, findings);
    rule_raw_rng(ctx, findings);
    rule_pointer_order(ctx, findings);
    rule_raw_bytes(ctx, findings);
    rule_pod_assert(ctx, findings);

    // R3 sees declarations from every header this file (transitively)
    // includes — the map a .cpp iterates is usually declared in its header.
    std::set<std::string> direct = ctx.unordered_direct;
    std::set<std::string> nested = ctx.unordered_nested;
    std::set<std::string> visible, visiting;
    closure_of(rel, files, closure_memo, visible, visiting);
    for (const std::string& inc : visible) {
      const FileCtx& other = contexts.at(inc);
      direct.insert(other.unordered_direct.begin(), other.unordered_direct.end());
      nested.insert(other.unordered_nested.begin(), other.unordered_nested.end());
    }
    rule_unordered_iter(ctx, direct, nested, feeding.count(rel) > 0, findings);

    for (Annotation& ann : ctx.annotations) {
      if (ann.malformed)
        result.violations.push_back({kBadAnnotation, rel, ann.line,
                                     "malformed dfly-lint annotation: " + ann.malformed_why});
    }
    for (const Finding& f : findings) {
      Annotation* match = nullptr;
      for (Annotation& ann : ctx.annotations) {
        if (ann.malformed || !ann.rules.count(f.rule)) continue;
        if (ann.line == f.line || ann.applies_line == f.line) {
          match = &ann;
          break;
        }
      }
      if (match) {
        match->used = true;
        result.exemptions.push_back({f.rule, rel, f.line, match->reason});
      } else {
        result.violations.push_back({f.rule, rel, f.line, f.message});
      }
    }
    for (const Annotation& ann : ctx.annotations) {
      if (!ann.malformed && !ann.used)
        result.violations.push_back(
            {kStaleAllow, rel, ann.line,
             "dfly-lint allow() annotation suppresses nothing — remove it (exemptions must "
             "not outlive the code they excuse)"});
    }
  }

  const auto order = [](const auto& a, const auto& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  };
  std::sort(result.violations.begin(), result.violations.end(), order);
  std::sort(result.exemptions.begin(), result.exemptions.end(), order);
  return result;
}

}  // namespace dfly::lint
