// dfly_lint unit tests: lexer behavior, each determinism rule (R1-R6) with
// positive and negative fixtures, annotation parsing and its failure modes,
// module allowlist boundaries, include-graph propagation, and the lint.json
// schema. Fixtures are in-memory sources so each case documents exactly the
// code shape it exercises.
#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "lint/lexer.hpp"
#include "lint/linter.hpp"

namespace dfly::lint {
namespace {

LintResult lint_one(const std::string& rel, const std::string& content) {
  return lint_sources({{rel, content}});
}

int count_rule(const LintResult& r, const std::string& rule) {
  return static_cast<int>(
      std::count_if(r.violations.begin(), r.violations.end(),
                    [&](const Violation& v) { return v.rule == rule; }));
}

// ---------------------------------------------------------------------------
// Lexer

TEST(LintLexer, CommentsAndStringsAreNotIdentifiers) {
  const auto toks = tokenize(
      "int x; // steady_clock in a comment\n"
      "const char* s = \"system_clock\";\n"
      "/* rand() in a block comment */\n");
  for (const Token& t : toks) {
    if (t.kind == TokKind::Identifier) {
      EXPECT_NE(t.text, "steady_clock");
      EXPECT_NE(t.text, "system_clock");
      EXPECT_NE(t.text, "rand");
    }
  }
}

TEST(LintLexer, RawStringsAreSingleTokens) {
  const auto toks = tokenize("auto s = R\"(rand() \" system_clock)\";\nint after;");
  int strings = 0;
  for (const Token& t : toks)
    if (t.kind == TokKind::String) ++strings;
  EXPECT_EQ(strings, 1);
  // The identifier after the raw string still lexes with a correct line.
  const auto it = std::find_if(toks.begin(), toks.end(),
                               [](const Token& t) { return t.text == "after"; });
  ASSERT_NE(it, toks.end());
  EXPECT_EQ(it->line, 2);
}

TEST(LintLexer, LineNumbersSurviveBlockComments) {
  const auto toks = tokenize("/* line one\nline two */\nint x;");
  const auto it =
      std::find_if(toks.begin(), toks.end(), [](const Token& t) { return t.text == "x"; });
  ASSERT_NE(it, toks.end());
  EXPECT_EQ(it->line, 3);
}

TEST(LintLexer, PreprocessorLinesAreOneToken) {
  const auto toks = tokenize("#include \"sim/engine.hpp\"\nint x;");
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, TokKind::Pp);
  const auto incs = quoted_includes(toks);
  ASSERT_EQ(incs.size(), 1u);
  EXPECT_EQ(incs[0], "sim/engine.hpp");
}

TEST(LintLexer, DigitSeparatorsAreOneNumber) {
  const auto toks = tokenize("auto n = 100'000'000;");
  const auto it = std::find_if(toks.begin(), toks.end(),
                               [](const Token& t) { return t.kind == TokKind::Number; });
  ASSERT_NE(it, toks.end());
  EXPECT_EQ(it->text, "100'000'000");
}

// ---------------------------------------------------------------------------
// R1 wall-clock

TEST(LintWallClock, FlagsClockReadInSimModule) {
  const auto r = lint_one("sim/engine.cpp", "auto t = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(count_rule(r, "wall-clock"), 1);
}

TEST(LintWallClock, AllowsClockReadOnlyInProf) {
  EXPECT_TRUE(lint_one("prof/profiler.cpp", "auto t = std::chrono::steady_clock::now();\n").clean());
  EXPECT_EQ(count_rule(lint_one("core/run_matrix.cpp", "gettimeofday(&tv, nullptr);\n"),
                       "wall-clock"),
            1);
}

TEST(LintWallClock, FlagsTimeCallButNotLongerIdentifiers) {
  EXPECT_EQ(count_rule(lint_one("net/network.cpp", "auto t = time(nullptr);\n"), "wall-clock"), 1);
  // transfer_time( is a different identifier; hop.time is a member access.
  EXPECT_TRUE(lint_one("net/network.cpp",
                       "auto t = units::transfer_time(b, bw);\nauto u = hop.time;\n")
                  .clean());
  EXPECT_TRUE(lint_one("net/network.cpp", "auto v = msg.time();\n").clean());
}

TEST(LintWallClock, IgnoresCommentsAndStrings) {
  EXPECT_TRUE(lint_one("sim/engine.cpp",
                       "// steady_clock would be wrong here\n"
                       "const char* why = \"no system_clock\";\n")
                  .clean());
}

// ---------------------------------------------------------------------------
// R2 raw-rng

TEST(LintRawRng, FlagsCRandAndStdEngines) {
  EXPECT_EQ(count_rule(lint_one("place/placement.cpp", "int r = rand() % 6;\n"), "raw-rng"), 1);
  EXPECT_EQ(count_rule(lint_one("workload/synthetic.cpp", "std::mt19937 gen(42);\n"), "raw-rng"),
            1);
  EXPECT_EQ(count_rule(lint_one("util/rng.cpp", "std::random_device rd;\n"), "raw-rng"), 1);
}

TEST(LintRawRng, AllowsSeededRngStreams) {
  EXPECT_TRUE(lint_one("routing/adaptive.cpp", "Rng rng = Rng(seed).fork(3);\n").clean());
}

// ---------------------------------------------------------------------------
// R3 unordered-iter (artifact-feeding scope + include graph)

constexpr const char* kIterOverMember =
    "#include \"sim/table.hpp\"\n"
    "void f(Table& t) { for (const auto& [k, v] : t.index) use(k, v); }\n";
constexpr const char* kUnorderedHeader =
    "#include <unordered_map>\n"
    "struct Table { std::unordered_map<int, int> index; };\n";

TEST(LintUnorderedIter, FlagsRangeForInArtifactModule) {
  const auto r = lint_sources({{"sim/table.hpp", kUnorderedHeader},
                               {"sim/user.cpp", kIterOverMember}});
  EXPECT_EQ(count_rule(r, "unordered-iter"), 1);
}

TEST(LintUnorderedIter, IgnoresModulesOutsideArtifactClosure) {
  // Same code in workload/, with nothing in an artifact module including it.
  const auto r = lint_sources(
      {{"workload/table.hpp", kUnorderedHeader},
       {"workload/user.cpp",
        "#include \"workload/table.hpp\"\n"
        "void f(Table& t) { for (const auto& [k, v] : t.index) use(k, v); }\n"}});
  EXPECT_TRUE(r.clean());
}

TEST(LintUnorderedIter, IncludeGraphPullsHeadersIntoScope) {
  // workload/table.hpp is not in an artifact directory, but net/ includes it,
  // so its implementation file feeds artifacts and is checked.
  const auto r = lint_sources(
      {{"workload/table.hpp", kUnorderedHeader},
       {"workload/table.cpp",
        "#include \"workload/table.hpp\"\n"
        "int g(Table& t) { int s = 0; for (const auto& [k, v] : t.index) s += v; return s; }\n"},
       {"net/network.cpp", "#include \"workload/table.hpp\"\nvoid net_use(Table&);\n"}});
  EXPECT_EQ(count_rule(r, "unordered-iter"), 1);
}

TEST(LintUnorderedIter, NestedContainerFlagsElementAccessOnly) {
  const std::string decl =
      "#include <unordered_map>\n"
      "#include <vector>\n"
      "struct Rows { std::vector<std::unordered_map<int, long>> rows_; };\n";
  // Iterating the outer vector is ordered and fine.
  EXPECT_TRUE(lint_sources({{"metrics/rows.hpp", decl},
                            {"metrics/a.cpp",
                             "#include \"metrics/rows.hpp\"\n"
                             "int f(Rows& r) { int n = 0; for (const auto& row : r.rows_) "
                             "n += row.size(); return n; }\n"}})
                  .clean());
  // Iterating one element reaches the unordered payload.
  const auto r = lint_sources({{"metrics/rows.hpp", decl},
                               {"metrics/b.cpp",
                                "#include \"metrics/rows.hpp\"\n"
                                "int f(Rows& r) { int n = 0; for (const auto& [k, v] : "
                                "r.rows_[0]) n += v; return n; }\n"}});
  EXPECT_EQ(count_rule(r, "unordered-iter"), 1);
}

TEST(LintUnorderedIter, FindAndEndAreNotIteration) {
  const auto r = lint_sources(
      {{"obs/t.hpp", "#include <unordered_map>\nstruct S { std::unordered_map<int,int> m; };\n"},
       {"obs/t.cpp",
        "#include \"obs/t.hpp\"\n"
        "bool has(S& s, int k) { return s.m.find(k) != s.m.end(); }\n"}});
  EXPECT_TRUE(r.clean());
}

TEST(LintUnorderedIter, ExplicitBeginIsIteration) {
  const auto r = lint_sources(
      {{"obs/t.hpp", "#include <unordered_map>\nstruct S { std::unordered_map<int,int> m; };\n"},
       {"obs/t.cpp",
        "#include \"obs/t.hpp\"\n"
        "auto first(S& s) { return *s.m.begin(); }\n"}});
  EXPECT_EQ(count_rule(r, "unordered-iter"), 1);
}

// ---------------------------------------------------------------------------
// R4 pointer-order

TEST(LintPointerOrder, FlagsPointerKeys) {
  EXPECT_EQ(count_rule(lint_one("routing/t.hpp", "std::map<Router*, int> by_ptr;\n"),
                       "pointer-order"),
            1);
  EXPECT_EQ(count_rule(lint_one("sim/t.hpp", "std::unordered_set<Event*> live;\n"),
                       "pointer-order"),
            1);
  EXPECT_EQ(count_rule(lint_one("sim/t.hpp", "using H = std::hash<Node*>;\n"), "pointer-order"),
            1);
}

TEST(LintPointerOrder, AllowsValueKeysPointerValuesAndCustomComparators) {
  EXPECT_TRUE(lint_one("routing/t.hpp", "std::map<int, Router*> by_id;\n").clean());
  EXPECT_TRUE(lint_one("sim/t.hpp", "std::map<Router*, int, ByStableId> ordered;\n").clean());
  EXPECT_TRUE(lint_one("sim/t.hpp", "std::set<std::pair<int, long>> keys;\n").clean());
}

TEST(LintPointerOrder, UnqualifiedMapComparisonDoesNotFire) {
  EXPECT_TRUE(lint_one("sim/t.cpp", "int map = 1; if (map < 3) map = 2;\n").clean());
}

// ---------------------------------------------------------------------------
// R5 raw-bytes

TEST(LintRawBytes, ConfinedToSnapshotIoAndJson) {
  EXPECT_EQ(count_rule(lint_one("net/wire.cpp",
                                "void f(char* d, const void* s) { memcpy(d, s, 8); }\n"),
                       "raw-bytes"),
            1);
  EXPECT_EQ(
      count_rule(lint_one("sim/engine.cpp", "auto* p = reinterpret_cast<char*>(&x);\n"),
                 "raw-bytes"),
      1);
  EXPECT_TRUE(lint_one("ckpt/snapshot_io.cpp", "auto* p = reinterpret_cast<char*>(&x);\n").clean());
  EXPECT_TRUE(lint_one("obs/json.cpp", "memcpy(buf, src, n);\n").clean());
}

// ---------------------------------------------------------------------------
// R6 pod-assert

TEST(LintPodAssert, CkptStructNeedsAssert) {
  EXPECT_EQ(count_rule(lint_one("ckpt/frame.hpp", "struct Frame { int a; long b; };\n"),
                       "pod-assert"),
            1);
}

TEST(LintPodAssert, TrivialityOrSizeAssertSatisfies) {
  EXPECT_TRUE(lint_one("ckpt/frame.hpp",
                       "struct Frame { int a; long b; };\n"
                       "static_assert(std::is_trivially_copyable_v<Frame>);\n")
                  .clean());
  EXPECT_TRUE(lint_one("ckpt/frame.hpp",
                       "struct Frame { int a; long b; };\n"
                       "static_assert(sizeof(Frame) == 16, \"layout pinned\");\n")
                  .clean());
}

TEST(LintPodAssert, ForwardDeclarationsAndOtherModulesExempt) {
  EXPECT_TRUE(lint_one("ckpt/fwd.hpp", "struct Frame;\n").clean());
  EXPECT_TRUE(lint_one("net/frame.hpp", "struct Frame { int a; };\n").clean());
}

// ---------------------------------------------------------------------------
// Annotations

TEST(LintAnnotations, SameLineSuppressesAndRecordsExemption) {
  const auto r = lint_one(
      "sim/engine.cpp",
      "auto t = time(nullptr); // dfly-lint: allow(wall-clock) reason=test fixture clock\n");
  EXPECT_TRUE(r.clean());
  ASSERT_EQ(r.exemptions.size(), 1u);
  EXPECT_EQ(r.exemptions[0].rule, "wall-clock");
  EXPECT_EQ(r.exemptions[0].reason, "test fixture clock");
}

TEST(LintAnnotations, PrecedingLineSuppresses) {
  const auto r = lint_one("sim/engine.cpp",
                          "// dfly-lint: allow(wall-clock) reason=measured outside sim state\n"
                          "auto t = time(nullptr);\n");
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.exemptions.size(), 1u);
}

TEST(LintAnnotations, RuleAliasR1Works) {
  const auto r = lint_one("sim/engine.cpp",
                          "auto t = time(nullptr); // dfly-lint: allow(R1) reason=alias check\n");
  EXPECT_TRUE(r.clean());
  ASSERT_EQ(r.exemptions.size(), 1u);
  EXPECT_EQ(r.exemptions[0].rule, "wall-clock");
}

TEST(LintAnnotations, MissingReasonIsViolation) {
  const auto r =
      lint_one("sim/engine.cpp", "auto t = time(nullptr); // dfly-lint: allow(wall-clock)\n");
  EXPECT_EQ(count_rule(r, "bad-annotation"), 1);
  EXPECT_EQ(count_rule(r, "wall-clock"), 1);  // a broken annotation suppresses nothing
}

TEST(LintAnnotations, UnknownRuleIsViolation) {
  const auto r = lint_one("sim/engine.cpp", "// dfly-lint: allow(no-such-rule) reason=typo\n");
  EXPECT_EQ(count_rule(r, "bad-annotation"), 1);
}

TEST(LintAnnotations, StaleAllowIsViolation) {
  const auto r = lint_one("sim/engine.cpp",
                          "// dfly-lint: allow(wall-clock) reason=nothing here needs it\n"
                          "int x = 1;\n");
  EXPECT_EQ(count_rule(r, "stale-allow"), 1);
}

TEST(LintAnnotations, WrongRuleDoesNotSuppress) {
  const auto r = lint_one(
      "sim/engine.cpp",
      "auto t = time(nullptr); // dfly-lint: allow(raw-rng) reason=wrong rule name\n");
  EXPECT_EQ(count_rule(r, "wall-clock"), 1);
  EXPECT_EQ(count_rule(r, "stale-allow"), 1);
}

TEST(LintAnnotations, ProseMentionDoesNotParse) {
  // A comment that merely talks about "dfly-lint: allow(...)" mid-sentence
  // (like this suite's own documentation) must not register an annotation.
  const auto r = lint_one("sim/engine.cpp",
                          "// suppress via `// dfly-lint: allow(wall-clock) reason=...` syntax\n"
                          "int x = 1;\n");
  EXPECT_TRUE(r.clean());
}

// ---------------------------------------------------------------------------
// lint.json schema

TEST(LintJson, SchemaFieldsAndCounts) {
  const auto r = lint_one("sim/engine.cpp",
                          "auto t = std::chrono::steady_clock::now();\n"
                          "int r = rand() % 2; // dfly-lint: allow(raw-rng) reason=fixture\n");
  std::ostringstream os;
  write_lint_json(r, "src", os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"root\": \"src\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"violation_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"exemption_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"wall-clock\""), std::string::npos);
  EXPECT_NE(json.find("\"raw-rng\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"fixture\""), std::string::npos);
  // Balanced document: last char of the payload is the root object's brace.
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json[json.size() - 2], '}');
}

TEST(LintJson, StableBytesAcrossRuns) {
  const std::vector<MemSource> sources = {
      {"sim/a.cpp", "auto t = time(nullptr);\nint r = rand();\n"},
      {"net/b.cpp", "auto* p = reinterpret_cast<char*>(&t);\n"}};
  std::ostringstream a, b;
  write_lint_json(lint_sources(sources), "src", a);
  write_lint_json(lint_sources(sources), "src", b);
  EXPECT_EQ(a.str(), b.str());
}

// ---------------------------------------------------------------------------
// Whole-tree invariant: the shipped source stays lint-clean, and every
// exemption carries a reason (run_rules enforces reasons at parse time, so
// here it suffices that violations are zero).

TEST(LintTree, CanonicalRuleNames) {
  EXPECT_EQ(canonical_rule("R3"), "unordered-iter");
  EXPECT_EQ(canonical_rule("unordered-iter"), "unordered-iter");
  EXPECT_EQ(canonical_rule("bogus"), "");
}

}  // namespace
}  // namespace dfly::lint
