// Targeted rule-engine tests over inline snippets. Each case runs every
// rule over one snippet with analyze_file() and checks which rules fire
// (and, as importantly, which don't). The disk fixtures under testdata/
// pin the full diagnostic text; these pin the decision logic.
#include "analysis/rules.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/engine.h"
#include "util/rng.h"

namespace piggyweb::analysis {
namespace {

std::vector<std::string> rules_fired(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const auto& d : diags) out.push_back(d.rule);
  return out;
}

std::vector<Diagnostic> analyze_one(std::string path, std::string text) {
  std::vector<Diagnostic> out;
  analyze_file(std::move(path), std::move(text), out);
  std::sort(out.begin(), out.end(), diagnostic_less);
  return out;
}

TEST(AnalysisRules, BannedCallFlaggedInHotModule) {
  const auto diags = analyze_one("src/sim/a.cc", "int f() { return rand(); }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "det-banned-call");
  EXPECT_EQ(diags[0].line, 1u);
}

TEST(AnalysisRules, BannedCallExemptInRngTimeAndObs) {
  EXPECT_TRUE(analyze_one("src/util/rng.cc",
                          "int f() { return rand(); }\n")
                  .empty());
  EXPECT_TRUE(analyze_one("src/obs/clock.cc",
                          "long f() { return time(nullptr); }\n")
                  .empty());
}

TEST(AnalysisRules, BannedNamesInsideStringsAndCommentsAreInvisible) {
  const auto diags = analyze_one(
      "src/core/a.cc",
      "// rand() time() std::unordered_map\n"
      "const char* kDoc = \"call rand() for chaos\";\n");
  EXPECT_TRUE(diags.empty());
}

TEST(AnalysisRules, MemberNamedTimeIsNotABannedCall) {
  const auto diags = analyze_one(
      "src/core/a.cc", "long f(const W& w) { return w.time(); }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(AnalysisRules, DeclaringAFunctionNamedLikeABannedCallIsFine) {
  const auto diags = analyze_one(
      "src/core/a.cc",
      "struct Stopwatch {\n"
      "  long time() const { return 0; }\n"
      "  util::Seconds clock() const;\n"
      "};\n");
  EXPECT_TRUE(diags.empty());
}

TEST(AnalysisRules, MmapConfinedToMmapFile) {
  const std::string raw =
      "#include <sys/mman.h>\n"
      "void* f(int fd, unsigned long n) {\n"
      "  return mmap(nullptr, n, 1, 2, fd, 0);\n"
      "}\n";
  const auto diags = analyze_one("src/trace/a.cc", raw);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "os-call-confined");
  EXPECT_EQ(diags[0].line, 3u);
  // The one allowed home: the RAII wrapper itself.
  EXPECT_TRUE(analyze_one("src/util/mmap_file.cc", raw).empty());
  // Applies to benches and tests too — no cold-module exemption.
  EXPECT_EQ(rules_fired(analyze_one("bench/a.cc",
                                    "void f(void* p) { munmap(p, 4); }\n")),
            (std::vector<std::string>{"os-call-confined"}));
  EXPECT_EQ(rules_fired(analyze_one(
                "tests/a_test.cc",
                "void f(void* p) { madvise(p, 4, 1); }\n")),
            (std::vector<std::string>{"os-call-confined"}));
}

TEST(AnalysisRules, MmapNamesInDeclarationsAndMembersAreFine) {
  const auto diags = analyze_one(
      "src/util/mmap_file.h",
      "#pragma once\n"
      "struct MmapFile { void* mmap(int fd); };\n");
  EXPECT_TRUE(diags.empty());
  // A member call named like the syscall is the wrapper, not the syscall.
  EXPECT_TRUE(analyze_one("src/trace/a.cc",
                          "void* f(W& w, int fd) { return w.mmap(fd); }\n")
                  .empty());
}

TEST(AnalysisRules, UnorderedContainerOnlyFlaggedWhereFlatMapMandated) {
  const std::string decl =
      "#include <unordered_map>\n"
      "std::unordered_map<unsigned, int> table;\n";
  EXPECT_EQ(rules_fired(analyze_one("src/sim/a.cc", decl)),
            (std::vector<std::string>{"det-unordered-container"}));
  EXPECT_EQ(rules_fired(analyze_one("src/server/a.cc", decl)),
            (std::vector<std::string>{"det-unordered-container"}));
  // trace is a cold module: allowlisted as a module, not per-site.
  EXPECT_TRUE(analyze_one("src/trace/a.cc", decl).empty());
  EXPECT_TRUE(analyze_one("tests/a_test.cc", decl).empty());
}

TEST(AnalysisRules, UnorderedIterationIntoOrderedSink) {
  const std::string feeding =
      "#include <unordered_map>\n"
      "#include <vector>\n"
      "std::vector<int> f(const std::unordered_map<unsigned, int>& m) {\n"
      "  std::vector<int> out;\n"
      "  for (const auto& [k, v] : m) { out.push_back(v); }\n"
      "  return out;\n"
      "}\n";
  // In a cold module the container itself is allowed, but hash-order
  // output is still a determinism bug.
  EXPECT_EQ(rules_fired(analyze_one("src/trace/a.cc", feeding)),
            (std::vector<std::string>{"det-unordered-iteration"}));
  const std::string summing =
      "#include <unordered_map>\n"
      "int f(const std::unordered_map<unsigned, int>& m) {\n"
      "  int total = 0;\n"
      "  for (const auto& [k, v] : m) { total ^= v; }\n"
      "  return total;\n"
      "}\n";
  EXPECT_TRUE(analyze_one("src/trace/a.cc", summing).empty());
}

TEST(AnalysisRules, FlatMapIteratorInvalidation) {
  const std::string bad =
      "#include \"util/flat_map.h\"\n"
      "unsigned f(util::FlatMap<unsigned, unsigned>& m) {\n"
      "  auto it = m.find(1);\n"
      "  m.insert({2, 2});\n"
      "  return it->second;\n"
      "}\n";
  const auto diags = analyze_one("src/core/a.cc", bad);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "flatmap-ref-after-mutate");
  EXPECT_EQ(diags[0].line, 5u);
}

TEST(AnalysisRules, FlatMapOwnCallResultIsSafe) {
  const std::string good =
      "#include \"util/flat_map.h\"\n"
      "unsigned f(util::FlatMap<unsigned, unsigned>& m) {\n"
      "  auto [it, inserted] = m.try_emplace(1, 0u);\n"
      "  return it->second;\n"
      "}\n";
  EXPECT_TRUE(analyze_one("src/core/a.cc", good).empty());
}

TEST(AnalysisRules, FlatMapDistinctReceiversDoNotCrossInvalidate) {
  const std::string two_maps =
      "#include \"util/flat_map.h\"\n"
      "unsigned f(util::FlatMap<unsigned, unsigned>& left,\n"
      "           util::FlatMap<unsigned, unsigned>& right) {\n"
      "  auto it = left.find(1);\n"
      "  right.insert({2, 2});\n"
      "  return it->second;\n"
      "}\n";
  EXPECT_TRUE(analyze_one("src/core/a.cc", two_maps).empty());
}

TEST(AnalysisRules, FlatMapMutationInsideRangeFor) {
  const std::string bad =
      "#include \"util/flat_map.h\"\n"
      "void f(util::FlatMap<unsigned, unsigned>& m) {\n"
      "  for (const auto& [k, v] : m) {\n"
      "    if (v == 0) { m.erase(k); }\n"
      "  }\n"
      "}\n";
  const auto diags = analyze_one("src/core/a.cc", bad);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "flatmap-ref-after-mutate");
  EXPECT_EQ(diags[0].line, 4u);
}

TEST(AnalysisRules, TraceWindowSpanUsedAfterNextWindow) {
  const std::string bad =
      "#include \"trace/stream.h\"\n"
      "unsigned long f(trace::TraceView& view) {\n"
      "  auto w = view.window(16);\n"
      "  auto w2 = view.window(16);\n"
      "  return w.size() + w2.size();\n"
      "}\n";
  const auto diags = analyze_one("src/trace/a.cc", bad);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "view-after-advance");
  EXPECT_EQ(diags[0].line, 5u);
  const std::string good =
      "#include \"trace/stream.h\"\n"
      "unsigned long f(trace::TraceView& view) {\n"
      "  unsigned long total = 0;\n"
      "  auto w = view.window(16);\n"
      "  total += w.size();\n"
      "  w = view.window(16);\n"
      "  total += w.size();\n"
      "  return total;\n"
      "}\n";
  EXPECT_TRUE(analyze_one("src/trace/a.cc", good).empty());
}

TEST(AnalysisRules, InternTableViewsStaleAfterIntern) {
  const std::string bad =
      "#include \"util/intern.h\"\n"
      "unsigned long f(util::InternTable& table) {\n"
      "  auto views = table.views();\n"
      "  table.intern(\"x\");\n"
      "  return views.size();\n"
      "}\n";
  const auto diags = analyze_one("src/core/a.cc", bad);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "view-after-advance");
  EXPECT_EQ(diags[0].line, 5u);
}

// Differential check of the shared invalidation core against a direct
// reference oracle of the original flatmap rule's semantics: a binding
// taken from an accessor goes stale at the first subsequent mutation,
// and every later use of it is one diagnostic at the use line. Random
// straight-line programs, deterministic seed.
TEST(AnalysisRules, FlatMapRuleMatchesReferenceOracleOnRandomPrograms) {
  util::Rng rng(0x5eed0001u);
  for (int trial = 0; trial < 200; ++trial) {
    struct Binding {
      std::size_t line;
      bool used;
    };
    std::string body;
    std::vector<std::size_t> mutations;
    std::vector<Binding> bindings;
    std::vector<std::size_t> expected;
    std::size_t line = 3;  // body statements start after the signature
    const auto statements = 4 + rng.below(8);
    for (std::uint64_t s = 0; s < statements; ++s, ++line) {
      switch (rng.below(3)) {
        case 0:
          body += "  auto b" + std::to_string(bindings.size()) +
                  " = m.find(" + std::to_string(rng.below(9)) + ");\n";
          bindings.push_back({line, false});
          break;
        case 1:
          body += "  m.insert({" + std::to_string(rng.below(9)) + ", 1});\n";
          mutations.push_back(line);
          break;
        default: {
          std::vector<std::size_t> fresh;
          for (std::size_t b = 0; b < bindings.size(); ++b) {
            if (!bindings[b].used) fresh.push_back(b);
          }
          if (fresh.empty()) {
            body += "  touch();\n";
            break;
          }
          const auto pick = fresh[rng.below(fresh.size())];
          bindings[pick].used = true;
          body += "  use(b" + std::to_string(pick) + "->second);\n";
          for (const auto mutation : mutations) {
            if (mutation > bindings[pick].line) {
              expected.push_back(line);
              break;
            }
          }
          break;
        }
      }
    }
    const std::string text =
        "#include \"util/flat_map.h\"\n"
        "void f(util::FlatMap<unsigned, unsigned>& m) {\n" +
        body + "}\n";
    const auto diags = analyze_one("src/core/random.cc", text);
    std::vector<std::size_t> actual;
    for (const auto& d : diags) {
      ASSERT_EQ(d.rule, "flatmap-ref-after-mutate") << text;
      actual.push_back(d.line);
    }
    EXPECT_EQ(actual, expected) << "trial " << trial << "\n" << text;
  }
}

TEST(AnalysisRules, RuleCatalogCoversEveryEmittedRule) {
  const auto& catalog = rule_catalog();
  EXPECT_EQ(catalog.size(), 6u);
  for (const auto& rule : catalog) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.summary.empty());
  }
}

}  // namespace
}  // namespace piggyweb::analysis
