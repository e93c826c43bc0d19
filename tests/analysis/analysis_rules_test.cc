// Targeted rule-engine tests over inline snippets. Each case builds a
// tiny Project, runs analyze(), and checks which rules fire (and, as
// importantly, which don't). The disk fixtures under testdata/ pin the
// full diagnostic text; these pin the decision logic.
#include "analysis/rules.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/project.h"
#include "util/rng.h"

namespace piggyweb::analysis {
namespace {

std::vector<std::string> rules_fired(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const auto& d : diags) out.push_back(d.rule);
  return out;
}

std::vector<Diagnostic> analyze_one(std::string path, std::string text) {
  Project project;
  project.add_file(std::move(path), std::move(text));
  return project.analyze();
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

TEST(AnalysisRules, ContractRequiredOnlyForPublicHotFunctions) {
  const std::string missing =
      "#pragma once\n"
      "void seek(std::size_t offset) { use(offset); }\n";
  EXPECT_EQ(rules_fired(analyze_one("src/volume/a.h", missing)),
            (std::vector<std::string>{"contract-missing-expect"}));
  // Cold module: no contract requirement.
  EXPECT_TRUE(analyze_one("src/http/a.h", missing).empty());
  const std::string checked =
      "#pragma once\n"
      "void seek(std::size_t offset) {\n"
      "  PW_EXPECT_BOUNDS(offset, limit());\n"
      "  use(offset);\n"
      "}\n";
  EXPECT_TRUE(analyze_one("src/volume/a.h", checked).empty());
  const std::string non_index =
      "#pragma once\n"
      "void scale(double factor) { use(factor); }\n";
  EXPECT_TRUE(analyze_one("src/volume/a.h", non_index).empty());
}

TEST(AnalysisRules, PragmaOnceRequiredInHeaders) {
  EXPECT_EQ(rules_fired(analyze_one("src/core/a.h", "struct A {};\n")),
            (std::vector<std::string>{"hdr-pragma-once"}));
  EXPECT_TRUE(
      analyze_one("src/core/a.h", "#pragma once\nstruct A {};\n").empty());
  // A leading comment is fine; tokens start at the pragma.
  EXPECT_TRUE(analyze_one("src/core/a.h",
                          "// banner\n#pragma once\nstruct A {};\n")
                  .empty());
  // .cc files have no pragma requirement.
  EXPECT_TRUE(analyze_one("src/core/a.cc", "struct A {};\n").empty());
}

TEST(AnalysisRules, UnusedProjectIncludeUsesTransitiveSymbols) {
  Project project;
  project.add_file("src/util/base.h", "#pragma once\nstruct Base {};\n");
  project.add_file("src/util/wrap.h",
                   "#pragma once\n#include \"util/base.h\"\n"
                   "struct Wrap { Base base; };\n");
  // Uses Base only — provided transitively through wrap.h, so the
  // include is counted as used.
  project.add_file("src/core/user.cc",
                   "#include \"util/wrap.h\"\nBase g_base;\n");
  // Never references anything from wrap.h's tree.
  project.add_file("src/core/dead.cc",
                   "#include \"util/wrap.h\"\nint g_x = 0;\n");
  std::vector<std::string> fired;
  for (const auto& d : project.analyze()) {
    fired.push_back(d.file + ":" + d.rule);
  }
  EXPECT_EQ(fired,
            (std::vector<std::string>{"src/core/dead.cc:hdr-unused-include"}));
}

TEST(AnalysisRules, UnknownSystemHeadersAreNeverFlagged) {
  EXPECT_TRUE(analyze_one("src/core/a.cc",
                          "#include <sys/obscure_platform.h>\nint g_x = 0;\n")
                  .empty());
}

TEST(AnalysisRules, ConcurrencyHeadersKnowTheirSymbols) {
  // Each include is justified by a symbol the table must know about;
  // a gap would misreport the include as unused.
  EXPECT_TRUE(analyze_one(
                  "src/core/a.cc",
                  "#include <shared_mutex>\n"
                  "std::shared_mutex g_lock;\n"
                  "long f(long x) { std::shared_lock lock(g_lock);"
                  " return x; }\n")
                  .empty());
  EXPECT_TRUE(analyze_one(
                  "src/core/b.cc",
                  "#include <atomic>\n"
                  "void f(std::atomic<long>& a) {"
                  " a.fetch_add(1, std::memory_order_acq_rel); }\n")
                  .empty());
  EXPECT_TRUE(analyze_one(
                  "src/core/c.cc",
                  "#include <mutex>\n"
                  "void f(std::mutex& m) {"
                  " std::unique_lock<std::mutex> l(m, std::try_to_lock); }\n")
                  .empty());
  EXPECT_TRUE(analyze_one(
                  "src/core/d.cc",
                  "#include <span>\n"
                  "long f(std::span<const long> s) { return s[0]; }\n")
                  .empty());
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
  EXPECT_EQ(catalog.size(), 9u);
  for (const auto& rule : catalog) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.summary.empty());
  }
}

}  // namespace
}  // namespace piggyweb::analysis
