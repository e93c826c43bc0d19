// Golden-output test over the disk fixtures in testdata/, plus
// engine-level coverage: suppression parsing/partitioning and the disk
// walker's skip rules. The fixtures are stored flat; each is analyzed
// under a mapped repo-relative path so module policy applies.
#include "analysis/engine.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifndef PIGGYWEB_ANALYSIS_TESTDATA
#error "PIGGYWEB_ANALYSIS_TESTDATA must point at tests/analysis/testdata"
#endif

namespace piggyweb::analysis {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

fs::path testdata_dir() { return fs::path(PIGGYWEB_ANALYSIS_TESTDATA); }

// Fixture file -> the repo-relative path it is analyzed under. The
// mapping places each fixture in a module where its rule family is
// active (clean.cc doubles as the all-rules negative case).
struct FixtureMap {
  const char* fixture;
  const char* analyzed_path;
};
constexpr FixtureMap kFixtures[] = {
    {"atomic_mix.cc", "src/util/atomic_mix.cc"},
    {"clean.cc", "src/core/clean.cc"},
    {"contract_missing.h", "src/proxy/contract_missing.h"},
    {"det_banned.cc", "src/core/det_banned.cc"},
    {"det_unordered.cc", "src/sim/det_unordered.cc"},
    {"flatmap_unsafe.cc", "src/volume/flatmap_unsafe.cc"},
    {"guarded_state.cc", "src/util/guarded_state.cc"},
    {"helper.h", "src/util/helper.h"},
    {"missing_pragma.h", "src/core/missing_pragma.h"},
    {"os_call.cc", "src/trace/os_call.cc"},
    {"unused_include.cc", "tools/unused_include.cc"},
    {"view_after_advance.cc", "src/trace/view_after_advance.cc"},
};

TEST(AnalysisGolden, FixtureDiagnosticsMatchGoldenFile) {
  Project project;
  for (const auto& [fixture, analyzed_path] : kFixtures) {
    project.add_file(analyzed_path, read_file(testdata_dir() / fixture));
  }
  std::string actual;
  for (const auto& d : project.analyze()) {
    actual += format_diagnostic(d);
    actual += '\n';
  }
  // Refresh the golden file after an intentional rule change with:
  //   PIGGYWEB_REGEN_GOLDEN=1 ./tests_analysis
  // then review the diff by hand before committing it.
  if (::getenv("PIGGYWEB_REGEN_GOLDEN") != nullptr) {
    std::ofstream(testdata_dir() / "golden.txt", std::ios::binary) << actual;
    GTEST_SKIP() << "regenerated golden.txt";
  }
  const std::string expected = read_file(testdata_dir() / "golden.txt");
  EXPECT_EQ(actual, expected);
}

TEST(AnalysisGolden, CleanFixtureAloneProducesNothing) {
  Project project;
  project.add_file("src/core/clean.cc", read_file(testdata_dir() / "clean.cc"));
  EXPECT_TRUE(project.analyze().empty());
}

TEST(AnalysisSuppressions, ParseAcceptsFileAndLineForms) {
  std::vector<std::string> errors;
  const auto entries = parse_suppressions(
      "# legacy findings\n"
      "\n"
      "det-banned-call src/http/clock.cc\n"
      "hdr-unused-include src/trace/record.h:12\n",
      errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (Suppression{"det-banned-call", "src/http/clock.cc", 0}));
  EXPECT_EQ(entries[1],
            (Suppression{"hdr-unused-include", "src/trace/record.h", 12}));
}

TEST(AnalysisSuppressions, MalformedLinesAreReportedNotDropped) {
  std::vector<std::string> errors;
  const auto entries = parse_suppressions("just-one-field\n", errors);
  EXPECT_TRUE(entries.empty());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("line 1"), std::string::npos);
}

// A throwaway on-disk tree for the walker/suppression tests.
class TempTree {
 public:
  TempTree() {
    root_ = fs::path(::testing::TempDir()) /
            ("piggyweb_lint_" + std::to_string(::getpid()));
    fs::remove_all(root_);
  }
  ~TempTree() { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    const fs::path full = root_ / rel;
    fs::create_directories(full.parent_path());
    std::ofstream(full, std::ios::binary) << text;
  }

  std::string root() const { return root_.string(); }

 private:
  fs::path root_;
};

TEST(AnalysisEngine, SuppressionMovesFindingAside) {
  TempTree tree;
  tree.write("src/core/bad.cc", "int f() { return rand(); }\n");

  AnalyzeOptions options;
  options.root = tree.root();
  options.subdirs = {"src"};

  // Unsuppressed: one live finding.
  auto result = analyze_tree(options);
  EXPECT_EQ(result.files_scanned, 1u);
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].rule, "det-banned-call");
  EXPECT_TRUE(result.suppressed.empty());

  // Suppressed: the finding is partitioned aside, not deleted.
  options.suppressions = {{"det-banned-call", "src/core/bad.cc", 0}};
  result = analyze_tree(options);
  EXPECT_TRUE(result.diagnostics.empty());
  ASSERT_EQ(result.suppressed.size(), 1u);
  EXPECT_EQ(result.suppressed[0].rule, "det-banned-call");

  // A suppression pinned to the wrong line does not match.
  options.suppressions = {{"det-banned-call", "src/core/bad.cc", 999}};
  result = analyze_tree(options);
  EXPECT_EQ(result.diagnostics.size(), 1u);
  EXPECT_TRUE(result.suppressed.empty());
}

TEST(AnalysisEngine, WalkerSkipsTestdataAndBuildDirectories) {
  TempTree tree;
  tree.write("src/core/ok.cc", "int g_x = 0;\n");
  tree.write("src/core/testdata/fixture.cc", "int f() { return rand(); }\n");
  tree.write("src/build-tmp/gen.cc", "int f() { return rand(); }\n");
  tree.write("src/core/notes.txt", "not C++\n");

  AnalyzeOptions options;
  options.root = tree.root();
  options.subdirs = {"src"};
  EXPECT_EQ(collect_tree(options),
            (std::vector<std::string>{"src/core/ok.cc"}));
  EXPECT_TRUE(analyze_tree(options).diagnostics.empty());
}

}  // namespace
}  // namespace piggyweb::analysis
