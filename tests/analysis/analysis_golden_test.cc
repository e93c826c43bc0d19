// Golden-output test over the disk fixtures in testdata/, plus
// engine-level coverage: the disk walker's skip rules and its refusal
// of a subdirectory list that scans nothing. The fixtures are stored
// flat; each is analyzed under a mapped repo-relative path so module
// policy applies.
#include "analysis/engine.h"

#include <unistd.h>

#include <algorithm>
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
    {"clean.cc", "src/core/clean.cc"},
    {"det_banned.cc", "src/core/det_banned.cc"},
    {"det_unordered.cc", "src/sim/det_unordered.cc"},
    {"flatmap_unsafe.cc", "src/volume/flatmap_unsafe.cc"},
    {"os_call.cc", "src/trace/os_call.cc"},
    {"view_after_advance.cc", "src/trace/view_after_advance.cc"},
};

TEST(AnalysisGolden, FixtureDiagnosticsMatchGoldenFile) {
  std::vector<Diagnostic> diagnostics;
  for (const auto& [fixture, analyzed_path] : kFixtures) {
    analyze_file(analyzed_path, read_file(testdata_dir() / fixture),
                 diagnostics);
  }
  std::sort(diagnostics.begin(), diagnostics.end(), diagnostic_less);
  std::string actual;
  for (const auto& d : diagnostics) {
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
  std::vector<Diagnostic> diagnostics;
  analyze_file("src/core/clean.cc", read_file(testdata_dir() / "clean.cc"),
               diagnostics);
  EXPECT_TRUE(diagnostics.empty());
}

// A throwaway on-disk tree for the walker tests.
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

TEST(AnalysisEngine, WalkerSkipsTestdataAndBuildDirectories) {
  TempTree tree;
  tree.write("src/core/ok.cc", "int g_x = 0;\n");
  tree.write("src/core/testdata/fixture.cc", "int f() { return rand(); }\n");
  tree.write("src/build-tmp/gen.cc", "int f() { return rand(); }\n");
  tree.write("src/core/notes.txt", "not C++\n");

  AnalyzeOptions options;
  options.root = tree.root();
  options.subdirs = {"src"};
  std::vector<std::string> errors;
  EXPECT_EQ(collect_tree(options, errors),
            (std::vector<std::string>{"src/core/ok.cc"}));
  EXPECT_TRUE(errors.empty());
  const auto result = analyze_tree(options);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(result.files_scanned, 1u);
  EXPECT_TRUE(result.diagnostics.empty());
}

// A subdirectory that is not there is an error, not an empty tree: a
// lint gate that scanned nothing must not pass. Neither does an empty
// subdirectory list, or a subdirectory with no .h/.cc file in it. No
// findings are reported.
TEST(AnalysisEngine, MissingSubdirectoryIsAnError) {
  TempTree tree;
  tree.write("src/core/bad.cc", "int f() { return rand(); }\n");
  tree.write("docs/notes.txt", "not C++\n");

  AnalyzeOptions options;
  options.root = tree.root();
  const auto expect_refused = [&](std::vector<std::string> subdirs,
                                  const std::string& error) {
    options.subdirs = std::move(subdirs);
    const auto result = analyze_tree(options);
    ASSERT_EQ(result.errors.size(), 1u);
    EXPECT_NE(result.errors[0].find(error), std::string::npos)
        << result.errors[0];
    EXPECT_EQ(result.files_scanned, 0u);
    EXPECT_TRUE(result.diagnostics.empty());
  };
  expect_refused({"src", "srcc"}, "srcc: not a directory");
  expect_refused({}, "no subdirectory to scan");
  expect_refused({"src", "docs"}, "docs: no .h or .cc file to scan");
}

}  // namespace
}  // namespace piggyweb::analysis
