#include "obs/manifest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/registry.h"

namespace piggyweb::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(Manifest, BuildAndValidate) {
  Registry registry;
  registry.counter("eval.requests").add(5);
  auto extra = Json::object();
  extra.set("note", "hello");
  const auto manifest = build_run_manifest("unit", {"--scale=1"}, 1.5, 1.4,
                                           registry, extra);
  EXPECT_EQ(manifest.find("piggyweb_manifest")->number(), 1);
  EXPECT_EQ(manifest.find("name")->string(), "unit");
  EXPECT_EQ(manifest.find("argv")->items().size(), 1u);
  EXPECT_EQ(manifest.find("wall_seconds")->number(), 1.5);
  EXPECT_EQ(manifest.find("note")->string(), "hello");
  ASSERT_NE(manifest.find("metrics"), nullptr);

  std::vector<std::string> problems;
  EXPECT_TRUE(validate_run_manifest(manifest, problems));
  EXPECT_TRUE(problems.empty());
}

TEST(Manifest, ValidateRejectsMissingSections) {
  std::vector<std::string> problems;
  EXPECT_FALSE(validate_run_manifest(Json::object(), problems));
  EXPECT_FALSE(problems.empty());

  auto bad = Json::object();
  bad.set("piggyweb_manifest", 2);  // wrong version
  bad.set("name", "x");
  problems.clear();
  EXPECT_FALSE(validate_run_manifest(bad, problems));
}

TEST(Manifest, SchemaRoundTrip) {
  Registry registry;
  registry.counter("c").add(3);
  registry.gauge("g").set(2.5);
  registry.log_histogram("h").record(0.3);
  const auto manifest = build_run_manifest(
      "roundtrip", {"--a=1", "--b=2"}, 0.25, 0.25, registry, Json::object());
  const auto reparsed = parse_json(manifest.dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(*reparsed == manifest);
  EXPECT_EQ(reparsed->dump(2), manifest.dump(2));
}

TEST(RunScope, WritesManifestAndTraceAndInstallsGlobals) {
  const auto metrics_path = temp_path("runscope-manifest.json");
  const auto trace_path = temp_path("runscope-trace.json");
  {
    RunScope::Options options;
    options.run_name = "scope-test";
    options.metrics_path = metrics_path;
    options.trace_path = trace_path;
    options.argv = {"--flag=1"};
    RunScope scope(std::move(options));
    ASSERT_EQ(global_metrics(), &scope.registry());
    ASSERT_EQ(global_tracer(), &scope.tracer());
    global_metrics()->counter("eval.requests").add(7);
    { OBS_SPAN("unit.span"); }
    scope.note("extra_section", Json("ok"));
  }
  // Destruction uninstalls the globals and writes both artifacts.
  EXPECT_EQ(global_metrics(), nullptr);
  EXPECT_EQ(global_tracer(), nullptr);

  const auto manifest = parse_json(read_file(metrics_path));
  ASSERT_TRUE(manifest.has_value());
  std::vector<std::string> problems;
  EXPECT_TRUE(validate_run_manifest(*manifest, problems))
      << (problems.empty() ? "" : problems.front());
  EXPECT_EQ(manifest->find("name")->string(), "scope-test");
  EXPECT_EQ(manifest->find("extra_section")->string(), "ok");

  const auto trace = parse_json(read_file(trace_path));
  ASSERT_TRUE(trace.has_value());
  ASSERT_NE(trace->find("traceEvents"), nullptr);
  EXPECT_EQ(trace->find("traceEvents")->items().size(), 1u);

  std::remove(metrics_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(RunScope, MetricsOnlySkipsTraceFile) {
  const auto metrics_path = temp_path("runscope-metrics-only.json");
  const auto trace_path = temp_path("runscope-no-trace.json");
  {
    RunScope::Options options;
    options.run_name = "metrics-only";
    options.metrics_path = metrics_path;
    RunScope scope(std::move(options));
    EXPECT_NE(global_metrics(), nullptr);
    EXPECT_EQ(global_tracer(), nullptr);  // tracing not requested
  }
  EXPECT_TRUE(parse_json(read_file(metrics_path)).has_value());
  std::ifstream trace_file(trace_path);
  EXPECT_FALSE(trace_file.good());
  std::remove(metrics_path.c_str());
}

// A manifest that checkpointed (or resumed from) a snapshot records the
// file path and whole-file checksum under "snapshots"; the validator pins
// the schema so piggyweb_tracecheck can verify checksums against disk.
Json valid_manifest_base() {
  Registry registry;
  registry.counter("eval.requests").add(1);
  return build_run_manifest("snap", {}, 0.1, 0.1, registry, Json::object());
}

Json snapshot_entry(const char* path, const char* checksum) {
  auto entry = Json::object();
  entry.set("path", path);
  entry.set("fnv1a", checksum);
  return entry;
}

TEST(Manifest, ValidSnapshotsSectionPasses) {
  auto manifest = valid_manifest_base();
  auto snapshots = Json::object();
  snapshots.set("loaded", snapshot_entry("ckpt.snap", "0x0123456789abcdef"));
  snapshots.set("saved", snapshot_entry("out.snap", "0xdeadbeef00000000"));
  manifest.set("snapshots", snapshots);

  std::vector<std::string> problems;
  EXPECT_TRUE(validate_run_manifest(manifest, problems));
  EXPECT_TRUE(problems.empty());
}

TEST(Manifest, SnapshotsSectionIsOptional) {
  std::vector<std::string> problems;
  EXPECT_TRUE(validate_run_manifest(valid_manifest_base(), problems));
}

TEST(Manifest, SnapshotsRejectsUnknownRole) {
  auto manifest = valid_manifest_base();
  auto snapshots = Json::object();
  snapshots.set("checkpointed", snapshot_entry("x.snap", "0x0000000000000000"));
  manifest.set("snapshots", snapshots);
  std::vector<std::string> problems;
  EXPECT_FALSE(validate_run_manifest(manifest, problems));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("saved/loaded"), std::string::npos);
}

TEST(Manifest, SnapshotsRejectsMissingPathAndBadChecksum) {
  auto manifest = valid_manifest_base();
  auto snapshots = Json::object();
  auto entry = Json::object();
  entry.set("fnv1a", "0xNOTHEX0000000000");  // bad hex and no path
  snapshots.set("saved", entry);
  manifest.set("snapshots", snapshots);
  std::vector<std::string> problems;
  EXPECT_FALSE(validate_run_manifest(manifest, problems));
  EXPECT_EQ(problems.size(), 2u);

  // Uppercase hex and wrong lengths are also rejected — the writer emits
  // exactly "0x" + 16 lowercase digits.
  for (const char* bad : {"0XABCDEF0123456789", "0xABCDEF0123456789",
                          "0x123", "deadbeefdeadbeef", ""}) {
    auto m = valid_manifest_base();
    auto s = Json::object();
    s.set("saved", snapshot_entry("x.snap", bad));
    m.set("snapshots", s);
    problems.clear();
    EXPECT_FALSE(validate_run_manifest(m, problems)) << bad;
  }
}

TEST(Manifest, SnapshotsRejectsNonObjectShapes) {
  auto manifest = valid_manifest_base();
  manifest.set("snapshots", Json("not an object"));
  std::vector<std::string> problems;
  EXPECT_FALSE(validate_run_manifest(manifest, problems));

  auto nested = valid_manifest_base();
  auto snapshots = Json::object();
  snapshots.set("saved", Json(42.0));
  nested.set("snapshots", snapshots);
  problems.clear();
  EXPECT_FALSE(validate_run_manifest(nested, problems));
}

TEST(RunScope, FinishIsIdempotent) {
  const auto metrics_path = temp_path("runscope-finish.json");
  RunScope::Options options;
  options.run_name = "finish";
  options.metrics_path = metrics_path;
  RunScope scope(std::move(options));
  EXPECT_TRUE(scope.finish());
  EXPECT_TRUE(scope.finish());  // second call: no rewrite, still true
  EXPECT_EQ(global_metrics(), nullptr);
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace piggyweb::obs
