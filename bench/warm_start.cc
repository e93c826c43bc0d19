// Warm-start benchmark: what a durable snapshot buys at restart.
//
// A proxy cache restarted cold re-learns its working set from scratch —
// the hit rate climbs from zero toward Che's steady-state prediction over
// tens of thousands of requests. A cache restored from a snapshot starts
// *at* steady state. This binary measures both recovery curves over the
// same seeded Zipf stream, plus the snapshot costs (bytes, serialize /
// restore wall time), and emits the committed artifact:
//
//   warm_start [--json=BENCH_warm_start.json] [--quick]
//              [--metrics-out=FILE]
//
// What to look for: the restored curve is flat at the steady-state hit
// ratio from the first window, the cold curve approaches it from below,
// and both converge — the asymptote is a property of the stream, the
// head start is the snapshot's value.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "persist/codec.h"
#include "persist/state_access.h"
#include "proxy/cache.h"
#include "sim/steady_state.h"
#include "util/rng.h"

using namespace piggyweb;

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

bool flag_present(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

struct CurvePoint {
  std::size_t window_end = 0;  // requests into the measurement stream
  double cold = 0;             // windowed hit rate, cold start
  double restored = 0;         // windowed hit rate, snapshot restore
};

proxy::CacheConfig cache_config(std::uint64_t capacity) {
  proxy::CacheConfig config;
  config.capacity_bytes = capacity;  // unit-size objects: capacity in objects
  config.freshness_interval = std::int64_t{1} << 40;
  config.policy = proxy::ReplacementPolicy::kLru;
  return config;
}

// One lookup/insert step of the IRM stream; returns true on a hit.
bool step(proxy::ProxyCache& cache, std::uint64_t rank, std::int64_t tick) {
  const proxy::CacheKey key{1, static_cast<util::InternId>(rank)};
  const util::TimePoint now{tick};
  if (cache.lookup(key, now) == proxy::LookupOutcome::kMiss) {
    cache.insert(key, 1, /*last_modified=*/0, now);
    return false;
  }
  return true;
}

struct ScenarioResult {
  std::size_t catalog = 0;
  double skew = 0;
  std::uint64_t capacity = 0;
  double steady_state_prediction = 0;
  std::uint64_t snapshot_bytes = 0;
  double serialize_seconds = 0;
  double restore_seconds = 0;
  double cold_first_window = 0;
  double restored_first_window = 0;
  std::vector<CurvePoint> curve;
};

ScenarioResult run_scenario(std::size_t catalog, double skew,
                            std::uint64_t capacity, std::size_t warmup,
                            std::size_t measured, std::size_t window) {
  ScenarioResult result;
  result.catalog = catalog;
  result.skew = skew;
  result.capacity = capacity;
  result.steady_state_prediction = sim::zipf_lru_hit_ratio(
      catalog, skew, static_cast<double>(capacity));

  const util::ZipfSampler zipf(catalog, skew);

  // Reach steady state, snapshot, and restore into a fresh cache — the
  // "process restarted with durable state" path.
  proxy::ProxyCache steady(cache_config(capacity));
  util::Rng warm_rng(0x77a2 + capacity);
  for (std::size_t i = 0; i < warmup; ++i) {
    step(steady, zipf(warm_rng), static_cast<std::int64_t>(i));
  }

  auto start = now_seconds();
  persist::ByteWriter writer;
  persist::StateAccess::serialize_proxy_cache(steady, writer);
  const auto bytes = writer.take();
  result.serialize_seconds = now_seconds() - start;
  result.snapshot_bytes = bytes.size();

  proxy::ProxyCache restored(cache_config(capacity));
  start = now_seconds();
  persist::ByteReader reader(bytes);
  std::string error;
  if (!persist::StateAccess::deserialize_proxy_cache(reader, restored,
                                                     error)) {
    std::fprintf(stderr, "restore failed: %s\n", error.c_str());
    return result;
  }
  result.restore_seconds = now_seconds() - start;

  // Race a cold cache against the restored one over the same stream.
  proxy::ProxyCache cold(cache_config(capacity));
  util::Rng measure_rng(0x5eed + capacity);
  std::uint64_t cold_hits = 0;
  std::uint64_t restored_hits = 0;
  for (std::size_t i = 0; i < measured; ++i) {
    const auto rank = zipf(measure_rng);
    const auto tick = static_cast<std::int64_t>(warmup + i);
    if (step(cold, rank, tick)) ++cold_hits;
    if (step(restored, rank, tick)) ++restored_hits;
    if ((i + 1) % window == 0) {
      CurvePoint point;
      point.window_end = i + 1;
      point.cold = static_cast<double>(cold_hits) /
                   static_cast<double>(window);
      point.restored = static_cast<double>(restored_hits) /
                       static_cast<double>(window);
      result.curve.push_back(point);
      cold_hits = 0;
      restored_hits = 0;
    }
  }
  if (!result.curve.empty()) {
    result.cold_first_window = result.curve.front().cold;
    result.restored_first_window = result.curve.front().restored;
  }
  return result;
}

obs::Json scenario_json(const ScenarioResult& r) {
  auto json = obs::Json::object();
  json.set("catalog", static_cast<std::uint64_t>(r.catalog));
  json.set("zipf_skew", r.skew);
  json.set("capacity_objects", r.capacity);
  json.set("steady_state_prediction", r.steady_state_prediction);
  json.set("snapshot_bytes", r.snapshot_bytes);
  json.set("serialize_seconds", r.serialize_seconds);
  json.set("restore_seconds", r.restore_seconds);
  json.set("cold_first_window_hit_rate", r.cold_first_window);
  json.set("restored_first_window_hit_rate", r.restored_first_window);
  auto curve = obs::Json::array();
  for (const auto& point : r.curve) {
    auto row = obs::Json::object();
    row.set("window_end", static_cast<std::uint64_t>(point.window_end));
    row.set("cold", point.cold);
    row.set("restored", point.restored);
    curve.push_back(row);
  }
  json.set("curve", curve);
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Observability obs("warm_start", argc, argv);
  const auto json_path = bench::json_arg(argc, argv);
  const bool quick = flag_present(argc, argv, "--quick");

  const std::size_t warmup = quick ? 20'000 : 200'000;
  const std::size_t measured = quick ? 20'000 : 100'000;
  const std::size_t window = quick ? 2'000 : 5'000;

  struct Shape {
    std::size_t catalog;
    double skew;
    std::uint64_t capacity;
  };
  const std::vector<Shape> shapes = {
      {20'000, 0.8, 500},
      {20'000, 0.8, 2'000},
      {20'000, 1.0, 2'000},
  };

  auto report = obs::Json::object();
  report.set("benchmark", "warm_start");
  report.set("quick", quick);
  report.set("warmup_requests", static_cast<std::uint64_t>(warmup));
  report.set("measured_requests", static_cast<std::uint64_t>(measured));
  report.set("window_requests", static_cast<std::uint64_t>(window));
  auto scenarios = obs::Json::array();

  std::printf(
      "warm-start recovery: windowed hit rate, cold vs snapshot-restored\n"
      "(prediction = Che steady state; restored should start there,\n"
      " cold should climb toward it)\n\n");
  for (const auto& shape : shapes) {
    const auto result = run_scenario(shape.catalog, shape.skew,
                                     shape.capacity, warmup, measured,
                                     window);
    scenarios.push_back(scenario_json(result));
    std::printf(
        "catalog=%zu skew=%.1f capacity=%llu  predicted=%.3f  "
        "first window: cold=%.3f restored=%.3f  snapshot=%llu bytes "
        "(ser %.1f ms, restore %.1f ms)\n",
        result.catalog, result.skew,
        static_cast<unsigned long long>(result.capacity),
        result.steady_state_prediction, result.cold_first_window,
        result.restored_first_window,
        static_cast<unsigned long long>(result.snapshot_bytes),
        result.serialize_seconds * 1e3, result.restore_seconds * 1e3);
  }
  report.set("scenarios", scenarios);

  if (obs.enabled()) obs.note("warm_start", report);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << report.dump(2) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
