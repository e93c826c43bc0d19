// piggyweb benchmark binary. Two subcommands, both run by run.py:
//
//   perfbench gen --workload=W --seed=N --size=full|small --dir=D
//       Generates the workload's input from the seed and writes it to D
//       (a PIGGYTRC container for dir_server, CLF text for prob_server)
//       together with descriptor.json, the generator's view of the input.
//       engine_tree keeps its input in memory and writes only the
//       descriptor.
//
//   perfbench run --workload=W --seed=N --size=full|small --dir=D
//                 --seconds=S --trace=0|1 [--spans=FILE]
//       Sets the workload up from D, measures it for about S seconds and
//       prints one JSON object: end-to-end metrics (--trace=0) or the
//       per-layer ledger (--trace=1), the output digest, the descriptor
//       and every output check with its outcome.
//
// All measurement happens here, around calls into the public entry points
// of src/trace, src/server, src/volume, src/core and src/sim; nothing in
// src/ is instrumented for the benchmark. See README.md for the workloads
// and the layer -> metric -> workload map.
#include <malloc.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/filter.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "server/meta.h"
#include "sim/engine.h"
#include "sim/eval_core.h"
#include "sim/parallel_eval.h"
#include "sim/prediction_eval.h"
#include "sim/topology.h"
#include "trace/binary.h"
#include "trace/clf.h"
#include "trace/profiles.h"
#include "trace/source.h"
#include "trace/stream.h"
#include "util/hash.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

using namespace piggyweb;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Worker threads for the t4 figures: min(4, hardware threads).
std::size_t bench_threads() {
  return std::min<std::size_t>(4, util::ThreadPool::hardware_threads());
}

// Feeds the whole view to fn in bounded windows, as the tools' streaming
// passes do.
template <typename Fn>
void for_each_window(trace::TraceView& view, Fn&& fn) {
  constexpr std::size_t kWindow = std::size_t{1} << 16;
  const auto total = view.request_count();
  for (std::size_t base = 0; base < total; base += kWindow) {
    fn(view.window(base, std::min(kWindow, total - base)));
  }
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kDirServer, kProbServer, kEngineTree };

struct WorkloadDef {
  const char* name;
  Kind kind;
  const char* profile;
  double full_scale;
  double small_scale;
};

constexpr WorkloadDef kWorkloads[] = {
    {"dir_server", Kind::kDirServer, "sun", 0.03, 0.004},
    {"prob_server", Kind::kProbServer, "sun", 0.06, 0.004},
    {"engine_tree", Kind::kEngineTree, "att_client", 0.1, 0.02},
};

const WorkloadDef* find_workload(std::string_view name) {
  for (const auto& def : kWorkloads) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

// The profile's own seed fixes the sites and a client population twice the
// workload's size; the benchmark seed draws which half of the clients the
// input holds. Every seed gives a different request stream over the same
// site structure, so throughput does not hinge on one draw of a site tree
// (a level-1 sun site has only a handful of directory volumes).
trace::SyntheticWorkload generate_workload(const WorkloadDef& def, bool small,
                                           std::uint64_t seed) {
  const double scale = small ? def.small_scale : def.full_scale;
  auto workload =
      trace::generate(*trace::profile_by_name(def.profile, 2 * scale));
  // Re-interned, so the string tables hold only what the drawn half uses,
  // as in a log of those clients alone.
  trace::Trace drawn;
  const auto& full = workload.trace;
  for (const auto& req : full.requests()) {
    if (util::hash_combine(seed, req.source) % 2 != 0) continue;
    drawn.add(req.time, full.sources().str(req.source),
              full.servers().str(req.server), full.paths().str(req.path),
              req.method, req.status, req.size, req.last_modified);
  }
  workload.trace = std::move(drawn);
  return workload;
}

// Replay configuration per workload (the engine_tree ledger replays its
// client trace with the dir_server settings).
struct ReplayConfig {
  sim::EvalConfig eval;
  bool probability = false;
  volume::DirectoryVolumeConfig dvc;
  volume::PairCounterConfig pcc;
  volume::ProbabilityVolumeConfig pvc;
  std::uint64_t min_count = 10;
};

ReplayConfig replay_config(Kind kind) {
  ReplayConfig cfg;
  cfg.eval.filter.max_elements = 20;
  cfg.dvc.level = 1;
  cfg.pcc.window = cfg.eval.prediction_window;
  cfg.pvc.probability_threshold = 0.2;
  cfg.pvc.effectiveness_threshold = 0.2;
  cfg.pvc.window = cfg.eval.prediction_window;
  if (kind == Kind::kProbServer) {
    cfg.probability = true;
  } else {
    cfg.eval.use_rpv = true;
    cfg.eval.rpv.timeout = 30;
    cfg.eval.min_piggyback_interval = 15;
  }
  return cfg;
}

sim::Topology engine_topology() {
  sim::UniformTreeSpec spec;
  spec.depth = 2;
  spec.fanout = 4;
  spec.leaf_cache.capacity_bytes = 2ULL * 1024 * 1024;
  spec.leaf_cache.freshness_interval = 2 * util::kHour;
  spec.root_cache.capacity_bytes = 32ULL * 1024 * 1024;
  spec.root_cache.freshness_interval = 2 * util::kHour;
  spec.base_filter.max_elements = 20;
  spec.rpv.timeout = 60;
  spec.origin_link = net::NetworkConfig{};
  return sim::uniform_tree_topology(spec);
}

sim::EngineConfig engine_config() {
  sim::EngineConfig config;
  config.volumes.level = 1;
  return config;
}

// ---------------------------------------------------------------------------
// Input descriptor: what a workload's input contains. The generator writes
// it; the run recomputes it from what the program actually received.

struct Descriptor {
  std::uint64_t requests = 0;
  std::uint64_t sources = 0;
  std::uint64_t servers = 0;
  std::uint64_t paths = 0;
  std::uint64_t level1_volumes = 0;

  static constexpr const char* kFields[] = {"requests", "sources", "servers",
                                            "paths", "level1_volumes"};
  std::uint64_t field(std::size_t i) const {
    const std::uint64_t values[] = {requests, sources, servers, paths,
                                    level1_volumes};
    return values[i];
  }

  obs::Json to_json() const {
    auto json = obs::Json::object();
    for (std::size_t i = 0; i < std::size(kFields); ++i) {
      json.set(kFields[i], field(i));
    }
    return json;
  }
};

Descriptor describe(trace::TraceView& view) {
  const auto paths = view.paths();
  std::vector<bool> source_seen(view.sources().size());
  std::vector<bool> server_seen(view.servers().size());
  std::vector<bool> path_seen(paths.size());
  std::unordered_map<std::string_view, std::uint32_t> prefix_ids;
  std::vector<std::uint32_t> prefix_of(paths.size(), 0xffffffffu);
  std::unordered_set<std::uint64_t> volumes;

  Descriptor d;
  d.requests = view.request_count();
  for_each_window(view, [&](std::span<const trace::Request> window) {
    for (const auto& req : window) {
      source_seen[req.source] = true;
      server_seen[req.server] = true;
      path_seen[req.path] = true;
      auto& prefix = prefix_of[req.path];
      if (prefix == 0xffffffffu) {
        const auto text = util::directory_prefix(paths.str(req.path), 1);
        prefix = prefix_ids
                     .try_emplace(text,
                                  static_cast<std::uint32_t>(prefix_ids.size()))
                     .first->second;
      }
      volumes.insert((static_cast<std::uint64_t>(req.server) << 32) | prefix);
    }
  });
  const auto count = [](const std::vector<bool>& seen) {
    return static_cast<std::uint64_t>(
        std::count(seen.begin(), seen.end(), true));
  };
  d.sources = count(source_seen);
  d.servers = count(server_seen);
  d.paths = count(path_seen);
  d.level1_volumes = volumes.size();
  return d;
}

std::optional<Descriptor> read_descriptor(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto json = obs::parse_json(text);
  if (!json || !json->is_object()) return std::nullopt;
  Descriptor d;
  std::uint64_t* fields[] = {&d.requests, &d.sources, &d.servers, &d.paths,
                             &d.level1_volumes};
  for (std::size_t i = 0; i < std::size(Descriptor::kFields); ++i) {
    const auto* value = json->find(Descriptor::kFields[i]);
    if (value == nullptr || !value->is_number()) return std::nullopt;
    *fields[i] = static_cast<std::uint64_t>(value->number());
  }
  return d;
}

// ---------------------------------------------------------------------------
// Output checks and digests

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) failures_.push_back(what);
  }

  obs::Json to_json() const {
    auto json = obs::Json::object();
    json.set("attempted", attempted_);
    json.set("failed", static_cast<std::uint64_t>(failures_.size()));
    auto list = obs::Json::array();
    for (const auto& f : failures_) list.push_back(obs::Json(f));
    json.set("failures", std::move(list));
    return json;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
};

void check_descriptor(Checks& checks, const Descriptor& generated,
                      const Descriptor& received) {
  for (std::size_t i = 0; i < std::size(Descriptor::kFields); ++i) {
    checks.expect(generated.field(i) == received.field(i),
                  std::string("descriptor.") + Descriptor::kFields[i] +
                      ": generated " + std::to_string(generated.field(i)) +
                      ", received " + std::to_string(received.field(i)));
  }
}

class Digest {
 public:
  Digest& add(std::uint64_t v) {
    h_ = util::hash_combine(h_, v);
    return *this;
  }
  Digest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = util::kFnvOffset;
};

std::uint64_t digest_of(const sim::EvalResult& r) {
  return Digest()
      .add(r.requests)
      .add(r.predicted_requests)
      .add(r.piggyback_messages)
      .add(r.piggyback_elements)
      .add(r.predictions_made)
      .add(r.predictions_true)
      .add(r.prev_occurrence_within_horizon)
      .add(r.prev_occurrence_within_window)
      .add(r.updated_by_piggyback)
      .value();
}

std::uint64_t digest_of(const sim::EngineResult& r) {
  Digest d;
  d.add(r.client_requests)
      .add(r.unresolved)
      .add(r.server_contacts)
      .add(r.validations)
      .add(r.validations_not_modified)
      .add(r.stale_served)
      .add(r.piggyback_bytes)
      .add(r.body_bytes)
      .add(r.total_packets)
      .add(r.user_latency_sum)
      .add(r.prefetch_latency_sum)
      .add(r.center.exchanges_observed)
      .add(r.center.piggybacks_injected)
      .add(r.center.elements_injected)
      .add(static_cast<std::uint64_t>(r.center.servers_tracked))
      .add(r.connections.opened)
      .add(r.connections.reused);
  for (const auto& node : r.nodes) {
    d.add(node.cache.lookups)
        .add(node.cache.fresh_hits)
        .add(node.cache.stale_hits)
        .add(node.cache.misses)
        .add(node.cache.insertions)
        .add(node.cache.evictions)
        .add(node.cache.piggyback_refreshes)
        .add(node.cache.piggyback_invalidations)
        .add(node.coherency.piggybacks_processed)
        .add(node.coherency.elements_processed)
        .add(node.coherency.refreshed)
        .add(node.coherency.invalidated)
        .add(node.coherency.not_cached)
        .add(node.fresh_hits_served)
        .add(node.stale_served)
        .add(node.validations)
        .add(node.validations_not_modified)
        .add(node.upstream_fetches);
  }
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory during a traced run, written out as Chrome trace
// events when it ends.

class SpanLog {
 public:
  static constexpr std::size_t kRoot = 0;

  SpanLog() : origin_(Clock::now()) {
    spans_.push_back({"run", origin_, origin_, kRoot});
  }

  std::size_t open(std::string name, std::size_t parent = kRoot) {
    const auto now = Clock::now();
    spans_.push_back({std::move(name), now, now, parent});
    return spans_.size() - 1;
  }
  void close(std::size_t id) { spans_[id].end = Clock::now(); }
  void add(std::string name, Clock::time_point start, Clock::time_point end,
           std::size_t parent) {
    spans_.push_back({std::move(name), start, end, parent});
  }

  bool write(const std::string& path) {
    spans_[kRoot].end = Clock::now();
    auto events = obs::Json::array();
    for (std::size_t id = 0; id < spans_.size(); ++id) {
      const auto& s = spans_[id];
      auto event = obs::Json::object();
      event.set("name", s.name);
      event.set("ph", "X");
      event.set("pid", 1);
      event.set("tid", 1);
      event.set("ts", 1e6 * between(origin_, s.start));
      event.set("dur", 1e6 * between(s.start, s.end));
      auto args = obs::Json::object();
      args.set("id", static_cast<std::uint64_t>(id));
      args.set("parent", static_cast<std::uint64_t>(s.parent));
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
    auto doc = obs::Json::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    std::size_t parent;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Replay set-up: a trace view, its meta oracle, trained volumes (probability
// scheme) and the shard spec, with each phase timed.

struct Training {
  volume::ProbabilityVolumeSet set;
  std::uint64_t pairs = 0;
  double pairs_s = 0;
  double build_s = 0;
};

Training train_probability(trace::TraceView& view, const ReplayConfig& cfg) {
  Training t;
  auto start = Clock::now();
  volume::PairObservations observations;
  for_each_window(view, [&](std::span<const trace::Request> window) {
    observations.observe_window(window);
  });
  const auto counts = volume::PairCounterBuilder(cfg.pcc).build(
      observations, view.paths(), cfg.min_count);
  t.pairs = counts.counter_count();
  t.pairs_s = since(start);
  start = Clock::now();
  t.set = volume::build_probability_volumes(view, counts, cfg.pvc);
  t.build_s = since(start);
  return t;
}

struct Prepared {
  ReplayConfig cfg;
  std::unique_ptr<trace::TraceView> view;
  std::uint64_t input_bytes = 0;
  server::TraceMetaOracle meta;
  Training training;
  sim::ShardedProviderSpec spec;
  double open_s = 0, meta_s = 0, spec_s = 0;

  double setup_s() const {
    return open_s + meta_s + training.pairs_s + training.build_s + spec_s;
  }

  std::unique_ptr<core::VolumeProvider> make_provider() const {
    if (cfg.probability) {
      return std::make_unique<volume::ProbabilityVolumes>(
          &training.set, cfg.pvc.max_candidates);
    }
    auto volumes = std::make_unique<volume::DirectoryVolumes>(cfg.dvc);
    volumes->bind_paths(view->paths());
    return volumes;
  }
};

// Everything after the trace is open: meta oracle, training, shard spec.
// The result is heap-held because the spec borrows from it.
void finish_setup(Prepared& p) {
  auto start = Clock::now();
  for_each_window(*p.view, [&](std::span<const trace::Request> window) {
    p.meta.observe_window(window, p.view->paths());
  });
  p.meta_s = since(start);
  if (p.cfg.probability) p.training = train_probability(*p.view, p.cfg);
  start = Clock::now();
  p.spec = p.cfg.probability
               ? sim::shard_probability_volumes(&p.training.set,
                                                p.cfg.pvc.max_candidates)
               : sim::shard_directory_volumes(p.cfg.dvc, p.view->paths());
  p.spec_s = since(start);
}

// Opens the workload's on-disk input (dir_server: stream the PIGGYTRC
// container; prob_server: parse the CLF text) and finishes set-up.
std::unique_ptr<Prepared> prepare_from_disk(Kind kind, const std::string& dir,
                                            std::string& error) {
  auto p = std::make_unique<Prepared>();
  p->cfg = replay_config(kind);
  const auto start = Clock::now();
  std::string path;
  if (kind == Kind::kDirServer) {
    path = dir + "/input.trc";
    p->view = trace::StreamingTraceSource::open(path, error);
    if (p->view == nullptr) return nullptr;
  } else {
    path = dir + "/input.log";
    trace::TraceSourceOptions options;
    options.format = trace::TraceFormat::kClf;
    options.clf.drop_uncachable = false;  // keep every generated request
    trace::Trace loaded;
    trace::TraceLoadStats stats;
    if (!trace::load_trace(path, options, loaded, stats, error)) {
      return nullptr;
    }
    p->view = std::make_unique<trace::MaterializedTraceView>(std::move(loaded));
  }
  p->open_s = since(start);
  p->input_bytes = std::filesystem::file_size(path);
  finish_setup(*p);
  return p;
}

// engine_tree's ledger input: the in-memory client trace, wrapped in place.
std::unique_ptr<Prepared> prepare_in_memory(const trace::Trace& trace) {
  auto p = std::make_unique<Prepared>();
  p->cfg = replay_config(Kind::kEngineTree);
  const auto start = Clock::now();
  p->view = std::make_unique<trace::MaterializedTraceView>(trace);
  p->open_s = since(start);
  std::uint64_t bytes = trace.size() * sizeof(trace::Request);
  for (const auto* table : {&trace.sources(), &trace.servers(), &trace.paths()}) {
    for (const auto s : util::StringTableView(*table).views()) bytes += s.size();
  }
  p->input_bytes = bytes;
  finish_setup(*p);
  return p;
}

// ---------------------------------------------------------------------------
// Replays

sim::EvalResult replay_t1(Prepared& p, double& seconds,
                          std::size_t* volume_count = nullptr) {
  auto provider = p.make_provider();
  const auto start = Clock::now();
  auto result = sim::PredictionEvaluator(p.cfg.eval)
                    .run(*p.view, *provider, p.meta);
  seconds = since(start);
  if (volume_count != nullptr) *volume_count = provider->volume_count();
  return result;
}

sim::EvalResult replay_t4(Prepared& p, double& seconds) {
  sim::ParallelEvalConfig par;
  par.threads = bench_threads();
  const auto start = Clock::now();
  auto result =
      sim::ParallelEvaluator(p.cfg.eval, par).run(*p.view, p.spec, p.meta);
  seconds = since(start);
  return result;
}

// Forwards to the real oracle and counts the filter's probes.
class CountingMeta final : public core::MetaOracle {
 public:
  explicit CountingMeta(const core::MetaOracle& inner) : inner_(&inner) {}
  core::ResourceMeta lookup(util::InternId server,
                            util::InternId resource) const override {
    ++lookups_;
    return inner_->lookup(server, resource);
  }
  std::uint64_t lookups() const { return lookups_; }

 private:
  const core::MetaOracle* inner_;
  mutable std::uint64_t lookups_ = 0;
};

// Per-layer time and work, summed over ledger replays.
struct Ledger {
  std::uint64_t replays = 0;
  std::uint64_t requests = 0;
  double wall_s = 0;
  double trace_s = 0, volume_s = 0, filter_s = 0, accumulate_s = 0;
  std::uint64_t candidates = 0, lookups = 0, kept = 0;
  std::uint64_t volume_count = 0;

  double other_s() const {
    return wall_s - trace_s - volume_s - filter_s - accumulate_s;
  }
};

// The evaluator's batch loop, driven from here with a timer around each
// layer call: TraceView::window -> VolumeProvider::on_request_batch ->
// core::apply_filter_into -> MetricAccumulator::observe. Filtering a whole
// batch before accounting it reorders nothing the result depends on (the
// filter reads only the batch's predictions and the immutable oracle), so
// the result must equal PredictionEvaluator's bit for bit.
sim::EvalResult replay_ledger(Prepared& p, Ledger& ledger, SpanLog& spans,
                              std::size_t parent) {
  const auto start = Clock::now();
  auto provider = p.make_provider();
  const CountingMeta meta(p.meta);
  const trace::PathTypeTable types(p.view->paths());
  sim::detail::MetricAccumulator acc(p.cfg.eval);
  std::vector<core::VolumeRequest> batch;
  std::vector<core::VolumePrediction> predictions;
  std::vector<core::PiggybackMessage> messages;
  std::vector<util::InternId> resources;
  const auto total = p.view->request_count();
  for (std::size_t base = 0; base < total;
       base += sim::detail::kEvalBatchRequests) {
    const auto n = std::min(sim::detail::kEvalBatchRequests, total - base);
    const auto t0 = Clock::now();
    const auto window = p.view->window(base, n);
    const auto t1 = Clock::now();
    batch.clear();
    for (const auto& req : window) {
      batch.push_back(
          sim::detail::make_volume_request(req, types.type_of(req.path)));
    }
    messages.resize(window.size());
    const auto t2 = Clock::now();
    provider->on_request_batch(batch, predictions);
    const auto t3 = Clock::now();
    for (std::size_t i = 0; i < window.size(); ++i) {
      core::apply_filter_into(predictions[i], batch[i], p.cfg.eval.filter,
                              meta, messages[i]);
    }
    const auto t4 = Clock::now();
    for (std::size_t i = 0; i < window.size(); ++i) {
      resources.clear();
      for (const auto& element : messages[i].elements) {
        resources.push_back(element.resource);
      }
      acc.observe(window[i], messages[i].volume, resources);
    }
    const auto t5 = Clock::now();
    for (std::size_t i = 0; i < window.size(); ++i) {
      ledger.candidates += predictions[i].resources.size();
      ledger.kept += messages[i].elements.size();
    }
    ledger.trace_s += between(t0, t1);
    ledger.volume_s += between(t2, t3);
    ledger.filter_s += between(t3, t4);
    ledger.accumulate_s += between(t4, t5);
    spans.add("trace.window", t0, t1, parent);
    spans.add("volume.on_request_batch", t2, t3, parent);
    spans.add("core.apply_filter", t3, t4, parent);
    spans.add("sim.accumulate", t4, t5, parent);
  }
  ledger.wall_s += since(start);
  ++ledger.replays;
  ledger.requests += total;
  ledger.lookups += meta.lookups();
  ledger.volume_count = provider->volume_count();
  return acc.result();
}

// ---------------------------------------------------------------------------
// Output

struct Metrics {
  obs::Json json = obs::Json::object();
  void add(const char* name, double value, const char* unit) {
    auto m = obs::Json::object();
    m.set("value", value);
    m.set("unit", unit);
    json.set(name, std::move(m));
  }
};

// The process's resident-set high-water mark (VmHWM), in MiB; 0 if the
// kernel does not report it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
    }
  }
  return 0;
}

// Returns freed heap pages to the kernel and restarts the high-water mark
// at the current resident set, so harness work done before (generating an
// in-memory input) does not count towards peak_rss_mb.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

struct RunArgs {
  const WorkloadDef* def = nullptr;
  std::uint64_t seed = 1;
  bool small = false;
  std::string dir;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

// Untraced set-up repetitions: at least kMinSetups, then more while within
// a quarter of the run's time budget.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr int kMinReplays = 3;

bool more_setups(int done, double spent, double seconds) {
  return done < kMinSetups || (done < kMaxSetups && spent < 0.25 * seconds);
}

// ---------------------------------------------------------------------------
// Per-layer ledger, shared by every workload's traced run.

struct LayerInputs {
  Prepared& prepared;
  const Descriptor& received;
  std::uint64_t replay_digest;  // the serial evaluator's result
  double reference_s;           // its wall time
  const trace::SyntheticWorkload& workload;  // for the engine row
};

// Runs ledger replays (paired with untraced ones for trace_overhead) for
// about 60 % of the budget, then one pooled t4 replay, a training pass and
// one engine run, and publishes every per-layer metric. Returns the
// engine's result.
sim::EngineResult measure_layers(const LayerInputs& in, double budget,
                                 Checks& checks, Metrics& metrics,
                                 SpanLog& spans) {
  auto& p = in.prepared;
  Ledger ledger;
  std::vector<double> untraced{in.reference_s}, traced;
  double seconds = 0;
  const auto start = Clock::now();
  while (traced.size() < 2 || since(start) < 0.6 * budget) {
    const auto rep = spans.open("replay.ledger");
    const double before = ledger.wall_s;
    const auto r = replay_ledger(p, ledger, spans, rep);
    spans.close(rep);
    traced.push_back(ledger.wall_s - before);
    checks.expect(digest_of(r) == in.replay_digest,
                  "traced ledger result differs from the evaluator's");
    const auto rep_untraced = spans.open("replay.t1");
    const auto r1 = replay_t1(p, seconds);
    spans.close(rep_untraced);
    checks.expect(digest_of(r1) == in.replay_digest, "t1 repetition differs");
    untraced.push_back(seconds);
  }

  // Pool wait states come from the evaluator's own *.pool.* metrics.
  obs::Registry registry;
  obs::set_global_metrics(&registry);
  auto span = spans.open("replay.t4");
  const auto r4 = replay_t4(p, seconds);
  spans.close(span);
  obs::set_global_metrics(nullptr);
  checks.expect(digest_of(r4) == in.replay_digest, "t4 result differs from t1");

  const auto requests = in.received.requests;
  const auto shards = bench_threads();
  std::vector<std::uint64_t> per_shard(shards);
  for_each_window(*p.view, [&](std::span<const trace::Request> window) {
    for (const auto& req : window) ++per_shard[p.spec.shard_of(req, shards)];
  });

  // What probability training costs on this input; prob_server already
  // paid it during set-up.
  Training probe;
  const Training* training = &p.training;
  if (!p.cfg.probability) {
    span = spans.open("volume.train_probability");
    probe = train_probability(*p.view, p.cfg);
    spans.close(span);
    training = &probe;
  }

  const auto topology = engine_topology();
  span = spans.open("sim.engine");
  sim::SimulationEngine engine(in.workload, topology, engine_config());
  const auto engine_start = Clock::now();
  auto engine_result = engine.run();
  const double engine_s = since(engine_start);
  spans.close(span);

  const double n = static_cast<double>(ledger.requests);
  const auto per = [](double value, std::uint64_t count) {
    return value / static_cast<double>(std::max<std::uint64_t>(1, count));
  };
  constexpr double kNs = 1e9;
  metrics.add("trace.open_s", p.open_s, "s");
  metrics.add("trace.ns_per_req", kNs * ledger.trace_s / n, "ns");
  metrics.add("trace.bytes_per_req",
              per(static_cast<double>(p.input_bytes), requests), "B");
  metrics.add("server.meta_build_ns_per_req", kNs * per(p.meta_s, requests),
              "ns");
  metrics.add("server.meta_lookups_per_req",
              static_cast<double>(ledger.lookups) / n, "count");
  metrics.add("volume.ns_per_req", kNs * ledger.volume_s / n, "ns");
  metrics.add("volume.candidates_per_req",
              static_cast<double>(ledger.candidates) / n, "count");
  metrics.add("volume.count", static_cast<double>(ledger.volume_count),
              "count");
  metrics.add("volume.train_pairs_s", training->pairs_s, "s");
  metrics.add("volume.train_build_s", training->build_s, "s");
  metrics.add("volume.pairs", static_cast<double>(training->pairs), "count");
  metrics.add("core.filter_ns_per_req", kNs * ledger.filter_s / n, "ns");
  metrics.add("core.filter_ns_per_candidate",
              kNs * per(ledger.filter_s, ledger.lookups), "ns");
  // Whole-replay counts behind the accept ratio.
  metrics.add("core.filter_candidates",
              per(static_cast<double>(ledger.candidates), ledger.replays),
              "count");
  metrics.add("core.filter_elements_kept",
              per(static_cast<double>(ledger.kept), ledger.replays), "count");
  metrics.add("core.filter_accept_ratio",
              per(static_cast<double>(ledger.kept), ledger.candidates),
              "ratio");
  metrics.add("sim.accumulator_ns_per_req", kNs * ledger.accumulate_s / n,
              "ns");
  metrics.add("sim.accumulator_ns_per_element",
              kNs * per(ledger.accumulate_s, ledger.kept), "ns");
  metrics.add("sim.replay_ns_per_req", kNs * ledger.wall_s / n, "ns");
  metrics.add("sim.replay_other_ns_per_req", kNs * ledger.other_s() / n, "ns");
  metrics.add("sim.pool_queue_s",
              registry.log_histogram("parallel_eval.pool.queue_seconds").sum(),
              "s");
  metrics.add("sim.pool_idle_s",
              registry.log_histogram("parallel_eval.pool.idle_seconds").sum(),
              "s");
  metrics.add("sim.pool_handoffs",
              static_cast<double>(
                  registry.counter("parallel_eval.pool.handoffs", false)
                      .value()),
              "count");
  metrics.add("sim.provider_shard_imbalance",
              per(static_cast<double>(
                      *std::max_element(per_shard.begin(), per_shard.end()) *
                      shards),
                  requests),
              "ratio");
  metrics.add("sim.engine_ns_per_req",
              kNs * per(engine_s, engine_result.client_requests), "ns");
  metrics.add("sim.engine_server_contacts",
              static_cast<double>(engine_result.server_contacts), "count");
  metrics.add("sim.engine_validations",
              static_cast<double>(engine_result.validations), "count");
  metrics.add("sim.engine_elements_injected",
              static_cast<double>(engine_result.center.elements_injected),
              "count");
  metrics.add("sim.engine_total_packets",
              static_cast<double>(engine_result.total_packets), "count");
  metrics.add("sim.engine_piggyback_bytes",
              static_cast<double>(engine_result.piggyback_bytes), "B");
  metrics.add("sim.engine_leaf_hit_rate", engine_result.leaf_hit_rate(),
              "ratio");
  metrics.add("trace_overhead", median(traced) / median(untraced), "ratio");
  return engine_result;
}

void finish(obs::Json& out, std::uint64_t digest, const Descriptor& received,
            Checks& checks, Metrics& metrics, SpanLog* spans,
            const RunArgs& args) {
  if (spans != nullptr && !args.spans_path.empty()) {
    checks.expect(spans->write(args.spans_path),
                  "cannot write spans to " + args.spans_path);
  }
  out.set("digest", hex(digest));
  out.set("descriptor", received.to_json());
  out.set("checks", checks.to_json());
  out.set("metrics", std::move(metrics.json));
}

// ---------------------------------------------------------------------------
// dir_server / prob_server

int run_replay(const RunArgs& args, const Descriptor& generated,
               obs::Json& out) {
  Checks checks;
  Metrics metrics;
  std::string error;

  std::unique_ptr<Prepared> p;
  std::vector<double> setups;
  std::uint64_t trained_pairs = 0;
  const auto setup_start = Clock::now();
  do {
    p.reset();  // release the previous set-up before timing the next
    p = prepare_from_disk(args.def->kind, args.dir, error);
    if (p == nullptr) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 2;
    }
    setups.push_back(p->setup_s());
    if (p->cfg.probability) {
      if (setups.size() == 1) trained_pairs = p->training.pairs;
      checks.expect(p->training.pairs == trained_pairs,
                    "set-up repetitions counted different pairs");
    }
  } while (!args.trace &&
           more_setups(static_cast<int>(setups.size()), since(setup_start),
                       args.seconds));

  const auto received = describe(*p->view);
  check_descriptor(checks, generated, received);

  // Reference: the serial evaluator.
  double seconds = 0;
  std::size_t volume_count = 0;
  const auto reference = replay_t1(*p, seconds, &volume_count);
  const auto digest = digest_of(reference);
  checks.expect(reference.requests == received.requests,
                "evaluator saw a different request count");
  if (!p->cfg.probability) {
    checks.expect(volume_count == received.level1_volumes,
                  "directory volumes differ from the input's level-1 count");
  }

  if (args.trace) {
    // The engine needs the site models behind the log, so the workload is
    // regenerated in memory here (harness work, outside every timing).
    const auto workload =
        generate_workload(*args.def, args.small, args.seed);
    SpanLog spans;
    measure_layers({*p, received, digest, seconds, workload}, args.seconds,
                   checks, metrics, spans);
    finish(out, digest, received, checks, metrics, &spans, args);
    return 0;
  }

  std::vector<double> t1{seconds}, t4;
  const auto start = Clock::now();
  while (since(start) < args.seconds ||
         t4.size() < static_cast<std::size_t>(kMinReplays)) {
    const auto r4 = replay_t4(*p, seconds);
    checks.expect(digest_of(r4) == digest, "t4 result differs from t1");
    t4.push_back(seconds);
    const auto r1 = replay_t1(*p, seconds);
    checks.expect(digest_of(r1) == digest, "t1 repetition differs");
    t1.push_back(seconds);
  }
  const auto requests = static_cast<double>(received.requests);
  metrics.add("requests_per_s", requests / median(t1), "1/s");
  metrics.add("requests_per_s_t4", requests / median(t4), "1/s");
  metrics.add("setup_s", median(setups), "s");
  metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  finish(out, digest, received, checks, metrics, nullptr, args);
  return 0;
}

// ---------------------------------------------------------------------------
// engine_tree

// Runs `copies` independent engines over the shared read-only workload, one
// thread each; returns the wall time from start to the last join.
double run_engines(const trace::SyntheticWorkload& workload,
                   const sim::Topology& topology, std::size_t copies,
                   std::vector<sim::EngineResult>& results) {
  std::vector<std::unique_ptr<sim::SimulationEngine>> engines;
  for (std::size_t i = 0; i < copies; ++i) {
    engines.push_back(std::make_unique<sim::SimulationEngine>(
        workload, topology, engine_config()));
  }
  results.assign(copies, {});
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < copies; ++i) {
      threads.emplace_back([&, i] { results[i] = engines[i]->run(); });
    }
  }
  return since(start);
}

int run_engine(const RunArgs& args, const Descriptor& generated,
               obs::Json& out) {
  Checks checks;
  Metrics metrics;
  // Generation is harness work: the engine's input lives in memory.
  const auto workload =
      generate_workload(*args.def, args.small, args.seed);
  trace::MaterializedTraceView view(workload.trace);
  const auto received = describe(view);
  check_descriptor(checks, generated, received);
  // peak_rss_mb covers the in-memory input, set-up and one engine run.
  checks.expect(reset_peak_rss(), "cannot reset the peak resident set");

  // Set-up: topology and engine construction over the in-memory trace.
  // Each is tiny, so the median is taken over many, spread over a fifth of
  // the run so that it spans more than one phase of the host's speed.
  std::vector<double> setups;
  const auto setup_start = Clock::now();
  do {
    const auto start = Clock::now();
    const auto topology = engine_topology();
    const sim::SimulationEngine engine(workload, topology, engine_config());
    setups.push_back(since(start));
  } while (setups.size() < 25 ||
           (setups.size() < 5000 && since(setup_start) < 0.2 * args.seconds));

  const auto topology = engine_topology();
  std::vector<sim::EngineResult> results;
  const double seconds = run_engines(workload, topology, 1, results);
  const double peak_mb = peak_rss_mb();
  const auto reference = results[0];
  const auto digest = digest_of(reference);
  checks.expect(reference.client_requests == received.requests,
                "engine saw a different request count");
  checks.expect(reference.unresolved == 0, "engine left requests unresolved");
  checks.expect(reference.center.servers_tracked <= received.servers,
                "volume center tracked more servers than the input has");

  if (args.trace) {
    // The ledger replays the same client trace with directory volumes, the
    // scheme the engine's volume center runs online. The engine itself is
    // one layer here.
    auto p = prepare_in_memory(workload.trace);
    double replay_s = 0;
    std::size_t volume_count = 0;
    const auto replay = replay_t1(*p, replay_s, &volume_count);
    checks.expect(replay.requests == received.requests,
                  "evaluator saw a different request count");
    checks.expect(volume_count == received.level1_volumes,
                  "directory volumes differ from the input's level-1 count");
    SpanLog spans;
    const auto traced = measure_layers(
        {*p, received, digest_of(replay), replay_s, workload}, args.seconds,
        checks, metrics, spans);
    checks.expect(digest_of(traced) == digest, "traced engine run differs");
    finish(out, digest, received, checks, metrics, &spans, args);
    return 0;
  }

  const auto copies = bench_threads();
  std::vector<double> t1{seconds}, t4;
  const auto start = Clock::now();
  while (since(start) < args.seconds ||
         t4.size() < static_cast<std::size_t>(kMinReplays)) {
    t4.push_back(run_engines(workload, topology, copies, results));
    for (const auto& r : results) {
      checks.expect(digest_of(r) == digest,
                    "concurrent engine result differs from t1");
    }
    t1.push_back(run_engines(workload, topology, 1, results));
    checks.expect(digest_of(results[0]) == digest, "engine repetition differs");
  }
  const auto requests = static_cast<double>(reference.client_requests);
  metrics.add("requests_per_s", requests / median(t1), "1/s");
  metrics.add("requests_per_s_t4",
              requests * static_cast<double>(copies) / median(t4), "1/s");
  metrics.add("setup_s", median(setups), "s");
  metrics.add("peak_rss_mb", peak_mb, "MB");
  finish(out, digest, received, checks, metrics, nullptr, args);
  return 0;
}

// ---------------------------------------------------------------------------
// gen

int generate_inputs(const RunArgs& args) {
  const auto workload =
      generate_workload(*args.def, args.small, args.seed);
  trace::MaterializedTraceView view(workload.trace);
  const auto descriptor = describe(view);
  std::filesystem::create_directories(args.dir);
  const auto write_atomic = [](const std::string& path, auto&& fill) {
    const auto tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary);
      fill(out);
      if (!out) return false;
    }
    std::filesystem::rename(tmp, path);
    return true;
  };
  bool ok = true;
  if (args.def->kind == Kind::kDirServer) {
    ok = write_atomic(args.dir + "/input.trc", [&](std::ofstream& out) {
      out << trace::serialize_binary_trace(workload.trace);
    });
  } else if (args.def->kind == Kind::kProbServer) {
    ok = write_atomic(args.dir + "/input.log", [&](std::ofstream& out) {
      trace::write_clf(out, workload.trace);
    });
  }
  ok = ok && write_atomic(args.dir + "/descriptor.json", [&](std::ofstream& out) {
         out << descriptor.to_json().dump() << "\n";
       });
  if (!ok) {
    std::fprintf(stderr, "perfbench: cannot write inputs to %s\n",
                 args.dir.c_str());
    return 2;
  }
  return 0;
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, RunArgs& args) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string_view::npos) return false;
    const auto key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    if (key == "workload") {
      args.def = find_workload(value);
      if (args.def == nullptr) return false;
    } else if (key == "seed") {
      args.seed = std::stoull(value);
    } else if (key == "size") {
      if (value != "full" && value != "small") return false;
      args.small = value == "small";
    } else if (key == "dir") {
      args.dir = value;
    } else if (key == "seconds") {
      args.seconds = std::stod(value);
    } else if (key == "trace") {
      args.trace = value == "1";
    } else if (key == "spans") {
      args.spans_path = value;
    } else {
      return false;
    }
  }
  return args.def != nullptr && !args.dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  const std::string_view command = argc > 1 ? argv[1] : "";
  if ((command != "gen" && command != "run") || !parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench gen|run --workload=NAME --seed=N "
                 "--size=full|small --dir=DIR [--seconds=S --trace=0|1 "
                 "--spans=FILE]\n");
    return 2;
  }
  if (command == "gen") return generate_inputs(args);

  const auto generated = read_descriptor(args.dir + "/descriptor.json");
  if (!generated) {
    std::fprintf(stderr, "perfbench: no descriptor in %s\n", args.dir.c_str());
    return 2;
  }
  auto out = obs::Json::object();
  out.set("workload", args.def->name);
  const int rc = args.def->kind == Kind::kEngineTree
                     ? run_engine(args, *generated, out)
                     : run_replay(args, *generated, out);
  if (rc != 0) return rc;
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
