// piggyweb_evaluate — replay a web log through the piggybacking protocol
// and report the paper's §3.1 metrics for a chosen volume scheme/filter.
// The input may be a CLF text log, a "PIGGYTRC" binary container (replayed
// window by window straight off its mapping, never materialized; see
// piggyweb_convert), or a synthetic profile spec — the format is sniffed
// unless pinned with --trace-format.
//
//   piggyweb_evaluate --log=site.log --scheme=directory --level=1
//       --minfreq=10 --rpv-timeout=30
//   piggyweb_evaluate --log=site.trc --scheme=probability --pt=0.2 --eff=0.2
//   piggyweb_evaluate --log=synthetic:aiusa:0.05 --scheme=probability
//       --volumes=pretrained.txt
//
// Checkpoint/restore: --stop-fraction=0.5 --save-state=ckpt.snap stops the
// replay half way and writes a durable snapshot; a later run with
// --load-state=ckpt.snap (same log, same flags) resumes there and reports
// metrics bit-identical to an uninterrupted run, at any --threads value.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cli_common.h"
#include "obs/manifest.h"
#include "persist/eval_state.h"
#include "server/meta.h"
#include "sim/eval_core.h"
#include "sim/parallel_eval.h"
#include "sim/prediction_eval.h"
#include "sim/report.h"
#include "trace/stream.h"
#include "trace_load.h"
#include "util/expect.h"
#include "util/intern.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"
#include "volume/serialize.h"

using namespace piggyweb;

namespace {

// Snapshot bookkeeping for the run manifest: path + whole-file checksum
// for each snapshot this run read or wrote.
struct SnapshotNote {
  std::string path;
  std::uint64_t checksum = 0;
};

obs::Json snapshot_note_json(const SnapshotNote& note) {
  auto entry = obs::Json::object();
  entry.set("path", note.path);
  entry.set("fnv1a", persist::checksum_hex(note.checksum));
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  tools::FlagSet flags(
      "evaluate a volume scheme + proxy filter over a web log");
  tools::add_trace_flags(flags);
  flags.add_string("scheme", "directory", "directory|probability");
  flags.add_int("level", 1, "directory scheme: prefix level");
  flags.add_double("pt", 0.2, "probability scheme: threshold p_t");
  flags.add_double("eff", 0.0,
                   "probability scheme: effectiveness threshold (0 = off)");
  flags.add_int("combine-level", 0,
                "probability scheme: same-prefix restriction (0 = off)");
  flags.add_string("volumes", "",
                   "probability scheme: load pretrained volumes instead of "
                   "training on the log");
  flags.add_int("min-count", 10, "training: minimum resource access count");
  flags.add_int("maxpiggy", 50, "filter: maximum elements per piggyback");
  flags.add_int("minfreq", 0, "filter: minimum whole-trace access count");
  flags.add_int("rpv-timeout", 0,
                "RPV suppression window in seconds (0 = off)");
  flags.add_int("min-interval", 0,
                "frequency control: min seconds between piggybacks "
                "(0 = off)");
  flags.add_int("window", 300, "prediction window T (seconds)");
  flags.add_int("horizon", 7200, "cache horizon C (seconds)");
  flags.add_int("threads", 1,
                "evaluator threads, one shard each (1 = no worker pool, "
                "0 = hardware concurrency); metrics are identical for "
                "any value");
  flags.add_int("limit", 0,
                "replay only the first N requests, as if the log ended "
                "there (0 = all); incompatible with --save-state and "
                "--load-state");
  flags.add_string("report", "text",
                   "report format: text (aligned table) or json (same "
                   "fields, machine-readable, alone on stdout)");
  flags.add_string("save-state", "",
                   "write an evaluation-state snapshot here at the stop "
                   "point");
  flags.add_string("load-state", "",
                   "resume from a snapshot written by --save-state (same "
                   "log and flags required)");
  flags.add_double("stop-fraction", 1.0,
                   "stop the replay after this fraction of the trace "
                   "(use with --save-state)");
  flags.add_int("progress-every", 0,
                "emit a JSON-lines heartbeat on stderr every N completed "
                "requests (0 = off): done/total, worker queue depth, "
                "elapsed seconds, requests per second");
  tools::add_observability_flags(flags);
  if (!flags.parse(argc, argv)) return 2;

  const auto report = flags.get_string("report");
  if (report != "text" && report != "json") {
    std::fprintf(stderr, "unknown --report '%s'\n", report.c_str());
    return 2;
  }
  // In JSON mode stdout carries only the report document; progress lines
  // move to stderr.
  std::FILE* const info = report == "json" ? stderr : stdout;
  const auto run_scope =
      tools::make_run_scope(flags, "piggyweb_evaluate", argc, argv);

  const auto threads_flag = flags.get_int("threads");
  if (threads_flag < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 2;
  }
  // Out-of-range numbers would trip a library precondition or wrap when
  // cast to the narrower config fields; reject them before any work.
  if (flags.get_int("window") <= 0) {
    std::fprintf(stderr, "--window must be > 0\n");
    return 2;
  }
  if (flags.get_int("horizon") <= flags.get_int("window")) {
    std::fprintf(stderr, "--horizon must be > --window\n");
    return 2;
  }
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
  const std::pair<const char*, std::int64_t> ranges[] = {
      {"level", kIntMax},        {"combine-level", kIntMax},
      {"maxpiggy", kU32Max},     {"minfreq", kU32Max},
      {"min-count", kI64Max},    {"min-interval", kI64Max},
      {"rpv-timeout", kI64Max}};
  for (const auto& [name, max] : ranges) {
    const auto value = flags.get_int(name);
    if (value < 0) {
      std::fprintf(stderr, "--%s must be >= 0\n", name);
      return 2;
    }
    if (value > max) {
      std::fprintf(stderr, "--%s must be <= %lld\n", name,
                   static_cast<long long>(max));
      return 2;
    }
  }
  if (const auto pt = flags.get_double("pt"); !(pt > 0.0 && pt <= 1.0)) {
    std::fprintf(stderr, "--pt must be in (0, 1]\n");
    return 2;
  }
  const auto save_state = flags.get_string("save-state");
  const auto load_state = flags.get_string("load-state");
  const auto stop_fraction = flags.get_double("stop-fraction");
  if (stop_fraction <= 0.0 || stop_fraction > 1.0) {
    std::fprintf(stderr, "--stop-fraction must be in (0, 1]\n");
    return 2;
  }
  const auto limit_flag = flags.get_int("limit");
  if (limit_flag < 0) {
    std::fprintf(stderr, "--limit must be >= 0\n");
    return 2;
  }
  const auto limit = static_cast<std::size_t>(limit_flag);
  // A limited view's fingerprint still names the whole trace, so a
  // checkpoint could not tell where the replayed log ended.
  if (limit > 0 && (!save_state.empty() || !load_state.empty())) {
    std::fprintf(stderr,
                 "--limit cannot be combined with "
                 "--save-state/--load-state\n");
    return 2;
  }

  // Everything reads the trace through one TraceView: a binary container
  // decodes window by window off its mapping, CLF text and synthetic specs
  // materialize inside the view.
  std::unique_ptr<trace::TraceView> view_owner;
  trace::TraceLoadStats load_stats;
  if (const int rc = tools::load_view_from_flags(flags, info, view_owner,
                                                 "log", &load_stats);
      rc != 0) {
    return rc;
  }
  trace::TraceView* view = view_owner.get();
  // --limit ends the log after N requests, so training, the meta oracle,
  // and the replay all see exactly the first N.
  std::optional<trace::LimitedTraceView> limited;
  if (limit > 0 && limit < view->request_count()) {
    limited.emplace(*view, limit);
    view = &*limited;
  }
  if (run_scope != nullptr) {
    run_scope->note("trace", tools::trace_stats_note(load_stats));
  }

  sim::EvalConfig config;
  config.prediction_window = flags.get_int("window");
  config.cache_horizon = flags.get_int("horizon");
  config.filter.max_elements =
      static_cast<std::uint32_t>(flags.get_int("maxpiggy"));
  config.filter.min_access_count =
      static_cast<std::uint32_t>(flags.get_int("minfreq"));
  config.use_rpv = flags.get_int("rpv-timeout") > 0;
  config.rpv.timeout = flags.get_int("rpv-timeout");
  config.min_piggyback_interval = flags.get_int("min-interval");

  // Heartbeat: one JSON line on stderr per --progress-every completed
  // requests (and always at 100%). Observational only — the evaluators
  // fire the hook outside any result-affecting path.
  const auto progress_every = flags.get_int("progress-every");
  const obs::RunTimer progress_timer;
  std::size_t progress_last = 0;
  if (progress_every > 0) {
    const auto every = static_cast<std::size_t>(progress_every);
    config.on_progress = [&progress_timer, &progress_last,
                          every](const sim::EvalProgress& p) {
      if (p.done < p.total && p.done - progress_last < every) return;
      progress_last = p.done;
      const double elapsed = progress_timer.wall_seconds();
      auto line = obs::Json::object();
      line.set("piggyweb_progress", 1);
      line.set("done", static_cast<std::uint64_t>(p.done));
      line.set("total", static_cast<std::uint64_t>(p.total));
      line.set("queue_depth", static_cast<std::uint64_t>(p.queue_depth));
      line.set("elapsed_seconds", elapsed);
      line.set("requests_per_second",
               elapsed > 0 ? static_cast<double>(p.done) / elapsed : 0.0);
      std::fprintf(stderr, "%s\n", line.dump().c_str());
    };
  }

  sim::ParallelEvalConfig par;
  par.threads = static_cast<std::size_t>(threads_flag);

  // Checkpoint plumbing shared by both schemes. The replayed range is
  // [range_begin, range_end): a resume starts where the snapshot stopped,
  // --stop-fraction moves the end short of the trace.
  const auto total = view->request_count();
  // Only a checkpoint reads the trace fingerprint.
  const auto fingerprint = save_state.empty() && load_state.empty()
                               ? std::uint64_t{0}
                               : view->content_fingerprint();
  std::optional<persist::EvalSnapshot> snapshot;
  std::optional<SnapshotNote> loaded_note;
  if (!load_state.empty()) {
    std::string error;
    const auto bytes = persist::read_file_bytes(load_state, error);
    if (bytes.has_value()) {
      loaded_note = {load_state, persist::snapshot_checksum(*bytes)};
      snapshot = persist::parse_eval_snapshot(*bytes, error);
    }
    if (!snapshot.has_value()) {
      std::fprintf(stderr, "cannot load state from %s: %s\n",
                   load_state.c_str(), error.c_str());
      return 1;
    }
    if (snapshot->fingerprint != fingerprint ||
        snapshot->total_requests != total) {
      std::fprintf(stderr, "%s was saved against a different trace\n",
                   load_state.c_str());
      return 1;
    }
  }
  const std::size_t range_begin =
      snapshot.has_value() ? static_cast<std::size_t>(snapshot->next_request)
                           : 0;
  std::size_t range_end = total;
  if (stop_fraction < 1.0) {
    range_end = std::max(
        range_begin, static_cast<std::size_t>(
                         stop_fraction * static_cast<double>(total)));
  }
  const bool publish = range_end == total;

  // One bounded pass per training consumer; over a binary container each
  // pass re-decodes windows off the mapping instead of holding the trace.
  constexpr std::size_t kScanWindow = std::size_t{1} << 16;
  const auto for_each_window = [&](auto&& fn) {
    for (std::size_t base = 0; base < total; base += kScanWindow) {
      const auto n = std::min(kScanWindow, total - base);
      fn(view->window(base, n));
    }
  };

  server::TraceMetaOracle meta;
  for_each_window([&](std::span<const trace::Request> window) {
    meta.observe_window(window, view->paths());
  });
  sim::EvalResult result;
  std::optional<persist::EvalSnapshot> captured;
  const auto scheme = flags.get_string("scheme");

  // Verifies the snapshot's flag echo and reports resumption; shared by
  // both schemes once their echo is built.
  const auto check_resume = [&](const persist::EvalConfigEcho& echo) {
    if (!snapshot.has_value()) return true;
    if (!(snapshot->config == echo)) {
      std::fprintf(stderr,
                   "%s was saved under different flags; rerun with the "
                   "saving run's scheme, filter and volume options\n",
                   load_state.c_str());
      return false;
    }
    std::fprintf(info, "resuming at request %zu/%zu from %s\n", range_begin,
                 total, load_state.c_str());
    return true;
  };
  // The replay, one run_range call for either scheme: restore hooks when
  // resuming, a capture hook writing into `captured` when saving. The
  // providers span is empty for the stateless probability scheme.
  const auto evaluate = [&](const sim::ShardedProviderSpec& spec,
                            const persist::EvalConfigEcho& echo,
                            bool directory, sim::ParallelEvalStats* stats) {
    std::optional<persist::EvalRestore> restore;
    sim::EvalResumeHooks hooks;
    if (snapshot.has_value()) hooks = restore.emplace(*snapshot).hooks();
    if (!save_state.empty()) {
      hooks.capture =
          [&](std::span<core::VolumeProvider* const> providers,
              std::span<sim::detail::MetricAccumulator* const> accumulators) {
            std::vector<const volume::DirectoryVolumes*> dirs;
            if (directory) {
              dirs.reserve(providers.size());
              for (auto* provider : providers) {
                auto* dir =
                    dynamic_cast<const volume::DirectoryVolumes*>(provider);
                PW_ENSURE(dir != nullptr);
                dirs.push_back(dir);
              }
            }
            const std::vector<const sim::detail::MetricAccumulator*> accs(
                accumulators.begin(), accumulators.end());
            captured = persist::capture_eval_state(dirs, accs, echo, range_end,
                                                   total, fingerprint);
          };
    }
    return sim::ParallelEvaluator(config, par)
        .run_range(*view, spec, meta, range_begin, range_end, publish, &hooks,
                   stats);
  };

  if (scheme == "directory") {
    volume::DirectoryVolumeConfig dvc;
    dvc.level = static_cast<int>(flags.get_int("level"));
    const auto echo = persist::make_eval_config_echo(config, dvc);
    if (!check_resume(echo)) return 1;
    sim::ParallelEvalStats stats;
    result = evaluate(sim::shard_directory_volumes(dvc, view->paths()), echo,
                      /*directory=*/true, &stats);
    std::fprintf(info, "scheme: directory level-%d (%zu volumes", dvc.level,
                 stats.volume_count);
    if (stats.threads > 1) std::fprintf(info, ", %zu threads", stats.threads);
    std::fprintf(info, ")\n");
  } else if (scheme == "probability") {
    volume::ProbabilityVolumeSet set;
    if (const auto volumes_path = flags.get_string("volumes");
        !volumes_path.empty()) {
      std::ifstream volumes_in(volumes_path);
      if (!volumes_in) {
        std::fprintf(stderr, "cannot open %s\n", volumes_path.c_str());
        return 1;
      }
      // Seeded in id order, the table gives every trace path its trace id;
      // paths only the file names get the ids after them.
      util::InternTable paths;
      for (const auto path : view->paths().views()) paths.intern(path);
      std::string error;
      auto loaded = volume::load_volume_set(volumes_in, paths, error);
      if (!loaded) {
        std::fprintf(stderr, "bad volume file: %s\n", error.c_str());
        return 1;
      }
      set = std::move(*loaded);
    } else {
      volume::PairCounterConfig pcc;
      pcc.window = config.prediction_window;
      const auto min_count =
          static_cast<std::uint64_t>(flags.get_int("min-count"));
      // One windowed pass builds the compact per-source observation log,
      // the builder counts from it, and the effectiveness pass replays
      // windows.
      volume::PairObservations observations;
      for_each_window([&](std::span<const trace::Request> window) {
        observations.observe_window(window);
      });
      const auto counts = volume::PairCounterBuilder(pcc).build(
          observations, view->paths(), min_count);
      volume::ProbabilityVolumeConfig pvc;
      pvc.probability_threshold = flags.get_double("pt");
      pvc.effectiveness_threshold = flags.get_double("eff");
      pvc.combine_prefix_level =
          static_cast<int>(flags.get_int("combine-level"));
      pvc.window = config.prediction_window;
      set = volume::build_probability_volumes(*view, counts, pvc);
    }
    // The echo carries the built set's fingerprint, so a resume refuses
    // volumes trained under other flags or read from another file.
    const auto echo = persist::make_eval_config_echo(config, set);
    if (!check_resume(echo)) return 1;
    result = evaluate(sim::shard_probability_volumes(&set, 200), echo,
                      /*directory=*/false, nullptr);
    std::fprintf(info, "scheme: probability (%zu volumes)\n",
                 set.volume_count());
  } else {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme.c_str());
    return 2;
  }

  std::optional<SnapshotNote> saved_note;
  if (!save_state.empty()) {
    PW_ENSURE(captured.has_value());
    const auto bytes = persist::serialize_eval_snapshot(*captured);
    std::string error;
    if (!persist::write_file_bytes(save_state, bytes, error)) {
      std::fprintf(stderr, "cannot save state to %s: %s\n",
                   save_state.c_str(), error.c_str());
      return 1;
    }
    saved_note = {save_state, persist::snapshot_checksum(bytes)};
    std::fprintf(info, "saved state at request %zu/%zu to %s\n", range_end,
                 total, save_state.c_str());
  }
  if (run_scope != nullptr &&
      (loaded_note.has_value() || saved_note.has_value())) {
    auto snapshots = obs::Json::object();
    if (loaded_note.has_value()) {
      snapshots.set("loaded", snapshot_note_json(*loaded_note));
    }
    if (saved_note.has_value()) {
      snapshots.set("saved", snapshot_note_json(*saved_note));
    }
    run_scope->note("snapshots", std::move(snapshots));
  }

  if (report == "json") {
    std::cout << sim::render_eval_report_json(result) << "\n";
  } else {
    std::cout << sim::render_eval_report(result);
  }
  return 0;
}
