// Per-run observability scope and the run manifest.
//
// RunScope is the single object a binary constructs after parsing
// --metrics-out= / --trace-out=: while alive it installs the process-global
// registry/tracer (the null-sink default stays in place when both flags are
// empty, so untraced runs pay one pointer load per instrumentation site),
// and finish() — called by the destructor if not called explicitly —
// writes the Chrome trace and a single JSON manifest:
//
//   {
//     "piggyweb_manifest": 1,
//     "name": "<run name>",
//     "argv": ["--scale=0.3", ...],          // config echo
//     "wall_seconds": 1.23,
//     "cpu_seconds": 1.19,
//     "metrics": { "counters": [...], "gauges": [...], "histograms": [...] },
//     ... note()-added sections ...
//   }
//
// bench_common and cli_common wrap the flag parsing for the two flag
// styles; the manifest format lives here so both emit the same schema and
// piggyweb_tracecheck can lint either.
#pragma once

#include <chrono>
#include <ctime>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace piggyweb::obs {

// Wall (steady) and CPU (std::clock) time since construction.
class RunTimer {
 public:
  RunTimer()
      : wall_start_(std::chrono::steady_clock::now()),
        cpu_start_(std::clock()) {}

  double wall_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start_)
        .count();
  }
  double cpu_seconds() const {
    return static_cast<double>(std::clock() - cpu_start_) /
           static_cast<double>(CLOCKS_PER_SEC);
  }

 private:
  std::chrono::steady_clock::time_point wall_start_;
  std::clock_t cpu_start_;
};

// Assemble a manifest document (shared by RunScope and the tests, so the
// schema round-trip is tested against the production builder).
Json build_run_manifest(const std::string& name,
                        const std::vector<std::string>& argv_echo,
                        double wall_seconds, double cpu_seconds,
                        const Registry& registry, const Json& extra);

// Structural validation of a manifest document; appends human-readable
// problems to `problems` and returns true when none were found.
bool validate_run_manifest(const Json& manifest,
                           std::vector<std::string>& problems);

class RunScope {
 public:
  struct Options {
    std::string run_name;
    std::string metrics_path;  // empty = manifest disabled
    std::string trace_path;    // empty = tracing disabled
    // Prometheus text exposition of the metrics registry; empty = off.
    // Enables the registry even when metrics_path is empty.
    std::string prom_path;
    std::vector<std::string> argv;
  };

  explicit RunScope(Options options);
  ~RunScope();
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  bool metrics_enabled() const {
    return !options_.metrics_path.empty() || !options_.prom_path.empty();
  }
  bool trace_enabled() const { return !options_.trace_path.empty(); }

  Registry& registry() { return registry_; }
  Tracer& tracer() { return tracer_; }

  // Attach an extra top-level manifest entry (e.g. a result section).
  void note(std::string key, Json value);

  // Uninstall the global sinks and write the artifacts (manifest only
  // when metrics are enabled, trace only when tracing is). Idempotent;
  // returns false when any write failed.
  bool finish();

 private:
  Options options_;
  Registry registry_;
  Tracer tracer_;
  RunTimer timer_;
  Json extra_ = Json::object();
  bool finished_ = false;
};

}  // namespace piggyweb::obs
