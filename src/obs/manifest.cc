#include "obs/manifest.h"

#include <cstdio>
#include <fstream>
#include <utility>

namespace piggyweb::obs {

Json build_run_manifest(const std::string& name,
                        const std::vector<std::string>& argv_echo,
                        double wall_seconds, double cpu_seconds,
                        const Registry& registry, const Json& extra) {
  auto manifest = Json::object();
  manifest.set("piggyweb_manifest", 1);
  manifest.set("name", name);
  auto argv = Json::array();
  for (const auto& arg : argv_echo) argv.push_back(arg);
  manifest.set("argv", std::move(argv));
  manifest.set("wall_seconds", wall_seconds);
  manifest.set("cpu_seconds", cpu_seconds);
  manifest.set("metrics", registry.snapshot());
  if (extra.is_object()) {
    for (const auto& [key, value] : extra.members()) {
      manifest.set(key, value);
    }
  }
  return manifest;
}

namespace {

void check_metric_array(const Json& metrics, const char* key,
                        std::vector<std::string>& problems) {
  const auto* array = metrics.find(key);
  if (array == nullptr || !array->is_array()) {
    problems.push_back(std::string("metrics.") + key +
                       " missing or not an array");
    return;
  }
  for (const auto& entry : array->items()) {
    if (!entry.is_object()) {
      problems.push_back(std::string("metrics.") + key +
                         " entry is not an object");
      continue;
    }
    const auto* name = entry.find("name");
    if (name == nullptr || !name->is_string()) {
      problems.push_back(std::string("metrics.") + key +
                         " entry lacks a string name");
    }
    const auto* deterministic = entry.find("deterministic");
    if (deterministic == nullptr || !deterministic->is_bool()) {
      problems.push_back(std::string("metrics.") + key +
                         " entry lacks a deterministic flag");
    }
  }
}

// "0x" followed by exactly sixteen lower-case hex digits — the form the
// persist layer's checksum_hex emits into manifests.
bool is_checksum_hex(const std::string& s) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') return false;
  for (std::size_t i = 2; i < s.size(); ++i) {
    const char c = s[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

// Optional section written by checkpointing runs: maps "saved"/"loaded"
// to { "path": ..., "fnv1a": "0x..." } entries.
void check_snapshots_section(const Json& manifest,
                             std::vector<std::string>& problems) {
  const auto* snapshots = manifest.find("snapshots");
  if (snapshots == nullptr) return;
  if (!snapshots->is_object()) {
    problems.push_back("snapshots section is not an object");
    return;
  }
  for (const auto& [role, entry] : snapshots->members()) {
    if (role != "saved" && role != "loaded") {
      problems.push_back("snapshots key '" + role + "' is not saved/loaded");
      continue;
    }
    if (!entry.is_object()) {
      problems.push_back("snapshots." + role + " is not an object");
      continue;
    }
    const auto* path = entry.find("path");
    if (path == nullptr || !path->is_string() || path->string().empty()) {
      problems.push_back("snapshots." + role + ".path missing or empty");
    }
    const auto* checksum = entry.find("fnv1a");
    if (checksum == nullptr || !checksum->is_string() ||
        !is_checksum_hex(checksum->string())) {
      problems.push_back("snapshots." + role +
                         ".fnv1a missing or not 0x-prefixed 16-digit hex");
    }
  }
}

// Optional buffer-health section ("tracer"): an object of non-negative
// numbers.
void check_buffer_section(const Json& manifest, const char* key,
                          std::vector<std::string>& problems) {
  const auto* section = manifest.find(key);
  if (section == nullptr) return;
  if (!section->is_object()) {
    problems.push_back(std::string(key) + " section is not an object");
    return;
  }
  for (const auto& [field, value] : section->members()) {
    if (!value.is_number() || value.number() < 0) {
      problems.push_back(std::string(key) + "." + field +
                         " is not a non-negative number");
    }
  }
}

}  // namespace

bool validate_run_manifest(const Json& manifest,
                           std::vector<std::string>& problems) {
  const auto before = problems.size();
  if (!manifest.is_object()) {
    problems.push_back("manifest is not a JSON object");
    return false;
  }
  const auto* version = manifest.find("piggyweb_manifest");
  if (version == nullptr || !version->is_number() ||
      version->number() != 1.0) {
    problems.push_back("piggyweb_manifest version marker missing or != 1");
  }
  const auto* name = manifest.find("name");
  if (name == nullptr || !name->is_string() || name->string().empty()) {
    problems.push_back("name missing or empty");
  }
  const auto* argv = manifest.find("argv");
  if (argv == nullptr || !argv->is_array()) {
    problems.push_back("argv echo missing");
  }
  for (const char* key : {"wall_seconds", "cpu_seconds"}) {
    const auto* seconds = manifest.find(key);
    if (seconds == nullptr || !seconds->is_number() ||
        seconds->number() < 0) {
      problems.push_back(std::string(key) + " missing or negative");
    }
  }
  const auto* metrics = manifest.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    problems.push_back("metrics section missing");
  } else {
    check_metric_array(*metrics, "counters", problems);
    check_metric_array(*metrics, "gauges", problems);
    check_metric_array(*metrics, "histograms", problems);
  }
  check_snapshots_section(manifest, problems);
  check_buffer_section(manifest, "tracer", problems);
  return problems.size() == before;
}

RunScope::RunScope(Options options) : options_(std::move(options)) {
  if (metrics_enabled()) set_global_metrics(&registry_);
  if (trace_enabled()) set_global_tracer(&tracer_);
}

RunScope::~RunScope() { finish(); }

void RunScope::note(std::string key, Json value) {
  extra_.set(std::move(key), std::move(value));
}

bool RunScope::finish() {
  if (finished_) return true;
  finished_ = true;
  if (global_metrics() == &registry_) set_global_metrics(nullptr);
  if (global_tracer() == &tracer_) set_global_tracer(nullptr);

  bool ok = true;
  if (trace_enabled()) {
    ok = tracer_.write_chrome_trace(options_.trace_path) && ok;
  }
  if (!options_.prom_path.empty()) {
    std::ofstream out(options_.prom_path);
    if (!out) {
      std::fprintf(stderr, "obs: cannot write prometheus export to %s\n",
                   options_.prom_path.c_str());
      ok = false;
    } else {
      out << registry_.to_prometheus();
      ok = out.good() && ok;
    }
  }
  if (!options_.metrics_path.empty()) {
    // Buffer-health section: how close tracing came to its memory cap.
    // Written even when tracing is off (all-zero) so downstream readers
    // need no probing.
    auto tracer_section = Json::object();
    tracer_section.set("events", tracer_.event_count());
    tracer_section.set("dropped", tracer_.dropped());
    tracer_section.set("thread_buffers", tracer_.thread_count());
    tracer_section.set("max_events_per_thread",
                       tracer_.max_events_per_thread());
    extra_.set("tracer", std::move(tracer_section));
    const auto manifest = build_run_manifest(
        options_.run_name, options_.argv, timer_.wall_seconds(),
        timer_.cpu_seconds(), registry_, extra_);
    std::ofstream out(options_.metrics_path);
    if (!out) {
      std::fprintf(stderr, "obs: cannot write manifest to %s\n",
                   options_.metrics_path.c_str());
      ok = false;
    } else {
      out << manifest.dump(2);
      ok = out.good() && ok;
    }
  }
  return ok;
}

}  // namespace piggyweb::obs
