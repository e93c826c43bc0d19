#include "analysis/rules.h"

namespace piggyweb::analysis {

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"det-banned-call",
       "wall-clock / global-random APIs outside util/rng, util/time, obs"},
      {"det-unordered-container",
       "std::unordered_{map,set} in hot modules where util::FlatMap is "
       "mandated"},
      {"det-unordered-iteration",
       "iteration over an unordered container feeding ordered output"},
      {"os-call-confined",
       "raw mmap/munmap/madvise-family syscalls outside util::MmapFile"},
      {"flatmap-ref-after-mutate",
       "FlatMap/GenerationalMap reference/iterator used after a mutating "
       "call (mutation invalidates all references)"},
      {"view-after-advance",
       "TraceView window/read_batch span or InternTable views() used "
       "after an advancing call invalidated it"},
  };
  return kCatalog;
}

bool flatmap_required(std::string_view module) {
  return module == "src/sim" || module == "src/volume" ||
         module == "src/proxy" || module == "src/core" ||
         module == "src/server";
}

bool determinism_exempt(std::string_view path) {
  return path.starts_with("src/obs/") || path == "src/util/rng.h" ||
         path == "src/util/rng.cc" || path == "src/util/time.h";
}

bool os_calls_allowed(std::string_view path) {
  return path == "src/util/mmap_file.h" || path == "src/util/mmap_file.cc";
}

}  // namespace piggyweb::analysis
