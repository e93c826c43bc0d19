// The staticcheck rule catalog. Each checker reads one file and appends
// its diagnostics; analyze_file() (engine.h) runs all of them. Scope
// policy (which modules a rule applies to) lives here so it is one table
// to read and one place to change — per-module allowlisting is
// deliberate: a cold module is exempted as a whole, never a single call
// site. There is no suppression file: a finding is fixed, or its rule
// changes.
#pragma once

#include <string_view>
#include <vector>

#include "analysis/source.h"

namespace piggyweb::analysis {

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

// Every rule id with a one-line summary, in report order.
const std::vector<RuleInfo>& rule_catalog();

// --- scope policy -----------------------------------------------------

// Hot modules where util::FlatMap is mandated and std::unordered_*
// is a finding. Cold modules (trace, net, http, analysis, ...) are
// allowlisted by module.
bool flatmap_required(std::string_view module);

// Files allowed to touch wall-clock / global-random APIs: the seeded
// RNG itself, simulation time, and the observability layer (whose
// wall-clock readings are explicitly non-deterministic metrics).
bool determinism_exempt(std::string_view path);

// Files allowed to issue raw memory-mapping syscalls (mmap/munmap/
// madvise/...): only util::MmapFile, the repo's single RAII wrapper.
// Everything else takes a MmapFile (or a string_view of its bytes), so
// mapping lifetime and error handling stay in one audited place.
bool os_calls_allowed(std::string_view path);

// --- rule families ----------------------------------------------------

// det-banned-call, det-unordered-container, det-unordered-iteration,
// os-call-confined.
void check_determinism(const SourceFile& file, std::vector<Diagnostic>& out);

// flatmap-ref-after-mutate: a reference/iterator obtained from a
// FlatMap or GenerationalMap used after a mutating call on the same map
// in the same function, or mutation of one inside a range-for over it.
void check_flatmap_safety(const SourceFile& file,
                          std::vector<Diagnostic>& out);

// view-after-advance: TraceView window / read_batch spans and
// InternTable::views() used after an advancing/mutating call on the
// same receiver (shared invalidation core with the flatmap rule).
void check_view_invalidation(const SourceFile& file,
                             std::vector<Diagnostic>& out);

}  // namespace piggyweb::analysis
