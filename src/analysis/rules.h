// The staticcheck rule catalog. Each checker appends diagnostics for
// one file; Project::analyze() drives all of them. Scope policy (which
// modules a rule applies to) lives here so it is one table to read and
// one place to change — per-module allowlisting is deliberate: a cold
// module is exempted as a whole, never a single call site (that is what
// the suppression file is for, and CI requires it to stay empty).
#pragma once

#include <string_view>
#include <vector>

#include "analysis/project.h"
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

// Hot modules where public functions with index-like parameters must
// carry a PW_EXPECT / PW_EXPECT_BOUNDS contract.
bool contracts_required(std::string_view module);

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

// det-banned-call, det-unordered-container, det-unordered-iteration.
void check_determinism(const Project& project, const SourceFile& file,
                       std::vector<Diagnostic>& out);

// flatmap-ref-after-mutate: a reference/iterator obtained from a
// FlatMap used after a mutating call on the same map in the same
// function, or mutation of a FlatMap inside a range-for over it.
void check_flatmap_safety(const Project& project, const SourceFile& file,
                          std::vector<Diagnostic>& out);

// contract-missing-expect: public hot-module functions taking
// index-like parameters without a contract macro in the body.
void check_contracts(const Project& project, const SourceFile& file,
                     std::vector<Diagnostic>& out);

// hdr-pragma-once, hdr-unused-include.
void check_headers(const Project& project, const SourceFile& file,
                   std::vector<Diagnostic>& out);

// lock-guarded-state: access to a PW_GUARDED_BY member without its
// mutex held; atomic-plain-mix: plain member of an annotated class
// written under a lock but also accessed lock-free.
void check_concurrency(const Project& project, const SourceFile& file,
                       std::vector<Diagnostic>& out);

// view-after-advance: TraceView window / read_batch spans and
// InternTable::views() used after an advancing/mutating call on the
// same receiver (shared invalidation core with the flatmap rule).
void check_view_invalidation(const Project& project, const SourceFile& file,
                             std::vector<Diagnostic>& out);

}  // namespace piggyweb::analysis
