// View / span lifetime after an advancing call (view-after-advance).
//
// Two families of short-lived views exist in the replay pipeline:
//
//   * trace::TraceView::window() and BinaryTraceReader::read_batch()
//     hand out spans that are only valid until the next window() /
//     read_batch() call on the same object — streaming sources decode
//     into one reused buffer (stream.h's documented lifetime rule).
//   * util::InternTable::views() returns a span over the id->view
//     table; interning more strings may reallocate that table, so the
//     span must be re-fetched after any intern()/reserve().
//
// util::StringArena is deliberately NOT tracked: its payload never
// relocates, so arena string_views stay valid across appends — that
// stability is the arena's contract, not an oversight here.
//
// Both checks ride the shared invalidation core; this file supplies the
// type and method tables.
#include <string_view>
#include <vector>

#include "analysis/invalidation.h"
#include "analysis/rules.h"

namespace piggyweb::analysis {

namespace {

// --- TraceView family -----------------------------------------------

bool view_advancing_method(std::string_view m) {
  return m == "window" || m == "read_batch";
}

// Spans are returned by value; keeping even a by-value copy across the
// next advancing call dangles, so there is no reference_only table.
bool view_accessor_method(std::string_view m) {
  return m == "window" || m == "read_batch";
}

// --- InternTable ------------------------------------------------------

bool intern_mutating_method(std::string_view m) {
  return m == "intern" || m == "reserve";
}

bool intern_accessor_method(std::string_view m) { return m == "views"; }

}  // namespace

void check_view_invalidation(const SourceFile& file,
                             std::vector<Diagnostic>& out) {
  if (!file.path.starts_with("src/") && !file.path.starts_with("tools/") &&
      !file.path.starts_with("bench/")) {
    return;
  }

  InvalidationConfig views;
  views.rule = "view-after-advance";
  views.type_names = {"TraceView", "MaterializedTraceView",
                      "StreamingTraceSource", "LimitedTraceView",
                      "BinaryTraceReader"};
  views.mutating = view_advancing_method;
  views.accessor = view_accessor_method;
  views.use_after_text =
      "the next window invalidates the previous span (streaming sources "
      "decode into one reused buffer)";
  views.range_for_text =
      "advancing the view invalidates the spans being iterated";
  check_invalidation(file, views, out);

  InvalidationConfig intern;
  intern.rule = "view-after-advance";
  intern.type_names = {"InternTable"};
  intern.mutating = intern_mutating_method;
  intern.accessor = intern_accessor_method;
  intern.use_after_text =
      "interning may reallocate the id->view table; re-fetch views() "
      "after inserts";
  intern.range_for_text =
      "interning may reallocate the id->view table being iterated";
  check_invalidation(file, intern, out);
}

}  // namespace piggyweb::analysis
