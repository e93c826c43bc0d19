// MetaOracle implementations — where piggyback-element metadata (size,
// Last-Modified, content type, access count) comes from. There is one per
// source of truth (§2.1):
//
//   * SiteMetaOracle: backed by the synthetic SiteModel ground truth plus
//     online access counters — what a real origin server knows from its
//     file system.
//   * TraceMetaOracle: learned from observed requests — what a transparent
//     volume center (§1, §5) can know, and how the paper's evaluation knows
//     access counts ("a filter of 100 means resources accessed less than
//     100 times in the entire trace are not piggybacked").
#pragma once

#include <cstdint>
#include <span>

#include "core/filter.h"
#include "trace/record.h"
#include "trace/synthetic.h"
#include "util/flat_map.h"

namespace piggyweb::server {

// Ground-truth oracle for one simulated site. Each path id is resolved to
// the site resource once, by resolve() or note_access(); access counts
// accumulate as note_access() is called; Last-Modified is evaluated lazily
// at the time of the piggyback (set via set_now()).
class SiteMetaOracle final : public core::MetaOracle {
 public:
  SiteMetaOracle(const trace::SiteModel& site, const util::InternTable& paths)
      : site_(site), paths_(paths) {}

  const trace::SiteModel& site() const { return site_; }

  // The site's resource index for `path`, or site().size() when the path
  // is not one of its resources.
  std::uint32_t resolve(util::InternId path) { return entry(path).index; }

  void set_now(util::TimePoint now) { now_ = now; }
  void note_access(util::InternId path) { ++entry(path).accesses; }

  // A path never resolved here (a probability volume may offer trained
  // paths this server never served) is resolved for the call but not
  // stored. A path that is not a site resource gives empty metadata.
  core::ResourceMeta lookup(util::InternId /*server*/,
                            util::InternId resource) const override;

 private:
  struct Entry {
    std::uint32_t index = 0;
    std::uint64_t accesses = 0;
  };
  Entry& entry(util::InternId path);

  const trace::SiteModel& site_;
  const util::InternTable& paths_;
  util::TimePoint now_{};
  util::FlatMap<util::InternId, Entry> entries_;
};

// Oracle learned from observed requests: sizes are the largest observed
// 200-response body, access counts are totals over what was observed,
// Last-Modified the newest observed value. Works for multi-server traces
// (keys combine server and resource ids). Backed by a flat table — the
// filter performs up to max_elements lookups per request, so this is on
// the replay hot path.
//
// Construction: default-construct, then feed requests through
// observe_window() one batch at a time — a whole trace for the evaluation
// benches, or one exchange at a time for an online volume center (any
// batch partition gives the same table — every field is an
// order-independent fold). The Trace constructor is the one-shot form of
// the same pass.
class TraceMetaOracle final : public core::MetaOracle {
 public:
  TraceMetaOracle() = default;
  explicit TraceMetaOracle(const trace::Trace& trace);

  // Folds one span of requests into the table. `paths` must be the id ->
  // string table the requests' path ids resolve against.
  void observe_window(std::span<const trace::Request> window,
                      util::StringTableView paths);

  core::ResourceMeta lookup(util::InternId server,
                            util::InternId resource) const override;

 private:
  static std::uint64_t key(util::InternId server, util::InternId resource) {
    return (static_cast<std::uint64_t>(server) << 32) | resource;
  }
  util::FlatMap<std::uint64_t, core::ResourceMeta> meta_;
};

}  // namespace piggyweb::server
