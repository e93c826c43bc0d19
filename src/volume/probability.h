// Probability-based volumes (§3.3) with effectiveness thinning.
//
// volume(r) = { s : p(s|r) >= p_t }, built offline from pair counters over
// a training trace (the paper applied a single set of volumes for the
// duration of each log). Thinning drops implications whose predictions are
// almost always *redundant* — s was already in a predicted state when r
// fired — which shrinks piggyback messages and, per §3.3.2, restores the
// monotone precision/size trade-off. "Combined" volumes additionally drop
// pairs that do not share a 1-level directory prefix.
#pragma once

#include <vector>

#include "core/piggyback.h"
#include "util/flat_map.h"
#include "volume/pair_counter.h"

namespace piggyweb::trace {
class TraceView;
}

namespace piggyweb::volume {

struct ProbabilityVolumeConfig {
  double probability_threshold = 0.2;  // p_t
  // Drop implications with effective probability below this (0 = keep all).
  double effectiveness_threshold = 0.0;
  // Require r and s to share this directory-prefix level (0 = off). This is
  // the "combined" scheme when the pair counts themselves were unrestricted.
  int combine_prefix_level = 0;
  util::Seconds window = 300;          // T, used by the effectiveness pass
  std::size_t max_candidates = 200;
  // Hard cap on entries per volume, keeping the highest-probability ones
  // (a §5-style additional thinning technique; 0 = uncapped).
  std::size_t max_entries_per_volume = 0;
};

struct VolumeEntry {
  util::InternId resource;
  double probability;      // p(s|r)
  double effectiveness;    // effective probability (0 if pass skipped)
};

struct VolumeSetStats {
  std::size_t volumes = 0;            // resources with non-empty volumes
  std::size_t total_entries = 0;
  double avg_volume_size = 0;
  double self_fraction = 0;           // resources contained in own volume
  double symmetric_fraction = 0;      // entries (r,s) with s's volume ∋ r
  double avg_volumes_per_resource = 0;
};

// The offline-built volume table: resource id -> entries sorted by
// descending probability.
class ProbabilityVolumeSet {
 public:
  // Register a (non-empty) volume for resource r, assigning the next
  // dense volume id. Used by the builder and the serialization loader; a
  // second registration for the same resource replaces the entries but
  // keeps the id.
  void add_volume(util::InternId r, std::vector<VolumeEntry> entries);

  const std::vector<VolumeEntry>* volume_of(util::InternId r) const;
  core::VolumeId volume_id(util::InternId r) const;  // kNoVolume if none

  std::size_t volume_count() const { return id_of_.size(); }
  VolumeSetStats stats() const;

  // Iteration support for stats/tests.
  const util::FlatMap<util::InternId, std::vector<VolumeEntry>>& volumes()
      const {
    return volumes_;
  }

 private:
  util::FlatMap<util::InternId, std::vector<VolumeEntry>> volumes_;
  util::FlatMap<util::InternId, core::VolumeId> id_of_;
};

// Build volumes from counters. When config.effectiveness_threshold > 0 a
// second pass over `trace` measures, for every candidate implication
// (r -> s), how often r's prediction of s was new (s not predicted for
// that source within the last T seconds); entries whose effective
// probability (new predictions / c(r)) falls below the threshold are
// dropped.
ProbabilityVolumeSet build_probability_volumes(
    const trace::Trace& trace, const PairCounts& counts,
    const ProbabilityVolumeConfig& config);

// Batch-cursor variant: the effectiveness pass replays the view one
// bounded window at a time, so a streaming (mmap-backed) trace trains
// without materializing. Bit-identical to the Trace overload, which
// delegates here.
ProbabilityVolumeSet build_probability_volumes(
    trace::TraceView& view, const PairCounts& counts,
    const ProbabilityVolumeConfig& config);

// Provider adapter: candidates are the precomputed volume entries, best
// (highest-probability) first. Stateless per request.
class ProbabilityVolumes final : public core::VolumeProvider {
 public:
  ProbabilityVolumes(const ProbabilityVolumeSet* set,
                     std::size_t max_candidates)
      : set_(set), max_candidates_(max_candidates) {}

  core::VolumePrediction on_request(
      const core::VolumeRequest& request) override;

  // Reuses the candidate/probability vectors staged in `predictions`.
  void on_request_batch(
      std::span<const core::VolumeRequest> requests,
      std::vector<core::VolumePrediction>& predictions) override;

  // Offers the stored entries, best first, straight to the filter,
  // stopping once the message is full or max_candidates have been offered.
  void on_request_filtered(const core::VolumeRequest& request,
                           const core::ProxyFilter& filter,
                           const core::MetaOracle& meta,
                           core::PiggybackMessage& out) override;

  std::size_t volume_count() const override { return set_->volume_count(); }
  const char* scheme_name() const override { return "probability"; }

 private:
  void predict_into(const core::VolumeRequest& request,
                    core::VolumePrediction& out) const;

  const ProbabilityVolumeSet* set_;
  std::size_t max_candidates_;
};

}  // namespace piggyweb::volume
