#include "volume/probability.h"

#include <algorithm>

#include "core/filter.h"
#include "trace/stream.h"
#include "util/expect.h"
#include "util/strings.h"

namespace piggyweb::volume {

void ProbabilityVolumeSet::add_volume(util::InternId r,
                                      std::vector<VolumeEntry> entries) {
  PW_EXPECT(!entries.empty());
  id_of_.try_emplace(r, static_cast<core::VolumeId>(id_of_.size()));
  volumes_[r] = std::move(entries);
}

const std::vector<VolumeEntry>* ProbabilityVolumeSet::volume_of(
    util::InternId r) const {
  const auto it = volumes_.find(r);
  return it == volumes_.end() ? nullptr : &it->second;
}

core::VolumeId ProbabilityVolumeSet::volume_id(util::InternId r) const {
  const auto it = id_of_.find(r);
  return it == id_of_.end() ? core::kNoVolume : it->second;
}

VolumeSetStats ProbabilityVolumeSet::stats() const {
  VolumeSetStats s;
  s.volumes = volumes_.size();
  std::size_t self = 0;
  std::size_t symmetric = 0;
  util::FlatMap<util::InternId, std::size_t> memberships;
  for (const auto& [r, entries] : volumes_) {
    s.total_entries += entries.size();
    for (const auto& e : entries) {
      ++memberships[e.resource];
      if (e.resource == r) {
        ++self;
        continue;
      }
      if (const auto* other = volume_of(e.resource)) {
        const bool has_r = std::any_of(
            other->begin(), other->end(),
            [r_id = r](const VolumeEntry& oe) {
              return oe.resource == r_id;
            });
        if (has_r) ++symmetric;
      }
    }
  }
  if (s.volumes > 0) {
    s.avg_volume_size = static_cast<double>(s.total_entries) /
                        static_cast<double>(s.volumes);
    s.self_fraction =
        static_cast<double>(self) / static_cast<double>(s.volumes);
  }
  if (s.total_entries > 0) {
    s.symmetric_fraction = static_cast<double>(symmetric) /
                           static_cast<double>(s.total_entries);
  }
  if (!memberships.empty()) {
    std::size_t total = 0;
    for (const auto& [res, n] : memberships) total += n;
    s.avg_volumes_per_resource = static_cast<double>(total) /
                                 static_cast<double>(memberships.size());
  }
  return s;
}

ProbabilityVolumeSet build_probability_volumes(
    const trace::Trace& trace, const PairCounts& counts,
    const ProbabilityVolumeConfig& config) {
  trace::MaterializedTraceView view(trace);
  return build_probability_volumes(view, counts, config);
}

ProbabilityVolumeSet build_probability_volumes(
    trace::TraceView& view, const PairCounts& counts,
    const ProbabilityVolumeConfig& config) {
  PW_EXPECT(config.probability_threshold > 0);

  // Candidate volumes: all counted pairs passing p_t (and the prefix
  // restriction when combining).
  util::FlatMap<util::InternId, std::vector<VolumeEntry>> candidates;
  const auto paths = view.paths();
  const auto prefix_of = [&](util::InternId path) {
    return util::directory_prefix(paths.str(path),
                                  config.combine_prefix_level);
  };
  for (const auto& [key, pc] : counts.pairs()) {
    const auto r = static_cast<util::InternId>(key >> 32);
    const auto s = static_cast<util::InternId>(key & 0xffffffffu);
    const double p = counts.probability(r, s);
    if (p < config.probability_threshold) continue;
    if (config.combine_prefix_level > 0 && prefix_of(r) != prefix_of(s)) {
      continue;
    }
    candidates[r].push_back({s, p, 0.0});
  }

  // Effectiveness pass: replay the trace; an implication r -> s is
  // "effective" at an r-request when s is not already in predicted state
  // for that source (no volume mentioned s within the last T seconds).
  if (config.effectiveness_threshold > 0 && !candidates.empty()) {
    util::FlatMap<std::uint64_t, std::uint64_t> effective;  // pair key
    // (source, resource) -> last time any volume predicted the resource.
    // An entry more than the window old reads as absent from then on, so
    // the pass drops those once per window of trace time and the table
    // holds the pairs predicted within about two windows.
    util::FlatMap<std::uint64_t, util::Seconds> last_predicted;
    const auto state_key = [](util::InternId source, util::InternId res) {
      return (static_cast<std::uint64_t>(source) << 32) | res;
    };
    const auto sweep_interval = std::max<util::Seconds>(config.window, 1);
    bool started = false;
    util::Seconds last_sweep = 0;
    // Replay one bounded window at a time — the pass only needs (time,
    // source, path) in time order, so streaming views train in O(window)
    // request memory.
    constexpr std::size_t kEffectivenessWindow = 4096;
    const auto total = view.request_count();
    for (std::size_t base = 0; base < total; base += kEffectivenessWindow) {
      const auto n = std::min(kEffectivenessWindow, total - base);
      for (const auto& req : view.window(base, n)) {
        const auto t = req.time.value;
        if (!started) {
          started = true;
          last_sweep = t;
        }
        // Dropping is exact only if no later request comes earlier.
        PW_EXPECT(t >= last_sweep);
        // A difference, not last_sweep + window: the window may be as
        // large as 2^63 - 2.
        if (t - last_sweep >= sweep_interval) {
          last_sweep = t;
          last_predicted.erase_if([&config, t](const auto& kv) {
            return t - kv.second > config.window;
          });
        }
        const auto it = candidates.find(req.path);
        if (it == candidates.end()) continue;
        for (const auto& entry : it->second) {
          const auto sk = state_key(req.source, entry.resource);
          const auto [lp, inserted] = last_predicted.try_emplace(sk, t);
          if (inserted || t - lp->second > config.window) {
            ++effective[PairCounts::key(req.path, entry.resource)];
          }
          lp->second = t;
        }
      }
    }
    for (auto& [r, entries] : candidates) {
      const auto cr = counts.occurrences(r);
      for (auto& entry : entries) {
        const auto eff_it =
            effective.find(PairCounts::key(r, entry.resource));
        const auto eff =
            eff_it == effective.end() ? 0 : eff_it->second;
        entry.effectiveness =
            cr == 0 ? 0.0
                    : static_cast<double>(eff) / static_cast<double>(cr);
      }
      std::erase_if(entries, [&config](const VolumeEntry& e) {
        return e.effectiveness < config.effectiveness_threshold;
      });
    }
  }

  ProbabilityVolumeSet set;
  for (auto& [r, entries] : candidates) {
    if (entries.empty()) continue;
    std::sort(entries.begin(), entries.end(),
              [](const VolumeEntry& a, const VolumeEntry& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return a.resource < b.resource;
              });
    if (config.max_entries_per_volume > 0 &&
        entries.size() > config.max_entries_per_volume) {
      entries.resize(config.max_entries_per_volume);
    }
    set.add_volume(r, std::move(entries));
  }
  return set;
}

void ProbabilityVolumes::predict_into(const core::VolumeRequest& request,
                                      core::VolumePrediction& out) const {
  out.volume = core::kNoVolume;
  out.resources.clear();
  out.probs.clear();
  const auto* entries = set_->volume_of(request.path);
  if (entries == nullptr) return;
  out.volume = set_->volume_id(request.path);
  const auto n = std::min(entries->size(), max_candidates_);
  out.resources.reserve(n);
  out.probs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.resources.push_back((*entries)[i].resource);
    out.probs.push_back((*entries)[i].probability);
  }
}

core::VolumePrediction ProbabilityVolumes::on_request(
    const core::VolumeRequest& request) {
  core::VolumePrediction prediction;
  predict_into(request, prediction);
  return prediction;
}

void ProbabilityVolumes::on_request_batch(
    std::span<const core::VolumeRequest> requests,
    std::vector<core::VolumePrediction>& predictions) {
  predictions.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    predict_into(requests[i], predictions[i]);
  }
}

void ProbabilityVolumes::on_request_filtered(
    const core::VolumeRequest& request, const core::ProxyFilter& filter,
    const core::MetaOracle& meta, core::PiggybackMessage& out) {
  core::MessageFilter message(request, filter, meta, out);
  const auto* entries = set_->volume_of(request.path);
  if (entries != nullptr && message.open(set_->volume_id(request.path))) {
    const auto n = std::min(entries->size(), max_candidates_);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& entry = (*entries)[i];
      if (!message.offer(entry.resource, entry.probability)) break;
    }
  }
  message.close();
}

}  // namespace piggyweb::volume
