#include "core/filter.h"

#include <algorithm>

namespace piggyweb::core {

void apply_filter_into(const VolumePrediction& prediction,
                       const VolumeRequest& request, const ProxyFilter& filter,
                       const MetaOracle& meta, PiggybackMessage& out) {
  MessageFilter message(request, filter, meta, out);
  if (message.open(prediction.volume)) {
    const auto& resources = prediction.resources;
    out.elements.reserve(
        std::min<std::size_t>(resources.size(), filter.max_elements));
    const bool has_probs = prediction.probs.size() == resources.size();
    for (std::size_t i = 0; i < resources.size(); ++i) {
      const auto probability =
          has_probs ? std::optional<double>(prediction.probs[i])
                    : std::nullopt;
      if (!message.offer(resources[i], probability)) break;
    }
  }
  message.close();
}

PiggybackMessage apply_filter(const VolumePrediction& prediction,
                              const VolumeRequest& request,
                              const ProxyFilter& filter,
                              const MetaOracle& meta) {
  PiggybackMessage message;
  apply_filter_into(prediction, request, filter, meta, message);
  return message;
}

}  // namespace piggyweb::core
