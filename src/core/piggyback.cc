#include "core/piggyback.h"

#include "core/filter.h"

namespace piggyweb::core {

void VolumeProvider::on_request_batch(
    std::span<const VolumeRequest> requests,
    std::vector<VolumePrediction>& predictions) {
  predictions.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    predictions[i] = on_request(requests[i]);
  }
}

void VolumeProvider::on_request_filtered(const VolumeRequest& request,
                                         const ProxyFilter& filter,
                                         const MetaOracle& meta,
                                         PiggybackMessage& out) {
  apply_filter_into(on_request(request), request, filter, meta, out);
}

}  // namespace piggyweb::core
