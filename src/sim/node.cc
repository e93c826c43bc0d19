#include "sim/node.h"

namespace piggyweb::sim {
namespace {

proxy::FilterPolicyConfig make_filter_policy_config(
    const ProxyNodeSpec& spec) {
  proxy::FilterPolicyConfig fp;
  fp.base = spec.base_filter;
  fp.rpv = spec.rpv;
  fp.use_rpv = spec.use_rpv;
  fp.min_piggyback_interval = spec.min_piggyback_interval;
  return fp;
}

}  // namespace

ProxyNode::ProxyNode(const ProxyNodeSpec& node_spec, int node_depth)
    : spec(node_spec),
      depth(node_depth),
      cache(spec.cache),
      coherency(cache),
      prefetcher(spec.prefetch, cache),
      adaptive_ttl(spec.adaptive_ttl),
      pcv(spec.pcv, cache),
      filter_policy(make_filter_policy_config(spec)) {
  if (spec.link) {
    connections.emplace(spec.link->persistent_idle_timeout);
    cost.emplace(*spec.link);
  }
}

}  // namespace piggyweb::sim
