// Runtime state of one proxy node in the simulation engine: the cache,
// the per-node application agents (coherency, prefetch, adaptive TTL,
// PCV, informed-fetch log), the filter policy for upstream requests, the
// optional cost-accounted upstream link, and the per-node counters that
// the engine aggregates into its EngineResult.
#pragma once

#include <optional>
#include <vector>

#include "proxy/coherency.h"
#include "proxy/filter_policy.h"
#include "sim/topology.h"

namespace piggyweb::sim {

// Counters accumulated per node over a run. `fresh_hits_served` counts
// requests answered at this node with no upstream traffic; `validations`
// count If-Modified-Since exchanges this node performed against the
// origin (only origin-facing nodes validate).
struct NodeStats {
  std::string name;
  int depth = 0;
  bool is_leaf = false;
  bool is_root = false;

  proxy::CacheStats cache;
  proxy::CoherencyStats coherency;
  proxy::PrefetchStats prefetch;
  proxy::PcvStats pcv;
  net::ConnectionStats connections;  // this node's upstream link

  std::uint64_t fresh_hits_served = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t validations = 0;
  std::uint64_t validations_not_modified = 0;
  std::uint64_t upstream_fetches = 0;

  // Informed fetching: the node's upstream fetch log replayed under the
  // configured discipline and the FIFO baseline (only set when
  // enable_informed_fetch and at least one fetch happened).
  std::optional<proxy::FetchScheduleResult> fetch_schedule;
  std::optional<proxy::FetchScheduleResult> fetch_schedule_fifo;
};

// Engine-internal runtime node. Holds references between members (the
// agents point at the cache), so it is neither copyable nor movable —
// the engine stores unique_ptrs.
class ProxyNode {
 public:
  ProxyNode(const ProxyNodeSpec& spec, int depth);

  ProxyNode(const ProxyNode&) = delete;
  ProxyNode& operator=(const ProxyNode&) = delete;

  // The source identity this node presents upstream for a request that
  // entered the network as `client`.
  util::InternId upstream_source_for(util::InternId client) const {
    return spec.upstream_source.value_or(client);
  }

  ProxyNodeSpec spec;
  int depth = 0;

  proxy::ProxyCache cache;
  proxy::CoherencyAgent coherency;
  proxy::Prefetcher prefetcher;
  proxy::AdaptiveTtl adaptive_ttl;
  proxy::PcvAgent pcv;
  proxy::FilterPolicy filter_policy;

  // Present only when the upstream link is cost-accounted.
  std::optional<net::ConnectionManager> connections;
  std::optional<net::CostModel> cost;

  std::vector<proxy::PendingFetch> fetch_log;

  // Engine-maintained counters (the agent stats live in the agents).
  std::uint64_t fresh_hits_served = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t validations = 0;
  std::uint64_t validations_not_modified = 0;
  std::uint64_t upstream_fetches = 0;
};

}  // namespace piggyweb::sim
