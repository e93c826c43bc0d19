// Declarative cache-network topologies for the unified simulation engine.
//
// The paper evaluates two shapes: one proxy in front of the origin
// servers (end-to-end, §4) and a two-level child/parent hierarchy (§5's
// multi-level-cache extension). Cache-network work shows that filter
// and piggyback behaviour changes qualitatively with depth and fan-out, so
// the topology is data here: an arbitrary forest of proxy nodes, each with
// its own cache, application policies, filter preferences, and an optional
// cost-modelled upstream link. Roots talk to the origin servers through
// the transparent volume center that sits on the proxy→origin path (§1's
// deployment story); clients hash onto the leaves.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/filter.h"
#include "core/rpv.h"
#include "net/cost_model.h"
#include "proxy/adaptive_ttl.h"
#include "proxy/cache.h"
#include "proxy/informed_fetch.h"
#include "proxy/pcv.h"
#include "proxy/prefetch.h"
#include "util/time.h"

namespace piggyweb::sim {

// One proxy node of the cache network. `parent` is an index into
// Topology::nodes, or -1 when the node faces the origin servers directly.
struct ProxyNodeSpec {
  std::string name;
  int parent = -1;

  proxy::CacheConfig cache;

  // Per-node application policies (§4), applied to piggybacks this node
  // receives or has relayed to it.
  bool enable_coherency = true;
  bool enable_prefetch = false;
  proxy::PrefetchConfig prefetch;
  bool enable_adaptive_ttl = false;
  proxy::AdaptiveTtlConfig adaptive_ttl;
  bool enable_pcv = false;
  proxy::PcvConfig pcv;

  // Informed fetching (§4): when enabled the node logs every upstream
  // fetch it performs and the engine replays the log through
  // proxy::schedule_fetches against the upstream link bandwidth, under
  // both the configured discipline and the FIFO baseline.
  bool enable_informed_fetch = false;
  proxy::FetchDiscipline fetch_discipline =
      proxy::FetchDiscipline::kShortestFirst;

  // Filter construction for the requests this node sends upstream (only
  // consulted on origin-facing nodes; the filter rides the request the
  // origin sees).
  core::ProxyFilter base_filter;
  core::RpvConfig rpv;
  bool use_rpv = true;
  util::Seconds min_piggyback_interval = 0;  // 0 = always enabled

  // When set, exchanges on this node's upstream link (to its parent, or
  // to the origins for a root) are cost-accounted: persistent
  // connections, packets, bytes, latency. Unset links are free.
  std::optional<net::NetworkConfig> link;

  // Source identity this node presents upstream. Unset = transparent
  // (the original client id rides through, as behind §4's single
  // proxy); set = the node aggregates its clients behind one id (as a
  // hierarchy root does).
  std::optional<util::InternId> upstream_source;
};

struct Topology {
  std::vector<ProxyNodeSpec> nodes;

  // Relay piggybacks from the origin-facing node down the request path,
  // so every cache level gets coherency refreshes/invalidations from a
  // single server message (§5).
  bool relay_to_descendants = true;
};

// Structural queries -------------------------------------------------------

// PW_EXPECTs that the topology is a non-empty forest: parents in range,
// no cycles.
void validate_topology(const Topology& topology);

// Distance from the node to its root (root = 0).
int depth_of(const Topology& topology, int node);

// Nodes with no children, in index order — the client attachment points.
std::vector<int> leaf_indices(const Topology& topology);

// Nodes with parent == -1, in index order.
std::vector<int> root_indices(const Topology& topology);

// Balanced trees -----------------------------------------------------------

// A balanced tree of proxy caches: `depth` levels (1 = a single proxy),
// each inner node with `fanout` children. Node 0 is the root; leaves are
// the deepest level. The root level takes `root_cache` and the leaf level
// `leaf_cache` (a single proxy is a leaf); inner levels take `root_cache`
// with a capacity interpolated geometrically between the two.
struct UniformTreeSpec {
  int depth = 2;
  int fanout = 2;
  proxy::CacheConfig leaf_cache;
  proxy::CacheConfig root_cache;
  core::ProxyFilter base_filter;
  core::RpvConfig rpv;
  bool enable_coherency = true;
  // Cost accounting on the root→origin link; inner links stay free.
  std::optional<net::NetworkConfig> origin_link;
};

Topology uniform_tree_topology(const UniformTreeSpec& spec);

}  // namespace piggyweb::sim
