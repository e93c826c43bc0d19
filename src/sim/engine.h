// Topology-general discrete-event simulation core.
//
// One engine drives the trace's clients through an arbitrary forest of
// proxy caches (sim::Topology) against simulated origin servers, with the
// transparent volume center on the proxy→origin links (§1's deployment
// story). Each request enters at the leaf its source hashes to, walks up
// the ancestor chain until a fresh cache copy is found (the copy then
// flows back down the path), and otherwise reaches the origin; the
// response's piggyback is processed by the origin-facing node's policies
// and optionally relayed down the request path so every cache level gets
// coherency work from a single server message (§5). Cost-accounted links
// model persistent connections, packets and latency.
//
// The end-to-end and hierarchy harnesses are thin topology presets over
// this engine (see sim/end_to_end.h, sim/hierarchy.h); their historical
// counters are pinned bit-identically by tests/sim_golden_regression_test.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "server/meta.h"
#include "server/volume_center.h"
#include "sim/node.h"
#include "sim/topology.h"
#include "trace/synthetic.h"
#include "volume/probability.h"

namespace piggyweb::sim {

// Engine-wide knobs: piggyback generation and the wire-overhead constants
// shared by every link. Per-node behaviour lives in ProxyNodeSpec.
struct EngineConfig {
  bool piggybacking = true;               // master switch (baseline = off)
  volume::DirectoryVolumeConfig volumes;  // volume center scheme
  // When set, the volume center serves piggybacks from this offline-built
  // probability volume set instead of online directory volumes.
  const volume::ProbabilityVolumeSet* probability_volumes = nullptr;
  std::size_t probability_max_candidates = 50;
  std::uint64_t request_overhead_bytes = 200;  // headers etc.
  std::uint64_t response_overhead_bytes = 200;
};

struct EngineResult {
  std::vector<NodeStats> nodes;
  server::VolumeCenterStats center;
  net::ConnectionStats connections;  // merged over all accounted links

  std::uint64_t client_requests = 0;
  std::uint64_t unresolved = 0;      // unknown host / non-site resource
  std::uint64_t server_contacts = 0;
  std::uint64_t validations = 0;
  std::uint64_t validations_not_modified = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t piggyback_bytes = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t total_packets = 0;
  double user_latency_sum = 0;
  double prefetch_latency_sum = 0;

  // Aggregations over the node graph.
  std::uint64_t total_fresh_hits() const;
  std::uint64_t leaf_fresh_hits() const;
  std::uint64_t root_fresh_hits() const;
  proxy::CoherencyStats merged_leaf_coherency() const;
  proxy::CoherencyStats merged_root_coherency() const;

  double overall_hit_rate() const {
    return client_requests == 0
               ? 0.0
               : static_cast<double>(total_fresh_hits()) /
                     static_cast<double>(client_requests);
  }
  double leaf_hit_rate() const {
    return client_requests == 0
               ? 0.0
               : static_cast<double>(leaf_fresh_hits()) /
                     static_cast<double>(client_requests);
  }
  double server_contact_rate() const {
    return client_requests == 0
               ? 0.0
               : static_cast<double>(server_contacts) /
                     static_cast<double>(client_requests);
  }
  double mean_user_latency() const {
    return client_requests == 0
               ? 0.0
               : user_latency_sum / static_cast<double>(client_requests);
  }
};

class SimulationEngine {
 public:
  SimulationEngine(const trace::SyntheticWorkload& workload,
                   const Topology& topology, const EngineConfig& config);

  EngineResult run();

 private:
  // The leaf→…→root node-index chain a request from `source` traverses.
  const std::vector<int>& path_for_source(util::InternId source) const;

  void process_piggyback(const std::vector<int>& path, util::InternId server,
                         const core::PiggybackMessage& message,
                         util::TimePoint now);
  void apply_adaptive_ttl_elements(ProxyNode& node, util::InternId server,
                                   const core::PiggybackMessage& message);

  const trace::SyntheticWorkload& workload_;
  Topology topology_;
  EngineConfig config_;

  std::vector<std::unique_ptr<ProxyNode>> nodes_;
  std::vector<std::vector<int>> leaf_paths_;  // per leaf, leaf→root chain

  server::VolumeCenter center_;
  std::optional<volume::ProbabilityVolumes> probability_provider_;

  // Ground truth per trace server id, filled up front; nullopt for a host
  // with no site model. The volume center fills piggyback elements from
  // the contacted server's oracle (what a cooperating origin knows).
  std::vector<std::optional<server::SiteMetaOracle>> sites_;

  util::TimePoint trace_start_{};
  EngineResult result_;
};

}  // namespace piggyweb::sim
