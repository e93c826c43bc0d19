#include "sim/engine.h"

#include <string>

#include "core/wire_size.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "util/hash.h"

namespace piggyweb::sim {

namespace {

void merge_coherency(proxy::CoherencyStats& into,
                     const proxy::CoherencyStats& from) {
  into.piggybacks_processed += from.piggybacks_processed;
  into.elements_processed += from.elements_processed;
  into.refreshed += from.refreshed;
  into.invalidated += from.invalidated;
  into.not_cached += from.not_cached;
}

}  // namespace

std::uint64_t EngineResult::total_fresh_hits() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes) total += node.fresh_hits_served;
  return total;
}

std::uint64_t EngineResult::leaf_fresh_hits() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes) {
    if (node.is_leaf && !node.is_root) total += node.fresh_hits_served;
  }
  return total;
}

std::uint64_t EngineResult::root_fresh_hits() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes) {
    if (node.is_root) total += node.fresh_hits_served;
  }
  return total;
}

proxy::CoherencyStats EngineResult::merged_leaf_coherency() const {
  proxy::CoherencyStats merged;
  for (const auto& node : nodes) {
    if (node.is_leaf && !node.is_root) merge_coherency(merged, node.coherency);
  }
  return merged;
}

proxy::CoherencyStats EngineResult::merged_root_coherency() const {
  proxy::CoherencyStats merged;
  for (const auto& node : nodes) {
    if (node.is_root) merge_coherency(merged, node.coherency);
  }
  return merged;
}

SimulationEngine::SimulationEngine(const trace::SyntheticWorkload& workload,
                                   const Topology& topology,
                                   const EngineConfig& config)
    : workload_(workload),
      topology_(topology),
      config_(config),
      center_(config.volumes, workload.trace.paths()),
      sites_(workload.trace.servers().size()) {
  validate_topology(topology_);

  nodes_.reserve(topology_.nodes.size());
  for (std::size_t i = 0; i < topology_.nodes.size(); ++i) {
    nodes_.push_back(std::make_unique<ProxyNode>(
        topology_.nodes[i], depth_of(topology_, static_cast<int>(i))));
  }
  for (const int leaf : leaf_indices(topology_)) {
    std::vector<int> path;
    int node = leaf;
    while (node != -1) {
      path.push_back(node);
      node = topology_.nodes[static_cast<std::size_t>(node)].parent;
    }
    leaf_paths_.push_back(std::move(path));
  }

  // Resolve each trace server id to its site model once.
  const auto& servers = workload.trace.servers();
  for (std::uint32_t id = 0; id < servers.size(); ++id) {
    if (const auto* site = workload.site_for(servers.str(id))) {
      sites_[id].emplace(*site, workload.trace.paths());
    }
  }
  if (config_.probability_volumes != nullptr) {
    probability_provider_.emplace(config_.probability_volumes,
                                  config_.probability_max_candidates);
    center_.set_provider_override(&*probability_provider_);
  }
  if (!workload.trace.requests().empty()) {
    trace_start_ = workload.trace.requests().front().time;
  }
}

const std::vector<int>& SimulationEngine::path_for_source(
    util::InternId source) const {
  return leaf_paths_[util::mix64(source) % leaf_paths_.size()];
}

void SimulationEngine::apply_adaptive_ttl_elements(
    ProxyNode& node, util::InternId server,
    const core::PiggybackMessage& message) {
  for (const auto& element : message.elements) {
    const proxy::CacheKey key{server, element.resource};
    node.adaptive_ttl.observe(key, element.last_modified);
    node.adaptive_ttl.apply_to(node.cache, key);
  }
}

void SimulationEngine::process_piggyback(const std::vector<int>& path,
                                         util::InternId server,
                                         const core::PiggybackMessage& message,
                                         util::TimePoint now) {
  if (message.empty()) return;
  auto& root = *nodes_[static_cast<std::size_t>(path.back())];
  result_.piggyback_bytes +=
      core::piggyback_bytes(message, workload_.trace.paths());
  root.filter_policy.on_piggyback(server, message.volume, now);

  if (root.spec.enable_adaptive_ttl) {
    apply_adaptive_ttl_elements(root, server, message);
  }
  if (root.spec.enable_coherency) {
    root.coherency.process(server, message, now);
  }
  if (root.spec.enable_prefetch) {
    const auto planned = root.prefetcher.plan(server, message, now);
    for (const auto& element : planned) {
      // Background fetch: costs bandwidth/packets but no user latency.
      bool reused = false;
      if (root.connections) {
        reused = root.connections->use(0xfffffffeu, server, now);
      }
      if (root.cost) {
        const auto cost = root.cost->exchange(
            config_.request_overhead_bytes,
            element.size + config_.response_overhead_bytes, reused);
        result_.prefetch_latency_sum += cost.latency_seconds;
        result_.total_packets += cost.packets;
        result_.body_bytes += element.size;
      }
      root.prefetcher.complete(server, element, now);
    }
  }

  // Relay down the request path so lower cache levels see the same
  // server message (§5); each node applies its own enabled policies.
  if (!topology_.relay_to_descendants) return;
  for (std::size_t i = path.size() - 1; i-- > 0;) {
    auto& node = *nodes_[static_cast<std::size_t>(path[i])];
    if (node.spec.enable_adaptive_ttl) {
      apply_adaptive_ttl_elements(node, server, message);
    }
    if (node.spec.enable_coherency) {
      node.coherency.process(server, message, now);
    }
  }
}

namespace {

// Final-result export: reads only the finished EngineResult, so every
// metric is deterministic — the engine is single-threaded and the walk is
// a pure function of (workload, topology, config).
void publish_engine_result(const EngineResult& result) {
  auto* metrics = obs::global_metrics();
  if (metrics == nullptr) return;
  metrics->counter("engine.client_requests").add(result.client_requests);
  metrics->counter("engine.unresolved").add(result.unresolved);
  metrics->counter("engine.server_contacts").add(result.server_contacts);
  metrics->counter("engine.stale_served").add(result.stale_served);
  metrics->counter("engine.validations").add(result.validations);
  metrics->counter("engine.validations_not_modified")
      .add(result.validations_not_modified);
  metrics->counter("engine.piggyback_bytes").add(result.piggyback_bytes);
  metrics->counter("engine.total_packets").add(result.total_packets);
  metrics->counter("engine.body_bytes").add(result.body_bytes);
  metrics->counter("engine.fresh_hits").add(result.total_fresh_hits());
  metrics->counter("engine.connections_opened").add(result.connections.opened);
  metrics->counter("engine.connections_reused").add(result.connections.reused);
  for (const auto& node : result.nodes) {
    const std::string prefix = "engine.node." + node.name + ".";
    metrics->counter(prefix + "fresh_hits_served").add(node.fresh_hits_served);
    metrics->counter(prefix + "stale_served").add(node.stale_served);
    metrics->counter(prefix + "upstream_fetches").add(node.upstream_fetches);
  }
}

}  // namespace

EngineResult SimulationEngine::run() {
  OBS_SPAN("engine.run");
  const auto& trace = workload_.trace;
  obs::Span walk_span(obs::global_tracer(), "engine.request_walk");
  for (const auto& req : trace.requests()) {
    ++result_.client_requests;
    const auto now = req.time;
    const proxy::CacheKey key{req.server, req.path};
    auto& truth = sites_[req.server];
    if (!truth) {  // unknown host: pass-through not modeled
      ++result_.unresolved;
      continue;
    }

    // Resolve ground truth for this resource.
    const auto& site = truth->site();
    const auto res_idx = truth->resolve(req.path);
    if (res_idx >= site.size()) {  // not a site resource
      ++result_.unresolved;
      continue;
    }
    const auto& resource = site.resource(res_idx);
    const auto true_lm = site.last_modified(res_idx, now);

    const auto& path = path_for_source(req.source);

    // Walk up the chain until a fresh copy answers.
    std::size_t serve_pos = path.size();  // path.size() = origin
    auto root_outcome = proxy::LookupOutcome::kMiss;
    for (std::size_t i = 0; i < path.size(); ++i) {
      auto& node = *nodes_[static_cast<std::size_t>(path[i])];
      node.prefetcher.on_client_request(key, now);
      const auto outcome = node.cache.lookup(key, now);
      if (outcome == proxy::LookupOutcome::kFreshHit) {
        serve_pos = i;
        break;
      }
      if (i + 1 == path.size()) root_outcome = outcome;
    }

    if (serve_pos < path.size()) {
      // Served from a cache. Was the copy actually fresh?
      auto& server_node = *nodes_[static_cast<std::size_t>(path[serve_pos])];
      ++server_node.fresh_hits_served;
      const auto cached = server_node.cache.cached_last_modified(key);
      if (cached && *cached < true_lm.value) {
        ++result_.stale_served;
        ++server_node.stale_served;
      }
      // The serving node's copy flows down to every node on the path
      // below it; traversed links with cost models account the transfer.
      for (std::size_t i = serve_pos; i-- > 0;) {
        auto& below = *nodes_[static_cast<std::size_t>(path[i])];
        below.cache.insert(key, resource.size,
                           cached.value_or(true_lm.value), now);
        ++below.upstream_fetches;
        if (below.connections) {
          const bool reused = below.connections->use(
              below.upstream_source_for(req.source), req.server, now);
          const auto cost = below.cost->exchange(
              config_.request_overhead_bytes,
              resource.size + config_.response_overhead_bytes, reused);
          result_.user_latency_sum += cost.latency_seconds;
          result_.total_packets += cost.packets;
        }
        if (below.spec.enable_informed_fetch) {
          below.fetch_log.push_back(
              {below.fetch_log.size(),
               resource.size + config_.response_overhead_bytes,
               static_cast<double>(now - trace_start_)});
        }
      }
      continue;
    }

    // Nobody had a fresh copy: the root contacts the origin (miss = full
    // GET; stale hit = If-Modified-Since).
    ++result_.server_contacts;
    auto& root = *nodes_[static_cast<std::size_t>(path.back())];
    ++root.upstream_fetches;
    bool reused = false;
    if (root.connections) {
      reused = root.connections->use(root.upstream_source_for(req.source),
                                     req.server, now);
    }
    core::ProxyFilter filter;
    if (config_.piggybacking) {
      filter = root.filter_policy.filter_for(req.server, now);
    } else {
      filter.enabled = false;
    }

    std::uint64_t response_body = 0;
    if (root_outcome == proxy::LookupOutcome::kStaleHit) {
      ++root.validations;
      ++result_.validations;
      const auto cached_lm = root.cache.cached_last_modified(key);
      if (cached_lm && *cached_lm >= true_lm.value) {
        ++root.validations_not_modified;  // 304
        ++result_.validations_not_modified;
        root.cache.revalidate(key, now);
      } else {
        response_body = resource.size;  // changed: fresh 200 body
        root.cache.insert(key, resource.size, true_lm.value, now);
      }
    } else {
      response_body = resource.size;
      root.cache.insert(key, resource.size, true_lm.value, now);
    }
    // The fresh copy flows down to the rest of the request path.
    for (std::size_t i = path.size() - 1; i-- > 0;) {
      nodes_[static_cast<std::size_t>(path[i])]->cache.insert(
          key, resource.size, true_lm.value, now);
    }
    for (std::size_t i = path.size(); i-- > 0;) {
      auto& node = *nodes_[static_cast<std::size_t>(path[i])];
      if (node.spec.enable_adaptive_ttl) {
        node.adaptive_ttl.observe(key, true_lm.value);
        node.adaptive_ttl.apply_to(node.cache, key);
      }
    }

    // PCV: batch soon-to-expire entries for this server onto the request;
    // verdicts come back on the same response (one exchange, no extra
    // round trips). The paper's [10] mechanism, driven by ground truth.
    std::uint64_t pcv_bytes = 0;
    if (root.spec.enable_pcv) {
      const auto items = root.pcv.plan(req.server, now);
      if (!items.empty()) {
        core::ValidationReply reply;
        for (const auto& item : items) {
          const auto item_idx = truth->resolve(item.resource);
          if (item_idx >= site.size()) continue;
          const auto current = site.last_modified(item_idx, now).value;
          if (item.last_modified >= current) {
            reply.fresh.push_back(item.resource);
          } else {
            reply.stale.push_back({item.resource, current});
          }
          // ~(url + 8B timestamp) each way, as in the §2.3 accounting.
          pcv_bytes += 2 * (trace.paths().str(item.resource).size() + 8);
        }
        root.pcv.process(req.server, reply, now);
      }
    }

    // The volume center on the path injects the piggyback (filling
    // elements from authoritative metadata).
    truth->set_now(now);
    truth->note_access(req.path);
    core::VolumeRequest exchange;
    exchange.server = req.server;
    exchange.source = root.upstream_source_for(req.source);
    exchange.path = req.path;
    exchange.time = now;
    exchange.size = resource.size;
    exchange.type = resource.type;
    const auto message = center_.observe(exchange, filter, *truth);

    const auto piggy_bytes = core::piggyback_bytes(message, trace.paths());
    result_.piggyback_bytes += pcv_bytes;
    if (root.cost) {
      const auto cost = root.cost->exchange(
          config_.request_overhead_bytes + pcv_bytes / 2,
          response_body + config_.response_overhead_bytes + piggy_bytes +
              pcv_bytes / 2,
          reused);
      result_.user_latency_sum += cost.latency_seconds;
      result_.total_packets += cost.packets;
      result_.body_bytes += response_body;
    }
    if (root.spec.enable_informed_fetch) {
      root.fetch_log.push_back(
          {root.fetch_log.size(),
           response_body + config_.response_overhead_bytes + piggy_bytes +
               pcv_bytes / 2,
           static_cast<double>(now - trace_start_)});
    }
    // Inner links below the root carry the response body downstream.
    for (std::size_t i = path.size() - 1; i-- > 0;) {
      auto& below = *nodes_[static_cast<std::size_t>(path[i])];
      ++below.upstream_fetches;
      if (below.connections) {
        const bool inner_reused = below.connections->use(
            below.upstream_source_for(req.source), req.server, now);
        const auto cost = below.cost->exchange(
            config_.request_overhead_bytes,
            response_body + config_.response_overhead_bytes, inner_reused);
        result_.user_latency_sum += cost.latency_seconds;
        result_.total_packets += cost.packets;
      }
      if (below.spec.enable_informed_fetch) {
        below.fetch_log.push_back(
            {below.fetch_log.size(),
             response_body + config_.response_overhead_bytes,
             static_cast<double>(now - trace_start_)});
      }
    }

    process_piggyback(path, req.server, message, now);
  }
  walk_span.end();

  OBS_SPAN("engine.collect_stats");
  // Collect per-node stats.
  std::vector<bool> is_leaf(nodes_.size(), false);
  for (const int leaf : leaf_indices(topology_)) {
    is_leaf[static_cast<std::size_t>(leaf)] = true;
  }
  result_.nodes.clear();
  result_.nodes.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& node = *nodes_[i];
    NodeStats stats;
    stats.name = node.spec.name;
    stats.depth = node.depth;
    stats.is_leaf = is_leaf[i];
    stats.is_root = node.spec.parent == -1;
    stats.cache = node.cache.stats();
    stats.coherency = node.coherency.stats();
    stats.prefetch = node.prefetcher.stats();
    stats.pcv = node.pcv.stats();
    if (node.connections) {
      stats.connections = node.connections->stats();
      result_.connections.opened += stats.connections.opened;
      result_.connections.reused += stats.connections.reused;
    }
    stats.fresh_hits_served = node.fresh_hits_served;
    stats.stale_served = node.stale_served;
    stats.validations = node.validations;
    stats.validations_not_modified = node.validations_not_modified;
    stats.upstream_fetches = node.upstream_fetches;
    if (node.spec.enable_informed_fetch && !node.fetch_log.empty()) {
      // Replay the node's upstream fetch log through the single-bottleneck
      // scheduler, informed discipline vs the FIFO baseline (§4).
      const double bandwidth =
          node.spec.link ? node.spec.link->bandwidth_bytes_per_sec
                         : net::NetworkConfig{}.bandwidth_bytes_per_sec;
      stats.fetch_schedule = proxy::schedule_fetches(
          node.fetch_log, bandwidth, node.spec.fetch_discipline);
      stats.fetch_schedule_fifo = proxy::schedule_fetches(
          node.fetch_log, bandwidth, proxy::FetchDiscipline::kFifo);
    }
    result_.nodes.push_back(std::move(stats));
  }
  result_.center = center_.stats();
  publish_engine_result(result_);
  return result_;
}

}  // namespace piggyweb::sim
