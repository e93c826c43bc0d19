#include "obs/registry.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "util/expect.h"

namespace piggyweb::obs {

void Gauge::set_max(double value) {
  double current = value_.load(std::memory_order_relaxed);
  while (value > current &&
         !value_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

Counter& Registry::counter(std::string_view name, bool deterministic) {
  auto entries = entries_.lock();
  auto it = entries->find(name);
  if (it == entries->end()) {
    Entry entry{Kind::kCounter, deterministic, std::make_unique<Counter>(),
                nullptr, nullptr};
    it = entries->emplace(std::string(name), std::move(entry)).first;
  }
  PW_EXPECT(it->second.kind == Kind::kCounter);
  return *it->second.counter;
}

Gauge& Registry::gauge(std::string_view name, bool deterministic) {
  auto entries = entries_.lock();
  auto it = entries->find(name);
  if (it == entries->end()) {
    Entry entry{Kind::kGauge, deterministic, nullptr,
                std::make_unique<Gauge>(), nullptr};
    it = entries->emplace(std::string(name), std::move(entry)).first;
  }
  PW_EXPECT(it->second.kind == Kind::kGauge);
  return *it->second.gauge;
}

LogHistogram& Registry::log_histogram(std::string_view name, double lo,
                                      double hi,
                                      std::size_t buckets_per_decade,
                                      bool deterministic) {
  auto entries = entries_.lock();
  auto it = entries->find(name);
  if (it == entries->end()) {
    Entry entry{Kind::kLogHistogram, deterministic, nullptr, nullptr,
                std::make_unique<LogHistogram>(lo, hi, buckets_per_decade)};
    it = entries->emplace(std::string(name), std::move(entry)).first;
  }
  PW_EXPECT(it->second.kind == Kind::kLogHistogram);
  return *it->second.log_histogram;
}

void Registry::merge_from(const Registry& other) {
  // Snapshot the other registry's entry pointers under its lock, then
  // merge without holding it (metric updates are internally synchronized).
  std::vector<std::pair<std::string, const Entry*>> names;
  {
    const auto entries = other.entries_.lock();
    names.reserve(entries->size());
    for (const auto& [name, entry] : *entries) {
      names.emplace_back(name, &entry);
    }
  }
  for (const auto& [name, entry] : names) {
    switch (entry->kind) {
      case Kind::kCounter:
        counter(name, entry->deterministic).add(entry->counter->value());
        break;
      case Kind::kGauge:
        gauge(name, entry->deterministic).set_max(entry->gauge->value());
        break;
      case Kind::kLogHistogram:
        log_histogram(name, entry->log_histogram->lo(),
                      entry->log_histogram->hi(),
                      entry->log_histogram->buckets_per_decade(),
                      entry->deterministic)
            .merge_from(*entry->log_histogram);
        break;
    }
  }
}

std::size_t Registry::metric_count() const {
  return entries_.lock()->size();
}

Json Registry::snapshot() const {
  auto counters = Json::array();
  auto gauges = Json::array();
  auto histograms = Json::array();
  const auto entries = entries_.lock();
  for (const auto& [name, entry] : *entries) {
    auto item = Json::object();
    item.set("name", name);
    switch (entry.kind) {
      case Kind::kCounter:
        item.set("value", entry.counter->value());
        item.set("deterministic", entry.deterministic);
        counters.push_back(std::move(item));
        break;
      case Kind::kGauge:
        item.set("value", entry.gauge->value());
        item.set("deterministic", entry.deterministic);
        gauges.push_back(std::move(item));
        break;
      case Kind::kLogHistogram: {
        const auto& h = *entry.log_histogram;
        item.set("scale", "log");
        item.set("count", h.count());
        item.set("sum", h.sum());
        item.set("mean", h.mean());
        item.set("min", h.min());
        item.set("max", h.max());
        item.set("p50", h.percentile(0.50));
        item.set("p90", h.percentile(0.90));
        item.set("p99", h.percentile(0.99));
        item.set("p999", h.percentile(0.999));
        item.set("lo", h.lo());
        item.set("hi", h.hi());
        item.set("buckets_per_decade", h.buckets_per_decade());
        auto buckets_json = Json::array();
        for (const auto c : h.bucket_counts()) buckets_json.push_back(c);
        item.set("buckets", std::move(buckets_json));
        item.set("deterministic", entry.deterministic);
        histograms.push_back(std::move(item));
        break;
      }
    }
  }
  auto out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

std::string Registry::to_json(int indent) const {
  return snapshot().dump(indent);
}

namespace {

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out = "_" + out;
  return out;
}

void append_prometheus_number(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace

std::string Registry::to_prometheus() const {
  std::string out;
  const auto entries = entries_.lock();
  for (const auto& [name, entry] : *entries) {
    const auto metric = prometheus_name(name);
    switch (entry.kind) {
      case Kind::kCounter:
        out += "# TYPE " + metric + " counter\n";
        out += metric + " " + std::to_string(entry.counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + metric + " gauge\n";
        out += metric + " ";
        append_prometheus_number(out, entry.gauge->value());
        out += "\n";
        break;
      case Kind::kLogHistogram: {
        const auto& h = *entry.log_histogram;
        const auto counts = h.bucket_counts();
        out += "# TYPE " + metric + " histogram\n";
        // le edges: lo covers the underflow bucket, then each interior
        // bucket's upper edge; overflow folds into +Inf.
        std::uint64_t cumulative = counts[0];
        out += metric + "_bucket{le=\"";
        append_prometheus_number(out, h.lo());
        out += "\"} " + std::to_string(cumulative) + "\n";
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          cumulative += counts[i + 1];
          out += metric + "_bucket{le=\"";
          append_prometheus_number(out, h.edge(i + 1));
          out += "\"} " + std::to_string(cumulative) + "\n";
        }
        out += metric + "_bucket{le=\"+Inf\"} " +
               std::to_string(h.count()) + "\n";
        out += metric + "_sum ";
        append_prometheus_number(out, h.sum());
        out += "\n";
        out += metric + "_count " + std::to_string(h.count()) + "\n";
        // Precomputed quantiles as companion gauges, so a scrape needs
        // no server-side histogram_quantile() to see the tail.
        const std::pair<const char*, double> quantiles[] = {
            {"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99},
            {"_p999", 0.999}};
        for (const auto& [suffix, q] : quantiles) {
          out += "# TYPE " + metric + suffix + " gauge\n";
          out += metric + suffix + " ";
          append_prometheus_number(out, h.percentile(q));
          out += "\n";
        }
        out += "# TYPE " + metric + "_max gauge\n";
        out += metric + "_max ";
        append_prometheus_number(out, h.max());
        out += "\n";
        break;
      }
    }
  }
  return out;
}

namespace {
std::atomic<Registry*> g_metrics{nullptr};
}  // namespace

Registry* global_metrics() {
  return g_metrics.load(std::memory_order_acquire);
}

void set_global_metrics(Registry* registry) {
  g_metrics.store(registry, std::memory_order_release);
}

}  // namespace piggyweb::obs
