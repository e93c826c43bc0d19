// Differential tests for VolumeProvider::on_request_filtered: twin
// providers see the same randomized requests, one through the batch path
// (on_request, then apply_filter_into over the whole capped candidate
// list) and one through the cursor, which stops offering candidates once
// the message is full. Every message must match element for element,
// under random filters that reject: disabled, RPV hits, max_elements 0, 1
// or k, and size, type, access-count and probability limits. Requests
// share seconds, cover every type and size class (so elements migrate
// between partitions) and overflow small volumes (so trim runs).
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/filter.h"
#include "util/rng.h"
#include "volume/directory.h"
#include "volume/popularity.h"
#include "volume/probability.h"

namespace piggyweb {
namespace {

constexpr std::size_t kResources = 40;

// Random but fixed metadata per resource.
class TableMeta final : public core::MetaOracle {
 public:
  explicit TableMeta(util::Rng& rng) {
    for (std::size_t r = 0; r < kResources; ++r) {
      core::ResourceMeta meta;
      meta.size = 100 + rng.below(20000);
      meta.last_modified = static_cast<std::int64_t>(rng.below(1000000));
      meta.type = static_cast<trace::ContentType>(rng.below(3));
      meta.access_count = rng.below(30);
      table_.push_back(meta);
    }
  }
  core::ResourceMeta lookup(util::InternId /*server*/,
                            util::InternId resource) const override {
    return resource < table_.size() ? table_[resource] : core::ResourceMeta{};
  }

 private:
  std::vector<core::ResourceMeta> table_;
};

// A filter that rejects in one or more ways, or not at all. Volume ids
// below `volumes` are candidates for the RPV list.
core::ProxyFilter random_filter(util::Rng& rng, std::size_t volumes) {
  core::ProxyFilter filter;
  filter.enabled = !rng.chance(0.05);
  switch (rng.below(4)) {
    case 0:
      filter.max_elements = 0;
      break;
    case 1:
      filter.max_elements = 1;
      break;
    case 2:
      filter.max_elements = static_cast<std::uint32_t>(2 + rng.below(8));
      break;
    default:
      break;  // unlimited
  }
  if (rng.chance(0.3)) {
    for (std::uint64_t i = 0, n = 1 + rng.below(3); i < n; ++i) {
      filter.rpv.push_back(static_cast<core::VolumeId>(rng.below(volumes)));
    }
  }
  if (rng.chance(0.3)) filter.max_size = 100 + rng.below(20000);
  if (rng.chance(0.2)) filter.allow_html = false;
  if (rng.chance(0.2)) filter.allow_image = false;
  if (rng.chance(0.2)) filter.allow_other = false;
  if (rng.chance(0.3)) {
    filter.min_access_count = static_cast<std::uint32_t>(rng.below(30));
  }
  if (rng.chance(0.3)) filter.probability_threshold = rng.uniform();
  return filter;
}

// Requests over kResources paths spread across a small directory tree,
// with timestamps that repeat.
struct RequestStream {
  util::InternTable paths;
  util::Seconds now = 0;

  RequestStream() {
    const char* const dirs[] = {"", "/a", "/a/x", "/b", "/b/y/z"};
    for (std::size_t r = 0; r < kResources; ++r) {
      paths.intern(std::string(dirs[r % 5]) + "/r" + std::to_string(r));
    }
  }

  core::VolumeRequest next(util::Rng& rng) {
    now += static_cast<util::Seconds>(rng.below(3));  // 0: same second
    core::VolumeRequest request;
    request.server = static_cast<util::InternId>(rng.below(2));
    request.source = static_cast<util::InternId>(rng.below(5));
    request.path = static_cast<util::InternId>(rng.below(kResources));
    request.time = {now};
    request.size = rng.chance(0.5) ? 100 : 10000;  // both size classes
    request.type = static_cast<trace::ContentType>(rng.below(3));
    return request;
  }
};

void expect_same_message(const core::PiggybackMessage& batch,
                         const core::PiggybackMessage& cursor, int op) {
  ASSERT_EQ(batch.volume, cursor.volume) << "op " << op;
  ASSERT_EQ(batch.elements.size(), cursor.elements.size()) << "op " << op;
  for (std::size_t i = 0; i < batch.elements.size(); ++i) {
    const auto& b = batch.elements[i];
    const auto& c = cursor.elements[i];
    ASSERT_EQ(b.resource, c.resource) << "op " << op << " slot " << i;
    ASSERT_EQ(b.size, c.size) << "op " << op << " slot " << i;
    ASSERT_EQ(b.last_modified, c.last_modified) << "op " << op;
    ASSERT_EQ(b.probability, c.probability) << "op " << op;
  }
}

// Drives `batch` and `cursor` with the same requests and filters.
void run_twins(core::VolumeProvider& batch, core::VolumeProvider& cursor,
               RequestStream& stream, util::Rng& rng, std::size_t volumes) {
  const TableMeta meta(rng);
  core::PiggybackMessage from_batch;
  core::PiggybackMessage from_cursor;
  for (int op = 0; op < 3000; ++op) {
    const auto request = stream.next(rng);
    const auto filter = random_filter(rng, volumes);
    core::apply_filter_into(batch.on_request(request), request, filter, meta,
                            from_batch);
    cursor.on_request_filtered(request, filter, meta, from_cursor);
    expect_same_message(from_batch, from_cursor, op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

struct DirectoryShape {
  int level;
  std::size_t max_volume_elements;
  std::size_t max_candidates;
};

const DirectoryShape kDirectoryShapes[] = {
    {0, 2000, 200}, {0, 6, 4}, {1, 4, 7}, {2, 3, 3}, {1, 8, 0}, {0, 12, 1},
};

TEST(OnRequestFiltered, DirectoryMatchesBatchPath) {
  std::uint64_t seed = 0xC0;
  for (const auto& shape : kDirectoryShapes) {
    volume::DirectoryVolumeConfig config;
    config.level = shape.level;
    config.max_volume_elements = shape.max_volume_elements;
    config.max_candidates = shape.max_candidates;
    config.large_size_threshold = 8192;
    RequestStream stream;
    volume::DirectoryVolumes batch(config);
    volume::DirectoryVolumes cursor(config);
    batch.bind_paths(stream.paths);
    cursor.bind_paths(stream.paths);
    util::Rng rng(++seed);
    SCOPED_TRACE("level " + std::to_string(shape.level) + " max_volume " +
                 std::to_string(shape.max_volume_elements) +
                 " max_candidates " + std::to_string(shape.max_candidates));
    run_twins(batch, cursor, stream, rng, 12);
    if (HasFatalFailure()) return;
    EXPECT_EQ(batch.volume_count(), cursor.volume_count());
  }
}

// Volumes for most resources: random entries, best (highest probability)
// first, as the builder stores them.
volume::ProbabilityVolumeSet random_volume_set(util::Rng& rng) {
  volume::ProbabilityVolumeSet set;
  for (std::size_t r = 0; r < kResources; ++r) {
    if (rng.chance(0.2)) continue;
    std::vector<volume::VolumeEntry> entries;
    for (std::uint64_t i = 0, n = 1 + rng.below(12); i < n; ++i) {
      entries.push_back({static_cast<util::InternId>(rng.below(kResources)),
                         rng.uniform(), 0.0});
    }
    std::sort(entries.begin(), entries.end(),
              [](const volume::VolumeEntry& a, const volume::VolumeEntry& b) {
                return a.probability > b.probability;
              });
    set.add_volume(static_cast<util::InternId>(r), std::move(entries));
  }
  return set;
}

TEST(OnRequestFiltered, ProbabilityMatchesBatchPath) {
  std::uint64_t seed = 0xB0;
  for (const std::size_t max_candidates : {200u, 5u, 1u, 0u}) {
    util::Rng rng(++seed);
    const auto set = random_volume_set(rng);
    volume::ProbabilityVolumes batch(&set, max_candidates);
    volume::ProbabilityVolumes cursor(&set, max_candidates);
    RequestStream stream;
    SCOPED_TRACE("max_candidates " + std::to_string(max_candidates));
    run_twins(batch, cursor, stream, rng, set.volume_count());
    if (HasFatalFailure()) return;
  }
}

// PopularityVolumes keeps the default on_request_filtered, so this pins
// the base class's contract.
TEST(OnRequestFiltered, DefaultPathMatchesBatchPath) {
  volume::DirectoryVolumeConfig config;
  config.max_volume_elements = 5;
  config.max_candidates = 3;
  RequestStream stream;
  volume::DirectoryVolumes batch_primary(config);
  volume::DirectoryVolumes cursor_primary(config);
  batch_primary.bind_paths(stream.paths);
  cursor_primary.bind_paths(stream.paths);
  volume::PopularityVolumeConfig popular;
  popular.top_n = 6;
  popular.min_primary = 3;
  popular.volume_id = 11;
  volume::PopularityVolumes batch(popular, batch_primary);
  volume::PopularityVolumes cursor(popular, cursor_primary);
  util::Rng rng(0xA1);
  run_twins(batch, cursor, stream, rng, 12);
}

}  // namespace
}  // namespace piggyweb
