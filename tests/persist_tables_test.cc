// Property tests for the serializers an evaluation snapshot is built
// from: RPV entries and directory volume images round trip exactly,
// restoring and re-serializing reproduces the canonical bytes
// bit-for-bit, and malformed payloads are rejected with an error instead
// of crashing or tripping a contract.
#include "persist/tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "persist/state_access.h"
#include "volume/directory.h"

namespace piggyweb::persist {
namespace {

// RPV lists -----------------------------------------------------------------

// The layout deserialize_rpv_entries reads and the eval snapshot writes
// for each RPV list: a u64 count, then (u32 volume, i64 time) per entry.
std::string encode_rpv_entries(std::span<const core::RpvEntry> entries) {
  ByteWriter out;
  out.u64(entries.size());
  for (const auto& entry : entries) {
    out.u32(entry.volume);
    out.i64(entry.when.value);
  }
  return out.take();
}

TEST(RpvCodec, ListRoundTripPreservesFifoOrder) {
  core::RpvConfig config;
  config.timeout = 60;
  config.max_entries = 8;
  core::RpvList list(config);
  list.note(3, util::TimePoint{100});
  list.note(7, util::TimePoint{110});
  list.note(3, util::TimePoint{120});  // refresh moves 3 behind 7

  const auto bytes = encode_rpv_entries(list.entries());
  ByteReader in(bytes);
  std::vector<core::RpvEntry> entries;
  std::string error;
  ASSERT_TRUE(deserialize_rpv_entries(in, entries, error)) << error;
  EXPECT_TRUE(in.ok() && in.at_end());
  core::RpvList restored(config);
  restored.restore_entries(entries);
  EXPECT_EQ(restored.entries(), list.entries());
  EXPECT_EQ(restored.live(util::TimePoint{125}),
            (std::vector<core::VolumeId>{7, 3}));
  EXPECT_EQ(encode_rpv_entries(restored.entries()), bytes);
}

TEST(RpvCodec, TruncatedEntriesAreRejected) {
  ByteWriter out;
  out.u64(5);  // promises 5 entries, delivers none
  ByteReader in(out.bytes());
  std::vector<core::RpvEntry> entries;
  std::string error;
  EXPECT_FALSE(deserialize_rpv_entries(in, entries, error));
  EXPECT_FALSE(error.empty());
}

// Directory volume images ---------------------------------------------------

std::vector<DirectoryVolumeImage> sample_images() {
  std::vector<DirectoryVolumeImage> images(2);
  images[0].server = 1;
  images[0].prefix = "/a";
  images[0].saved_id = 0;
  images[0].parts[0] = {{10, util::TimePoint{5}}, {11, util::TimePoint{3}}};
  images[0].parts[4] = {{12, util::TimePoint{9}}};
  images[1].server = 2;
  images[1].prefix = "";
  images[1].saved_id = 1;
  images[1].parts[5] = {{20, util::TimePoint{1}}};
  return images;
}

TEST(DirectoryImageCodec, RoundTrip) {
  const auto images = sample_images();
  ByteWriter out;
  serialize_directory_volume_images(images, out);
  const auto bytes = out.take();

  ByteReader in(bytes);
  std::vector<DirectoryVolumeImage> back;
  std::string error;
  ASSERT_TRUE(deserialize_directory_volume_images(in, back, error)) << error;
  EXPECT_TRUE(in.ok() && in.at_end());
  EXPECT_EQ(back, images);

  ByteWriter again;
  serialize_directory_volume_images(back, again);
  EXPECT_EQ(again.bytes(), bytes);
}

TEST(DirectoryImageCodec, OversizedElementCountIsRejected) {
  ByteWriter out;
  out.u64(1);           // one volume
  out.u32(1);           // server
  out.str("/a");        // prefix
  out.u32(0);           // saved id
  out.u64(1ULL << 62);  // elements in partition 0: absurd
  ByteReader in(out.bytes());
  std::vector<DirectoryVolumeImage> back;
  std::string error;
  EXPECT_FALSE(deserialize_directory_volume_images(in, back, error));
  EXPECT_FALSE(error.empty());
}

// DirectoryVolumes export/import -------------------------------------------

core::VolumeRequest make_request(util::InternId server, util::InternId path,
                                 std::int64_t time, std::uint64_t size,
                                 trace::ContentType type) {
  core::VolumeRequest request;
  request.server = server;
  request.source = 1;
  request.path = path;
  request.time = util::TimePoint{time};
  request.size = size;
  request.type = type;
  return request;
}

TEST(DirectoryVolumesCodec, ExportImportPreservesStructure) {
  util::InternTable paths;
  const auto a = paths.intern("/a/x.html");
  const auto b = paths.intern("/a/y.gif");
  const auto c = paths.intern("/b/z.html");
  const auto d = paths.intern("/a/big.html");
  const auto e = paths.intern("/a/w.gif");
  const auto f = paths.intern("/a/v.html");
  const auto g = paths.intern("/a/next.html");

  volume::DirectoryVolumeConfig config;
  config.level = 1;
  volume::DirectoryVolumes original(config);
  original.bind_paths(paths);
  original.on_request(
      make_request(1, a, 10, 100, trace::ContentType::kHtml));
  original.on_request(
      make_request(1, b, 20, 64 * 1024, trace::ContentType::kImage));
  original.on_request(
      make_request(1, c, 30, 100, trace::ContentType::kHtml));
  original.on_request(
      make_request(2, a, 40, 100, trace::ContentType::kHtml));
  // Touch /a/x.html again so move-to-front ordering is part of the image.
  original.on_request(
      make_request(1, a, 50, 100, trace::ContentType::kHtml));
  // Same-second touches across partitions, and /a/y.gif migrating from
  // the large-image partition to the small one within that second.
  original.on_request(
      make_request(1, d, 50, 64 * 1024, trace::ContentType::kHtml));
  original.on_request(
      make_request(1, e, 50, 100, trace::ContentType::kImage));
  original.on_request(
      make_request(1, f, 50, 100, trace::ContentType::kHtml));
  original.on_request(
      make_request(1, b, 50, 100, trace::ContentType::kImage));

  const auto images = StateAccess::export_directory_volumes(original);
  ASSERT_EQ(images.size(), original.volume_count());

  volume::DirectoryVolumes restored(config);
  restored.bind_paths(paths);
  std::vector<const DirectoryVolumeImage*> pointers;
  for (const auto& image : images) pointers.push_back(&image);
  std::vector<core::VolumeId> assigned;
  std::string error;
  ASSERT_TRUE(StateAccess::import_directory_volumes(restored, pointers,
                                                    assigned, error))
      << error;
  ASSERT_EQ(assigned.size(), images.size());
  EXPECT_EQ(restored.volume_count(), original.volume_count());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ(restored.volume_size(assigned[i]),
              original.volume_size(images[i].saved_id));
  }
  // The re-export must reproduce the same structural images (ids may be
  // renumbered, so compare everything except saved_id).
  auto re = StateAccess::export_directory_volumes(restored);
  ASSERT_EQ(re.size(), images.size());
  std::sort(re.begin(), re.end(), [](const auto& x, const auto& y) {
    return std::tie(x.server, x.prefix) < std::tie(y.server, y.prefix);
  });
  auto expected = images;
  std::sort(expected.begin(), expected.end(),
            [](const auto& x, const auto& y) {
              return std::tie(x.server, x.prefix) < std::tie(y.server, y.prefix);
            });
  for (std::size_t i = 0; i < re.size(); ++i) {
    EXPECT_EQ(re[i].server, expected[i].server);
    EXPECT_EQ(re[i].prefix, expected[i].prefix);
    EXPECT_EQ(re[i].parts, expected[i].parts);
  }

  // The restored provider offers the same candidates, in the same order.
  const auto next = make_request(1, g, 50, 100, trace::ContentType::kHtml);
  const auto want = original.on_request(next);
  EXPECT_EQ(restored.on_request(next).resources, want.resources);
  EXPECT_EQ(want.resources,
            (std::vector<util::InternId>{g, f, a, d, b, e}));
}

TEST(DirectoryVolumesCodec, PartitionOutOfOrderIsRejected) {
  auto images = sample_images();
  std::swap(images[0].parts[0][0], images[0].parts[0][1]);
  volume::DirectoryVolumeConfig config;
  volume::DirectoryVolumes provider(config);
  std::vector<const DirectoryVolumeImage*> pointers = {&images[0]};
  std::vector<core::VolumeId> assigned;
  std::string error;
  EXPECT_FALSE(StateAccess::import_directory_volumes(provider, pointers,
                                                     assigned, error));
  EXPECT_EQ(error, "directory partition not in last-access order");
}

TEST(DirectoryVolumesCodec, DuplicateVolumeIdentityIsRejected) {
  const auto images = sample_images();
  volume::DirectoryVolumeConfig config;
  volume::DirectoryVolumes provider(config);
  std::vector<const DirectoryVolumeImage*> pointers = {&images[0], &images[0]};
  std::vector<core::VolumeId> assigned;
  std::string error;
  EXPECT_FALSE(StateAccess::import_directory_volumes(provider, pointers,
                                                     assigned, error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace piggyweb::persist
