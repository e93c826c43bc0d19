#include "volume/serialize.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <vector>

#include "util/strings.h"

namespace piggyweb::volume {
namespace {

constexpr std::string_view kMagic = "piggyweb-volumes";
constexpr int kVersion = 1;

}  // namespace

void save_volume_set(std::ostream& out, const ProbabilityVolumeSet& set,
                     const util::InternTable& paths) {
  out << kMagic << ' ' << kVersion << '\n';

  // Deterministic order: sort resources by path.
  std::vector<util::InternId> resources;
  resources.reserve(set.volumes().size());
  for (const auto& [r, entries] : set.volumes()) resources.push_back(r);
  std::sort(resources.begin(), resources.end(),
            [&paths](util::InternId a, util::InternId b) {
              return paths.str(a) < paths.str(b);
            });

  for (const auto r : resources) {
    const auto* entries = set.volume_of(r);
    out << "volume " << paths.str(r) << ' ' << entries->size() << '\n';
    for (const auto& entry : *entries) {
      out << paths.str(entry.resource) << ' '
          << util::format_double(entry.probability) << ' '
          << util::format_double(entry.effectiveness) << '\n';
    }
  }
}

std::optional<ProbabilityVolumeSet> load_volume_set(
    std::istream& in, util::InternTable& paths, std::string& error) {
  std::string line;
  if (!std::getline(in, line)) {
    error = "empty input";
    return std::nullopt;
  }
  {
    const auto parts = util::split_trimmed(line, ' ');
    std::int64_t version = 0;
    if (parts.size() != 2 || parts[0] != kMagic ||
        !util::parse_i64(parts[1], version) || version != kVersion) {
      error = "bad header: " + line;
      return std::nullopt;
    }
  }

  ProbabilityVolumeSet set;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    const auto trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const auto parts = util::split_trimmed(trimmed, ' ');
    if (parts.size() != 3 || parts[0] != "volume") {
      error = "expected 'volume <path> <count>' at line " +
              std::to_string(line_number);
      return std::nullopt;
    }
    std::uint64_t count = 0;
    if (!util::parse_u64(parts[2], count) || count == 0) {
      error = "bad entry count at line " + std::to_string(line_number);
      return std::nullopt;
    }
    const auto resource = paths.intern(parts[1]);

    std::vector<VolumeEntry> entries;
    entries.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!std::getline(in, line)) {
        error = "truncated volume for " + std::string(paths.str(resource));
        return std::nullopt;
      }
      ++line_number;
      const auto fields = util::split_trimmed(line, ' ');
      VolumeEntry entry;
      if (fields.size() != 3 ||
          !util::parse_double(fields[1], entry.probability) ||
          !util::parse_double(fields[2], entry.effectiveness) ||
          entry.probability < 0 || entry.probability > 1) {
        error = "bad entry at line " + std::to_string(line_number);
        return std::nullopt;
      }
      entry.resource = paths.intern(fields[0]);
      entries.push_back(entry);
    }
    set.add_volume(resource, std::move(entries));
  }
  return set;
}

}  // namespace piggyweb::volume
