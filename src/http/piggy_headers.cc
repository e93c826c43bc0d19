#include "http/piggy_headers.h"

#include <cstdio>

#include "util/expect.h"
#include "util/strings.h"

namespace piggyweb::http {
namespace {

// Split a `key=value` or bare-token attribute. Quotes around the value are
// stripped.
struct Attribute {
  std::string_view key;
  std::string_view value;  // empty for bare tokens
};

std::optional<Attribute> parse_attribute(std::string_view piece) {
  piece = util::trim(piece);
  if (piece.empty()) return std::nullopt;
  const auto eq = piece.find('=');
  if (eq == std::string_view::npos) return Attribute{piece, {}};
  auto value = util::trim(piece.substr(eq + 1));
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    value = value.substr(1, value.size() - 2);
  }
  return Attribute{util::trim(piece.substr(0, eq)), value};
}

}  // namespace

std::string serialize_filter(const core::ProxyFilter& filter) {
  if (!filter.enabled) return "nopiggy";
  std::string out;
  if (filter.max_elements != 0xffffffffu) {
    out += "maxpiggy=" + std::to_string(filter.max_elements);
  }
  if (!filter.rpv.empty()) {
    if (!out.empty()) out += "; ";
    out += "rpv=\"";
    for (std::size_t i = 0; i < filter.rpv.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(filter.rpv[i]);
    }
    out += '"';
  }
  if (filter.probability_threshold) {
    if (!out.empty()) out += "; ";
    out += "pt=" + util::format_double(*filter.probability_threshold);
  }
  if (filter.max_size) {
    if (!out.empty()) out += "; ";
    out += "maxsize=" + std::to_string(*filter.max_size);
  }
  if (!(filter.allow_html && filter.allow_image && filter.allow_other)) {
    if (!out.empty()) out += "; ";
    out += "types=";
    bool first = true;
    const auto append = [&](bool allowed, std::string_view name) {
      if (!allowed) return;
      if (!first) out += ',';
      out += name;
      first = false;
    };
    append(filter.allow_html, "html");
    append(filter.allow_image, "image");
    append(filter.allow_other, "other");
  }
  if (filter.min_access_count > 0) {
    if (!out.empty()) out += "; ";
    out += "minfreq=" + std::to_string(filter.min_access_count);
  }
  if (out.empty()) out = "maxpiggy=" + std::to_string(filter.max_elements);
  return out;
}

std::optional<core::ProxyFilter> parse_filter(std::string_view value) {
  core::ProxyFilter filter;
  for (const auto piece : util::split(value, ';')) {
    const auto attr = parse_attribute(piece);
    if (!attr) continue;
    if (util::iequals(attr->key, "nopiggy")) {
      filter.enabled = false;
    } else if (util::iequals(attr->key, "maxpiggy")) {
      std::uint64_t n = 0;
      if (!util::parse_u64(attr->value, n) || n > 0xffffffffu) {
        return std::nullopt;
      }
      filter.max_elements = static_cast<std::uint32_t>(n);
    } else if (util::iequals(attr->key, "rpv")) {
      for (const auto id_text : util::split_trimmed(attr->value, ',')) {
        std::uint64_t id = 0;
        if (!util::parse_u64(id_text, id) || id > core::kMaxWireVolumeId) {
          return std::nullopt;
        }
        filter.rpv.push_back(static_cast<core::VolumeId>(id));
      }
    } else if (util::iequals(attr->key, "pt")) {
      double pt = 0;
      if (!util::parse_double(attr->value, pt) || pt < 0 || pt > 1) {
        return std::nullopt;
      }
      filter.probability_threshold = pt;
    } else if (util::iequals(attr->key, "maxsize")) {
      std::uint64_t n = 0;
      if (!util::parse_u64(attr->value, n)) return std::nullopt;
      filter.max_size = n;
    } else if (util::iequals(attr->key, "types")) {
      filter.allow_html = filter.allow_image = filter.allow_other = false;
      for (const auto type : util::split_trimmed(attr->value, ',')) {
        if (util::iequals(type, "html")) {
          filter.allow_html = true;
        } else if (util::iequals(type, "image")) {
          filter.allow_image = true;
        } else if (util::iequals(type, "other")) {
          filter.allow_other = true;
        } else {
          return std::nullopt;
        }
      }
    } else if (util::iequals(attr->key, "minfreq")) {
      std::uint64_t n = 0;
      if (!util::parse_u64(attr->value, n) || n > 0xffffffffu) {
        return std::nullopt;
      }
      filter.min_access_count = static_cast<std::uint32_t>(n);
    } else {
      // Unknown attributes are ignored for forward compatibility.
    }
  }
  return filter;
}

void attach_filter(Request& request, const core::ProxyFilter& filter) {
  request.headers.set("TE", "chunked");
  request.headers.set(kPiggyFilterHeader, serialize_filter(filter));
}

std::optional<core::ProxyFilter> extract_filter(const Request& request) {
  const auto value = request.headers.get(kPiggyFilterHeader);
  if (!value) return std::nullopt;
  return parse_filter(*value);
}

std::string serialize_hits(const std::vector<core::VolumeHitCount>& counts) {
  std::string out;
  for (const auto& count : counts) {
    if (!out.empty()) out += ", ";
    out += std::to_string(count.volume);
    out += ':';
    out += std::to_string(count.hits);
  }
  return out;
}

std::optional<std::vector<core::VolumeHitCount>> parse_hits(
    std::string_view value) {
  std::vector<core::VolumeHitCount> out;
  for (const auto piece : util::split_trimmed(value, ',')) {
    const auto colon = piece.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    std::uint64_t volume = 0, hits = 0;
    if (!util::parse_u64(util::trim(piece.substr(0, colon)), volume) ||
        !util::parse_u64(util::trim(piece.substr(colon + 1)), hits) ||
        volume > core::kMaxWireVolumeId || hits > 0xffffffffu) {
      return std::nullopt;
    }
    out.push_back({static_cast<core::VolumeId>(volume),
                   static_cast<std::uint32_t>(hits)});
  }
  return out;
}

void attach_hits(Request& request,
                 const std::vector<core::VolumeHitCount>& counts) {
  if (counts.empty()) return;
  request.headers.set(kPiggyHitsHeader, serialize_hits(counts));
}

std::optional<std::vector<core::VolumeHitCount>> extract_hits(
    const Request& request) {
  const auto value = request.headers.get(kPiggyHitsHeader);
  if (!value) return std::nullopt;
  return parse_hits(*value);
}

std::string serialize_validate(
    const std::vector<core::ValidationItem>& items,
    const util::InternTable& paths) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += "; ";
    out += "e=\"";
    out += paths.str(item.resource);
    out += ' ';
    out += std::to_string(item.last_modified);
    out += '"';
  }
  return out;
}

std::optional<std::vector<core::ValidationItem>> parse_validate(
    std::string_view value, util::InternTable& paths) {
  std::vector<core::ValidationItem> out;
  for (const auto piece : util::split(value, ';')) {
    const auto attr = parse_attribute(piece);
    if (!attr) continue;
    if (!util::iequals(attr->key, "e")) return std::nullopt;
    const auto parts = util::split_trimmed(attr->value, ' ');
    if (parts.size() != 2) return std::nullopt;
    core::ValidationItem item;
    item.resource = paths.intern(parts[0]);
    if (!util::parse_i64(parts[1], item.last_modified)) return std::nullopt;
    out.push_back(item);
  }
  return out;
}

void attach_validate(Request& request,
                     const std::vector<core::ValidationItem>& items,
                     const util::InternTable& paths) {
  if (items.empty()) return;
  request.headers.set(kPiggyValidateHeader,
                      serialize_validate(items, paths));
}

std::optional<std::vector<core::ValidationItem>> extract_validate(
    const Request& request, util::InternTable& paths) {
  const auto value = request.headers.get(kPiggyValidateHeader);
  if (!value) return std::nullopt;
  return parse_validate(*value, paths);
}

std::string serialize_validate_reply(const core::ValidationReply& reply,
                                     const util::InternTable& paths) {
  std::string out;
  for (const auto fresh : reply.fresh) {
    if (!out.empty()) out += "; ";
    out += "f=\"";
    out += paths.str(fresh);
    out += '"';
  }
  for (const auto& stale : reply.stale) {
    if (!out.empty()) out += "; ";
    out += "s=\"";
    out += paths.str(stale.resource);
    out += ' ';
    out += std::to_string(stale.last_modified);
    out += '"';
  }
  return out;
}

std::optional<core::ValidationReply> parse_validate_reply(
    std::string_view value, util::InternTable& paths) {
  core::ValidationReply reply;
  for (const auto piece : util::split(value, ';')) {
    const auto attr = parse_attribute(piece);
    if (!attr) continue;
    if (util::iequals(attr->key, "f")) {
      if (attr->value.empty()) return std::nullopt;
      reply.fresh.push_back(paths.intern(attr->value));
    } else if (util::iequals(attr->key, "s")) {
      const auto parts = util::split_trimmed(attr->value, ' ');
      if (parts.size() != 2) return std::nullopt;
      core::ValidationReply::Stale stale;
      stale.resource = paths.intern(parts[0]);
      if (!util::parse_i64(parts[1], stale.last_modified)) {
        return std::nullopt;
      }
      reply.stale.push_back(stale);
    } else {
      return std::nullopt;
    }
  }
  return reply;
}

void attach_validate_reply(Response& response,
                           const core::ValidationReply& reply,
                           const util::InternTable& paths) {
  if (reply.empty()) return;
  response.headers.set(kPValidateHeader,
                       serialize_validate_reply(reply, paths));
}

std::optional<core::ValidationReply> extract_validate_reply(
    const Response& response, util::InternTable& paths) {
  auto value = response.headers.get(kPValidateHeader);
  if (!value) value = response.trailers.get(kPValidateHeader);
  if (!value) return std::nullopt;
  return parse_validate_reply(*value, paths);
}

std::string serialize_pvolume(const core::PiggybackMessage& message,
                              const util::InternTable& paths) {
  PW_EXPECT(message.volume <= core::kMaxWireVolumeId);
  std::string out = "vid=" + std::to_string(message.volume);
  for (const auto& element : message.elements) {
    out += "; e=\"";
    out += paths.str(element.resource);
    out += ' ';
    out += std::to_string(element.last_modified);
    out += ' ';
    out += std::to_string(element.size);
    if (element.probability > 0) {
      // Optional 4th field: the implication probability, for
      // server-assisted replacement (§4).
      char prob[16];
      std::snprintf(prob, sizeof(prob), " %.3f", element.probability);
      out += prob;
    }
    out += '"';
  }
  return out;
}

std::optional<core::PiggybackMessage> parse_pvolume(
    std::string_view value, util::InternTable& paths) {
  core::PiggybackMessage message;
  bool saw_vid = false;
  for (const auto piece : util::split(value, ';')) {
    const auto attr = parse_attribute(piece);
    if (!attr) continue;
    if (util::iequals(attr->key, "vid")) {
      std::uint64_t vid = 0;
      if (!util::parse_u64(attr->value, vid) ||
          vid > core::kMaxWireVolumeId) {
        return std::nullopt;
      }
      message.volume = static_cast<core::VolumeId>(vid);
      saw_vid = true;
    } else if (util::iequals(attr->key, "e")) {
      const auto parts = util::split_trimmed(attr->value, ' ');
      if (parts.size() != 3 && parts.size() != 4) return std::nullopt;
      core::PiggybackElement element;
      element.resource = paths.intern(parts[0]);
      if (!util::parse_i64(parts[1], element.last_modified)) {
        return std::nullopt;
      }
      if (!util::parse_u64(parts[2], element.size)) return std::nullopt;
      if (parts.size() == 4) {
        if (!util::parse_double(parts[3], element.probability) ||
            element.probability < 0 || element.probability > 1) {
          return std::nullopt;
        }
      }
      message.elements.push_back(element);
    }
  }
  if (!saw_vid) return std::nullopt;
  return message;
}

void attach_pvolume(Response& response,
                    const core::PiggybackMessage& message,
                    const util::InternTable& paths) {
  if (message.empty()) return;
  response.chunked = true;
  response.headers.remove("Content-Length");
  response.headers.set("Transfer-Encoding", "chunked");
  response.headers.set("Trailer", std::string(kPVolumeHeader));
  response.trailers.set(kPVolumeHeader,
                        serialize_pvolume(message, paths));
}

std::optional<core::PiggybackMessage> extract_pvolume(
    const Response& response, util::InternTable& paths) {
  auto value = response.trailers.get(kPVolumeHeader);
  if (!value) value = response.headers.get(kPVolumeHeader);
  if (!value) return std::nullopt;
  return parse_pvolume(*value, paths);
}

}  // namespace piggyweb::http
