#include "server/meta.h"

namespace piggyweb::server {

SiteMetaOracle::Entry& SiteMetaOracle::entry(util::InternId path) {
  const auto [it, inserted] = entries_.try_emplace(path);
  if (inserted) it->second.index = site_.index_of(paths_.str(path));
  return it->second;
}

core::ResourceMeta SiteMetaOracle::lookup(util::InternId /*server*/,
                                          util::InternId resource) const {
  core::ResourceMeta meta;
  const auto it = entries_.find(resource);
  const bool resolved = it != entries_.end();
  const auto idx =
      resolved ? it->second.index : site_.index_of(paths_.str(resource));
  if (idx >= site_.size()) return meta;
  const auto& res = site_.resource(idx);
  meta.size = res.size;
  meta.type = res.type;
  meta.last_modified = site_.last_modified(idx, now_).value;
  meta.access_count = resolved ? it->second.accesses : 0;
  return meta;
}

TraceMetaOracle::TraceMetaOracle(const trace::Trace& trace) {
  observe_window(trace.requests(), trace.paths());
}

void TraceMetaOracle::observe_window(std::span<const trace::Request> window,
                                     util::StringTableView paths) {
  for (const auto& r : window) {
    auto& meta = meta_[key(r.server, r.path)];
    ++meta.access_count;
    if (r.status == 200 && r.size > meta.size) meta.size = r.size;
    if (r.last_modified > meta.last_modified) {
      meta.last_modified = r.last_modified;
    }
    // The type depends only on the path, so one scan at first touch
    // matches re-assigning it on every access.
    if (meta.access_count == 1) {
      meta.type = trace::classify_path(paths.str(r.path));
    }
  }
}

core::ResourceMeta TraceMetaOracle::lookup(util::InternId server,
                                           util::InternId resource) const {
  const auto it = meta_.find(key(server, resource));
  return it == meta_.end() ? core::ResourceMeta{} : it->second;
}

}  // namespace piggyweb::server
