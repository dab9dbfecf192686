#include "analysis/route_space.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>

namespace analysis {

using bgp::Route;
using topo::Model;

nb::Asn derive_origin(const Model& model, const nb::Prefix& prefix) {
  const nb::Asn asn = (prefix.network().value() >> 8) & 0xffffu;
  if (nb::Prefix::for_asn(asn) != prefix || !model.has_as(asn)) {
    return nb::kInvalidAsn;
  }
  return asn;
}

std::size_t RouteSpace::min_announced_len(Model::Dense router) const {
  std::size_t held = std::numeric_limits<std::size_t>::max();
  for (const std::size_t id : by_router[router]) {
    held = std::min(held, nodes[id].route.path.size());
  }
  if (held == std::numeric_limits<std::size_t>::max()) return held;
  return held + 1;  // exporting prepends the router's own AS
}

RouteSpace build_route_space(const bgp::Engine& engine,
                             const nb::Prefix& prefix, nb::Asn origin,
                             const RouteSpaceOptions& options) {
  RouteSpace space;
  space.prefix = prefix;
  space.origin = origin;
  const Model& model = engine.model();
  const topo::PrefixPolicy* policy = model.find_policy(prefix);
  const std::shared_ptr<const bgp::SimContext> ctx = engine.context();
  const std::vector<std::uint32_t>& ids = ctx->ids;
  space.by_router.resize(model.num_routers());

  // (router, path) -> node id.  std::map keeps rediscovery deterministic.
  std::map<std::pair<Model::Dense, std::vector<nb::Asn>>, std::size_t> index;
  std::deque<std::size_t> queue;

  auto add_node = [&](Model::Dense router, Route route) {
    const std::size_t id = space.nodes.size();
    index.emplace(std::make_pair(router, route.path), id);
    space.by_router[router].push_back(id);
    space.nodes.push_back({router, std::move(route)});
    space.dependence.emplace_back();
    queue.push_back(id);
    return id;
  };

  // Origination, exactly as Engine::run seeds it (empty path, MED 0).
  for (const Model::Dense r : model.routers_of(origin)) {
    Route self;
    self.sender = r;
    self.med = 0;
    add_node(r, std::move(self));
  }

  while (!queue.empty()) {
    const std::size_t parent = queue.front();
    queue.pop_front();
    const Model::Dense v = space.nodes[parent].router;
    if (space.nodes[parent].route.path.size() + 1 > options.max_path_length) {
      space.truncated = true;
      continue;
    }
    for (const Model::Dense u : model.peers(v)) {
      // The propagated route depends only on the parent's PATH (export and
      // import both recompute attributes), so the representative choice
      // below never requires re-propagation.
      std::optional<Route> imported =
          engine.propagate(*ctx, policy, v, u, space.nodes[parent].route);
      if (!imported.has_value()) continue;
      auto it = index.find(std::make_pair(u, imported->path));
      std::size_t child;
      if (it != index.end()) {
        child = it->second;
        // Keep the best-ranked sender as the representative for preference
        // comparisons (the engine would install exactly one of these).
        if (bgp::compare_routes(*imported, space.nodes[child].route, ids)
                .order < 0) {
          space.nodes[child].route = std::move(*imported);
        }
      } else {
        if (space.by_router[u].size() >= options.max_paths_per_router ||
            space.nodes.size() >= options.max_nodes) {
          space.truncated = true;
          continue;
        }
        child = add_node(u, std::move(*imported));
      }
      auto& parents = space.dependence[child];
      if (std::find(parents.begin(), parents.end(), parent) == parents.end()) {
        parents.push_back(parent);
      }
    }
  }
  return space;
}

std::vector<char> relaxed_reachable(const Model& model,
                                    const topo::PrefixPolicy* policy,
                                    nb::Asn origin) {
  std::vector<char> reach(model.num_routers(), 0);
  std::deque<Model::Dense> queue;
  for (const Model::Dense r : model.routers_of(origin)) {
    reach[r] = 1;
    queue.push_back(r);
  }
  while (!queue.empty()) {
    const Model::Dense v = queue.front();
    queue.pop_front();
    for (const Model::Dense u : model.peers(v)) {
      if (reach[u] != 0) continue;
      if (policy != nullptr) {
        const topo::ExportFilter* filter =
            model.find_export_filter(v, u, policy);
        if (filter != nullptr &&
            filter->deny_below_len == topo::ExportFilter::kDenyAll) {
          continue;
        }
      }
      reach[u] = 1;
      queue.push_back(u);
    }
  }
  return reach;
}

std::vector<char> guaranteed_routers(const bgp::Engine& engine,
                                     const RouteSpace& space) {
  const Model& model = engine.model();
  std::vector<char> guaranteed(model.num_routers(), 0);
  std::deque<Model::Dense> work;
  for (const Model::Dense r : model.routers_of(space.origin)) {
    guaranteed[r] = 1;  // the originated route exists unconditionally
    work.push_back(r);
  }
  // Past a cap the MAY sets are incomplete, so "every route in may(v)
  // transmits" proves nothing -- claim only the origin routers.
  if (space.truncated) return guaranteed;

  const topo::PrefixPolicy* policy = model.find_policy(space.prefix);
  const std::shared_ptr<const bgp::SimContext> ctx = engine.context();
  while (!work.empty()) {
    const Model::Dense v = work.front();
    work.pop_front();
    for (const Model::Dense u : model.peers(v)) {
      if (guaranteed[u] != 0) continue;
      // u is guaranteed when v's advertisement reaches it no matter which
      // of v's selectable routes wins: v selects SOMETHING (induction), and
      // nothing it can select is droppable on v->u.
      bool all_transmit = !space.by_router[v].empty();
      for (const std::size_t id : space.by_router[v]) {
        if (!engine.propagate(*ctx, policy, v, u, space.nodes[id].route)
                 .has_value()) {
          all_transmit = false;
          break;
        }
      }
      if (all_transmit) {
        guaranteed[u] = 1;
        work.push_back(u);
      }
    }
  }
  return guaranteed;
}

std::size_t report_blackholes(const topo::Model& model,
                              const RouteSpace& space, Diagnostics& out) {
  const std::string where = "prefix " + space.prefix.str();
  if (space.truncated) {
    out.push_back({Severity::kWarning, codes::kRouteSpaceTruncated, where,
                   "permitted-path enumeration hit a cap (" +
                       std::to_string(space.nodes.size()) +
                       " nodes kept); unreachability is not provable"});
    return 0;
  }
  std::size_t unreachable = 0;
  std::string sample;
  constexpr std::size_t kSampleCap = 8;
  for (Model::Dense r = 0; r < model.num_routers(); ++r) {
    if (space.may_reach(r)) continue;
    if (unreachable < kSampleCap) {
      if (!sample.empty()) sample += ", ";
      sample += model.router_id(r).str();
    }
    ++unreachable;
  }
  if (unreachable == 0) return 0;
  std::string message = std::to_string(unreachable) +
                        " router(s) can never install any route for this "
                        "prefix (static blackhole: every inbound avenue is "
                        "filtered or export-forbidden): " +
                        sample;
  if (unreachable > kSampleCap) {
    message += ", +" + std::to_string(unreachable - kSampleCap) + " more";
  }
  out.push_back({Severity::kWarning, codes::kStaticBlackhole, where,
                 std::move(message)});
  return unreachable;
}

}  // namespace analysis
