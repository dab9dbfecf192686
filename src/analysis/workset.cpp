#include "analysis/workset.hpp"

#include <algorithm>

#include "netbase/check.hpp"

namespace analysis {

using topo::Model;

namespace {

/// In iBGP-mesh mode a router's pushed external best reaches every AS-mate
/// without an eBGP import, so membership must be closed under AS-mates.
void close_under_as_mates(const Model& model, std::vector<char>& members) {
  for (const nb::Asn asn : model.asns()) {
    const std::vector<Model::Dense>& mates = model.routers_of(asn);
    const bool any = std::any_of(mates.begin(), mates.end(),
                                 [&](Model::Dense r) { return members[r]; });
    if (!any) continue;
    for (const Model::Dense r : mates) members[r] = 1;
  }
}

/// The relaxed cost model's per-edge term: the per-router enumeration cap
/// attenuated by the edge's export-filter threshold (a deny-below-d filter
/// passes only lengths >= d of the plausible 1..max_path_length, kDenyAll
/// passes none; 0 is no filter).
std::uint64_t relaxed_edge_cost(std::uint32_t deny_below_len,
                                const RouteSpaceOptions& space) {
  const std::uint64_t max_len =
      std::max<std::uint64_t>(1, space.max_path_length);
  const std::uint64_t denied =
      std::min<std::uint64_t>(deny_below_len, max_len);
  return space.max_paths_per_router * (max_len - denied) / max_len;
}

}  // namespace

PrefixWorkset compute_working_set(const bgp::Engine& engine,
                                  const nb::Prefix& prefix, nb::Asn origin,
                                  const WorksetOptions& options,
                                  Diagnostics* diags) {
  const Model& model = engine.model();
  const std::size_t n = model.num_routers();

  PrefixWorkset ws;
  ws.prefix = prefix;
  ws.origin = origin;

  // Exact pass: the MAY-non-empty set, valid only when enumeration covered
  // the whole permitted-path universe.
  RouteSpace space;
  bool have_exact = false;
  if (options.exact) {
    space = build_route_space(engine, prefix, origin, options.space);
    have_exact = !space.truncated;
  }

  if (have_exact) {
    ws.members.assign(n, 0);
    for (Model::Dense r = 0; r < n; ++r) {
      if (space.may_reach(r)) ws.members[r] = 1;
    }
  } else {
    ws.relaxed = true;
    ws.members = relaxed_reachable(model, model.find_policy(prefix), origin);
    if (diags != nullptr) {
      diags->push_back(
          {Severity::kWarning, codes::kWorksetRelaxed, prefix.str(),
           options.exact
               ? "MAY enumeration truncated; working set degraded to the "
                 "relaxed reachability bound (cost estimate is coarse)"
               : "exact pass disabled; working set is the relaxed "
                 "reachability bound (cost estimate is coarse)"});
    }
  }

  if (engine.options().use_ibgp_mesh) close_under_as_mates(model, ws.members);

  // Origin routers originate unconditionally; both bounds start from them.
  for (const Model::Dense r : model.routers_of(origin)) {
    RD_CHECK(ws.members[r] != 0,
             "compute_working_set: origin router outside its own bound");
  }

  RD_CHECK(ws.members.size() == n, "compute_working_set: stale model read");
  const topo::PrefixPolicy* policy = model.find_policy(prefix);
  for (Model::Dense r = 0; r < n; ++r) {
    if (ws.members[r] == 0) continue;
    ++ws.size;
    if (have_exact) {
      ws.bounded_messages +=
          model.peers(r).size() *
          std::max<std::uint64_t>(1, space.by_router[r].size());
    } else {
      // Filter-aware relaxed bound (relaxed_edge_cost): this is what keeps
      // per-prefix cost variance alive when every working set degrades to
      // the same relaxed component -- the prefixes still differ in their
      // filters.
      for (const Model::Dense peer : model.peers(r)) {
        const topo::ExportFilter* filter =
            model.find_export_filter(r, peer, policy);
        ws.bounded_messages += relaxed_edge_cost(
            filter == nullptr ? 0 : filter->deny_below_len, options.space);
      }
    }
  }
  ws.cost = static_cast<std::uint64_t>(ws.size) * ws.bounded_messages;
  return ws;
}

std::vector<PrefixWorkset> compute_all_worksets(const bgp::Engine& engine,
                                                const WorksetOptions& options,
                                                Diagnostics* diags) {
  std::vector<PrefixWorkset> result;
  const std::vector<nb::Asn> asns = engine.model().asns();
  result.reserve(asns.size());
  for (const nb::Asn asn : asns) {
    result.push_back(compute_working_set(engine, nb::Prefix::for_asn(asn),
                                         asn, options, diags));
  }
  return result;
}

}  // namespace analysis
