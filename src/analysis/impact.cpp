#include "analysis/impact.hpp"

#include <algorithm>
#include <deque>
#include <utility>

namespace analysis {

using topo::ExportFilter;
using topo::Model;

std::string ModelEdit::str() const {
  switch (kind) {
    case Kind::kSessionDown:
      return "session-down " + a.str() + ":" + b.str();
    case Kind::kPolicyChange:
      return "policy-change " + router.str() + " prefix " + prefix.str() +
             (preferred == nb::kInvalidAsn
                  ? std::string(" clear")
                  : " prefer AS " + std::to_string(preferred));
    case Kind::kFilterEdit:
      return "filter-edit " + a.str() + "->" + b.str() + " prefix " +
             prefix.str() +
             (deny_below_len == 0
                  ? std::string(" remove")
                  : " deny-below " + std::to_string(deny_below_len));
  }
  return "edit";
}

topo::Model apply_edit(const topo::Model& base, const ModelEdit& edit) {
  Model post = base;
  switch (edit.kind) {
    case ModelEdit::Kind::kSessionDown:
      post.remove_session(edit.a, edit.b);
      break;
    case ModelEdit::Kind::kPolicyChange:
      if (!post.has_router(edit.router)) break;
      if (edit.preferred == nb::kInvalidAsn) {
        post.clear_ranking(edit.router, edit.prefix);
      } else {
        post.set_ranking(edit.router, edit.prefix, edit.preferred);
      }
      break;
    case ModelEdit::Kind::kFilterEdit:
      if (!post.has_router(edit.a) || !post.has_router(edit.b)) break;
      if (edit.deny_below_len == 0) {
        if (post.find_policy(edit.prefix) != nullptr) {
          post.policy(edit.prefix)
              .filters.erase(topo::session_key(edit.a, edit.b));
          post.drop_empty_policies();
        }
      } else {
        post.set_export_filter(edit.a, edit.b, edit.prefix,
                               edit.deny_below_len, nb::kInvalidRouterId);
      }
      break;
  }
  return post;
}

namespace {

/// True when the v->u export is kDenyAll for this prefix -- the only filter
/// state that provably transmits NOTHING regardless of route lengths.
bool edge_denied(const Model& model, const topo::PrefixPolicy* policy,
                 Model::Dense v, Model::Dense u) {
  if (policy == nullptr) return false;
  const ExportFilter* filter =
      model.find_export_filter(v, u, policy);
  return filter != nullptr &&
         filter->deny_below_len == ExportFilter::kDenyAll;
}

/// Seed routers of the edit for one prefix, as base-model dense indices.
std::vector<Model::Dense> edit_seeds(const Model& base, const ModelEdit& edit,
                                     const nb::Prefix& prefix) {
  std::vector<Model::Dense> seeds;
  switch (edit.kind) {
    case ModelEdit::Kind::kSessionDown:
      // Affects every prefix; both endpoints lose RIB-In entries directly.
      if (base.has_session(edit.a, edit.b)) {
        seeds.push_back(base.dense(edit.a));
        seeds.push_back(base.dense(edit.b));
      }
      break;
    case ModelEdit::Kind::kPolicyChange:
      if (edit.prefix == prefix && base.has_router(edit.router)) {
        seeds.push_back(base.dense(edit.router));
      }
      break;
    case ModelEdit::Kind::kFilterEdit:
      // The announcer's own selection cannot depend on its export filter;
      // only the receiver's imports change.
      if (edit.prefix == prefix && base.has_router(edit.b) &&
          base.has_session(edit.a, edit.b)) {
        seeds.push_back(base.dense(edit.b));
      }
      break;
  }
  return seeds;
}

}  // namespace

ImpactResult compute_impact(const topo::Model& base, const ModelEdit& edit,
                            const ImpactOptions& options) {
  ImpactResult result;
  const Model post = apply_edit(base, edit);
  const bgp::Engine engine_pre(base, options.engine);
  const bgp::Engine engine_post(post, options.engine);

  std::vector<std::pair<nb::Prefix, nb::Asn>> targets;
  if (!options.origins.empty()) {
    for (const nb::Asn origin : options.origins) {
      targets.emplace_back(nb::Prefix::for_asn(origin), origin);
    }
  } else {
    for (const auto& [prefix, policy] : base.prefix_policies()) {
      if (policy.empty()) continue;
      const nb::Asn origin = derive_origin(base, prefix);
      if (origin != nb::kInvalidAsn) targets.emplace_back(prefix, origin);
    }
  }

  for (const auto& [prefix, origin] : targets) {
    std::vector<Model::Dense> seeds = edit_seeds(base, edit, prefix);
    if (seeds.empty()) continue;  // the edit cannot touch this prefix

    const topo::PrefixPolicy* policy_pre = base.find_policy(prefix);
    const topo::PrefixPolicy* policy_post = post.find_policy(prefix);

    // Reverse-dependence closure: BFS from the seeds over sessions existing
    // in either model, skipping edges kDenyAll-filtered in BOTH (see header
    // for the induction).  Influence is symmetric at the session level -- a
    // selection change at v reaches u over v->u -- so the walk follows each
    // session in the transmitting direction.
    std::vector<char> in_closure(base.num_routers(), 0);
    std::deque<Model::Dense> work;
    for (const Model::Dense s : seeds) {
      if (in_closure[s] == 0) {
        in_closure[s] = 1;
        work.push_back(s);
      }
    }
    auto visit_peers = [&](const Model& model, Model::Dense v) {
      for (const Model::Dense u : model.peers(v)) {
        if (in_closure[u] != 0) continue;
        const bool live_pre =
            base.has_session(base.router_id(v), base.router_id(u)) &&
            !edge_denied(base, policy_pre, v, u);
        const bool live_post =
            post.has_session(post.router_id(v), post.router_id(u)) &&
            !edge_denied(post, policy_post, v, u);
        if (!live_pre && !live_post) continue;
        in_closure[u] = 1;
        work.push_back(u);
      }
    };
    while (!work.empty()) {
      const Model::Dense v = work.front();
      work.pop_front();
      visit_peers(base, v);
      visit_peers(post, v);
    }

    // MAY-set tightening: a changed router holds a route pre or post, so it
    // is may-reachable in at least one of the two worlds.  When enumeration
    // truncates, the incomplete MAY sets cannot exclude anything; fall back
    // to relaxed reachability, which is complete by construction.
    const RouteSpace space_pre =
        build_route_space(engine_pre, prefix, origin, options.space);
    const RouteSpace space_post =
        build_route_space(engine_post, prefix, origin, options.space);
    const bool truncated = space_pre.truncated || space_post.truncated;
    std::vector<char> relaxed_pre;
    std::vector<char> relaxed_post;
    if (truncated) {
      relaxed_pre = relaxed_reachable(base, policy_pre, origin);
      relaxed_post = relaxed_reachable(post, policy_post, origin);
    }
    auto may_hold = [&](Model::Dense r) {
      if (truncated) {
        return relaxed_pre[r] != 0 ||
               relaxed_post[post.dense(base.router_id(r))] != 0;
      }
      return space_pre.may_reach(r) || space_post.may_reach(r);
    };

    PrefixImpact impact;
    impact.prefix = prefix;
    impact.origin = origin;
    impact.truncated = truncated;
    for (Model::Dense r = 0; r < base.num_routers(); ++r) {
      if (in_closure[r] == 0 || !may_hold(r)) continue;
      impact.routers.push_back(base.router_id(r));
    }
    std::sort(impact.routers.begin(), impact.routers.end(),
              [](nb::RouterId x, nb::RouterId y) {
                return x.value() < y.value();
              });
    result.routers_total += impact.routers.size();
    result.truncated |= truncated;
    result.prefixes.push_back(std::move(impact));
  }
  return result;
}

}  // namespace analysis
