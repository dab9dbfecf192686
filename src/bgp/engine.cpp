#include "bgp/engine.hpp"

#include <algorithm>

#include "bgp/sim_memory.hpp"
#include "netbase/check.hpp"

namespace bgp {

using topo::NeighborClass;
using topo::PrefixPolicy;

std::vector<std::uint32_t> dense_ids(const Model& model) {
  std::vector<std::uint32_t> ids(model.num_routers());
  for (Model::Dense r = 0; r < ids.size(); ++r)
    ids[r] = model.router_id(r).value();
  return ids;
}

Engine::Engine(const Model& model, EngineOptions options)
    : model_(&model), options_(options) {}

std::shared_ptr<const SimContext> Engine::context() const {
  std::lock_guard lock(context_mutex_);
  if (context_ == nullptr || context_->epoch != model_->generation()) {
    auto ctx = std::make_shared<SimContext>();
    ctx->epoch = model_->generation();
    const std::size_t n = model_->num_routers();
    ctx->ids.resize(n);
    ctx->asn_of.resize(n);
    ctx->peer_offset.resize(n + 1, 0);
    std::size_t total = 0;
    for (Model::Dense r = 0; r < n; ++r) {
      const nb::RouterId id = model_->router_id(r);
      ctx->ids[r] = id.value();
      ctx->asn_of[r] = id.asn();
      ctx->peer_offset[r] = static_cast<std::uint32_t>(total);
      total += model_->peers(r).size();
    }
    ctx->peer_offset[n] = static_cast<std::uint32_t>(total);
    ctx->peer_flat.reserve(total);
    for (Model::Dense r = 0; r < n; ++r) {
      const auto& peers = model_->peers(r);
      ctx->peer_flat.insert(ctx->peer_flat.end(), peers.begin(), peers.end());
    }
    if (options_.use_relationship_policies) {
      ctx->session_lp.reserve(total);
      ctx->session_gated.reserve(total);
    }
    if (options_.use_igp_cost) ctx->session_igp.reserve(total);
    const bool session_attrs =
        options_.use_relationship_policies || options_.use_igp_cost;
    for (Model::Dense r = 0; session_attrs && r < n; ++r) {
      const nb::Asn from_as = ctx->asn_of[r];
      for (const Model::Dense peer : ctx->peers(r)) {
        const nb::Asn to_as = ctx->asn_of[peer];
        if (options_.use_relationship_policies) {
          const NeighborClass to_class =
              model_->neighbor_class(from_as, to_as);
          ctx->session_gated.push_back(to_class == NeighborClass::kPeer ||
                                       to_class == NeighborClass::kProvider);
          ctx->session_lp.push_back(
              relationship_local_pref(model_->neighbor_class(to_as, from_as)));
        }
        if (options_.use_igp_cost)
          ctx->session_igp.push_back(model_->igp_cost(peer, r));
      }
    }
    context_ = std::move(ctx);
  }
  return context_;
}

std::uint32_t Engine::relationship_local_pref(NeighborClass cls) const {
  switch (cls) {
    case NeighborClass::kCustomer:
      return options_.lp_customer;
    case NeighborClass::kPeer:
      return options_.lp_peer;
    case NeighborClass::kProvider:
      return options_.lp_provider;
    case NeighborClass::kUnknown:
      break;
  }
  return options_.lp_unknown;
}

bool Engine::propagate_into(const PrefixPolicy* policy, Model::Dense from,
                            Model::Dense to, std::span<const Asn> best_path,
                            const SimContext& ctx, Route& out) const {
  const nb::Asn from_as = ctx.asn_of[from];
  const nb::Asn to_as = ctx.asn_of[to];
  // Receiver-side AS-loop detection on the route as it would arrive
  // ([from_as, best_path...]); checked before building the path.
  if (to_as == from_as || path_contains(best_path, to_as)) return false;

  if (options_.use_relationship_policies) {
    // Valley-free export: routes learned from a peer or provider are only
    // exported to customers.  Unknown classes are permissive on both sides
    // (the paper's agnostic stance: absent information must not disconnect).
    const NeighborClass to_class = model_->neighbor_class(from_as, to_as);
    if (to_class == NeighborClass::kPeer ||
        to_class == NeighborClass::kProvider) {
      bool from_customer_or_self = best_path.empty();
      if (!from_customer_or_self) {
        const Asn learned_from = best_path.front();
        const NeighborClass learned_class =
            model_->neighbor_class(from_as, learned_from);
        from_customer_or_self = learned_class == NeighborClass::kCustomer ||
                                learned_class == NeighborClass::kUnknown;
      }
      // Per-prefix leak: an export-allow exempts this session.
      if (!from_customer_or_self &&
          !(policy != nullptr &&
            policy->export_allows.count(
                topo::session_key(nb::RouterId::from_value(ctx.ids[from]),
                                  nb::RouterId::from_value(ctx.ids[to]))) >
                0)) {
        return false;
      }
    }
  }
  const std::size_t arriving_len = best_path.size() + 1;
  if (const topo::ExportFilter* filter =
          model_->find_export_filter(from, to, policy);
      filter != nullptr && filter->blocks(arriving_len)) {
    return false;
  }

  out.sender = from;
  out.ibgp = false;
  out.local_pref = options_.use_relationship_policies
                       ? relationship_local_pref(
                             model_->neighbor_class(to_as, from_as))
                       : kDefaultLocalPref;
  out.med = topo::kDefaultMed;
  bool has_prefix_ranking = false;
  if (policy != nullptr) {
    const nb::RouterId to_id = nb::RouterId::from_value(ctx.ids[to]);
    if (auto it = policy->lp_overrides.find(topo::router_asn_key(to_id, from_as));
        it != policy->lp_overrides.end()) {
      out.local_pref = it->second;
    }
    if (auto it = policy->rankings.find(to_id.value());
        it != policy->rankings.end()) {
      has_prefix_ranking = true;
      if (it->second.preferred_neighbor == from_as)
        out.med = topo::kPreferredMed;
    }
  }
  // Prefix-independent ranking applies only when no per-prefix rule exists
  // for this router (generalized models; see core/generalize).
  if (!has_prefix_ranking && model_->default_ranking(to) == from_as) {
    out.med = topo::kPreferredMed;
  }
  out.igp_cost = options_.use_igp_cost ? model_->igp_cost(to, from) : 0;

  out.path.clear();
  out.path.reserve(arriving_len);
  out.path.push_back(from_as);
  out.path.insert(out.path.end(), best_path.begin(), best_path.end());
  return true;
}

std::optional<Route> Engine::propagate(const PrefixPolicy* policy,
                                       Model::Dense from, Model::Dense to,
                                       const Route& best) const {
  return propagate(*context(), policy, from, to, best);
}

std::optional<Route> Engine::propagate(const SimContext& ctx,
                                       const PrefixPolicy* policy,
                                       Model::Dense from, Model::Dense to,
                                       const Route& best) const {
  Route out;
  if (!propagate_into(policy, from, to, best.path, ctx, out)) {
    return std::nullopt;
  }
  return out;
}

namespace {

// Pre-mutation snapshot of a router's selections: only the announcing
// router of each selection.  A message touches exactly one RIB-In entry
// (its sender's), so "did the selection change in a way that requires
// re-advertising" reduces to comparing selected senders, plus one flag for
// the touched entry's path -- no Route (and no AS-path vector) is copied.
struct Selection {
  std::int64_t best_sender = -1;  // -1: nothing selected
  std::int64_t external_sender = -1;
};

Selection snapshot(const SimMemory& mem, std::uint32_t slot) {
  Selection s;
  const std::uint32_t base = mem.begin_of(slot);
  if (const int b = mem.best(slot); b >= 0) {
    s.best_sender = mem.sender_at(base + static_cast<std::uint32_t>(b));
  }
  if (const int e = mem.best_external(slot); e >= 0) {
    s.external_sender = mem.sender_at(base + static_cast<std::uint32_t>(e));
  }
  return s;
}

/// select_best over a SoA RIB region: same ascending scan, same strictly-
/// less replacement rule, via the same compare_views the Route overload
/// delegates to -- identical winner for identical contents.
int select_best_region(const SimMemory& mem, std::uint32_t base,
                       std::uint32_t live,
                       std::span<const std::uint32_t> ids) {
  int best = -1;
  for (std::uint32_t i = 0; i < live; ++i) {
    if (best < 0) {
      best = static_cast<int>(i);
      continue;
    }
    const Comparison cmp =
        compare_views(mem.view_at(base + i),
                      mem.view_at(base + static_cast<std::uint32_t>(best)), ids);
    if (cmp.order < 0) best = static_cast<int>(i);
  }
  return best;
}

/// Recomputes a slot's best (and external best); returns true if either
/// selection changed from `old` in a way that requires re-advertising.
/// `touched` is the sender whose entry this message modified and
/// `touched_path_changed` whether that entry's AS-path changed: a selection
/// that stays on an untouched sender is unchanged by construction (one
/// entry per sender, and only the touched one was written).
bool reselect(SimMemory& mem, std::uint32_t slot, bool ibgp_mesh,
              std::span<const std::uint32_t> ids, const Selection& old,
              Model::Dense touched, bool touched_path_changed,
              SimCounters& tally) {
  const std::uint32_t base = mem.begin_of(slot);
  const std::uint32_t live = mem.live(slot);
  const int best = select_best_region(mem, base, live, ids);
  mem.set_best(slot, best);
  int external = -1;
  if (ibgp_mesh) {
    for (std::uint32_t i = 0; i < live; ++i) {
      if (mem.ibgp_at(base + i)) continue;
      if (external < 0 ||
          compare_views(mem.view_at(base + i),
                        mem.view_at(base + static_cast<std::uint32_t>(external)),
                        ids)
                  .order < 0) {
        external = static_cast<int>(i);
      }
    }
  } else {
    external = best;
  }
  mem.set_best_external(slot, external);

  const auto differs = [&](std::int64_t old_sender, int now_rel) {
    const std::int64_t now_sender =
        now_rel < 0 ? -1
                    : static_cast<std::int64_t>(
                          mem.sender_at(base + static_cast<std::uint32_t>(now_rel)));
    if (now_sender != old_sender) return true;
    return now_sender == static_cast<std::int64_t>(touched) &&
           touched_path_changed;
  };
  const bool changed =
      differs(old.best_sender, best) || differs(old.external_sender, external);
  tally.selection_changes += changed ? 1 : 0;
  return changed;
}

/// Materializes the arena's final state into the public RouterState form.
/// Reuses `routers`' existing rib_in and path capacities, so a sweep that
/// recycles its PrefixSimResult objects allocates nothing at steady state.
void export_state(const SimMemory& mem, std::size_t slots,
                  std::vector<RouterState>& routers) {
  routers.resize(slots);
  for (std::uint32_t s = 0; s < slots; ++s) {
    RouterState& state = routers[s];
    const std::uint32_t base = mem.begin_of(s);
    const std::uint32_t live = mem.live(s);
    state.rib_in.resize(live);
    for (std::uint32_t i = 0; i < live; ++i) {
      const std::uint32_t r = base + i;
      Route& route = state.rib_in[i];
      const RouteView v = mem.view_at(r);
      route.sender = v.sender;
      route.local_pref = v.local_pref;
      route.med = v.med;
      route.igp_cost = v.igp_cost;
      route.ibgp = v.ibgp;
      const std::span<const Asn> path = mem.path_at(r);
      route.path.assign(path.begin(), path.end());
    }
    state.best = mem.best(s);
    state.best_external = mem.best_external(s);
  }
}

}  // namespace

PrefixSimResult Engine::run(const Prefix& prefix, nb::Asn origin,
                            SimCounters* counters,
                            std::vector<char>* activated) const {
  PrefixSimResult res;
  SimMemory memory;
  run_into(identity_view(prefix, origin), memory, counters, activated, res);
  return res;
}

void Engine::run_into(const PrefixView& v, SimMemory& mem,
                      SimCounters* counters, std::vector<char>* activated,
                      PrefixSimResult& res) const {
  RD_CHECK(v.epoch == model_->generation(),
           "Engine::run_into: view is stale (model mutated)");
  // Instrumentation accumulates in locals unconditionally (register
  // increments, negligible next to message processing) and is stored
  // through `counters` only at the end, keeping the uninstrumented path
  // byte- and perf-identical.
  SimCounters tally;
  res.prefix = v.prefix;
  res.origin = v.origin;
  res.converged = true;
  res.messages = 0;
  const std::size_t n = v.size();
  if (activated != nullptr) activated->assign(n, 0);

  const std::shared_ptr<const SimContext> ctx_ptr = context();
  const std::span<const std::uint32_t> ids(ctx_ptr->ids);
  const std::span<const nb::Asn> asn_of(ctx_ptr->asn_of);

  const std::uint64_t message_cap =
      options_.message_cap_factor *
      std::max<std::uint64_t>(model_->num_sessions(), 1);
  res.message_cap = message_cap;

  // Region capacity per router: sessions are symmetric (the linter enforces
  // M101), so a router's in-degree equals its out-degree plus its AS-mates;
  // the +1 for self-origination is SimMemory's.
  mem.begin(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    mem.set_fan_in(r, v.edge_offset[r + 1] - v.edge_offset[r] +
                          v.mate_offset[r + 1] - v.mate_offset[r]);
  }
  mem.finish_setup();

  // Origination: each quasi-router of the origin AS injects a route with an
  // empty path (sender = self, MED 0 so an origin router never prefers a
  // learned alternative -- vacuous anyway since the empty path wins on
  // length).
  for (const Model::Dense r : model_->routers_of(v.origin)) {
    ++tally.rib_inserts;
    mem.push(r, SimMemory::Attrs{r, kDefaultLocalPref, 0, 0, false}, {});
    mem.set_best(r, 0);
    mem.set_best_external(r, 0);
    mem.enqueue(r);
  }

  const bool ibgp_mesh = options_.use_ibgp_mesh;
  const bool valley_free = options_.use_relationship_policies;
  const bool igp_cost = options_.use_igp_cost;
  std::uint64_t messages = 0;
  // Reused across every message; its capacity persists, so steady-state
  // propagation allocates nothing.
  std::vector<Asn> path;

  while (!mem.queue_empty()) {
    if (messages > message_cap) {
      res.converged = false;
      break;
    }
    const Model::Dense r = mem.pop_front();
    ++tally.activations;
    if (activated != nullptr) (*activated)[r] = 1;
    const nb::Asn from_as = asn_of[r];
    // r's own region is never written during r's activation (every message
    // targets a mate or peer), so these relative indices stay valid; path
    // SPANS are re-derived at each use because pushes can move the arena.
    const std::uint32_t r_base = mem.begin_of(r);
    const int r_best = mem.best(r);

    // iBGP mesh: push this router's best external route to its AS-mates.
    if (ibgp_mesh) {
      const int r_external = mem.best_external(r);
      for (std::uint32_t e = v.mate_offset[r]; e < v.mate_offset[r + 1]; ++e) {
        const std::uint32_t mate = v.mates[e].to;
        ++messages;
        const int slot = mem.find(mate, r);
        if (r_external < 0) {
          if (slot < 0) continue;
          const Selection old = snapshot(mem, mate);
          ++tally.withdrawals;
          mem.erase(mate, slot);
          if (reselect(mem, mate, ibgp_mesh, ids, old, r, false, tally))
            mem.enqueue(mate);
          continue;
        }
        const std::uint32_t external =
            r_base + static_cast<std::uint32_t>(r_external);
        const RouteView ext = mem.view_at(external);
        const std::uint32_t igp = v.mates[e].igp_cost;
        if (slot >= 0) {
          const std::uint32_t row =
              mem.row(mate, static_cast<std::uint32_t>(slot));
          const RouteView existing = mem.view_at(row);
          const bool same_path = mem.paths_equal(row, external);
          if (same_path && existing.local_pref == ext.local_pref &&
              existing.med == ext.med && existing.igp_cost == igp &&
              existing.ibgp) {
            continue;
          }
          const Selection old = snapshot(mem, mate);
          ++tally.rib_replacements;
          mem.set_attrs(row,
                        SimMemory::Attrs{r, ext.local_pref, ext.med, igp, true});
          if (!same_path) mem.assign_path_from(row, external);
          if (reselect(mem, mate, ibgp_mesh, ids, old, r, !same_path, tally))
            mem.enqueue(mate);
        } else {
          const Selection old = snapshot(mem, mate);
          ++tally.rib_inserts;
          mem.push_from(mate,
                        SimMemory::Attrs{r, ext.local_pref, ext.med, igp, true},
                        external);
          if (reselect(mem, mate, ibgp_mesh, ids, old, r, false, tally))
            mem.enqueue(mate);
        }
      }
    }

    // Valley-free export, the route-dependent half: a route learned from a
    // peer or provider crosses only the edges the view left ungated.
    // Unknown classes are permissive (the paper's agnostic stance: absent
    // information must not disconnect).
    bool customer_route = true;
    if (valley_free && r_best >= 0) {
      const std::span<const Asn> best_path =
          mem.path_at(r_base + static_cast<std::uint32_t>(r_best));
      if (!best_path.empty()) {
        const NeighborClass learned =
            model_->neighbor_class(from_as, best_path.front());
        customer_route = learned == NeighborClass::kCustomer ||
                         learned == NeighborClass::kUnknown;
      }
    }

    const std::uint32_t edges_end = v.edge_offset[r + 1];
    for (std::uint32_t e = v.edge_offset[r]; e < edges_end; ++e) {
      const PrefixView::Edge& edge = v.edges[e];
      ++messages;

      // Export + import over the pre-resolved edge: valley-free gate,
      // receiver-side AS-loop detection, filter threshold.  The best path
      // span is re-derived per edge -- pushes can move the hop arena.
      bool has_incoming = false;
      if (r_best >= 0 && (customer_route || !edge.customer_routes_only)) {
        const std::span<const Asn> best_path =
            mem.path_at(r_base + static_cast<std::uint32_t>(r_best));
        const nb::Asn to_as = asn_of[edge.to];
        if (to_as != from_as && !path_contains(best_path, to_as) &&
            best_path.size() + 1 >= edge.deny_below_len) {
          path.clear();
          path.push_back(from_as);
          path.insert(path.end(), best_path.begin(), best_path.end());
          has_incoming = true;
        }
      }

      const int slot = mem.find(edge.to, r);

      if (!has_incoming) {
        if (slot < 0) continue;  // nothing to withdraw
        const Selection old = snapshot(mem, edge.to);
        ++tally.withdrawals;
        mem.erase(edge.to, slot);
        if (reselect(mem, edge.to, ibgp_mesh, ids, old, r, false, tally))
          mem.enqueue(edge.to);
        continue;
      }
      const SimMemory::Attrs attrs{
          r, edge.local_pref,
          edge.preferred ? topo::kPreferredMed : topo::kDefaultMed,
          igp_cost ? v.edge_igp[e] : 0, false};
      if (slot >= 0) {
        const std::uint32_t row =
            mem.row(edge.to, static_cast<std::uint32_t>(slot));
        const RouteView existing = mem.view_at(row);
        const bool same_path = mem.path_equals(row, path);
        if (same_path && existing.local_pref == attrs.local_pref &&
            existing.med == attrs.med && existing.igp_cost == attrs.igp_cost) {
          continue;  // unchanged advertisement
        }
        const Selection old = snapshot(mem, edge.to);
        ++tally.rib_replacements;
        mem.set_attrs(row, attrs);
        if (!same_path) mem.set_path(row, path);
        if (reselect(mem, edge.to, ibgp_mesh, ids, old, r, !same_path, tally))
          mem.enqueue(edge.to);
      } else {
        const Selection old = snapshot(mem, edge.to);
        ++tally.rib_inserts;
        mem.push(edge.to, attrs, path);
        if (reselect(mem, edge.to, ibgp_mesh, ids, old, r, false, tally))
          mem.enqueue(edge.to);
      }
    }
  }
  res.messages = messages;
  res.activations = tally.activations;
  export_state(mem, n, res.routers);
  if (counters != nullptr) {
    tally.messages = messages;
    *counters = tally;
  }
}

PrefixView Engine::identity_view(const Prefix& prefix, nb::Asn origin) const {
  const std::shared_ptr<const SimContext> ctx_ptr = context();
  const SimContext& ctx = *ctx_ptr;
  const std::size_t n = model_->num_routers();

  PrefixView view;
  view.epoch = model_->generation();
  view.prefix = prefix;
  view.origin = origin;
  // Edge k is the session from its router to ctx.peer_flat[k], so the
  // edge offsets are the context's peer offsets.
  view.edge_offset = ctx.peer_offset;
  view.mate_offset.assign(n + 1, 0);
  view.edges.resize(ctx.peer_flat.size());
  if (options_.use_igp_cost) view.edge_igp = ctx.session_igp;

  const PrefixPolicy* policy = model_->find_policy(prefix);
  // Receiver-side MED preference, hoisted per router: the per-prefix
  // ranking override if present, else the router's default ranking --
  // exactly how propagate_into resolves MED, but paying at most two hash
  // probes per ROUTER instead of per edge.
  std::vector<nb::Asn> med_pref(n, nb::kInvalidAsn);
  const bool has_rankings = policy != nullptr && !policy->rankings.empty();
  for (Model::Dense r = 0; r < n; ++r) {
    if (has_rankings) {
      if (auto it = policy->rankings.find(ctx.ids[r]);
          it != policy->rankings.end()) {
        med_pref[r] = it->second.preferred_neighbor;
        continue;
      }
    }
    med_pref[r] = model_->default_ranking(r);
  }

  // lp_overrides and export_allows are ground-truth-only (refinement never
  // creates them), so the fitted-model sweep skips those probes entirely.
  const bool relationship = options_.use_relationship_policies;
  const bool has_lp = policy != nullptr && !policy->lp_overrides.empty();
  const bool has_allows =
      relationship && policy != nullptr && !policy->export_allows.empty();
  for (Model::Dense r = 0; r < n; ++r) {
    const nb::Asn from_as = ctx.asn_of[r];
    for (std::uint32_t k = ctx.peer_offset[r]; k < ctx.peer_offset[r + 1];
         ++k) {
      const Model::Dense peer = ctx.peer_flat[k];
      PrefixView::Edge& edge = view.edges[k];
      edge.to = peer;
      if (relationship) {
        edge.local_pref = ctx.session_lp[k];
        edge.customer_routes_only =
            ctx.session_gated[k] != 0 &&
            !(has_allows &&
              policy->export_allows.count(topo::session_key(
                  nb::RouterId::from_value(ctx.ids[r]),
                  nb::RouterId::from_value(ctx.ids[peer]))) > 0);
      }
      if (has_lp) {
        const nb::RouterId to_id = nb::RouterId::from_value(ctx.ids[peer]);
        if (auto it =
                policy->lp_overrides.find(topo::router_asn_key(to_id, from_as));
            it != policy->lp_overrides.end()) {
          edge.local_pref = it->second;
        }
      }
      edge.preferred = med_pref[peer] == from_as;
    }
    if (options_.use_ibgp_mesh) {
      view.mate_offset[r] = static_cast<std::uint32_t>(view.mates.size());
      for (const Model::Dense mate : model_->routers_of(from_as)) {
        if (mate == r) continue;
        view.mates.push_back(PrefixView::Mate{
            mate, options_.use_igp_cost ? model_->igp_cost(mate, r) : 0});
      }
    }
  }
  if (options_.use_ibgp_mesh)
    view.mate_offset[n] = static_cast<std::uint32_t>(view.mates.size());

  // Export filters, scattered from the policy map instead of probed per
  // edge: a prefix carries far fewer filters than the model has directed
  // edges, so F decode-and-place passes beat E session-key hash lookups.
  // Filters on sessions that no longer exist find no edge to annotate --
  // the per-edge probe never saw them either.
  if (policy != nullptr) {
    for (const auto& [key, filter] : policy->filters) {
      const nb::RouterId from_id =
          nb::RouterId::from_value(static_cast<std::uint32_t>(key >> 32));
      const nb::RouterId to_id =
          nb::RouterId::from_value(static_cast<std::uint32_t>(key));
      if (!model_->has_router(from_id) || !model_->has_router(to_id)) continue;
      const Model::Dense from = model_->dense(from_id);
      const Model::Dense to = model_->dense(to_id);
      for (std::uint32_t e = view.edge_offset[from];
           e < view.edge_offset[from + 1]; ++e) {
        if (view.edges[e].to == to) {
          view.edges[e].deny_below_len = filter.deny_below_len;
          break;
        }
      }
    }
  }
  return view;
}

}  // namespace bgp
