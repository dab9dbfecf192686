#include "topology/model.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace topo {

const std::vector<Model::Dense> Model::kEmptyDense{};

Model Model::one_router_per_as(const AsGraph& graph) {
  Model model;
  for (Asn asn : graph.nodes()) model.add_router(asn);
  for (auto [a, b] : graph.edges()) {
    model.add_session(RouterId{a, 0}, RouterId{b, 0});
  }
  return model;
}

RouterId Model::add_router(Asn asn) {
  ++generation_;
  auto& list = as_routers_[asn];
  if (list.size() >= 0xffff)
    throw std::length_error("too many quasi-routers in AS");
  RouterId id{asn, static_cast<std::uint16_t>(list.size())};
  Dense index = static_cast<Dense>(routers_.size());
  routers_.push_back({id, {}});
  dense_[id.value()] = index;
  list.push_back(index);
  return id;
}

RouterId Model::duplicate_router(RouterId src, bool copy_policies) {
  ++generation_;  // mutates policy maps directly, beyond add_router/add_session
  Dense src_dense = dense(src);
  RouterId copy = add_router(src.asn());
  // Copy sessions (and per-session IGP costs, both directions).
  for (Dense peer : std::vector<Dense>(routers_[src_dense].peers)) {
    add_session(copy, routers_[peer].id);
    auto in = igp_cost_.find(session_key(src, routers_[peer].id));
    if (in != igp_cost_.end())
      igp_cost_[session_key(copy, routers_[peer].id)] = in->second;
    auto out = igp_cost_.find(session_key(routers_[peer].id, src));
    if (out != igp_cost_.end())
      igp_cost_[session_key(routers_[peer].id, copy)] = out->second;
  }
  if (!copy_policies) return copy;
  if (auto it = default_rankings_.find(src.value());
      it != default_rankings_.end()) {
    default_rankings_[copy.value()] = it->second;
  }
  // Every rule naming src sits on one of src's sessions (lint reports any
  // other as dangling), so src's peer list is the index: probe it instead
  // of scanning each prefix's containers.
  // Copies map[from] to map[to] when present and returns the copy; the
  // value is read out first because the insert may rehash.
  const auto copy_entry = [](auto& map, auto from, auto to) {
    auto it = map.find(from);
    if (it == map.end()) return decltype(&it->second){nullptr};
    auto value = it->second;
    return &(map[to] = value);
  };
  for (auto& [prefix, policy] : prefix_policies_) {
    for (Dense peer_dense : routers_[src_dense].peers) {
      const RouterId peer = routers_[peer_dense].id;
      // Import-side filters: session peer -> src becomes peer -> copy,
      // owned by the copy (they exist to preserve its RIB-In; the
      // refinement pass that triggered the duplication overwrites them as
      // needed).
      if (ExportFilter* in = copy_entry(policy.filters, session_key(peer, src),
                                        session_key(peer, copy)))
        in->owner_target = copy;
      // Export-side behaviour is also part of "same policies".
      copy_entry(policy.filters, session_key(src, peer),
                 session_key(copy, peer));
      copy_entry(policy.lp_overrides, router_asn_key(src, peer.asn()),
                 router_asn_key(copy, peer.asn()));
      // Export-allow leaks involving src replicate to the copy.
      if (policy.export_allows.count(session_key(peer, src)) != 0)
        policy.export_allows.insert(session_key(peer, copy));
      if (policy.export_allows.count(session_key(src, peer)) != 0)
        policy.export_allows.insert(session_key(copy, peer));
    }
    copy_entry(policy.rankings, src.value(), copy.value());
  }
  return copy;
}

void Model::add_session(RouterId a, RouterId b) {
  ++generation_;
  if (a.asn() == b.asn())
    throw std::invalid_argument("sessions must connect different ASes");
  Dense da = dense(a), db = dense(b);
  const auto& peers = routers_[da].peers;
  auto pos = std::lower_bound(peers.begin(), peers.end(), db,
                              [&](Dense x, Dense y) {
                                return routers_[x].id < routers_[y].id;
                              });
  if (pos != peers.end() && *pos == db) return;
  insert_peer(da, db);
  insert_peer(db, da);
  ++num_sessions_;
}

void Model::remove_session(RouterId a, RouterId b) {
  ++generation_;
  if (!has_router(a) || !has_router(b)) return;
  Dense da = dense(a), db = dense(b);
  const auto& peers = routers_[da].peers;
  if (!std::binary_search(peers.begin(), peers.end(), db,
                          [&](Dense x, Dense y) {
                            return routers_[x].id < routers_[y].id;
                          }))
    return;
  erase_peer(da, db);
  erase_peer(db, da);
  --num_sessions_;
}

bool Model::has_session(RouterId a, RouterId b) const {
  auto ita = dense_.find(a.value());
  auto itb = dense_.find(b.value());
  if (ita == dense_.end() || itb == dense_.end()) return false;
  const auto& peers = routers_[ita->second].peers;
  return std::binary_search(peers.begin(), peers.end(), itb->second,
                            [&](Dense x, Dense y) {
                              return routers_[x].id < routers_[y].id;
                            });
}

const std::vector<Model::Dense>& Model::routers_of(Asn asn) const {
  auto it = as_routers_.find(asn);
  return it == as_routers_.end() ? kEmptyDense : it->second;
}

Model::Dense Model::dense(RouterId id) const {
  auto it = dense_.find(id.value());
  if (it == dense_.end())
    throw std::out_of_range("unknown router " + id.str());
  return it->second;
}

std::vector<Asn> Model::asns() const {
  std::vector<Asn> out;
  out.reserve(as_routers_.size());
  for (auto& [asn, routers] : as_routers_) out.push_back(asn);
  return out;
}

void Model::set_neighbor_class(Asn of, Asn neighbor, NeighborClass cls) {
  ++generation_;
  neighbor_class_[{of, neighbor}] = cls;
}

NeighborClass Model::neighbor_class(Asn of, Asn neighbor) const {
  auto it = neighbor_class_.find({of, neighbor});
  return it == neighbor_class_.end() ? NeighborClass::kUnknown : it->second;
}

void Model::adopt_relationships(const AsGraph& graph,
                                const RelationshipMap& rels) {
  for (auto [a, b] : graph.edges()) {
    set_neighbor_class(a, b, rels.classify_neighbor(a, b));
    set_neighbor_class(b, a, rels.classify_neighbor(b, a));
  }
}

void Model::set_igp_cost(RouterId receiver, RouterId sender,
                         std::uint32_t cost) {
  ++generation_;
  if (cost == 0) {
    igp_cost_.erase(session_key(receiver, sender));
  } else {
    igp_cost_[session_key(receiver, sender)] = cost;
  }
}

std::uint32_t Model::igp_cost(Dense receiver, Dense sender) const {
  if (igp_cost_.empty()) return 0;
  auto it = igp_cost_.find(
      session_key(routers_[receiver].id, routers_[sender].id));
  return it == igp_cost_.end() ? 0 : it->second;
}

void Model::set_export_filter(RouterId from, RouterId to, const Prefix& prefix,
                              std::uint32_t deny_below_len,
                              RouterId owner_target) {
  ++generation_;
  auto& policy = prefix_policies_[prefix];
  if (deny_below_len == 0) {
    policy.filters.erase(session_key(from, to));
  } else {
    policy.filters[session_key(from, to)] =
        ExportFilter{deny_below_len, owner_target};
  }
}

void Model::relax_export_filter(RouterId from, RouterId to,
                                const Prefix& prefix,
                                std::size_t arriving_len) {
  ++generation_;
  auto policy_it = prefix_policies_.find(prefix);
  if (policy_it == prefix_policies_.end()) return;
  auto it = policy_it->second.filters.find(session_key(from, to));
  if (it == policy_it->second.filters.end()) return;
  if (!it->second.blocks(arriving_len)) return;
  if (arriving_len == 0) {
    policy_it->second.filters.erase(it);
  } else {
    it->second.deny_below_len = static_cast<std::uint32_t>(arriving_len);
  }
}

const ExportFilter* Model::find_export_filter(Dense from, Dense to,
                                              const PrefixPolicy* policy) const {
  if (policy == nullptr) return nullptr;
  auto it = policy->filters.find(
      session_key(routers_[from].id, routers_[to].id));
  return it == policy->filters.end() ? nullptr : &it->second;
}

void Model::set_ranking(RouterId router, const Prefix& prefix, Asn preferred) {
  ++generation_;
  prefix_policies_[prefix].rankings[router.value()] =
      RankingRule{preferred};
}

void Model::clear_ranking(RouterId router, const Prefix& prefix) {
  ++generation_;
  auto it = prefix_policies_.find(prefix);
  if (it == prefix_policies_.end()) return;
  it->second.rankings.erase(router.value());
}

void Model::set_default_ranking(RouterId router, Asn preferred) {
  ++generation_;
  default_rankings_[router.value()] = preferred;
}

void Model::clear_default_ranking(RouterId router) {
  ++generation_;
  default_rankings_.erase(router.value());
}

Asn Model::default_ranking(Dense router) const {
  if (default_rankings_.empty()) return nb::kInvalidAsn;
  auto it = default_rankings_.find(routers_[router].id.value());
  return it == default_rankings_.end() ? nb::kInvalidAsn : it->second;
}

void Model::set_lp_override(RouterId router, const Prefix& prefix,
                            Asn neighbor, std::uint32_t local_pref) {
  ++generation_;
  prefix_policies_[prefix].lp_overrides[router_asn_key(router, neighbor)] =
      local_pref;
}

void Model::set_export_allow(RouterId from, RouterId to,
                             const Prefix& prefix) {
  ++generation_;
  prefix_policies_[prefix].export_allows.insert(session_key(from, to));
}

void Model::clear_owned_rules(const Prefix& prefix, RouterId target) {
  ++generation_;
  auto policy_it = prefix_policies_.find(prefix);
  if (policy_it == prefix_policies_.end()) return;
  auto& policy = policy_it->second;
  // Filters protecting target sit on its import sessions: probe those.
  if (auto it = dense_.find(target.value()); it != dense_.end()) {
    for (Dense peer : routers_[it->second].peers) {
      auto filter = policy.filters.find(session_key(routers_[peer].id, target));
      if (filter != policy.filters.end() &&
          filter->second.owner_target == target)
        policy.filters.erase(filter);
    }
  }
  policy.rankings.erase(target.value());
}

const PrefixPolicy* Model::find_policy(const Prefix& prefix) const {
  auto it = prefix_policies_.find(prefix);
  return it == prefix_policies_.end() ? nullptr : &it->second;
}

std::size_t Model::drop_empty_policies() {
  ++generation_;
  return std::erase_if(prefix_policies_,
                       [](const auto& entry) { return entry.second.empty(); });
}

Model::PolicyStats Model::policy_stats() const {
  PolicyStats stats;
  for (auto& [prefix, policy] : prefix_policies_) {
    if (policy.empty()) continue;
    ++stats.prefixes_with_policy;
    stats.filters += policy.filters.size();
    stats.rankings += policy.rankings.size();
    stats.lp_overrides += policy.lp_overrides.size();
    stats.export_allows += policy.export_allows.size();
  }
  return stats;
}

std::map<Asn, std::size_t> Model::router_counts() const {
  std::map<Asn, std::size_t> out;
  for (auto& [asn, routers] : as_routers_) out[asn] = routers.size();
  return out;
}

std::vector<std::tuple<RouterId, RouterId, std::uint32_t>> Model::igp_costs()
    const {
  std::vector<std::tuple<RouterId, RouterId, std::uint32_t>> out;
  out.reserve(igp_cost_.size());
  for (auto& [key, cost] : igp_cost_) {
    out.emplace_back(RouterId::from_value(static_cast<std::uint32_t>(key >> 32)),
                     RouterId::from_value(static_cast<std::uint32_t>(key)),
                     cost);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Model::insert_peer(Dense at, Dense peer) {
  auto& peers = routers_[at].peers;
  peers.insert(std::lower_bound(peers.begin(), peers.end(), peer,
                                [&](Dense x, Dense y) {
                                  return routers_[x].id < routers_[y].id;
                                }),
               peer);
}

void Model::erase_peer(Dense at, Dense peer) {
  auto& peers = routers_[at].peers;
  auto it = std::lower_bound(peers.begin(), peers.end(), peer,
                             [&](Dense x, Dense y) {
                               return routers_[x].id < routers_[y].id;
                             });
  if (it != peers.end() && *it == peer) peers.erase(it);
}

}  // namespace topo
