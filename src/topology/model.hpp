// The AS-routing model of the paper (Section 4.1): every AS consists of one
// or more quasi-routers; each AS-level edge is realized by eBGP sessions
// between quasi-routers of the two ASes; per-prefix policies (export filters
// and MED rankings) shape route selection.  Quasi-routers of the same AS are
// deliberately NOT connected to each other (no iBGP) -- each one receives
// routes directly from neighbor ASes and selects independently.
//
// The same class doubles as the *ground-truth* router-level network of the
// synthetic Internet (where it additionally carries per-session IGP costs
// producing hot-potato route diversity, and relationship classes driving
// local-pref / valley-free export).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "netbase/ids.hpp"
#include "netbase/ip.hpp"
#include "topology/as_graph.hpp"
#include "topology/policy.hpp"
#include "topology/relationships.hpp"

namespace topo {

using nb::Prefix;

class Model {
 public:
  /// Dense router index used by the simulation engine.
  using Dense = std::uint32_t;
  static constexpr Dense kNoRouter = 0xffffffffu;

  Model() = default;

  /// Initial model of Section 4.5: one quasi-router per AS, one session per
  /// AS-level edge.
  static Model one_router_per_as(const AsGraph& graph);

  // ---- construction / mutation -------------------------------------------

  /// Adds a quasi-router to `asn` (index = current count) with no sessions.
  RouterId add_router(Asn asn);

  /// Adds a new quasi-router to src's AS, copying all of src's sessions, IGP
  /// costs and (when copy_policies) per-prefix policies: import-side filters
  /// are re-keyed toward the duplicate with the duplicate as owner; export
  /// filters and rankings are copied verbatim.  This guarantees the duplicate
  /// receives the same routes as src (paper Section 4.6: "the new
  /// quasi-router has the same neighbors and policies as the copied one").
  /// Costs O(prefixes x degree(src)): the per-prefix rules are found by
  /// probing src's sessions, which relies on every rule sitting on a live
  /// session -- a rule that lint reports as dangling is not copied.
  RouterId duplicate_router(RouterId src, bool copy_policies = true);

  /// Establishes a (bidirectional) eBGP session; no-op if present.
  /// Sessions must connect different ASes.
  void add_session(RouterId a, RouterId b);
  /// Removes a session; no-op if absent.
  void remove_session(RouterId a, RouterId b);
  bool has_session(RouterId a, RouterId b) const;

  // ---- lookup -------------------------------------------------------------

  bool has_as(Asn asn) const { return as_routers_.count(asn) > 0; }
  bool has_router(RouterId id) const { return dense_.count(id.value()) > 0; }

  /// Model epoch: incremented by every mutating member (including no-op
  /// mutations -- the counter is conservative).  Consumers that cache
  /// model-derived state (bgp::Engine::SimContext) compare epochs instead of
  /// re-deriving per use; a stale epoch is the ONLY invalidation signal, so
  /// every path that can change routers, sessions, costs or policies must
  /// bump it (the non-const `policy()` accessor bumps pre-emptively because
  /// it hands out a mutable reference).
  std::uint64_t generation() const { return generation_; }

  /// Quasi-routers of an AS, ascending by index (empty if unknown AS).
  const std::vector<Dense>& routers_of(Asn asn) const;

  /// Peer routers of `r` (dense indices), ascending by RouterId.
  const std::vector<Dense>& peers(Dense r) const { return routers_[r].peers; }

  RouterId router_id(Dense r) const { return routers_[r].id; }
  Dense dense(RouterId id) const;

  std::size_t num_routers() const { return routers_.size(); }
  std::size_t num_sessions() const { return num_sessions_; }
  std::vector<Asn> asns() const;
  std::size_t num_ases() const { return as_routers_.size(); }

  // ---- relationship classes (baseline + ground truth) ---------------------

  /// How AS `of` sees AS `neighbor`; uniform across the AS's routers.
  void set_neighbor_class(Asn of, Asn neighbor, NeighborClass cls);
  NeighborClass neighbor_class(Asn of, Asn neighbor) const;
  /// Adopts all classes from an inferred relationship map for graph edges.
  void adopt_relationships(const AsGraph& graph, const RelationshipMap& rels);

  // ---- IGP costs (ground truth hot-potato diversity) -----------------------

  /// Cost the receiver assigns to routes learned over session (receiver,
  /// sender); default 0.
  void set_igp_cost(RouterId receiver, RouterId sender, std::uint32_t cost);
  std::uint32_t igp_cost(Dense receiver, Dense sender) const;

  // ---- per-prefix policies --------------------------------------------------

  /// Sets/overwrites the export filter on session from->to for `prefix`.
  void set_export_filter(RouterId from, RouterId to, const Prefix& prefix,
                         std::uint32_t deny_below_len, RouterId owner_target);
  /// Lowers (never raises) the filter threshold so a route of
  /// `arriving_len` passes; removes the rule if it becomes a no-op.
  void relax_export_filter(RouterId from, RouterId to, const Prefix& prefix,
                           std::size_t arriving_len);
  /// The filter on from->to for prefix, if any.
  const ExportFilter* find_export_filter(Dense from, Dense to,
                                         const PrefixPolicy* policy) const;

  void set_ranking(RouterId router, const Prefix& prefix, Asn preferred);
  /// Removes the per-prefix ranking of `router` (no-op if absent).
  void clear_ranking(RouterId router, const Prefix& prefix);
  /// Prefix-independent ranking: applies when a router has NO per-prefix
  /// ranking for the simulated prefix (policy generalization; see
  /// core/generalize).
  void set_default_ranking(RouterId router, Asn preferred);
  void clear_default_ranking(RouterId router);
  /// kInvalidAsn when no default ranking is set.
  Asn default_ranking(Dense router) const;
  std::size_t num_default_rankings() const { return default_rankings_.size(); }
  void set_lp_override(RouterId router, const Prefix& prefix, Asn neighbor,
                       std::uint32_t local_pref);
  /// Exempts the session from the valley-free export rule for `prefix`
  /// (ground-truth route leaks).
  void set_export_allow(RouterId from, RouterId to, const Prefix& prefix);

  /// Removes all rules owned by / attached to `target` for `prefix`
  /// (import-side filters owned by it and its ranking rule).  Costs
  /// O(degree(target)): only filters on target's live import sessions are
  /// probed (a dangling filter is left alone); an unknown target clears
  /// nothing but its ranking.
  void clear_owned_rules(const Prefix& prefix, RouterId target);

  /// Policy overlay for a prefix (nullptr if none).
  const PrefixPolicy* find_policy(const Prefix& prefix) const;
  PrefixPolicy& policy(const Prefix& prefix) {
    ++generation_;  // caller receives a mutable reference
    return prefix_policies_[prefix];
  }

  /// Drops policy overlays that have become empty (e.g. after
  /// analysis::prune_dead_policies); returns the number removed.
  std::size_t drop_empty_policies();

  /// Totals across prefixes, for model-size reporting.
  struct PolicyStats {
    std::size_t prefixes_with_policy = 0;
    std::size_t filters = 0;
    std::size_t rankings = 0;
    std::size_t lp_overrides = 0;
    std::size_t export_allows = 0;
  };
  PolicyStats policy_stats() const;

  /// Count of ASes with more than one quasi-router, and the per-AS counts.
  std::map<Asn, std::size_t> router_counts() const;

  // ---- bulk read access (serialization, reports) ---------------------------

  const std::map<Prefix, PrefixPolicy>& prefix_policies() const {
    return prefix_policies_;
  }
  const std::map<std::pair<Asn, Asn>, NeighborClass>& neighbor_classes()
      const {
    return neighbor_class_;
  }
  /// All non-zero IGP costs as (receiver, sender, cost), sorted.
  std::vector<std::tuple<RouterId, RouterId, std::uint32_t>> igp_costs() const;

 private:
  // Test-only backdoor (defined in analysis/fixtures.hpp): builds the
  // invalid states the public API rejects -- dangling peers, intra-AS
  // sessions -- so the analysis linter and its tests can prove they are
  // detected.  Not part of the public surface.
  friend class ModelMutator;

  struct RouterRec {
    RouterId id;
    std::vector<Dense> peers;  // ascending by RouterId
  };

  void insert_peer(Dense at, Dense peer);
  void erase_peer(Dense at, Dense peer);

  std::vector<RouterRec> routers_;
  std::unordered_map<std::uint32_t, Dense> dense_;  // RouterId value -> index
  std::map<Asn, std::vector<Dense>> as_routers_;
  std::map<std::pair<Asn, Asn>, NeighborClass> neighbor_class_;
  std::unordered_map<std::uint64_t, std::uint32_t> igp_cost_;
  std::map<Prefix, PrefixPolicy> prefix_policies_;
  std::unordered_map<std::uint32_t, Asn> default_rankings_;  // router id value
  std::size_t num_sessions_ = 0;
  std::uint64_t generation_ = 0;
  static const std::vector<Dense> kEmptyDense;
};

}  // namespace topo
