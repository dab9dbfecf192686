// Static edit-impact sets: which routers CAN a model edit touch?
//
// Given a model and a candidate edit (session teardown, ranking change,
// filter change), computes per prefix an over-approximation of the routers
// whose steady-state route selection may differ between the pre-edit and
// post-edit models -- the "dirty frontier" an incremental re-convergence
// pass has to re-simulate, and a reviewer's blast-radius answer, both
// without running either simulation.
//
// The closure is a reverse-dependence argument over the session graph.  A
// router's selection is a function of its RIB-In; its RIB-In changes only
// when a peer's advertisement to it changes; an advertisement changes only
// when the peer's own selection changed or the edit rewired the very
// session/filter it crosses.  Inductively every changed router is reachable
// from the edit's seed routers
//
//   session-down  {both endpoints}     (their RIB-Ins lose entries directly)
//   policy-change {the ranked router}  (its import preferences change)
//   filter-edit   {the receiver}       (what it imports changes; the
//                                       announcer's own state cannot)
//
// through sessions existing in either model, excluding only edges whose
// export filter is kDenyAll in BOTH models (those transmit nothing in
// either world; any weaker filter passes some lengths, and which lengths
// arrive depends on state we are abstracting away).  The closure is then
// intersected with may_pre ∪ may_post (route_space.hpp): a router whose MAY
// set is empty in both models never holds a route in either, so its
// selection cannot differ.  For prefixes whose enumeration was truncated the
// incomplete MAY sets prove nothing, so the intersection falls back to
// relaxed_reachable (route_space.hpp) -- a weaker but complete bound.
//
// Soundness (router changed under full re-simulation => router in impact
// set) is enforced dynamically by tests/test_impact.cpp over sampled edits
// on generated topologies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/route_space.hpp"
#include "bgp/engine.hpp"
#include "topology/model.hpp"

namespace analysis {

struct ModelEdit {
  enum class Kind : std::uint8_t {
    kSessionDown,    // remove the a<->b session
    kPolicyChange,   // set (or clear) router's per-prefix MED ranking
    kFilterEdit,     // set (or remove) the export filter on a->b for prefix
  };

  Kind kind = Kind::kSessionDown;
  /// kSessionDown / kFilterEdit endpoints; for filters `a` announces to `b`.
  nb::RouterId a;
  nb::RouterId b;
  /// kPolicyChange: the router whose ranking changes.
  nb::RouterId router;
  /// kPolicyChange / kFilterEdit: the targeted prefix overlay.
  nb::Prefix prefix;
  /// kPolicyChange: new preferred neighbor AS; kInvalidAsn clears the rule.
  nb::Asn preferred = nb::kInvalidAsn;
  /// kFilterEdit: new deny-below-length threshold; 0 removes the filter.
  std::uint32_t deny_below_len = 0;

  std::string str() const;
};

/// The post-edit model (value copy; the base is untouched).  Unknown
/// routers/sessions make the edit a no-op of the corresponding part, same
/// as the Model mutators it delegates to.
topo::Model apply_edit(const topo::Model& base, const ModelEdit& edit);

struct ImpactOptions {
  /// How the engine interprets the model, as in AuditOptions::engine.
  bgp::EngineOptions engine;
  RouteSpaceOptions space;

  /// Origin ASes whose prefixes to analyze.  Empty: derive one origin per
  /// policy overlay of the base model (session-down edits affect every
  /// announced prefix; policy/filter edits only their own overlay's).
  std::vector<nb::Asn> origins;
};

struct PrefixImpact {
  nb::Prefix prefix;
  nb::Asn origin = nb::kInvalidAsn;
  /// Routers whose selection MAY change, ascending by router id.  Sound
  /// over-approximation; typically small relative to the model.
  std::vector<nb::RouterId> routers;
  /// MAY-set tightening was unavailable (enumeration cap hit); the set
  /// above was tightened by relaxed reachability instead.
  bool truncated = false;
};

struct ImpactResult {
  std::vector<PrefixImpact> prefixes;  // analysis-target order
  std::size_t routers_total = 0;       // sum over prefixes
  bool truncated = false;              // any prefix truncated
};

ImpactResult compute_impact(const topo::Model& base, const ModelEdit& edit,
                            const ImpactOptions& options = {});

}  // namespace analysis
