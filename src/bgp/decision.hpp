// The BGP decision process (paper Figure 1 / Section 2), with the step that
// decided each comparison reported explicitly.  Step reporting powers:
//   * the "potential RIB-Out match" metric (lost ONLY at the final
//     lowest-router-id tie-break);
//   * the mismatch breakdown rows of Table 2 ("shorter AS-path exists",
//     "lowest neighbor ID").
//
// Order of elimination implemented (no iBGP in the model, so the
// eBGP-over-iBGP step is vacuous):
//   1. highest local-pref
//   2. shortest AS-path
//   3. lowest MED, ALWAYS compared across neighbor ASes (Section 4.6)
//   4. eBGP over iBGP (only in the ibgp-mesh experiment mode)
//   5. lowest IGP cost to the next hop (hot-potato; ground truth only)
//   6. lowest announcing-router id (the paper's "lowest neighbor IP address")
#pragma once

#include <cstdint>
#include <span>

#include "bgp/route.hpp"

namespace bgp {

enum class DecisionStep : std::uint8_t {
  kLocalPref,
  kPathLength,
  kMed,
  kEbgpOverIbgp,  // only with EngineOptions::use_ibgp_mesh
  kIgpCost,
  kTieBreak,
  kEqual,  // identical on every criterion (same sender announcing twice)
};

/// Number of DecisionStep values (array sizing).
constexpr std::size_t kNumDecisionSteps = 7;

const char* decision_step_name(DecisionStep step);

struct Comparison {
  int order = 0;  // <0: a preferred, >0: b preferred, 0: equal
  DecisionStep step = DecisionStep::kEqual;
};

/// The decision-relevant attributes of a stored route.  Every step of the
/// decision process reads scalars only -- path CONTENT never participates,
/// just its length -- so this view fully determines compare_routes and lets
/// the struct-of-arrays RIB (bgp::PrefixSimResult) compare rows without
/// materializing Route objects.
struct RouteView {
  std::uint32_t sender = 0;
  std::uint32_t local_pref = 0;
  std::uint32_t med = 0;
  std::uint32_t igp_cost = 0;
  std::uint32_t path_len = 0;
  bool ibgp = false;
};

inline RouteView view_of(const Route& route) {
  return RouteView{route.sender, route.local_pref, route.med, route.igp_cost,
                   static_cast<std::uint32_t>(route.path.size()), route.ibgp};
}

/// Compares two candidate routes; negative order means `a` wins.
/// `sender_ids[dense]` is the router-id value of a dense router index, so the
/// final tie-break uses the paper's addressing (ASN<<16 | index).
Comparison compare_views(const RouteView& a, const RouteView& b,
                         std::span<const std::uint32_t> sender_ids);
Comparison compare_routes(const Route& a, const Route& b,
                          std::span<const std::uint32_t> sender_ids);

/// Index of the best route in `candidates`, -1 if empty.
int select_best(std::span<const Route> candidates,
                std::span<const std::uint32_t> sender_ids);

}  // namespace bgp
