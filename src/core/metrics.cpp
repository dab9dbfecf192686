#include "core/metrics.hpp"

#include <algorithm>

namespace core {

const char* match_kind_name(MatchKind kind) {
  switch (kind) {
    case MatchKind::kRibOut:
      return "rib-out";
    case MatchKind::kPotentialRibOut:
      return "potential-rib-out";
    case MatchKind::kRibInOnly:
      return "rib-in-only";
    case MatchKind::kNotAvailable:
      return "not-available";
  }
  return "?";
}

namespace {

bool route_path_equals(std::span<const nb::Asn> route_path,
                       std::span<const nb::Asn> expected) {
  return route_path.size() == expected.size() &&
         std::equal(route_path.begin(), route_path.end(), expected.begin());
}

}  // namespace

bool has_rib_out(const Model& model, const bgp::PrefixSimResult& sim,
                 nb::Asn asn, std::span<const nb::Asn> route_path) {
  for (Model::Dense r : model.routers_of(asn)) {
    const bgp::PrefixSimResult::Row best = sim.best_row(r);
    if (best != bgp::PrefixSimResult::kNoRow &&
        route_path_equals(sim.path(best), route_path))
      return true;
  }
  return false;
}

PathMatch classify_path(const Model& model, const bgp::PrefixSimResult& sim,
                        const AsPath& observed,
                        std::span<const std::uint32_t> ids) {
  PathMatch match;
  const auto& hops = observed.hops();
  const nb::Asn observer = observed.observer();
  const std::span<const nb::Asn> route_path(hops.data() + 1,
                                            hops.size() - 1);

  // A trivial observation "at the origin itself" matches iff the AS exists
  // and originates (its routers hold the self route).
  for (Model::Dense r : model.routers_of(observer)) {
    const bgp::PrefixSimResult::Row best = sim.best_row(r);
    if (best != bgp::PrefixSimResult::kNoRow &&
        route_path_equals(sim.path(best), route_path)) {
      match.kind = MatchKind::kRibOut;
      match.router = r;
      return match;
    }
  }

  // No RIB-Out: find the RIB-In entry that came closest to winning.
  bool found_rib_in = false;
  bgp::DecisionStep closest = bgp::DecisionStep::kLocalPref;
  for (Model::Dense r : model.routers_of(observer)) {
    const bgp::PrefixSimResult::Row best = sim.best_row(r);
    for (const bgp::PrefixSimResult::Row row : sim.rows(r)) {
      if (!route_path_equals(sim.path(row), route_path)) continue;
      found_rib_in = true;
      // Cannot happen: an entry implies a best.
      if (best == bgp::PrefixSimResult::kNoRow) continue;
      bgp::Comparison cmp =
          bgp::compare_views(sim.view(row), sim.view(best), ids);
      // entry != best here, so cmp.order > 0; cmp.step is the decisive step.
      if (static_cast<int>(cmp.step) >= static_cast<int>(closest)) {
        closest = cmp.step;
        match.router = r;
      }
    }
  }
  if (!found_rib_in) {
    match.kind = MatchKind::kNotAvailable;
    return match;
  }
  match.lost_at = closest;
  match.kind = closest == bgp::DecisionStep::kTieBreak
                   ? MatchKind::kPotentialRibOut
                   : MatchKind::kRibInOnly;
  return match;
}

void MatchStats::add(const PathMatch& match) {
  ++total;
  switch (match.kind) {
    case MatchKind::kRibOut:
      ++rib_out;
      break;
    case MatchKind::kPotentialRibOut:
      ++potential_rib_out;
      ++lost_at[static_cast<std::size_t>(match.lost_at)];
      break;
    case MatchKind::kRibInOnly:
      ++rib_in_only;
      ++lost_at[static_cast<std::size_t>(match.lost_at)];
      break;
    case MatchKind::kNotAvailable:
      ++not_available;
      break;
  }
}

void MatchStats::add_prefix_coverage(std::size_t matched, std::size_t paths) {
  if (paths == 0) return;
  ++prefixes;
  const double fraction =
      static_cast<double>(matched) / static_cast<double>(paths);
  if (fraction >= 0.5) ++prefixes_50;
  if (fraction >= 0.9) ++prefixes_90;
  if (matched == paths) ++prefixes_100;
}

double MatchStats::rib_out_rate() const {
  return total == 0 ? 0 : static_cast<double>(rib_out) / total;
}

double MatchStats::potential_or_better_rate() const {
  return total == 0
             ? 0
             : static_cast<double>(rib_out + potential_rib_out) / total;
}

double MatchStats::rib_in_rate() const {
  return total == 0 ? 0
                    : static_cast<double>(rib_out + potential_rib_out +
                                          rib_in_only) /
                          total;
}

double MatchStats::not_available_rate() const {
  return total == 0 ? 0 : static_cast<double>(not_available) / total;
}

}  // namespace core
