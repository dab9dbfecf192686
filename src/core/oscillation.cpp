#include "core/oscillation.hpp"

#include <algorithm>

namespace core {
namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;

/// One commutative term: tag distinguishes the policy map, key/value the
/// entry.  XORing terms makes the aggregate independent of iteration order.
std::uint64_t term(std::uint64_t tag, std::uint64_t key, std::uint64_t value) {
  return mix_u64(tag * kGolden + mix_u64(key) + mix_u64(value * kGolden + 1));
}

}  // namespace

std::uint64_t mix_u64(std::uint64_t value) {
  value += kGolden;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ull;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebull;
  return value ^ (value >> 31);
}

std::uint64_t fingerprint_policy(const topo::Model& model, nb::Prefix prefix) {
  std::uint64_t hash =
      mix_u64((std::uint64_t{prefix.network().value()} << 8) | prefix.length());
  const topo::PrefixPolicy* policy = model.find_policy(prefix);
  if (policy == nullptr) return hash;
  for (const auto& [key, filter] : policy->filters) {
    hash ^= term(1, key,
                 (std::uint64_t{filter.deny_below_len} << 32) |
                     filter.owner_target.value());
  }
  for (const auto& [router, rule] : policy->rankings)
    hash ^= term(2, router, rule.preferred_neighbor);
  for (const auto& [key, lp] : policy->lp_overrides) hash ^= term(3, key, lp);
  for (const std::uint64_t key : policy->export_allows) hash ^= term(4, key, 0);
  return hash;
}

std::uint64_t fingerprint_selections(const bgp::PrefixSimResult& sim,
                                     std::span<const std::uint32_t> ids) {
  // Seeded by the router count and keyed by dense-index ids.
  std::uint64_t hash = mix_u64(sim.routers.size());
  for (std::size_t r = 0; r < sim.routers.size(); ++r) {
    const bgp::Route* best = sim.routers[r].best_route();
    if (best == nullptr) continue;
    if (r >= ids.size()) continue;
    // FNV-1a over the path; hop order matters, so this part is sequential.
    std::uint64_t path_hash = 1469598103934665603ull;
    for (const nb::Asn hop : best->path)
      path_hash = (path_hash ^ hop) * 1099511628211ull;
    hash ^= term(5, ids[r], path_hash);
  }
  return hash;
}

OscillationDetector::Verdict OscillationDetector::observe(
    std::uint64_t fingerprint, std::size_t matched, bool changed) {
  if (matched > state_.best_matched) state_.best_matched = matched;
  const bool recurred =
      std::find(state_.fingerprints.begin(), state_.fingerprints.end(),
                fingerprint) != state_.fingerprints.end();
  if (recurred && changed) {
    ++state_.hits;
  } else if (!recurred) {
    state_.hits = 0;
  }
  state_.fingerprints.push_back(fingerprint);
  if (state_.fingerprints.size() > window_)
    state_.fingerprints.erase(state_.fingerprints.begin());
  if (!state_.freeze_pending && state_.hits >= confirmations_) {
    state_.freeze_pending = true;
    state_.freeze_countdown = window_;
    return Verdict::kFreezePending;
  }
  if (state_.freeze_pending) return Verdict::kFreezePending;
  return state_.hits > 0 ? Verdict::kSuspected : Verdict::kStable;
}

bool OscillationDetector::should_freeze(std::size_t matched) {
  if (!state_.freeze_pending) return false;
  if (matched >= state_.best_matched) return true;
  if (state_.freeze_countdown == 0) return true;  // safety valve
  --state_.freeze_countdown;
  return false;
}

}  // namespace core
