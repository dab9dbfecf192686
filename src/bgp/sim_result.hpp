// The result of one prefix simulation (DESIGN.md section 13): every
// quasi-router's steady-state Adj-RIB-In and selections, stored exactly as
// Engine::run_into wrote them -- struct-of-arrays columns plus one hop
// arena, with no export step.  Readers walk rows through the read API and
// build a bgp::Route only at the API edges (explain, the convergence
// oracle, tests).
//
// Router r owns rows [region_off_[r], region_off_[r] + live_[r]).  Region
// capacity is fan-in + 1 (distinct senders plus self-origination) and
// regions never move, so rows keep insertion order: push appends, erase
// shifts the tail left.  Paths are (offset, len, capacity) triples into the
// bump arena `hops_`; an outgrown path gets fresh hops and the old ones are
// reclaimed by the next finish_setup().  Buffers only grow, so a recycled
// result allocates (amortized) nothing.  Anything that appends hops may
// reallocate the arena: never hold a path() span across a write.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "bgp/decision.hpp"
#include "bgp/route.hpp"
#include "netbase/check.hpp"
#include "netbase/ip.hpp"

namespace bgp {

struct PrefixSimResult {
  /// An absolute RIB row; kNoRow stands for "no route".
  using Row = std::uint32_t;
  static constexpr Row kNoRow = ~Row{0};

  /// The non-path attributes of one RIB row.
  struct Attrs {
    std::uint32_t sender = 0;
    std::uint32_t local_pref = kDefaultLocalPref;
    std::uint32_t med = 0;
    std::uint32_t igp_cost = 0;
    bool ibgp = false;
  };

  nb::Prefix prefix;
  nb::Asn origin = nb::kInvalidAsn;
  bool converged = true;
  std::uint64_t messages = 0;
  /// Router wake-ups processed (always filled, with or without SimCounters):
  /// together with `messages` and `message_cap` this makes a divergence-
  /// guard trip a structured outcome callers can report, not a silent
  /// partial RIB (core/refine emits R701, check_convergence C401).
  std::uint64_t activations = 0;
  /// The divergence-guard threshold this run used
  /// (EngineOptions::message_cap_factor x max(#sessions, 1)).
  std::uint64_t message_cap = 0;

  // --- Read API.  Routers are dense indices of the model at run time.
  std::size_t num_routers() const { return live_.size(); }
  /// Router r's live Adj-RIB-In rows, in insertion order.  Includes the
  /// self-originated route at origin routers and, in ibgp-mesh mode, one
  /// iBGP row per AS-mate.
  std::ranges::iota_view<Row, Row> rows(std::uint32_t r) const {
    return {region_off_[r], region_off_[r] + live_[r]};
  }
  /// Index into rows(r) of the best route (best non-iBGP route, == best
  /// unless ibgp-mesh mode), -1 if none.
  int best(std::uint32_t r) const { return best_[r]; }
  int best_external(std::uint32_t r) const { return best_external_[r]; }
  /// The absolute row of index `rel` into rows(r); kNoRow for -1.
  Row row(std::uint32_t r, int rel) const {
    return rel < 0 ? kNoRow : region_off_[r] + static_cast<Row>(rel);
  }
  Row best_row(std::uint32_t r) const { return row(r, best_[r]); }
  Row best_external_row(std::uint32_t r) const {
    return row(r, best_external_[r]);
  }

  std::uint32_t sender(Row row) const { return sender_[row]; }
  RouteView view(Row row) const {
    return RouteView{sender_[row],   local_pref_[row], med_[row],
                     igp_cost_[row], path_len_[row],   ibgp_[row] != 0};
  }
  /// The row's AS-path, [announcing AS ... origin]; empty if originated.
  std::span<const Asn> path(Row row) const {
    return {hops_.data() + path_off_[row], path_len_[row]};
  }
  bool path_equals(Row row, std::span<const Asn> p) const {
    return path_len_[row] == p.size() &&
           std::equal(p.begin(), p.end(), hops_.begin() + path_off_[row]);
  }
  /// Materializes a row as a Route (allocates its path).
  Route route(Row row) const {
    const std::span<const Asn> p = path(row);
    return Route{sender_[row], local_pref_[row], med_[row], igp_cost_[row],
                 ibgp_[row] != 0, std::vector<Asn>(p.begin(), p.end())};
  }

  // --- Writers: Engine::run_into (through SimMemory, which keeps its
  // --- sender index in step); tests corrupt results with set_best/erase.

  /// Starts a run over `routers` regions.  Callers declare every region's
  /// fan-in (set_fan_in) and then call finish_setup() before any row op.
  void begin(std::size_t routers) { region_off_.assign(routers + 1, 0); }
  /// `fan_in` bounds the distinct senders that can ever hold a row at r.
  void set_fan_in(std::uint32_t r, std::uint32_t fan_in) {
    region_off_[r + 1] = fan_in + 1;
  }
  void finish_setup() {
    const std::size_t n = region_off_.size() - 1;
    for (std::size_t r = 0; r < n; ++r) region_off_[r + 1] += region_off_[r];
    for (auto* column : row_columns(*this)) column->resize(region_off_[n]);
    ibgp_.resize(region_off_[n]);
    live_.assign(n, 0);
    best_.assign(n, -1);
    best_external_.assign(n, -1);
    hops_used_ = 0;
  }

  void set_best(std::uint32_t r, int rel) { best_[r] = rel; }
  void set_best_external(std::uint32_t r, int rel) { best_external_[r] = rel; }

  void set_attrs(Row row, const Attrs& a) {
    sender_[row] = a.sender;
    local_pref_[row] = a.local_pref;
    med_[row] = a.med;
    igp_cost_[row] = a.igp_cost;
    ibgp_[row] = a.ibgp ? 1 : 0;
  }

  /// Appends a row with an empty path to router r (preserving insertion
  /// order); returns it.
  Row push(std::uint32_t r, const Attrs& a) {
    RD_CHECK(region_off_[r] + live_[r] < region_off_[r + 1],
             "PrefixSimResult::push: router over its fan-in capacity");
    const Row row = region_off_[r] + live_[r]++;
    set_attrs(row, a);
    path_off_[row] = static_cast<std::uint32_t>(hops_used_);
    path_len_[row] = 0;
    path_cap_[row] = 0;
    return row;
  }

  /// Replaces the row's path.  `p` must NOT alias the hop arena (use
  /// assign_path_from for arena-to-arena copies).
  void set_path(Row row, std::span<const Asn> p) {
    reserve_path(row, static_cast<std::uint32_t>(p.size()));
    std::copy(p.begin(), p.end(), hops_.begin() + path_off_[row]);
  }
  /// Arena-to-arena path copy, safe under reallocation: the destination is
  /// (re)allocated first and both sides are re-derived from offsets after.
  void assign_path_from(Row dst, Row src) {
    reserve_path(dst, path_len_[src]);
    std::copy_n(hops_.begin() + path_off_[src], path_len_[src],
                hops_.begin() + path_off_[dst]);
  }

  /// Erases index `rel` of rows(r), shifting the region tail left one place
  /// (vector::erase semantics: the survivors keep their order).  Selections
  /// are left as they are.
  void erase(std::uint32_t r, int rel) {
    const Row to = row(r, rel);
    const Row end = region_off_[r] + live_[r]--;
    const auto shift = [&](auto& column) {
      std::copy(column.begin() + to + 1, column.begin() + end,
                column.begin() + to);
    };
    for (auto* column : row_columns(*this)) shift(*column);
    shift(ibgp_);
  }

  /// Total bytes reserved across every buffer.  Capacities never shrink, so
  /// this is a monotone high-water mark of the instance's footprint.
  std::size_t footprint_bytes() const {
    std::size_t words = region_off_.capacity() + live_.capacity();
    for (const auto* column : row_columns(*this)) words += column->capacity();
    return words * sizeof(std::uint32_t) +
           (best_.capacity() + best_external_.capacity()) * sizeof(int) +
           ibgp_.capacity() + hops_.capacity() * sizeof(Asn);
  }

 private:
  /// The 32-bit row columns (all but ibgp_), for column-wise passes.
  template <class Self>
  static auto row_columns(Self& self)
      -> std::array<decltype(&self.sender_), 7> {
    return {&self.sender_,   &self.local_pref_, &self.med_,
            &self.igp_cost_, &self.path_off_,   &self.path_len_,
            &self.path_cap_};
  }

  void reserve_path(Row row, std::uint32_t len) {
    if (len > path_cap_[row]) {
      path_off_[row] = alloc_hops(len);
      path_cap_[row] = len;
    }
    path_len_[row] = len;
  }

  std::uint32_t alloc_hops(std::uint32_t len) {
    const std::size_t off = hops_used_;
    if (off + len > hops_.size()) {
      hops_.resize(std::max(hops_.size() * 2, off + len));
    }
    hops_used_ = off + len;
    return static_cast<std::uint32_t>(off);
  }

  /// region_off_[r] .. region_off_[r+1]: router r's (fixed-capacity) rows.
  std::vector<std::uint32_t> region_off_;
  std::vector<std::uint32_t> live_;
  std::vector<int> best_;
  std::vector<int> best_external_;

  // Row columns, indexed by absolute row.
  std::vector<std::uint32_t> sender_;
  std::vector<std::uint32_t> local_pref_;
  std::vector<std::uint32_t> med_;
  std::vector<std::uint32_t> igp_cost_;
  std::vector<char> ibgp_;
  std::vector<std::uint32_t> path_off_;
  std::vector<std::uint32_t> path_len_;
  std::vector<std::uint32_t> path_cap_;

  /// Bump arena for AS-path hops; reset (not shrunk) every finish_setup().
  std::vector<Asn> hops_;
  std::size_t hops_used_ = 0;
};

}  // namespace bgp
