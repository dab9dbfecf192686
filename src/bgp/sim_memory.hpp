// Reusable struct-of-arrays simulation storage (DESIGN.md section 13).
//
// One SimMemory instance holds every mutable byte a single Engine::run_into
// needs: the per-slot Adj-RIB-In packed into dense column
// arrays, AS-path hops in one bump-allocated arena, the FIFO dirty ring
// and the sender->slot hash indices.  Buffers persist across runs -- a
// refinement sweep hands each ThreadPool worker one instance and every
// run after the first allocates (amortized) nothing, replacing the
// per-message vector<Route> heap traffic of the old array-of-structs RIB.
//
// Layout: slot s owns entry rows [region_off_[s], region_off_[s] +
// live_[s]) of the column arrays.  Region capacity is fan-in + 1, a
// static bound on distinct senders (sessions are symmetric, so inbound
// degree equals the peer-list length; +1 covers self-origination), and
// regions never move, so the RIB keeps the AoS engine's exact insertion
// order: push appends at the region end, erase shifts the region tail
// left one row -- byte-identical rib_in contents and best indices fall
// out by construction.  Paths live in `hops_` as (offset, len, capacity)
// triples; a replacement path that outgrows its capacity gets a fresh
// arena region and the old one is leaked until the next begin() (bounded
// by one run's path churn, reclaimed wholesale by the bump reset).
//
// Invalidation rule for callers: any operation that appends hops (push,
// set_path, assign_path_from) may reallocate the arena, so never hold a
// span from path_at() across one -- re-derive it from the entry row,
// whose (offset, len) survive reallocation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/decision.hpp"
#include "bgp/route.hpp"
#include "netbase/check.hpp"

namespace bgp {

class SimMemory {
 public:
  /// Sender -> slot lookups switch from a linear column scan to a hash map
  /// at this inbound fan-in (same threshold as the AoS engine: low-degree
  /// routers scan faster than they hash).
  static constexpr std::uint32_t kIndexedFanIn = 32;

  /// The non-path attributes of one RIB row (paths are passed separately
  /// so the bump arena controls their storage).
  struct Attrs {
    std::uint32_t sender = 0;
    std::uint32_t local_pref = kDefaultLocalPref;
    std::uint32_t med = 0;
    std::uint32_t igp_cost = 0;
    bool ibgp = false;
  };

  /// Starts a run over `slots` RIB slots.  Callers declare every slot's
  /// fan-in (set_fan_in) and then call finish_setup() before any RIB op.
  void begin(std::size_t slots) {
    slots_ = slots;
    region_off_.assign(slots + 1, 0);
    indexed_.assign(slots, 0);
    any_indexed_ = false;
  }

  /// `fan_in` bounds the distinct senders that can ever hold a RIB row in
  /// this slot; at kIndexedFanIn and above, sender lookups go through a
  /// hash index.
  void set_fan_in(std::uint32_t slot, std::uint32_t fan_in) {
    region_off_[slot + 1] = fan_in + 1;
    if (fan_in >= kIndexedFanIn) {
      indexed_[slot] = 1;
      any_indexed_ = true;
    }
  }

  void finish_setup() {
    for (std::size_t s = 0; s < slots_; ++s) region_off_[s + 1] += region_off_[s];
    const std::size_t rows = region_off_[slots_];
    sender_.resize(rows);
    local_pref_.resize(rows);
    med_.resize(rows);
    igp_cost_.resize(rows);
    ibgp_.resize(rows);
    path_off_.resize(rows);
    path_len_.resize(rows);
    path_cap_.resize(rows);
    live_.assign(slots_, 0);
    best_.assign(slots_, -1);
    best_external_.assign(slots_, -1);
    queued_.assign(slots_, 0);
    ring_.resize(slots_);
    ring_head_ = 0;
    ring_count_ = 0;
    hops_used_ = 0;
    if (any_indexed_) {
      slot_index_.resize(slots_);
      for (std::size_t s = 0; s < slots_; ++s) {
        if (indexed_[s] && !slot_index_[s].empty()) slot_index_[s].clear();
      }
    }
  }

  // --- FIFO dirty ring (capacity == slots: the queued flag admits each
  // --- slot at most once, exactly like the AoS deque + flags pair).
  bool queue_empty() const { return ring_count_ == 0; }
  void enqueue(std::uint32_t slot) {
    if (queued_[slot]) return;
    queued_[slot] = 1;
    std::size_t tail = ring_head_ + ring_count_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = slot;
    ++ring_count_;
  }
  std::uint32_t pop_front() {
    const std::uint32_t slot = ring_[ring_head_];
    ring_head_ = ring_head_ + 1 == ring_.size() ? 0 : ring_head_ + 1;
    --ring_count_;
    queued_[slot] = 0;
    return slot;
  }

  // --- RIB rows.
  std::uint32_t begin_of(std::uint32_t slot) const { return region_off_[slot]; }
  std::uint32_t live(std::uint32_t slot) const { return live_[slot]; }
  /// Absolute row of a slot-relative index.
  std::uint32_t row(std::uint32_t slot, std::uint32_t rel) const {
    return region_off_[slot] + rel;
  }

  int best(std::uint32_t slot) const { return best_[slot]; }
  int best_external(std::uint32_t slot) const { return best_external_[slot]; }
  void set_best(std::uint32_t slot, int rel) { best_[slot] = rel; }
  void set_best_external(std::uint32_t slot, int rel) {
    best_external_[slot] = rel;
  }

  std::uint32_t sender_at(std::uint32_t r) const { return sender_[r]; }
  bool ibgp_at(std::uint32_t r) const { return ibgp_[r] != 0; }
  RouteView view_at(std::uint32_t r) const {
    return RouteView{sender_[r],   local_pref_[r], med_[r],
                     igp_cost_[r], path_len_[r],   ibgp_[r] != 0};
  }
  std::span<const Asn> path_at(std::uint32_t r) const {
    return {hops_.data() + path_off_[r], path_len_[r]};
  }
  bool path_equals(std::uint32_t r, std::span<const Asn> p) const {
    return path_len_[r] == p.size() &&
           std::equal(p.begin(), p.end(), hops_.begin() + path_off_[r]);
  }
  bool paths_equal(std::uint32_t a, std::uint32_t b) const {
    return path_equals(a, path_at(b));
  }

  /// Slot-relative index of `sender`'s row, -1 if absent.
  int find(std::uint32_t slot, std::uint32_t sender) const {
    if (indexed_[slot]) {
      const auto& map = slot_index_[slot];
      const auto it = map.find(sender);
      return it == map.end() ? -1 : static_cast<int>(it->second);
    }
    const std::uint32_t base = region_off_[slot];
    for (std::uint32_t i = 0; i < live_[slot]; ++i) {
      if (sender_[base + i] == sender) return static_cast<int>(i);
    }
    return -1;
  }

  void set_attrs(std::uint32_t r, const Attrs& a) {
    sender_[r] = a.sender;
    local_pref_[r] = a.local_pref;
    med_[r] = a.med;
    igp_cost_[r] = a.igp_cost;
    ibgp_[r] = a.ibgp ? 1 : 0;
  }

  /// Replaces row r's path.  `p` must NOT alias the hop arena (use
  /// assign_path_from for arena-to-arena copies).
  void set_path(std::uint32_t r, std::span<const Asn> p) {
    const auto len = static_cast<std::uint32_t>(p.size());
    if (len > path_cap_[r]) {
      path_off_[r] = alloc_hops(len);
      path_cap_[r] = len;
    }
    path_len_[r] = len;
    std::copy(p.begin(), p.end(), hops_.begin() + path_off_[r]);
  }

  /// Arena-to-arena path copy, safe under reallocation: the destination is
  /// (re)allocated first and both sides are re-derived from offsets after.
  void assign_path_from(std::uint32_t dst, std::uint32_t src) {
    const std::uint32_t len = path_len_[src];
    if (len > path_cap_[dst]) {
      path_off_[dst] = alloc_hops(len);
      path_cap_[dst] = len;
    }
    path_len_[dst] = len;
    std::copy_n(hops_.begin() + path_off_[src], len,
                hops_.begin() + path_off_[dst]);
  }

  /// Appends a row to `slot` (preserving insertion order); returns its
  /// absolute row.  `p` must not alias the arena.
  std::uint32_t push(std::uint32_t slot, const Attrs& a,
                     std::span<const Asn> p) {
    const std::uint32_t r = push_row(slot, a, static_cast<std::uint32_t>(p.size()));
    std::copy(p.begin(), p.end(), hops_.begin() + path_off_[r]);
    return r;
  }
  /// push() whose path is copied from an existing arena row.
  std::uint32_t push_from(std::uint32_t slot, const Attrs& a,
                          std::uint32_t src) {
    const std::uint32_t r = push_row(slot, a, path_len_[src]);
    std::copy_n(hops_.begin() + path_off_[src], path_len_[src],
                hops_.begin() + path_off_[r]);
    return r;
  }

  /// Total bytes reserved across every buffer.  Capacities never shrink --
  /// begin()/finish_setup() only resize upward and the hop arena doubles --
  /// so this is a monotone high-water mark of the instance's footprint,
  /// readable between runs at zero hot-path cost (the sweep profiler
  /// samples it per shard).
  std::size_t footprint_bytes() const {
    return (region_off_.capacity() + sender_.capacity() +
            local_pref_.capacity() + med_.capacity() + igp_cost_.capacity() +
            path_off_.capacity() + path_len_.capacity() + path_cap_.capacity() +
            ring_.capacity()) *
               sizeof(std::uint32_t) +
           (live_.capacity()) * sizeof(std::uint32_t) +
           (best_.capacity() + best_external_.capacity()) * sizeof(int) +
           (ibgp_.capacity() + queued_.capacity() + indexed_.capacity()) *
               sizeof(char) +
           hops_.capacity() * sizeof(Asn);
  }

  /// Erases the slot-relative row `rel`, shifting the region tail left one
  /// place and repairing the hash index -- the AoS vector::erase semantics.
  void erase(std::uint32_t slot, int rel) {
    const std::uint32_t base = region_off_[slot];
    const std::uint32_t erased_sender =
        sender_[base + static_cast<std::uint32_t>(rel)];
    const std::uint32_t last = live_[slot] - 1;
    for (auto i = static_cast<std::uint32_t>(rel); i < last; ++i) {
      const std::uint32_t to = base + i;
      const std::uint32_t from = to + 1;
      sender_[to] = sender_[from];
      local_pref_[to] = local_pref_[from];
      med_[to] = med_[from];
      igp_cost_[to] = igp_cost_[from];
      ibgp_[to] = ibgp_[from];
      path_off_[to] = path_off_[from];
      path_len_[to] = path_len_[from];
      path_cap_[to] = path_cap_[from];
    }
    live_[slot] = last;
    if (indexed_[slot]) {
      auto& map = slot_index_[slot];
      map.erase(erased_sender);
      for (auto& [key, value] : map) {
        if (value > static_cast<std::uint32_t>(rel)) --value;
      }
    }
  }

 private:
  std::uint32_t push_row(std::uint32_t slot, const Attrs& a,
                         std::uint32_t path_len) {
    RD_CHECK(region_off_[slot] + live_[slot] < region_off_[slot + 1],
             "SimMemory::push: slot over its fan-in capacity");
    const std::uint32_t r = region_off_[slot] + live_[slot];
    if (indexed_[slot]) slot_index_[slot][a.sender] = live_[slot];
    ++live_[slot];
    set_attrs(r, a);
    path_off_[r] = alloc_hops(path_len);
    path_len_[r] = path_len;
    path_cap_[r] = path_len;
    return r;
  }

  std::uint32_t alloc_hops(std::uint32_t len) {
    const std::size_t off = hops_used_;
    if (off + len > hops_.size()) {
      hops_.resize(std::max(hops_.size() * 2, off + len));
    }
    hops_used_ = off + len;
    return static_cast<std::uint32_t>(off);
  }

  std::size_t slots_ = 0;
  /// region_off_[s] .. region_off_[s+1]: slot s's (fixed-capacity) rows.
  std::vector<std::uint32_t> region_off_;
  std::vector<std::uint32_t> live_;
  std::vector<int> best_;
  std::vector<int> best_external_;

  // Entry columns, indexed by absolute row.
  std::vector<std::uint32_t> sender_;
  std::vector<std::uint32_t> local_pref_;
  std::vector<std::uint32_t> med_;
  std::vector<std::uint32_t> igp_cost_;
  std::vector<char> ibgp_;
  std::vector<std::uint32_t> path_off_;
  std::vector<std::uint32_t> path_len_;
  std::vector<std::uint32_t> path_cap_;

  /// Bump arena for AS-path hops; reset (not shrunk) every begin().
  std::vector<Asn> hops_;
  std::size_t hops_used_ = 0;

  std::vector<std::uint32_t> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  std::vector<char> queued_;

  std::vector<char> indexed_;
  bool any_indexed_ = false;
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> slot_index_;
};

}  // namespace bgp
