// Reusable per-run simulation scratch (DESIGN.md section 13).
//
// One SimMemory instance holds the bytes a single Engine::run_into needs
// only while it runs: the FIFO dirty ring with its queued flags and the
// sender->index hash maps of high-fan-in routers.  The RIB itself is the
// run's result (bgp/sim_result.hpp); SimMemory's row operations write it
// and keep the sender index in step.  Buffers persist across runs -- a
// refinement sweep hands each ThreadPool worker one instance, and every run
// after the first allocates (amortized) nothing.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bgp/sim_result.hpp"

namespace bgp {

class SimMemory {
 public:
  using Row = PrefixSimResult::Row;

  /// Sender lookups switch from a linear row scan to a hash map at this
  /// inbound fan-in (low-degree routers scan faster than they hash).
  static constexpr std::uint32_t kIndexedFanIn = 32;

  /// Starts a run over `slots` routers with an empty queue and no index.
  void begin(std::size_t slots) {
    queued_.assign(slots, 0);
    ring_.resize(slots);
    ring_head_ = 0;
    ring_count_ = 0;
    indexed_.assign(slots, 0);
  }

  /// Declares a router's fan-in; at kIndexedFanIn and above, sender lookups
  /// go through a (cleared) hash index.
  void set_fan_in(std::uint32_t slot, std::uint32_t fan_in) {
    if (fan_in < kIndexedFanIn) return;
    indexed_[slot] = 1;
    if (slot_index_.size() <= slot) slot_index_.resize(indexed_.size());
    slot_index_[slot].clear();
  }

  // --- FIFO dirty ring (capacity == slots: the queued flag admits each
  // --- slot at most once).
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

  // --- Row operations on the run's result that the sender index tracks.

  /// Index into rib.rows(slot) of `sender`'s row, -1 if absent.
  int find(const PrefixSimResult& rib, std::uint32_t slot,
           std::uint32_t sender) const {
    if (indexed_[slot]) {
      const auto& map = slot_index_[slot];
      const auto it = map.find(sender);
      return it == map.end() ? -1 : static_cast<int>(it->second);
    }
    for (const Row row : rib.rows(slot)) {
      if (rib.sender(row) == sender)
        return static_cast<int>(row - rib.row(slot, 0));
    }
    return -1;
  }

  /// PrefixSimResult::push plus the index entry.
  Row push(PrefixSimResult& rib, std::uint32_t slot,
           const PrefixSimResult::Attrs& a) {
    const Row row = rib.push(slot, a);
    if (indexed_[slot]) slot_index_[slot][a.sender] = row - rib.row(slot, 0);
    return row;
  }

  /// PrefixSimResult::erase plus the index repair.
  void erase(PrefixSimResult& rib, std::uint32_t slot, int rel) {
    const std::uint32_t erased_sender = rib.sender(rib.row(slot, rel));
    rib.erase(slot, rel);
    if (!indexed_[slot]) return;
    auto& map = slot_index_[slot];
    map.erase(erased_sender);
    for (auto& [key, value] : map) {
      if (value > static_cast<std::uint32_t>(rel)) --value;
    }
  }

  /// Bytes reserved by the ring and the flag arrays (the hash maps are
  /// not counted).  Capacities never shrink, so this is a monotone
  /// high-water mark, readable between runs at zero hot-path cost.
  std::size_t footprint_bytes() const {
    return ring_.capacity() * sizeof(std::uint32_t) +
           (queued_.capacity() + indexed_.capacity()) * sizeof(char);
  }

 private:
  std::vector<std::uint32_t> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  std::vector<char> queued_;

  std::vector<char> indexed_;
  std::vector<std::unordered_map<std::uint32_t, std::uint32_t>> slot_index_;
};

}  // namespace bgp
