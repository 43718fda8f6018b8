// Per-node beacon blacklist (Algorithm 2, Lines 2, 21 and 30).
//
// A blacklist is probed once per path entry of every candidate beacon, filled
// at the end of each iteration and cleared at every phase, but never
// iterated. An open-addressing table of 64-bit IDs (linear probing, load
// <= 1/2, power-of-two capacity kept across clears) does that with one flat
// array per node instead of a node allocation per ID. The free-slot marker is
// kNoPublicId; since a forged ID may take that value too, its membership is
// kept in a separate flag, so every 64-bit value is a valid member.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace bzc {

class BlacklistSet {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0 && !holdsNoId_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_ + (holdsNoId_ ? 1 : 0); }

  [[nodiscard]] bool contains(PublicId id) const noexcept {
    if (id == kEmptySlot) return holdsNoId_;
    if (size_ == 0) return false;
    for (std::size_t i = slotOf(id);; i = (i + 1) & mask()) {
      if (slots_[i] == id) return true;
      if (slots_[i] == kEmptySlot) return false;
    }
  }

  /// Adds id; true when it was not yet a member.
  bool insert(PublicId id) {
    if (id == kEmptySlot) {
      const bool added = !holdsNoId_;
      holdsNoId_ = true;
      return added;
    }
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = slotOf(id);; i = (i + 1) & mask()) {
      if (slots_[i] == id) return false;
      if (slots_[i] == kEmptySlot) {
        slots_[i] = id;
        ++size_;
        return true;
      }
    }
  }

  /// Empties the set and keeps its capacity for the next phase.
  void clear() noexcept {
    if (size_ > 0) std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    size_ = 0;
    holdsNoId_ = false;
  }

 private:
  static constexpr PublicId kEmptySlot = kNoPublicId;
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  /// splitmix64 finalizer: forged and sequential IDs spread over the table.
  [[nodiscard]] std::size_t slotOf(PublicId id) const noexcept {
    std::uint64_t z = id + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31)) & mask();
  }

  void grow() {
    const std::vector<PublicId> old = std::move(slots_);
    slots_.assign(std::max(kMinCapacity, 2 * old.size()), kEmptySlot);
    for (const PublicId id : old) {
      if (id == kEmptySlot) continue;
      std::size_t i = slotOf(id);
      while (slots_[i] != kEmptySlot) i = (i + 1) & mask();
      slots_[i] = id;
    }
  }

  std::vector<PublicId> slots_;  ///< capacity 0 or a power of two
  std::size_t size_ = 0;         ///< IDs stored in slots_
  bool holdsNoId_ = false;       ///< kNoPublicId itself is a member
};

}  // namespace bzc
