// Arena-pooled reverse paths for walk tokens.
//
// A walk token used to carry its reverse path as a std::vector<NodeId>,
// copied on every hop (recv copies the delivery payload before forwarding).
// At n = 16k that copy dominated the agreement stage's allocation churn
// (ROADMAP perf lever). PathArena replaces the vector with a backward-linked
// chain of (node, prev) entries owned by one per-iteration pool: tokens carry
// a single 32-bit PathRef, so copying a token is O(1) and a whole iteration's
// paths amount to one grow-once buffer that is reset (capacity kept) between
// iterations.
//
// Chain discipline: pushing hop targets as a walk advances leaves the token's
// ref pointing at the node currently holding it; popping (following `prev`)
// retraces the walk — exactly the order the answer leg needs. Refs are only
// meaningful until the owning arena is cleared, which the agreement loop does
// after each iteration window, when no token is in flight.
//
// Entries live in fixed-size blocks that never move once allocated, so a
// reference to an entry stays valid while later hops are pushed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/require.hpp"
#include "support/types.hpp"

namespace bzc {

/// Handle to a path entry inside a PathArena; kNullPath is the empty path.
using PathRef = std::uint32_t;
inline constexpr PathRef kNullPath = 0xffffffffu;

class PathArena {
 public:
  PathArena() { blocks_.resize(std::size_t{1} << (kIndexBits - kBlockBits)); }

  /// Appends a hop: `node` was just visited, `prev` is the path up to it.
  [[nodiscard]] PathRef push(NodeId node, PathRef prev) {
    const std::size_t idx = count_;
    BZC_ASSERT(idx < (std::size_t{1} << kIndexBits));
    std::unique_ptr<Entry[]>& block = blocks_[idx >> kBlockBits];
    if (!block) block = std::make_unique<Entry[]>(std::size_t{1} << kBlockBits);
    block[idx & ((std::size_t{1} << kBlockBits) - 1)] = {node, prev};
    ++count_;
    return static_cast<PathRef>(idx);
  }

  [[nodiscard]] NodeId node(PathRef ref) const { return entryAt(ref).node; }
  [[nodiscard]] PathRef prev(PathRef ref) const { return entryAt(ref).prev; }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Invalidates every outstanding PathRef; keeps the allocations.
  void clear() noexcept { count_ = 0; }

 private:
  static constexpr unsigned kIndexBits = 27;  ///< capacity 2^27 entries
  static constexpr unsigned kBlockBits = 16;  ///< 65536 entries per block

  struct Entry {
    NodeId node;
    PathRef prev;
  };

  [[nodiscard]] const Entry& entryAt(PathRef ref) const {
    BZC_ASSERT(ref < count_);
    const auto& block = blocks_[ref >> kBlockBits];
    return block[ref & ((std::size_t{1} << kBlockBits) - 1)];
  }

  std::vector<std::unique_ptr<Entry[]>> blocks_;  ///< pre-sized table; blocks lazily allocated
  std::size_t count_ = 0;
};

}  // namespace bzc
