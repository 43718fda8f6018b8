// Shared-prefix storage for beacon path fields.
//
// A beacon's path field grows by one ID per hop while the message fans out to
// every node; copying vectors would cost O(i) per delivery. The arena stores
// paths as immutable (id, parent) records — appending is O(1) and all the
// fan-out copies of a beacon share their prefix. Entries live for one
// iteration (paths never outlive the iteration that produced them) and the
// arena is recycled with clear().
//
// Records live in fixed-size blocks that never move once allocated; refs
// are plain indices, always a nonnegative int32, so kNoBeaconPath = -1 stays
// unambiguous.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/require.hpp"
#include "support/types.hpp"

namespace bzc {

/// Handle into BeaconPathArena; kNoBeaconPath denotes the empty path.
using BeaconPathRef = std::int32_t;
inline constexpr BeaconPathRef kNoBeaconPath = -1;

class BeaconPathArena {
 public:
  BeaconPathArena() { blocks_.resize(std::size_t{1} << (kIndexBits - kBlockBits)); }

  /// Appends `id` to `parent` (which may be kNoBeaconPath).
  [[nodiscard]] BeaconPathRef append(BeaconPathRef parent, PublicId id) {
    const std::size_t idx = count_;
    BZC_ASSERT(idx < (std::size_t{1} << kIndexBits));
    std::unique_ptr<Node[]>& block = blocks_[idx >> kBlockBits];
    if (!block) block = std::make_unique<Node[]>(std::size_t{1} << kBlockBits);
    block[idx & ((std::size_t{1} << kBlockBits) - 1)] = {id, parent};
    ++count_;
    return static_cast<BeaconPathRef>(idx);
  }

  /// Number of IDs on the path.
  [[nodiscard]] std::uint32_t length(BeaconPathRef path) const {
    std::uint32_t len = 0;
    for (BeaconPathRef p = path; p != kNoBeaconPath; p = nodeAt(p).parent) ++len;
    return len;
  }

  /// Last ID on the path (the most recently appended hop). Path must be
  /// nonempty.
  [[nodiscard]] PublicId last(BeaconPathRef path) const {
    BZC_REQUIRE(path != kNoBeaconPath, "empty path has no last element");
    return nodeAt(path).id;
  }

  /// IDs in path order (origin side first).
  [[nodiscard]] std::vector<PublicId> materialize(BeaconPathRef path) const;

  /// Visits the path *prefix*: every ID except the last `suffixLen` ones,
  /// i.e. the entries Line 20 of the pseudocode calls S. Visitor returns
  /// false to stop early; walkPrefix returns false iff stopped early.
  template <typename Visitor>
  bool walkPrefix(BeaconPathRef path, std::uint32_t suffixLen, Visitor&& visit) const {
    // Entries are reached suffix-first; skip the first `suffixLen` of them.
    std::uint32_t fromEnd = 0;
    for (BeaconPathRef p = path; p != kNoBeaconPath; p = nodeAt(p).parent) {
      if (fromEnd >= suffixLen) {
        if (!visit(nodeAt(p).id)) return false;
      }
      ++fromEnd;
    }
    return true;
  }

  /// Invalidates every outstanding ref; keeps the allocations.
  void clear() noexcept { count_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

 private:
  static constexpr unsigned kIndexBits = 26;  ///< capacity 2^26 entries
  static constexpr unsigned kBlockBits = 16;  ///< 65536 entries per block

  struct Node {
    PublicId id;
    BeaconPathRef parent;
  };

  [[nodiscard]] const Node& nodeAt(BeaconPathRef ref) const {
    BZC_ASSERT(ref >= 0 && static_cast<std::size_t>(ref) < count_);
    const auto idx = static_cast<std::size_t>(ref);
    const auto& block = blocks_[idx >> kBlockBits];
    return block[idx & ((std::size_t{1} << kBlockBits) - 1)];
  }

  std::vector<std::unique_ptr<Node[]>> blocks_;  ///< pre-sized table; blocks lazily allocated
  std::size_t count_ = 0;
};

}  // namespace bzc
