#pragma once
// Private message definitions shared by the DistributedFaultModel
// translation units.  Not part of the public API.
//
// Every message advances one hop per round (Section 5).  Identification
// messages carry explicit geometric context (walk dimension/sign, the out
// signs of the corner region they emanate from, the accumulated extent
// hull, packed as in packed_box.h) so that node handlers make purely local
// decisions against the node's own Definition-2 level entries.

#include <cassert>

#include "src/fault/distributed_model.h"

namespace lgfi {

/// A parent-process chain, packed in 32 bits: when a process identifies a
/// slice of a higher-level process, the chain records the (walk dim, walk
/// sign) of every enclosing phase-1 edge walk, deepest last; depth 0 is the
/// top-level process.  Walk i takes bits 4i..4i+3 (the dim, then a bit set
/// for sign +1) and the depth bits 24..27.  A level-k process sits under
/// n - k >= 0 walks, at most kMaxDims - 2.  In a message, bit 31 marks the
/// handle of a pooled set of chains instead (identification.cpp).
struct DistributedFaultModel::ParentChain {
  static constexpr uint32_t kPooled = 1u << 31;
  uint32_t bits = 0;

  [[nodiscard]] int depth() const { return static_cast<int>((bits >> 24) & 15u); }
  [[nodiscard]] int dim(int i) const { return static_cast<int>((bits >> (4 * i)) & 7u); }
  [[nodiscard]] int sign(int i) const { return ((bits >> (4 * i + 3)) & 1u) != 0 ? 1 : -1; }
  /// The deepest walk's dim and sign.
  [[nodiscard]] int last_dim() const { return dim(depth() - 1); }
  [[nodiscard]] int last_sign() const { return sign(depth() - 1); }
  /// This chain with one more walk appended.
  [[nodiscard]] ParentChain pushed(int walk_dim, int walk_sign) const {
    const int d = depth();
    assert(d < kMaxDims - 2 && walk_dim >= 0 && walk_dim < kMaxDims);
    const uint32_t walk = static_cast<uint32_t>(walk_dim) | (walk_sign > 0 ? 8u : 0u);
    return {((bits & 0xFFFFFFu) | (walk << (4 * d))) | (static_cast<uint32_t>(d + 1) << 24)};
  }
  /// This chain without its deepest walk.
  [[nodiscard]] ParentChain popped() const {
    const int d = depth();
    assert(d > 0);
    const uint32_t kept = bits & ((1u << (4 * (d - 1))) - 1u);
    return {kept | (static_cast<uint32_t>(d - 1) << 24)};
  }
  [[nodiscard]] bool pooled() const { return (bits & kPooled) != 0; }
  [[nodiscard]] uint32_t set_index() const { return bits & ~kPooled; }
  static ParentChain pool_handle(size_t set) { return {static_cast<uint32_t>(set) | kPooled}; }
};
static_assert(4 * (kMaxDims - 2) <= 24, "a chain's walks must fit below its depth bits");

/// Identification process messages (Algorithm 2 step 3).
struct DistributedFaultModel::IdentMessage {
  enum Kind : uint8_t {
    kEdgeWalk = 0,   ///< phase 1 of a level-k process (k >= 3)
    kRingWalk = 1,   ///< level-2 base case: walks the section ring
    kCollector = 2,  ///< phase 3: gathers slice results on the opposite edge
  };

  uint64_t pid = 0;
  PackedBox partial;     ///< hull of member anchors observed so far
  /// The parent chains this message serves: one chain inline, or, when
  /// `chains.pooled()`, the handle of a set of two or more chains whose
  /// processes are identical but for their chains (identification.cpp).
  ParentChain chains;
  int16_t ttl = 0;
  Kind kind = kEdgeWalk;
  int8_t level = 0;      ///< k of the process this message belongs to
  int8_t walk_dim = -1;
  int8_t walk_sign = 0;
  int8_t out_dim = -1;   ///< ring walk only: current side's out dimension
  int8_t turns = 0;      ///< ring walk only: corners already turned
  uint8_t free_mask = 0; ///< free dims of this process level
  /// Out signs (+1/-1) of the process's initiation corner region per dim;
  /// 0 for dims not out.  Ring walks mutate the walk-relevant entries as
  /// they turn; collectors carry the opposite corner's signs.
  std::array<int8_t, kMaxDims> out_signs{};
};

/// Block-information distribution messages (Algorithm 2 step 4 + merges).
struct DistributedFaultModel::InfoMessage {
  BlockInfo info;
  /// Empty carrier: plain envelope flood over info.box's own envelope.
  /// Non-empty: merge flood over `carrier`'s envelope for `surface`
  /// continuation (Definition 3 merge rule).
  Box carrier;
  int8_t surface_dim = -1;
  int8_t surface_positive = 0;
  int16_t ttl = 0;
};

/// Boundary wall messages (Definition 3).
struct DistributedFaultModel::WallMessage {
  BlockInfo info;     ///< the guarded block
  int8_t dim = -1;    ///< guarded crossing dimension j
  int8_t positive = 0;///< guarded crossing side s (wall extends toward -s)
  int16_t ttl = 0;
  /// Set when the wall is waiting for the carrier block's identity to merge
  /// onto (resent to self each round until the info shows up or TTL dies).
  int8_t waiting = 0;
};

/// Deletion-process messages: mirror the info/wall propagation geometry.
struct DistributedFaultModel::CancelMessage {
  Box box;            ///< the stale block info to remove
  uint32_t epoch = 0; ///< remove entries with epoch <= this
  /// kind 0: envelope flood (over box's envelope, or over `carrier`'s when
  /// carrier is non-empty — undoing a merge); kind 1: wall walk.
  int8_t kind = 0;
  Box carrier;
  int8_t dim = -1;
  int8_t positive = 0;
  int16_t ttl = 0;
  /// First hop of a corner-initiated wave: process even if the origin no
  /// longer holds the entry (it may have been removed locally while stale
  /// replicas survive downstream).
  int8_t force = 0;
};

/// Stable hash for merge dedup keys.
inline uint64_t merge_key(const Box& info, const Box& carrier, int dim, bool positive) {
  CoordHash h;
  uint64_t k = 0xcbf29ce484222325ull;
  auto mix = [&k](uint64_t v) {
    k ^= v + 0x9e3779b97f4a7c15ull + (k << 6) + (k >> 2);
  };
  mix(h(info.lo()));
  mix(h(info.hi()));
  mix(h(carrier.lo()));
  mix(h(carrier.hi()));
  mix(static_cast<uint64_t>(dim * 2 + (positive ? 1 : 0)));
  return k;
}

}  // namespace lgfi
