#pragma once
// Block information records and the per-node information store.
//
// The "limited global information" of the paper is block information —
// the block's box — replicated at a *limited* set of nodes: the block's
// envelope (Algorithm 2 step 4) and the boundary walls (Definition 3).
// InfoStore is that per-node storage; the memory-overhead experiment (E10)
// reports its footprint against the every-node-stores-everything baseline.
//
// Each entry carries its *provenance* — how the deposit was justified:
// being on the block's envelope, sitting on one of its boundary walls, or
// having been merged onto another block's envelope (Definition 3's merge
// rule).  Provenance is what makes the deletion process complete: when a
// carrier block is cancelled, every entry it was carrying is swept with it
// and its continuation walls are retraced (see boundary_protocol.cpp).

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/mesh/box.h"
#include "src/mesh/topology.h"

namespace lgfi {

/// One piece of block information as distributed through the network.
struct BlockInfo {
  Box box;             ///< the faulty block [lo_1:hi_1, ..., lo_n:hi_n]
  uint32_t epoch = 0;  ///< construction epoch; newer epochs supersede older

  friend bool operator==(const BlockInfo& a, const BlockInfo& b) {
    return a.box == b.box && a.epoch == b.epoch;
  }
};

/// Why a node stores an entry.  Ordered by justification strength: an
/// envelope deposit is locally re-validatable, a wall deposit is justified
/// by the block alone, a merged deposit additionally depends on the carrier.
enum class InfoVia : uint8_t {
  kEnvelope = 0,
  kWall = 1,
  kMerged = 2,
};

struct Provenance {
  InfoVia via = InfoVia::kEnvelope;
  Box carrier;          ///< kMerged: the block whose envelope carries this
  int8_t dim = -1;      ///< kWall/kMerged: the guarded surface dimension
  int8_t positive = 0;  ///< kWall/kMerged: the guarded surface side
};

/// Per-node replicated block information for a whole mesh.
///
/// Every node's entries live in one arena of fixed-size chunks that never
/// move.  A node owns at most one *block*: 2^k consecutive entries (its
/// capacity class k), named by an 8-byte slot.  A node that fills its block
/// moves its entries to a block of the next class and leaves the old block
/// on that class's free list for the next node that grows.  A block larger
/// than a chunk spans consecutive chunk ids of one allocation.  So at() and
/// provenance_at() are contiguous spans in insertion order, and a node's
/// spans stay valid until that node itself is mutated: a deposit elsewhere
/// can add chunks but never moves one.
class InfoStore {
 public:
  explicit InfoStore(const Topology& mesh);

  /// Adds (or refreshes) `info` at `node`.  Returns true if the store
  /// changed (new box, or newer epoch for an existing box).  A repeated
  /// deposit upgrades the provenance if the new justification is stronger
  /// (kEnvelope > kWall > kMerged).  Throws std::length_error past 2^15
  /// entries at one node.
  bool deposit(NodeId node, const BlockInfo& info, const Provenance& prov = {});

  /// Removes the entry with `box` (any epoch <= `epoch`), keeping the rest
  /// in order.  Returns true if something was removed.
  bool cancel(NodeId node, const Box& box, uint32_t epoch);

  /// Removes everything stored at `node` and releases its block.
  void clear_node(NodeId node);

  [[nodiscard]] std::span<const BlockInfo> at(NodeId node) const {
    const Slot s = slots_[static_cast<size_t>(node)];
    if (s.count == 0) return {};
    return {infos_at(s.first), s.count};
  }
  [[nodiscard]] std::span<const Provenance> provenance_at(NodeId node) const {
    const Slot s = slots_[static_cast<size_t>(node)];
    if (s.count == 0) return {};
    return {provs_at(s.first), s.count};
  }
  [[nodiscard]] bool holds(NodeId node, const Box& box) const;

  /// Number of nodes storing at least one entry — the paper's "memory
  /// requirement ... in the whole network" metric.
  [[nodiscard]] long long nodes_with_info() const;

  /// Total entries across all nodes.
  [[nodiscard]] long long total_entries() const;

  /// Estimated resident bytes (slots, chunks, chunk table, free lists).
  /// O(N) — bench/reporting use only.
  [[nodiscard]] long long memory_bytes() const;

  static constexpr int kChunkShift = 6;
  /// Entries per chunk.
  static constexpr uint32_t kChunkEntries = 1u << kChunkShift;

 private:
  static constexpr uint32_t kChunkMask = kChunkEntries - 1;
  static constexpr int kClasses = 16;  ///< block sizes 2^0 .. 2^15: a count fits 16 bits
  static constexpr uint8_t kNoBlock = 0xFF;

  struct Slot {
    uint32_t first = 0;      ///< arena index of the block's first entry
    uint16_t count = 0;      ///< entries in use, in insertion order
    uint8_t cls = kNoBlock;  ///< the block holds 2^cls entries; kNoBlock: none
  };
  struct Chunk {
    BlockInfo* infos = nullptr;
    Provenance* provs = nullptr;
  };

  /// The entry at arena index `index`; a block's entries are consecutive.
  [[nodiscard]] BlockInfo* infos_at(uint32_t index) const {
    return chunks_[index >> kChunkShift].infos + (index & kChunkMask);
  }
  [[nodiscard]] Provenance* provs_at(uint32_t index) const {
    return chunks_[index >> kChunkShift].provs + (index & kChunkMask);
  }
  /// Moves `s`'s entries to a block of the next class.
  void grow(Slot& s);
  /// A free block of class `cls`: from its free list, else from the arena.
  uint32_t allocate(int cls);

  std::vector<Slot> slots_;
  std::vector<Chunk> chunks_;  ///< chunk id -> its entries
  std::vector<std::unique_ptr<BlockInfo[]>> info_storage_;  ///< one per allocation
  std::vector<std::unique_ptr<Provenance[]>> prov_storage_;
  uint32_t arena_end_ = 0;  ///< first arena index no block has taken
  std::array<std::vector<uint32_t>, kClasses> free_;  ///< per class: free block starts
};

}  // namespace lgfi
