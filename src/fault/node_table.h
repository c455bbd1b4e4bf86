#pragma once
// NodeTable<V>: protocol bookkeeping keyed by (node, 64-bit key) and
// bucketed by node.
//
// In the paper's model all protocol state is node-local, so a fault event
// (which wipes one node's memory) should cost only the entries at that node.
// Entries live in one dense slab.  An open-addressing index (linear probing,
// backward-shift deletion) maps (node, key) to a slab slot, and every entry
// also sits on a doubly linked chain of its node's entries:
//
//   find / try_emplace / erase   O(1) expected
//   erase_node(id)               O(entries at id)
//   erase_if / clear / for_each  O(size)
//
// An insert appends to the slab, so it makes no allocation of its own (the
// slab and the index grow by doubling).  Erasing moves the slab's last entry
// into the hole, keeping the slab dense; iteration order is therefore a
// deterministic function of the operation sequence, never of hash values
// or addresses.  Slab and chain links are 32-bit: NodeId bounds the mesh to
// int32 ids (Topology enforces it), and a table holds fewer than 2^32 - 1
// entries.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/mesh/topology.h"

namespace lgfi {

/// The value type of a NodeTable used as a set.
struct NoValue {};

template <typename V>
class NodeTable {
 public:
  explicit NodeTable(long long node_count) : node_count_(node_count) {}

  [[nodiscard]] size_t size() const { return slab_.size(); }
  [[nodiscard]] bool empty() const { return slab_.empty(); }

  [[nodiscard]] V* find(NodeId node, uint64_t key) {
    const uint32_t s = find_slot(node, key);
    return s == kNone ? nullptr : &slab_[index_[s].entry].value;
  }
  [[nodiscard]] const V* find(NodeId node, uint64_t key) const {
    const uint32_t s = find_slot(node, key);
    return s == kNone ? nullptr : &slab_[index_[s].entry].value;
  }

  /// The value at (node, key), value-initialized if absent; `second` is true
  /// if it was inserted.  The pointer stays valid until the next insert or
  /// erase on this table.
  std::pair<V*, bool> try_emplace(NodeId node, uint64_t key) {
    assert(node >= 0 && node < node_count_);
    if (heads_.empty()) heads_.assign(static_cast<size_t>(node_count_), kNone);
    if ((slab_.size() + 1) * 2 > index_.size()) rehash(std::max<size_t>(16, index_.size() * 2));
    const uint32_t h = hash_of(node, key);
    uint32_t s = h & mask();
    for (; index_[s].entry != kNone; s = (s + 1) & mask()) {
      Entry& e = slab_[index_[s].entry];
      if (index_[s].hash == h && e.node == node && e.key == key) return {&e.value, false};
    }
    assert(slab_.size() < kNone);
    const auto id = static_cast<uint32_t>(slab_.size());
    uint32_t& head = heads_[static_cast<size_t>(node)];
    slab_.push_back(Entry{key, node, kNone, head, V{}});
    if (head != kNone) slab_[head].prev = id;
    head = id;
    index_[s] = Slot{id, h};
    return {&slab_.back().value, true};
  }

  /// Removes (node, key); returns true if it was present.
  bool erase(NodeId node, uint64_t key) {
    const uint32_t s = find_slot(node, key);
    if (s == kNone) return false;
    erase_slot(s);
    return true;
  }

  /// Removes every entry of `node`: O(entries at node).
  void erase_node(NodeId node) {
    if (heads_.empty()) return;
    const uint32_t& head = heads_[static_cast<size_t>(node)];
    while (head != kNone) erase_slot(slot_of(head));
  }

  /// Removes every entry for which pred(node, key, value) holds.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    for (uint32_t e = 0; e < slab_.size();) {
      const Entry& entry = slab_[e];
      if (pred(entry.node, entry.key, entry.value)) {
        erase_slot(slot_of(e));  // moves the last entry into e: look at e again
      } else {
        ++e;
      }
    }
  }

  void clear() {
    for (const Entry& e : slab_) heads_[static_cast<size_t>(e.node)] = kNone;
    slab_.clear();
    std::fill(index_.begin(), index_.end(), Slot{});
  }

  /// Calls fn(node, key, value) for every entry, in slab order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : slab_) fn(e.node, e.key, e.value);
  }

  /// Resident bytes: slab, index and the per-node chain heads.
  [[nodiscard]] long long memory_bytes() const {
    return static_cast<long long>(slab_.capacity() * sizeof(Entry) +
                                  index_.capacity() * sizeof(Slot) +
                                  heads_.capacity() * sizeof(uint32_t));
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Entry {
    uint64_t key;
    NodeId node;
    uint32_t prev;  ///< node chain neighbours (slab indices) or kNone
    uint32_t next;
    [[no_unique_address]] V value;
  };
  struct Slot {
    uint32_t entry = kNone;  ///< slab index; kNone marks an empty slot
    uint32_t hash = 0;       ///< hash_of(node, key): home slot and cheap compare
  };

  static uint32_t hash_of(NodeId node, uint64_t key) {
    uint64_t h = key ^ (static_cast<uint64_t>(static_cast<uint32_t>(node)) * 0x9E3779B97F4A7C15ull);
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ull;
    h ^= h >> 32;
    return static_cast<uint32_t>(h);
  }

  [[nodiscard]] uint32_t mask() const { return static_cast<uint32_t>(index_.size() - 1); }

  [[nodiscard]] uint32_t find_slot(NodeId node, uint64_t key) const {
    if (slab_.empty()) return kNone;
    const uint32_t h = hash_of(node, key);
    for (uint32_t s = h & mask(); index_[s].entry != kNone; s = (s + 1) & mask()) {
      const Entry& e = slab_[index_[s].entry];
      if (index_[s].hash == h && e.node == node && e.key == key) return s;
    }
    return kNone;
  }

  /// The index slot holding slab entry `e`.
  [[nodiscard]] uint32_t slot_of(uint32_t e) const {
    uint32_t s = hash_of(slab_[e].node, slab_[e].key) & mask();
    while (index_[s].entry != e) s = (s + 1) & mask();
    return s;
  }

  void rehash(size_t capacity) {
    index_.assign(capacity, Slot{});
    for (uint32_t e = 0; e < slab_.size(); ++e) {
      const uint32_t h = hash_of(slab_[e].node, slab_[e].key);
      uint32_t s = h & mask();
      while (index_[s].entry != kNone) s = (s + 1) & mask();
      index_[s] = Slot{e, h};
    }
  }

  /// Erases the entry at index slot `s`: backward-shift the probe run,
  /// unlink the entry from its node chain, and fill its slab hole with the
  /// last entry.
  void erase_slot(uint32_t s) {
    const uint32_t e = index_[s].entry;
    uint32_t hole = s;
    for (uint32_t j = (s + 1) & mask(); index_[j].entry != kNone; j = (j + 1) & mask()) {
      // Slot j may fill the hole unless its home lies cyclically in (hole, j].
      const uint32_t home = index_[j].hash & mask();
      const bool stays = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
      if (stays) continue;
      index_[hole] = index_[j];
      hole = j;
    }
    index_[hole] = Slot{};

    unlink(e);
    const auto last = static_cast<uint32_t>(slab_.size() - 1);
    if (e != last) {
      const uint32_t moved = slot_of(last);
      slab_[e] = std::move(slab_[last]);
      index_[moved].entry = e;
      relink(e);
    }
    slab_.pop_back();
  }

  void unlink(uint32_t e) {
    const Entry& x = slab_[e];
    if (x.prev != kNone) {
      slab_[x.prev].next = x.next;
    } else {
      heads_[static_cast<size_t>(x.node)] = x.next;
    }
    if (x.next != kNone) slab_[x.next].prev = x.prev;
  }

  /// Points the chain neighbours of the entry now at `e` back at it.
  void relink(uint32_t e) {
    const Entry& x = slab_[e];
    if (x.prev != kNone) {
      slab_[x.prev].next = e;
    } else {
      heads_[static_cast<size_t>(x.node)] = e;
    }
    if (x.next != kNone) slab_[x.next].prev = e;
  }

  long long node_count_;
  std::vector<Entry> slab_;
  std::vector<Slot> index_;      ///< power-of-two capacity, load <= 1/2
  std::vector<uint32_t> heads_;  ///< per-node chain head; allocated on first insert
};

}  // namespace lgfi
