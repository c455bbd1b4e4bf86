// InfoStore (src/fault/block_registry.h) against a reference store of one
// std::vector of entries per node: seeded random deposit / cancel /
// clear_node sequences must give the same return values, the same spans in
// the same order, the same provenance and the same counts after every
// operation, including at a node whose entries outgrow one chunk.  A node's
// span must stay valid while other nodes grow and add chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/fault/block_registry.h"
#include "src/mesh/topology.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

struct RefEntry {
  BlockInfo info;
  Provenance prov;
};

/// The per-node-vector semantics InfoStore documents.
class RefStore {
 public:
  explicit RefStore(long long nodes) : nodes_(static_cast<size_t>(nodes)) {}

  bool deposit(NodeId node, const BlockInfo& info, const Provenance& prov) {
    for (auto& e : nodes_[static_cast<size_t>(node)]) {
      if (!(e.info.box == info.box)) continue;
      const bool changed = info.epoch > e.info.epoch;
      if (changed) e.info.epoch = info.epoch;
      if (static_cast<int>(prov.via) < static_cast<int>(e.prov.via)) e.prov = prov;
      return changed;
    }
    nodes_[static_cast<size_t>(node)].push_back(RefEntry{info, prov});
    return true;
  }
  bool cancel(NodeId node, const Box& box, uint32_t epoch) {
    auto& v = nodes_[static_cast<size_t>(node)];
    for (auto it = v.begin(); it != v.end(); ++it) {
      if (it->info.box == box && it->info.epoch <= epoch) {
        v.erase(it);
        return true;
      }
    }
    return false;
  }
  void clear_node(NodeId node) { nodes_[static_cast<size_t>(node)].clear(); }
  [[nodiscard]] const std::vector<RefEntry>& at(NodeId node) const {
    return nodes_[static_cast<size_t>(node)];
  }

 private:
  std::vector<std::vector<RefEntry>> nodes_;
};

bool same_provenance(const Provenance& a, const Provenance& b) {
  return a.via == b.via && a.carrier == b.carrier && a.dim == b.dim && a.positive == b.positive;
}

/// Asserts that `store` and `ref` hold the same entries in the same order at
/// every node, with the same counts and `holds` answers for `boxes`.
void expect_same(const InfoStore& store, const RefStore& ref, long long nodes,
                 const std::vector<Box>& boxes) {
  long long with_info = 0;
  long long entries = 0;
  for (NodeId node = 0; node < nodes; ++node) {
    const auto& want = ref.at(node);
    const auto infos = store.at(node);
    const auto provs = store.provenance_at(node);
    ASSERT_EQ(infos.size(), want.size()) << "node " << node;
    ASSERT_EQ(provs.size(), want.size()) << "node " << node;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(infos[i], want[i].info) << "node " << node << " entry " << i;
      ASSERT_TRUE(same_provenance(provs[i], want[i].prov)) << "node " << node << " entry " << i;
    }
    for (const Box& b : boxes) {
      bool held = false;
      for (const auto& e : want) held = held || e.info.box == b;
      ASSERT_EQ(store.holds(node, b), held) << "node " << node << " box " << b.to_string();
    }
    with_info += want.empty() ? 0 : 1;
    entries += static_cast<long long>(want.size());
  }
  ASSERT_EQ(store.nodes_with_info(), with_info);
  ASSERT_EQ(store.total_entries(), entries);
}

Provenance random_provenance(Rng& rng, const std::vector<Box>& boxes) {
  Provenance p;
  p.via = static_cast<InfoVia>(rng.uniform_int(0, 2));
  if (p.via == InfoVia::kMerged)
    p.carrier = boxes[static_cast<size_t>(rng.next_below(boxes.size()))];
  if (p.via != InfoVia::kEnvelope) {
    p.dim = static_cast<int8_t>(rng.uniform_int(0, 1));
    p.positive = static_cast<int8_t>(rng.uniform_int(0, 1));
  }
  return p;
}

TEST(InfoStore, RandomOperationsMatchPerNodeVectors) {
  const MeshTopology mesh(2, 4);  // 16 nodes
  const long long nodes = mesh.node_count();
  // A small pool, so that deposits refresh and cancels hit.  Node 0 instead
  // receives a run of 4 * kChunkEntries + 3 distinct boxes and cancels
  // within it, so its block comes to span several chunks.
  std::vector<Box> pool;
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 3; ++y) pool.emplace_back(Coord{x, y}, Coord{x + 1, y + y % 2});
  const int big = static_cast<int>(4 * InfoStore::kChunkEntries + 3);
  std::vector<Box> column;
  for (int i = 0; i < big; ++i) column.emplace_back(Coord{i, 7}, Coord{i, 8});

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    InfoStore store(mesh);
    RefStore ref(nodes);
    int next_column = 0;
    size_t peak = 0;  // node 0's most entries
    for (int op = 0; op < 3000; ++op) {
      const int kind = rng.uniform_int(0, 19);
      if (kind < 4 && next_column < big) {
        // Grow node 0 by one distinct box.
        const BlockInfo info{column[static_cast<size_t>(next_column++)],
                             static_cast<uint32_t>(rng.uniform_int(0, 4))};
        const Provenance prov = random_provenance(rng, pool);
        ASSERT_EQ(store.deposit(0, info, prov), ref.deposit(0, info, prov));
      } else if (kind < 5) {
        // Cancel somewhere inside node 0's run, keeping the rest in order.
        if (next_column == 0) continue;
        const Box& b = column[static_cast<size_t>(rng.next_below(next_column))];
        ASSERT_EQ(store.cancel(0, b, 4), ref.cancel(0, b, 4));
      } else {
        const auto node = static_cast<NodeId>(rng.uniform_int(1, static_cast<int>(nodes) - 1));
        const Box& b = pool[static_cast<size_t>(rng.next_below(pool.size()))];
        const auto epoch = static_cast<uint32_t>(rng.uniform_int(0, 5));
        if (kind < 12) {
          const Provenance prov = random_provenance(rng, pool);
          ASSERT_EQ(store.deposit(node, BlockInfo{b, epoch}, prov),
                    ref.deposit(node, BlockInfo{b, epoch}, prov));
        } else if (kind < 19) {
          ASSERT_EQ(store.cancel(node, b, epoch), ref.cancel(node, b, epoch));
        } else {
          store.clear_node(node);
          ref.clear_node(node);
        }
      }
      expect_same(store, ref, nodes, pool);
      if (HasFatalFailure()) return;
      peak = std::max(peak, store.at(0).size());
    }
    EXPECT_GT(peak, 2 * InfoStore::kChunkEntries) << "node 0 must outgrow a chunk";
    store.clear_node(0);
    ref.clear_node(0);
    expect_same(store, ref, nodes, pool);
  }
}

TEST(InfoStore, SpanSurvivesGrowthAtOtherNodes) {
  const MeshTopology mesh(2, 8);  // 64 nodes
  InfoStore store(mesh);
  Provenance wall;
  wall.via = InfoVia::kWall;
  wall.dim = 1;
  for (int i = 0; i < 5; ++i)
    store.deposit(9, BlockInfo{Box(Coord{i, 0}, Coord{i, 1}), 1}, wall);
  const std::span<const BlockInfo> infos = store.at(9);
  const std::span<const Provenance> provs = store.provenance_at(9);
  const std::vector<BlockInfo> before(infos.begin(), infos.end());

  // Enough entries elsewhere to add several chunks and to free and reuse
  // blocks of every small class, with node 9 untouched.
  for (int round = 0; round < 40; ++round) {
    for (NodeId node = 0; node < mesh.node_count(); ++node) {
      if (node == 9) continue;
      store.deposit(node, BlockInfo{Box(Coord{round, 2}, Coord{round, 3}), 1});
    }
    if (round % 8 == 7)
      for (NodeId node = 0; node < mesh.node_count(); node += 3)
        if (node != 9) store.clear_node(node);
  }
  ASSERT_GT(store.total_entries(), 4 * static_cast<long long>(InfoStore::kChunkEntries));

  ASSERT_EQ(infos.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(infos[i], before[i]);
    EXPECT_EQ(provs[i].via, InfoVia::kWall);
    EXPECT_EQ(provs[i].dim, 1);
  }
  EXPECT_EQ(store.at(9).data(), infos.data()) << "node 9's entries never moved";
}

}  // namespace
}  // namespace lgfi
