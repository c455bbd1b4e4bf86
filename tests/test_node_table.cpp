// NodeTable (src/fault/node_table.h) against a std::unordered_map reference:
// seeded random streams of insert, find, erase, erase_node, erase_if and
// clear.  After every operation the two must hold the same entries.  The
// small key spaces keep the index at 16-64 slots, so probe runs wrap around
// its end and backward-shift deletion crosses the seam.

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>
#include <utility>

#include "src/fault/node_table.h"
#include "src/sim/rng.h"

namespace lgfi {
namespace {

using Key = std::pair<NodeId, uint64_t>;

struct KeyHash {
  size_t operator()(const Key& k) const {
    return std::hash<uint64_t>{}(k.second) ^ (static_cast<size_t>(k.first) * 0x9E3779B97F4A7C15ull);
  }
};

using Reference = std::unordered_map<Key, int, KeyHash>;

void expect_same(const NodeTable<int>& table, const Reference& ref) {
  ASSERT_EQ(table.size(), ref.size());
  ASSERT_EQ(table.empty(), ref.empty());
  std::map<Key, int> got;
  table.for_each([&](NodeId node, uint64_t key, const int& value) {
    EXPECT_TRUE(got.emplace(Key{node, key}, value).second) << "duplicate entry";
  });
  const std::map<Key, int> want(ref.begin(), ref.end());
  ASSERT_EQ(got, want);
  for (const auto& [k, v] : want) {
    const int* found = table.find(k.first, k.second);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(*found, v);
  }
}

/// One seeded stream over `nodes` x `keys` (node, key) pairs.  Keys are
/// spread over the 64-bit range so their hashes differ in every bit.
void run_stream(uint64_t seed, int nodes, int keys, int ops) {
  NodeTable<int> table(nodes);
  Reference ref;
  Rng rng(seed);
  const auto key_of = [](int k) { return static_cast<uint64_t>(k) * 0xA24BAED4963EE407ull; };
  for (int op = 0; op < ops; ++op) {
    const NodeId node = rng.uniform_int(0, nodes - 1);
    const Key key{node, key_of(rng.uniform_int(0, keys - 1))};
    const int dice = rng.uniform_int(0, 99);
    if (dice < 40) {
      const auto [value, inserted] = table.try_emplace(key.first, key.second);
      const auto it = ref.find(key);
      ASSERT_EQ(inserted, it == ref.end()) << "op " << op;
      if (inserted) {
        ASSERT_EQ(*value, 0) << "a new value is value-initialized";
      } else {
        ASSERT_EQ(*value, it->second);
      }
      *value = rng.uniform_int(1, 1000);
      ref[key] = *value;
    } else if (dice < 55) {
      const int* found = table.find(key.first, key.second);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    } else if (dice < 85) {
      ASSERT_EQ(table.erase(key.first, key.second), ref.erase(key) == 1) << "op " << op;
    } else if (dice < 95) {
      // Every other node's entries must survive untouched.
      table.erase_node(node);
      std::erase_if(ref, [node](const auto& kv) { return kv.first.first == node; });
    } else if (dice < 99) {
      const int mod = rng.uniform_int(2, 5);
      table.erase_if([mod](NodeId, uint64_t, const int& v) { return v % mod == 0; });
      std::erase_if(ref, [mod](const auto& kv) { return kv.second % mod == 0; });
    } else {
      table.clear();
      ref.clear();
    }
    expect_same(table, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NodeTable, MatchesUnorderedMapOnATinyKeySpace) {
  for (uint64_t seed = 1; seed <= 6; ++seed) run_stream(seed, 4, 4, 4000);
}

TEST(NodeTable, MatchesUnorderedMapThroughGrowth) {
  for (uint64_t seed = 11; seed <= 13; ++seed) run_stream(seed, 24, 8, 6000);
}

TEST(NodeTable, EraseNodeCostsOnlyThatNodesEntries) {
  // A set-valued table (the dedup use): erase_node drops exactly the
  // node's keys, in any insertion interleaving, and the rest still answer.
  NodeTable<NoValue> set(8);
  for (uint64_t k = 0; k < 50; ++k)
    for (NodeId n = 0; n < 8; ++n) EXPECT_TRUE(set.try_emplace(n, k * 7919).second);
  EXPECT_FALSE(set.try_emplace(3, 7919).second);
  set.erase_node(3);
  EXPECT_EQ(set.size(), 7u * 50u);
  for (uint64_t k = 0; k < 50; ++k) {
    EXPECT_EQ(set.find(3, k * 7919), nullptr);
    for (NodeId n = 0; n < 8; ++n) {
      if (n != 3) {
        EXPECT_NE(set.find(n, k * 7919), nullptr);
      }
    }
  }
  EXPECT_TRUE(set.try_emplace(3, 7919).second) << "a wiped node starts empty";
  set.erase_node(5);
  set.erase_node(5);
  EXPECT_EQ(set.size(), 6u * 50u + 1u);
}

}  // namespace
}  // namespace lgfi
