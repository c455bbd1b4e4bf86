#include "src/fault/block_registry.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace lgfi {

InfoStore::InfoStore(const Topology& mesh) : slots_(static_cast<size_t>(mesh.node_count())) {
  static_assert(sizeof(Slot) == 8);
}

bool InfoStore::deposit(NodeId node, const BlockInfo& info, const Provenance& prov) {
  Slot& s = slots_[static_cast<size_t>(node)];
  if (s.count > 0) {
    BlockInfo* infos = infos_at(s.first);
    Provenance* provs = provs_at(s.first);
    for (uint32_t i = 0; i < s.count; ++i) {
      if (infos[i].box == info.box) {
        bool changed = false;
        if (info.epoch > infos[i].epoch) {
          infos[i].epoch = info.epoch;
          changed = true;
        }
        // Upgrade to the stronger justification.
        if (static_cast<uint8_t>(prov.via) < static_cast<uint8_t>(provs[i].via))
          provs[i] = prov;
        return changed;
      }
    }
  }
  if (s.cls == kNoBlock || s.count == (1u << s.cls)) grow(s);
  *infos_at(s.first + s.count) = info;
  *provs_at(s.first + s.count) = prov;
  ++s.count;
  return true;
}

bool InfoStore::cancel(NodeId node, const Box& box, uint32_t epoch) {
  Slot& s = slots_[static_cast<size_t>(node)];
  if (s.count == 0) return false;
  BlockInfo* infos = infos_at(s.first);
  Provenance* provs = provs_at(s.first);
  for (uint32_t i = 0; i < s.count; ++i) {
    if (infos[i].box == box && infos[i].epoch <= epoch) {
      std::copy(infos + i + 1, infos + s.count, infos + i);
      std::copy(provs + i + 1, provs + s.count, provs + i);
      --s.count;
      return true;
    }
  }
  return false;
}

void InfoStore::clear_node(NodeId node) {
  Slot& s = slots_[static_cast<size_t>(node)];
  if (s.cls != kNoBlock) free_[s.cls].push_back(s.first);
  s = Slot{};
}

void InfoStore::grow(Slot& s) {
  const int cls = s.cls == kNoBlock ? 0 : s.cls + 1;
  if (cls >= kClasses)
    throw std::length_error("InfoStore: more than 32768 entries at one node");
  const uint32_t first = allocate(cls);
  if (s.count > 0) {
    std::copy_n(infos_at(s.first), s.count, infos_at(first));
    std::copy_n(provs_at(s.first), s.count, provs_at(first));
  }
  if (s.cls != kNoBlock) free_[s.cls].push_back(s.first);
  s.first = first;
  s.cls = static_cast<uint8_t>(cls);
}

uint32_t InfoStore::allocate(int cls) {
  auto& free_list = free_[static_cast<size_t>(cls)];
  if (!free_list.empty()) {
    const uint32_t first = free_list.back();
    free_list.pop_back();
    return first;
  }
  const uint32_t size = 1u << cls;
  const uint32_t chunk_end = static_cast<uint32_t>(chunks_.size()) << kChunkShift;
  if (chunk_end - arena_end_ < size) {
    // The last chunk's rest is too small: it becomes free blocks (largest
    // first), and the block starts a new allocation of whole chunks, which
    // keeps every block inside one contiguous allocation.
    for (uint32_t rest = chunk_end - arena_end_; rest > 0;) {
      const uint32_t piece = std::bit_floor(rest);
      free_[static_cast<size_t>(std::countr_zero(piece))].push_back(arena_end_);
      arena_end_ += piece;
      rest -= piece;
    }
    const uint32_t count = std::max<uint32_t>(1, size >> kChunkShift);
    if (chunks_.size() + count > (size_t{1} << (32 - kChunkShift)))
      throw std::length_error("InfoStore: arena exceeds 2^32 entries");
    const size_t entries = static_cast<size_t>(count) << kChunkShift;
    info_storage_.push_back(std::make_unique<BlockInfo[]>(entries));
    prov_storage_.push_back(std::make_unique<Provenance[]>(entries));
    for (size_t k = 0; k < entries; k += kChunkEntries)
      chunks_.push_back(Chunk{info_storage_.back().get() + k, prov_storage_.back().get() + k});
  }
  const uint32_t first = arena_end_;
  arena_end_ += size;
  return first;
}

bool InfoStore::holds(NodeId node, const Box& box) const {
  const auto infos = at(node);
  return std::any_of(infos.begin(), infos.end(),
                     [&](const BlockInfo& e) { return e.box == box; });
}

long long InfoStore::nodes_with_info() const {
  return std::count_if(slots_.begin(), slots_.end(), [](const Slot& s) { return s.count > 0; });
}

long long InfoStore::total_entries() const {
  long long n = 0;
  for (const Slot& s : slots_) n += s.count;
  return n;
}

long long InfoStore::memory_bytes() const {
  long long bytes = static_cast<long long>(slots_.capacity() * sizeof(Slot) +
                                           chunks_.capacity() * sizeof(Chunk));
  bytes += static_cast<long long>(chunks_.size() * kChunkEntries *
                                  (sizeof(BlockInfo) + sizeof(Provenance)));
  bytes += static_cast<long long>((info_storage_.capacity() + prov_storage_.capacity()) *
                                  sizeof(std::unique_ptr<BlockInfo[]>));
  for (const auto& list : free_) bytes += static_cast<long long>(list.capacity() * sizeof(uint32_t));
  return bytes;
}

}  // namespace lgfi
