#pragma once
// Compact binary traces of injected packets: record on any traffic run
// (`trace_record=<file>`), replay deterministically (`injection=trace` +
// `trace_file=<file>`), so a real workload becomes a regression fixture.
//
// Format (all integers LEB128 varints, little-endian bytes):
//
//   magic "LGT1"
//   node_count  concentration        (validated against the replay topology)
//   per packet: step_delta  slot  dest  size
//
// `step_delta` is the step distance to the previous record (records are
// written in injection order, which is non-decreasing in step and ascending
// in slot within a step, so deltas stay tiny); `slot` is the injecting
// terminal (node * concentration + terminal); `dest` is the destination
// router's NodeId; `size` is the packet size in flits, 1 to INT_MAX
// (informational — the replaying config's switching model decides the
// actual flit count).  A
// bernoulli trace re-recorded from its own replay is byte-identical, which
// is the round-trip property the tests and CI smoke pin.

#include <string>
#include <vector>

#include "src/mesh/topology.h"

namespace lgfi {

/// One injected packet as recorded: absolute step, injecting terminal slot,
/// destination router, size in flits.
struct TraceRecord {
  long long step = 0;
  int slot = 0;
  NodeId dest = 0;
  int size = 1;

  friend bool operator==(const TraceRecord& a, const TraceRecord& b) {
    return a.step == b.step && a.slot == b.slot && a.dest == b.dest && a.size == b.size;
  }
};

/// Streams injection records to `path` (truncating).  Throws ConfigError when
/// the file cannot be opened; add() must be called with non-decreasing steps.
class TraceWriter {
 public:
  TraceWriter(const std::string& path, const Topology& mesh);
  ~TraceWriter();

  void add(long long step, int slot, NodeId dest, int size);

  [[nodiscard]] long long records() const { return records_; }

  /// Flushes and closes; throws ConfigError if the stream went bad (disk
  /// full, ...).  The destructor closes too but swallows errors.
  void close();

 private:
  struct Impl;
  Impl* impl_;
  long long last_step_ = 0;
  long long records_ = 0;
};

/// Reads a whole trace, validating the magic and that it was recorded on a
/// topology with the same node count and concentration as `mesh` (slots and
/// dest ids are meaningless otherwise).  Throws ConfigError on a missing
/// file, a foreign format or a topology mismatch, and, naming the record
/// index, on a truncated record or varint, an over-long varint, a slot or
/// destination out of range, a step past LLONG_MAX, or a record not strictly
/// after its predecessor in (step, slot) order — the order TraceWriter emits.
std::vector<TraceRecord> read_trace(const std::string& path, const Topology& mesh);

}  // namespace lgfi
