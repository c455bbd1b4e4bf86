// Tests for the injection-process axis (`injection=`): every registered
// process constructs, the default bernoulli path is byte-identical to the
// pre-axis hand-rolled loop, closed-loop request-reply obeys its window and
// keeps the thread-count determinism contract, batch injects its exact
// quota, traces round-trip record -> replay bit-for-bit, malformed traces
// fail to load (hand-built cases plus a seeded mutation fuzz), and eager
// validation rejects bad steps/knob-on-wrong-process configs by name.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/campaign.h"
#include "src/core/component_catalog.h"
#include "src/core/experiment_runner.h"
#include "src/core/traffic_workload.h"
#include "src/sim/injection_process.h"
#include "src/sim/rng.h"
#include "src/sim/trace_io.h"

namespace lgfi {
namespace {

Config traffic_config(const std::string& overrides) {
  Config cfg = experiment_config();
  cfg.parse_string("traffic=uniform mesh_dims=2 radix=6 warmup_steps=5 measure_steps=40 "
                   "routes=0 faults=0 replications=1 seed=11");
  if (!overrides.empty()) cfg.parse_string(overrides);
  return cfg;
}

TEST(InjectionProcessRegistry, EveryRegisteredProcessConstructs) {
  const MeshTopology mesh(2, 6);
  // `trace` needs an existing file recorded on the same topology.
  const std::string trace_path = testing::TempDir() + "injection_ctor.trace";
  {
    TraceWriter writer(trace_path, mesh);
    writer.add(0, 3, 17, 1);
    writer.close();
  }
  Config cfg = experiment_config();
  cfg.set_str("trace_file", trace_path);
  for (const auto& name : InjectionProcessRegistry::instance().names()) {
    Rng rng(1);
    auto process = make_injection_process(name, mesh, cfg, rng);
    ASSERT_NE(process, nullptr) << name;
    EXPECT_EQ(process->name(), name);
  }
  EXPECT_GE(InjectionProcessRegistry::instance().names().size(), 5u);
}

TEST(InjectionProcessRegistry, UnknownNameFailsEagerlyWithSuggestion) {
  Config cfg = traffic_config("");
  cfg.set_str("injection", "bernouli");
  try {
    ExperimentRunner runner(cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("injection process"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'bernoulli'"), std::string::npos) << what;
  }
}

TEST(InjectionProcessRegistry, CatalogListsTheInjectionSectionWithKeys) {
  const std::string text = describe_components();
  const size_t section = text.find("injection processes (injection=)");
  ASSERT_NE(section, std::string::npos);
  for (const char* expected : {"bernoulli", "onoff", "batch", "closed_loop", "trace",
                               "window", "duty_cycle", "burst_len", "trace_file"})
    EXPECT_NE(text.find(expected, section), std::string::npos) << expected;
}

// The pre-axis TrafficWorkload loop, verbatim: one Bernoulli coin per
// terminal per step, pattern draw on fire, warmup/measure/drain phasing.
// The pin: driving a twin simulation with this replica produces the exact
// message table the registry-built bernoulli process produces.
struct LegacyResult {
  long long offered = 0;
  long long injected = 0;
  long long measured = 0;
};

LegacyResult legacy_bernoulli_run(DynamicSimulation& sim, TrafficPattern& pattern,
                                  const TrafficWorkloadOptions& o, Rng& rng) {
  LegacyResult result;
  const Topology& mesh = sim.mesh();
  const auto inject = [&](bool measured) {
    const StatusField& field = sim.model().field();
    for (NodeId node = 0; node < static_cast<NodeId>(mesh.node_count()); ++node) {
      for (int t = 0; t < mesh.concentration(); ++t) {
        if (!rng.bernoulli(o.injection_rate)) continue;
        if (measured) ++result.offered;
        if (field.at(node) != NodeStatus::kEnabled) continue;
        const Coord source = mesh.coord_of(node);
        const Coord dest = pattern.destination(source, rng);
        if (dest == source) continue;
        if (is_block_member(field.at(dest))) continue;
        (void)sim.launch_message(source, dest);
        ++result.injected;
        if (measured) ++result.measured;
      }
    }
  };
  for (long long s = 0; s < o.warmup_steps; ++s) {
    inject(false);
    sim.step();
  }
  for (long long s = 0; s < o.measure_steps; ++s) {
    inject(true);
    sim.step();
  }
  long long cap = 4ll * mesh.direction_count() * mesh.node_count();
  while (!sim.all_messages_done() && cap-- > 0) sim.step();
  return result;
}

TEST(InjectionProcess, BernoulliByteIdenticalToLegacyLoop) {
  const MeshTopology mesh(2, 10);
  FaultSchedule schedule;
  for (const auto& c : box_fault_placement(mesh, Box(Coord{4, 4}, Coord{6, 5})))
    schedule.add_fail(12, c);
  TrafficWorkloadOptions topts;
  topts.injection_rate = 0.15;
  topts.warmup_steps = 15;
  topts.measure_steps = 60;

  DynamicSimulationOptions opts;
  opts.link_arbitration = true;

  DynamicSimulation legacy_sim(mesh, schedule, opts);
  Rng legacy_rng(42);
  auto legacy_pattern = make_traffic_pattern("uniform", mesh, Config{}, legacy_rng);
  const LegacyResult legacy =
      legacy_bernoulli_run(legacy_sim, *legacy_pattern, topts, legacy_rng);

  DynamicSimulation sim(mesh, schedule, opts);
  Rng rng(42);
  auto pattern = make_traffic_pattern("uniform", mesh, Config{}, rng);
  Config cfg = experiment_config();
  cfg.set_double("injection_rate", topts.injection_rate);
  auto process = make_injection_process("bernoulli", mesh, cfg, rng);
  TrafficWorkload workload(sim, *pattern, *process, topts, rng);
  const TrafficResult r = workload.run();

  EXPECT_EQ(r.offered, legacy.offered);
  EXPECT_EQ(r.injected, legacy.injected);
  EXPECT_EQ(r.measured, legacy.measured);
  ASSERT_EQ(sim.messages().size(), legacy_sim.messages().size());
  for (size_t i = 0; i < sim.messages().size(); ++i) {
    const MessageProgress& a = sim.messages()[i];
    const MessageProgress& b = legacy_sim.messages()[i];
    ASSERT_EQ(a.header.source(), b.header.source()) << "message " << i;
    ASSERT_EQ(a.header.destination(), b.header.destination()) << "message " << i;
    EXPECT_EQ(a.start_step, b.start_step) << "message " << i;
    EXPECT_EQ(a.end_step, b.end_step) << "message " << i;
    EXPECT_EQ(a.delivered, b.delivered) << "message " << i;
    EXPECT_EQ(a.stall_steps, b.stall_steps) << "message " << i;
  }
}

TEST(InjectionProcess, ClosedLoopWindowBoundsOutstandingPairs) {
  // rate=1 would saturate an open loop instantly; with window=1 every slot
  // holds one pair at a time, so the achieved offered load collapses to the
  // pair completion rate and every latency sample is a full round trip.
  Config cfg = traffic_config(
      "injection=closed_loop window=1 injection_rate=1 measure_steps=80 drain_steps=2000");
  const auto res = ExperimentRunner(cfg).run();
  EXPECT_GT(res.metrics.mean("throughput"), 0.0);
  EXPECT_LT(res.metrics.mean("offered_load"), 0.6)
      << "window=1 must self-throttle far below the configured rate 1.0";
  EXPECT_DOUBLE_EQ(res.metrics.mean("delivered_frac"), 1.0);
  EXPECT_DOUBLE_EQ(res.metrics.mean("drained"), 1.0);
  EXPECT_GE(res.metrics.stats("latency").min(), 2.0)
      << "a pair is a round trip: at least one step out, one back";
}

TEST(InjectionProcess, ClosedLoopCampaignByteIdenticalAcrossThreadCounts) {
  const auto render = [](int threads) {
    SweepSpec spec(experiment_config());
    spec.parse_string(
        "injection=closed_loop window=2 injection_rate=[0.05,0.2] traffic=uniform "
        "mesh_dims=2 radix=6 warmup_steps=10 measure_steps=60 routes=0 faults=3 "
        "replications=4 seed=8 report=json");
    spec.base().set_int("threads", threads);
    std::ostringstream os;
    CampaignRunner(spec).run_and_report(os);
    return os.str();
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(8));
  EXPECT_NE(serial.find("\"latency\""), std::string::npos);
}

TEST(InjectionProcess, BatchInjectsTheExactQuota) {
  // Fault-free uniform traffic admits every offer (uniform never returns the
  // source), so total injections are exactly terminals * size * count —
  // including the second batch, which only starts once the first drains.
  Config cfg = traffic_config(
      "injection=batch batch_size=3 batch_count=2 measure_steps=200 drain_steps=2000");
  const auto res = ExperimentRunner(cfg).run();
  EXPECT_DOUBLE_EQ(res.metrics.mean("injected"), 36.0 * 3.0 * 2.0);
  EXPECT_DOUBLE_EQ(res.metrics.mean("delivered_frac"), 1.0);
  EXPECT_DOUBLE_EQ(res.metrics.mean("drained"), 1.0);
}

TEST(InjectionProcess, OnOffLongRunLoadMatchesTheConfiguredRate) {
  // The ON-phase coin is injection_rate / duty_cycle, so over whole cycles
  // the offered load averages back to injection_rate (loose bounds: one
  // replication, finite window).
  Config cfg = traffic_config(
      "injection=onoff duty_cycle=0.25 burst_len=4 injection_rate=0.1 "
      "measure_steps=160 replications=4");
  const auto res = ExperimentRunner(cfg).run();
  const double offered = res.metrics.mean("offered_load");
  EXPECT_GT(offered, 0.05);
  EXPECT_LT(offered, 0.2);
  EXPECT_GT(res.metrics.mean("throughput"), 0.0);
}

TEST(InjectionProcess, TraceRecordReplayRoundTripsBitForBit) {
  const std::string trace_a = testing::TempDir() + "roundtrip_a.trace";
  const std::string trace_b = testing::TempDir() + "roundtrip_b.trace";

  Config record = traffic_config("faults=3 injection_rate=0.1 seed=9");
  record.set_str("trace_record", trace_a);
  const auto res_a = ExperimentRunner(record).run();

  Config replay = traffic_config("faults=3 injection_rate=0.1 seed=9");
  replay.set_str("injection", "trace");
  replay.set_str("trace_file", trace_a);
  replay.set_str("trace_record", trace_b);
  const auto res_b = ExperimentRunner(replay).run();

  // The replayed injection stream re-records byte-for-byte.
  const MeshTopology mesh(2, 6);
  const auto records_a = read_trace(trace_a, mesh);
  const auto records_b = read_trace(trace_b, mesh);
  ASSERT_FALSE(records_a.empty());
  EXPECT_EQ(records_a, records_b);

  // Same packets at the same steps through the same network: identical
  // delivery statistics.  (offered_load legitimately differs — offers
  // rejected by admission are never recorded, so on replay offered ==
  // injected.)
  EXPECT_EQ(res_a.metrics.stats("latency").count(), res_b.metrics.stats("latency").count());
  EXPECT_DOUBLE_EQ(res_a.metrics.mean("latency"), res_b.metrics.mean("latency"));
  EXPECT_DOUBLE_EQ(res_a.metrics.mean("throughput"), res_b.metrics.mean("throughput"));
  EXPECT_DOUBLE_EQ(res_a.metrics.mean("stall_steps"), res_b.metrics.mean("stall_steps"));
}

TEST(InjectionProcess, TraceRejectsTopologyMismatch) {
  const std::string path = testing::TempDir() + "mismatch.trace";
  {
    TraceWriter writer(path, MeshTopology(2, 6));
    writer.add(0, 0, 1, 1);
    writer.close();
  }
  Config cfg = traffic_config("radix=8");
  cfg.set_str("injection", "trace");
  cfg.set_str("trace_file", path);
  EXPECT_THROW(ExperimentRunner{cfg}, ConfigError);
}

// ---- malformed LGT1 traces, hand-built for a 6x6 mesh ----

void put_varint(std::vector<uint8_t>& out, unsigned long long v) {
  do {
    uint8_t byte = static_cast<uint8_t>(v & 0x7fu);
    v >>= 7;
    if (v != 0) byte |= 0x80u;
    out.push_back(byte);
  } while (v != 0);
}

/// One record's four varints: step delta, slot, dest, size.
void put_record(std::vector<uint8_t>& out, unsigned long long delta, unsigned long long slot,
                unsigned long long dest, unsigned long long size = 1) {
  for (unsigned long long v : {delta, slot, dest, size}) put_varint(out, v);
}

/// Writes the LGT1 header of a 6x6 mesh (36 nodes, one terminal each)
/// followed by `records`, and returns the file's path.
std::string hand_built_trace(const std::string& name, const std::vector<uint8_t>& records) {
  const std::string path = testing::TempDir() + name;
  std::vector<uint8_t> bytes = {'L', 'G', 'T', '1'};
  put_varint(bytes, 36);
  put_varint(bytes, 1);
  bytes.insert(bytes.end(), records.begin(), records.end());
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return path;
}

/// read_trace must throw a ConfigError naming the file and `what`.
void expect_bad_trace(const std::string& path, const std::string& what) {
  try {
    const auto records = read_trace(path, MeshTopology(2, 6));
    FAIL() << "loaded " << records.size() << " records; expected: " << what;
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

TEST(InjectionProcess, TraceRejectsVarintCutInsideFirstField) {
  std::vector<uint8_t> records;
  put_record(records, 3, 4, 5);
  records.push_back(0x85);  // a continuation byte, then the file ends
  expect_bad_trace(hand_built_trace("cut_varint.trace", records), "record 1: truncated varint");
}

TEST(InjectionProcess, TraceRejectsOverlongVarint) {
  std::vector<uint8_t> records;
  put_record(records, 3, 4, 5);
  for (int i = 0; i < 10; ++i) records.push_back(0x80);  // eleven bytes
  records.push_back(0x01);
  put_record(records, 1, 4, 5);  // must not be silently dropped
  expect_bad_trace(hand_built_trace("overlong_varint.trace", records),
                   "record 1: over-long varint");
}

TEST(InjectionProcess, TraceRejectsSlotPastSignedRange) {
  std::vector<uint8_t> records;
  put_record(records, 3, 4, 5);
  put_record(records, 1, (1ull << 63) + 0xFFFFFFFFull, 5);  // would load as slot -1
  expect_bad_trace(hand_built_trace("huge_slot.trace", records), "record 1: slot out of range");
}

TEST(InjectionProcess, TraceRejectsStepOverflow) {
  std::vector<uint8_t> records;
  put_record(records, 3, 4, 5);
  put_record(records, 1ull << 63, 4, 5);  // would make the step negative
  expect_bad_trace(hand_built_trace("step_overflow.trace", records), "record 1: step overflows");
}

TEST(InjectionProcess, TraceRejectsSizeOutsideOneToIntMax) {
  // Each would load as another int: 5, 0 and -2147483648.
  for (const unsigned long long size : {(1ull << 32) + 5, 0ull, 1ull << 31}) {
    SCOPED_TRACE(testing::Message() << "size " << size);
    std::vector<uint8_t> records;
    put_record(records, 3, 4, 5);
    put_record(records, 1, 4, 5, size);
    expect_bad_trace(hand_built_trace("bad_size.trace", records), "record 1: size out of range");
  }
}

TEST(InjectionProcess, TraceRejectsRecordsOutOfStepSlotOrder) {
  // Replay never fires a record at or before its predecessor's (step, slot).
  std::vector<uint8_t> backwards;
  put_record(backwards, 3, 4, 5);
  put_record(backwards, 0, 2, 5);
  expect_bad_trace(hand_built_trace("slot_backwards.trace", backwards),
                   "record 1: not after the previous record");
  std::vector<uint8_t> repeated;
  put_record(repeated, 3, 4, 5);
  put_record(repeated, 2, 4, 5);
  put_record(repeated, 0, 4, 7);
  expect_bad_trace(hand_built_trace("slot_repeated.trace", repeated),
                   "record 2: not after the previous record");
}

// ---- seeded mutation fuzz of the LGT1 reader ----

/// The index just past the LEB128 varint that starts at `pos`.
size_t skip_varint(const std::vector<uint8_t>& bytes, size_t pos) {
  while ((bytes[pos] & 0x80u) != 0) ++pos;
  return pos + 1;
}

TEST(InjectionProcess, TraceReaderSurvivesSeededMutations) {
  // Every mutation of a valid trace (byte flips, truncations, inserted
  // bytes, duplicated or swapped records) either loads as records replay
  // can walk — strictly ascending in (step, slot), slot, dest and size in
  // range — or throws ConfigError.  Any other exception is a reader bug.  A 16x16
  // mesh and step gaps up to 300 give multi-byte varints in every field.
  const MeshTopology mesh(2, 16);
  const std::string valid = testing::TempDir() + "fuzz_valid.trace";
  std::vector<TraceRecord> written;
  {
    TraceWriter writer(valid, mesh);
    Rng rng(2025);
    long long step = 0;
    int slot = -1;
    for (int i = 0; i < 40; ++i) {
      if (slot >= 200 || rng.bernoulli(0.5)) {
        step += rng.uniform_int(1, 300);
        slot = -1;
      }
      slot = rng.uniform_int(slot + 1, slot + 40);
      written.push_back({step, slot, rng.uniform_int(0, 255), rng.uniform_int(1, 4)});
      writer.add(step, slot, written.back().dest, written.back().size);
    }
    writer.close();
  }
  ASSERT_EQ(read_trace(valid, mesh), written);

  std::ifstream in(valid, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  // The header is the magic and two varints; each record is four varints.
  const size_t header = skip_varint(bytes, skip_varint(bytes, 4));
  std::vector<std::vector<uint8_t>> records;
  for (size_t pos = header; pos < bytes.size();) {
    size_t end = pos;
    for (int field = 0; field < 4; ++field) end = skip_varint(bytes, end);
    records.emplace_back(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                         bytes.begin() + static_cast<std::ptrdiff_t>(end));
    pos = end;
  }
  ASSERT_EQ(records.size(), written.size());

  const std::string path = testing::TempDir() + "fuzz_case.trace";
  Rng rng(41);
  int accepted = 0;
  int rejected = 0;
  for (int k = 0; k < 2000; ++k) {
    // Record-level mutations first, then byte-level ones; at least one.
    std::vector<std::vector<uint8_t>> recs = records;
    const int record_ops = static_cast<int>(rng.next_below(3));
    for (int op = 0; op < record_ops; ++op) {
      const auto i = static_cast<size_t>(rng.next_below(recs.size()));
      const auto j = static_cast<size_t>(rng.next_below(recs.size()));
      if (rng.bernoulli(0.5)) {
        recs.insert(recs.begin() + static_cast<std::ptrdiff_t>(j), recs[i]);
      } else {
        std::swap(recs[i], recs[j]);
      }
    }
    std::vector<uint8_t> data(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(header));
    for (const auto& r : recs) data.insert(data.end(), r.begin(), r.end());
    const int byte_ops = static_cast<int>(rng.next_below(3)) + (record_ops == 0 ? 1 : 0);
    for (int op = 0; op < byte_ops; ++op) {
      switch (rng.next_below(3)) {
        case 0:
          if (!data.empty()) data[rng.next_below(data.size())] ^= 1u << rng.next_below(8);
          break;
        case 1: data.resize(rng.next_below(data.size() + 1)); break;
        default: {
          const auto at = static_cast<std::ptrdiff_t>(rng.next_below(data.size() + 1));
          const int count = rng.uniform_int(1, 4);
          for (int b = 0; b < count; ++b)
            data.insert(data.begin() + at, static_cast<uint8_t>(rng.next_below(256)));
        }
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(data.size()));
    }
    SCOPED_TRACE(testing::Message() << "mutation case " << k);
    try {
      const auto got = read_trace(path, mesh);
      ++accepted;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_GE(got[i].slot, 0);
        ASSERT_LT(got[i].slot, mesh.terminal_count());
        ASSERT_GE(got[i].dest, 0);
        ASSERT_LT(got[i].dest, mesh.node_count());
        ASSERT_GE(got[i].size, 1);
        if (i == 0) continue;
        const TraceRecord& prev = got[i - 1];
        ASSERT_TRUE(prev.step < got[i].step ||
                    (prev.step == got[i].step && prev.slot < got[i].slot))
            << "record " << i << " is not after its predecessor";
      }
    } catch (const ConfigError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "read_trace threw a non-ConfigError: " << e.what();
    }
  }
  // Both outcomes occur, so the mutations reach past the header checks.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(InjectionProcess, EagerValidationRejectsBadTrafficConfigs) {
  const auto expect_rejected = [](const std::string& overrides, const std::string& needle) {
    Config cfg = traffic_config(overrides);
    try {
      ExperimentRunner runner(cfg);
      FAIL() << "expected ConfigError for: " << overrides;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << overrides << " -> " << e.what();
    }
  };
  expect_rejected("measure_steps=0", "measure_steps");
  expect_rejected("measure_steps=-5", "measure_steps");
  expect_rejected("drain_steps=-1", "drain_steps");
  // Knobs on a process that ignores them fail by name.
  expect_rejected("window=8", "window");
  expect_rejected("injection=closed_loop duty_cycle=0.3", "duty_cycle");
  expect_rejected("injection=batch burst_len=4", "burst_len");
  expect_rejected("injection=onoff batch_size=2", "batch_size");
  expect_rejected("injection=trace", "trace_file");
  // Out-of-range knob values fail eagerly through the throwaway build.
  expect_rejected("injection=closed_loop window=0", "window");
  expect_rejected("injection=onoff duty_cycle=1.5", "duty_cycle");
  expect_rejected("injection=onoff burst_len=0", "burst_len");
  expect_rejected("injection=batch batch_size=0", "batch_size");
  expect_rejected("injection_rate=-0.1", "injection_rate");
}

TEST(InjectionProcess, EagerValidationRejectsProcessesWithoutTraffic) {
  Config cfg = experiment_config();
  cfg.set_str("injection", "closed_loop");
  EXPECT_THROW(ExperimentRunner{cfg}, ConfigError) << "closed_loop without traffic=";
  Config cfg2 = experiment_config();
  cfg2.set_str("trace_record", "/tmp/nope.trace");
  EXPECT_THROW(ExperimentRunner{cfg2}, ConfigError) << "trace_record without traffic=";
}

TEST(InjectionProcess, TraceRecordNeedsSingleReplication) {
  Config cfg = traffic_config("replications=2");
  cfg.set_str("trace_record", testing::TempDir() + "multi.trace");
  try {
    ExperimentRunner runner(cfg);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("replications"), std::string::npos) << e.what();
  }
}

TEST(InjectionProcess, DefaultInjectionKeyIsBernoulliAndRunsUnchanged) {
  // The schema default must be the historical behavior: leaving injection=
  // alone runs bernoulli, and the key exists for campaigns to sweep.
  const Config cfg = experiment_config();
  EXPECT_EQ(cfg.get_str("injection"), "bernoulli");
  EXPECT_TRUE(cfg.is_default("injection"));
  const auto res = ExperimentRunner(traffic_config("injection_rate=0.1")).run();
  EXPECT_GT(res.metrics.mean("throughput"), 0.0);
}

}  // namespace
}  // namespace lgfi
