#include "src/sim/injection_process.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/sim/trace_io.h"

namespace lgfi {

std::unique_ptr<InjectionProcess> make_injection_process(const std::string& name,
                                                         const Topology& mesh,
                                                         const Config& config, Rng& rng) {
  return InjectionProcessRegistry::instance().require(name)(mesh, config, rng);
}

void validate_injection_keys(const Config& config) {
  const std::string& injection = config.get_str("injection");
  // Which process consumes each process-specific key.  A key set away from
  // its default on any other process is a silent no-op — reject it, the
  // wormhole-requires-arbitration way.
  static const struct {
    const char* key;
    const char* owner;
  } kOwned[] = {
      {"window", "closed_loop"}, {"duty_cycle", "onoff"},   {"burst_len", "onoff"},
      {"batch_size", "batch"},   {"batch_count", "batch"},  {"trace_file", "trace"},
  };
  for (const auto& owned : kOwned) {
    if (injection != owned.owner && !config.is_default(owned.key)) {
      throw ConfigError(std::string(owned.key) + "= is only used by injection=" + owned.owner +
                        " (this run has injection=" + injection + ")");
    }
  }
  if (injection == "trace" && config.get_str("trace_file").empty()) {
    throw ConfigError("injection=trace needs trace_file=<recorded trace>");
  }
}

// ---------------------------------------------------------------------------
// Built-in processes.
// ---------------------------------------------------------------------------
namespace {

double require_rate(const Config& config) {
  const double rate = config.get_double("injection_rate");
  if (rate < 0.0) throw ConfigError("injection_rate must be >= 0");
  return rate;
}

long long slot_count(const Topology& mesh) {
  return static_cast<long long>(mesh.node_count()) * static_cast<long long>(mesh.concentration());
}

/// The legacy open-loop process: one independent coin per slot per step.
/// fire() is the only RNG consumer and draws exactly the coin the old
/// TrafficWorkload loop drew, so the default stream is bit-for-bit intact.
class BernoulliProcess final : public InjectionProcess {
 public:
  explicit BernoulliProcess(double rate) : rate_(rate) {}

  std::string name() const override { return "bernoulli"; }

  bool fire(int, Rng& rng) override { return rng.bernoulli(rate_); }

 private:
  double rate_;
};

/// Two-state burst: each slot is ON for `burst_len` consecutive steps out of
/// a cycle of burst_len / duty_cycle steps, with a per-slot phase drawn at
/// construction so bursts de-synchronize.  Inside ON the coin is
/// injection_rate / duty_cycle (clamped to 1), so the long-run offered load
/// matches bernoulli at the same injection_rate.
class OnOffProcess final : public InjectionProcess {
 public:
  OnOffProcess(const Topology& mesh, double rate, double duty, long long burst, Rng& rng)
      : burst_(burst),
        cycle_(std::max(burst, static_cast<long long>(std::llround(
                                   static_cast<double>(burst) / duty)))),
        on_rate_(std::min(1.0, rate / duty)) {
    const long long slots = slot_count(mesh);
    phase_.reserve(static_cast<size_t>(slots));
    for (long long s = 0; s < slots; ++s)
      phase_.push_back(static_cast<long long>(rng.next_below(static_cast<uint64_t>(cycle_))));
  }

  std::string name() const override { return "onoff"; }

  void begin_step(const InjectionStepView& view) override { step_ = view.step; }

  bool fire(int slot, Rng& rng) override {
    const bool on = (step_ + phase_[static_cast<size_t>(slot)]) % cycle_ < burst_;
    // The coin is drawn even when OFF so the stream layout per step stays
    // one-draw-per-slot, mirroring bernoulli's shape.
    const bool coin = rng.bernoulli(on_rate_);
    return on && coin;
  }

 private:
  long long burst_;
  long long cycle_;
  double on_rate_;
  long long step_ = 0;
  std::vector<long long> phase_;
};

/// Every slot injects a quota of `batch_size` packets as fast as admission
/// allows; when all quotas are spent and the network has drained, the next
/// of `batch_count` batches begins.  With faults=0 the total injected is
/// exactly terminals * batch_size * batch_count.
class BatchProcess final : public InjectionProcess {
 public:
  BatchProcess(const Topology& mesh, long long batch_size, long long batch_count)
      : batch_size_(batch_size),
        batches_left_(batch_count - 1),
        quota_(static_cast<size_t>(slot_count(mesh)), batch_size) {}

  std::string name() const override { return "batch"; }

  void begin_step(const InjectionStepView& view) override {
    if (batches_left_ <= 0 || view.active_messages != 0) return;
    bool exhausted = true;
    for (const long long q : quota_)
      if (q > 0) {
        exhausted = false;
        break;
      }
    if (!exhausted) return;
    std::fill(quota_.begin(), quota_.end(), batch_size_);
    --batches_left_;
  }

  bool fire(int slot, Rng&) override {
    long long& q = quota_[static_cast<size_t>(slot)];
    if (q <= 0) return false;
    --q;
    return true;
  }

 private:
  long long batch_size_;
  long long batches_left_;
  std::vector<long long> quota_;
};

/// Request-reply: a slot offers a request (coin at injection_rate) only
/// while it holds fewer than `window` outstanding request-reply pairs.  No
/// coin is drawn while the window is full — the self-throttling that makes
/// closed-loop saturation a different curve than open-loop.  The workload
/// runs the reply protocol and calls on_inject/on_slot_released.
class ClosedLoopProcess final : public InjectionProcess {
 public:
  ClosedLoopProcess(const Topology& mesh, double rate, long long window)
      : rate_(rate), window_(window), outstanding_(static_cast<size_t>(slot_count(mesh)), 0) {}

  std::string name() const override { return "closed_loop"; }

  bool closed_loop() const override { return true; }

  bool fire(int slot, Rng& rng) override {
    if (outstanding_[static_cast<size_t>(slot)] >= window_) return false;
    return rng.bernoulli(rate_);
  }

  void on_inject(int slot, int) override { ++outstanding_[static_cast<size_t>(slot)]; }

  void on_slot_released(int slot) override { --outstanding_[static_cast<size_t>(slot)]; }

 private:
  double rate_;
  long long window_;
  std::vector<long long> outstanding_;
};

/// Deterministic replay of a recorded trace: records fire at their recorded
/// (step, slot) with their recorded destination; the traffic pattern and
/// injection_rate are ignored.  Records whose step already passed (e.g. a
/// trace recorded with a longer warmup) are skipped, never re-timed.
class TraceReplayProcess final : public InjectionProcess {
 public:
  TraceReplayProcess(const Topology& mesh, const std::string& path)
      : mesh_(&mesh), records_(read_trace(path, mesh)) {}

  std::string name() const override { return "trace"; }

  void begin_step(const InjectionStepView& view) override {
    step_ = view.step;
    while (cursor_ < records_.size() && records_[cursor_].step < step_) ++cursor_;
  }

  bool fire(int slot, Rng&) override {
    if (cursor_ >= records_.size()) return false;
    const TraceRecord& r = records_[cursor_];
    if (r.step != step_ || r.slot != slot) return false;
    pending_dest_ = mesh_->coord_of(r.dest);
    ++cursor_;
    return true;
  }

  bool replay_destination(int, Coord& dest) override {
    dest = pending_dest_;
    return true;
  }

 private:
  const Topology* mesh_;
  std::vector<TraceRecord> records_;
  long long step_ = 0;
  size_t cursor_ = 0;
  Coord pending_dest_;
};

}  // namespace

InjectionProcessRegistry& InjectionProcessRegistry::instance() {
  static InjectionProcessRegistry registry = [] {
    InjectionProcessRegistry r;
    r.add(
        "bernoulli",
        [](const Topology&, const Config& cfg, Rng&) {
          return std::make_unique<BernoulliProcess>(require_rate(cfg));
        },
        {"independent coin per terminal per step at injection_rate (open loop)",
         {"injection_rate"}});
    r.add(
        "onoff",
        [](const Topology& mesh, const Config& cfg, Rng& rng) {
          const double duty = cfg.get_double("duty_cycle");
          if (duty <= 0.0 || duty > 1.0) throw ConfigError("duty_cycle must be in (0, 1]");
          const long long burst = cfg.get_int("burst_len");
          if (burst < 1) throw ConfigError("burst_len must be >= 1");
          return std::make_unique<OnOffProcess>(mesh, require_rate(cfg), duty, burst, rng);
        },
        {"bursty two-state: ON burst_len steps per cycle, ON fraction duty_cycle",
         {"injection_rate", "duty_cycle", "burst_len"}});
    r.add(
        "batch",
        [](const Topology& mesh, const Config& cfg, Rng&) {
          const long long size = cfg.get_int("batch_size");
          if (size < 1) throw ConfigError("batch_size must be >= 1");
          const long long count = cfg.get_int("batch_count");
          if (count < 1) throw ConfigError("batch_count must be >= 1");
          return std::make_unique<BatchProcess>(mesh, size, count);
        },
        {"each terminal injects batch_size packets, network drains, x batch_count",
         {"batch_size", "batch_count"}});
    r.add(
        "closed_loop",
        [](const Topology& mesh, const Config& cfg, Rng&) {
          const long long window = cfg.get_int("window");
          if (window < 1) throw ConfigError("window must be >= 1");
          return std::make_unique<ClosedLoopProcess>(mesh, require_rate(cfg), window);
        },
        {"request-reply with window outstanding pairs per terminal (closed loop)",
         {"injection_rate", "window"}});
    r.add(
        "trace",
        [](const Topology& mesh, const Config& cfg, Rng&) {
          const std::string& path = cfg.get_str("trace_file");
          if (path.empty()) throw ConfigError("injection=trace needs trace_file=<recorded trace>");
          return std::make_unique<TraceReplayProcess>(mesh, path);
        },
        {"deterministic replay of a trace recorded with trace_record=", {"trace_file"}});
    return r;
  }();
  return registry;
}

std::unique_ptr<InjectionProcess> make_bernoulli_injection(double rate) {
  return std::make_unique<BernoulliProcess>(rate);
}

}  // namespace lgfi
