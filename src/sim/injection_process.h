#pragma once
// Pluggable injection processes behind a registered factory — the seventh
// registry axis (`injection=`).
//
// A traffic pattern decides *where* a packet goes; the injection process
// decides *when* a terminal offers one.  TrafficWorkload consults the
// process once per terminal slot per step (slot = node * concentration +
// terminal, ascending — the same order the legacy Bernoulli loop drew its
// coins in, so `injection=bernoulli` consumes the RNG stream bit-for-bit
// identically to the pre-axis code).
//
// Registered names:
//   bernoulli    independent coin per slot per step at `injection_rate`
//   onoff        two-state burst: ON for `burst_len` steps out of a cycle
//                sized so the ON fraction is `duty_cycle`; inside ON the
//                coin is injection_rate/duty_cycle, so the long-run offered
//                load matches bernoulli at the same rate
//   batch        every slot injects a quota of `batch_size` packets as fast
//                as admission allows, the network drains, repeat
//                `batch_count` times
//   closed_loop  request-reply: a slot fires only while it has fewer than
//                `window` outstanding request-reply pairs; the workload
//                launches a reply from the destination on request delivery
//                and measures completed pairs (DESIGN.md §15)
//   trace        deterministic replay of a file recorded with
//                `trace_record=` (`trace_file=` names it)
//
// Lifecycle per step: begin_step() once (sees the step number and the count
// of in-flight messages — how batch detects a drained network), then fire()
// per slot in ascending order.  fire() owns all RNG draws of the process, so
// determinism follows from the slot order.  on_inject()/on_slot_released()
// bracket a packet's life for window accounting; replay_destination() lets
// the trace process override the traffic pattern.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/named_registry.h"
#include "src/mesh/topology.h"
#include "src/sim/rng.h"

namespace lgfi {

/// Experiment-config defaults for the per-process knobs, shared with
/// experiment_config() so the two surfaces cannot drift apart.
inline constexpr double kDefaultDutyCycle = 0.5;
inline constexpr int kDefaultBurstLen = 8;
inline constexpr int kDefaultBatchSize = 16;
inline constexpr int kDefaultBatchCount = 1;
inline constexpr int kDefaultWindow = 4;

/// What an injection process may observe at the top of a step.
struct InjectionStepView {
  long long step = 0;             ///< simulation step about to inject
  long long active_messages = 0;  ///< messages currently in flight
};

class InjectionProcess {
 public:
  virtual ~InjectionProcess() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the per-slot fire() sweep of a step.
  virtual void begin_step(const InjectionStepView& view) { (void)view; }

  /// Does terminal `slot` offer a packet this step?  All RNG draws the
  /// process makes happen here, in ascending slot order.
  [[nodiscard]] virtual bool fire(int slot, Rng& rng) = 0;

  /// Trace replay overrides the traffic pattern's destination.  Returns
  /// false (the default) to let the pattern choose.
  [[nodiscard]] virtual bool replay_destination(int slot, Coord& dest) {
    (void)slot;
    (void)dest;
    return false;
  }

  /// A fired offer passed admission and became message `msg_id`.
  virtual void on_inject(int slot, int msg_id) {
    (void)slot;
    (void)msg_id;
  }

  /// Closed-loop processes make the workload run the request-reply
  /// protocol and key measurement on completed pairs.
  [[nodiscard]] virtual bool closed_loop() const { return false; }

  /// A closed-loop pair owned by `slot` finished (reply delivered or the
  /// pair failed); the slot's window frees one entry.
  virtual void on_slot_released(int slot) { (void)slot; }
};

using InjectionProcessFactory = std::function<std::unique_ptr<InjectionProcess>(
    const Topology& mesh, const Config& config, Rng& rng)>;

class InjectionProcessRegistry : public NamedRegistry<InjectionProcessFactory> {
 public:
  /// The process-wide registry, holding the built-in processes.
  static InjectionProcessRegistry& instance();

 private:
  InjectionProcessRegistry() : NamedRegistry("injection process") {}
};

/// Builds the named process; throws ConfigError with the known names (and a
/// did-you-mean suggestion) on an unknown `name`.  `rng` seeds
/// construction-time randomness (onoff's per-slot phases); bernoulli draws
/// nothing at construction, preserving the legacy stream.
std::unique_ptr<InjectionProcess> make_injection_process(const std::string& name,
                                                         const Topology& mesh,
                                                         const Config& config, Rng& rng);

/// The default process at `rate`, configless — what TrafficWorkload's
/// historical (sim, pattern, options, rng) ctor builds, so pre-axis call
/// sites keep compiling and draw the identical stream.
std::unique_ptr<InjectionProcess> make_bernoulli_injection(double rate);

/// Rejects process-specific keys set on a process that ignores them
/// (`window=` without closed_loop, `duty_cycle=`/`burst_len=` without
/// onoff, ...) and `injection=trace` without a `trace_file=`.  Called from
/// ExperimentRunner's eager validation; throws ConfigError naming the key.
void validate_injection_keys(const Config& config);

}  // namespace lgfi
