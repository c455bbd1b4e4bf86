#pragma once
// Traffic driver for the contention-aware step pipeline.
//
// Every terminal offers messages according to a pluggable InjectionProcess
// (`injection=` axis — Bernoulli open loop by default, on/off bursts, batch
// mode, closed-loop request-reply, trace replay), destinations drawn from a
// TrafficPattern, and the run is split into three phases:
//
//   warmup   inject but do not measure (fills the network to steady state)
//   measure  inject and tag; tagged messages are the statistics population
//   drain    stop injecting; run until every message finished (capped)
//
// Per tagged message the workload records latency (end - start steps,
// stalls included) into an exact histogram, plus stall counts; per run it
// reports offered load and accepted throughput in messages/node/step.  The
// whole process draws from one replication-private Rng, so results are
// deterministic and thread-count independent (DESIGN.md §9).
//
// Under a closed-loop process the workload additionally runs the
// request-reply protocol: when a request is delivered, a reply is launched
// from the destination back to the source, the measurement population is
// completed *pairs*, and pair latency spans request start to reply delivery
// (DESIGN.md §15).
//
// With `trace_record` set, every primary injection (not replies) is
// serialized to a compact binary trace replayable via `injection=trace`.
//
// Optionally, `probes` single messages are launched at the start of the
// measurement window and reported separately — with injection_rate=0 this
// reduces exactly to the historical single-message dynamic experiment, which
// is how the Theorem 3-5 regime stays reachable from the traffic surface.

#include <memory>
#include <string>
#include <vector>

#include "src/core/dynamic_simulation.h"
#include "src/sim/injection_process.h"
#include "src/sim/statistics.h"
#include "src/sim/trace_io.h"
#include "src/sim/traffic_pattern.h"

namespace lgfi {

struct TrafficWorkloadOptions {
  double injection_rate = 0.02;  ///< per-node per-step Bernoulli probability
  long long warmup_steps = 0;
  long long measure_steps = 1000;
  /// Cap on the drain phase; 0 derives the per-message step-budget safety
  /// net (4 * 2n * N).
  long long drain_steps = 0;
  int probes = 0;                ///< single messages launched at measure start
  int min_probe_distance = 1;    ///< minimum D(s, d) of probe pairs
  std::string trace_record;      ///< non-empty: serialize injections here
  int trace_packet_size = 1;     ///< flits per packet stamped into the trace
};

struct TrafficResult {
  long long offered = 0;    ///< injection-process firings in the measurement window
  long long injected = 0;   ///< messages actually launched (all phases)
  long long measured = 0;   ///< tagged messages/pairs (measurement window)
  long long measured_delivered = 0;
  long long measured_unreachable = 0;
  long long measured_exhausted = 0;   ///< hit the per-message step budget
  long long measured_unfinished = 0;  ///< still in flight at the drain cap
  long long stall_steps = 0;          ///< total stalls of tagged messages
  IntHistogram latency;               ///< per delivered tagged message (tail)
  /// Flit-level switching only (empty under ideal): head-flit arrival
  /// latency and the serialization tail (delivery - head arrival), per
  /// delivered tagged message.  `latency` above is the tail latency, so
  /// latency == head_latency + serialization sample-by-sample.  Closed-loop
  /// pairs span two messages, so both stay empty there.
  IntHistogram head_latency;
  IntHistogram serialization;
  double offered_load = 0.0;          ///< offered / (measure_steps * N)
  double accepted_throughput = 0.0;   ///< delivered tagged / (measure_steps * N)
  long long steps_run = 0;            ///< total steps across all three phases
  std::vector<int> probe_ids;         ///< message ids of the probes
  std::vector<int> measured_ids;      ///< message ids of the tagged population
};

class TrafficWorkload {
 public:
  /// Historical form: open-loop Bernoulli at options.injection_rate —
  /// byte-identical to the pre-axis workload.  `pattern` and `rng` must
  /// outlive run().
  TrafficWorkload(DynamicSimulation& sim, TrafficPattern& pattern,
                  TrafficWorkloadOptions options, Rng& rng);

  /// Injection-process form: `process` decides when each terminal offers a
  /// packet; must outlive run() (as must `pattern` and `rng`).
  TrafficWorkload(DynamicSimulation& sim, TrafficPattern& pattern, InjectionProcess& process,
                  TrafficWorkloadOptions options, Rng& rng);

  TrafficResult run();

 private:
  /// A closed-loop request-reply pair, tracked by the message carrying it:
  /// the request, then (once the request is delivered) the reply.
  struct PairState {
    int msg_id = 0;
    bool reply = false;  ///< msg_id is the reply
    int slot = 0;
    bool measured = false;
    long long start_step = 0;       ///< request launch step
    long long request_stalls = 0;   ///< filled when the reply launches
  };

  /// One injection sweep over the terminal slots (ascending, one fire()
  /// consult each — the rng stream layout is fixed, so runs are
  /// reproducible).
  void inject(bool measured, TrafficResult& result);

  /// After every sim step: closed-loop bookkeeping (launch replies for
  /// delivered requests, settle completed pairs).  No-op for open loop.
  void post_step(TrafficResult& result);

  /// The pair ended without a delivered reply: frees the window entry and
  /// classifies the tagged outcome by the failing message (`msg` null when
  /// the reply could not even launch — counted unreachable).
  void fail_pair(const PairState& pair, const MessageProgress* msg, TrafficResult& result);

  DynamicSimulation* sim_;
  TrafficPattern* pattern_;
  TrafficWorkloadOptions options_;
  Rng* rng_;
  std::unique_ptr<InjectionProcess> owned_process_;  ///< legacy-ctor bernoulli
  InjectionProcess* process_;
  std::unique_ptr<TraceWriter> trace_;

  /// Closed-loop pairs in flight, in request launch order (unused for
  /// open-loop processes).  post_step compacts it in place.
  std::vector<PairState> pairs_;
};

}  // namespace lgfi
