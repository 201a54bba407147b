// The traced pass: one unit of an experiment, driven by the benchmark
// itself through each layer's public functions, with a span around every
// call.
//
// The rounds and async drivers are reproduced call for call (same RNG
// streams, same membership order, same delivery order), so the traced
// unit computes exactly what the executor computes for that unit; the
// caller proves it by comparing the rms series with the untraced run's.
// Plan time is measured by planning the same round a second time on a
// separate RoundKernel with a copy of the round RNG, so the swarm's own
// RNG stream is never perturbed. Per-message net calls are timed one batch
// per tick (a clock read per message would cost as much as the call).

#ifndef E2EBENCH_TRACED_H_
#define E2EBENCH_TRACED_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "scenario/spec.h"
#include "spans.h"

namespace e2ebench {

struct TracedUnit {
  /// Per-round (per-tick) rms, as the driver would record it.
  std::vector<double> rms;
  /// Scalars of the swarm's finish hook (heavy-hitter records) and the
  /// async driver's final_rms / delivery_rate.
  std::vector<std::pair<std::string, double>> scalars;
  bool stream = false;  // a src/stream swarm (count-min, count-sketch-freq)
  bool async = false;
  double state_bytes = 0.0;  // SwarmHandle::state_bytes (protocol-declared)
  int64_t host_rounds = 0;   // alive hosts summed over executed rounds
  int64_t plan_slots = 0;    // slots planned by the plan probe
  int64_t joins = 0;         // churn first arrivals + rebirths
  int64_t leaves = 0;        // failure kills + churn deaths
  int membership_rounds = 0; // rounds with a membership plan to apply
  int64_t messages_sent = 0;
  int64_t messages_delivered = 0;
  int64_t inflight_peak = 0;
  /// Indexes of this unit's spans in the recorder: the unit root and one
  /// span per round (tick).
  int unit_span = -1;
  std::vector<int> round_spans;
};

/// The spec of an experiment's first unit (sweep index 0, sweep2 index 0,
/// trial 0), with the sweep overrides applied the way the executor applies
/// them.
dynagg::Result<dynagg::scenario::ScenarioSpec> FirstUnitSpec(
    const dynagg::scenario::ScenarioSpec& experiment);

/// Runs the first unit of `experiment` with spans on `rec`.
dynagg::Result<TracedUnit> RunTracedUnit(
    const dynagg::scenario::ScenarioSpec& experiment, SpanRecorder& rec);

}  // namespace e2ebench

#endif  // E2EBENCH_TRACED_H_
