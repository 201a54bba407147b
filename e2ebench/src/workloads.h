// The benchmark's workloads: scenario specs generated from a seed.
//
// Each workload is one scenario file (one or more experiments) run through
// the public scenario API. The seed only picks the specs' `seed =` values,
// so every size and knob is fixed and a run's work is comparable across
// seeds. Specs avoid keys that open roadmap items may delete
// (`intra_round_threads`) or forbid (failure x churn in one experiment).

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "scenario/spec.h"

namespace e2ebench {

/// How a workload's headline accuracy (`est_error`) is read from its
/// result tables.
enum class ErrorKind {
  /// Median over every unit of the summary column `final_rms`.
  kMedianFinalRms,
  /// Mean over every unit of the summary column `hh_weighted_err_16`.
  kMeanHhWeightedErr,
};

struct Workload {
  std::string name;
  /// The scenario file text (shared keys, then one [section] per
  /// experiment when there are several).
  std::string spec_text;
  ErrorKind error_kind = ErrorKind::kMedianFinalRms;
  /// Accepted est_error range, derived on a seed never used for tuning.
  double error_lo = 0.0;
  double error_hi = 0.0;
  /// Loss rate of the async network (0 = not an async workload); the
  /// delivered/sent ratio must lie within delivery_tol of 1 - loss.
  double net_loss = 0.0;
  double delivery_tol = 0.0;
  /// The design the traced split should confirm: the phase that takes
  /// the most time, and whether membership plans do any work.
  std::string largest_phase;
  bool membership = false;
};

/// Workload names in benchmark order.
const std::vector<std::string>& WorkloadNames();

/// Generates workload `name` for benchmark seed `seed`.
dynagg::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// Refuses specs that use keys open roadmap items may delete or forbid:
/// `intra_round_threads` anywhere, and failure.* together with churn.* in
/// one experiment.
dynagg::Status CheckSpecStability(
    const Workload& w, const std::vector<dynagg::scenario::ScenarioSpec>& specs);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
