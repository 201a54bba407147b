#include "workloads.h"

#include <string>
#include <vector>

#include "common/rng.h"

namespace e2ebench {
namespace {

/// The `seed =` value of workload `index` under benchmark seed `seed`
/// (kept below 2^31 so it reads back through the spec's integer parser).
uint64_t SpecSeed(uint64_t seed, uint64_t index) {
  return 1 + dynagg::DeriveSeed(seed, 0x65326562ull + index) % 2147483629ull;
}

// pushsum_1m: plan, apply and record at a memory-bound size; membership,
// net and stream do no work. A record or bytes-per-host-round change shows
// here.
const char kPushSum[] = R"(name = pushsum_1m
protocol = push-sum
protocol.mode = push
environment = uniform
hosts = 1000000
rounds = 10
record = rms, final_rms
)";

// membership_churn: the paper's Fig 9 shape (count-sketch-reset under a
// mid-run 50% kill) plus two-sided churn on count-sketch-reset and
// push-sum-revert. Apply (sketch merges) dominates, and membership changes
// invalidate the environment's plan and alive caches. Each experiment has
// six independent trials for the executor to spread (and for a steady
// median error).
const char kChurn[] = R"(name = membership_churn
environment = uniform
hosts = 16000
rounds = 24
trials = 6
record = rms, final_rms
record.relative = true

[failure]
protocol = count-sketch-reset
protocol.bins = 16
protocol.levels = 18
failure.kind = kill_random_fraction
failure.round = 10
failure.fraction = 0.5

[churn-csr]
protocol = count-sketch-reset
protocol.bins = 16
protocol.levels = 18
churn.initial = 12000
churn.arrival_rate = 100
churn.death_prob = 0.01
churn.rebirth_prob = 0.1

[churn-psr]
protocol = push-sum-revert
protocol.mode = pushpull
protocol.lambda = 0.05
churn.initial = 12000
churn.arrival_rate = 100
churn.death_prob = 0.01
churn.rebirth_prob = 0.1
)";

// heavy_hitters_zipf: count-min over Zipf arrivals on a skew x width grid.
// The heavy-hitter record (a hosts x keys scan) dominates; env and agg are
// near zero. Nine cells give the executor independent units.
const char kHeavyHitters[] = R"(name = heavy_hitters_zipf
protocol = count-min
hosts = 96
rounds = 24
workload.kind = zipf
workload.keys = 1000000
workload.batch = 24
workload.rounds = 12
protocol.depth = 2
sweep = workload.skew: 0.8, 1.1, 1.4
sweep2 = protocol.width: 64, 256, 1024
record = rms, hh_weighted_err(16)
)";

// async_loss: the message-level driver with exponential latency and 10%
// loss on a degree-8 random graph. The only workload that exercises net,
// and push-flow's per-edge state, which grows with run length.
const char kAsyncLoss[] = R"(name = async_loss
driver = async
hosts = 20000
rounds = 20
trials = 4
gossip_period = 30
environment = random-graph
env.degree = 8
net.latency = exponential
net.latency_s = 10
net.loss = 0.1
record = rms, final_rms, delivery_rate

[push-flow]
protocol = push-flow

[push-sum]
protocol = push-sum
protocol.mode = push
)";

/// est_error tolerance: the value on held-out seed 9001 (never used while
/// tuning the workloads) times [2/3, 3/2]. Across the tuning seeds the
/// error moved by at most 10%, so the band only trips when the results
/// really change. The async delivery tolerance (0.005 around 1 - loss) is
/// about ten binomial standard deviations at 400k messages per unit; on
/// seed 9001 every unit landed within 0.001.
void SetErrorBand(Workload* w, double held_out) {
  w->error_lo = held_out * 2.0 / 3.0;
  w->error_hi = held_out * 1.5;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "pushsum_1m", "membership_churn", "heavy_hitters_zipf", "async_loss"};
  return names;
}

dynagg::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  const std::vector<std::string>& names = WorkloadNames();
  uint64_t index = 0;
  while (index < names.size() && names[index] != name) ++index;
  if (index == names.size()) {
    std::string known;
    for (const std::string& n : names) known += " " + n;
    return dynagg::Status::InvalidArgument("unknown workload '" + name +
                                           "' (known:" + known + ")");
  }
  Workload w;
  w.name = name;
  std::string body;
  if (name == "pushsum_1m") {
    body = kPushSum;
    w.largest_phase = "record";
    SetErrorBand(&w, 1.42735);
  } else if (name == "membership_churn") {
    body = kChurn;
    w.largest_phase = "apply";
    w.membership = true;
    SetErrorBand(&w, 0.0661823);
  } else if (name == "heavy_hitters_zipf") {
    body = kHeavyHitters;
    w.largest_phase = "record";
    w.error_kind = ErrorKind::kMeanHhWeightedErr;
    SetErrorBand(&w, 0.636026);
  } else {
    body = kAsyncLoss;
    w.largest_phase = "net";
    SetErrorBand(&w, 1.09226);
    w.net_loss = 0.1;
    w.delivery_tol = 0.005;
  }
  // The seed line goes right after the name so every section inherits it.
  const size_t eol = body.find('\n') + 1;
  w.spec_text = body.substr(0, eol) + "seed = " +
                std::to_string(SpecSeed(seed, index)) + "\n" +
                body.substr(eol);
  return w;
}

dynagg::Status CheckSpecStability(
    const Workload& w,
    const std::vector<dynagg::scenario::ScenarioSpec>& specs) {
  if (w.spec_text.find("intra_round_threads") != std::string::npos) {
    return dynagg::Status::InvalidArgument(
        w.name + ": intra_round_threads may be deleted; do not set it");
  }
  for (const dynagg::scenario::ScenarioSpec& spec : specs) {
    bool failure = false, churn = false;
    for (const auto& [key, value] : spec.params) {
      failure = failure || key.rfind("failure.", 0) == 0;
      churn = churn || key.rfind("churn.", 0) == 0;
    }
    if (failure && churn) {
      return dynagg::Status::InvalidArgument(
          spec.name + ": failure.* and churn.* in one experiment");
    }
  }
  return dynagg::Status::OK();
}

}  // namespace e2ebench
