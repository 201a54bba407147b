#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/inflight_queue.h"
#include "net/message.h"
#include "net/network_model.h"
#include "scenario/async_driver.h"
#include "scenario/config.h"
#include "scenario/trial.h"
#include "sim/churn.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "sim/population.h"
#include "sim/round_kernel.h"

namespace e2ebench {
namespace {

using dynagg::DeriveSeed;
using dynagg::HostId;
using dynagg::Population;
using dynagg::Result;
using dynagg::Rng;
using dynagg::Status;
using dynagg::scenario::EnvHandle;
using dynagg::scenario::ProtocolDef;
using dynagg::scenario::Recorder;
using dynagg::scenario::ScenarioSpec;
using dynagg::scenario::SwarmHandle;
using dynagg::scenario::TrialContext;

/// Mirrors the executor's sweep override: integers for hosts / rounds,
/// %.17g text for namespaced keys.
Status ApplyOverride(ScenarioSpec* spec, const std::string& key,
                     double value) {
  if (key == "hosts" || key == "rounds") {
    const int v = static_cast<int>(value);
    if (v <= 0 || static_cast<double>(v) != value) {
      return Status::InvalidArgument("sweep over " + key +
                                     " requires positive integer values");
    }
    (key == "hosts" ? spec->hosts : spec->rounds) = v;
    return Status::OK();
  }
  if (key.find('.') == std::string::npos) {
    return Status::InvalidArgument("the traced pass cannot sweep '" + key +
                                   "'");
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  spec->params[key] = buf;
  return Status::OK();
}

/// Whether the swarm plans simultaneous push rounds (alive order) or
/// sequential pairwise exchanges (shuffled order): stream sketches always
/// push, the averaging and counting swarms follow protocol.mode.
Result<bool> PlansPushRounds(const ScenarioSpec& spec, bool stream) {
  if (stream) return true;
  DYNAGG_ASSIGN_OR_RETURN(const std::string mode,
                          spec.ParamString("protocol.mode", "pushpull"));
  return mode == "push";
}

bool IsStreamProtocol(const std::string& protocol) {
  return protocol == "count-min" || protocol == "count-sketch-freq";
}

struct Built {
  EnvHandle env;
  SwarmHandle swarm;
};

/// Destroys the swarm and then the environment inside spans: teardown is
/// part of every unit the executor runs (push-flow's edge maps make it
/// noticeable).
void TearDown(Built& b, bool stream, SpanRecorder& rec) {
  {
    Scoped s(rec, stream ? "stream.teardown" : "agg.teardown");
    b.swarm = SwarmHandle();
  }
  Scoped s(rec, "env.teardown");
  b.env = EnvHandle();
}

Result<Built> BuildUnit(const TrialContext& ctx, const ProtocolDef& def,
                        bool stream, SpanRecorder& rec) {
  Built b;
  {
    Scoped s(rec, "env.build");
    DYNAGG_ASSIGN_OR_RETURN(b.env, dynagg::scenario::MakeEnvironment(ctx));
  }
  {
    Scoped s(rec, stream ? "stream.swarm_build" : "agg.swarm_build");
    DYNAGG_ASSIGN_OR_RETURN(b.swarm, def.make_swarm(ctx, b.env));
  }
  return b;
}

Status DriveRounds(const TrialContext& ctx, const ProtocolDef& def,
                   SpanRecorder& rec, TracedUnit* out) {
  namespace sc = dynagg::scenario;
  const ScenarioSpec& spec = *ctx.spec;
  DYNAGG_ASSIGN_OR_RETURN(Built b, BuildUnit(ctx, def, out->stream, rec));
  if (b.env.advance_period > 0) {
    return Status::InvalidArgument(
        "the traced pass does not replay trace-backed environments");
  }
  const SwarmHandle& swarm = b.swarm;
  const dynagg::Environment& env = *b.env.env;
  out->state_bytes = swarm.state_bytes;

  std::vector<std::string> extra_keys = def.extra_record_keys;
  sc::RecordConfig cfg;
  sc::FailureConfig fail;
  sc::ChurnConfig churn;
  uint64_t round_stream = 0, fail_stream = 0, churn_stream = 0;
  const int n = env.num_hosts();
  {
    Scoped s(rec, "sim.setup");
    DYNAGG_ASSIGN_OR_RETURN(cfg, sc::ParseRecordConfig(spec, extra_keys));
    DYNAGG_ASSIGN_OR_RETURN(fail, sc::ParseFailureConfig(spec));
    DYNAGG_ASSIGN_OR_RETURN(churn, sc::ParseChurnConfig(spec));
    DYNAGG_ASSIGN_OR_RETURN(round_stream, sc::RoundStream(spec, ctx, n));
    DYNAGG_ASSIGN_OR_RETURN(fail_stream, sc::FailureStream(spec, fail));
    DYNAGG_ASSIGN_OR_RETURN(churn_stream, sc::ChurnStream(spec, ctx, n));
  }
  const bool has_failure = fail.kind != sc::FailureConfig::Kind::kNone;
  if (churn.enabled && !swarm.on_join) {
    return Status::InvalidArgument("churn.* needs a join-capable protocol");
  }
  Rng fail_rng(DeriveSeed(ctx.trial_seed, fail_stream));
  dynagg::FailurePlan failures;
  {
    Scoped s(rec, "sim.failure_build");
    DYNAGG_ASSIGN_OR_RETURN(
        failures, sc::BuildFailurePlan(fail, n, spec.rounds,
                                       swarm.failure_values, fail_rng));
  }
  Rng churn_rng(DeriveSeed(ctx.trial_seed, churn_stream));
  dynagg::ChurnPlan churn_plan;
  {
    Scoped s(rec, "sim.churn_build");
    DYNAGG_ASSIGN_OR_RETURN(
        churn_plan, sc::BuildChurnPlan(churn, n, spec.rounds, churn_rng));
  }
  const bool has_membership = has_failure || !churn_plan.empty();
  const int initial_alive =
      churn.enabled && churn.initial >= 0 ? churn.initial : n;
  Population pop =
      initial_alive < n ? Population(n, initial_alive) : Population(n);
  Rng rng(DeriveSeed(ctx.trial_seed, round_stream));
  DYNAGG_ASSIGN_OR_RETURN(const bool push_rounds,
                          PlansPushRounds(spec, out->stream));
  dynagg::RoundKernel probe;  // plan probe: never touches the swarm's kernel
  const std::function<void(HostId)> on_join = [&](HostId id) {
    Scoped s(rec, "sim.on_join");
    swarm.on_join(id);
  };
  const char* round_name = out->stream ? "stream.round" : "agg.round";

  for (int round = 0; round < spec.rounds; ++round) {
    out->round_spans.push_back(rec.Open("sim.round"));
    if (has_membership) {
      Scoped s(rec, "sim.membership");
      ++out->membership_rounds;
      const int before = pop.num_alive();
      failures.Apply(round, &pop);
      out->leaves += std::max(0, before - pop.num_alive());
      if (!churn_plan.empty()) {
        const dynagg::ChurnPlan::RoundDelta d =
            churn_plan.Apply(round, &pop, on_join);
        out->joins += d.joins + d.rebirths;
        out->leaves += d.kills;
      }
      if (fail.pin_alive != dynagg::kInvalidHost) pop.Revive(fail.pin_alive);
    }
    {
      Scoped s(rec, "env.plan");
      Rng copy = rng;
      const dynagg::PartnerPlan& plan =
          push_rounds ? probe.PlanPushRound(env, pop, copy)
                      : probe.PlanExchangeRound(env, pop, copy);
      out->plan_slots += static_cast<int64_t>(plan.size());
    }
    {
      Scoped s(rec, round_name);
      swarm.run_round(env, pop, rng);
    }
    out->host_rounds += pop.num_alive();
    {
      Scoped s(rec, "sim.record");
      const double tr = swarm.truth(pop);
      double rms = dynagg::RmsDeviationOverAlive(pop, tr, swarm.estimate);
      if (cfg.relative) rms /= tr;
      out->rms.push_back(rms);
    }
    rec.Close(out->round_spans.back());
  }
  if (swarm.finish) {
    Scoped s(rec, out->stream ? "stream.record" : "agg.finish");
    Recorder finish_rec;
    DYNAGG_RETURN_IF_ERROR(swarm.finish(ctx, finish_rec));
    for (const auto& scalar : finish_rec.batch().scalars) {
      out->scalars.push_back({scalar.name, scalar.value});
    }
  }
  TearDown(b, out->stream, rec);
  return Status::OK();
}

Status DriveAsync(const TrialContext& ctx, const ProtocolDef& def,
                  SpanRecorder& rec, TracedUnit* out) {
  namespace sc = dynagg::scenario;
  const ScenarioSpec& spec = *ctx.spec;
  {
    Scoped s(rec, "scenario.validate_async");
    DYNAGG_RETURN_IF_ERROR(sc::ValidateAsyncSpec(spec, def));
  }
  DYNAGG_ASSIGN_OR_RETURN(Built b, BuildUnit(ctx, def, out->stream, rec));
  if (b.env.advance_period > 0) {
    return Status::InvalidArgument(
        "the traced pass does not replay trace-backed environments");
  }
  const SwarmHandle& swarm = b.swarm;
  const dynagg::Environment& env = *b.env.env;
  out->state_bytes = swarm.state_bytes;
  const int n = env.num_hosts();
  dynagg::net::NetworkParams params;
  uint64_t round_stream = 0, message_stream = 0;
  {
    Scoped s(rec, "sim.setup");
    DYNAGG_ASSIGN_OR_RETURN(params, sc::ParseNetworkParams(spec));
    DYNAGG_ASSIGN_OR_RETURN(round_stream, sc::RoundStream(spec, ctx, n));
    DYNAGG_ASSIGN_OR_RETURN(message_stream, sc::MessageStream(spec, ctx, n));
  }
  const dynagg::SimTime period = dynagg::FromSeconds(
      spec.gossip_period > 0 ? spec.gossip_period : 30.0);
  Population pop(n);
  Rng rng(DeriveSeed(ctx.trial_seed, round_stream));
  dynagg::net::NetworkModel model(params,
                                  DeriveSeed(ctx.trial_seed, message_stream));
  dynagg::net::InFlightQueue inflight;
  inflight.Reserve(static_cast<size_t>(n));
  std::vector<dynagg::net::Message> wave;
  std::vector<dynagg::net::Message> due;
  std::vector<dynagg::net::NetworkModel::Delivery> decisions;
  uint64_t message_index = 0;

  // Popping every due message before delivering any keeps the driver's
  // (due, send) delivery order: delivery never touches the queue.
  const auto drain = [&](bool all, dynagg::SimTime t) {
    {
      Scoped s(rec, "net.queue");
      while (all ? !inflight.empty() : inflight.HasDueBy(t)) {
        due.push_back(inflight.Top());
        inflight.Pop();
      }
    }
    {
      Scoped s(rec, "net.deliver");
      for (const dynagg::net::Message& m : due) swarm.async_deliver(m);
    }
    out->messages_delivered += static_cast<int64_t>(due.size());
    due.clear();
  };
  const auto rms_now = [&]() {
    return dynagg::RmsDeviationOverAlive(pop, swarm.truth(pop),
                                         swarm.estimate);
  };

  for (int tick = 0; tick < spec.rounds; ++tick) {
    const dynagg::SimTime now = static_cast<dynagg::SimTime>(tick + 1) * period;
    out->round_spans.push_back(rec.Open("sim.round"));
    drain(false, now);
    wave.clear();
    {
      Scoped s(rec, "net.tick");
      swarm.async_tick(env, pop, rng, &wave);
    }
    out->messages_sent += static_cast<int64_t>(wave.size());
    out->host_rounds += pop.num_alive();
    {
      Scoped s(rec, "net.decide");
      decisions.resize(wave.size());
      for (auto& d : decisions) d = model.Decide(message_index++);
    }
    {
      Scoped s(rec, "net.queue");
      for (size_t i = 0; i < wave.size(); ++i) {
        if (!decisions[i].dropped) {
          inflight.Push(now + decisions[i].delay, wave[i]);
        }
      }
    }
    out->inflight_peak =
        std::max(out->inflight_peak, static_cast<int64_t>(inflight.size()));
    drain(false, now);
    {
      Scoped s(rec, "sim.record");
      out->rms.push_back(rms_now());
    }
    rec.Close(out->round_spans.back());
  }
  drain(true, 0);
  {
    Scoped s(rec, "sim.record");
    out->scalars.push_back({"final_rms", rms_now()});
  }
  out->scalars.push_back(
      {"delivery_rate",
       out->messages_sent > 0
           ? static_cast<double>(out->messages_delivered) /
                 static_cast<double>(out->messages_sent)
           : 1.0});
  TearDown(b, out->stream, rec);
  return Status::OK();
}

}  // namespace

Result<ScenarioSpec> FirstUnitSpec(const ScenarioSpec& experiment) {
  ScenarioSpec unit = experiment;
  if (!experiment.sweep_key.empty()) {
    DYNAGG_RETURN_IF_ERROR(ApplyOverride(&unit, experiment.sweep_key,
                                         experiment.sweep_values.at(0)));
  }
  if (!experiment.sweep2_key.empty()) {
    DYNAGG_RETURN_IF_ERROR(ApplyOverride(&unit, experiment.sweep2_key,
                                         experiment.sweep2_values.at(0)));
  }
  unit.sweep_key.clear();
  unit.sweep_values.clear();
  unit.sweep2_key.clear();
  unit.sweep2_values.clear();
  unit.trials = 1;
  unit.aggregates.clear();
  return unit;
}

Result<TracedUnit> RunTracedUnit(const ScenarioSpec& experiment,
                                 SpanRecorder& rec) {
  namespace sc = dynagg::scenario;
  DYNAGG_ASSIGN_OR_RETURN(const ProtocolDef def,
                          sc::ProtocolRegistry().Find(experiment.protocol));
  if (!def.make_swarm) {
    return Status::InvalidArgument("protocol '" + experiment.protocol +
                                   "' owns its trial loop; not traceable");
  }
  DYNAGG_ASSIGN_OR_RETURN(const ScenarioSpec unit, FirstUnitSpec(experiment));
  TrialContext ctx;
  ctx.spec = &unit;
  if (!experiment.sweep_key.empty()) {
    ctx.sweep_index = 0;
    ctx.sweep_value = experiment.sweep_values[0];
  }
  if (!experiment.sweep2_key.empty()) {
    ctx.sweep2_index = 0;
    ctx.sweep2_value = experiment.sweep2_values[0];
  }
  ctx.trial = 0;
  ctx.trial_seed = sc::TrialSeed(experiment.seed, 0);

  TracedUnit out;
  out.stream = IsStreamProtocol(experiment.protocol);
  out.unit_span = rec.Open("bench.unit");
  Status st;
  if (experiment.driver == "rounds") {
    out.async = false;
    st = DriveRounds(ctx, def, rec, &out);
  } else if (experiment.driver == "async") {
    out.async = true;
    st = DriveAsync(ctx, def, rec, &out);
  } else {
    st = Status::InvalidArgument("the traced pass cannot drive driver = " +
                                 experiment.driver);
  }
  rec.Close(out.unit_span);
  if (!st.ok()) return st;
  return out;
}

}  // namespace e2ebench
