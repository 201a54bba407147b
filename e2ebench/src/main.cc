// e2ebench: the repository's end-to-end benchmark.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--spans-out PATH]
//   e2ebench --validate-only [--seed N]
//   e2ebench --print-spec --workload NAME [--seed N]
//
// --trace 0 times whole workloads through the public scenario API
// (ParseScenarioFile -> ValidateExperiment -> RunExperiment ->
// RenderTables) with tracing off and prints the end-to-end metrics.
// --trace 1 drives one unit of every experiment through each layer's
// public functions with a span around every call (traced.h) and prints the
// per-layer metrics. Both modes check the outputs; the last line of
// standard output is the JSON result.


#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "host_probe.h"
#include "metrics.h"
#include "scenario/executor.h"
#include "scenario/sink.h"
#include "scenario/spec.h"
#include "scenario/trial.h"
#include "sim/worker_pool.h"
#include "spans.h"
#include "traced.h"
#include "workloads.h"

namespace e2ebench {
namespace {

namespace sc = dynagg::scenario;
using dynagg::Result;
using dynagg::Status;

/// Executor threads for the parallel runs: min(nproc, 4).
int ParallelThreads() {
  return std::min(4, std::max(1, dynagg::WorkerPool::VisibleCpus()));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

int UnitsOf(const sc::ScenarioSpec& spec) {
  const int sweep = spec.sweep_key.empty()
                        ? 1
                        : static_cast<int>(spec.sweep_values.size());
  const int sweep2 = spec.sweep2_key.empty()
                         ? 1
                         : static_cast<int>(spec.sweep2_values.size());
  return sweep * sweep2 * spec.trials;
}

/// Parses the workload and validates every experiment; refuses keys that
/// open roadmap items may delete or forbid.
Result<std::vector<sc::ScenarioSpec>> ParseAndValidate(const Workload& w) {
  DYNAGG_ASSIGN_OR_RETURN(std::vector<sc::ScenarioSpec> specs,
                          sc::ParseScenarioFile(w.spec_text, w.name));
  DYNAGG_RETURN_IF_ERROR(CheckSpecStability(w, specs));
  for (const sc::ScenarioSpec& spec : specs) {
    DYNAGG_RETURN_IF_ERROR(sc::ValidateExperiment(spec));
  }
  return specs;
}

// ------------------------------------------------------- untraced pass ---

struct Pass {
  int64_t parse_ns = 0;     // ParseScenarioFile
  int64_t validate_ns = 0;  // ValidateExperiment, every experiment
  int64_t sink_ns = 0;      // RenderTables, every experiment
  int64_t total_ns = 0;     // parse to rendered tables
  int units = 0;
  int failed_units = 0;
  std::string output;  // every experiment's rendered CSV, in order
  std::vector<std::string> errors;
  std::vector<sc::ScenarioSpec> specs;
  std::vector<std::vector<sc::ResultTable>> tables;  // per experiment
};

/// One whole workload through the public scenario API, tracing off.
Pass RunPass(const Workload& w, int threads) {
  Pass p;
  const int64_t start = NowNs();
  Result<std::vector<sc::ScenarioSpec>> parsed =
      sc::ParseScenarioFile(w.spec_text, w.name);
  const int64_t parsed_at = NowNs();
  p.parse_ns = parsed_at - start;
  if (!parsed.ok()) {
    p.errors.push_back(parsed.status().ToString());
    p.failed_units = p.units = 1;
    p.total_ns = NowNs() - start;
    return p;
  }
  p.specs = std::move(parsed).value();
  for (const sc::ScenarioSpec& spec : p.specs) {
    const int units = UnitsOf(spec);
    p.units += units;
    const int64_t t0 = NowNs();
    const Status st = sc::ValidateExperiment(spec);
    const int64_t t1 = NowNs();
    p.validate_ns += t1 - t0;
    Result<std::vector<sc::ResultTable>> tables =
        st.ok() ? sc::RunExperiment(spec, threads)
                : Result<std::vector<sc::ResultTable>>(st);
    const int64_t t2 = NowNs();
    if (!tables.ok()) {
      p.errors.push_back(spec.name + ": " + tables.status().ToString());
      p.failed_units += units;
      p.tables.emplace_back();
      continue;
    }
    Result<std::string> text =
        sc::RenderTables(tables.value(), spec.name, "csv");
    p.sink_ns += NowNs() - t2;
    if (!text.ok()) {
      p.errors.push_back(spec.name + ": " + text.status().ToString());
      p.failed_units += units;
    } else {
      p.output += text.value();
    }
    p.tables.push_back(std::move(tables).value());
  }
  p.total_ns = NowNs() - start;
  return p;
}

const sc::ResultTable* FindTable(const std::vector<sc::ResultTable>& tables,
                                 const std::string& label) {
  for (const sc::ResultTable& t : tables) {
    if (t.label == label) return &t;
  }
  return nullptr;
}

/// Every value of column `column` in the `label` table of one experiment.
std::vector<double> ColumnOf(const std::vector<sc::ResultTable>& tables,
                             const std::string& label,
                             const std::string& column) {
  std::vector<double> out;
  const sc::ResultTable* t = FindTable(tables, label);
  if (t == nullptr) return out;
  const auto& cols = t->table.columns();
  const auto it = std::find(cols.begin(), cols.end(), column);
  if (it == cols.end()) return out;
  const size_t c = static_cast<size_t>(it - cols.begin());
  for (int64_t r = 0; r < t->table.num_rows(); ++r) {
    out.push_back(t->table.row(r)[c]);
  }
  return out;
}

/// The same column over every experiment of a pass.
std::vector<double> Column(const Pass& p, const std::string& label,
                           const std::string& column) {
  std::vector<double> out;
  for (const auto& tables : p.tables) {
    const std::vector<double> v = ColumnOf(tables, label, column);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

/// The workload's headline accuracy, read from its own result tables.
Result<double> EstError(const Workload& w, const Pass& p) {
  if (w.error_kind == ErrorKind::kMeanHhWeightedErr) {
    const std::vector<double> v =
        Column(p, "summary", "hh_weighted_err_16");
    if (v.empty()) return Status::FailedPrecondition("no hh_weighted_err_16 column");
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  }
  const std::vector<double> v = Column(p, "summary", "final_rms");
  if (v.empty()) return Status::FailedPrecondition("no final_rms column");
  return Median(v);
}

/// Output checks on a pass: est_error and the async delivery ratio within
/// their tolerances. Returns the violations.
std::vector<std::string> CheckOutputs(const Workload& w, const Pass& p,
                                      double* est_error) {
  std::vector<std::string> bad;
  Result<double> err = EstError(w, p);
  *est_error = err.ok() ? err.value() : 0.0;
  if (!err.ok()) {
    bad.push_back(err.status().ToString());
  } else if (!(*est_error >= w.error_lo && *est_error <= w.error_hi)) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "est_error %.6g outside [%.6g, %.6g]",
                  *est_error, w.error_lo, w.error_hi);
    bad.push_back(buf);
  }
  if (w.net_loss > 0.0) {
    for (const double ratio : Column(p, "summary", "delivery_rate")) {
      if (std::abs(ratio - (1.0 - w.net_loss)) > w.delivery_tol) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "delivery_rate %.6g outside %.6g +- %.6g", ratio,
                      1.0 - w.net_loss, w.delivery_tol);
        bad.push_back(buf);
      }
    }
  }
  return bad;
}

/// setup_s: parse and validate the spec, then build the first unit's
/// environment and swarm.
Result<double> TimeSetup(const Workload& w) {
  const int64_t start = NowNs();
  DYNAGG_ASSIGN_OR_RETURN(const std::vector<sc::ScenarioSpec> specs,
                          ParseAndValidate(w));
  DYNAGG_ASSIGN_OR_RETURN(const sc::ScenarioSpec unit,
                          FirstUnitSpec(specs.front()));
  DYNAGG_ASSIGN_OR_RETURN(const sc::ProtocolDef def,
                          sc::ProtocolRegistry().Find(unit.protocol));
  sc::TrialContext ctx;
  ctx.spec = &unit;
  ctx.trial_seed = sc::TrialSeed(unit.seed, 0);
  if (!specs.front().sweep_key.empty()) {
    ctx.sweep_index = 0;
    ctx.sweep_value = specs.front().sweep_values[0];
  }
  if (!specs.front().sweep2_key.empty()) {
    ctx.sweep2_index = 0;
    ctx.sweep2_value = specs.front().sweep2_values[0];
  }
  DYNAGG_ASSIGN_OR_RETURN(sc::EnvHandle env, sc::MakeEnvironment(ctx));
  DYNAGG_ASSIGN_OR_RETURN(sc::SwarmHandle swarm, def.make_swarm(ctx, env));
  const double secs = Seconds(NowNs() - start);
  // Tear-down stays outside the measurement.
  swarm = sc::SwarmHandle();
  return secs;
}

/// This process's peak resident set (VmHWM) in KiB; 0 if unknown.
long PeakRssKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

void PrintProbe(const HostProbe& p) {
  std::printf(
      "host: nproc=%d affinity_cpus=%d effective_cores=%.2f (spin on %d "
      "threads) mem_bw_gbs=%.2f (single-thread triad over %lld bytes; "
      "last-level cache %lld bytes)\n",
      p.nproc, p.affinity_cpus, p.effective_cores, p.spin_threads,
      p.mem_bw_gbs, static_cast<long long>(p.triad_bytes),
      static_cast<long long>(p.llc_bytes));
}

/// Prints a timing sample in run order (the first 40 values), then its
/// size, median and maximum.
void PrintSamples(const char* name, const std::vector<double>& v) {
  std::printf("%s samples (s):", name);
  for (size_t i = 0; i < v.size() && i < 40; ++i) std::printf(" %.4g", v[i]);
  std::printf("%s; n %zu, median %.4g, max %.4g\n",
              v.size() > 40 ? " ..." : "", v.size(), Median(v),
              v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()));
}

struct Outcome {
  std::map<std::string, double> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;
};

void Violation(Outcome* o, const std::string& what) {
  ++o->failed;
  o->violations.push_back(what);
}

// ------------------------------------------------------------ trace 0 ---

Outcome RunEndToEnd(const Workload& w, double seconds) {
  Outcome o;
  const int par = ParallelThreads();

  // One untimed set-up first, so lazy registry and allocator work is not
  // in the sample; then set-ups for about a second (8 to 1000 of them),
  // since a sub-millisecond set-up needs many samples for a steady median.
  std::vector<double> setup;
  const int64_t setup_end = NowNs() + 1'000'000'000;
  ++o.attempted;
  for (int i = 0; i <= 8 || (i <= 1000 && NowNs() < setup_end); ++i) {
    Result<double> s = TimeSetup(w);
    if (!s.ok()) {
      Violation(&o, "setup: " + s.status().ToString());
      break;
    }
    if (i > 0) setup.push_back(s.value());
  }
  o.metrics["setup_s"] = Median(setup);

  // An untimed 1-thread pass first fills the allocator; its output is the
  // reference. This process runs nothing but this workload, so its peak
  // resident set right after that pass (before any N-thread pass and the
  // host probe) is the workload's peak_rss_mb. Then 1-thread and N-thread
  // passes alternate until the time is spent, at least three of each,
  // and every pass must render the same bytes as the reference.
  const auto run = [&](int threads) {
    Pass p = RunPass(w, threads);
    o.attempted += p.units;
    o.failed += p.failed_units;
    for (const std::string& e : p.errors) o.violations.push_back(e);
    return p;
  };
  const Pass first = run(1);
  o.metrics["peak_rss_mb"] = static_cast<double>(PeakRssKib()) / 1024.0;
  std::vector<double> wall, wall_par;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t iteration_ns = 0;  // the last iteration's length
  for (int iter = 0; iter < 3 || NowNs() + iteration_ns <= deadline;
       ++iter) {
    const int64_t start = NowNs();
    for (int k = 0; k < 2; ++k) {
      const bool parallel = (iter + k) % 2 == 1;
      const Pass p = run(parallel ? par : 1);
      (parallel ? wall_par : wall).push_back(Seconds(p.total_ns));
      if (first.failed_units == 0 && p.failed_units == 0 &&
          p.output != first.output) {
        Violation(&o, "output at " + std::to_string(parallel ? par : 1) +
                          " executor threads differs from the reference");
      }
    }
    iteration_ns = NowNs() - start;
  }
  o.metrics["wall_s"] = Median(wall);
  o.metrics["wall_par_s"] = Median(wall_par);
  double est = 0.0;
  if (first.failed_units == 0) {
    for (const std::string& v : CheckOutputs(w, first, &est)) {
      Violation(&o, v);
    }
  }
  o.metrics["est_error"] = est;
  std::printf("passes: %zu at 1 thread, %zu at %d threads; %d units each\n",
              wall.size(), wall_par.size(), par, first.units);
  PrintSamples("setup_s", setup);
  PrintSamples("wall_s", wall);
  PrintSamples("wall_par_s", wall_par);
  // The probe runs last, when the workload has had every vCPU busy: on a
  // VM, vCPUs that sat idle take a while to get real cores back.
  PrintProbe(ProbeHost(par));
  return o;
}

// ------------------------------------------------------------ trace 1 ---

/// The first `rows` values of the series table's rms column: the
/// executor's unit 0 comes first.
std::vector<double> FirstUnitSeries(const std::vector<sc::ResultTable>& t,
                                    size_t rows) {
  std::vector<double> out = ColumnOf(t, "series", "rms");
  if (out.size() > rows) out.resize(rows);
  return out;
}

/// Whether the traced unit computed what the executor computed: its rms
/// series equals the untraced unit's and the full run's unit 0 bit for
/// bit, and every scalar it recorded (heavy-hitter records, the async
/// final_rms and delivery_rate) equals the untraced unit's summary value.
bool SameComputation(const TracedUnit& u,
                     const std::vector<sc::ResultTable>& alone,
                     const std::vector<sc::ResultTable>& full_run) {
  if (u.rms != FirstUnitSeries(alone, u.rms.size()) ||
      u.rms != FirstUnitSeries(full_run, u.rms.size())) {
    return false;
  }
  for (const auto& [name, value] : u.scalars) {
    const std::vector<double> recorded = ColumnOf(alone, "summary", name);
    if (!recorded.empty() && recorded.front() != value) return false;
  }
  return true;
}

/// Round (tick) durations of one traced unit.
std::vector<double> RoundMs(const TracedUnit& u,
                            const std::vector<Span>& spans) {
  std::vector<double> out;
  for (const int i : u.round_spans) {
    out.push_back(static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                  1e-6);
  }
  return out;
}

/// Mean round time of the last quartile over that of the first quartile.
double DriftRatio(const std::vector<double>& rounds) {
  const size_t q = rounds.size() / 4;
  if (q == 0) return 1.0;
  double early = 0.0, late = 0.0;
  for (size_t i = 0; i < q; ++i) {
    early += rounds[i];
    late += rounds[rounds.size() - q + i];
  }
  return early > 0 ? late / early : 1.0;
}

/// The quantile of a sorted sample (nearest rank).
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t i = static_cast<size_t>(
      std::min<double>(static_cast<double>(sorted.size() - 1),
                       std::floor(q * static_cast<double>(sorted.size()))));
  return sorted[i];
}

Outcome RunTraced(const Workload& w, double seconds,
                  const std::string& spans_out) {
  Outcome o;
  const int par = ParallelThreads();
  auto& m = o.metrics;

  SpanRecorder rec;
  std::vector<double> parse_ms, validate_ms, sink_ms, speedup;
  std::vector<double> untraced_unit_s, traced_unit_s, coverage;
  std::vector<std::vector<double>> drift;  // [experiment][pass]
  std::vector<double> round_ms;
  double output_bytes = 0.0;
  int units = 0;
  int64_t matched = 0;
  // Exact counts from the first traced pass.
  int64_t joins = 0, leaves = 0, host_rounds = 0, sent = 0, inflight = 0;
  // Totals over every traced unit of every pass.
  struct Acc {
    int64_t agg_host_rounds = 0, stream_host_rounds = 0, all_host_rounds = 0;
    int64_t plan_slots = 0, agg_plan_ns = 0, stream_plan_ns = 0;
    int64_t sent = 0, delivered = 0, membership_rounds = 0;
    int64_t agg_units = 0, stream_units = 0, units = 0;
    double agg_state = 0.0, stream_state = 0.0;
    int64_t unit_ns = 0;
    std::map<std::string, NameTotals> names;
  } acc;

  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t pass_ns = 0;  // the last pass's length
  for (int pass = 0; pass < 1 || NowNs() + pass_ns <= deadline; ++pass) {
    const int64_t pass_start = NowNs();
    // Untraced whole-workload passes: the scenario layer and the executor.
    Pass one = RunPass(w, 1);
    Pass many = RunPass(w, par);
    o.attempted += one.units + many.units;
    o.failed += one.failed_units + many.failed_units;
    for (const std::string& e : one.errors) o.violations.push_back(e);
    for (const std::string& e : many.errors) o.violations.push_back(e);
    if (one.failed_units == 0 && many.failed_units == 0 &&
        one.output != many.output) {
      Violation(&o, "output differs between 1 and " + std::to_string(par) +
                        " executor threads");
    }
    parse_ms.push_back(one.parse_ns * 1e-6);
    validate_ms.push_back(one.validate_ns * 1e-6);
    sink_ms.push_back(one.sink_ns * 1e-6);
    speedup.push_back(static_cast<double>(one.total_ns) /
                      static_cast<double>(std::max<int64_t>(1, many.total_ns)));
    output_bytes = static_cast<double>(one.output.size());
    units = one.units;
    if (one.failed_units > 0) continue;

    double untraced_s = 0.0, traced_s = 0.0;
    drift.resize(one.specs.size());
    for (size_t e = 0; e < one.specs.size(); ++e) {
      const sc::ScenarioSpec& spec = one.specs[e];
      // The same unit untraced, through the executor: the baseline for
      // the tracing overhead and a second witness for the rms series.
      Result<sc::ScenarioSpec> unit_spec = FirstUnitSpec(spec);
      ++o.attempted;
      if (!unit_spec.ok()) {
        Violation(&o, unit_spec.status().ToString());
        continue;
      }
      // Alternate which of the two runs first, so neither always pays
      // for a cold allocator.
      Result<std::vector<sc::ResultTable>> unit_tables =
          Status::FailedPrecondition("not run");
      const auto run_untraced = [&] {
        const int64_t u0 = NowNs();
        unit_tables = sc::RunExperiment(unit_spec.value(), 1);
        untraced_s += Seconds(NowNs() - u0);
      };
      Result<TracedUnit> traced = Status::FailedPrecondition("not run");
      const auto run_traced = [&] {
        rec.Clear();
        traced = RunTracedUnit(spec, rec);
      };
      ++o.attempted;
      if (pass % 2 == 0) {
        run_untraced();
        run_traced();
      } else {
        run_traced();
        run_untraced();
      }
      if (!unit_tables.ok()) {
        Violation(&o, spec.name + ": " + unit_tables.status().ToString());
        continue;
      }
      if (!traced.ok()) {
        Violation(&o, spec.name + " traced: " + traced.status().ToString());
        continue;
      }
      const TracedUnit& u = traced.value();
      const std::vector<Span>& spans = rec.spans();
      const int64_t unit_ns =
          spans[u.unit_span].end_ns - spans[u.unit_span].start_ns;
      traced_s += Seconds(unit_ns);

      if (SameComputation(u, unit_tables.value(), one.tables[e])) {
        ++matched;
      } else {
        Violation(&o, spec.name +
                          ": the traced unit differs from the untraced run");
      }

      const std::vector<int64_t> self = SelfTimes(spans);
      int64_t harness_ns = 0;  // the benchmark's own loop, not a layer
      for (size_t i = 0; i < spans.size(); ++i) {
        const std::string name = spans[i].name;
        if (name == "bench.unit" || name == "sim.round") harness_ns += self[i];
      }
      coverage.push_back(100.0 * (1.0 - static_cast<double>(harness_ns) /
                                            static_cast<double>(unit_ns)));
      const std::vector<double> rounds = RoundMs(u, spans);
      round_ms.insert(round_ms.end(), rounds.begin(), rounds.end());
      drift[e].push_back(DriftRatio(rounds));

      const std::map<std::string, NameTotals> totals = TotalsByName(spans);
      for (const auto& [name, t] : totals) {
        NameTotals& a = acc.names[name];
        a.total_ns += t.total_ns;
        a.count += t.count;
      }
      const int64_t plan_ns =
          totals.count("env.plan") ? totals.at("env.plan").total_ns : 0;
      if (u.stream) {
        acc.stream_host_rounds += u.host_rounds;
        acc.stream_plan_ns += plan_ns;
        acc.stream_state += u.state_bytes;
        ++acc.stream_units;
      } else {
        if (!u.async) {
          acc.agg_host_rounds += u.host_rounds;
          acc.agg_plan_ns += plan_ns;
        }
        acc.agg_state += u.state_bytes;
        ++acc.agg_units;
      }
      acc.all_host_rounds += u.host_rounds;
      acc.plan_slots += u.plan_slots;
      acc.sent += u.messages_sent;
      acc.delivered += u.messages_delivered;
      acc.membership_rounds += u.membership_rounds;
      acc.unit_ns += unit_ns;
      ++acc.units;
      if (pass == 0) {
        joins += u.joins;
        leaves += u.leaves;
        host_rounds += u.host_rounds;
        sent += u.messages_sent;
        inflight = std::max(inflight, u.inflight_peak);
        if (!spans_out.empty()) {
          const std::string path = spans_out + "." + std::to_string(e) +
                                   ".json";
          if (!WriteSpansJson(spans, path)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
          }
        }
      }
    }
    untraced_unit_s.push_back(untraced_s);
    traced_unit_s.push_back(traced_s);
    pass_ns = NowNs() - pass_start;
  }

  const HostProbe probe = ProbeHost(par);  // last, as in RunEndToEnd
  PrintProbe(probe);
  m["host.nproc"] = probe.nproc;
  m["host.affinity_cpus"] = probe.affinity_cpus;
  m["host.effective_cores"] = probe.effective_cores;
  m["host.mem_bw_gbs"] = probe.mem_bw_gbs;
  m["host.llc_bytes"] = static_cast<double>(probe.llc_bytes);
  m["host.triad_bytes"] = static_cast<double>(probe.triad_bytes);
  const auto total = [&](const char* name) -> double {
    const auto it = acc.names.find(name);
    return it == acc.names.end() ? 0.0
                                 : static_cast<double>(it->second.total_ns);
  };
  const auto per = [](double ns, double count) {
    return count > 0 ? ns / count : 0.0;
  };
  const double units_traced = static_cast<double>(acc.units);
  m["scenario.parse_ms"] = Median(parse_ms);
  m["scenario.validate_ms"] = Median(validate_ms);
  m["scenario.sink_ms"] = Median(sink_ms);
  m["scenario.output_bytes"] = output_bytes;
  m["executor.units"] = units;
  m["executor.threads"] = par;
  m["executor.speedup"] = Median(speedup);
  m["env.build_ms"] = per(total("env.build"), units_traced) * 1e-6;
  m["env.plan_ns_per_slot"] =
      per(total("env.plan"), static_cast<double>(acc.plan_slots));
  m["agg.swarm_build_ms"] =
      per(total("agg.swarm_build"), static_cast<double>(acc.agg_units)) *
      1e-6;
  const double agg_rounds = static_cast<double>(acc.agg_host_rounds);
  const double apply_ns =
      std::max(0.0, total("agg.round") - static_cast<double>(acc.agg_plan_ns));
  m["agg.round_ns_per_host_round"] = per(total("agg.round"), agg_rounds);
  m["agg.apply_ns_per_host_round"] = per(apply_ns, agg_rounds);
  const double state =
      per(acc.agg_state, static_cast<double>(acc.agg_units));
  // Computed, not measured: each round reads and writes every host's
  // declared state once and writes and reads one 4-byte partner id.
  const double bytes_per_host_round = state > 0 ? 2.0 * state + 8.0 : 0.0;
  m["agg.state_bytes_per_host"] = state;
  m["agg.bytes_per_host_round"] = bytes_per_host_round;
  m["agg.bw_fraction"] =
      apply_ns > 0 && probe.mem_bw_gbs > 0
          ? bytes_per_host_round * agg_rounds / apply_ns / probe.mem_bw_gbs
          : 0.0;
  m["sim.record_ns_per_host_round"] =
      per(total("sim.record"), static_cast<double>(acc.all_host_rounds));
  m["sim.record_share"] =
      per(total("sim.record"), static_cast<double>(acc.unit_ns));
  m["sim.membership_ms_per_round"] =
      per(total("sim.membership") + total("sim.failure_build") +
              total("sim.churn_build"),
          static_cast<double>(acc.membership_rounds)) *
      1e-6;
  m["sim.joins"] = static_cast<double>(joins);
  m["sim.leaves"] = static_cast<double>(leaves);
  m["sim.host_rounds"] = static_cast<double>(host_rounds);
  const double stream_apply_ns = std::max(
      0.0, total("stream.round") - static_cast<double>(acc.stream_plan_ns));
  m["stream.round_ns_per_host_round"] =
      per(total("stream.round"), static_cast<double>(acc.stream_host_rounds));
  m["stream.record_ms"] =
      per(total("stream.record"), static_cast<double>(acc.stream_units)) *
      1e-6;
  m["stream.sketch_bytes_per_host"] =
      per(acc.stream_state, static_cast<double>(acc.stream_units));
  const double msgs = static_cast<double>(acc.sent);
  const double delivered = static_cast<double>(acc.delivered);
  m["net.tick_ns_per_msg"] = per(total("net.tick"), msgs);
  m["net.decide_ns_per_msg"] = per(total("net.decide"), msgs);
  m["net.queue_ns_per_msg"] = per(total("net.queue"), delivered);
  m["net.deliver_ns_per_msg"] = per(total("net.deliver"), delivered);
  m["net.delivery_ratio"] = msgs > 0 ? delivered / msgs : 0.0;
  m["net.inflight_peak"] = static_cast<double>(inflight);
  m["net.messages_sent"] = static_cast<double>(sent);
  if (w.net_loss > 0.0 &&
      std::abs(m["net.delivery_ratio"] - (1.0 - w.net_loss)) >
          w.delivery_tol) {
    Violation(&o, "traced delivery ratio outside its tolerance");
  }

  // Round times: median and the highest percentile with at least ten
  // samples beyond it (capped at p90).
  std::sort(round_ms.begin(), round_ms.end());
  const double n_rounds = static_cast<double>(round_ms.size());
  const double tail_q = std::max(0.5, std::min(0.9, 1.0 - 10.0 / n_rounds));
  m["round.p50_ms"] = Quantile(round_ms, 0.5);
  m["round.p90_ms"] = Quantile(round_ms, tail_q);
  m["round.tail_pct"] = 100.0 * tail_q;
  m["round.samples"] = n_rounds;
  double worst_drift = 0.0;
  for (const auto& per_pass : drift) {
    if (!per_pass.empty()) worst_drift = std::max(worst_drift, Median(per_pass));
  }
  constexpr double kDriftLimit = 1.25;
  m["round.drift_ratio"] = worst_drift;
  m["round.drift_flag"] = worst_drift > kDriftLimit ? 1.0 : 0.0;

  // Where the unit's time went, by phase.
  const double setup =
      total("scenario.validate_async") + total("env.build") +
      total("agg.swarm_build") + total("stream.swarm_build") +
      total("sim.setup") + total("sim.failure_build") +
      total("sim.churn_build") + total("agg.teardown") +
      total("stream.teardown") + total("env.teardown");
  const double membership = total("sim.membership");
  const double plan = total("env.plan");
  const double apply = apply_ns + stream_apply_ns;
  const double record = total("sim.record") + total("stream.record") +
                        total("agg.finish");
  const double net = total("net.tick") + total("net.decide") +
                     total("net.queue") + total("net.deliver");
  const double phases = setup + membership + plan + apply + record + net;
  const auto pct = [&](double x) { return phases > 0 ? 100.0 * x / phases : 0.0; };
  m["split.setup_pct"] = pct(setup);
  m["split.membership_pct"] = pct(membership);
  m["split.plan_pct"] = pct(plan);
  m["split.apply_pct"] = pct(apply);
  m["split.record_pct"] = pct(record);
  m["split.net_pct"] = pct(net);

  const double untraced = Median(untraced_unit_s);
  m["obs.trace_overhead_pct"] =
      untraced > 0 ? 100.0 * (Median(traced_unit_s) - untraced) / untraced
                   : 0.0;
  m["obs.layer_coverage_pct"] =
      coverage.empty() ? 0.0
                       : *std::min_element(coverage.begin(), coverage.end());
  m["check.traced_units_matched"] = static_cast<double>(matched);

  // The workload design, checked against the split; a mismatch is a
  // finding to report, not a failed operation.
  const std::vector<std::pair<const char*, double>> by_phase = {
      {"setup", setup}, {"membership", membership}, {"plan", plan},
      {"apply", apply}, {"record", record},         {"net", net}};
  const auto largest = std::max_element(
      by_phase.begin(), by_phase.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  if (phases > 0 && w.largest_phase != largest->first) {
    std::printf("finding: %s is the largest phase on %s, expected %s\n",
                largest->first, w.name.c_str(), w.largest_phase.c_str());
  }
  if ((membership > 0) != w.membership) {
    std::printf("finding: membership time is %s on %s\n",
                membership > 0 ? "non-zero" : "zero", w.name.c_str());
  }
  if ((net > 0) != (w.net_loss > 0)) {
    std::printf("finding: net time is %s on %s\n",
                net > 0 ? "non-zero" : "zero", w.name.c_str());
  }

  std::printf("traced: %zu passes, %lld units; round samples %.0f\n",
              untraced_unit_s.size(), static_cast<long long>(acc.units),
              n_rounds);
  if (worst_drift > kDriftLimit) {
    std::printf(
        "finding: per-round cost grows with run length on %s "
        "(round.drift_ratio %.2f > %.2f)\n",
        w.name.c_str(), worst_drift, kDriftLimit);
  }
  return o;
}

// ------------------------------------------------------------- modes ---

int ValidateOnly(uint64_t seed) {
  int bad = 0;
  for (const std::string& name : WorkloadNames()) {
    const int64_t start = NowNs();
    Result<Workload> w = MakeWorkload(name, seed);
    Result<std::vector<sc::ScenarioSpec>> specs =
        w.ok() ? ParseAndValidate(w.value())
               : Result<std::vector<sc::ScenarioSpec>>(w.status());
    if (!specs.ok()) {
      std::printf("%s: INVALID %s\n", name.c_str(),
                  specs.status().ToString().c_str());
      ++bad;
      continue;
    }
    int units = 0;
    for (const sc::ScenarioSpec& s : specs.value()) units += UnitsOf(s);
    std::printf("%s: ok, %zu experiments, %d units (%.1f ms)\n", name.c_str(),
                specs.value().size(), units, Seconds(NowNs() - start) * 1e3);
  }
  return bad == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out PATH]\n"
               "       e2ebench --validate-only [--seed N]\n"
               "       e2ebench --print-spec --workload NAME [--seed N]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, spans_out;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool validate_only = false, print_spec = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--validate-only") {
      validate_only = true;
    } else if (a == "--print-spec") {
      print_spec = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (validate_only) return ValidateOnly(seed);
  if (workload.empty() || !(seconds > 0) || (trace != 0 && trace != 1)) {
    return Usage();
  }
  Result<Workload> w = MakeWorkload(workload, seed);
  if (!w.ok()) {
    std::fprintf(stderr, "%s\n", w.status().ToString().c_str());
    return 2;
  }
  if (print_spec) {
    std::fputs(w.value().spec_text.c_str(), stdout);
    return 0;
  }
  // Every spec must pass validation before anything is timed.
  Result<std::vector<sc::ScenarioSpec>> specs = ParseAndValidate(w.value());
  if (!specs.ok()) {
    std::fprintf(stderr, "%s: %s\n", workload.c_str(),
                 specs.status().ToString().c_str());
    return 1;
  }
  std::printf("workload %s (seed %llu)\n", workload.c_str(),
              static_cast<unsigned long long>(seed));
  Outcome o = trace == 0 ? RunEndToEnd(w.value(), seconds)
                         : RunTraced(w.value(), seconds, spans_out);
  const std::vector<MetricDef>& catalog =
      trace == 0 ? EndToEndMetrics() : PerLayerMetrics();
  for (const MetricDef& d : catalog) {
    const auto it = o.metrics.find(d.name);
    if (it != o.metrics.end()) {
      std::printf("%-32s %16.6g %s\n", d.name, it->second, d.unit);
    }
  }
  for (const std::string& v : o.violations) {
    std::printf("violation: %s\n", v.c_str());
  }
  std::printf("failed operations: %lld of %lld (%.3g%%)\n",
              static_cast<long long>(o.failed),
              static_cast<long long>(o.attempted),
              o.attempted > 0 ? 100.0 * static_cast<double>(o.failed) /
                                    static_cast<double>(o.attempted)
                              : 0.0);
  std::string json, error;
  if (!ResultJson(catalog, o.metrics, o.failed == 0, o.attempted, o.failed,
                  &json, &error)) {
    std::fprintf(stderr, "result refused: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
