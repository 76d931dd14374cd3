// bench_hotspot: the adaptive-placement headline — can the *online* policy
// recover what the *offline* advisor promises?
//
// The workload is the amber-prof hotspot demo promoted to a gated bench: a
// Counter object created on node 0 (warmed with a few local calls) that a
// Driver thread on node 2 then invokes 64 times. With static placement
// every call ships the driver thread to node 0 and back; the PR-3 advisor's
// top advice is MoveTo(node 2) with an estimated saving.
//
// Two runs, same seed:
//   off  the policy attached in observe-only mode (heat tracked, no pulls)
//        and profiled from its whole-run log — yields the advisor's estimate;
//   on   the policy enabled — the first few remote invocations build heat
//        on node 2 until it dominates the decayed node-0 warmup, then a
//        single pull migrates the Counter to its callers. Hysteresis
//        (min_heat, improvement_ratio, cooldown, budget) must hold the
//        total migration count to O(1).
//
// The binary exits nonzero unless the online win is at least 80% of the
// advisor's estimated saving with a bounded migration count — the
// acceptance criterion this PR is gated on (docs/PLACEMENT.md). CI also
// runs it twice and byte-compares BENCH_hotspot.json (determinism), and
// the JSON is gated against bench/baselines/BENCH_hotspot.json.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/amber.h"
#include "src/fdr/fdr.h"
#include "src/metrics/metrics.h"
#include "src/policy/policy.h"
#include "src/prof/profiler.h"

namespace {

using amber::kMicrosecond;
using amber::Ref;
using amber::Time;

constexpr int kNodes = 4;
constexpr int kProcs = 2;
constexpr int kWarmupCalls = 4;
constexpr int kRounds = 64;

class Counter : public amber::Object {
 public:
  int Bump() {
    amber::Work(kMicrosecond * 50);
    return ++value_;
  }

 private:
  int value_ = 0;
};

class Driver : public amber::Object {
 public:
  int Run(Ref<Counter> c, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      c.Call(&Counter::Bump);
      amber::Work(kMicrosecond * 20);
    }
    return rounds;
  }
};

struct RunResult {
  Time end = 0;
  Time advisor_saving_ns = 0;  // off-run only
  int64_t migrations = 0;      // on-run only (policy pulls issued)
};

RunResult RunWorkload(bool policy_on, metrics::Registry* registry) {
  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = kProcs;
  config.arena_bytes = size_t{128} << 20;
  amber::Runtime rt(config);
  if (registry != nullptr) {
    rt.SetMetrics(registry);
  }
  fdr::Recorder log({.name = "hotspot", .ring_capacity = SIZE_MAX});
  rt.AddObserver(&log);
  policy::PolicyConfig pc;
  pc.enabled = policy_on;
  policy::PlacementPolicy policy(pc);
  policy.AttachTo(rt);
  RunResult r;
  r.end = rt.Run([&] {
    auto counter = amber::New<Counter>();  // lives on node 0
    auto driver = amber::NewOn<Driver>(2);
    for (int i = 0; i < kWarmupCalls; ++i) {
      counter.Call(&Counter::Bump);  // a few local calls defend node 0
    }
    auto t = amber::StartThread(driver, &Driver::Run, counter, kRounds);
    t.Join();
  });
  if (!policy_on) {
    const prof::ProfileReport report = prof::Profile(log);
    for (const prof::Advice& a : report.advice) {
      if (a.kind == "move") {
        r.advisor_saving_ns = a.est_saving_ns;
        break;  // advice is ranked best-first
      }
    }
  }
  r.migrations = policy.pulls_granted();
  return r;
}

}  // namespace

int main() {
  std::printf("hotspot: %d nodes x %d procs, %d warmup calls on node 0, %d remote rounds\n\n",
              kNodes, kProcs, kWarmupCalls, kRounds);

  const RunResult off = RunWorkload(/*policy_on=*/false, nullptr);
  metrics::Registry registry;
  const RunResult on = RunWorkload(/*policy_on=*/true, &registry);

  const Time win = off.end - on.end;
  const double recovered =
      off.advisor_saving_ns > 0
          ? static_cast<double>(win) / static_cast<double>(off.advisor_saving_ns)
          : 0.0;

  benchutil::Table table({"configuration", "virtual time (ms)", "policy migrations"});
  table.AddRow({"static placement (policy off)", benchutil::Fmt("%.3f", amber::ToMillis(off.end)),
                "0"});
  table.AddRow({"online adaptive (policy on)", benchutil::Fmt("%.3f", amber::ToMillis(on.end)),
                std::to_string(on.migrations)});
  table.Print();
  std::printf(
      "\nadvisor estimated saving: %.3f ms; online win: %.3f ms (%.0f%% of the estimate)\n",
      amber::ToMillis(off.advisor_saving_ns), amber::ToMillis(win), recovered * 100.0);

  benchutil::BenchJson json("hotspot");
  json.Config("nodes", int64_t{kNodes});
  json.Config("procs_per_node", int64_t{kProcs});
  json.Config("warmup_calls", int64_t{kWarmupCalls});
  json.Config("rounds", int64_t{kRounds});
  registry.GetGauge("hotspot.virtual_time_off_ns").Set(static_cast<double>(off.end));
  registry.GetGauge("hotspot.virtual_time_on_ns").Set(static_cast<double>(on.end));
  registry.GetGauge("hotspot.advisor_est_saving_ns")
      .Set(static_cast<double>(off.advisor_saving_ns));
  registry.GetGauge("hotspot.win_ns").Set(static_cast<double>(win));
  registry.GetGauge("hotspot.policy_migrations").Set(static_cast<double>(on.migrations));
  json.Write(on.end, &registry);
  std::printf("wrote BENCH_hotspot.json\n");

  if (on.migrations < 1) {
    std::printf("ERROR: the enabled policy issued no migrations\n");
    return 1;
  }
  if (on.migrations > 4) {
    std::printf("ERROR: %lld policy migrations — oscillation (expected O(1))\n",
                static_cast<long long>(on.migrations));
    return 1;
  }
  if (recovered < 0.8) {
    std::printf("ERROR: online policy recovered only %.0f%% of the advisor's estimate "
                "(need >= 80%%)\n",
                recovered * 100.0);
    return 1;
  }
  return 0;
}
