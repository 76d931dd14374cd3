// Tests for the causal critical-path profiler (src/prof), profiling whole-run
// flight-recorder logs: exact closure of the attribution (the breakdown sums
// to the end-to-end virtual time), cause classification (lock convoys land on
// the right lock, fault-induced retry waits land in the fault category), the
// placement advisor's hotspot recommendation (and that applying it actually
// shortens the run), byte-determinism of the JSON report, and the refusal of
// a log with drops.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/amber.h"
#include "src/fault/fault.h"
#include "src/fdr/fdr.h"
#include "src/prof/profiler.h"
#include "src/rpc/transport.h"

namespace amber {
namespace {

class Spinner : public Object {
 public:
  int Step() {
    Work(kMicrosecond * 100);
    return ++steps_;
  }

 private:
  int steps_ = 0;
};

class Guarded : public Object {
 public:
  void Update() {
    lock_.Acquire();
    Work(kMillisecond * 2);
    ++value_;
    lock_.Release();
  }
  int value() const { return value_; }

 private:
  Lock lock_;
  int value_ = 0;
};

class Counter : public Object {
 public:
  int Add(int d) {
    Work(kMicrosecond * 50);
    return value_ += d;
  }

 private:
  int value_ = 0;
};

class Driver : public Object {
 public:
  int Run(Ref<Counter> c, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      c.Call(&Counter::Add, 1);
      Work(kMicrosecond * 20);
    }
    return rounds;
  }
};

// Every test profiles a recorder that keeps the whole run.
const fdr::Config kWholeRun{.name = "prof_test", .ring_capacity = SIZE_MAX};

Time Sum(const std::map<std::string, Time>& breakdown) {
  Time sum = 0;
  for (const auto& [cat, ns] : breakdown) {
    sum += ns;
  }
  return sum;
}

// A run with no parallelism: the critical path *is* the run, and every
// nanosecond of it is node-0 compute or queueing.
TEST(ProfilerTest, SerialCriticalPathEqualsTotalVirtualTime) {
  Runtime::Config config;
  config.nodes = 1;
  config.procs_per_node = 1;
  config.arena_bytes = size_t{128} << 20;
  Runtime rt(config);
  fdr::Recorder log(kWholeRun);
  rt.AddObserver(&log);
  const Time end = rt.Run([] {
    auto s = New<Spinner>();
    for (int i = 0; i < 20; ++i) {
      s.Call(&Spinner::Step);
      Work(kMicrosecond * 30);
    }
  });
  prof::ProfileReport report = prof::Profile(log);
  EXPECT_EQ(report.total_ns, end);
  EXPECT_EQ(Sum(report.breakdown), report.total_ns);
  for (const auto& [cat, ns] : report.breakdown) {
    EXPECT_TRUE(cat == "compute.node0" || cat == "queue.node0")
        << "serial run attributed time to " << cat;
  }
  // Dominated by compute.
  ASSERT_TRUE(report.breakdown.count("compute.node0"));
  EXPECT_GT(report.breakdown["compute.node0"], report.total_ns / 2);
  EXPECT_TRUE(report.advice.empty());
}

// Closure holds on a genuinely parallel multi-node run with migrations,
// remote invocations and joins.
TEST(ProfilerTest, BreakdownClosesExactlyOnParallelRun) {
  Runtime::Config config;
  config.nodes = 4;
  config.procs_per_node = 2;
  config.arena_bytes = size_t{256} << 20;
  Runtime rt(config);
  fdr::Recorder log(kWholeRun);
  rt.AddObserver(&log);
  rt.Run([] {
    std::vector<Ref<Spinner>> spinners;
    for (NodeId n = 0; n < 4; ++n) {
      spinners.push_back(NewOn<Spinner>(n));
    }
    std::vector<ThreadRef<int>> ts;
    for (auto& s : spinners) {
      ts.push_back(StartThread(s, &Spinner::Step));
    }
    for (auto& t : ts) {
      t.Join();
    }
    for (auto& s : spinners) {
      s.Call(&Spinner::Step);  // main migrates around the machine
    }
  });
  prof::ProfileReport report = prof::Profile(log);
  EXPECT_GT(report.total_ns, 0);
  EXPECT_EQ(Sum(report.breakdown), report.total_ns);
  EXPECT_FALSE(report.critical_path.empty());
  // The path steps are the breakdown, unaggregated.
  Time step_sum = 0;
  for (const auto& s : report.critical_path) {
    step_sum += s.ns;
  }
  EXPECT_EQ(step_sum, report.total_ns);
}

// A two-thread lock convoy on one node: the second thread's wait for the
// first one's critical section is on the critical path, attributed to that
// lock (not to compute or the network).
TEST(ProfilerTest, LockConvoyAttributesContentionToTheLock) {
  Runtime::Config config;
  config.nodes = 1;
  config.procs_per_node = 2;
  config.arena_bytes = size_t{128} << 20;
  Runtime rt(config);
  fdr::Recorder log(kWholeRun);
  rt.AddObserver(&log);
  rt.Run([] {
    auto g = New<Guarded>();
    auto t1 = StartThread(g, &Guarded::Update);
    auto t2 = StartThread(g, &Guarded::Update);
    t1.Join();
    t2.Join();
    EXPECT_EQ(g.Call(&Guarded::value), 2);
  });
  prof::ProfileReport report = prof::Profile(log);
  EXPECT_EQ(Sum(report.breakdown), report.total_ns);

  // Exactly one lock saw contention: Guarded's member lock.
  ASSERT_EQ(report.locks.size(), 1u);
  const prof::LockProfile& lock = report.locks[0];
  EXPECT_EQ(lock.acquisitions, 1);  // one *contended* acquisition
  EXPECT_GE(lock.wait_ns, kMillisecond / 2);
  EXPECT_GE(lock.hold_ns, 2 * kMillisecond);

  // That wait sits on the critical path, labelled with the same lock id.
  const std::string cat = "lock." + std::to_string(lock.id);
  ASSERT_TRUE(report.breakdown.count(cat)) << "no " << cat << " on the critical path";
  EXPECT_GE(report.breakdown[cat], kMillisecond / 2);
  EXPECT_EQ(report.breakdown[cat], lock.critical_path_ns);

  // And the advisor points at it.
  bool lock_advice = false;
  for (const auto& a : report.advice) {
    lock_advice |= a.kind == "lock" && a.target == lock.id;
  }
  EXPECT_TRUE(lock_advice);
}

// A crash/restart outage under the kRetry failure handler: the thread's
// backoff across the outage is the fault's fault, and the profiler says so.
TEST(ProfilerTest, FaultRunAttributesRetryBackoffToFaultCategory) {
  Runtime::Config config;
  config.nodes = 2;
  config.procs_per_node = 1;
  config.arena_bytes = size_t{128} << 20;
  Runtime rt(config);
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 1;
  ev.crash_at = Millis(10);
  ev.restart_at = Millis(60);
  plan.node_events.push_back(ev);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  // Short retransmission budget so the failure handler (backoff) carries the
  // thread across the outage.
  rpc::RetryPolicy policy;
  policy.timeout = Millis(2);
  policy.timeout_cap = Millis(8);
  policy.max_attempts = 3;
  rt.transport().SetRetryPolicy(policy);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  fdr::Recorder log(kWholeRun);
  rt.AddObserver(&log);
  int final_value = 0;
  rt.Run([&] {
    auto c = New<Counter>();
    ASSERT_EQ(MoveTo(c, 1), Status::kOk);  // parked on the node about to die
    Work(Millis(12));                      // let the crash land
    final_value = c.Call(&Counter::Add, 1);  // blocks across the outage
  });
  EXPECT_EQ(final_value, 1);
  EXPECT_EQ(injector.crashes(), 1);

  prof::ProfileReport report = prof::Profile(log);
  EXPECT_EQ(Sum(report.breakdown), report.total_ns);
  ASSERT_TRUE(report.breakdown.count("fault"))
      << "no fault-attributed time on the critical path";
  // The outage spans ~50 ms of the run; a healthy chunk of the wait (the
  // timeout episodes and handler backoff) must be charged to the fault, not
  // to the network or the serving node.
  EXPECT_GE(report.breakdown["fault"], Millis(10));
}

// The placement advisor: an object living on node 0 whose invocations come
// almost entirely from node 2 gets a MoveTo(2) as the top recommendation —
// and applying that recommendation really does shorten the run.
TEST(ProfilerTest, AdvisorRecommendsMovingHotspotAndMoveHelps) {
  auto run = [](bool moved, prof::ProfileReport* report) {
    Runtime::Config config;
    config.nodes = 4;
    config.procs_per_node = 2;
    config.arena_bytes = size_t{128} << 20;
    Runtime rt(config);
    fdr::Recorder log(kWholeRun);
    rt.AddObserver(&log);
    const Time end = rt.Run([&] {
      auto counter = New<Counter>();  // lives on node 0
      auto driver = NewOn<Driver>(2);
      counter.Call(&Counter::Add, 1);  // one local call from node 0
      if (moved) {
        MoveTo(counter, 2);
      }
      auto t = StartThread(driver, &Driver::Run, counter, 16);
      t.Join();
    });
    if (report != nullptr) {
      *report = prof::Profile(log);
    }
    return end;
  };

  prof::ProfileReport report;
  const Time before = run(/*moved=*/false, &report);
  EXPECT_EQ(Sum(report.breakdown), report.total_ns);
  ASSERT_FALSE(report.advice.empty());
  const prof::Advice& top = report.advice[0];
  EXPECT_EQ(top.kind, "move");
  EXPECT_EQ(top.to, 2);
  EXPECT_NE(top.label.find("Counter"), std::string::npos)
      << "top advice targets " << top.label;
  EXPECT_GT(top.est_saving_ns, 0);

  const Time after = run(/*moved=*/true, nullptr);
  EXPECT_LT(after, before) << "applying the recommended MoveTo did not help";
}

// Same seed, same run, same bytes: the JSON report is deterministic.
TEST(ProfilerTest, WriteJsonIsByteIdenticalAcrossRuns) {
  auto once = [] {
    Runtime::Config config;
    config.nodes = 4;
    config.procs_per_node = 2;
    config.arena_bytes = size_t{128} << 20;
    Runtime rt(config);
    fdr::Recorder log(kWholeRun);
    rt.AddObserver(&log);
    rt.Run([] {
      auto g = New<Guarded>();
      MoveTo(g, 1);
      auto counter = NewOn<Counter>(3);
      auto t1 = StartThread(g, &Guarded::Update);
      auto t2 = StartThread(g, &Guarded::Update);
      counter.Call(&Counter::Add, 7);
      t1.Join();
      t2.Join();
    });
    prof::ProfileReport report = prof::Profile(log);
    report.name = "determinism";
    std::ostringstream out;
    report.WriteJson(out);
    return out.str();
  };
  const std::string a = once();
  const std::string b = once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// Profiling is a pure function of the log: profiling it twice gives the
// same bytes.
TEST(ProfilerTest, ProfilingOneLogTwiceIsByteIdentical) {
  Runtime::Config config;
  config.nodes = 2;
  config.procs_per_node = 2;
  config.arena_bytes = size_t{128} << 20;
  Runtime rt(config);
  fdr::Recorder log(kWholeRun);
  rt.AddObserver(&log);
  rt.Run([] {
    auto g = NewOn<Guarded>(1);
    auto t1 = StartThread(g, &Guarded::Update);
    auto t2 = StartThread(g, &Guarded::Update);
    t1.Join();
    t2.Join();
  });
  std::ostringstream a;
  prof::Profile(log).WriteJson(a);
  std::ostringstream b;
  prof::Profile(log).WriteJson(b);
  EXPECT_FALSE(a.str().empty());
  EXPECT_EQ(a.str(), b.str());
}

// A log that dropped records is a partial run: Profile refuses it.
TEST(ProfilerDeathTest, RefusesALogWithDrops) {
  Runtime::Config config;
  config.nodes = 1;
  config.procs_per_node = 1;
  config.arena_bytes = size_t{128} << 20;
  Runtime rt(config);
  fdr::Recorder log({.name = "windowed", .ring_capacity = 4});
  rt.AddObserver(&log);
  rt.Run([] {
    auto s = New<Spinner>();
    for (int i = 0; i < 4; ++i) {
      s.Call(&Spinner::Step);
    }
  });
  ASSERT_GT(log.dropped(), 0);
  EXPECT_DEATH(prof::Profile(log), "dropped .* records");
}

}  // namespace
}  // namespace amber
