// Tests for src/telemetry: the host-side self-profiler must never perturb
// the simulation (virtual end time and every observer-derived document are
// byte-identical whether telemetry is off, on, or absent), its TELEMETRY
// JSON must be deterministic once wall-clock fields are scrubbed, and the
// sample-ring / tally mechanics must hold up under wraparound.

#include "src/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/apps/fdr/fdr_report.h"
#include "src/core/amber.h"
#include "src/fault/fault.h"
#include "src/fdr/fdr.h"
#include "src/metrics/metrics.h"
#include "src/prof/profiler.h"

namespace telemetry {
namespace {

using namespace amber;

class Pokee : public Object {
 public:
  int Poke() {
    Work(kMicrosecond * 50);
    return ++pokes_;
  }

 private:
  int pokes_ = 0;
};

class Monitored : public Object {
 public:
  void Bump() {
    lock_.Acquire();
    Work(kMillisecond * 2);
    ++value_;
    lock_.Release();
  }

 private:
  Lock lock_;
  int value_ = 0;
};

struct ScenarioOutputs {
  Time end = 0;
  std::string metrics_json;
  std::string prof_json;
  std::string fdr_json;
};

// The metrics_test scenario (remote invocations, a contended lock, an object
// move) with every observer attached, optionally self-profiled. Returns all
// three observer-derived documents for byte comparison.
ScenarioOutputs RunScenario(SelfProfiler* prof) {
  Runtime::Config c;
  c.nodes = 2;
  c.procs_per_node = 2;
  c.arena_bytes = size_t{128} << 20;
  Runtime rt(c);
  metrics::Registry reg;
  fdr::Recorder rec({.name = "telemetry_test"});
  rt.SetMetrics(&reg);
  rec.AttachTo(rt);
  if (prof != nullptr) {
    prof->Enable();
  }
  ScenarioOutputs out;
  rt.Run([&] {
    auto shared = NewOn<Monitored>(1);
    auto t1 = StartThread(shared, &Monitored::Bump);
    auto t2 = StartThread(shared, &Monitored::Bump);
    t1.Join();
    t2.Join();
    auto thing = New<Pokee>();
    MoveTo(thing, 1 - Here());
    thing.Call(&Pokee::Poke);
    out.end = Now();
  });
  if (prof != nullptr) {
    prof->Disable();
  }
  std::ostringstream m;
  reg.WriteJson(m);
  out.metrics_json = m.str();
  prof::ProfileReport report = prof::Profile(rec);
  report.name = "telemetry_test";
  std::ostringstream p;
  report.WriteJson(p);
  out.prof_json = p.str();
  std::ostringstream f;
  rec.WriteDump(f, "explicit", "");
  out.fdr_json = f.str();
  return out;
}

SelfProfiler::Config SmallRingConfig() {
  SelfProfiler::Config cfg;
  cfg.name = "telemetry_test";
  cfg.sample_every_events = 16;  // small enough that the scenario samples
  cfg.ring_capacity = 64;
  return cfg;
}

TEST(TelemetryTest, EnabledProfilerDoesNotPerturbSimulation) {
  const ScenarioOutputs plain = RunScenario(nullptr);
  SelfProfiler prof(SmallRingConfig());
  const ScenarioOutputs profiled = RunScenario(&prof);
  // Same virtual end time and byte-identical metrics / PROF / FDR documents:
  // telemetry reads the host clock only and never touches virtual time.
  EXPECT_EQ(plain.end, profiled.end);
  EXPECT_EQ(plain.metrics_json, profiled.metrics_json);
  EXPECT_EQ(plain.prof_json, profiled.prof_json);
  EXPECT_EQ(plain.fdr_json, profiled.fdr_json);
  // And the profiler did observe the run.
  EXPECT_GT(prof.count(Count::kEvents), 0);
}

TEST(TelemetryTest, ScrubbedJsonIsByteIdenticalAcrossRuns) {
  SelfProfiler a(SmallRingConfig());
  RunScenario(&a);
  SelfProfiler b(SmallRingConfig());
  RunScenario(&b);
  std::ostringstream ja;
  a.WriteJson(ja, /*scrub_wall=*/true);
  std::ostringstream jb;
  b.WriteJson(jb, /*scrub_wall=*/true);
  EXPECT_EQ(ja.str(), jb.str());
  // The scrubbed document still carries the deterministic structure:
  // virtual-time-keyed samples, counts, buckets, node attribution.
  const std::string& doc = ja.str();
  for (const char* key :
       {"\"telemetry\"", "\"schema\"", "\"counts\"", "\"buckets\"", "\"event_loop\"",
        "\"fiber_run\"", "\"observer_fanout\"", "\"net_delivery\"", "\"node_dispatches\"",
        "\"samples\"", "\"virtual_time_ns\"", "\"queue_depth\"", "\"totals\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_GT(a.samples_taken(), 0) << "scenario too small to sample";
}

TEST(TelemetryTest, CountsAndBucketsObserveTheRun) {
  SelfProfiler prof(SmallRingConfig());
  RunScenario(&prof);
  EXPECT_GT(prof.count(Count::kEvents), 0);
  EXPECT_GT(prof.count(Count::kDispatches), 0);
  EXPECT_GT(prof.count(Count::kDescriptorLookups), 0);
  EXPECT_GT(prof.count(Count::kAllocations), 0);
  EXPECT_GT(prof.count(Count::kAllocBytes), prof.count(Count::kAllocations));
  // Every event-loop iteration lands in the umbrella bucket.
  EXPECT_EQ(prof.bucket_calls(Bucket::kEventLoop), prof.count(Count::kEvents));
  EXPECT_GT(prof.bucket_calls(Bucket::kFiberRun), 0);
  // Observers were attached, so the fan-out bucket saw traffic.
  EXPECT_GT(prof.bucket_calls(Bucket::kObserverFanout), 0);
  // Dispatch attribution covers both nodes and sums to the dispatch count.
  int64_t total = 0;
  for (int64_t d : prof.node_dispatches()) {
    total += d;
  }
  EXPECT_EQ(prof.node_dispatches().size(), 2u);
  EXPECT_EQ(total, prof.count(Count::kDispatches));
  EXPECT_GT(prof.EnabledWallNs(), 0);
  EXPECT_GT(prof.EventsPerSec(), 0.0);
}

// The bus has one dispatch, and it times every emission once under
// observer_fanout — scheduler, invocation, rpc, fault and network-message
// events alike. With the flight recorder (which encodes every bus event as
// one record) as the only observer, the bucket's call count must equal the
// recorder's record count.
TEST(TelemetryTest, EveryBusEmissionCountsUnderObserverFanout) {
  Runtime::Config c;
  c.nodes = 2;
  c.procs_per_node = 2;
  c.arena_bytes = size_t{128} << 20;
  Runtime rt(c);
  fault::FaultPlan plan;
  plan.seed = 11;
  fault::LinkRule rule;
  rule.drop = 0.2;
  rule.duplicate = 0.05;
  rule.delay = 0.1;
  rule.delay_min = kMicrosecond * 50;
  rule.delay_max = kMicrosecond * 500;
  plan.links.push_back(rule);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  fdr::Recorder rec({.name = "fanout", .ring_capacity = size_t{1} << 16});
  rec.AttachTo(rt);
  SelfProfiler prof(SmallRingConfig());
  prof.Enable();
  rt.Run([&] {
    auto shared = NewOn<Monitored>(1);
    auto t1 = StartThread(shared, &Monitored::Bump);
    auto t2 = StartThread(shared, &Monitored::Bump);
    t1.Join();
    t2.Join();
    auto thing = New<Pokee>();
    for (int i = 0; i < 8; ++i) {
      MoveTo(thing, 1 - Here());
      thing.Call(&Pokee::Poke);
    }
  });
  prof.Disable();
  std::ostringstream dump;
  rec.WriteDump(dump, "explicit", "");
  ASSERT_EQ(rec.dropped(), 0) << "ring too small to hold the whole run";
  for (const char* type : {"\"type\":\"message\"", "\"type\":\"message_dropped\"",
                           "\"type\":\"message_delayed\"", "\"type\":\"rpc_retry\""}) {
    EXPECT_NE(dump.str().find(type), std::string::npos) << "the run emitted no " << type;
  }
  EXPECT_EQ(prof.bucket_calls(Bucket::kObserverFanout), rec.recorded());
}

TEST(TelemetryTest, SampleRingWrapsKeepingNewestChronologically) {
  SelfProfiler::Config cfg;
  cfg.sample_every_events = 1;
  cfg.ring_capacity = 4;
  SelfProfiler prof(cfg);
  prof.Enable();
  for (int i = 1; i <= 10; ++i) {
    prof.OnEventLoopIteration(/*virtual_now_ns=*/i * 100, /*queue_depth=*/i);
  }
  prof.Disable();
  EXPECT_EQ(prof.samples_taken(), 10);
  const auto samples = prof.SamplesChronological();
  ASSERT_EQ(samples.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(samples[i].virtual_time_ns, (7 + i) * 100);
    EXPECT_EQ(samples[i].events, 7 + i);
    EXPECT_EQ(samples[i].queue_depth, 7 + i);
  }
}

TEST(TelemetryTest, OpenMetricsExposition) {
  SelfProfiler::Config cfg;
  cfg.sample_every_events = 1;
  cfg.ring_capacity = 4;
  SelfProfiler prof(cfg);
  prof.Enable();
  prof.SetNodeCount(2);
  prof.NodeDispatch(0);
  prof.OnEventLoopIteration(/*virtual_now_ns=*/100, /*queue_depth=*/1);
  prof.Disable();
  std::ostringstream out;
  prof.WriteOpenMetrics(out);
  const std::string om = out.str();
  EXPECT_NE(om.find("# TYPE amber_selfprof_count_total counter"), std::string::npos);
  EXPECT_NE(om.find("amber_selfprof_count_total{kind=\"events\"} 1"), std::string::npos);
  EXPECT_NE(om.find("amber_selfprof_bucket_wall_seconds_total{bucket=\"event_loop\"}"),
            std::string::npos);
  EXPECT_NE(om.find("amber_selfprof_node_dispatches_total{node=\"0\"} 1"), std::string::npos);
  EXPECT_EQ(om.rfind("# EOF\n"), om.size() - 6);
}

TEST(TelemetryTest, FlushToWritesParseableJsonAtomically) {
  SelfProfiler::Config cfg;
  cfg.sample_every_events = 1;
  cfg.ring_capacity = 8;
  SelfProfiler prof(cfg);
  prof.Enable();
  for (int i = 1; i <= 5; ++i) {
    prof.OnEventLoopIteration(/*virtual_now_ns=*/i * 10, /*queue_depth=*/0);
  }
  prof.Disable();
  const std::string path = "TELEMETRY_unittest.json";
  ASSERT_TRUE(prof.FlushTo(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  fdrtool::Json doc;
  std::string error;
  ASSERT_TRUE(fdrtool::ParseJson(buf.str(), &doc, &error)) << error;
  EXPECT_EQ(doc.Str("telemetry"), "amber");
  ASSERT_NE(doc.Get("counts"), nullptr);
  EXPECT_EQ(doc.Get("counts")->Int("events"), 5);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(TelemetryTest, DisabledHotPathsAreInertAndSafe) {
  ASSERT_EQ(SelfProfiler::active(), nullptr);
  CountIfActive(Count::kDescriptorLookups);  // no-op, must not crash
  { ScopedWallTimer timer(Bucket::kNetDelivery); }
  // Enable/Disable pairs nest sanely and the destructor detaches.
  {
    SelfProfiler prof(SelfProfiler::Config{});
    prof.Enable();
    EXPECT_EQ(SelfProfiler::active(), &prof);
  }
  EXPECT_EQ(SelfProfiler::active(), nullptr);
}

}  // namespace
}  // namespace telemetry
