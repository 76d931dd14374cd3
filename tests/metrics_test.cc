// Tests for the metrics registry: percentile math, registry lookups,
// runtime core metrics, JSON determinism, and the registry-backed cluster
// report sections.

#include "src/metrics/metrics.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/amber.h"
#include "src/core/cluster_report.h"

namespace metrics {
namespace {

using namespace amber;

TEST(HistogramTest, PercentileMath) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);  // 1..100
  }
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_NEAR(h.Percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.Percentile(90), 90.0, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(HistogramTest, SummaryExtractsTailPercentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i);  // 1..1000: enough samples for p999 to resolve the tail
  }
  const PercentileSummary s = h.Summary();
  EXPECT_DOUBLE_EQ(s.p50, h.Percentile(50));
  EXPECT_DOUBLE_EQ(s.p90, h.Percentile(90));
  EXPECT_DOUBLE_EQ(s.p99, h.Percentile(99));
  EXPECT_DOUBLE_EQ(s.p999, h.Percentile(99.9));
  EXPECT_NEAR(s.p50, 500.0, 1.0);
  EXPECT_NEAR(s.p99, 990.0, 1.0);
  EXPECT_NEAR(s.p999, 999.0, 1.0);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, h.max());
}

TEST(HistogramTest, SummaryAppearsInJson) {
  Registry reg;
  reg.GetHistogram("h").Record(1.0);
  std::ostringstream out;
  reg.WriteJson(out);
  EXPECT_NE(out.str().find("\"p999\""), std::string::npos);
}

TEST(HistogramTest, EmptyHistogramIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
  const PercentileSummary s = h.Summary();
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p999, 0.0);
}

TEST(HistogramTest, BucketOfClampsToTheBucketRange) {
  EXPECT_EQ(Histogram::BucketOf(1e30), 63);  // beyond uint64_t
  EXPECT_EQ(Histogram::BucketOf(0x1p64), 63);
  EXPECT_EQ(Histogram::BucketOf(0x1p63), 63);
  EXPECT_EQ(Histogram::BucketOf(-5), 0);
  EXPECT_EQ(Histogram::BucketOf(0.5), 0);
  EXPECT_EQ(Histogram::BucketOf(1.0), 0);
  EXPECT_EQ(Histogram::BucketOf(2.0), 1);
  EXPECT_EQ(Histogram::BucketOf(1023.9), 9);
  EXPECT_EQ(Histogram::BucketOf(1024.0), 10);
}

TEST(HistogramTest, SnapshotHoldsTheNonZeroBuckets) {
  Histogram h;
  h.Record(1e30);
  h.Record(-5);
  h.Record(0.5);
  h.Record(3.0);
  h.Record(3.5);
  h.Record(1000.0);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 6);
  EXPECT_EQ(s.sum, h.sum());
  const std::map<int, int64_t> expected = {{0, 2}, {1, 2}, {9, 1}, {63, 1}};
  EXPECT_EQ(s.buckets, expected);
  EXPECT_EQ(Histogram::Diff(HistogramSnapshot{}, s).count, 6);

  // An interval in the top bucket interpolates inside [2^63, 2^64].
  Histogram top;
  top.Record(1e30);
  const IntervalSummary tail = Histogram::Diff(HistogramSnapshot{}, top.Snapshot());
  EXPECT_GE(tail.p50, 0x1p63);
  EXPECT_LE(tail.p999, 0x1p64);
}

TEST(RegistryTest, LabelsAndLookup) {
  Registry reg;
  reg.GetCounter("a").Add(3);
  reg.GetCounter("a", 2).Add(4);
  reg.GetCounter("b", "x->y").Add(5);
  reg.GetGauge("g", 1).Set(2.5);
  reg.GetHistogram("h", 0).Record(7.0);

  EXPECT_EQ(reg.CounterTotal("a"), 7);
  EXPECT_EQ(reg.CounterTotal("b"), 5);
  EXPECT_EQ(reg.CounterTotal("missing"), 0);
  ASSERT_NE(reg.FindCounters("a"), nullptr);
  EXPECT_EQ(reg.FindCounters("a")->at("node2").value(), 4);
  EXPECT_EQ(reg.FindCounters("missing"), nullptr);
  EXPECT_DOUBLE_EQ(reg.FindGauges("g")->at("node1").value(), 2.5);
  EXPECT_EQ(reg.FindHistograms("h")->at("node0").count(), 1);
  EXPECT_EQ(Registry::NodeLabel(3), "node3");
  EXPECT_EQ(Registry::LinkLabel(1, 2), "1->2");
}

Runtime::Config TestConfig() {
  Runtime::Config c;
  c.nodes = 2;
  c.procs_per_node = 2;
  c.arena_bytes = size_t{128} << 20;
  return c;
}

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

// A deterministic 2-node scenario: remote invocations, a contended lock,
// an object move. Returns the registry's JSON document.
std::string RunScenario(Registry* reg) {
  Runtime rt(TestConfig());
  rt.SetMetrics(reg);
  rt.Run([&] {
    auto shared = NewOn<Monitored>(1);
    // Both workers start on node 0 and migrate to the monitor on node 1.
    auto t1 = StartThread(shared, &Monitored::Bump);
    auto t2 = StartThread(shared, &Monitored::Bump);
    t1.Join();
    t2.Join();
    auto thing = New<Pokee>();
    MoveTo(thing, 1 - Here());  // wherever we are, the object goes elsewhere
    thing.Call(&Pokee::Poke);   // so this invoke is remote and migrates us
  });
  std::ostringstream out;
  reg->WriteJson(out);
  return out.str();
}

TEST(RegistryTest, RuntimeCoreMetrics) {
  Registry reg;
  const std::string json = RunScenario(&reg);

  // Distribution totals published at end of Run().
  EXPECT_GE(reg.CounterTotal("amber.objects.created"), 2);
  EXPECT_GE(reg.CounterTotal("amber.objects.moved"), 1);
  EXPECT_GE(reg.CounterTotal("amber.threads.migrated"), 2);
  EXPECT_GT(reg.CounterTotal("net.messages"), 0);
  EXPECT_GT(reg.CounterTotal("net.link.messages"), 0);

  // Remote invocation latency recorded per destination node.
  const auto* remote = reg.FindHistograms("amber.invoke.latency.remote");
  ASSERT_NE(remote, nullptr);
  int64_t remote_count = 0;
  for (const auto& [label, h] : *remote) {
    remote_count += h.count();
  }
  EXPECT_GE(remote_count, 1);

  // The two Bump threads contend on the member lock.
  EXPECT_GE(reg.CounterTotal("sync.lock.blocked"), 1);
  const auto* holds = reg.FindHistograms("sync.lock.hold");
  ASSERT_NE(holds, nullptr);
  EXPECT_GE(holds->at("total").count(), 2);
  // Each hold spans at least the 2ms critical section.
  EXPECT_GE(holds->at("total").min(), 2.0 * kMillisecond);

  // Per-lock wait/hold distributions, labelled "lock<id>" (dense ids in
  // first-contention order) — the placement advisor's raw material.
  const auto* lock_waits = reg.FindHistograms("lock.wait_ns");
  ASSERT_NE(lock_waits, nullptr);
  ASSERT_FALSE(lock_waits->empty());
  const auto* lock_holds = reg.FindHistograms("lock.hold_ns");
  ASSERT_NE(lock_holds, nullptr);
  int64_t lock_wait_count = 0;
  double max_wait = 0.0;
  for (const auto& [label, h] : *lock_waits) {
    EXPECT_EQ(label.rfind("lock", 0), 0u) << "unexpected label " << label;
    lock_wait_count += h.count();
    max_wait = std::max(max_wait, h.max());
  }
  EXPECT_GE(lock_wait_count, 1);   // at least one contended acquisition
  EXPECT_GT(max_wait, 0.0);        // which actually waited
  // The contended lock's hold series is labelled identically, so the two
  // families join on the lock id.
  for (const auto& [label, h] : *lock_waits) {
    EXPECT_TRUE(lock_holds->count(label))
        << "lock.wait_ns label " << label << " has no lock.hold_ns series";
    EXPECT_GE(lock_holds->at(label).min(), 2.0 * kMillisecond);
  }

  // Scheduler metrics.
  EXPECT_GT(reg.CounterTotal("sched.threads.created"), 0);
  const auto* waits = reg.FindHistograms("sched.runqueue.wait");
  ASSERT_NE(waits, nullptr);

  // The run is machine-summarized.
  EXPECT_GT(reg.FindGauges("run.virtual_time")->at("total").value(), 0.0);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(RegistryTest, JsonByteIdenticalAcrossRuns) {
  Registry a;
  Registry b;
  EXPECT_EQ(RunScenario(&a), RunScenario(&b));
}

TEST(RegistryTest, PerLinkNetworkHistograms) {
  // Traffic between node 0 and node 1 must show up as per-link histograms
  // labelled "src->dst" — the flight-recorder report cross-references these
  // labels when attributing cross-node traffic.
  // Anchor the caller in an object frame on node 0: a root-frame remote call
  // would finish on node 1 and never generate the 1->0 return leg.
  class LinkDriver : public Object {
   public:
    int Drive() {
      auto thing = New<Pokee>();
      MoveTo(thing, 1);
      return thing.Call(&Pokee::Poke);  // travel 0->1, return 1->0
    }
  };
  Registry reg;
  Runtime rt(TestConfig());
  rt.SetMetrics(&reg);
  rt.Run([] {
    auto driver = New<LinkDriver>();
    driver.Call(&LinkDriver::Drive);
  });

  const auto* bytes = reg.FindHistograms("net.link_bytes");
  ASSERT_NE(bytes, nullptr);
  const auto* depth = reg.FindHistograms("net.link_queue_depth");
  ASSERT_NE(depth, nullptr);
  for (const std::string& link : {std::string("0->1"), std::string("1->0")}) {
    auto b = bytes->find(link);
    ASSERT_NE(b, bytes->end()) << "missing net.link_bytes{" << link << "}";
    EXPECT_GT(b->second.count(), 0);
    EXPECT_GT(b->second.sum(), 0.0);
    auto d = depth->find(link);
    ASSERT_NE(d, depth->end()) << "missing net.link_queue_depth{" << link << "}";
    // Depth is sampled per channel acquisition (per fragment), bytes once
    // per message — fragmented bulk transfers make depth the larger count.
    EXPECT_GE(d->second.count(), b->second.count()) << "on " << link;
  }
  // No traffic flowed between a node and itself: only real links appear.
  EXPECT_EQ(bytes->count("0->0"), 0u);
  EXPECT_EQ(bytes->count("1->1"), 0u);
}

TEST(RegistryTest, ClusterReportUsesRegistry) {
  Registry reg;
  Runtime rt(TestConfig());
  rt.SetMetrics(&reg);
  Time elapsed = 0;
  rt.Run([&] {
    auto shared = NewOn<Monitored>(1);
    auto t1 = StartThread(shared, &Monitored::Bump);
    auto t2 = StartThread(shared, &Monitored::Bump);
    t1.Join();
    t2.Join();
    elapsed = Now();
  });
  const std::string report = ClusterReport(rt, elapsed);
  EXPECT_NE(report.find("lock contention:"), std::string::npos);
  EXPECT_NE(report.find("blocked per lock:"), std::string::npos);
  EXPECT_NE(report.find("hold:"), std::string::npos);
}

TEST(RegistryTest, NoMetricsMeansNoChangeInVirtualTime) {
  auto run = [](Registry* reg) {
    Runtime rt(TestConfig());
    if (reg != nullptr) {
      rt.SetMetrics(reg);
    }
    Time end = 0;
    rt.Run([&] {
      auto thing = New<Pokee>();
      MoveTo(thing, 1);
      thing.Call(&Pokee::Poke);
      end = Now();
    });
    return end;
  };
  Registry reg;
  EXPECT_EQ(run(nullptr), run(&reg));
}

// --- Exemplars -----------------------------------------------------------------

TEST(HistogramTest, ExemplarsTrackBucketsAndResolveNearestValue) {
  Histogram h;
  h.Record(100.0);  // plain Record: no exemplar retained
  EXPECT_TRUE(h.exemplars().empty());
  h.Record(100.0, 0);  // trace id 0 = unsampled: still no exemplar
  EXPECT_TRUE(h.exemplars().empty());

  h.Record(90.0, 7);
  h.Record(5000.0, 9);
  h.Record(100.0, 8);  // same bucket as 90.0: most recent observation wins
  ASSERT_EQ(h.exemplars().size(), 2u);
  EXPECT_EQ(h.ExemplarNear(95.0).trace_id, 8u);
  EXPECT_EQ(h.ExemplarNear(4000.0).trace_id, 9u);
  EXPECT_DOUBLE_EQ(h.ExemplarNear(4000.0).value, 5000.0);
  EXPECT_EQ(Histogram().ExemplarNear(1.0).trace_id, 0u);  // empty: zero exemplar
}

TEST(HistogramTest, ExemplarsRenderInJsonOnlyWhenPresent) {
  Registry reg;
  reg.GetHistogram("lat").Record(100.0);
  std::ostringstream without;
  reg.WriteJson(without);
  EXPECT_EQ(without.str().find("exemplars"), std::string::npos);

  reg.GetHistogram("lat").Record(5000.0, 9);
  std::ostringstream with;
  reg.WriteJson(with);
  EXPECT_NE(with.str().find("\"exemplars\""), std::string::npos);
  EXPECT_NE(with.str().find("\"trace_id\": 9"), std::string::npos);
}

// --- Label cardinality guard ---------------------------------------------------

TEST(RegistryTest, LabelCapDropsNewLabelsButKeepsExistingOnes) {
  Registry reg;
  reg.SetLabelCap(4);
  for (int i = 0; i < 10; ++i) {
    reg.GetCounter("fam", "l" + std::to_string(i)).Add(1);
  }
  EXPECT_EQ(reg.dropped_labels(), 6);
  ASSERT_NE(reg.FindCounters("fam"), nullptr);
  EXPECT_EQ(reg.FindCounters("fam")->size(), 4u);
  EXPECT_EQ(reg.CounterTotal("metrics.dropped_labels"), 6);

  // Labels admitted before the family filled keep resolving (and don't
  // count as drops); only brand-new labels fall into the sink.
  reg.GetCounter("fam", "l0").Add(1);
  EXPECT_EQ(reg.dropped_labels(), 6);
  EXPECT_EQ(reg.FindCounters("fam")->at("l0").value(), 2);

  // The sink absorbs writes but is never rendered.
  std::ostringstream out;
  reg.WriteJson(out);
  EXPECT_EQ(out.str().find("l7"), std::string::npos);
  EXPECT_NE(out.str().find("\"metrics.dropped_labels\""), std::string::npos);
}

// A 4-node switched runtime under a label cap of 2: every node invokes every
// node's object, under that object's lock, so the per-node, per-link and
// per-lock families the runtime records on its hot paths overflow the cap.
// Returns the registry's JSON document.
class LockedPokee : public Object {
 public:
  int Poke() {
    lock_.Acquire();
    Work(kMillisecond * 5);
    const int n = ++pokes_;
    lock_.Release();
    return n;
  }

 private:
  Lock lock_;
  int pokes_ = 0;
};

class Caller : public Object {
 public:
  int CallAll(std::vector<Ref<LockedPokee>> targets) {
    int sum = 0;
    for (auto& t : targets) {
      sum += t.Call(&LockedPokee::Poke);
    }
    return sum;
  }
};

std::string RunCappedAllToAll(Registry* reg) {
  Runtime::Config c;
  c.nodes = 4;
  c.procs_per_node = 2;
  c.topology = net::Topology::kSwitched;
  c.arena_bytes = size_t{128} << 20;
  Runtime rt(c);
  reg->SetLabelCap(2);
  rt.SetMetrics(reg);
  rt.Run([] {
    std::vector<Ref<LockedPokee>> pokees;
    std::vector<Ref<Caller>> callers;
    for (NodeId n = 0; n < 4; ++n) {
      pokees.push_back(NewOn<LockedPokee>(n));
      callers.push_back(NewOn<Caller>(n));
    }
    std::vector<ThreadRef<int>> threads;
    for (auto& caller : callers) {
      threads.push_back(StartThread(caller, &Caller::CallAll, pokees));
    }
    for (auto& t : threads) {
      t.Join();
    }
    MoveTo(pokees[0], 3);
  });
  std::ostringstream out;
  reg->WriteJson(out);
  return out.str();
}

// RunCappedAllToAll's document, recorded before the runtime cached any
// metric instance: a cached instance must never change what is recorded.
constexpr const char* kCappedAllToAllJson = R"json({
  "counters": {
    "amber.forward.hops": {"total": 17},
    "amber.migration.bytes": {"total": 10944},
    "amber.migration.matrix": {"0->1": 9, "0->2": 8},
    "amber.move.bytes": {"total": 1312},
    "amber.objects.created": {"total": 12},
    "amber.objects.moved": {"total": 7},
    "amber.replica.fetches": {"total": 0},
    "amber.replicas.installed": {"total": 0},
    "amber.threads.migrated": {"total": 48},
    "metrics.dropped_labels": {"total": 295},
    "net.bytes": {"total": 12992},
    "net.fragments": {"total": 75},
    "net.link.bytes": {"0->1": 2420, "0->2": 2196},
    "net.link.messages": {"0->1": 11, "0->2": 10},
    "net.messages": {"total": 75},
    "rpc.roundtrips": {"total": 1},
    "rpc.travels": {"total": 48},
    "sched.threads.created": {"node0": 5},
    "sim.dispatches": {"total": 66},
    "sim.events": {"total": 306},
    "sim.preemptions": {"total": 0},
    "sync.condition.wakeups": {"total": 0},
    "sync.lock.blocked": {"lock1": 2, "lock2": 1}
  },
  "gauges": {
    "net.busy_ns": {"total": 17893600},
    "run.nodes": {"total": 4},
    "run.procs_per_node": {"total": 2},
    "run.virtual_time": {"total": 93759920},
    "sched.busy_ns": {"node0": 64972160, "node1": 29138240}
  },
  "histograms": {
    "amber.forward.chain": {
      "total": {"count": 31, "sum": 48, "min": 1, "max": 3, "mean": 1.5483871, "p50": 2, "p90": 2, "p99": 2.7, "p999": 2.97}
    },
    "amber.invoke.latency.local": {
      "node0": {"count": 3, "sum": 70010160, "min": 5028000, "max": 34118080, "mean": 23336720, "p50": 30864080, "p90": 33467280, "p99": 34053000, "p999": 34111572},
      "node1": {"count": 1, "sum": 5028000, "min": 5028000, "max": 5028000, "mean": 5028000, "p50": 5028000, "p90": 5028000, "p99": 5028000, "p999": 5028000}
    },
    "amber.invoke.latency.remote": {
      "node0": {"count": 3, "sum": 29078080, "min": 9656720, "max": 9764640, "mean": 9692693.33, "p50": 9656720, "p90": 9743056, "p99": 9762481.6, "p999": 9764424.16},
      "node1": {"count": 5, "sum": 103480080, "min": 9656720, "max": 45614640, "mean": 20696016, "p50": 14285440, "p90": 35223920, "p99": 44575568, "p999": 45510732.8}
    },
    "amber.migration.latency": {
      "total": {"count": 48, "sum": 113375280, "min": 2312640, "max": 3388080, "mean": 2361985, "p50": 2314360, "p90": 2347040, "p99": 3279152.8, "p999": 3377187.28}
    },
    "amber.move.latency": {
      "total": {"count": 7, "sum": 24393360, "min": 3102560, "max": 5365200, "mean": 3484765.71, "p50": 3240160, "p90": 4090176, "p99": 5237697.6, "p999": 5352449.76}
    },
    "lock.hold_ns": {
      "lock1": {"count": 4, "sum": 20132000, "min": 5008000, "max": 5058000, "mean": 5033000, "p50": 5033000, "p90": 5058000, "p99": 5058000, "p999": 5058000},
      "lock2": {"count": 4, "sum": 20082000, "min": 5008000, "max": 5058000, "mean": 5020500, "p50": 5008000, "p90": 5043000, "p99": 5056500, "p999": 5057850}
    },
    "lock.wait_ns": {
      "lock1": {"count": 2, "sum": 11832480, "min": 3944160, "max": 7888320, "mean": 5916240, "p50": 5916240, "p90": 7493904, "p99": 7848878.4, "p999": 7884375.84},
      "lock2": {"count": 1, "sum": 1075440, "min": 1075440, "max": 1075440, "mean": 1075440, "p50": 1075440, "p90": 1075440, "p99": 1075440, "p999": 1075440}
    },
    "net.link_bytes": {
      "0->1": {"count": 11, "sum": 2420, "min": 96, "max": 264, "mean": 220, "p50": 224, "p90": 256, "p99": 263.2, "p999": 263.92},
      "0->2": {"count": 10, "sum": 2196, "min": 96, "max": 264, "mean": 219.6, "p50": 226, "p90": 256.8, "p99": 263.28, "p999": 263.928}
    },
    "net.link_queue_depth": {
      "0->1": {"count": 11, "sum": 0, "min": 0, "max": 0, "mean": 0, "p50": 0, "p90": 0, "p99": 0, "p999": 0},
      "0->2": {"count": 10, "sum": 0, "min": 0, "max": 0, "mean": 0, "p50": 0, "p90": 0, "p99": 0, "p999": 0}
    },
    "rpc.roundtrip.latency": {
      "node0": {"count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0, "p50": 0, "p90": 0, "p99": 0, "p999": 0},
      "node1": {"count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0, "p50": 0, "p90": 0, "p99": 0, "p999": 0}
    },
    "sched.runqueue.depth": {
      "node0": {"count": 36, "sum": 3, "min": 0, "max": 2, "mean": 0.0833333333, "p50": 0, "p90": 0, "p99": 1.65, "p999": 1.965},
      "node1": {"count": 10, "sum": 0, "min": 0, "max": 0, "mean": 0, "p50": 0, "p90": 0, "p99": 0, "p999": 0}
    },
    "sched.runqueue.wait": {
      "node0": {"count": 36, "sum": 8376880, "min": 0, "max": 2399680, "mean": 232691.111, "p50": 0, "p90": 591680, "p99": 2399036, "p999": 2399615.6},
      "node1": {"count": 10, "sum": 0, "min": 0, "max": 0, "mean": 0, "p50": 0, "p90": 0, "p99": 0, "p999": 0}
    },
    "sync.lock.hold": {
      "total": {"count": 16, "sum": 80278000, "min": 5008000, "max": 5058000, "mean": 5017375, "p50": 5008000, "p90": 5058000, "p99": 5058000, "p999": 5058000}
    },
    "sync.lock.wait": {
      "node0": {"count": 2, "sum": 11832480, "min": 3944160, "max": 7888320, "mean": 5916240, "p50": 5916240, "p90": 7493904, "p99": 7848878.4, "p999": 7884375.84},
      "node1": {"count": 1, "sum": 1075440, "min": 1075440, "max": 1075440, "mean": 1075440, "p50": 1075440, "p90": 1075440, "p99": 1075440, "p999": 1075440}
    }
  }
}
)json";

TEST(RegistryTest, LabelCapCountsEveryDroppedHotPathLookup) {
  Registry reg;
  const std::string json = RunCappedAllToAll(&reg);
  // Each record into a label past the cap is one more dropped lookup; a
  // runtime that cached the sink would count each such label only once.
  EXPECT_EQ(reg.dropped_labels(), 295);
  EXPECT_EQ(json, kCappedAllToAllJson);
}

TEST(RegistryTest, LabelCapAppliesPerFamilyAndPerKind) {
  Registry reg;
  reg.SetLabelCap(2);
  reg.GetGauge("g", "a").Set(1);
  reg.GetGauge("g", "b").Set(2);
  reg.GetGauge("g", "c").Set(3);  // dropped
  reg.GetHistogram("h", "a").Record(1);
  reg.GetHistogram("h", "b").Record(2);
  reg.GetHistogram("h", "c").Record(3);  // dropped
  reg.GetGauge("g2", "a").Set(1);        // fresh family: admitted
  EXPECT_EQ(reg.dropped_labels(), 2);
  EXPECT_EQ(reg.FindGauges("g")->size(), 2u);
  EXPECT_EQ(reg.FindHistograms("h")->size(), 2u);
  EXPECT_EQ(reg.FindGauges("g2")->size(), 1u);
}

}  // namespace
}  // namespace metrics
