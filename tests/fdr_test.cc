// Tests for the flight data recorder (src/fdr): ring accounting, the event
// log and its Chrome trace, deterministic dumps, the panic-triggered black
// box (a death test) and the observer-only contract.

#include "src/fdr/fdr.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <set>
#include <string>

#include "src/apps/fdr/fdr_report.h"
#include "src/core/amber.h"
#include "src/core/sync.h"
#include "src/fault/fault.h"
#include "src/rpc/transport.h"
#include "src/metrics/metrics.h"

namespace amber {
namespace {

Runtime::Config TestConfig(int nodes = 3, int procs = 2) {
  Runtime::Config c;
  c.nodes = nodes;
  c.procs_per_node = procs;
  c.arena_bytes = size_t{256} << 20;
  c.initial_regions_per_node = 4;
  return c;
}

class Counter : public Object {
 public:
  int Add(int d) {
    Work(kMicrosecond * 20);
    value_ += d;
    return value_;
  }

 private:
  int value_ = 0;
};

// The crash scenario's local object: a lock that the dying thread holds
// (and a victim waits on) at the moment of death, plus a thread stuck on a
// cross-partition move (its reliable roundtrip is in flight at death).
class Holder : public Object {
 public:
  void HoldAndDie() {
    lock_.Acquire();
    Work(Millis(80));  // long enough for the partition to produce suspicion
    AMBER_CHECK(false) << "injected black-box crash";
  }
  void BlockOnLock() {
    Work(Millis(1));  // lose the race for the lock deterministically
    lock_.Acquire();
    lock_.Release();
  }
  void MoveBack(Ref<Counter> remote) {
    Work(Millis(31));  // start after the partition cuts node 2 off
    MoveTo(remote, 0);  // control roundtrip to the unreachable owner
  }

 private:
  Lock lock_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

fdrtool::Json ParseDump(const std::string& text) {
  fdrtool::Json dump;
  std::string error;
  EXPECT_TRUE(fdrtool::ParseJson(text, &dump, &error)) << error;
  return dump;
}

// --- Ring buffer -------------------------------------------------------------

TEST(FdrRingTest, WraparoundCountsDropsAndKeepsLatestWindow) {
  fdr::Recorder rec({.name = "wrap", .ring_capacity = 4});
  for (int i = 0; i < 10; ++i) {
    rec.OnThreadCreate(/*when=*/i * 100, /*node=*/0, /*thread=*/static_cast<ThreadId>(i + 1),
                       "t" + std::to_string(i), /*parent=*/0);
  }
  EXPECT_EQ(rec.recorded(), 10);
  EXPECT_EQ(rec.dropped(), 6);

  std::ostringstream out;
  rec.WriteDump(out, "explicit", "");  // no live runtime: event-only dump
  const fdrtool::Json dump = ParseDump(out.str());
  const fdrtool::Json* events = dump.Get("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->arr.size(), 4u) << "ring must retain exactly capacity records";
  // The retained window is the *last* K appends, merged in order.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events->arr[i].Int("seq"), static_cast<int64_t>(6 + i));
    EXPECT_EQ(events->arr[i].Int("thread"), static_cast<int64_t>(7 + i));
  }
  EXPECT_EQ(dump.Int("recorded"), 10);
  EXPECT_EQ(dump.Int("dropped"), 6);
}

TEST(FdrRingTest, PublishMetricsEmitsDeltas) {
  fdr::Recorder rec({.name = "m", .ring_capacity = 2});
  for (int i = 0; i < 5; ++i) {
    rec.OnThreadExit(i, 0, 1);
  }
  metrics::Registry registry;
  rec.PublishMetrics(&registry);
  EXPECT_EQ(registry.CounterTotal("fdr.recorded"), 5);
  EXPECT_EQ(registry.CounterTotal("fdr.dropped"), 3);
  rec.OnThreadExit(5, 0, 1);
  rec.PublishMetrics(&registry);  // second publication adds only the delta
  EXPECT_EQ(registry.CounterTotal("fdr.recorded"), 6);
  EXPECT_EQ(registry.CounterTotal("fdr.dropped"), 4);
}

// --- Determinism -------------------------------------------------------------

// One deterministic mini-chaos run: lossy links, cross-node calls, lock
// contention. Returns (virtual end time, full dump text).
std::pair<Time, std::string> RunChaos(bool attach_recorder) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::LinkRule rule;
  rule.drop = 0.05;
  rule.delay = 0.05;
  rule.delay_min = Micros(50);
  rule.delay_max = Micros(500);
  plan.links.push_back(rule);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  fdr::Recorder rec({.name = "det", .ring_capacity = 512});
  if (attach_recorder) {
    rec.AttachTo(rt);
  }
  const Time end = rt.Run([] {
    auto c = New<Counter>();
    MoveTo(c, 1);
    auto t = StartThread(c, &Counter::Add, 5);
    for (int i = 0; i < 3; ++i) {
      c.Call(&Counter::Add, 1);
      Work(Millis(5));
    }
    t.Join();
  });
  std::string dump;
  if (attach_recorder) {
    std::ostringstream out;
    rec.WriteDump(out, "explicit", "");
    dump = out.str();
  }
  return {end, dump};
}

TEST(FdrDumpTest, ByteIdenticalAcrossSameSeedRuns) {
  const auto [end1, dump1] = RunChaos(true);
  const auto [end2, dump2] = RunChaos(true);
  EXPECT_EQ(end1, end2);
  ASSERT_FALSE(dump1.empty());
  EXPECT_EQ(dump1, dump2) << "same plan + seed must dump byte-identical black boxes";
}

TEST(FdrDumpTest, RecorderIsObserverOnly) {
  const auto [end_on, dump] = RunChaos(true);
  const auto [end_off, none] = RunChaos(false);
  EXPECT_EQ(end_on, end_off) << "attaching the recorder must not change virtual time";
  EXPECT_TRUE(none.empty());
}

TEST(FdrDumpTest, ExplicitDumpViaRuntime) {
  Runtime rt(TestConfig(2, 2));
  fdr::Recorder rec({.name = "explicit"});
  rec.AttachTo(rt);
  rt.Run([] {
    auto c = New<Counter>();
    MoveTo(c, 1);
    c.Call(&Counter::Add, 1);
  });
  const std::string path = rt.DumpBlackBox("FDR_explicit_test.json");
  ASSERT_EQ(path, "FDR_explicit_test.json");
  const fdrtool::Json dump = ParseDump(ReadFile(path));
  EXPECT_EQ(dump.Str("reason"), "explicit");
  EXPECT_GT(dump.Int("recorded"), 0);
  // Runtime was alive at dump time: the kernel fiber snapshot is present.
  const fdrtool::Json* fibers = dump.Get("fibers");
  ASSERT_NE(fibers, nullptr);
  EXPECT_FALSE(fibers->arr.empty());
  // The moved Counter's descriptor chain names node 1 as home.
  const fdrtool::Json* objects = dump.Get("objects");
  ASSERT_NE(objects, nullptr);
  bool found_resident = false;
  for (const fdrtool::Json& o : objects->arr) {
    const fdrtool::Json* chain = o.Get("chain");
    if (chain != nullptr && chain->arr.size() == 2 && chain->arr[1].str == "res") {
      found_resident = true;
    }
  }
  EXPECT_TRUE(found_resident) << "expected an object resident on node 1 in " << ReadFile(path);
  std::remove(path.c_str());
}

// --- The event log and its Chrome trace --------------------------------------

fdrtool::Json DumpOf(fdr::Recorder& rec) {
  std::ostringstream out;
  rec.WriteDump(out, "explicit", "");
  return ParseDump(out.str());
}

int CountType(const fdrtool::Json& dump, const std::string& type) {
  int n = 0;
  for (const fdrtool::Json& e : dump.Get("events")->arr) {
    n += e.Str("type") == type ? 1 : 0;
  }
  return n;
}

// A move, a migrating thread and its join: every kind of traffic at once.
void MoveAndVisit() {
  auto c = New<Counter>();
  MoveTo(c, 2);                                // one object move
  auto t = StartThread(c, &Counter::Add, 1);   // thread migrates 0 -> 2
  t.Join();
}

TEST(FdrLogTest, RecordsMovesMigrationsAndMessagesInOrder) {
  Runtime rt(TestConfig());
  fdr::Recorder rec({.name = "log", .ring_capacity = SIZE_MAX});
  rec.AttachTo(rt);
  rt.Run(MoveAndVisit);
  EXPECT_EQ(rec.dropped(), 0);
  const fdrtool::Json dump = DumpOf(rec);
  EXPECT_EQ(CountType(dump, "object_move"), 1);
  EXPECT_GE(CountType(dump, "thread_migrate"), 2);  // worker + joiner
  EXPECT_GE(CountType(dump, "message"), 3);
  // Distribution records are in nondecreasing virtual time along seq.
  // (Scheduler and invocation records can run a context switch ahead of
  // the event clock; the Chrome renderer sorts by timestamp.)
  const std::set<std::string> distribution = {"thread_migrate", "object_move",
                                              "replica_install", "message"};
  int64_t prev = 0;
  for (const fdrtool::Json& e : dump.Get("events")->arr) {
    if (distribution.count(e.Str("type")) != 0) {
      EXPECT_GE(e.Int("t"), prev);
      prev = e.Int("t");
    }
  }
}

TEST(FdrLogTest, RecordsReplicaInstalls) {
  Runtime rt(TestConfig());
  fdr::Recorder rec({.name = "replica", .ring_capacity = SIZE_MAX});
  rec.AttachTo(rt);
  rt.Run([] {
    auto c = New<Counter>();
    MakeImmutable(c);
    MoveTo(c, 1);  // replicate
  });
  EXPECT_EQ(CountType(DumpOf(rec), "replica_install"), 1);
}

TEST(FdrLogTest, DetachStopsRecording) {
  Runtime rt(TestConfig());
  fdr::Recorder rec({.name = "detached"});
  rec.AttachTo(rt);
  rt.SetBlackBox(nullptr);
  rt.Run(MoveAndVisit);
  EXPECT_EQ(rec.recorded(), 0);
}

// Two classes of one size: the segment allocator hands a freed Alpha's
// block to the next Beta.
class Alpha : public Object {
 public:
  int Get() { return value_; }

 private:
  int value_ = 1;
};

class Beta : public Object {
 public:
  int Get() { return value_; }

 private:
  int value_ = 2;
};
static_assert(sizeof(Alpha) == sizeof(Beta));

TEST(FdrLogTest, ReusedAddressIsANewObject) {
  Runtime rt(TestConfig());
  fdr::Recorder rec({.name = "reuse", .ring_capacity = SIZE_MAX});
  rec.AttachTo(rt);
  bool reused = false;
  rt.Run([&] {
    auto a = New<Alpha>();
    a.Call(&Alpha::Get);
    const Object* where = a.object();
    Delete(a);
    auto b = New<Beta>();
    reused = b.object() == where;
    b.Call(&Beta::Get);
  });
  ASSERT_TRUE(reused) << "the scenario needs the allocator to reuse the block";
  const fdrtool::Json dump = DumpOf(rec);
  int64_t alpha = -1;
  int64_t beta = -1;
  for (const fdrtool::Json& o : dump.Get("objects")->arr) {
    if (o.Str("label").find("Alpha") != std::string::npos) {
      alpha = o.Int("id");
    }
    if (o.Str("label").find("Beta") != std::string::npos) {
      beta = o.Int("id");
    }
  }
  ASSERT_NE(alpha, -1);
  ASSERT_NE(beta, -1) << "the live Beta must not keep the dead Alpha's identity";
  EXPECT_NE(alpha, beta);
  // The last invocation (Beta::Get) names Beta's id, and so does its span.
  int64_t last_invoked = -1;
  for (const fdrtool::Json& e : dump.Get("events")->arr) {
    if (e.Str("type") == "invoke_enter") {
      last_invoked = e.Int("object");
    }
  }
  EXPECT_EQ(last_invoked, beta);
  std::ostringstream trace;
  rec.WriteChromeTrace(trace);
  EXPECT_NE(trace.str().find("Beta\",\"ph\":\"X\""), std::string::npos) << trace.str();
}

// Checks a rendered trace parses and every flow arrow that ends also starts.
void ExpectWellFormedTrace(const std::string& text) {
  const fdrtool::Json trace = ParseDump(text);
  const fdrtool::Json* events = trace.Get("traceEvents");
  ASSERT_NE(events, nullptr) << text;
  ASSERT_FALSE(events->arr.empty());
  EXPECT_EQ(events->arr[0].Str("ph"), "M");  // node 0's process_name first
  std::set<int64_t> started;
  std::set<int64_t> finished;
  for (const fdrtool::Json& e : events->arr) {
    if (e.Str("ph") == "s") {
      started.insert(e.Int("id"));
    }
    if (e.Str("ph") == "f") {
      finished.insert(e.Int("id"));
    }
  }
  for (int64_t id : finished) {
    EXPECT_EQ(started.count(id), 1u) << "flow " << id << " ends without a start";
  }
}

TEST(FdrChromeTraceTest, WellFormedFromWholeRunAndWrappedRing) {
  for (size_t capacity : {SIZE_MAX, size_t{4}}) {
    Runtime rt(TestConfig());
    fdr::Recorder rec({.name = "chrome", .ring_capacity = capacity});
    rec.AttachTo(rt);
    rt.Run(MoveAndVisit);
    std::ostringstream out;
    rec.WriteChromeTrace(out);
    ExpectWellFormedTrace(out.str());
    if (capacity == SIZE_MAX) {
      EXPECT_EQ(rec.dropped(), 0);
      EXPECT_NE(out.str().find("object-move obj-0 0->2"), std::string::npos);
      EXPECT_NE(out.str().find("\"cat\":\"invoke\""), std::string::npos);
      EXPECT_NE(out.str().find("\"ph\":\"f\""), std::string::npos) << "migration arrow";
    } else {
      EXPECT_GT(rec.dropped(), 0) << "the ring must have wrapped";
    }
  }
}

TEST(FdrChromeTraceTest, SameSeedSameBytes) {
  auto once = [] {
    Runtime rt(TestConfig());
    fdr::Recorder rec({.name = "det", .ring_capacity = SIZE_MAX});
    rec.AttachTo(rt);
    rt.Run(MoveAndVisit);
    std::ostringstream out;
    rec.WriteChromeTrace(out);
    return out.str();
  };
  const std::string first = once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, once());
}

// --- The black box itself ----------------------------------------------------

// Runs the fatal chaos scenario: partition 0<->2 breeds mutual suspicion, a
// thread dies on a failed AMBER_CHECK while holding a lock another thread
// waits on, and a third thread's move-control roundtrip to the partitioned
// owner is still in flight (a long first-attempt timeout keeps it pending
// past the moment of death). Never returns.
void RunFatalScenario() {
  // Four processors per node: the rpc-waiter thread must dispatch without
  // queue delay so its move lands after the partition (30ms) but before
  // node 0 suspects node 2 (~50ms); otherwise the control roundtrip is
  // short-circuited by suspicion and never appears in flight.
  Runtime rt(TestConfig(3, 4));
  fault::FaultPlan plan;
  fault::Partition part;
  part.a = 0;
  part.b = 2;
  part.from = Millis(30);
  plan.partitions.push_back(part);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rpc::RetryPolicy slow_retry;
  slow_retry.timeout = Millis(500);
  slow_retry.timeout_cap = Millis(500);
  rt.transport().SetRetryPolicy(slow_retry);
  fdr::Recorder rec({.name = "blackbox"});
  rec.AttachTo(rt);
  rt.Run([] {
    auto remote = New<Counter>();
    MoveTo(remote, 2);  // home the counter on node 2 before the partition
    auto h = New<Holder>();
    StartThreadNamed("holder-dies", 0, h, &Holder::HoldAndDie);
    StartThreadNamed("lock-victim", 0, h, &Holder::BlockOnLock);
    StartThreadNamed("rpc-waiter", 0, h, &Holder::MoveBack, remote);
    Work(Millis(200));
  });
}

TEST(FdrDeathTest, PanicWritesBlackBoxNamingCulprits) {
  std::remove("FDR_blackbox.json");
  // The child prints the panic, flushes the dump, announces its path, and
  // aborts; the file lands in the shared cwd for the parent to dissect.
  EXPECT_DEATH(RunFatalScenario(), "black box: FDR_blackbox\\.json");

  const std::string text = ReadFile("FDR_blackbox.json");
  ASSERT_FALSE(text.empty()) << "dying child must leave FDR_blackbox.json behind";
  const fdrtool::Json dump = ParseDump(text);
  EXPECT_EQ(dump.Str("reason"), "panic");
  EXPECT_NE(dump.Str("detail").find("injected black-box crash"), std::string::npos);

  // The dying thread is identified by id and name: still running, and
  // holding the contended lock.
  const int64_t dying = dump.Int("dying_thread");
  ASSERT_NE(dying, 0);
  const fdrtool::Json* threads = dump.Get("threads");
  ASSERT_NE(threads, nullptr);
  const fdrtool::Json* dt = nullptr;
  for (const fdrtool::Json& t : threads->arr) {
    if (t.Int("thread") == dying) {
      dt = &t;
    }
  }
  ASSERT_NE(dt, nullptr);
  EXPECT_EQ(dt->Str("name"), "holder-dies");
  EXPECT_EQ(dt->Str("status"), "running");
  const fdrtool::Json* held = dt->Get("held_locks");
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(held->arr.size(), 1u) << "the dying thread held the lock";
  const int64_t lock_id = static_cast<int64_t>(held->arr[0].num);

  // The victim is recorded blocked on exactly that lock.
  const fdrtool::Json* locks = dump.Get("locks");
  ASSERT_NE(locks, nullptr);
  bool victim_waits = false;
  for (const fdrtool::Json& l : locks->arr) {
    if (l.Int("lock") == lock_id && l.Int("holder") == dying) {
      victim_waits = !l.Get("waiters")->arr.empty();
    }
  }
  EXPECT_TRUE(victim_waits) << "lock table must show the blocked victim";

  // The move-control roundtrip to partitioned node 2 is in flight.
  const fdrtool::Json* rpcs = dump.Get("rpcs_in_flight");
  ASSERT_NE(rpcs, nullptr);
  bool move_rpc = false;
  for (const fdrtool::Json& r : rpcs->arr) {
    if (r.Int("src") == 0 && r.Int("dst") == 2) {
      move_rpc = true;
    }
  }
  EXPECT_TRUE(move_rpc) << "expected the move-control roundtrip in rpcs_in_flight";

  // The partition produced mutual suspicion between nodes 0 and 2.
  const fdrtool::Json* suspicion = dump.Get("suspicion");
  ASSERT_NE(suspicion, nullptr);
  bool zero_suspects_two = false;
  for (const fdrtool::Json& v : suspicion->arr) {
    if (v.Int("viewer") == 0) {
      for (const fdrtool::Json& s : v.Get("suspects")->arr) {
        if (static_cast<int64_t>(s.num) == 2) {
          zero_suspects_two = true;
        }
      }
    }
  }
  EXPECT_TRUE(zero_suspects_two) << "node 0 should suspect partitioned node 2";

  // The analyzer report names all of it.
  std::ostringstream report;
  fdrtool::RenderReport(dump, report);
  const std::string r = report.str();
  EXPECT_NE(r.find("holder-dies"), std::string::npos);
  EXPECT_NE(r.find("holding lock"), std::string::npos);
  EXPECT_NE(r.find("waiting:"), std::string::npos) << "lock section must list the victim:\n" << r;
  EXPECT_NE(r.find("RPCs in flight"), std::string::npos);
  EXPECT_NE(r.find("suspects"), std::string::npos);
  EXPECT_NE(r.find("discrepancy"), std::string::npos)
      << "suspected-but-alive node 2 must be flagged:\n" << r;
  // Deliberately left on disk: CI's flight-recorder smoke renders this dump
  // with the amber-fdr CLI, and the artifact step archives it on failure.
}

TEST(FdrDeathTest, PanicDumpIsDeterministic) {
  // Two same-seed fatal children must leave byte-identical black boxes.
  std::remove("FDR_blackbox.json");
  EXPECT_DEATH(RunFatalScenario(), "black box: FDR_blackbox\\.json");
  const std::string first = ReadFile("FDR_blackbox.json");
  std::remove("FDR_blackbox.json");
  EXPECT_DEATH(RunFatalScenario(), "black box: FDR_blackbox\\.json");
  const std::string second = ReadFile("FDR_blackbox.json");
  std::remove("FDR_blackbox.json");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace amber
