// Fidelity probe: Table 1's five primitive latencies, measured through the
// public API as bench_table1 does, plus the SOR configuration of Figure 2.

#include "src/core/amber.h"
#include "perfbench/cpp/workloads.h"

namespace perfbench {
namespace {

using amber::MoveTo;
using amber::New;
using amber::NodeId;
using amber::Now;
using amber::Object;
using amber::Ref;
using amber::StartThread;
using amber::Time;

// ~1 KB of payload: "fits in a network packet".
class Packet : public Object {
 public:
  int Touch() { return ++touches_; }
  int Noop() { return 0; }

 private:
  int touches_ = 0;
  char payload_[1000];
};

class Mover : public Object {
 public:
  int MoveIt(Ref<Packet> o, NodeId dst) {
    MoveTo(o, dst);
    return 0;
  }
};

// Runs inside an object frame on node 0 so remote invocations return here.
class Probe : public Object {
 public:
  double Create(int trials) {
    const Time t0 = Now();
    for (int i = 0; i < trials; ++i) {
      New<Packet>();
    }
    return amber::ToMillis(Now() - t0) / trials;
  }

  double LocalInvoke(int trials) {
    auto obj = New<Packet>();
    const Time t0 = Now();
    for (int i = 0; i < trials; ++i) {
      obj.Call(&Packet::Noop);
    }
    return amber::ToMillis(Now() - t0) / trials;
  }

  // The call reaches the object through a one-hop-stale hint: 0 -> 1 -> 2.
  double RemoteInvoke(int trials) {
    double total = 0.0;
    for (int i = 0; i < trials; ++i) {
      auto obj = New<Packet>();
      MoveTo(obj, 1);
      obj.Call(&Packet::Noop);
      MoveTo(obj, 2);
      const Time t0 = Now();
      obj.Call(&Packet::Noop);
      total += amber::ToMillis(Now() - t0);
    }
    return total / trials;
  }

  // The object sits on node 2 while our hint says node 1.
  double Move(int trials) {
    double total = 0.0;
    for (int i = 0; i < trials; ++i) {
      auto obj = New<Packet>();
      MoveTo(obj, 1);
      amber::Locate(obj);
      auto helper = New<Mover>();
      MoveTo(helper, 1);
      helper.Call(&Mover::MoveIt, obj, NodeId{2});
      const Time t0 = Now();
      MoveTo(obj, 3);
      total += amber::ToMillis(Now() - t0);
    }
    return total / trials;
  }

  double ThreadStartJoin(int trials) {
    auto obj = New<Packet>();
    const Time t0 = Now();
    for (int i = 0; i < trials; ++i) {
      auto t = StartThread(obj, &Packet::Touch);
      t.Join();
    }
    return amber::ToMillis(Now() - t0) / trials;
  }
};

Table1 MeasureTable1() {
  amber::Runtime::Config config;
  config.nodes = 4;
  config.procs_per_node = 4;
  config.arena_bytes = size_t{1} << 30;
  amber::Runtime rt(config);
  constexpr int kTrials = 64;
  Table1 t;
  rt.Run([&] {
    auto probe = New<Probe>();
    t.create_ms = probe.Call(&Probe::Create, kTrials);
    t.local_invoke_ms = probe.Call(&Probe::LocalInvoke, kTrials);
    t.remote_invoke_ms = probe.Call(&Probe::RemoteInvoke, kTrials);
    t.move_ms = probe.Call(&Probe::Move, kTrials);
    t.thread_start_join_ms = probe.Call(&Probe::ThreadStartJoin, kTrials);
  });
  return t;
}

}  // namespace

sor::Params PaperSorParams() {
  sor::Params p;  // 122 x 842, 8 sections, overlap on
  p.max_iterations = 100;
  p.tolerance = 0.0;
  return p;
}

amber::Runtime::Config SorConfig() {
  amber::Runtime::Config config;
  config.nodes = 8;
  config.procs_per_node = 4;
  config.arena_bytes = size_t{1} << 30;
  return config;
}

Fidelity MeasureFidelity(const sor::Result& parallel, const sor::Result& sequential) {
  Fidelity f;
  f.table1 = MeasureTable1();
  f.parallel_ns = parallel.solve_time;
  f.parallel_hash = parallel.grid_hash;
  f.sequential_ns = sequential.solve_time;
  f.sequential_hash = sequential.grid_hash;
  return f;
}

void WriteFidelity(JsonWriter& w, const Fidelity& f) {
  w.Begin("fidelity")
      .Num("create_ms", f.table1.create_ms)
      .Num("local_invoke_ms", f.table1.local_invoke_ms)
      .Num("remote_invoke_ms", f.table1.remote_invoke_ms)
      .Num("move_ms", f.table1.move_ms)
      .Num("thread_start_join_ms", f.table1.thread_start_join_ms)
      .Int("parallel_ns", f.parallel_ns)
      .Int("sequential_ns", f.sequential_ns)
      .Str("parallel_hash", std::to_string(f.parallel_hash))
      .Str("sequential_hash", std::to_string(f.sequential_hash))
      .End();
}

}  // namespace perfbench
