// Tests for the discrete-event kernel: clocks, charging, timeslicing,
// processor occupancy, blocking/waking, migration, preemption, determinism.

#include "src/sim/kernel.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/sim/stack_pool.h"

namespace sim {
namespace {

using amber::Micros;
using amber::Millis;
using amber::Time;

// Convenience harness: owns a kernel + stack pool, tracks spawned fibers.
class Harness {
 public:
  Harness(int nodes, int procs, CostModel cost = CostModel{}) : pool_(64 * 1024) {
    Kernel::Config config;
    config.nodes = nodes;
    config.procs_per_node = procs;
    config.cost = cost;
    kernel_ = std::make_unique<Kernel>(config);
  }

  Fiber* Go(NodeId node, std::function<void()> fn, std::string name = "") {
    void* stack = pool_.Allocate();
    stacks_.push_back(stack);
    return kernel_->Spawn(node, stack, pool_.stack_size(), std::move(fn), std::move(name));
  }

  Kernel& k() { return *kernel_; }

 private:
  StackPool pool_;
  std::vector<void*> stacks_;
  std::unique_ptr<Kernel> kernel_;
};

// A zero-overhead cost model so tests can reason about exact times.
CostModel FreeCpu() {
  CostModel c;
  c.context_switch = 0;
  c.preempt_ipi = 0;
  c.quantum = Millis(10);
  return c;
}

TEST(KernelTest, ChargeAdvancesVirtualTime) {
  Harness h(1, 1, FreeCpu());
  Time end_time = -1;
  h.Go(0, [&] {
    EXPECT_EQ(h.k().Now(), 0);
    h.k().Charge(Micros(250));
    EXPECT_EQ(h.k().Now(), Micros(250));
    h.k().Charge(Micros(750));
    end_time = h.k().Now();
  });
  h.k().Run();
  EXPECT_EQ(end_time, Micros(1000));
  EXPECT_EQ(h.k().live_fibers(), 0);
}

TEST(KernelTest, RunReturnsFinalTime) {
  Harness h(1, 1, FreeCpu());
  h.Go(0, [&] { h.k().Charge(Millis(3)); });
  EXPECT_EQ(h.k().Run(), Millis(3));
}

TEST(KernelTest, SyncPreservesVirtualTime) {
  Harness h(1, 1, FreeCpu());
  h.Go(0, [&] {
    h.k().Charge(Micros(100));
    const Time before = h.k().Now();
    h.k().Sync();
    EXPECT_EQ(h.k().Now(), before);
  });
  h.k().Run();
}

TEST(KernelTest, TwoProcessorsRunInParallel) {
  Harness h(1, 2, FreeCpu());
  // Two fibers each burning 5 ms on a 2-CPU node: total elapsed 5 ms.
  for (int i = 0; i < 2; ++i) {
    h.Go(0, [&] { h.k().Charge(Millis(5)); });
  }
  EXPECT_EQ(h.k().Run(), Millis(5));
}

TEST(KernelTest, OneProcessorSerializes) {
  Harness h(1, 1, FreeCpu());
  for (int i = 0; i < 2; ++i) {
    h.Go(0, [&] { h.k().Charge(Millis(5)); });
  }
  EXPECT_EQ(h.k().Run(), Millis(10));
}

TEST(KernelTest, TimeslicingInterleavesCpuBoundFibers) {
  CostModel cost = FreeCpu();
  cost.quantum = Millis(1);
  Harness h(1, 1, cost);
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    h.Go(0, [&, i] {
      for (int chunk = 0; chunk < 3; ++chunk) {
        h.k().Charge(Millis(1));
        order.push_back(i);
      }
    });
  }
  h.k().Run();
  // Round-robin: 0,1,0,1,0,1 — not 0,0,0,1,1,1.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(KernelTest, QuantumExtendsWhenAlone) {
  CostModel cost = FreeCpu();
  cost.quantum = Millis(1);
  Harness h(1, 1, cost);
  h.Go(0, [&] { h.k().Charge(Millis(50)); });
  h.k().Run();
  EXPECT_EQ(h.k().preemptions(), 0u);  // nobody waiting: no preemption churn
}

TEST(KernelTest, BlockAndWake) {
  Harness h(1, 2, FreeCpu());
  Fiber* sleeper = nullptr;
  Time woke_at = -1;
  sleeper = h.Go(0, [&] {
    h.k().Sync();
    h.k().Block();
    woke_at = h.k().Now();
  });
  h.Go(0, [&] {
    h.k().Charge(Millis(7));
    h.k().Sync();
    h.k().Wake(sleeper, h.k().Now());
  });
  h.k().Run();
  EXPECT_EQ(woke_at, Millis(7));
}

TEST(KernelTest, TravelToMovesFiberBetweenNodes) {
  Harness h(3, 1, FreeCpu());
  std::vector<NodeId> visited;
  h.Go(0, [&] {
    visited.push_back(h.k().current()->node);
    h.k().Sync();
    h.k().TravelTo(2, h.k().Now() + Millis(4));
    visited.push_back(h.k().current()->node);
    EXPECT_EQ(h.k().Now(), Millis(4));
    h.k().Sync();
    h.k().TravelTo(1, h.k().Now() + Millis(4));
    visited.push_back(h.k().current()->node);
  });
  h.k().Run();
  EXPECT_EQ(visited, (std::vector<NodeId>{0, 2, 1}));
}

TEST(KernelTest, TravelReleasesSourceProcessor) {
  Harness h(2, 1, FreeCpu());
  Time second_started = -1;
  h.Go(0, [&] {
    h.k().Charge(Millis(1));
    h.k().Sync();
    h.k().TravelTo(1, h.k().Now() + Millis(100));
  });
  h.Go(0, [&] { second_started = h.k().Now(); h.k().Charge(Millis(1)); });
  h.k().Run();
  // The second fiber gets node 0's CPU as soon as the traveler departs.
  EXPECT_EQ(second_started, Millis(1));
}

TEST(KernelTest, ResumeHookRunsAfterPreemption) {
  CostModel cost = FreeCpu();
  cost.quantum = Millis(1);
  Harness h(1, 1, cost);
  int hook_runs = 0;
  h.k().SetResumeHook([&](Fiber*) { ++hook_runs; });
  for (int i = 0; i < 2; ++i) {
    h.Go(0, [&] { h.k().Charge(Millis(3)); });
  }
  h.k().Run();
  EXPECT_GT(hook_runs, 0);
}

TEST(KernelTest, RequestPreemptForcesReschedule) {
  CostModel cost = FreeCpu();
  cost.quantum = Micros(500);  // boundaries often enough to observe the flag
  Harness h(1, 2, cost);
  h.Go(0, [&] {
    // Worker charges in small chunks; each chunk is a preemption opportunity.
    for (int i = 0; i < 100; ++i) {
      h.k().Charge(Micros(100));
    }
  });
  h.Go(0, [&] {
    h.k().Charge(Millis(2));
    h.k().Sync();
    EXPECT_EQ(h.k().RequestPreempt(0), 1);  // flags the worker, not self
  });
  const uint64_t preempts_before = h.k().preemptions();
  h.k().Run();
  EXPECT_GT(h.k().preemptions(), preempts_before);
}

TEST(KernelTest, BusyTimeAccounting) {
  Harness h(2, 2, FreeCpu());
  h.Go(0, [&] { h.k().Charge(Millis(5)); });
  h.Go(0, [&] { h.k().Charge(Millis(3)); });
  h.Go(1, [&] { h.k().Charge(Millis(2)); });
  h.k().Run();
  EXPECT_EQ(h.k().NodeBusyTime(0), Millis(8));
  EXPECT_EQ(h.k().NodeBusyTime(1), Millis(2));
}

TEST(KernelTest, SpawnFromFiber) {
  Harness h(1, 2, FreeCpu());
  Time child_ran_at = -1;
  h.Go(0, [&] {
    h.k().Charge(Millis(2));
    h.k().Sync();
    h.Go(0, [&] { child_ran_at = h.k().Now(); });
  });
  h.k().Run();
  EXPECT_EQ(child_ran_at, Millis(2));
}

TEST(KernelTest, OnExitRunsBeforeTeardown) {
  Harness h(1, 1, FreeCpu());
  bool exited = false;
  Fiber* f = h.Go(0, [&] { h.k().Charge(Millis(1)); });
  f->on_exit = [&] { exited = true; };
  h.k().Run();
  EXPECT_TRUE(exited);
  EXPECT_EQ(f->state, FiberState::kFinished);
}

TEST(KernelTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Harness h(4, 2, CostModel{});
    std::vector<std::pair<int, Time>> log;
    for (int i = 0; i < 8; ++i) {
      h.Go(i % 4, [&h, &log, i] {
        for (int r = 0; r < 5; ++r) {
          h.k().Charge(Micros(100 + 37 * i));
          h.k().Sync();
          log.emplace_back(i, h.k().Now());
        }
      });
    }
    h.k().Run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(KernelTest, ContextSwitchCostCharged) {
  CostModel cost;
  cost.context_switch = Micros(50);
  Harness h(1, 1, cost);
  Time first_seen = -1;
  h.Go(0, [&] { first_seen = h.k().Now(); });
  h.k().Run();
  EXPECT_EQ(first_seen, Micros(50));  // dispatch pays one context switch
}

TEST(KernelTest, ReplaceRunQueueWithPriority) {
  CostModel cost = FreeCpu();
  Harness h(1, 1, cost);
  std::vector<int> order;
  // Spawn a starter that sets up the priority queue, then three children
  // whose priorities invert their spawn order.
  h.Go(0, [&] {
    h.k().SetRunQueue(0, std::make_unique<PriorityRunQueue>());
    h.k().Sync();
    for (int i = 0; i < 3; ++i) {
      Fiber* f = h.Go(0, [&order, i] { order.push_back(i); });
      f->priority = i;  // higher wins
    }
  });
  h.k().Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(KernelTest, DestroyFiberReclaimsRecord) {
  Harness h(1, 1, FreeCpu());
  Fiber* f = h.Go(0, [] {});
  h.k().Run();
  h.k().DestroyFiber(f);  // must not crash; fiber is finished
}

TEST(KernelTest, SecondDispatchRunsBeforeAnotherFibersResume) {
  // Node 0 (two processors) comes up at 1 ms with fibers a and b queued, so
  // one TryDispatch runs both. When a Syncs, the earliest pending event is
  // g's resume key, yet the kernel has not finished: b still waits for the
  // free processor at the same time. b must run before g.
  constexpr Time kUp = Millis(1);
  Harness h(2, 2, FreeCpu());
  std::vector<std::string> log;
  h.k().SetNodeUp(0, false);
  h.Go(0, [&] {
    log.push_back("a");
    h.k().Sync();
    log.push_back("a2");
  });
  h.Go(0, [&] {
    log.push_back("b");
    h.k().Sync();
    log.push_back("b2");
  });
  h.Go(1, [&] {
    h.k().Charge(kUp);
    h.k().Sync();  // runs after the node-up event below posts TryDispatch
    h.k().Sync();  // so this key (1 ms) sorts after it, before a's
    log.push_back("g");
  });
  h.k().Post(kUp, [&] { h.k().SetNodeUp(0, true); });
  h.k().Run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "g", "a2", "b2"}));
  EXPECT_EQ(h.k().dispatches(), 3u);
}

TEST(EventQueueTest, OrdersByTimeThenSequence) {
  EventQueue q;
  std::vector<int> order;
  q.Post(10, [&] { order.push_back(1); });
  q.Post(5, [&] { order.push_back(0); });
  q.Post(10, [&] { order.push_back(2); });  // same time: FIFO by sequence
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), 10);
}

TEST(EventQueueTest, EventsCanPostEvents) {
  EventQueue q;
  int runs = 0;
  std::function<void()> chain = [&] {
    if (++runs < 5) {
      q.Post(q.now() + 1, chain);
    }
  };
  q.Post(0, chain);
  while (q.RunOne()) {
  }
  EXPECT_EQ(runs, 5);
  EXPECT_EQ(q.now(), 4);
}

}  // namespace
}  // namespace sim
