// Additional simulator-layer tests: spin primitives, deadlock detection,
// scheduler replacement with queued fibers, travel edge cases, the event
// queue (introspection, closure storage, and a differential run against a
// std::priority_queue reference), and cost-model arithmetic.

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <tuple>
#include <vector>

#include "src/base/time.h"
#include "src/sim/cost_model.h"
#include "src/sim/kernel.h"
#include "src/sim/stack_pool.h"

namespace sim {
namespace {

using amber::Micros;
using amber::Millis;
using amber::Time;

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
    return kernel_->Spawn(node, stack, pool_.stack_size(), std::move(fn), std::move(name));
  }
  Kernel& k() { return *kernel_; }

 private:
  StackPool pool_;
  std::unique_ptr<Kernel> kernel_;
};

CostModel FreeCpu() {
  CostModel c;
  c.context_switch = 0;
  c.preempt_ipi = 0;
  return c;
}

TEST(SpinTest, SpinWaitHoldsProcessorUntilResumed) {
  Harness h(1, 2, FreeCpu());
  Fiber* spinner = nullptr;
  Time resumed_at = -1;
  Time third_ran_at = -1;
  spinner = h.Go(0, [&] {
    h.k().Sync();
    h.k().SpinWait();
    resumed_at = h.k().Now();
  });
  h.Go(0, [&] {
    h.k().Charge(Millis(3));
    h.k().Sync();
    h.k().SpinResume(spinner, h.k().Now());
  });
  h.Go(0, [&] { third_ran_at = h.k().Now(); });  // must wait for a CPU
  h.k().Run();
  EXPECT_EQ(resumed_at, Millis(3));
  // The third fiber could not start while the spinner held its processor.
  EXPECT_GE(third_ran_at, Millis(3));
}

TEST(SpinTest, SpinResumeAdvancesVirtualTime) {
  Harness h(1, 2, FreeCpu());
  Fiber* spinner = nullptr;
  Time woke = -1;
  spinner = h.Go(0, [&] {
    h.k().Charge(Millis(1));
    h.k().Sync();
    h.k().SpinWait();
    woke = h.k().Now();
  });
  h.Go(0, [&] {
    h.k().Charge(Millis(5));
    h.k().Sync();
    h.k().SpinResume(spinner, h.k().Now() + Micros(2));
  });
  h.k().Run();
  EXPECT_EQ(woke, Millis(5) + Micros(2));
}

TEST(DeadlockTest, LiveFibersReportedWhenQueueDrains) {
  Harness h(1, 1, FreeCpu());
  h.Go(0, [&] {
    h.k().Sync();
    h.k().Block();  // nobody will wake us
    ADD_FAILURE() << "blocked fiber should never resume";
  });
  h.k().Run();
  EXPECT_EQ(h.k().live_fibers(), 1);
}

TEST(DeadlockTest, CleanRunHasNoLiveFibers) {
  Harness h(2, 2, FreeCpu());
  for (int i = 0; i < 6; ++i) {
    h.Go(i % 2, [&] { h.k().Charge(Millis(1)); });
  }
  h.k().Run();
  EXPECT_EQ(h.k().live_fibers(), 0);
}

TEST(SchedulerTest, ReplacementTransfersQueuedFibers) {
  Harness h(1, 1, FreeCpu());
  std::vector<int> order;
  h.Go(0, [&] {
    // Queue three children behind us (single CPU), then swap in a priority
    // policy: they must all still run, the latest (highest priority) first.
    for (int i = 0; i < 3; ++i) {
      h.Go(0, [&order, i] { order.push_back(i); })->priority = i;
    }
    h.k().Sync();  // let the spawn events enqueue them (FIFO ignores priority)
    h.k().SetRunQueue(0, std::make_unique<PriorityRunQueue>());
  });
  h.k().Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(RunQueueTest, RemoveExtractsSpecificFiber) {
  FifoRunQueue q;
  Fiber a;
  Fiber b;
  Fiber c;
  q.Enqueue(&a);
  q.Enqueue(&b);
  q.Enqueue(&c);
  EXPECT_TRUE(q.Remove(&b));
  EXPECT_FALSE(q.Remove(&b));
  EXPECT_EQ(q.Dequeue(), &a);
  EXPECT_EQ(q.Dequeue(), &c);
  EXPECT_EQ(q.Dequeue(), nullptr);
}

TEST(RunQueueTest, PriorityTiesAreFifo) {
  PriorityRunQueue q;
  Fiber a;
  Fiber b;
  a.priority = 5;
  b.priority = 5;
  q.Enqueue(&a);
  q.Enqueue(&b);
  EXPECT_EQ(q.Dequeue(), &a);
  EXPECT_EQ(q.Dequeue(), &b);
}

TEST(TravelTest, BackAndForthManyTimes) {
  Harness h(2, 1, FreeCpu());
  int arrivals = 0;
  h.Go(0, [&] {
    for (int i = 0; i < 20; ++i) {
      h.k().Sync();
      h.k().TravelTo(1 - h.k().current()->node, h.k().Now() + Micros(100));
      ++arrivals;
    }
  });
  h.k().Run();
  EXPECT_EQ(arrivals, 20);
}

TEST(TravelTest, TwoTravelersInterleave) {
  Harness h(3, 1, FreeCpu());
  std::vector<std::pair<int, NodeId>> log;
  for (int id = 0; id < 2; ++id) {
    h.Go(id, [&, id] {
      for (int i = 0; i < 3; ++i) {
        h.k().Charge(Micros(50));
        h.k().Sync();
        h.k().TravelTo(2, h.k().Now() + Micros(200));
        log.emplace_back(id, h.k().current()->node);
        h.k().Sync();
        h.k().TravelTo(id, h.k().Now() + Micros(200));
      }
    });
  }
  h.k().Run();
  EXPECT_EQ(log.size(), 6u);
  for (const auto& [id, node] : log) {
    EXPECT_EQ(node, 2);
  }
}

TEST(EventQueueTest, NextTimePeeksEarliest) {
  EventQueue q;
  q.Post(50, [] {});
  q.Post(10, [] {});
  EXPECT_EQ(q.NextTime(), 10);
  EXPECT_EQ(q.Size(), 2u);
  q.RunOne();
  EXPECT_EQ(q.NextTime(), 50);
}

// The event queue as it was before slots and the 4-ary heap: a
// std::priority_queue of std::function events with the same contract. The
// differential test below holds EventQueue to it.
class ReferenceQueue {
 public:
  void Post(Time t, std::function<void()> fn) { heap_.push(Event{t, next_seq_++, std::move(fn)}); }
  bool RunOne() {
    if (heap_.empty()) {
      return false;
    }
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = ev.when;
    ev.fn();
    return true;
  }
  Time now() const { return now_; }
  size_t Size() const { return heap_.size(); }
  uint64_t events_run() const { return next_seq_ - heap_.size(); }

 private:
  struct Event {
    Time when;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  Time now_ = 0;
  uint64_t next_seq_ = 0;
};

uint64_t Mix(uint64_t x) {  // splitmix64's finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A fixed-seed event program run on any queue with EventQueue's interface.
// The host posts bursts between runs; every event checks its capture, logs
// what it saw, and posts 0-2 children from inside itself. Delays are mostly
// 0-3 ns, so many events share a timestamp. Captures are 16, 32, 40 and 64
// bytes (inline) or 104 bytes (boxed), mixed, so freed slots are reused by
// closures of other sizes.
struct Entry {  // what one event saw while it ran
  uint64_t id;
  Time now;
  uint64_t events_run;
  size_t size;
  bool operator==(const Entry& o) const {
    return std::tie(id, now, events_run, size) == std::tie(o.id, o.now, o.events_run, o.size);
  }
};

template <typename Queue>
class Program {
 public:
  std::vector<Entry> Run(uint64_t seed, uint64_t min_posts) {
    std::mt19937_64 rng(seed);
    while (posts_ < min_posts) {
      for (int burst = static_cast<int>(rng() % 4); burst > 0; --burst) {
        Post(q_.now() + Delay(rng()));
      }
      for (int steps = static_cast<int>(rng() % 6); steps > 0; --steps) {
        q_.RunOne();
      }
    }
    while (q_.RunOne()) {
    }
    return std::move(log_);
  }
  uint64_t posts() const { return posts_; }
  bool captures_intact() const { return captures_intact_; }

 private:
  static Duration Delay(uint64_t h) {
    static constexpr Duration kDelays[] = {0, 0, 0, 1, 1, 2, 3, 3, 40, 1000};
    return kDelays[h % 10];
  }

  void Post(Time when) {
    const uint64_t id = next_id_++;
    ++posts_;
    switch (Mix(id) % 5) {
      case 0: PostSized<1>(when, id); break;
      case 1: PostSized<3>(when, id); break;
      case 2: PostSized<4>(when, id); break;
      case 3: PostSized<7>(when, id); break;
      default: PostSized<12>(when, id); break;
    }
  }

  template <size_t N>
  void PostSized(Time when, uint64_t id) {
    std::array<uint64_t, N> words;
    for (size_t i = 0; i < N; ++i) {
      words[i] = id + i;
    }
    q_.Post(when, [this, words] { Ran(words.data(), N); });
  }

  void Ran(const uint64_t* words, size_t n) {
    const uint64_t id = words[0];
    for (size_t i = 0; i < n; ++i) {
      captures_intact_ = captures_intact_ && words[i] == id + i;
    }
    log_.push_back(Entry{id, q_.now(), q_.events_run(), q_.Size()});
    const uint64_t h = Mix(id ^ 0x5eedULL);
    static constexpr int kChildren[] = {0, 0, 1, 1, 2};
    for (int k = 0; k < kChildren[h % 5]; ++k) {
      Post(q_.now() + Delay(h >> (8 + 8 * k)));
    }
  }

  Queue q_;
  std::vector<Entry> log_;
  uint64_t next_id_ = 0;
  uint64_t posts_ = 0;
  bool captures_intact_ = true;
};

TEST(EventQueueTest, MatchesPriorityQueueReferenceOnAFixedSeedProgram) {
  constexpr uint64_t kSeed = 20260418;
  constexpr uint64_t kMinPosts = 100000;
  Program<EventQueue> real;
  Program<ReferenceQueue> ref;
  const auto got = real.Run(kSeed, kMinPosts);
  const auto want = ref.Run(kSeed, kMinPosts);
  EXPECT_TRUE(real.captures_intact());
  EXPECT_TRUE(ref.captures_intact());
  ASSERT_GE(real.posts(), kMinPosts);
  ASSERT_EQ(real.posts(), ref.posts());
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), real.posts()) << "every posted event runs exactly once";
  size_t ties = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i] == want[i]) << "first divergence at event " << i << ": id " << got[i].id
                                   << " vs " << want[i].id << ", now " << got[i].now << " vs "
                                   << want[i].now;
    ties += i > 0 && got[i].now == got[i - 1].now;
  }
  EXPECT_GT(ties, got.size() / 4) << "the program should exercise same-time ordering";
}

// Counts live copies, so a leaked or doubly destroyed closure shows.
struct Counted {
  explicit Counted(int* alive) : alive(alive) { ++*alive; }
  Counted(const Counted& o) : alive(o.alive) { ++*alive; }
  ~Counted() { --*alive; }
  int* alive;
};

TEST(EventQueueTest, DestroysPendingClosuresExactlyOnce) {
  int alive = 0;
  int ran = 0;
  {
    EventQueue q;
    for (int i = 0; i < 600; ++i) {  // more than one chunk of slots
      const Counted c(&alive);
      if (i % 2 == 0) {
        q.Post(i, [c, &ran] { ++ran; });
      } else {
        const std::array<char, 200> big{};  // boxed
        q.Post(i, [c, big, &ran] { ran += 1 + big[0]; });
      }
    }
    EXPECT_EQ(alive, 600);
    for (int i = 0; i < 250; ++i) {
      q.RunOne();
    }
    EXPECT_EQ(ran, 250);
    EXPECT_EQ(alive, 350);
  }
  EXPECT_EQ(alive, 0) << "~EventQueue must destroy each pending closure once";
  EXPECT_EQ(ran, 250);
}

TEST(EventQueueTest, AcceptsMoveOnlyCaptures) {
  EventQueue q;
  int got = 0;
  q.Post(1, [p = std::make_unique<int>(42), &got] { got += *p; });
  struct Big {
    std::unique_ptr<int> v;
    std::array<char, 128> pad{};
  };
  q.Post(2, [b = Big{std::make_unique<int>(7)}, &got] { got += *b.v; });
  q.Post(3, [p = std::make_unique<int>(1000), &got] { got += *p; });  // destroyed unrun
  while (q.RunOne() && q.now() < 2) {
  }
  EXPECT_EQ(got, 49);
}

TEST(EventQueueTest, RunsCapturesLargerThanASlot) {
  std::array<uint64_t, 32> words;
  static_assert(sizeof(words) > EventQueue::kInlineBytes);
  for (size_t i = 0; i < words.size(); ++i) {
    words[i] = i;
  }
  EventQueue q;
  uint64_t sum = 0;
  for (uint64_t k = 1; k <= 3; ++k) {
    q.Post(static_cast<Time>(k), [words, k, &sum] {
      for (uint64_t w : words) {
        sum += w * k;
      }
    });
  }
  while (q.RunOne()) {
  }
  EXPECT_EQ(sum, 496u * 6);
}

TEST(EventQueueTest, EventsRunCountsTheRunningEvent) {
  EventQueue q;
  std::vector<uint64_t> seen;
  q.Post(5, [&] {
    seen.push_back(q.events_run());
    q.Post(6, [&] { seen.push_back(q.events_run()); });
    seen.push_back(q.events_run());  // a post does not change the count
  });
  q.Post(5, [&] { seen.push_back(q.events_run()); });
  EXPECT_EQ(q.events_run(), 0u);
  while (q.RunOne()) {
  }
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 1, 2, 3}));
  EXPECT_EQ(q.events_run(), 3u);
}

TEST(CostModelTest, WireTimeArithmetic) {
  CostModel c;
  c.bandwidth_bits_per_sec = 10e6;
  c.media_access = Micros(100);
  // 1250 bytes at 10 Mbit/s = exactly 1 ms on the wire + media access.
  EXPECT_EQ(c.WireTime(1250), Millis(1) + Micros(100));
  EXPECT_EQ(c.WireTime(0), Micros(100));
}

TEST(CostModelTest, MarshalCostScalesPerByte) {
  CostModel c;
  c.marshal_base = Micros(100);
  c.marshal_ns_per_byte = 50.0;
  EXPECT_EQ(c.MarshalCost(0), Micros(100));
  EXPECT_EQ(c.MarshalCost(1000), Micros(100) + Micros(50));
}

TEST(CostModelTest, FragmentCount) {
  CostModel c;
  c.mtu_bytes = 1500;
  EXPECT_EQ(c.Fragments(0), 1);
  EXPECT_EQ(c.Fragments(1), 1);
  EXPECT_EQ(c.Fragments(1500), 1);
  EXPECT_EQ(c.Fragments(1501), 2);
  EXPECT_EQ(c.Fragments(4500), 3);
}

TEST(BusyAccountingTest, SpinnersCountAsBusy) {
  Harness h(1, 1, FreeCpu());
  Fiber* spinner = nullptr;
  spinner = h.Go(0, [&] {
    h.k().Sync();
    h.k().SpinWait();
  });
  h.k().Post(Millis(4), [&] { h.k().SpinResume(spinner, Millis(4)); });
  h.k().Run();
  // The processor spun for the whole 4 ms: all of it is busy time.
  EXPECT_GE(h.k().NodeBusyTime(0), Millis(4));
}

}  // namespace
}  // namespace sim
