// Host allocations on the instrumented invocation path.
//
// This binary replaces the global operator new/delete with counting
// versions, so it measures exactly the heap allocations C++ code makes
// between two points. With a metrics registry and an observer attached, a
// local invocation records its latency through a metric instance resolved
// when the registry was attached and labels its observer event from a
// per-type cache, so once warm it allocates nothing. Neither does a remote
// round trip (two thread migrations): the event queue holds closures of up
// to 64 bytes in place, and each thread keeps its residency-chase scratch.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/core/amber.h"
#include "src/metrics/metrics.h"

namespace {

int64_t g_allocs = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace amber {
namespace {

constexpr int kWarmup = 2000;
constexpr int kLocalCalls = 20000;
constexpr int kRemoteCalls = 2000;

class Counter : public Object {
 public:
  int Bump() { return ++value_; }

 private:
  int value_ = 0;
};

// Allocation counts taken inside the worker thread, around its call loops.
struct Counts {
  int64_t local = 0;
  int64_t remote = 0;
};

class Worker : public Object {
 public:
  int Loop(Ref<Counter> near, Ref<Counter> far, Counts* out) {
    for (int i = 0; i < kWarmup; ++i) {
      near.Call(&Counter::Bump);
      far.Call(&Counter::Bump);
    }
    const int64_t before_local = g_allocs;
    for (int i = 0; i < kLocalCalls; ++i) {
      near.Call(&Counter::Bump);
    }
    out->local = g_allocs - before_local;
    const int64_t before_remote = g_allocs;
    for (int i = 0; i < kRemoteCalls; ++i) {
      far.Call(&Counter::Bump);
    }
    out->remote = g_allocs - before_remote;
    return 0;
  }
};

class NoopObserver : public RuntimeObserver {};

TEST(AllocCountTest, InstrumentedLocalInvocationDoesNotAllocate) {
  Runtime::Config c;
  c.nodes = 4;
  c.procs_per_node = 1;
  c.arena_bytes = size_t{64} << 20;
  Runtime rt(c);
  metrics::Registry registry;
  NoopObserver observer;
  rt.SetMetrics(&registry);
  rt.AddObserver(&observer);
  Counts counts;
  rt.Run([&] {
    auto near = NewOn<Counter>(1);
    auto far = NewOn<Counter>(2);
    auto worker = NewOn<Worker>(1);
    StartThread(worker, &Worker::Loop, near, far, &counts).Join();
  });
  std::printf("allocations: %.4f per local invocation (%lld over %d), "
              "%.4f per remote round trip (%lld over %d)\n",
              static_cast<double>(counts.local) / kLocalCalls,
              static_cast<long long>(counts.local), kLocalCalls,
              static_cast<double>(counts.remote) / kRemoteCalls,
              static_cast<long long>(counts.remote), kRemoteCalls);
  EXPECT_LE(static_cast<double>(counts.local) / kLocalCalls, 0.01);
  EXPECT_LE(static_cast<double>(counts.remote) / kRemoteCalls, 0.1);
  EXPECT_EQ(registry.FindHistograms("amber.invoke.latency.local")->at("node1").count(),
            kWarmup + kLocalCalls + 1);
}

}  // namespace
}  // namespace amber
