// M1: host-level microbenchmarks (google-benchmark) of the runtime's own
// mechanisms — the costs the *simulator* pays per simulated event, not
// virtual-time results. Useful for keeping the simulation fast enough to
// sweep the paper's parameter space.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/apps/sor/sor.h"
#include "src/kernel/descriptor_table.h"
#include "src/mem/address_space.h"
#include "src/mem/region_server.h"
#include "src/mem/segment_alloc.h"
#include "src/metrics/metrics.h"
#include "src/rpc/wire.h"
#include "src/sim/context.h"
#include "src/sim/event_queue.h"
#include "src/sim/kernel.h"
#include "src/sim/stack_pool.h"

namespace {

// --- Context switching -------------------------------------------------------

struct SwitchPair {
  sim::Context main_ctx;
  sim::Context fiber_ctx;
};
SwitchPair* g_pair = nullptr;

void SwitchEntry(void*) {
  for (;;) {
    sim::Context::Switch(&g_pair->fiber_ctx, &g_pair->main_ctx);
  }
}

void BM_ContextSwitch(benchmark::State& state) {
  sim::StackPool pool(64 * 1024);
  SwitchPair pair;
  g_pair = &pair;
  void* stack = pool.Allocate();
  pair.fiber_ctx.Init(stack, pool.stack_size(), &SwitchEntry, nullptr);
  for (auto _ : state) {
    sim::Context::Switch(&pair.main_ctx, &pair.fiber_ctx);  // there and back
  }
  pool.Free(stack);
  g_pair = nullptr;
  state.SetItemsProcessed(state.iterations() * 2);  // two switches per round
}
BENCHMARK(BM_ContextSwitch);

// --- Event queue ---------------------------------------------------------------

void BM_EventQueuePostRun(benchmark::State& state) {
  sim::EventQueue q;
  int64_t sink = 0;
  amber::Time t = 0;
  for (auto _ : state) {
    q.Post(++t, [&sink] { ++sink; });
    q.RunOne();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueuePostRun);

void BM_EventQueueDepth1000(benchmark::State& state) {
  int64_t sink = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.Post(1000 - i, [&sink] { ++sink; });
    }
    state.ResumeTiming();
    while (q.RunOne()) {
    }
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueDepth1000);

// Post+run at a steady depth of 64 with the capture sizes the simulator
// posts most: 16 bytes (Sync), 32 (Wake), 40 (ReleaseProcessor) and 64
// (the fault-checked net delivery).
void BM_EventQueueMixedCaptures(benchmark::State& state) {
  sim::EventQueue q;
  uint64_t sink = 0;
  uint64_t i = 0;
  auto post = [&] {
    const amber::Time t = q.now() + 1 + static_cast<amber::Time>((i * 37) % 64);
    switch (i++ % 4) {
      case 0: {
        const std::array<uint64_t, 1> w{i};
        q.Post(t, [&sink, w] { sink += w[0]; });
        break;
      }
      case 1: {
        const std::array<uint64_t, 3> w{i, 1, 2};
        q.Post(t, [&sink, w] { sink += w[0] + w[2]; });
        break;
      }
      case 2: {
        const std::array<uint64_t, 4> w{i, 1, 2, 3};
        q.Post(t, [&sink, w] { sink += w[0] + w[3]; });
        break;
      }
      default: {
        const std::array<uint64_t, 7> w{i, 1, 2, 3, 4, 5, 6};
        q.Post(t, [&sink, w] { sink += w[0] + w[6]; });
        break;
      }
    }
  };
  for (int k = 0; k < 64; ++k) {
    post();
  }
  for (auto _ : state) {
    post();
    q.RunOne();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueMixedCaptures);

// --- SOR row sweep ----------------------------------------------------------------

// One colour of one paper-width row of a section strip (rows of width + 2
// doubles, one ghost column each side, as Section stores them): the
// per-column parity loop the solvers used before, indexing through At()
// (arg 0), against the shared strided kernel (arg 1). The width comes from
// the benchmark argument so nothing is folded at compile time.
void BM_SorSweepRow(benchmark::State& state) {
  const bool strided = state.range(0) == 1;
  const int cols = static_cast<int>(state.range(1));
  const int col0 = 0;
  const int width = cols;
  const double omega = 1.5;
  const size_t stride = static_cast<size_t>(width + 2);
  std::vector<double> strip(3 * stride);
  for (size_t i = 0; i < strip.size(); ++i) {
    strip[i] = static_cast<double>(i % 97);
  }
  auto at = [&](int r, int c) -> double& {
    return strip[static_cast<size_t>(r) * stride + static_cast<size_t>(c + 1)];
  };
  int color = 0;
  double delta = 0.0;
  int64_t updated = 0;
  for (auto _ : state) {
    if (strided) {
      updated += sor::SweepRow(&at(1, 0), &at(0, 0), &at(2, 0), 1, col0, cols, 0, width - 1,
                               color, omega, &delta);
    } else {
      for (int c = 0; c <= width - 1; ++c) {
        const int gc = col0 + c;
        if (!(gc >= 1 && gc <= cols - 2) || (1 + gc) % 2 != color) {
          continue;
        }
        const double old = at(1, c);
        const double next = sor::Relax(old, at(0, c), at(2, c), at(1, c - 1), at(1, c + 1), omega);
        at(1, c) = next;
        delta = std::max(delta, std::fabs(next - old));
        ++updated;
      }
    }
    color ^= 1;
    benchmark::DoNotOptimize(strip.data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(delta);
  state.SetItemsProcessed(updated);
}
BENCHMARK(BM_SorSweepRow)->Args({0, 842})->Args({1, 842});

// --- Descriptor table -------------------------------------------------------------

void BM_DescriptorLookup(benchmark::State& state) {
  amber::DescriptorTable table(0);
  std::vector<int> objects(1024);
  for (int& o : objects) {
    table.SetResident(&o);
  }
  size_t i = 0;
  for (auto _ : state) {
    auto d = table.Lookup(&objects[i++ & 1023]);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DescriptorLookup);

// The same lookup at cluster scale: 256 node tables of 4,096 densely packed
// objects each (churn's shape), read in a fixed pseudo-random order so
// nearly every lookup misses the cache, as it does in a 1M-object run.
void BM_DescriptorLookupCold(benchmark::State& state) {
  constexpr size_t kTables = 256;
  constexpr size_t kPerTable = 4096;
  struct Cluster {
    std::vector<uint64_t> objects = std::vector<uint64_t>(kTables * kPerTable);
    std::vector<std::unique_ptr<amber::DescriptorTable>> tables;
    Cluster() {
      for (size_t t = 0; t < kTables; ++t) {
        const auto node = static_cast<amber::NodeId>(t);
        tables.push_back(std::make_unique<amber::DescriptorTable>(node));
        for (size_t k = 0; k < kPerTable; ++k) {
          tables[t]->SetResident(&objects[t * kPerTable + k]);
        }
      }
    }
  };
  static Cluster cluster;  // built once: google-benchmark re-enters this function
  uint64_t x = 1;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const size_t t = static_cast<size_t>(x >> 56);
    const size_t k = static_cast<size_t>(x >> 44) & (kPerTable - 1);
    auto d = cluster.tables[t]->Lookup(&cluster.objects[t * kPerTable + k]);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DescriptorLookupCold);

// --- Metrics registry ------------------------------------------------------------------

// A registry holding the families the runtime pre-registers for 8 nodes.
// Records are spread over the 8 per-node instances of one family; the
// iteration count is fixed because every record retains its sample.
constexpr int kMetricNodes = 8;
constexpr int64_t kRecordIterations = 4'000'000;

void FillRegistry(metrics::Registry* reg) {
  for (int n = 0; n < kMetricNodes; ++n) {
    for (const char* name : {"amber.invoke.latency.local", "amber.invoke.latency.remote",
                             "sched.runqueue.wait", "sched.runqueue.depth", "sync.lock.wait",
                             "rpc.roundtrip.latency"}) {
      reg->GetHistogram(name, n);
    }
  }
}

// Looks the instance up by name and node label on every record.
void BM_HistogramRecordByName(benchmark::State& state) {
  metrics::Registry reg;
  FillRegistry(&reg);
  int i = 0;
  for (auto _ : state) {
    reg.GetHistogram("sched.runqueue.wait", i & (kMetricNodes - 1)).Record(i);
    ++i;
  }
}
BENCHMARK(BM_HistogramRecordByName)->Iterations(kRecordIterations);

// Records through instances resolved once (metrics::Registry::Resolve).
void BM_HistogramRecordHandle(benchmark::State& state) {
  metrics::Registry reg;
  FillRegistry(&reg);
  std::array<metrics::Histogram*, kMetricNodes> handles{};
  for (int n = 0; n < kMetricNodes; ++n) {
    reg.Resolve(handles[static_cast<size_t>(n)], [&]() -> metrics::Histogram& {
      return reg.GetHistogram("sched.runqueue.wait", n);
    });
  }
  int i = 0;
  for (auto _ : state) {
    handles[static_cast<size_t>(i & (kMetricNodes - 1))]->Record(i);
    ++i;
  }
}
BENCHMARK(BM_HistogramRecordHandle)->Iterations(kRecordIterations);

// --- Segment allocator --------------------------------------------------------------

void BM_SegmentAllocFree(benchmark::State& state) {
  mem::GlobalAddressSpace gas(size_t{64} << 20);
  mem::RegionServer server(&gas, 1, 16);
  mem::SegmentAllocator alloc(&gas, 0);
  for (int r = 0; r < 16; ++r) {
    alloc.AddRegion(r);
  }
  for (auto _ : state) {
    void* p = alloc.Allocate(128);
    benchmark::DoNotOptimize(p);
    alloc.Free(p);
  }
}
BENCHMARK(BM_SegmentAllocFree);

// --- Wire serialization ----------------------------------------------------------------

void BM_WireRoundTrip(benchmark::State& state) {
  std::vector<double> row(122, 3.25);
  for (auto _ : state) {
    rpc::WireBuffer w;
    w.PutU64(42);
    w.PutBytes(row.data(), row.size() * sizeof(double));
    auto bytes = w.GetU64();
    auto blob = w.GetBytes();
    benchmark::DoNotOptimize(bytes);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(row.size() * sizeof(double)));
}
BENCHMARK(BM_WireRoundTrip);

void BM_WireChecksum1K(benchmark::State& state) {
  rpc::WireBuffer w;
  std::vector<uint8_t> blob(1024, 0x5a);
  w.PutBytes(blob.data(), blob.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.Checksum());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_WireChecksum1K);

// --- Whole-kernel throughput -------------------------------------------------------------

void BM_KernelFiberChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Kernel::Config config;
    config.nodes = 4;
    config.procs_per_node = 2;
    sim::Kernel kernel(config);
    sim::StackPool pool(32 * 1024);
    std::vector<void*> stacks;
    for (int i = 0; i < 32; ++i) {
      void* stack = pool.Allocate();
      stacks.push_back(stack);
      kernel.Spawn(i % 4, stack, pool.stack_size(), [&kernel] {
        for (int r = 0; r < 10; ++r) {
          kernel.Charge(amber::Micros(100));
          kernel.Sync();
        }
      });
    }
    kernel.Run();
    for (void* s : stacks) {
      pool.Free(s);
    }
  }
  state.SetItemsProcessed(state.iterations() * 32 * 10);  // sync events
}
BENCHMARK(BM_KernelFiberChurn);

}  // namespace

BENCHMARK_MAIN();
