// Host-cost ledger: isolated host costs of single public layer calls. run.py
// multiplies each by its exact per-op count and compares the sum with the
// measured host time per op (ledger.explained_pct).

#include <cstdio>

#include "src/core/amber.h"
#include "perfbench/cpp/workloads.h"

namespace perfbench {
namespace {

amber::Runtime::Config Machine(int nodes) {
  amber::Runtime::Config config;
  config.nodes = nodes;
  config.procs_per_node = 1;
  config.arena_bytes = size_t{256} << 20;
  return config;
}

}  // namespace

Ledger MeasureLedger() {
  Ledger ledger;
  {
    // A fiber Sync round trip: fiber -> kernel -> event queue -> fiber.
    constexpr int kSyncs = 200000;
    amber::Runtime rt(Machine(1));
    int64_t ns = 0;
    rt.Run([&] {
      sim::Kernel& k = amber::Runtime::Current().sim();
      const int64_t t0 = NowNs();
      for (int i = 0; i < kSyncs; ++i) {
        k.Sync();
      }
      ns = NowNs() - t0;
    });
    ledger.sync_roundtrip_ns = static_cast<double>(ns) / kSyncs;
  }
  {
    // Descriptor lookups over a node-sized table, and segment allocate+free.
    amber::Runtime rt(Machine(1));
    constexpr int kKeys = 4096;
    constexpr int kLookups = 4000000;
    std::vector<uint64_t> keys(kKeys);
    amber::DescriptorTable& table = rt.table(0);
    for (uint64_t& k : keys) {
      table.SetResident(&k);
    }
    uint64_t sink = 0;
    int64_t t0 = NowNs();
    for (int i = 0; i < kLookups; ++i) {
      const size_t k = (static_cast<size_t>(i) * 2654435761u) % kKeys;
      sink += static_cast<uint64_t>(table.Lookup(&keys[k]).state);
    }
    ledger.lookup_ns = static_cast<double>(NowNs() - t0) / kLookups;

    constexpr int kBatch = 256;
    constexpr int kBatches = 4000;
    mem::SegmentAllocator& alloc = rt.allocator(0);
    std::vector<void*> live(kBatch);
    t0 = NowNs();
    for (int b = 0; b < kBatches; ++b) {
      for (void*& p : live) {
        p = alloc.Allocate(48);
      }
      for (void* p : live) {
        sink += reinterpret_cast<uintptr_t>(p) & 1;
        alloc.Free(p);
      }
    }
    ledger.alloc_free_ns = static_cast<double>(NowNs() - t0) / (kBatch * kBatches);
    if (sink == 42) {
      std::fputc(' ', stderr);  // keeps the timed loops observable
    }
  }
  {
    // One small rpc send, including its delivery on the destination node.
    constexpr int kSends = 20000;
    amber::Runtime rt(Machine(2));
    const int64_t t0 = NowNs();
    rt.Run([&] {
      rpc::Transport& t = amber::Runtime::Current().transport();
      for (int i = 0; i < kSends; ++i) {
        t.Send(1, 64);
      }
    });
    ledger.rpc_send_ns = static_cast<double>(NowNs() - t0) / kSends;
  }
  return ledger;
}

}  // namespace perfbench
