// Ablation A4 (§4.1): distributed synchronization — function shipping vs
// data shipping.
//
// N nodes repeatedly acquire one shared lock and update data it protects.
//
//   * Amber: the lock is an object; Acquire is a remote invocation that
//     ships the calling thread to the lock's node (function shipping).
//   * DSM, lock-in-page: the lock word and the protected data live in a
//     shared page; test-and-set polling ping-pongs the page between nodes —
//     "references to a shared lock variable can cause a data-shipping
//     system to thrash".
//   * DSM, RPC lock: the fix Ivy adopted — "recent versions of Ivy have
//     handled this problem by deviating from the data-shipping model and
//     accessing shared lock variables with remote procedure calls" — but
//     the protected *data* page still bounces.

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/amber.h"
#include "src/dsm/dsm.h"
#include "src/fdr/fdr.h"
#include "src/prof/profiler.h"

namespace {

constexpr int kNodes = 4;
constexpr int kRoundsPerNode = 16;

struct Outcome {
  double total_ms;
  int64_t messages;
  int64_t kb;
  int64_t transfers;  // page transfers (DSM) or thread migrations (Amber)
};

Outcome RunAmberLock() {
  using namespace amber;
  class Protected : public Object {
   public:
    void Update() {
      lock_.Acquire();
      const int v = value_;
      Work(kMicrosecond * 200);
      value_ = v + 1;
      lock_.Release();
    }
    int value() const { return value_; }

   private:
    Lock lock_;  // member object: co-resident with the data it protects
    int value_ = 0;
  };
  class NodeWorker : public Object {
   public:
    int Run(Ref<Protected> p, int rounds) {
      for (int i = 0; i < rounds; ++i) {
        p.Call(&Protected::Update);  // thread ships to the data
        Work(kMicrosecond * 500);    // think time at home
      }
      return rounds;
    }
  };
  Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = 2;
  Runtime rt(config);
  metrics::Registry registry;
  fdr::Recorder log({.name = "lock_thrash", .ring_capacity = SIZE_MAX});
  rt.SetMetrics(&registry);  // lock wait/hold times land in sync.* histograms
  rt.AddObserver(&log);
  Outcome out{};
  Time virtual_time = 0;
  rt.Run([&] {
    auto prot = New<Protected>();
    MoveTo(prot, 1);
    std::vector<Ref<NodeWorker>> workers;
    for (NodeId n = 0; n < kNodes; ++n) {
      workers.push_back(NewOn<NodeWorker>(n));
    }
    const Time t0 = Now();
    const int64_t migr0 = rt.thread_migrations();
    std::vector<ThreadRef<int>> ts;
    for (auto& w : workers) {
      ts.push_back(StartThread(w, &NodeWorker::Run, prot, kRoundsPerNode));
    }
    for (auto& t : ts) {
      t.Join();
    }
    out.total_ms = ToMillis(Now() - t0);
    out.transfers = rt.thread_migrations() - migr0;
    virtual_time = Now() - t0;
    if (prot.Call(&Protected::value) != kNodes * kRoundsPerNode) {
      std::printf("ERROR: amber lock lost updates\n");
    }
  });
  out.messages = rt.network().messages();
  out.kb = rt.network().bytes_sent() / 1024;

  benchutil::BenchJson json("lock_thrash");
  json.Config("nodes", int64_t{kNodes});
  json.Config("procs_per_node", int64_t{2});
  json.Config("rounds_per_node", int64_t{kRoundsPerNode});
  json.Write(virtual_time, &registry);

  prof::ProfileReport report = prof::Profile(log);
  report.name = "lock_thrash";
  std::ofstream prof_out("PROF_lock_thrash.json");
  report.WriteJson(prof_out);
  return out;
}

Outcome RunDsmLock(bool lock_in_page) {
  dsm::Machine::Config mc;
  mc.nodes = kNodes;
  mc.procs_per_node = 2;
  mc.shared_bytes = 64 * 1024;
  mc.page_size = 1024;
  dsm::Machine m(mc);
  auto* lock_word = reinterpret_cast<uint64_t*>(m.shared_base());
  auto* value = reinterpret_cast<uint64_t*>(m.shared_base() + 64);  // same page!
  amber::Time t0 = 0;
  amber::Time t1 = 0;
  for (int n = 0; n < kNodes; ++n) {
    m.Spawn(n, [&, n, lock_in_page] {
      m.BarrierWait(kNodes);
      if (n == 0) {
        t0 = m.kernel().Now();
      }
      for (int i = 0; i < kRoundsPerNode; ++i) {
        if (lock_in_page) {
          m.PageLockAcquire(lock_word);
        } else {
          m.RpcLockAcquire(0);
        }
        m.Read(value, 8);
        const uint64_t v = *value;
        m.Work(amber::kMicrosecond * 200);
        m.Write(value, 8);
        *value = v + 1;
        if (lock_in_page) {
          m.PageLockRelease(lock_word);
        } else {
          m.RpcLockRelease(0);
        }
        m.Work(amber::kMicrosecond * 500);
      }
      m.BarrierWait(kNodes);
      if (n == 0) {
        t1 = m.kernel().Now();
      }
    });
  }
  m.Run();
  if (*value != static_cast<uint64_t>(kNodes * kRoundsPerNode)) {
    std::printf("ERROR: dsm lock lost updates (%llu)\n",
                static_cast<unsigned long long>(*value));
  }
  Outcome out{};
  out.total_ms = amber::ToMillis(t1 - t0);
  out.messages = m.network().messages();
  out.kb = m.network().bytes_sent() / 1024;
  out.transfers = m.page_transfers();
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Ablation A4 (par. 4.1): one contended lock, %d nodes x %d acquisitions each\n\n",
      kNodes, kRoundsPerNode);
  benchutil::Table table({"system", "total (ms)", "messages", "KB on wire",
                          "page transfers / thread hops"});
  const Outcome amber_lock = RunAmberLock();
  const Outcome dsm_rpc = RunDsmLock(/*lock_in_page=*/false);
  const Outcome dsm_page = RunDsmLock(/*lock_in_page=*/true);
  table.AddRow({"Amber lock (function shipping)", benchutil::Fmt("%.1f", amber_lock.total_ms),
                std::to_string(amber_lock.messages), std::to_string(amber_lock.kb),
                std::to_string(amber_lock.transfers)});
  table.AddRow({"Ivy RPC lock (hybrid)", benchutil::Fmt("%.1f", dsm_rpc.total_ms),
                std::to_string(dsm_rpc.messages), std::to_string(dsm_rpc.kb),
                std::to_string(dsm_rpc.transfers)});
  table.AddRow({"Ivy lock-in-page (data shipping)", benchutil::Fmt("%.1f", dsm_page.total_ms),
                std::to_string(dsm_page.messages), std::to_string(dsm_page.kb),
                std::to_string(dsm_page.transfers)});
  table.Print();
  std::printf(
      "\nExpected shape: lock-in-page generates the most wire traffic (the lock page\n"
      "ping-pongs); the RPC lock fixes the lock word but still bounces the *data*\n"
      "page — and because its FIFO grant rotates fairly across nodes, the data page\n"
      "moves on nearly every handoff (an unfair page lock batches by owner, trading\n"
      "fairness for locality). Amber ships the thread to lock and data together and\n"
      "wins on every axis (par. 4.1).\n");
  return 0;
}
