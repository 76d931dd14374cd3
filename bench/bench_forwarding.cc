// Ablation A1 (§3.3): cost of locating a mobile object through a forwarding
// chain, and the effect of path compaction.
//
// An object is moved k times (leaving a forwarding address on each node it
// departs); a thread with a stale descriptor then invokes it. The first
// invocation pays one thread hop per chain link; because every node along
// the chain caches the final location, the second invocation is a single
// direct hop regardless of k — the paper's "the object can be located
// quickly on subsequent references". Exits nonzero unless, for every k, the
// first call takes k + 1 hops, the second takes 2, and the first call's time
// rises with k.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/amber.h"

namespace {

using namespace amber;

class Target : public Object {
 public:
  int Poke() { return ++pokes_; }

 private:
  int pokes_ = 0;
};

// Anchor so remote invocations return to node 0.
class Driver : public Object {
 public:
  double TimeCall(Ref<Target> t) {
    const Time t0 = Now();
    t.Call(&Target::Poke);
    return ToMillis(Now() - t0);
  }
};

}  // namespace

int main() {
  std::printf("Ablation A1 (par. 3.3): locate cost vs forwarding-chain length\n\n");
  bool ok = true;
  double prev_first_ms = 0;
  benchutil::Table table({"chain length", "first call (ms)", "second call (ms)",
                          "thread hops first", "thread hops second"});
  for (int k = 1; k <= 6; ++k) {
    Runtime::Config config;
    config.nodes = 8;
    config.procs_per_node = 1;
    Runtime rt(config);
    double first_ms = 0;
    double second_ms = 0;
    int64_t hops_first = 0;
    int64_t hops_second = 0;
    rt.Run([&] {
      auto d = New<Driver>();
      auto t = New<Target>();
      d.Call(&Driver::TimeCall, t);  // node 0 learns the location directly
      // Build a chain of length k: each move leaves a forwarding address;
      // node 0's hint still points at the first stop.
      for (int i = 1; i <= k; ++i) {
        MoveTo(t, static_cast<NodeId>(i));
      }
      // The explicit moves above were requested from node 0, which learns
      // each new location; make the local hint stale again by resetting it
      // to the chain head (simulating a reference held since the first
      // move — e.g. passed to us by another node).
      rt.table(0).SetForward(t.unchecked(), 1);
      const int64_t migr0 = rt.thread_migrations();
      first_ms = d.Call(&Driver::TimeCall, t);
      hops_first = rt.thread_migrations() - migr0;
      second_ms = d.Call(&Driver::TimeCall, t);
      hops_second = rt.thread_migrations() - migr0 - hops_first;
    });
    table.AddRow({std::to_string(k), benchutil::Fmt("%.2f", first_ms),
                  benchutil::Fmt("%.2f", second_ms), std::to_string(hops_first),
                  std::to_string(hops_second)});
    if (hops_first != k + 1 || hops_second != 2 || first_ms <= prev_first_ms) {
      std::printf("ERROR: chain length %d: first call %lld hops in %.2f ms (previous %.2f ms), "
                  "second call %lld hops; expected %d, a rising time, and 2\n",
                  k, static_cast<long long>(hops_first), first_ms, prev_first_ms,
                  static_cast<long long>(hops_second), k + 1);
      ok = false;
    }
    prev_first_ms = first_ms;
  }
  table.Print();
  std::printf(
      "\nFirst call cost grows linearly with chain length (one thread hop per link);\n"
      "after path compaction the second call is a constant two hops (there and back).\n");
  return ok ? 0 : 1;
}
