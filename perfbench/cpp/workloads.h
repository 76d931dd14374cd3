// Entry points of the three workloads and the probes every run shares.
// Each writes its raw results into the record run.py turns into metrics.

#ifndef PERFBENCH_CPP_WORKLOADS_H_
#define PERFBENCH_CPP_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/cpp/common.h"
#include "src/apps/sor/sor.h"

namespace perfbench {

// What a workload's timed phase produced.
struct Phase {
  std::vector<int64_t> setup_ns;  // one per runtime set up
  std::vector<int64_t> round_ops;
  std::vector<int64_t> round_ns;
  double virt_s = 0;  // virtual seconds of the first round
  int64_t first_round_ops = 0;
  Counts counts;  // exact, first round
  // Host memory: this program's peak RSS when its first round had ended,
  // and the RSS left after each round (churn: each runtime) once its
  // runtimes were destroyed.
  int64_t peak_rss_first_round = 0;
  std::vector<int64_t> rss_after_round;
};

// --- Fidelity probe: the paper's Table 1 and its 8Nx4P SOR speedup ----------

struct Table1 {
  double create_ms = 0;
  double local_invoke_ms = 0;
  double remote_invoke_ms = 0;
  double move_ms = 0;
  double thread_start_join_ms = 0;
};

// The paper's Red/Black SOR: 122 x 842, 8 sections, overlap on.
sor::Params PaperSorParams();
amber::Runtime::Config SorConfig();  // 8 nodes x 4 processors

struct Fidelity {
  Table1 table1;
  amber::Time parallel_ns = 0;    // 8Nx4P solve, virtual
  amber::Time sequential_ns = 0;  // 1x1 baseline of the same length, virtual
  uint64_t parallel_hash = 0;
  uint64_t sequential_hash = 0;
};
// Pairs an 8Nx4P solve and its sequential baseline with the five Table 1
// operations, measured through the public API the way the paper describes
// them (light load, 4 CPUs per node, one-hop forwarding).
Fidelity MeasureFidelity(const sor::Result& parallel, const sor::Result& sequential);
void WriteFidelity(JsonWriter& w, const Fidelity& f);

// --- serve: open-loop keyed store --------------------------------------------

struct ServeRun {
  std::string label;  // "lo", "hi" or "r<k>" for ladder rungs
  double offered_per_s = 0;
  // Per offered request, in (node, arrival) order: scheduled arrival,
  // latency from that arrival (-1 = refused by admission), and the
  // generator's lag behind schedule when it sent the request.
  std::vector<int64_t> arrival_ns;
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> lag_ns;
  amber::Time virtual_ns = 0;      // summed over the runtimes (replicas)
  uint64_t checksum = 0;           // shard state as the runs left it
  uint64_t expected_checksum = 0;  // replay of the admitted requests
  std::map<std::string, int64_t> rtrace_ns;  // sampled attribution by category
  int64_t rtrace_latency_ns = 0;
  int64_t rtrace_traces = 0;
  bool attribution_closes = true;
  Counts counts;
  std::vector<int64_t> setup_ns;  // one per runtime
  int64_t timed_ns = 0;

  int64_t offered() const { return static_cast<int64_t>(latency_ns.size()); }
  int64_t rejected() const;
  uint64_t Digest() const;  // every virtual-time result of the run
};

// The fixed-rate runs (lo, hi) followed by the ladder rungs, each on fresh
// runtimes, all driven from `seed`.
std::vector<ServeRun> RunServeRound(uint64_t seed);
void WriteServe(JsonWriter& w, const std::vector<ServeRun>& runs);
void WriteServeParams(JsonWriter& w);

// --- churn: ~1M small objects on hundreds of 1-CPU nodes -------------------

// What set-up cost on the first runtime: construction plus population.
struct ChurnSetup {
  Counts counts;
  int64_t objects = 0;
  int64_t rss_before = 0;  // bytes
  int64_t rss_after = 0;
};
// Sets up several runtimes in turn, each churned for a share of `seconds`.
ChurnSetup RunChurn(uint64_t seed, double seconds, Phase& phase, Checks& checks);
void WriteChurnParams(JsonWriter& w);

// --- Host-cost ledger: isolated unit costs of public layer calls ------------

struct Ledger {
  double sync_roundtrip_ns = 0;
  double lookup_ns = 0;
  double alloc_free_ns = 0;
  double rpc_send_ns = 0;
};
Ledger MeasureLedger();

}  // namespace perfbench

#endif  // PERFBENCH_CPP_WORKLOADS_H_
