// amber_perfbench: runs one workload in this process and writes its raw
// record (and, in a traced run, its host-time spans) for run.py.
//
//   amber_perfbench --workload sor|churn|serve --seed N --seconds S
//                   --trace 0|1 --out RECORD.json [--spans SPANS.json]
//
// The timed phase repeats a fixed, seeded round until --seconds have
// passed. Virtual-time results and exact counts come from the first round;
// every later round (or, for churn, every later runtime) must reproduce
// them. Exit status 1 means a correctness gate failed.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "src/telemetry/telemetry.h"
#include "perfbench/cpp/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return (a->workload == "sor" || a->workload == "churn" || a->workload == "serve") &&
         !a->out.empty() && a->seconds > 0 && (!a->trace || !a->spans.empty());
}

void EndRound(Phase& phase) {
  phase.rss_after_round.push_back(RssBytes());
  if (phase.rss_after_round.size() == 1) {
    phase.peak_rss_first_round = PeakRssBytes();
  }
}

void RunSor(const Args& args, Phase& phase, Fidelity& fidelity, Checks& checks) {
  const sor::Params params = PaperSorParams();
  sor::Result seq;
  {
    ScopedSpan span("sor::RunSequential");
    seq = sor::RunSequentialOn(params, SorConfig().cost);
  }
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t start = NowNs();
  sor::Result first;
  bool identical = true;
  do {
    sor::Result r;
    Counts counts;
    {
      const int64_t t0 = NowNs();
      const int32_t construct_span = SpanBegin("Runtime()");
      amber::Runtime rt(SorConfig());
      SpanEnd(construct_span);
      const int64_t t1 = NowNs();
      {
        ScopedSpan span("sor::RunAmber");
        r = sor::RunAmber(rt, params);
      }
      const int64_t t2 = NowNs();
      phase.setup_ns.push_back(t1 - t0);
      phase.round_ns.push_back(t2 - t1);
      phase.round_ops.push_back(r.iterations);
      counts = Counts::Read(rt);
    }
    EndRound(phase);
    if (phase.round_ns.size() == 1) {
      first = r;
      phase.counts = counts;
      phase.virt_s = amber::ToSeconds(r.solve_time);
      phase.first_round_ops = r.iterations;
    } else {
      identical = identical && r.solve_time == first.solve_time &&
                  r.grid_hash == first.grid_hash && counts.events == phase.counts.events;
    }
  } while (NowNs() - start < budget_ns);
  checks.Add("sor.same_seed_rounds", identical,
             std::to_string(phase.round_ns.size()) + " rounds");
  fidelity = MeasureFidelity(first, seq);
}

void SumServe(const std::vector<ServeRun>& runs, Phase& phase) {
  Counts c;
  double virt = 0;
  int64_t ops = 0;
  for (const ServeRun& r : runs) {
    c += r.counts;
    virt += amber::ToSeconds(r.virtual_ns);
    ops += r.offered();
  }
  phase.counts = c;
  phase.virt_s = virt;
  phase.first_round_ops = ops;
}

void CheckServe(const std::vector<ServeRun>& runs, Checks& checks) {
  bool accounting = true;
  bool checksums = true;
  bool closes = true;
  for (const ServeRun& r : runs) {
    int64_t served = 0;
    for (int64_t l : r.latency_ns) {
      served += l >= 0 ? 1 : 0;
    }
    accounting = accounting && served + r.rejected() == r.offered() &&
                 served + 4 * static_cast<int64_t>(r.setup_ns.size()) == r.counts.threads_started;
    checksums = checksums && r.checksum == r.expected_checksum;
    closes = closes && r.attribution_closes && r.rtrace_traces > 0;
  }
  checks.Add("serve.served_plus_rejected_is_offered", accounting);
  checks.Add("serve.shard_checksums", checksums);
  checks.Add("serve.attribution_closes", closes);
}

std::vector<ServeRun> RunServe(const Args& args, Phase& phase, Checks& checks) {
  const int64_t budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t start = NowNs();
  std::vector<ServeRun> first;
  std::vector<uint64_t> digests;
  bool identical = true;
  do {
    std::vector<ServeRun> runs = RunServeRound(args.seed);
    int64_t ops = 0;
    int64_t timed = 0;
    for (const ServeRun& r : runs) {
      phase.setup_ns.insert(phase.setup_ns.end(), r.setup_ns.begin(), r.setup_ns.end());
      ops += r.offered();
      timed += r.timed_ns;
    }
    phase.round_ops.push_back(ops);
    phase.round_ns.push_back(timed);
    EndRound(phase);
    if (first.empty()) {
      first = std::move(runs);
      for (const ServeRun& r : first) {
        digests.push_back(r.Digest());
      }
    } else {
      for (size_t i = 0; i < runs.size(); ++i) {
        identical = identical && runs[i].Digest() == digests[i];
      }
    }
  } while (NowNs() - start < budget_ns);
  SumServe(first, phase);
  CheckServe(first, checks);
  checks.Add("serve.same_seed_rounds", identical,
             std::to_string(phase.round_ns.size()) + " rounds");
  return first;
}

void WriteSelfProfile(JsonWriter& w, const telemetry::SelfProfiler& p) {
  using telemetry::Bucket;
  using telemetry::Count;
  w.Begin("selfprof")
      .Int("enabled_ns", p.EnabledWallNs())
      .Int("events", p.count(Count::kEvents))
      .Int("dispatches", p.count(Count::kDispatches))
      .Int("event_loop_ns", p.bucket_wall_ns(Bucket::kEventLoop))
      .Int("fiber_run_ns", p.bucket_wall_ns(Bucket::kFiberRun))
      .Int("observer_fanout_ns", p.bucket_wall_ns(Bucket::kObserverFanout))
      .Int("net_delivery_ns", p.bucket_wall_ns(Bucket::kNetDelivery))
      .Int("lookups", p.count(Count::kDescriptorLookups))
      .Int("allocations", p.count(Count::kAllocations))
      .Int("alloc_bytes", p.count(Count::kAllocBytes))
      .End();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: amber_perfbench --workload sor|churn|serve --seed N --seconds S "
                 "--trace 0|1 --out RECORD.json [--spans SPANS.json]\n");
    return 2;
  }
  const int64_t wall0 = NowNs();
  std::unique_ptr<SpanLog> spans;
  std::unique_ptr<telemetry::SelfProfiler> prof;
  Ledger ledger;
  if (args.trace) {
    ledger = MeasureLedger();
    spans = std::make_unique<SpanLog>();
    g_spans = spans.get();
    prof = std::make_unique<telemetry::SelfProfiler>(telemetry::SelfProfiler::Config{});
    prof->Enable();
  }

  Phase phase;
  Fidelity fidelity;
  Checks checks;
  std::vector<ServeRun> serve;
  ChurnSetup churn;
  if (args.workload == "sor") {
    RunSor(args, phase, fidelity, checks);
  } else if (args.workload == "churn") {
    churn = RunChurn(args.seed, args.seconds, phase, checks);
  } else {
    serve = RunServe(args, phase, checks);
  }
  if (prof) {
    prof->Disable();
    g_spans = nullptr;
  }
  // The scorecard every run carries: fidelity and serving probes, untimed.
  if (args.workload != "sor") {
    const sor::Params params = PaperSorParams();
    const amber::Runtime::Config config = SorConfig();
    fidelity = MeasureFidelity(
        sor::RunAmberOn(config.nodes, config.procs_per_node, params, config.cost),
        sor::RunSequentialOn(params, config.cost));
  }
  if (args.workload != "serve") {
    serve = RunServeRound(args.seed);
    CheckServe(serve, checks);
  }
  checks.Add("fidelity.grid_matches_sequential",
             fidelity.parallel_hash == fidelity.sequential_hash);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::ofstream out(args.out);
  JsonWriter w(out);
  w.Begin()
      .Int("schema", 1)
      .Str("workload", args.workload)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Str("build_type", PERFBENCH_BUILD_TYPE);
  w.Begin("params");
  {
    const sor::Params p = PaperSorParams();
    w.Begin("sor")
        .Int("rows", p.rows)
        .Int("cols", p.cols)
        .Int("sections", p.sections)
        .Int("iterations", p.max_iterations)
        .Bool("overlap", p.overlap)
        .Int("nodes", SorConfig().nodes)
        .Int("procs_per_node", SorConfig().procs_per_node)
        .End();
    WriteServeParams(w);
    WriteChurnParams(w);
  }
  w.End();
  w.IntArray("setup_ns", phase.setup_ns)
      .IntArray("round_ops", phase.round_ops)
      .IntArray("round_ns", phase.round_ns)
      .Num("virt_s", phase.virt_s)
      .Int("peak_rss_first_round_bytes", phase.peak_rss_first_round)
      .IntArray("rss_after_round", phase.rss_after_round)
      .Int("first_round_ops", phase.first_round_ops);
  phase.counts.Write(w, "counts");
  if (args.workload == "churn") {
    churn.counts.Write(w, "setup_counts");
    w.Begin("churn")
        .Int("objects", churn.objects)
        .Int("rss_before_setup", churn.rss_before)
        .Int("rss_after_setup", churn.rss_after)
        .End();
  }
  WriteFidelity(w, fidelity);
  WriteServe(w, serve);
  checks.Write(w);
  w.Begin("host")
      .Int("peak_rss_bytes", PeakRssBytes())
      .Num("cpu_user_s", static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec / 1e6)
      .Num("cpu_sys_s", static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec / 1e6)
      .Int("voluntary_csw", ru.ru_nvcsw)
      .Int("involuntary_csw", ru.ru_nivcsw)
      .Num("wall_s", static_cast<double>(NowNs() - wall0) / 1e9)
      .End();
  if (args.trace) {
    WriteSelfProfile(w, *prof);
    w.Begin("ledger")
        .Num("sync_roundtrip_ns", ledger.sync_roundtrip_ns)
        .Num("lookup_ns", ledger.lookup_ns)
        .Num("alloc_free_ns", ledger.alloc_free_ns)
        .Num("rpc_send_ns", ledger.rpc_send_ns)
        .End();
    std::ofstream span_out(args.spans);
    spans->Write(span_out);
  }
  w.End();
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  return checks.all_ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
