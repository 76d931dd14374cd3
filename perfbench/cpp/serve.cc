// serve: the open-loop keyed store of bench_serve, run at two fixed offered
// rates and along a ladder of rates.
//
// 16 shards x 64 keys on 4 nodes x 2 processors. Each node runs a frontend
// with its own deterministic Poisson arrival process (seeded, paced with
// SleepUntil), so arrivals never wait for service: a stall shows up as
// latency, timed from each request's *scheduled* arrival. Admission is
// bounded per node; each admitted request starts its own thread on its
// key's shard, and 1 in 4 also touches the next shard. rtrace (1 in 5), a
// metrics registry and a tseries collector ride the observer bus, as the
// repository's serving scenario runs them.

#include <cmath>
#include <deque>

#include "src/core/amber.h"
#include "src/metrics/metrics.h"
#include "src/rtrace/rtrace.h"
#include "src/tseries/tseries.h"
#include "perfbench/cpp/workloads.h"

namespace perfbench {
namespace {

constexpr int kNodes = 4;
constexpr int kProcs = 2;
constexpr int kShards = 16;
constexpr int kKeysPerShard = 64;
constexpr size_t kAdmitCap = 32;
constexpr uint64_t kSampleEvery = 5;
constexpr int kSpanEvery = 32;  // traced runs: host spans for 1 in N requests
// Each fixed rate pools independent replicas of bench_serve's run length:
// at the knee the tail of one short run swings with its arrival draws.
constexpr int kFixedRequestsPerNode = 600;
constexpr int kLoReplicas = 8;
constexpr int kHiReplicas = 64;
constexpr int kRungRequestsPerNode = 1500;   // each ladder rung
constexpr double kLoRate = 1000.0;  // offered/s, all nodes: below the knee
constexpr double kHiRate = 2500.0;  // at the knee
// Ladder: from well below the knee to past it, 4% apart.
constexpr double kLadderFrom = 1000.0;
constexpr double kLadderTo = 3000.0;
constexpr double kLadderStep = 1.04;

class Shard;

// State of the run in progress (one Runtime exists at a time).
struct Live {
  metrics::Registry* registry = nullptr;
  rtrace::Tracer* tracer = nullptr;
  ServeRun* run = nullptr;
  std::vector<amber::Ref<Shard>> shards;
  size_t offset = 0;                  // index of this replica's first request in run
  std::vector<int32_t> request_span;  // traced runs: root span per request
  uint64_t trace_base = 0;            // span trace id = trace_base + request + 1
};
Live g;
uint64_t g_next_trace_base = 0;  // trace ids stay unique across runs

uint64_t NextRand(uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 11;
}

amber::Duration ExpInterval(uint64_t& state, double mean_ns) {
  const double u = (static_cast<double>(NextRand(state) & 0xFFFFFFFFull) + 1.0) / 4294967297.0;
  return static_cast<amber::Duration>(-mean_ns * std::log(u));
}

uint64_t ShardHash(int index, const std::vector<int64_t>& values) {
  uint64_t h = static_cast<uint64_t>(index);
  for (int64_t v : values) {
    h = h * 1099511628211ull + static_cast<uint64_t>(v);
  }
  return h;
}

class Shard final : public amber::Object {
 public:
  Shard(int index, int keys) : index_(index), values_(keys, 0) {}

  void Handle(int key, amber::Time arrival, int64_t request) {
    amber::Work(amber::Micros(20 + (key % 13) * 6));
    values_[key % kKeysPerShard] += 1;
    if (key % 4 == 0) {
      const int32_t root = g_spans != nullptr ? g.request_span[static_cast<size_t>(request)] : -1;
      ScopedSpan span("Ref::Call.remote", root, g.trace_base + static_cast<uint64_t>(request) + 1,
                      root >= 0);
      g.shards[(index_ + 1) % kShards].Call(&Shard::Touch, key);
    }
    const int64_t latency = amber::Now() - arrival;
    g.run->latency_ns[g.offset + static_cast<size_t>(request)] = latency;
    const uint64_t trace_id = g.tracer->CurrentTraceId();
    g.registry->GetHistogram("serve.latency").Record(static_cast<double>(latency), trace_id);
    g.registry->GetCounter("serve.completed", amber::Here()).Add(1);
  }

  void Touch(int key) {
    amber::Work(amber::Micros(10 + (key % 7) * 4));
    values_[key % kKeysPerShard] += 1;
  }

  uint64_t Checksum() const { return ShardHash(index_, values_); }

  int64_t AmberPayloadBytes() const override {
    return static_cast<int64_t>(values_.size() * sizeof(int64_t));
  }

 private:
  int index_;
  std::vector<int64_t> values_;
};

class Frontend final : public amber::Object {
 public:
  Frontend(int node, uint64_t seed, double mean_interarrival_ns, int requests)
      : node_(node), seed_(seed), mean_ns_(mean_interarrival_ns), requests_(requests) {}

  void Drive() {
    struct Inflight {
      amber::ThreadRef<void> thread;
      int32_t span;  // the request's root span, -1 when not sampled
      uint64_t trace;
    };
    uint64_t rng = Mix(seed_ * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(node_ + 1));
    std::deque<Inflight> inflight;
    amber::Time next = amber::Now();
    ServeRun& run = *g.run;
    auto reap = [&](bool all) {
      while (!inflight.empty() && (all || inflight.front().thread.object()->finished())) {
        Inflight& f = inflight.front();
        {
          ScopedSpan span("Join", f.span, f.trace, f.span >= 0);
          f.thread.TryJoin();
        }
        SpanEnd(f.span);
        inflight.pop_front();
      }
    };
    for (int i = 0; i < requests_; ++i) {
      next += ExpInterval(rng, mean_ns_);
      {
        ScopedSpan span("SleepUntil", -1, 0, i % kSpanEvery == 0);
        amber::SleepUntil(next);
      }
      reap(false);
      const int64_t request = int64_t{node_} * requests_ + i;
      const size_t slot = g.offset + static_cast<size_t>(request);
      run.arrival_ns[slot] = next;
      if (inflight.size() >= kAdmitCap) {
        g.registry->GetCounter("serve.rejected", node_).Add(1);
        continue;
      }
      const int key = static_cast<int>(NextRand(rng) % (kShards * kKeysPerShard));
      run.lag_ns[slot] = amber::Now() - next;
      g.registry->GetCounter("serve.offered", node_).Add(1);
      g.tracer->OpenRequest("get");
      const uint64_t trace = g.trace_base + static_cast<uint64_t>(request) + 1;
      const int32_t root = i % kSpanEvery == 0 ? SpanBegin("request", -1, trace) : -1;
      if (root >= 0) {
        g.request_span[static_cast<size_t>(request)] = root;
      }
      ScopedSpan span("StartThread", root, trace, root >= 0);
      inflight.push_back(
          {amber::StartThread(g.shards[key % kShards], &Shard::Handle, key, next, request),
           root, trace});
      admitted_keys_.push_back(key);
    }
    reap(true);
  }

  const std::vector<int>& admitted_keys() const { return admitted_keys_; }

 private:
  int node_;
  uint64_t seed_;
  double mean_ns_;
  int requests_;
  std::vector<int> admitted_keys_;
};

// Expected shard state: every admitted request's writes, applied once.
uint64_t ReplayChecksum(const std::vector<std::vector<int>>& admitted) {
  std::vector<std::vector<int64_t>> values(kShards, std::vector<int64_t>(kKeysPerShard, 0));
  for (const auto& keys : admitted) {
    for (int key : keys) {
      values[static_cast<size_t>(key % kShards)][static_cast<size_t>(key % kKeysPerShard)] += 1;
      if (key % 4 == 0) {
        values[static_cast<size_t>((key % kShards + 1) % kShards)]
              [static_cast<size_t>(key % kKeysPerShard)] += 1;
      }
    }
  }
  uint64_t sum = 0;
  for (int s = 0; s < kShards; ++s) {
    sum = sum * 31 + ShardHash(s, values[static_cast<size_t>(s)]);
  }
  return sum;
}

// One runtime serving `requests_per_node` arrivals per node at `offered_per_s`;
// its requests are appended to `run`.
void RunReplica(uint64_t seed, double offered_per_s, int requests_per_node, ServeRun& run) {
  const size_t total = size_t{kNodes} * static_cast<size_t>(requests_per_node);
  g.offset = run.latency_ns.size();
  run.arrival_ns.resize(g.offset + total, 0);
  run.latency_ns.resize(g.offset + total, -1);
  run.lag_ns.resize(g.offset + total, -1);
  g.request_span.assign(g_spans != nullptr ? total : 0, -1);
  g.trace_base = g_next_trace_base;
  g_next_trace_base += total;
  const double mean_ns = 1e9 * kNodes / offered_per_s;

  std::string name = "serve_";
  name += run.label;
  metrics::Registry registry;
  rtrace::Tracer tracer({.name = name, .sample_every = kSampleEvery, .max_traces = total});
  tseries::Collector::Config tcfg;
  tcfg.name = name;
  tseries::Collector collector(tcfg);
  collector.SetRegistry(&registry);
  collector.WatchCounter("serve.completed");
  collector.WatchCounter("serve.offered");
  collector.WatchCounter("serve.rejected");
  collector.WatchHistogram("serve.latency");

  const int64_t t0 = NowNs();
  int64_t t_setup = 0;
  amber::Time end_time = 0;
  uint64_t checksum = 0;
  std::vector<std::vector<int>> admitted;
  {
    amber::Runtime::Config config;
    config.nodes = kNodes;
    config.procs_per_node = kProcs;
    config.arena_bytes = size_t{256} << 20;
    const int32_t construct_span = SpanBegin("Runtime()");
    amber::Runtime rt(config);
    SpanEnd(construct_span);
    rt.SetMetrics(&registry);
    tracer.AttachTo(rt);
    collector.AttachTo(rt);
    g.registry = &registry;
    g.tracer = &tracer;
    g.run = &run;
    int64_t started = 0;
    const int32_t run_span = SpanBegin("Runtime::Run");
    rt.Run([&] {
      for (int s = 0; s < kShards; ++s) {
        ScopedSpan span("New");
        g.shards.push_back(amber::NewOn<Shard>(s % kNodes, s, kKeysPerShard));
      }
      std::vector<amber::Ref<Frontend>> fronts;
      for (int n = 0; n < kNodes; ++n) {
        ScopedSpan span("New");
        fronts.push_back(amber::NewOn<Frontend>(n, n, seed, mean_ns, requests_per_node));
      }
      t_setup = NowNs();
      std::vector<amber::ThreadRef<void>> frontends;
      for (int n = 0; n < kNodes; ++n) {
        frontends.push_back(
            amber::StartThread(fronts[static_cast<size_t>(n)], &Frontend::Drive));
      }
      for (auto& d : frontends) {
        d.Join();
      }
      for (auto& shard : g.shards) {
        checksum = checksum * 31 + shard.Call(&Shard::Checksum);
      }
      for (auto& f : fronts) {
        admitted.push_back(static_cast<Frontend*>(f.object())->admitted_keys());
        started += static_cast<int64_t>(admitted.back().size());
      }
      end_time = amber::Now();
    });
    SpanEnd(run_span);
    Counts counts = Counts::Read(rt);
    counts.threads_started = started + kNodes;
    run.counts += counts;
    g.shards.clear();
  }
  collector.Finish(end_time);
  run.setup_ns.push_back(t_setup - t0);
  run.timed_ns += NowNs() - t_setup;
  run.virtual_ns += end_time;
  run.checksum = Mix(run.checksum ^ checksum);
  run.expected_checksum = Mix(run.expected_checksum ^ ReplayChecksum(admitted));

  for (const auto& [id, t] : tracer.traces()) {
    if (!t.done) {
      continue;
    }
    amber::Duration sum = 0;
    for (const auto& [cat, ns] : t.attribution) {
      sum += ns;
      run.rtrace_ns[cat] += ns;
    }
    run.attribution_closes = run.attribution_closes && sum == t.latency();
    run.rtrace_latency_ns += t.latency();
    ++run.rtrace_traces;
  }
  g = Live{};
}

ServeRun RunAtRate(uint64_t seed, const std::string& label, double offered_per_s,
                   int requests_per_node, int replicas) {
  ServeRun run;
  run.label = label;
  run.offered_per_s = offered_per_s;
  for (int k = 0; k < replicas; ++k) {
    RunReplica(Mix(seed * 0x2545F4914F6CDD1Dull + static_cast<uint64_t>(k)), offered_per_s,
               requests_per_node, run);
  }
  return run;
}

}  // namespace

int64_t ServeRun::rejected() const {
  int64_t n = 0;
  for (int64_t l : latency_ns) {
    n += l < 0 ? 1 : 0;
  }
  return n;
}

uint64_t ServeRun::Digest() const {
  uint64_t h = Mix(static_cast<uint64_t>(virtual_ns)) ^ checksum;
  for (size_t i = 0; i < latency_ns.size(); ++i) {
    h = Mix(h ^ static_cast<uint64_t>(latency_ns[i]) ^ (static_cast<uint64_t>(lag_ns[i]) << 1));
  }
  for (const auto& [cat, ns] : rtrace_ns) {
    h = Mix(h ^ static_cast<uint64_t>(ns));
  }
  return h ^ static_cast<uint64_t>(counts.events);
}

std::vector<ServeRun> RunServeRound(uint64_t seed) {
  std::vector<ServeRun> runs;
  runs.push_back(RunAtRate(seed, "lo", kLoRate, kFixedRequestsPerNode, kLoReplicas));
  runs.push_back(RunAtRate(seed, "hi", kHiRate, kFixedRequestsPerNode, kHiReplicas));
  int k = 0;
  for (double rate = kLadderFrom; rate <= kLadderTo * 1.0001; rate *= kLadderStep) {
    std::string label = "r";
    label += std::to_string(k++);
    runs.push_back(RunAtRate(seed, label, std::round(rate), kRungRequestsPerNode, 1));
  }
  return runs;
}

void WriteServeParams(JsonWriter& w) {
  w.Begin("serve")
      .Int("nodes", kNodes)
      .Int("procs_per_node", kProcs)
      .Int("shards", kShards)
      .Int("keys_per_shard", kKeysPerShard)
      .Int("admit_cap", static_cast<int64_t>(kAdmitCap))
      .Int("sample_every", static_cast<int64_t>(kSampleEvery))
      .Int("fixed_requests_per_node", kFixedRequestsPerNode)
      .Int("lo_replicas", kLoReplicas)
      .Int("hi_replicas", kHiReplicas)
      .Int("rung_requests_per_node", kRungRequestsPerNode)
      .Num("lo_rate", kLoRate)
      .Num("hi_rate", kHiRate)
      .Num("ladder_from", kLadderFrom)
      .Num("ladder_to", kLadderTo)
      .Num("ladder_step", kLadderStep)
      .End();
}

void WriteServe(JsonWriter& w, const std::vector<ServeRun>& runs) {
  w.BeginArray("serve");
  for (const ServeRun& r : runs) {
    w.Begin()
        .Str("label", r.label)
        .Num("offered_per_s", r.offered_per_s)
        .Int("virtual_ns", r.virtual_ns)
        .Bool("checksum_ok", r.checksum == r.expected_checksum)
        .Bool("attribution_closes", r.attribution_closes)
        .Int("rtrace_traces", r.rtrace_traces)
        .Int("rtrace_latency_ns", r.rtrace_latency_ns);
    w.Begin("rtrace_ns");
    for (const auto& [cat, ns] : r.rtrace_ns) {
      w.Int(cat.c_str(), ns);
    }
    w.End();
    r.counts.Write(w, "counts");
    w.IntArray("arrival_ns", r.arrival_ns)
        .IntArray("latency_ns", r.latency_ns)
        .IntArray("lag_ns", r.lag_ns)
        .End();
  }
  w.End();
}

}  // namespace perfbench
