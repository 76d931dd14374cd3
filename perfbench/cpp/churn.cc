// churn: about a million small objects on hundreds of 1-CPU nodes.
//
// Each node holds a shard of Slot objects. Per round, every shard makes a
// seeded sequence of ops: local Touch invocations, a 1/64 share of remote
// pokes at its ring neighbour, and a 1/256 share of MoveTo calls that send
// one of its slots one node further round the ring (after three hops the
// slot comes home). Later touches of a moved slot follow the forwarding
// chain. The working set is hundreds of MB, so the run loads descriptor
// lookups, segment allocation (set-up) and the local invoke path; moves
// write the descriptor tables that invokes read.

#include "src/core/amber.h"
#include "perfbench/cpp/workloads.h"

namespace perfbench {
namespace {

using amber::Ref;

constexpr int kNodes = 256;
constexpr int64_t kSlotsPerNode = 4096;
constexpr int kOpsPerShardRound = 1024;
constexpr int kRuntimes = 3;     // set-ups per run (set-up time is their median)
constexpr int kMaxHops = 3;      // a slot travels this far before it returns home
// Traced runs: host spans for 1 in N local touches, other ops and News.
constexpr int kLocalSpanEvery = 64;
constexpr int kSpanEvery = 8;
constexpr int kNewSpanEvery = 64;

uint64_t SlotSeed(uint64_t seed, int shard, int64_t slot) {
  return Mix((static_cast<uint64_t>(shard) << 32 | static_cast<uint64_t>(slot)) ^
             (seed * 0xD1B54A32D192ED03ull));
}

uint64_t RoundSeed(uint64_t seed, int shard, int round) {
  return Mix(seed ^ Mix(static_cast<uint64_t>(shard) * 1000003u + static_cast<uint64_t>(round)));
}

uint64_t Step(uint64_t value, uint64_t x) { return value * 6364136223846793005ULL + x; }

// One decoded op of a shard's seeded sequence.
struct Op {
  enum Kind { kTouch, kPoke, kMove } kind;
  int64_t slot;
  uint64_t x;
};

Op Decode(uint64_t r) {
  const uint64_t k = r & 255;
  const Op::Kind kind = k < 4 ? Op::kPoke : (k == 4 ? Op::kMove : Op::kTouch);
  return Op{kind, static_cast<int64_t>((r >> 8) % kSlotsPerNode), r >> 20};
}

int32_t g_run_span = -1;  // traced runs: parent of the spans inside Run

class Slot : public amber::Object {
 public:
  explicit Slot(uint64_t v) : value_(v) {}
  uint64_t Touch(uint64_t x) {
    amber::Work(amber::kMicrosecond);
    value_ = Step(value_, x);
    return value_;
  }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_;
};

class NodeShard : public amber::Object {
 public:
  NodeShard(int index, uint64_t seed) : index_(index), seed_(seed) {}

  void SetNeighbor(Ref<NodeShard> n) { neighbor_ = n; }

  // Runs with the shard's thread resident here, so every New is local.
  void Populate() {
    slots_.reserve(kSlotsPerNode);
    hops_.assign(kSlotsPerNode, 0);
    for (int64_t i = 0; i < kSlotsPerNode; ++i) {
      ScopedSpan span("New", g_run_span, 0, i % kNewSpanEvery == 0);
      slots_.push_back(amber::New<Slot>(SlotSeed(seed_, index_, i)));
    }
  }

  uint64_t Poke(uint64_t x) {
    amber::Work(amber::kMicrosecond / 2);
    return pokes_ += (x | 1);
  }

  void Round(int round) {
    uint64_t rng = RoundSeed(seed_, index_, round);
    for (int i = 0; i < kOpsPerShardRound; ++i) {
      rng = Mix(rng);
      const Op op = Decode(rng);
      const size_t s = static_cast<size_t>(op.slot);
      const bool sampled = i % kSpanEvery == 0;
      if (op.kind == Op::kPoke) {
        ScopedSpan span("Ref::Call.remote", g_run_span, 0, sampled);
        neighbor_.Call(&NodeShard::Poke, op.x);
      } else if (op.kind == Op::kMove) {
        const int hops = hops_[s] < kMaxHops ? hops_[s] + 1 : 0;
        ScopedSpan span("MoveTo", g_run_span, 0, sampled);
        amber::MoveTo(slots_[s], (index_ + hops) % kNodes);
        hops_[s] = hops;
      } else if (hops_[s] != 0) {
        ScopedSpan span("Ref::Call.remote", g_run_span, 0, sampled);
        slots_[s].Call(&Slot::Touch, op.x);
      } else {
        ScopedSpan span("Ref::Call.local", g_run_span, 0, i % kLocalSpanEvery == 0);
        slots_[s].Call(&Slot::Touch, op.x);
      }
    }
  }

  // Host-side read of the final state, after the run has ended.
  uint64_t Checksum() const {
    uint64_t h = 1469598103934665603ull ^ pokes_;
    for (const Ref<Slot>& s : slots_) {
      h = (h ^ static_cast<const Slot*>(s.object())->value()) * 1099511628211ull;
    }
    return h;
  }

 private:
  int index_;
  uint64_t seed_;
  uint64_t pokes_ = 0;
  Ref<NodeShard> neighbor_;
  std::vector<Ref<Slot>> slots_;
  std::vector<int> hops_;
};

// The same op sequences in plain C++: the expected final state.
uint64_t ReplayChecksum(uint64_t seed, int rounds) {
  std::vector<std::vector<uint64_t>> values(kNodes);
  std::vector<uint64_t> pokes(kNodes, 0);
  for (int n = 0; n < kNodes; ++n) {
    values[static_cast<size_t>(n)].resize(kSlotsPerNode);
    for (int64_t i = 0; i < kSlotsPerNode; ++i) {
      values[static_cast<size_t>(n)][static_cast<size_t>(i)] = SlotSeed(seed, n, i);
    }
  }
  for (int round = 0; round < rounds; ++round) {
    for (int n = 0; n < kNodes; ++n) {
      uint64_t rng = RoundSeed(seed, n, round);
      for (int i = 0; i < kOpsPerShardRound; ++i) {
        rng = Mix(rng);
        const Op op = Decode(rng);
        if (op.kind == Op::kPoke) {
          pokes[static_cast<size_t>((n + 1) % kNodes)] += op.x | 1;
        } else if (op.kind == Op::kTouch) {
          uint64_t& v = values[static_cast<size_t>(n)][static_cast<size_t>(op.slot)];
          v = Step(v, op.x);
        }
      }
    }
  }
  uint64_t all = 0;
  for (int n = 0; n < kNodes; ++n) {
    uint64_t h = 1469598103934665603ull ^ pokes[static_cast<size_t>(n)];
    for (uint64_t v : values[static_cast<size_t>(n)]) {
      h = (h ^ v) * 1099511628211ull;
    }
    all = Mix(all ^ h);
  }
  return all;
}

// The first round of one runtime: what every later runtime must reproduce.
struct FirstRound {
  amber::Time virtual_ns = 0;
  Counts counts;
};

// Sets up one runtime, churns it for `budget_ns`, and checks its final state
// against the replay.
FirstRound ChurnOneRuntime(uint64_t seed, int rep, int64_t budget_ns, Phase& phase,
                           ChurnSetup& setup, Checks& checks) {
  amber::Runtime::Config config;
  config.nodes = kNodes;
  config.procs_per_node = 1;
  config.topology = net::Topology::kSwitched;
  config.initial_regions_per_node = 1;
  config.arena_bytes = size_t{2} << 30;
  const int64_t rss_before = RssBytes();
  const int64_t t0 = NowNs();
  const int32_t construct_span = SpanBegin("Runtime()");
  amber::Runtime rt(config);
  SpanEnd(construct_span);
  std::vector<Ref<NodeShard>> shards;
  int rounds = 0;
  FirstRound first;
  g_run_span = SpanBegin("Runtime::Run");
  rt.Run([&] {
    for (int n = 0; n < kNodes; ++n) {
      ScopedSpan span("New", g_run_span);
      shards.push_back(amber::NewOn<NodeShard>(n, n, seed));
    }
    for (int n = 0; n < kNodes; ++n) {
      shards[static_cast<size_t>(n)].Call(&NodeShard::SetNeighbor,
                                         shards[static_cast<size_t>((n + 1) % kNodes)]);
    }
    {
      std::vector<amber::ThreadRef<void>> fill;
      for (auto& s : shards) {
        ScopedSpan span("StartThread", g_run_span);
        fill.push_back(amber::StartThread(s, &NodeShard::Populate));
      }
      for (auto& t : fill) {
        ScopedSpan span("Join", g_run_span);
        t.Join();
      }
    }
    const int64_t t_setup = NowNs();
    phase.setup_ns.push_back(t_setup - t0);
    if (rep == 0) {
      setup.counts = Counts::Read(rt);
      setup.counts.threads_started = kNodes;
      setup.rss_before = rss_before;
      setup.rss_after = RssBytes();
    }
    int64_t t_round = t_setup;
    do {
      const Counts before = Counts::Read(rt);
      const amber::Time v0 = amber::Now();
      std::vector<amber::ThreadRef<void>> churn;
      for (auto& s : shards) {
        ScopedSpan span("StartThread", g_run_span);
        churn.push_back(amber::StartThread(s, &NodeShard::Round, rounds));
      }
      for (auto& t : churn) {
        ScopedSpan span("Join", g_run_span);
        t.Join();
      }
      const int64_t t_end = NowNs();
      phase.round_ops.push_back(int64_t{kNodes} * kOpsPerShardRound);
      phase.round_ns.push_back(t_end - t_round);
      t_round = t_end;
      if (rounds == 0) {
        first.virtual_ns = amber::Now() - v0;
        first.counts = Counts::Read(rt) - before;
        first.counts.threads_started = kNodes;
      }
      ++rounds;
    } while (t_round - t_setup < budget_ns);
  });
  SpanEnd(g_run_span);
  g_run_span = -1;

  uint64_t got = 0;
  for (const auto& s : shards) {
    got = Mix(got ^ static_cast<const NodeShard*>(s.object())->Checksum());
  }
  checks.Add("churn.replay_checksum", got == ReplayChecksum(seed, rounds),
             "runtime " + std::to_string(rep) + ", " + std::to_string(rounds) + " rounds");
  return first;
}

}  // namespace

ChurnSetup RunChurn(uint64_t seed, double seconds, Phase& phase, Checks& checks) {
  ChurnSetup setup;
  setup.objects = int64_t{kNodes} * kSlotsPerNode;
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9 / kRuntimes);
  FirstRound reference;
  for (int rep = 0; rep < kRuntimes; ++rep) {
    const FirstRound first = ChurnOneRuntime(seed, rep, budget_ns, phase, setup, checks);
    phase.rss_after_round.push_back(RssBytes());
    if (rep == 0) {
      reference = first;
      phase.peak_rss_first_round = PeakRssBytes();
      phase.virt_s = amber::ToSeconds(first.virtual_ns);
      phase.first_round_ops = int64_t{kNodes} * kOpsPerShardRound;
      phase.counts = first.counts;
    } else {
      checks.Add("churn.same_seed_round",
                 first.virtual_ns == reference.virtual_ns &&
                     first.counts.events == reference.counts.events &&
                     first.counts.messages == reference.counts.messages &&
                     first.counts.lookups == reference.counts.lookups,
                 "runtime " + std::to_string(rep) + " vs runtime 0");
    }
  }
  return setup;
}

void WriteChurnParams(JsonWriter& w) {
  w.Begin("churn")
      .Int("nodes", kNodes)
      .Int("slots_per_node", kSlotsPerNode)
      .Int("ops_per_shard_round", kOpsPerShardRound)
      .Int("runtimes", kRuntimes)
      .Int("max_hops", kMaxHops)
      .Str("topology", "switched")
      .End();
}

}  // namespace perfbench
