// Tests for the fault-injection subsystem wired into the full runtime:
// seeded determinism (same plan + seed → byte-identical metrics and event logs),
// the empty-plan inertness contract, crash/restart survival, and the typed
// Status surface for moves aimed at dead or partitioned nodes.

#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/core/amber.h"
#include "src/fault/membership.h"
#include "src/fdr/fdr.h"
#include "src/metrics/metrics.h"
#include "src/rpc/wire.h"

namespace amber {
namespace {

Runtime::Config TestConfig(int nodes = 4, int procs = 2) {
  Runtime::Config c;
  c.nodes = nodes;
  c.procs_per_node = procs;
  c.arena_bytes = size_t{256} << 20;
  c.initial_regions_per_node = 4;
  return c;
}

class Counter : public Object {
 public:
  int Add(int d) {
    Work(kMicrosecond * 20);
    value_ += d;
    return value_;
  }
  int Get() const { return value_; }

 private:
  int value_ = 0;
};

// A chatty workload: objects spread across nodes, cross-node calls and moves
// — enough RPC traffic that a lossy plan reliably perturbs it.
void ChattyWorkload(int rounds = 6) {
  auto a = New<Counter>();
  auto b = New<Counter>();
  MoveTo(a, 1);
  MoveTo(b, 2);
  for (int i = 0; i < rounds; ++i) {
    a.Call(&Counter::Add, 1);
    b.Call(&Counter::Add, 1);
    MoveTo(a, (i % 2 == 0) ? 3 : 1);
  }
  EXPECT_EQ(a.Call(&Counter::Get), rounds);
  EXPECT_EQ(b.Call(&Counter::Get), rounds);
}

fault::FaultPlan LossyPlan(uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  fault::LinkRule rule;
  rule.drop = 0.15;
  rule.duplicate = 0.05;
  rule.delay = 0.10;
  rule.delay_min = Micros(50);
  rule.delay_max = Micros(500);
  plan.links.push_back(rule);
  return plan;
}

// Runs the chatty workload under `plan` and returns "metrics-json \x1e
// flight-recorder dump" for byte-comparison.
std::string RunAndCapture(const fault::FaultPlan& plan) {
  Runtime rt(TestConfig());
  fault::Injector injector(plan);
  metrics::Registry metrics;
  fdr::Recorder recorder({.name = "fault", .ring_capacity = SIZE_MAX});
  rt.SetMetrics(&metrics);
  recorder.AttachTo(rt);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([] { ChattyWorkload(); });
  EXPECT_EQ(recorder.dropped(), 0) << "the fingerprint must cover the whole run";
  std::ostringstream out;
  metrics.WriteJson(out);
  out << '\x1e';
  recorder.WriteDump(out, "explicit", "");
  return out.str();
}

TEST(FaultDeterminismTest, SameSeedSameBytesDifferentSeedDiffers) {
  const std::string run1 = RunAndCapture(LossyPlan(7));
  const std::string run2 = RunAndCapture(LossyPlan(7));
  EXPECT_EQ(run1, run2);  // byte-identical metrics + event log

  const std::string other = RunAndCapture(LossyPlan(8));
  EXPECT_NE(run1, other);  // a different seed is a different failure history
}

TEST(FaultDeterminismTest, LossyRunActuallyDropsAndRetries) {
  Runtime rt(TestConfig());
  fault::Injector injector(LossyPlan(7));
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([] { ChattyWorkload(); });
  EXPECT_GT(injector.drops(), 0);
  EXPECT_GT(rt.transport().retries(), 0);
}

TEST(FaultInertnessTest, EmptyPlanChangesNothing) {
  Time bare_end = 0;
  int64_t bare_messages = 0;
  {
    Runtime rt(TestConfig());
    bare_end = rt.Run([] { ChattyWorkload(); });
    bare_messages = rt.network().messages();
  }
  Runtime rt(TestConfig());
  fault::Injector injector{fault::FaultPlan{}};
  EXPECT_FALSE(injector.active());
  rt.SetFaultInjector(&injector);
  const Time end = rt.Run([] { ChattyWorkload(); });
  EXPECT_EQ(end, bare_end);
  EXPECT_EQ(rt.network().messages(), bare_messages);
  EXPECT_FALSE(rt.transport().reliability_enabled());
  EXPECT_EQ(injector.drops(), 0);
}

TEST(FaultCrashTest, CrashAndRestartSurviveWithRetryHandler) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 2;
  ev.crash_at = Millis(10);  // after the object has settled on node 2
  ev.restart_at = Millis(60);
  plan.node_events.push_back(ev);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  // Keep the retransmission budget well under the 59 ms outage, so the
  // failure handler (not silent transport retries) carries the thread
  // across the downtime.
  rpc::RetryPolicy policy;
  policy.timeout = Millis(2);
  policy.timeout_cap = Millis(8);
  policy.max_attempts = 3;
  rt.transport().SetRetryPolicy(policy);
  int failures_seen = 0;
  rt.SetFailureHandler([&](const FailureEvent& e) {
    ++failures_seen;
    EXPECT_EQ(e.node, 2);
    return FailureAction::kRetry;
  });
  int final_value = 0;
  rt.Run([&] {
    auto c = New<Counter>();
    ASSERT_EQ(MoveTo(c, 2), Status::kOk);  // parked on the node about to die
    Work(Millis(12));  // let the crash land
    for (int i = 0; i < 3; ++i) {
      final_value = c.Call(&Counter::Add, 1);  // blocks across the outage
    }
  });
  EXPECT_EQ(final_value, 3);
  EXPECT_EQ(injector.crashes(), 1);
  EXPECT_EQ(injector.restarts(), 1);
  EXPECT_GT(failures_seen, 0)
      << "drops=" << injector.drops() << " retries=" << rt.transport().retries()
      << " timeouts=" << rt.transport().timeouts() << " end=" << rt.now();
}

// fault.unreachable is labelled obj<seq>@node<n>: the chased object's
// creation-sequence number (stable across runs, unlike its address) and the
// node that did not answer.
TEST(FaultCrashTest, UnreachableCounterNamesObjectSeqAndNode) {
  Runtime rt(TestConfig());
  metrics::Registry metrics;
  rt.SetMetrics(&metrics);
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 2;
  ev.crash_at = Millis(10);
  ev.restart_at = Millis(60);
  plan.node_events.push_back(ev);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rpc::RetryPolicy policy;
  policy.timeout = Millis(2);
  policy.timeout_cap = Millis(8);
  policy.max_attempts = 3;
  rt.transport().SetRetryPolicy(policy);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([&] {
    // Object 1 is the root thread; these are objects 2 and 3.
    auto bystander = New<Counter>();
    auto parked = New<Counter>();
    ASSERT_EQ(MoveTo(parked, 2), Status::kOk);
    Work(Millis(12));  // let the crash land
    EXPECT_EQ(parked.Call(&Counter::Add, 1), 1);  // retried across the outage
    EXPECT_EQ(bystander.Call(&Counter::Add, 1), 1);
  });
  const metrics::Registry::CounterFamily* family = metrics.FindCounters("fault.unreachable");
  ASSERT_NE(family, nullptr) << "the call never reported its dead owner";
  ASSERT_EQ(family->size(), 1u);
  EXPECT_EQ(family->begin()->first, "obj3@node2");
  EXPECT_GT(family->begin()->second.value(), 0);
}

TEST(FaultStatusTest, MoveToDeadNodeReturnsUnreachable) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 3;
  ev.crash_at = 0;  // dead from the start, never restarts
  plan.node_events.push_back(ev);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.Run([&] {
    auto c = New<Counter>();
    EXPECT_EQ(MoveTo(c, 3), Status::kUnreachable);
    // The object stayed consistent at its source and remains usable.
    EXPECT_EQ(Locate(c), 0);
    EXPECT_EQ(c.Call(&Counter::Add, 5), 5);
    EXPECT_EQ(MoveTo(c, 1), Status::kOk);
    EXPECT_EQ(Locate(c), 1);
    rt.ValidateLocationInvariants();
  });
  EXPECT_FALSE(injector.NodeUp(3));
}

TEST(FaultStatusTest, MoveAcrossPermanentPartitionFailsTyped) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::Partition part;
  part.a = 0;
  part.b = 3;  // 0 and 3 can never talk
  plan.partitions.push_back(part);
  fault::Injector injector(plan);
  rpc::RetryPolicy policy;
  policy.timeout = Millis(2);
  policy.timeout_cap = Millis(8);
  policy.max_attempts = 3;
  rt.SetFaultInjector(&injector);
  rt.transport().SetRetryPolicy(policy);
  rt.Run([&] {
    auto c = New<Counter>();
    EXPECT_FALSE(injector.Reachable(0, 3, Now()));
    EXPECT_TRUE(injector.Reachable(0, 1, Now()));
    EXPECT_NE(MoveTo(c, 3), Status::kOk);
    EXPECT_EQ(Locate(c), 0);
    // Unaffected links still work.
    EXPECT_EQ(MoveTo(c, 1), Status::kOk);
    rt.ValidateLocationInvariants();
  });
}

TEST(FaultInjectorTest, BulkTransfersConsumeNoDuplicateDrawOrCount) {
  fault::FaultPlan plan;
  fault::LinkRule rule;
  rule.duplicate = 1.0;  // every datagram frame duplicates
  plan.links.push_back(rule);
  fault::Injector injector(plan);
  // The bulk protocol suppresses duplicates below the delivery callback, so
  // the injector must neither flag the transfer nor count a duplicate.
  const net::FaultDecision bulk_fd = injector.OnTransmit(0, 1, 4096, 0, /*bulk=*/true);
  EXPECT_EQ(bulk_fd.action, net::FaultAction::kDeliver);
  EXPECT_EQ(injector.duplicates(), 0);
  const net::FaultDecision frame_fd = injector.OnTransmit(0, 1, 100, 0, /*bulk=*/false);
  EXPECT_EQ(frame_fd.action, net::FaultAction::kDuplicate);
  EXPECT_EQ(injector.duplicates(), 1);
}

TEST(FaultInjectorTest, InactiveInjectorStillRejectsDoubleAttach) {
  fault::Injector injector{fault::FaultPlan{}};
  ASSERT_FALSE(injector.active());
  // An empty plan makes Attach a no-op before touching its arguments, so
  // null hooks are safe here — only the double-attach guard is under test.
  injector.Attach(nullptr, nullptr, nullptr);
  EXPECT_DEATH(injector.Attach(nullptr, nullptr, nullptr), "attached twice");
}

// Delivers everything until it has seen the owner's bulk transfer to the
// move destination, then (while armed) kills every owner->requester frame —
// exactly the move-ack replies of an already-committed remote move.
class MoveAckKiller : public net::FaultFilter {
 public:
  net::FaultDecision OnTransmit(sim::NodeId src, sim::NodeId dst, int64_t /*bytes*/,
                                Time /*depart*/, bool bulk) override {
    if (bulk && src == 1 && dst == 2) {
      saw_transfer_ = true;
    }
    if (armed_ && saw_transfer_ && src == 1 && dst == 0) {
      return net::FaultDecision{net::FaultAction::kDrop, 0};
    }
    return net::FaultDecision{};
  }

  void Disarm() { armed_ = false; }

 private:
  bool armed_ = true;
  bool saw_transfer_ = false;
};

TEST(FaultStatusTest, CommittedMoveWithAllAcksLostStillReportsOk) {
  Runtime rt(TestConfig());
  MoveAckKiller filter;
  rt.network().SetFaultFilter(&filter);
  rt.transport().EnableReliability(true);
  rpc::RetryPolicy policy;
  policy.timeout = Millis(2);
  policy.timeout_cap = Millis(4);
  policy.max_attempts = 3;
  rt.transport().SetRetryPolicy(policy);
  rt.Run([&] {
    auto c = New<Counter>();
    ASSERT_EQ(MoveTo(c, 1), Status::kOk);  // object now owned by node 1
    // Move 1 -> 2 requested from node 0: the owner commits the move and
    // ships the object, but every reply copy back to the requester is lost,
    // so the control roundtrip times out. The move happened — it must be
    // reported kOk, not kUnreachable (a lost ack, not a lost move).
    EXPECT_EQ(MoveTo(c, 2), Status::kOk);
    filter.Disarm();
    EXPECT_EQ(Locate(c), 2);
    EXPECT_EQ(c.Call(&Counter::Add, 4), 4);
    rt.ValidateLocationInvariants();
  });
  EXPECT_EQ(rt.transport().timeouts(), 1);
}

TEST(FaultStatusTest, ForwardingChainThroughDeadNodeIsRepaired) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 1;  // will die holding a stale forwarding hop
  ev.crash_at = Millis(30);
  plan.node_events.push_back(ev);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([&] {
    auto c = New<Counter>();
    // Build a forwarding chain 0 -> 1 -> 2: node 0's descriptor still points
    // at node 1 after the second hop.
    ASSERT_EQ(MoveTo(c, 1), Status::kOk);
    ASSERT_EQ(MoveTo(c, 2), Status::kOk);
    Work(Millis(40));  // node 1 (the chain's middle hop) dies
    // Chasing through the dead hop must re-route via the broadcast-locate
    // repair path and still find the object on node 2.
    EXPECT_EQ(c.Call(&Counter::Add, 9), 9);
    EXPECT_EQ(Locate(c), 2);
  });
  EXPECT_EQ(injector.crashes(), 1);
}

TEST(FaultStatusTest, FailedThreadMigrationLeavesTheThreadOwnedAtItsSource) {
  // A thread that cannot reach a dead node stays on its source, and so must
  // its thread object's owner: EnsureResident answers "resident here?" from
  // `owner`, so a stale one would claim residence where the thread is not.
  // Both kinds of thread are checked: a started one, and the main thread,
  // which Runtime::Run materialises itself.
  class Prober : public Object {
   public:
    int Probe(Ref<Counter> c) { return c.Call(&Counter::Add, 1); }
  };
  for (const bool from_main : {false, true}) {
    SCOPED_TRACE(from_main ? "main thread" : "started thread");
    Runtime rt(TestConfig());
    fault::FaultPlan plan;
    fault::NodeEvent ev;
    ev.node = 2;
    ev.crash_at = Millis(10);
    ev.restart_at = Millis(60);
    plan.node_events.push_back(ev);
    fault::Injector injector(plan);
    rt.SetFaultInjector(&injector);
    int unreachable = 0;
    rt.SetFailureHandler([&](const FailureEvent&) {
      // Checked while the failed travel has been reverted and the thread
      // is still parked on its source.
      rt.ValidateLocationInvariants();
      ++unreachable;
      return FailureAction::kRetry;
    });
    rt.Run([&] {
      auto c = New<Counter>();
      ASSERT_EQ(MoveTo(c, 2), Status::kOk);
      auto p = New<Prober>();
      Work(Millis(20));  // node 2 is down now
      if (from_main) {
        EXPECT_EQ(p.Call(&Prober::Probe, c), 1);  // finished after node 2 restarted
      } else {
        auto w = StartThread(p, &Prober::Probe, c);
        EXPECT_EQ(w.Join(), 1);
      }
    });
    EXPECT_GT(unreachable, 0);
  }
}

// --- Heartbeat wire compatibility ---------------------------------------------
//
// The membership heartbeat payload is versioned so the load-summary gossip
// (src/policy) could be added without a flag day: a v1 decoder reads only
// the fixed prefix and must not choke on a longer v2 frame, a v2 decoder
// must accept a bare v1 frame, and unknown trailing bytes from any future
// version are ignored.

TEST(HeartbeatWireTest, V2RoundTripsAndV1FrameStillDecodes) {
  fault::Membership::Heartbeat hb;
  hb.seq = 41;
  hb.sender = 3;
  hb.has_summary = true;
  hb.summary.runnable = 5;
  hb.summary.busy = 2;
  hb.summary.hot_objects = 7;
  hb.summary.recent_migrations = 1;

  const std::vector<uint8_t> frame = fault::Membership::EncodeHeartbeat(hb);
  const fault::Membership::Heartbeat rx = fault::Membership::DecodeHeartbeat(frame);
  EXPECT_EQ(rx.version, 2);
  EXPECT_EQ(rx.seq, 41u);
  EXPECT_EQ(rx.sender, 3);
  ASSERT_TRUE(rx.has_summary);
  EXPECT_EQ(rx.summary.runnable, 5);
  EXPECT_EQ(rx.summary.busy, 2);
  EXPECT_EQ(rx.summary.hot_objects, 7);
  EXPECT_EQ(rx.summary.recent_migrations, 1);

  // A plain v1 frame (no summary) decodes with has_summary=false.
  fault::Membership::Heartbeat old;
  old.seq = 9;
  old.sender = 1;
  const fault::Membership::Heartbeat rx1 =
      fault::Membership::DecodeHeartbeat(fault::Membership::EncodeHeartbeat(old));
  EXPECT_EQ(rx1.version, 1);
  EXPECT_EQ(rx1.seq, 9u);
  EXPECT_EQ(rx1.sender, 1);
  EXPECT_FALSE(rx1.has_summary);
}

TEST(HeartbeatWireTest, V1StyleReaderAcceptsV2Frame) {
  fault::Membership::Heartbeat hb;
  hb.seq = 123;
  hb.sender = 2;
  hb.has_summary = true;
  hb.summary.runnable = 4;

  // What a pre-summary decoder does: read the fixed prefix, stop. The
  // trailing summary bytes must simply be left unread, not corrupt the base
  // fields or trip the underrun guards.
  rpc::WireBuffer r(fault::Membership::EncodeHeartbeat(hb));
  EXPECT_GE(r.GetU8(), 1);  // version: newer than it knows, prefix unchanged
  EXPECT_EQ(r.GetU64(), 123u);
  EXPECT_EQ(r.GetU32(), 2u);
  EXPECT_EQ(r.remaining(), static_cast<size_t>(fault::Membership::kSummaryWireBytes));
}

TEST(HeartbeatWireTest, FutureVersionTrailingBytesAreIgnored) {
  // A hypothetical v3 frame: v2 payload plus unknown trailing extension
  // bytes. Today's decoder must read the base + summary and ignore the rest.
  fault::Membership::Heartbeat hb;
  hb.seq = 77;
  hb.sender = 0;
  hb.has_summary = true;
  hb.summary.hot_objects = 3;
  std::vector<uint8_t> frame = fault::Membership::EncodeHeartbeat(hb);
  frame[0] = 3;  // claim a future version
  frame.insert(frame.end(), {0xde, 0xad, 0xbe, 0xef, 0x01});

  const fault::Membership::Heartbeat rx = fault::Membership::DecodeHeartbeat(frame);
  EXPECT_EQ(rx.version, 3);
  EXPECT_EQ(rx.seq, 77u);
  EXPECT_EQ(rx.sender, 0);
  ASSERT_TRUE(rx.has_summary);
  EXPECT_EQ(rx.summary.hot_objects, 3);

  // And a future frame whose extra bytes are too short to hold a summary
  // still yields the base fields.
  fault::Membership::Heartbeat bare;
  bare.seq = 6;
  bare.sender = 1;
  std::vector<uint8_t> short_frame = fault::Membership::EncodeHeartbeat(bare);
  short_frame[0] = 3;
  short_frame.push_back(0x42);  // 1 trailing byte < kSummaryWireBytes
  const fault::Membership::Heartbeat rx2 = fault::Membership::DecodeHeartbeat(short_frame);
  EXPECT_EQ(rx2.seq, 6u);
  EXPECT_FALSE(rx2.has_summary);
}

}  // namespace
}  // namespace amber
