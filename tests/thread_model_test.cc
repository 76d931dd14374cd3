// Tests for amber::ThreadModel, the per-thread state the runtime keeps for
// every observer: driven with synthetic events, it must record the cause
// markers exactly as the profiler (priority rule) and the tracer / flight
// recorder (last-armed rule) read them, and cut each thread's lifetime into
// segments that tile it exactly; driven by a real runtime, observers must
// see it as it was before each event.

#include "src/core/thread_model.h"

#include <gtest/gtest.h>

#include "src/core/amber.h"

namespace amber {
namespace {

using Kind = ThreadModel::Marker::Kind;
using RunState = ThreadModel::RunState;

constexpr ThreadId kT = 2;

// A model with thread kT created on node 0 and running.
ThreadModel Running() {
  ThreadModel m;
  m.OnThreadCreate(10, 0, kT, "worker", 1);
  m.OnThreadDispatch(20, 0, kT, 10);
  return m;
}

TEST(ThreadModelTest, LifecycleStateNodeAndSince) {
  ThreadModel m = Running();
  const ThreadModel::Thread* t = &m.Get(kT);
  ASSERT_TRUE(t->seen);
  EXPECT_EQ(t->name, "worker");
  EXPECT_EQ(t->parent, 1u);
  EXPECT_EQ(t->state, RunState::kRunning);
  EXPECT_EQ(t->since, 20);
  m.OnThreadBlock(30, 0, kT);
  m.OnThreadUnblock(40, 1, kT, 0, 40);  // woken on node 1 (a migration arrival)
  EXPECT_EQ(t->state, RunState::kReady);
  EXPECT_EQ(t->node, 1);
  m.OnThreadPreempt(50, 0, kT);  // preemption does not move the thread
  EXPECT_EQ(t->node, 1);
  EXPECT_EQ(t->since, 50);
  m.OnThreadExit(60, 1, kT);
  EXPECT_EQ(t->state, RunState::kExited);
  EXPECT_FALSE(m.Get(kT + 1).seen);
}

TEST(ThreadModelTest, LockAndRpcBeforeOneBlockSplitTheRules) {
  ThreadModel m = Running();
  m.OnLockBlocked(30, 0, kT, /*lock=*/3);
  m.OnRpcRequest(31, 0, /*dst=*/2, 64, /*id=*/7, kT);
  m.OnThreadBlock(32, 0, kT);
  const ThreadModel::Thread& t = m.Get(kT);
  ASSERT_EQ(t.markers.size(), 2u);
  // Last-armed rule (tracer, flight recorder): the wait is the rpc.
  EXPECT_EQ(t.markers.back().kind, Kind::kRpc);
  EXPECT_EQ(t.markers.back().arg, 7);
  EXPECT_EQ(t.markers.back().node, 2);
  // Priority rule (profiler): the lock being acquired outranks the rpc.
  EXPECT_EQ(t.lock, 3);
  EXPECT_TRUE(t.rpc);
  EXPECT_EQ(t.rpc_dst, 2);

  // The reply ends the rpc with the wake it caused; the lock wait outlives
  // the block until the acquire.
  m.OnRpcResponse(40, 45, 2, 0, 64, 7);
  EXPECT_TRUE(t.rpc_replied);
  m.OnThreadUnblock(45, 0, kT, 0, 45);
  EXPECT_TRUE(t.markers.empty()) << "the wake ends the wait";
  EXPECT_FALSE(t.rpc);
  EXPECT_EQ(t.lock, 3);
  m.OnThreadBlock(50, 0, kT);
  EXPECT_TRUE(t.markers.empty()) << "nothing armed: only the lock names this wait";
  EXPECT_EQ(t.lock, 3);
  m.OnThreadUnblock(60, 0, kT, 5, 58);
  m.OnLockAcquired(60, 0, kT, 3, 30);
  EXPECT_EQ(t.lock, -1);
  EXPECT_EQ(t.locks, (std::vector<int>{3}));
  m.OnLockReleased(70, 0, kT, 3, 10);
  EXPECT_TRUE(t.locks.empty());
}

TEST(ThreadModelTest, TimeoutWakeThenRetryKeepsTheRpcArmed) {
  ThreadModel m = Running();
  m.OnRpcRequest(30, 0, 1, 64, /*id=*/9, kT);
  m.OnThreadBlock(31, 0, kT);
  m.OnThreadUnblock(80, 0, kT, 0, 80);  // retransmission timeout, no reply
  const ThreadModel::Thread& t = m.Get(kT);
  EXPECT_TRUE(t.rpc) << "a timeout wake keeps the roundtrip outstanding";
  m.OnThreadDispatch(80, 0, kT, 0);
  m.OnRpcRetry(81, 0, 1, 9, 1, kT);
  m.OnThreadBlock(82, 0, kT);
  ASSERT_EQ(t.markers.size(), 1u);
  EXPECT_EQ(t.markers.back().kind, Kind::kRetry);  // the tracer's "retry" wait
  EXPECT_TRUE(t.rpc);                           // still the profiler's rpc
  // A retransmission reported while the requester is blocked arms nothing.
  m.OnRpcRetry(90, 0, 1, 9, 2, kT);
  EXPECT_EQ(t.markers.size(), 1u);
  m.OnRpcTimeout(120, 0, 1, 9, 3, kT);
  EXPECT_FALSE(t.rpc);
  // The give-up dropped the id: a late reply changes nothing.
  m.OnRpcResponse(121, 125, 1, 0, 64, 9);
  EXPECT_FALSE(t.rpc_replied);
}

TEST(ThreadModelTest, MigrationBeforeDepartureAndAfterArrival) {
  ThreadModel m = Running();
  const ThreadModel::Thread& t = m.Get(kT);
  // Lossless travel: announced on the source node, names the coming transit.
  m.OnThreadMigrate(30, 0, 1, kT, 512);
  ASSERT_EQ(t.markers.size(), 1u);
  EXPECT_EQ(t.markers.back().kind, Kind::kMigration);
  EXPECT_EQ(t.markers.back().node, 1);
  m.OnThreadBlock(30, 0, kT);
  m.OnThreadUnblock(40, 1, kT, 0, 40);
  m.OnThreadDispatch(40, 1, kT, 0);
  // Reliable travel: announced after the thread already runs on dst, so the
  // transit it names is over (the profiler reclassifies the last wait; the
  // last-armed rule still names the next one a migration).
  m.OnThreadBlock(50, 1, kT);
  m.OnThreadUnblock(60, 2, kT, 0, 60);
  m.OnThreadDispatch(60, 2, kT, 0);
  m.OnThreadMigrate(50, 1, 2, kT, 512);
  ASSERT_EQ(t.markers.size(), 1u);
  EXPECT_EQ(t.markers.back().kind, Kind::kArrival);
  EXPECT_EQ(t.markers.back().node, 2);
}

TEST(ThreadModelTest, JoinNamesItsTarget) {
  ThreadModel m = Running();
  m.OnThreadJoin(30, 0, kT, /*target=*/5);
  m.OnThreadBlock(30, 0, kT);
  const ThreadModel::Thread& t = m.Get(kT);
  ASSERT_EQ(t.markers.size(), 1u);
  EXPECT_EQ(t.markers.back().kind, Kind::kJoin);
  EXPECT_EQ(t.markers.back().arg, 5);
}

TEST(ThreadModelTest, RecoveryBracketIsLevelTriggered) {
  ThreadModel m = Running();
  const ThreadModel::Thread& t = m.Get(kT);
  m.OnRecoveryEnd(25, 0, kT, nullptr, false);  // unmatched end: ignored
  EXPECT_EQ(t.recovery, 0);
  m.OnRecoveryStart(30, 0, kT, nullptr);
  m.OnRpcRequest(31, 0, 1, 64, 1, kT);
  m.OnThreadBlock(31, 0, kT);
  m.OnRpcResponse(35, 40, 1, 0, 64, 1);
  m.OnThreadUnblock(40, 0, kT, 0, 40);
  m.OnFailureBackoff(41, 0, kT, 100);
  m.OnThreadBlock(41, 0, kT);
  EXPECT_EQ(t.recovery, 1) << "every block inside the bracket belongs to the episode";
  EXPECT_EQ(t.markers.back().kind, Kind::kBackoff);
  m.OnThreadUnblock(141, 0, kT, 0, 141);
  m.OnRecoveryEnd(142, 0, kT, nullptr, true);
  EXPECT_EQ(t.recovery, 0);
}

TEST(ThreadModelTest, FramesAndForEachOrder) {
  ThreadModel m = Running();
  int a = 0;
  int b = 0;
  m.OnInvokeEnter(30, 1, kT, &a, "A", true, 0, 5);
  m.OnInvokeEnter(31, 1, kT, &b, "B", false, 1, 0);
  const ThreadModel::Thread& t = m.Get(kT);
  ASSERT_EQ(t.frames.size(), 2u);
  EXPECT_EQ(t.frames[0].object, &a);
  EXPECT_TRUE(t.frames[0].remote);
  EXPECT_EQ(t.frames[1].origin, 1);
  m.OnInvokeExit(32, 1, kT, 1, false, 0);
  m.OnInvokeExit(33, 1, kT, 3, true, 0);
  m.OnInvokeExit(34, 1, kT, 0, false, 0);  // unmatched exit: ignored
  EXPECT_TRUE(t.frames.empty());
  m.OnThreadCreate(40, 1, 7, "late", kT);
  m.OnThreadExit(50, 0, kT);
  std::vector<ThreadId> seen;
  m.ForEach([&](ThreadId id, const ThreadModel::Thread&) { seen.push_back(id); });
  EXPECT_EQ(seen, (std::vector<ThreadId>{kT, 7})) << "exited threads stay, ascending id";
}

// --- Tiling --------------------------------------------------------------------

// Keeps every closed segment with what a consumer's rule would read of the
// thread at that moment.
class Recording : public ThreadModel::Tiler {
 public:
  struct Closed {
    ThreadModel::Segment seg;
    std::vector<ThreadModel::Marker> markers;
    bool rpc = false;
    NodeId rpc_dst = -1;
  };
  void OnSegment(const ThreadModel::Segment& seg, const ThreadModel::Thread& t) override {
    closed.push_back(Closed{seg, t.markers, t.rpc, t.rpc_dst});
  }
  std::vector<Closed> closed;
};

TEST(ThreadModelTest, SegmentsTileTheLifetimeWithTheirRulesInputs) {
  ThreadModel m;
  Recording rec;
  m.AddTiler(&rec);
  // The runtime's order: the segment ends, then the event applies.
  auto dispatch = [&](Time when, NodeId node) {
    m.EndSegment(kT, when, node);
    m.OnThreadDispatch(when, node, kT, 0);
  };
  auto block = [&](Time when, NodeId node) {
    m.EndSegment(kT, when, node);
    m.OnThreadBlock(when, node, kT);
  };
  auto unblock = [&](Time when, NodeId node, ThreadId waker, Time wake_time) {
    m.EndSegment(kT, when, node, waker, wake_time);
    m.OnThreadUnblock(when, node, kT, waker, wake_time);
  };
  m.OnThreadCreate(10, 0, kT, "worker", 1);
  dispatch(20, 0);
  m.EndSegment(kT, 30, 0);
  m.OnThreadPreempt(30, 0, kT);
  dispatch(35, 0);
  m.OnRpcRequest(40, 0, /*dst=*/1, 64, /*id=*/9, kT);
  block(41, 0);
  unblock(80, 0, 0, 80);  // retransmission timeout, no reply yet
  dispatch(80, 0);        // zero-length ready stretch: skipped
  m.OnRpcRetry(81, 0, 1, 9, 1, kT);
  block(82, 0);
  m.OnRpcResponse(90, 95, 1, 0, 64, 9);
  unblock(95, 0, 0, 95);
  dispatch(100, 0);
  m.OnThreadJoin(110, 0, kT, /*target=*/5);
  block(110, 0);
  unblock(150, 0, /*waker=*/5, /*wake_time=*/148);
  dispatch(150, 0);
  m.OnThreadMigrate(160, 0, 1, kT, 512);
  block(160, 0);
  unblock(170, 1, 0, 170);  // arrival on node 1
  dispatch(172, 1);
  m.EndSegment(kT, 200, 1);
  m.OnThreadExit(200, 1, kT);
  m.EndSegment(kT, 210, 1);  // nothing is open after the exit

  ASSERT_EQ(rec.closed.size(), 14u);
  Time at = 10;  // the create
  for (const Recording::Closed& c : rec.closed) {
    EXPECT_EQ(c.seg.thread, kT);
    EXPECT_EQ(c.seg.start, at) << "gap or overlap";
    EXPECT_GT(c.seg.end, c.seg.start) << "zero-length segments are skipped";
    at = c.seg.end;
  }
  EXPECT_EQ(at, 200) << "the tiling ends at the exit";

  auto states = [&] {
    std::vector<RunState> out;
    for (const Recording::Closed& c : rec.closed) {
      out.push_back(c.seg.state);
    }
    return out;
  }();
  const RunState R = RunState::kReady;
  const RunState U = RunState::kRunning;
  const RunState B = RunState::kBlocked;
  EXPECT_EQ(states, (std::vector<RunState>{R, U, R, U, B, U, B, R, U, B, U, B, R, U}));

  // The rpc block, ended by its timeout: both rules read an rpc to node 1.
  const Recording::Closed& rpc = rec.closed[4];
  ASSERT_EQ(rpc.markers.size(), 1u);
  EXPECT_EQ(rpc.markers.back().kind, Kind::kRpc);
  EXPECT_TRUE(rpc.rpc);
  EXPECT_EQ(rpc.rpc_dst, 1);
  // The retry's block: the last marker says retry (the tracer), the
  // outstanding roundtrip says rpc (the profiler's rank).
  const Recording::Closed& retry = rec.closed[6];
  ASSERT_EQ(retry.markers.size(), 1u);
  EXPECT_EQ(retry.markers.back().kind, Kind::kRetry);
  EXPECT_TRUE(retry.rpc);
  EXPECT_EQ(retry.seg.end, 95);
  // The join: its target is armed, and the unblock carries the waker edge.
  const Recording::Closed& join = rec.closed[9];
  ASSERT_EQ(join.markers.size(), 1u);
  EXPECT_EQ(join.markers.back().kind, Kind::kJoin);
  EXPECT_EQ(join.markers.back().arg, 5);
  EXPECT_EQ(join.seg.waker, 5u);
  EXPECT_EQ(join.seg.wake_time, 148);
  EXPECT_FALSE(join.rpc);
  // The migration transit, ended on the destination node.
  const Recording::Closed& transit = rec.closed[11];
  ASSERT_EQ(transit.markers.size(), 1u);
  EXPECT_EQ(transit.markers.back().kind, Kind::kMigration);
  EXPECT_EQ(transit.seg.node, 1);
  EXPECT_EQ(rec.closed[12].seg.node, 1);
  // Running and ready stretches carry no wake edge.
  EXPECT_EQ(rec.closed[13].seg.waker, 0u);
}

TEST(ThreadModelTest, EndAllSegmentsClosesLiveThreadsAtTheHorizon) {
  ThreadModel m;
  Recording rec;
  m.AddTiler(&rec);
  m.OnThreadCreate(10, 2, kT, "live", 1);
  m.EndSegment(kT, 20, 2);
  m.OnThreadDispatch(20, 2, kT, 10);
  m.OnThreadCreate(15, 0, kT + 1, "gone", 1);
  m.EndSegment(kT + 1, 18, 0);
  m.OnThreadExit(18, 0, kT + 1);
  rec.closed.clear();
  m.EndAllSegments(50);
  ASSERT_EQ(rec.closed.size(), 1u) << "only the live thread is open";
  EXPECT_EQ(rec.closed[0].seg.thread, kT);
  EXPECT_EQ(rec.closed[0].seg.state, RunState::kRunning);
  EXPECT_EQ(rec.closed[0].seg.start, 20);
  EXPECT_EQ(rec.closed[0].seg.end, 50);
  EXPECT_EQ(rec.closed[0].seg.node, 2) << "on the node it was last seen on";
}

// --- The runtime's dispatch ------------------------------------------------------

class Poked : public Object {
 public:
  int Poke() {
    Work(kMicrosecond * 10);
    return ++pokes_;
  }

 private:
  int pokes_ = 0;
};

// Checks, at every event it handles, that the runtime's model has not yet
// applied that event.
class BeforeChecker : public RuntimeObserver {
 public:
  explicit BeforeChecker(const Runtime& rt) : model_(rt.thread_model()) {}

  void OnThreadCreate(Time, NodeId, ThreadId thread, const std::string&, ThreadId) override {
    EXPECT_FALSE(model_->Get(thread).seen);
    ++checks;
  }
  void OnThreadDispatch(Time, NodeId, ThreadId thread, Duration) override {
    EXPECT_EQ(model_->Get(thread).state, ThreadModel::RunState::kReady);
    ++checks;
  }
  void OnThreadUnblock(Time, NodeId, ThreadId thread, ThreadId, Time) override {
    EXPECT_EQ(model_->Get(thread).state, ThreadModel::RunState::kBlocked);
    ++checks;
  }
  void OnInvokeEnter(Time, NodeId, ThreadId thread, const void*, const std::string&, bool,
                     NodeId, Duration) override {
    depth_at_enter = model_->Get(thread).frames.size();
    ++checks;
  }
  void OnInvokeExit(Time, NodeId, ThreadId thread, Duration, bool, Duration) override {
    EXPECT_EQ(model_->Get(thread).frames.size(), depth_at_enter + 1)
        << "the returning frame is still open";
    ++checks;
  }

  int checks = 0;
  size_t depth_at_enter = 0;

 private:
  std::shared_ptr<const ThreadModel> model_;
};

TEST(ThreadModelTest, ObserversSeeTheModelBeforeEachEvent) {
  Runtime::Config c;
  c.nodes = 2;
  c.procs_per_node = 1;
  c.arena_bytes = size_t{128} << 20;
  Runtime rt(c);
  BeforeChecker checker(rt);
  rt.AddObserver(&checker);
  rt.Run([] {
    auto p = NewOn<Poked>(1);
    p.Call(&Poked::Poke);  // a remote invocation: migrate, block, unblock
  });
  EXPECT_GT(checker.checks, 4);
  // After the run the model holds the final state of every thread.
  const ThreadModel::Thread& main = rt.thread_model()->Get(1);
  EXPECT_EQ(main.name, "main");
  EXPECT_EQ(main.state, ThreadModel::RunState::kExited);
  EXPECT_TRUE(main.frames.empty());
}

}  // namespace
}  // namespace amber
