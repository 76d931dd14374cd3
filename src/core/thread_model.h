// amber::ThreadModel — the per-thread state every observer of the event bus
// shares: what each thread is doing, what it is about to wait on, what it
// is waiting on, and what it holds.
//
// The runtime owns one model and updates it from its single emission
// dispatch, once per event, only while an observer is attached. The request
// tracer (src/rtrace) and the flight recorder (src/fdr) read it instead of
// each re-deriving thread state from the event stream; the critical-path
// profiler (src/prof) replays a recorder's log through a model of its own.
//
// Ordering: observers see the model as it was *before* the event they are
// handling. The dispatch fans an event out first and applies it to the
// model last, for every event alike. So inside OnThreadUnblock the thread is
// still kBlocked and its wait still lists the markers that explain the
// block; inside OnInvokeExit the returning frame is still on top.
//
// Cause markers. Fiber code announces why it is about to block just before
// it blocks (OnThreadJoin, OnLockBlocked, OnThreadMigrate, OnFailureBackoff,
// OnRpcRequest, OnRpcRetry). The model records each announcement as a Marker
// on the thread's `markers` list, in arming order. At OnThreadBlock the list
// becomes what the block waits on, and OnThreadUnblock drops it (nothing is
// armed while a thread is blocked). Two markers outlive a single block:
//   * `lock` names the lock being acquired from OnLockBlocked until
//     OnLockAcquired, however many blocks lie in between;
//   * the outstanding roundtrip (`rpc`) stays armed from OnRpcRequest across
//     timeout wakes, until the first wake after its reply or OnRpcTimeout.
// Recovery is level-triggered: `recovery` counts the open
// OnRecoveryStart/OnRecoveryEnd brackets, and every block inside belongs to
// the episode.
//
// Tiling. The model is the one place that cuts a thread's lifetime into
// segments. Each dispatch, block, unblock, preempt or exit of a thread ends
// its open segment: [since, when) in the state the thread was in, handed to
// every attached Tiler with the thread as it was throughout (zero-length
// segments are skipped). A thread's segments tile [create, exit] with no gap
// or overlap. The event's source calls EndSegment just before it delivers
// the event, so tilers and observers alike see the model as it was before
// it. A Tiler supplies only its category rule: the profiler ranks the
// markers (join, lock, migration, backoff, rpc, waker); the tracer takes the
// last one armed. The runtime attaches every observer that is also a Tiler;
// observers that do not tile pay nothing for it.

#ifndef AMBER_SRC_CORE_THREAD_MODEL_H_
#define AMBER_SRC_CORE_THREAD_MODEL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/runtime.h"

namespace amber {

class ThreadModel final : public RuntimeObserver {
 public:
  enum class RunState : uint8_t { kReady, kRunning, kBlocked, kExited };

  // One announcement of what the thread's next block waits on.
  struct Marker {
    enum class Kind : uint8_t {
      kJoin,       // arg: the joined thread
      kLock,       // arg: lock id
      kMigration,  // node: destination; announced before departure
      kArrival,    // node: destination; a migration announced after arrival
                   // (reliable mode), so the block it names is already over
      kBackoff,    // failure-handler backoff
      kRpc,        // arg: rpc id, node: destination
      kRetry,      // arg: rpc id, node: destination; a retransmission
    };
    Kind kind = Kind::kJoin;
    int64_t arg = 0;
    NodeId node = -1;
  };

  // An open invocation frame (OnInvokeEnter .. OnInvokeExit).
  struct Frame {
    const void* object = nullptr;
    NodeId origin = 0;
    bool remote = false;
  };

  struct Thread {
    std::string name;
    ThreadId parent = 0;
    NodeId node = 0;  // as of the last create / dispatch / block / unblock
    RunState state = RunState::kReady;
    Time since = 0;   // last state change
    // Announced since the last block, in arming order; while the thread is
    // kBlocked, what the block waits on.
    std::vector<Marker> markers;
    int lock = -1;              // lock being acquired, -1 when none
    bool rpc = false;           // a roundtrip is outstanding...
    bool rpc_replied = false;   // ...and its reply has been sent
    NodeId rpc_dst = 0;
    int recovery = 0;           // open recovery brackets
    std::vector<Frame> frames;  // open invocation frames, innermost last
    std::vector<int> locks;     // held lock ids, in acquisition order
    bool seen = false;          // some event has named this thread
  };

  // One closed stretch of a thread's lifetime: [start, end) in `state`,
  // ended by an event on `node`. A kBlocked segment ended by an unblock
  // carries the wake's causal edge (`waker`, its `wake_time`); 0 otherwise.
  struct Segment {
    ThreadId thread = 0;
    RunState state = RunState::kReady;
    NodeId node = 0;
    Time start = 0;
    Time end = 0;
    ThreadId waker = 0;
    Time wake_time = 0;
  };

  // A consumer of the tiling. `t` is the thread as it was for the whole
  // segment: its markers, lock, rpc and recovery name a kBlocked one.
  class Tiler {
   public:
    virtual ~Tiler() = default;
    virtual void OnSegment(const Segment& seg, const Thread& t) = 0;
  };

  void AddTiler(Tiler* tiler) { tilers_.push_back(tiler); }
  void ClearTilers() { tilers_.clear(); }

  // Ends `thread`'s open segment at `when`. Call just before delivering a
  // dispatch, block, unblock (with its waker and wake time), preempt or exit
  // of `thread` on `node`. Free without a tiler.
  void EndSegment(ThreadId thread, Time when, NodeId node, ThreadId waker = 0,
                  Time wake_time = 0) {
    if (!tilers_.empty()) {
      Tile(thread, when, node, waker, wake_time);
    }
  }

  // Ends every live thread's open segment at `horizon` (threads that never
  // exited), on the node it was last seen on.
  void EndAllSegments(Time horizon);

  // The thread's state; a default Thread (seen == false) when no event has
  // named it yet.
  const Thread& Get(ThreadId thread) const {
    return thread < threads_.size() ? threads_[thread] : kUnseen;
  }

  // Every thread seen so far, exited ones included, in ascending id order.
  template <typename F>
  void ForEach(F&& f) const {
    for (ThreadId id = 0; id < threads_.size(); ++id) {
      if (threads_[id].seen) {
        f(id, threads_[id]);
      }
    }
  }

  // --- RuntimeObserver (applied by Runtime's dispatch; tests drive it
  // directly) ------------------------------------------------------------------
  void OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                      ThreadId parent) override;
  void OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) override;
  void OnThreadBlock(Time when, NodeId node, ThreadId thread) override;
  void OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                       Time wake_time) override;
  void OnThreadPreempt(Time when, NodeId node, ThreadId thread) override;
  void OnThreadExit(Time when, NodeId node, ThreadId thread) override;
  void OnThreadJoin(Time when, NodeId node, ThreadId thread, ThreadId target) override;
  void OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                       int64_t bytes) override;
  void OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                     const std::string& object, bool remote, NodeId origin,
                     Duration entry_overhead) override;
  void OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                    Duration exit_overhead) override;
  void OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) override;
  void OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock, Duration wait) override;
  void OnLockReleased(Time when, NodeId node, ThreadId thread, int lock, Duration held) override;
  void OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                    ThreadId requester) override;
  void OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst, int64_t bytes,
                     uint64_t id) override;
  void OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                  ThreadId requester) override;
  void OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                    ThreadId requester) override;
  void OnFailureBackoff(Time when, NodeId node, ThreadId thread, Duration backoff) override;
  void OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) override;
  void OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj, bool ok) override;

 private:
  Thread& At(ThreadId thread);
  void Tile(ThreadId thread, Time when, NodeId node, ThreadId waker, Time wake_time);
  void SetState(Thread& t, RunState state, Time when) {
    t.state = state;
    t.since = when;
  }

  static const Thread kUnseen;
  // By thread id (ids are dense from 1). A deque grows without moving the
  // threads already recorded.
  std::deque<Thread> threads_;
  std::unordered_map<uint64_t, ThreadId> rpc_requester_;  // outstanding rpc id -> thread
  std::vector<Tiler*> tilers_;
};

}  // namespace amber

#endif  // AMBER_SRC_CORE_THREAD_MODEL_H_
