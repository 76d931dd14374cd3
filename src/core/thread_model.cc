#include "src/core/thread_model.h"

#include <algorithm>

namespace amber {

using Kind = ThreadModel::Marker::Kind;

const ThreadModel::Thread ThreadModel::kUnseen;

ThreadModel::Thread& ThreadModel::At(ThreadId thread) {
  if (thread >= threads_.size()) {
    threads_.resize(thread + 1);
  }
  Thread& t = threads_[thread];
  t.seen = true;
  return t;
}

void ThreadModel::Tile(ThreadId thread, Time when, NodeId node, ThreadId waker,
                       Time wake_time) {
  const Thread& t = Get(thread);
  if (!t.seen || t.state == RunState::kExited || when <= t.since) {
    return;
  }
  const Segment seg{thread, t.state, node, t.since, when, waker, wake_time};
  for (Tiler* tiler : tilers_) {
    tiler->OnSegment(seg, t);
  }
}

void ThreadModel::EndAllSegments(Time horizon) {
  for (ThreadId id = 0; id < threads_.size(); ++id) {
    Tile(id, horizon, threads_[id].node, 0, 0);
  }
}

void ThreadModel::OnThreadCreate(Time when, NodeId node, ThreadId thread,
                                 const std::string& name, ThreadId parent) {
  Thread& t = At(thread);
  t.name = name;
  t.parent = parent;
  t.node = node;
  SetState(t, RunState::kReady, when);
}

void ThreadModel::OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration) {
  Thread& t = At(thread);
  t.node = node;
  SetState(t, RunState::kRunning, when);
}

void ThreadModel::OnThreadBlock(Time when, NodeId node, ThreadId thread) {
  Thread& t = At(thread);
  t.node = node;
  SetState(t, RunState::kBlocked, when);
}

void ThreadModel::OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId, Time) {
  Thread& t = At(thread);
  t.node = node;
  t.markers.clear();
  if (t.rpc_replied) {
    t.rpc = false;  // the roundtrip's reply ended this wait
    t.rpc_replied = false;
  }
  SetState(t, RunState::kReady, when);
}

void ThreadModel::OnThreadPreempt(Time when, NodeId, ThreadId thread) {
  SetState(At(thread), RunState::kReady, when);
}

void ThreadModel::OnThreadExit(Time when, NodeId, ThreadId thread) {
  Thread& t = At(thread);
  SetState(t, RunState::kExited, when);
  // An exited thread is kept for the record; give back its buffers.
  t.markers.shrink_to_fit();
  t.frames.shrink_to_fit();
  t.locks.shrink_to_fit();
}

void ThreadModel::OnThreadJoin(Time, NodeId, ThreadId thread, ThreadId target) {
  At(thread).markers.push_back({Kind::kJoin, static_cast<int64_t>(target), -1});
}

void ThreadModel::OnThreadMigrate(Time, NodeId, NodeId dst, ThreadId thread, int64_t) {
  Thread& t = At(thread);
  // Lossless travel announces before departure, reliable travel after the
  // thread already runs at dst.
  t.markers.push_back({t.node == dst ? Kind::kArrival : Kind::kMigration, 0, dst});
}

void ThreadModel::OnInvokeEnter(Time, NodeId, ThreadId thread, const void* obj,
                                const std::string&, bool remote, NodeId origin, Duration) {
  At(thread).frames.push_back(Frame{obj, origin, remote});
}

void ThreadModel::OnInvokeExit(Time, NodeId, ThreadId thread, Duration, bool, Duration) {
  Thread& t = At(thread);
  if (!t.frames.empty()) {
    t.frames.pop_back();
  }
}

void ThreadModel::OnLockBlocked(Time, NodeId, ThreadId thread, int lock) {
  Thread& t = At(thread);
  t.lock = lock;
  t.markers.push_back({Kind::kLock, lock, -1});
}

void ThreadModel::OnLockAcquired(Time, NodeId, ThreadId thread, int lock, Duration) {
  Thread& t = At(thread);
  t.lock = -1;
  t.locks.push_back(lock);
}

void ThreadModel::OnLockReleased(Time, NodeId, ThreadId thread, int lock, Duration) {
  std::vector<int>& held = At(thread).locks;
  held.erase(std::remove(held.begin(), held.end(), lock), held.end());
}

void ThreadModel::OnRpcRequest(Time, NodeId, NodeId dst, int64_t, uint64_t id,
                               ThreadId requester) {
  if (requester == 0) {
    return;
  }
  rpc_requester_[id] = requester;
  Thread& t = At(requester);
  t.rpc = true;
  t.rpc_replied = false;
  t.rpc_dst = dst;
  t.markers.push_back({Kind::kRpc, static_cast<int64_t>(id), dst});
}

void ThreadModel::OnRpcResponse(Time, Time, NodeId, NodeId, int64_t, uint64_t id) {
  const auto it = rpc_requester_.find(id);
  if (it == rpc_requester_.end()) {
    return;
  }
  Thread& t = threads_[it->second];
  if (t.rpc) {
    t.rpc_replied = true;
  }
  rpc_requester_.erase(it);
}

void ThreadModel::OnRpcRetry(Time, NodeId, NodeId dst, uint64_t id, int, ThreadId requester) {
  Thread& t = At(requester);
  if (t.state != RunState::kBlocked) {  // a blocked requester's wait is already named
    t.markers.push_back({Kind::kRetry, static_cast<int64_t>(id), dst});
  }
}

void ThreadModel::OnRpcTimeout(Time, NodeId, NodeId, uint64_t id, int, ThreadId requester) {
  rpc_requester_.erase(id);
  Thread& t = At(requester);
  t.rpc = false;
  t.rpc_replied = false;
}

void ThreadModel::OnFailureBackoff(Time, NodeId, ThreadId thread, Duration) {
  At(thread).markers.push_back({Kind::kBackoff, 0, -1});
}

void ThreadModel::OnRecoveryStart(Time, NodeId, ThreadId thread, const void*) {
  ++At(thread).recovery;
}

void ThreadModel::OnRecoveryEnd(Time, NodeId, ThreadId thread, const void*, bool) {
  Thread& t = At(thread);
  if (t.recovery > 0) {
    --t.recovery;
  }
}

}  // namespace amber
