#include "src/fdr/fdr.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "src/base/json.h"
#include "src/metrics/metrics.h"
#include "src/sim/fiber.h"

namespace fdr {

using amber::JsonEscape;

namespace {

// Stable type names — the dump schema renderers switch on.
const char* TypeName(EventType t) {
  switch (t) {
    case EventType::kThreadCreate:      return "thread_create";
    case EventType::kThreadDispatch:    return "thread_dispatch";
    case EventType::kThreadBlock:       return "thread_block";
    case EventType::kThreadUnblock:     return "thread_unblock";
    case EventType::kThreadPreempt:     return "thread_preempt";
    case EventType::kThreadExit:        return "thread_exit";
    case EventType::kThreadJoin:        return "thread_join";
    case EventType::kThreadMigrate:     return "thread_migrate";
    case EventType::kInvokeEnter:       return "invoke_enter";
    case EventType::kInvokeExit:        return "invoke_exit";
    case EventType::kLockBlocked:       return "lock_blocked";
    case EventType::kLockAcquired:      return "lock_acquired";
    case EventType::kLockReleased:      return "lock_released";
    case EventType::kConditionWake:     return "condition_wake";
    case EventType::kRpcRequest:        return "rpc_request";
    case EventType::kRpcResponse:       return "rpc_response";
    case EventType::kRpcRetry:          return "rpc_retry";
    case EventType::kRpcTimeout:        return "rpc_timeout";
    case EventType::kObjectMove:        return "object_move";
    case EventType::kReplicaInstall:    return "replica_install";
    case EventType::kMessage:           return "message";
    case EventType::kMessageDropped:    return "message_dropped";
    case EventType::kMessageDuplicated: return "message_duplicated";
    case EventType::kMessageDelayed:    return "message_delayed";
    case EventType::kNodeCrash:         return "node_crash";
    case EventType::kNodeRestart:       return "node_restart";
    case EventType::kFailureBackoff:    return "failure_backoff";
    case EventType::kNodeSuspected:     return "node_suspected";
    case EventType::kNodeTrusted:       return "node_trusted";
    case EventType::kRecoveryStart:     return "recovery_start";
    case EventType::kRecoveryEnd:       return "recovery_end";
    case EventType::kObjectRecovered:   return "object_recovered";
    case EventType::kNodeDrained:       return "node_drained";
    case EventType::kPolicyMigration:   return "policy_migration";
  }
  return "unknown";
}

// Drop reasons travel as codes in the 1-byte flag.
uint8_t DropCode(const char* reason) {
  if (reason == nullptr) return 0;
  if (std::string_view(reason) == "lossy") return 1;
  if (std::string_view(reason) == "partition") return 2;
  if (std::string_view(reason) == "node_down") return 3;
  return 0;
}

const char* DropName(uint8_t code) {
  switch (code) {
    case 1: return "lossy";
    case 2: return "partition";
    case 3: return "node_down";
  }
  return "other";
}


}  // namespace

Recorder::Recorder(Config config) : config_(std::move(config)) {
  if (config_.ring_capacity == 0) {
    config_.ring_capacity = 1;
  }
}

void Recorder::AttachTo(amber::Runtime& rt) {
  // Every node gets a ring (the dump lists each one), grown as records come.
  RingFor(rt.nodes() - 1);
  model_ = rt.thread_model();
  rt.SetBlackBox(this);
}

Recorder::Ring& Recorder::RingFor(NodeId node) {
  const size_t idx = node < 0 ? 0 : static_cast<size_t>(node);
  if (rings_.size() <= idx) {
    rings_.resize(idx + 1);
  }
  return rings_[idx];
}

void Recorder::Append(EventType type, Time when, NodeId node, int64_t a, int64_t b, int64_t c,
                      int32_t aux, uint8_t flag, uint64_t span) {
  Ring& ring = RingFor(node);
  if (ring.buf.size() < config_.ring_capacity) {
    ring.buf.emplace_back();
  }
  Record& r = ring.buf[ring.appended % ring.buf.size()];
  r.when = when;
  r.seq = next_seq_++;
  r.a = a;
  r.b = b;
  r.c = c;
  r.span = span;
  r.aux = aux;
  r.type = type;
  r.flag = flag;
  r.node = static_cast<int16_t>(node);
  ++ring.appended;
  if (when > last_time_) {
    last_time_ = when;
  }
}

int64_t Recorder::recorded() const {
  int64_t total = 0;
  for (const Ring& r : rings_) {
    total += static_cast<int64_t>(r.appended);
  }
  return total;
}

int64_t Recorder::dropped() const {
  int64_t total = 0;
  for (const Ring& r : rings_) {
    total += static_cast<int64_t>(r.appended - r.buf.size());
  }
  return total;
}

void Recorder::PublishMetrics(metrics::Registry* registry) {
  if (registry == nullptr) {
    return;
  }
  for (size_t n = 0; n < rings_.size(); ++n) {
    Ring& r = rings_[n];
    const uint64_t rec = r.appended;
    const uint64_t drop = r.appended - r.buf.size();
    registry->GetCounter("fdr.recorded", static_cast<int>(n))
        .Add(static_cast<int64_t>(rec - r.published_recorded));
    registry->GetCounter("fdr.dropped", static_cast<int>(n))
        .Add(static_cast<int64_t>(drop - r.published_dropped));
    r.published_recorded = rec;
    r.published_dropped = drop;
  }
}

int Recorder::ObjectId(const void* obj) {
  auto it = obj_ids_.find(obj);
  if (it != obj_ids_.end()) {
    return it->second;
  }
  const int id = static_cast<int>(objects_.size());
  obj_ids_.emplace(obj, id);
  objects_.emplace_back().identity = obj;
  return id;
}

void Recorder::TouchObject(int id, NodeId node, Time when) {
  ObjectLive& o = objects_[static_cast<size_t>(id)];
  if (node >= 0) {
    o.node = node;
  }
  if (when > o.last_touch) {
    o.last_touch = when;
  }
}

// --- Observer callbacks: encode + tables --------------------------------------

void Recorder::OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                              ThreadId parent) {
  Append(EventType::kThreadCreate, when, node, static_cast<int64_t>(thread),
         static_cast<int64_t>(parent));
}

void Recorder::OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) {
  Append(EventType::kThreadDispatch, when, node, static_cast<int64_t>(thread), queue_wait);
}

void Recorder::OnThreadBlock(Time when, NodeId node, ThreadId thread) {
  Append(EventType::kThreadBlock, when, node, static_cast<int64_t>(thread));
}

void Recorder::OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                               Time wake_time) {
  Append(EventType::kThreadUnblock, when, node, static_cast<int64_t>(thread),
         static_cast<int64_t>(waker), wake_time);
}

void Recorder::OnThreadPreempt(Time when, NodeId node, ThreadId thread) {
  Append(EventType::kThreadPreempt, when, node, static_cast<int64_t>(thread));
}

void Recorder::OnThreadExit(Time when, NodeId node, ThreadId thread) {
  Append(EventType::kThreadExit, when, node, static_cast<int64_t>(thread));
}

void Recorder::OnThreadJoin(Time when, NodeId node, ThreadId thread, ThreadId target) {
  Append(EventType::kThreadJoin, when, node, static_cast<int64_t>(thread),
         static_cast<int64_t>(target));
}

void Recorder::OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                               int64_t bytes) {
  Append(EventType::kThreadMigrate, when, src, static_cast<int64_t>(thread), bytes, 0, dst, 0,
         SpanOf(thread));
}

void Recorder::OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                             const std::string& object, bool remote, NodeId origin,
                             Duration entry_overhead) {
  int id = ObjectId(obj);
  if (const std::string& known = objects_[static_cast<size_t>(id)].label;
      !known.empty() && known != object) {
    // The allocator reused a dead object's address: a new object, a new id.
    obj_ids_.erase(obj);
    id = ObjectId(obj);
  }
  objects_[static_cast<size_t>(id)].label = object;
  TouchObject(id, node, when);
  Append(EventType::kInvokeEnter, when, node, static_cast<int64_t>(thread), id, entry_overhead,
         origin, remote ? 1 : 0, SpanOf(thread));
}

void Recorder::OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                            Duration exit_overhead) {
  Append(EventType::kInvokeExit, when, node, static_cast<int64_t>(thread), span, exit_overhead,
         0, remote ? 1 : 0, SpanOf(thread));
}

void Recorder::OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) {
  Append(EventType::kLockBlocked, when, node, static_cast<int64_t>(thread), 0, 0, lock, 0,
         SpanOf(thread));
  locks_[lock].waiters.push_back(thread);
}

void Recorder::OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock,
                              Duration wait) {
  Append(EventType::kLockAcquired, when, node, static_cast<int64_t>(thread), wait, 0, lock, 0,
         SpanOf(thread));
  LockLive& l = locks_[lock];
  l.holder = thread;
  l.waiters.erase(std::remove(l.waiters.begin(), l.waiters.end(), thread), l.waiters.end());
}

void Recorder::OnLockReleased(Time when, NodeId node, ThreadId thread, int lock,
                              Duration held) {
  Append(EventType::kLockReleased, when, node, static_cast<int64_t>(thread), held, 0, lock);
  LockLive& l = locks_[lock];
  if (l.holder == thread) {
    l.holder = 0;
  }
}

void Recorder::OnConditionWake(Time when, NodeId node, int condition, int woken) {
  Append(EventType::kConditionWake, when, node, woken, 0, 0, condition);
}

void Recorder::OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                            ThreadId requester) {
  Append(EventType::kRpcRequest, depart, src, static_cast<int64_t>(id), bytes,
         static_cast<int64_t>(requester), dst, 0, SpanOf(requester));
  rpcs_[id] = RpcLive{src, dst, bytes, requester, depart, 1};
}

void Recorder::OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst,
                             int64_t bytes, uint64_t id) {
  Append(EventType::kRpcResponse, when, src, static_cast<int64_t>(id), bytes, reply_arrive,
         dst);
  rpcs_.erase(id);
}

void Recorder::OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                          ThreadId requester) {
  Append(EventType::kRpcRetry, when, src, static_cast<int64_t>(id), attempt,
         static_cast<int64_t>(requester), dst, 0, SpanOf(requester));
  auto it = rpcs_.find(id);
  if (it != rpcs_.end()) {
    it->second.attempts = attempt + 1;  // attempt is the 1-based retransmission count
  } else {
    // Thread travels emit no request event for their first transmission —
    // a retry is the first we hear of them. Track the roundtrip anyway
    // (bytes unknown) so mid-retry travels appear as in flight.
    rpcs_[id] = RpcLive{src, dst, 0, requester, when, attempt + 1};
  }
}

void Recorder::OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                            ThreadId requester) {
  Append(EventType::kRpcTimeout, when, src, static_cast<int64_t>(id), attempts,
         static_cast<int64_t>(requester), dst, 0, SpanOf(requester));
  rpcs_.erase(id);
}

void Recorder::OnObjectMove(Time when, const void* obj, NodeId src, NodeId dst,
                            int64_t bytes) {
  const int id = ObjectId(obj);
  TouchObject(id, dst, when);
  Append(EventType::kObjectMove, when, src, id, bytes, 0, dst);
}

void Recorder::OnReplicaInstall(Time when, const void* obj, NodeId node) {
  const int id = ObjectId(obj);
  TouchObject(id, -1, when);  // replicas don't change the primary's home
  Append(EventType::kReplicaInstall, when, node, id);
}

void Recorder::OnMessage(Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) {
  Append(EventType::kMessage, depart, src, bytes, arrive, 0, dst);
}

void Recorder::OnMessageDropped(Time when, NodeId src, NodeId dst, int64_t bytes,
                                const char* reason) {
  Append(EventType::kMessageDropped, when, src, bytes, 0, 0, dst, DropCode(reason));
}

void Recorder::OnMessageDuplicated(Time when, NodeId src, NodeId dst, int64_t bytes) {
  Append(EventType::kMessageDuplicated, when, src, bytes, 0, 0, dst);
}

void Recorder::OnMessageDelayed(Time when, NodeId src, NodeId dst, Duration extra) {
  Append(EventType::kMessageDelayed, when, src, extra, 0, 0, dst);
}

void Recorder::OnNodeCrash(Time when, NodeId node) {
  Append(EventType::kNodeCrash, when, node);
  crashed_.insert(node);
}

void Recorder::OnNodeRestart(Time when, NodeId node) {
  Append(EventType::kNodeRestart, when, node);
  crashed_.erase(node);
}

void Recorder::OnFailureBackoff(Time when, NodeId node, ThreadId thread, Duration backoff) {
  Append(EventType::kFailureBackoff, when, node, static_cast<int64_t>(thread), backoff, 0, 0, 0,
         SpanOf(thread));
}

void Recorder::OnNodeSuspected(Time when, NodeId by, NodeId node) {
  Append(EventType::kNodeSuspected, when, by, 0, 0, 0, node);
  suspects_[by].insert(node);
}

void Recorder::OnNodeTrusted(Time when, NodeId by, NodeId node) {
  Append(EventType::kNodeTrusted, when, by, 0, 0, 0, node);
  auto it = suspects_.find(by);
  if (it != suspects_.end()) {
    it->second.erase(node);
  }
}

void Recorder::OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) {
  const int id = ObjectId(obj);
  Append(EventType::kRecoveryStart, when, node, static_cast<int64_t>(thread), id);
}

void Recorder::OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj,
                             bool ok) {
  const int id = ObjectId(obj);
  Append(EventType::kRecoveryEnd, when, node, static_cast<int64_t>(thread), id, 0, 0,
         ok ? 1 : 0);
}

void Recorder::OnObjectRecovered(Time when, const void* obj, NodeId from, NodeId to,
                                 bool from_checkpoint) {
  const int id = ObjectId(obj);
  TouchObject(id, to, when);
  Append(EventType::kObjectRecovered, when, to, id, 0, 0, from, from_checkpoint ? 1 : 0);
}

void Recorder::OnNodeDrained(Time when, NodeId node, int objects_moved) {
  Append(EventType::kNodeDrained, when, node, objects_moved);
}

void Recorder::OnPolicyMigration(Time when, const void* obj, NodeId from, NodeId to, bool ok,
                                 Duration cost) {
  const int id = ObjectId(obj);
  TouchObject(id, to, when);
  Append(EventType::kPolicyMigration, when, to, id, cost, 0, from, ok ? 1 : 0);
}

// --- Dump rendering ----------------------------------------------------------

// Ordered by the global append sequence (== virtual-time order, since every
// emission happens at an ordered point).
std::vector<const Recorder::Record*> Recorder::Merged() const {
  std::vector<const Record*> merged;
  for (const Ring& ring : rings_) {
    for (const Record& r : ring.buf) {
      merged.push_back(&r);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Record* a, const Record* b) { return a->seq < b->seq; });
  return merged;
}

void Recorder::Replay(amber::RuntimeObserver& observer, amber::ThreadModel& model) const {
  using O = amber::RuntimeObserver;
  using E = EventType;
  auto emit = [&](auto hook, const auto&... args) {
    (observer.*hook)(args...);
    (model.*hook)(args...);
  };
  auto obj = [this](int64_t id) { return objects_[static_cast<size_t>(id)].identity; };
  for (const Record* rec : Merged()) {
    const Record& r = *rec;
    const Time t = r.when;
    const NodeId n = r.node;
    const ThreadId th = static_cast<ThreadId>(r.a);
    const bool flag = r.flag != 0;
    // Decoding table: the encoders above, read backwards.
    switch (r.type) {
      case E::kThreadCreate:
        emit(&O::OnThreadCreate, t, n, th, model_ != nullptr ? model_->Get(th).name : "",
             static_cast<ThreadId>(r.b));
        break;
      case E::kThreadDispatch:
        model.EndSegment(th, t, n);
        emit(&O::OnThreadDispatch, t, n, th, r.b);
        break;
      case E::kThreadBlock:
        model.EndSegment(th, t, n);
        emit(&O::OnThreadBlock, t, n, th);
        break;
      case E::kThreadUnblock:
        model.EndSegment(th, t, n, static_cast<ThreadId>(r.b), r.c);
        emit(&O::OnThreadUnblock, t, n, th, static_cast<ThreadId>(r.b), r.c);
        break;
      case E::kThreadPreempt:
        model.EndSegment(th, t, n);
        emit(&O::OnThreadPreempt, t, n, th);
        break;
      case E::kThreadExit:
        model.EndSegment(th, t, n);
        emit(&O::OnThreadExit, t, n, th);
        break;
      case E::kThreadJoin: emit(&O::OnThreadJoin, t, n, th, static_cast<ThreadId>(r.b)); break;
      case E::kThreadMigrate: emit(&O::OnThreadMigrate, t, n, r.aux, th, r.b); break;
      case E::kInvokeEnter:
        emit(&O::OnInvokeEnter, t, n, th, obj(r.b), objects_[static_cast<size_t>(r.b)].label,
             flag, r.aux, r.c);
        break;
      case E::kInvokeExit: emit(&O::OnInvokeExit, t, n, th, r.b, flag, r.c); break;
      case E::kLockBlocked: emit(&O::OnLockBlocked, t, n, th, r.aux); break;
      case E::kLockAcquired: emit(&O::OnLockAcquired, t, n, th, r.aux, r.b); break;
      case E::kLockReleased: emit(&O::OnLockReleased, t, n, th, r.aux, r.b); break;
      case E::kConditionWake: emit(&O::OnConditionWake, t, n, r.aux, static_cast<int>(r.a)); break;
      case E::kRpcRequest:
        emit(&O::OnRpcRequest, t, n, r.aux, r.b, static_cast<uint64_t>(r.a),
             static_cast<ThreadId>(r.c));
        break;
      case E::kRpcResponse:
        emit(&O::OnRpcResponse, t, r.c, n, r.aux, r.b, static_cast<uint64_t>(r.a));
        break;
      case E::kRpcRetry:
        emit(&O::OnRpcRetry, t, n, r.aux, static_cast<uint64_t>(r.a), static_cast<int>(r.b),
             static_cast<ThreadId>(r.c));
        break;
      case E::kRpcTimeout:
        emit(&O::OnRpcTimeout, t, n, r.aux, static_cast<uint64_t>(r.a), static_cast<int>(r.b),
             static_cast<ThreadId>(r.c));
        break;
      case E::kObjectMove: emit(&O::OnObjectMove, t, obj(r.a), n, r.aux, r.b); break;
      case E::kReplicaInstall: emit(&O::OnReplicaInstall, t, obj(r.a), n); break;
      case E::kMessage: emit(&O::OnMessage, t, r.b, n, r.aux, r.a); break;
      case E::kMessageDropped:
        emit(&O::OnMessageDropped, t, n, r.aux, r.a, DropName(r.flag));
        break;
      case E::kMessageDuplicated: emit(&O::OnMessageDuplicated, t, n, r.aux, r.a); break;
      case E::kMessageDelayed: emit(&O::OnMessageDelayed, t, n, r.aux, r.a); break;
      case E::kNodeCrash: emit(&O::OnNodeCrash, t, n); break;
      case E::kNodeRestart: emit(&O::OnNodeRestart, t, n); break;
      case E::kFailureBackoff: emit(&O::OnFailureBackoff, t, n, th, r.b); break;
      case E::kNodeSuspected: emit(&O::OnNodeSuspected, t, n, r.aux); break;
      case E::kNodeTrusted: emit(&O::OnNodeTrusted, t, n, r.aux); break;
      case E::kRecoveryStart: emit(&O::OnRecoveryStart, t, n, th, obj(r.b)); break;
      case E::kRecoveryEnd: emit(&O::OnRecoveryEnd, t, n, th, obj(r.b), flag); break;
      case E::kObjectRecovered: emit(&O::OnObjectRecovered, t, obj(r.a), r.aux, n, flag); break;
      case E::kNodeDrained: emit(&O::OnNodeDrained, t, n, static_cast<int>(r.a)); break;
      case E::kPolicyMigration:
        emit(&O::OnPolicyMigration, t, obj(r.a), r.aux, n, flag, r.b);
        break;
    }
  }
}

void Recorder::RenderEvent(std::ostream& out, const Record& r) const {
  out << "{\"seq\":" << r.seq << ",\"t\":" << r.when << ",\"node\":" << r.node << ",\"type\":\""
      << TypeName(r.type) << "\"";
  switch (r.type) {
    case EventType::kThreadCreate:
      out << ",\"thread\":" << r.a << ",\"parent\":" << r.b;
      break;
    case EventType::kThreadDispatch:
      out << ",\"thread\":" << r.a << ",\"queue_wait_ns\":" << r.b;
      break;
    case EventType::kThreadBlock:
    case EventType::kThreadPreempt:
    case EventType::kThreadExit:
      out << ",\"thread\":" << r.a;
      break;
    case EventType::kThreadUnblock:
      out << ",\"thread\":" << r.a << ",\"waker\":" << r.b << ",\"wake_time_ns\":" << r.c;
      break;
    case EventType::kThreadJoin:
      out << ",\"thread\":" << r.a << ",\"target\":" << r.b;
      break;
    case EventType::kThreadMigrate:
      out << ",\"thread\":" << r.a << ",\"dst\":" << r.aux << ",\"bytes\":" << r.b;
      break;
    case EventType::kInvokeEnter:
      out << ",\"thread\":" << r.a << ",\"object\":" << r.b << ",\"origin\":" << r.aux
          << ",\"remote\":" << (r.flag ? "true" : "false") << ",\"entry_overhead_ns\":" << r.c;
      break;
    case EventType::kInvokeExit:
      out << ",\"thread\":" << r.a << ",\"span_ns\":" << r.b
          << ",\"remote\":" << (r.flag ? "true" : "false") << ",\"exit_overhead_ns\":" << r.c;
      break;
    case EventType::kLockBlocked:
      out << ",\"thread\":" << r.a << ",\"lock\":" << r.aux;
      break;
    case EventType::kLockAcquired:
      out << ",\"thread\":" << r.a << ",\"lock\":" << r.aux << ",\"wait_ns\":" << r.b;
      break;
    case EventType::kLockReleased:
      out << ",\"thread\":" << r.a << ",\"lock\":" << r.aux << ",\"held_ns\":" << r.b;
      break;
    case EventType::kConditionWake:
      out << ",\"condition\":" << r.aux << ",\"woken\":" << r.a;
      break;
    case EventType::kRpcRequest:
      out << ",\"id\":" << r.a << ",\"dst\":" << r.aux << ",\"bytes\":" << r.b
          << ",\"requester\":" << r.c;
      break;
    case EventType::kRpcResponse:
      out << ",\"id\":" << r.a << ",\"dst\":" << r.aux << ",\"bytes\":" << r.b
          << ",\"reply_arrive_ns\":" << r.c;
      break;
    case EventType::kRpcRetry:
      out << ",\"id\":" << r.a << ",\"dst\":" << r.aux << ",\"attempt\":" << r.b
          << ",\"requester\":" << r.c;
      break;
    case EventType::kRpcTimeout:
      out << ",\"id\":" << r.a << ",\"dst\":" << r.aux << ",\"attempts\":" << r.b
          << ",\"requester\":" << r.c;
      break;
    case EventType::kObjectMove:
      out << ",\"object\":" << r.a << ",\"dst\":" << r.aux << ",\"bytes\":" << r.b;
      break;
    case EventType::kReplicaInstall:
      out << ",\"object\":" << r.a;
      break;
    case EventType::kMessage:
      out << ",\"dst\":" << r.aux << ",\"bytes\":" << r.a << ",\"arrive_ns\":" << r.b;
      break;
    case EventType::kMessageDropped:
      out << ",\"dst\":" << r.aux << ",\"bytes\":" << r.a << ",\"reason\":\""
          << DropName(r.flag) << "\"";
      break;
    case EventType::kMessageDuplicated:
      out << ",\"dst\":" << r.aux << ",\"bytes\":" << r.a;
      break;
    case EventType::kMessageDelayed:
      out << ",\"dst\":" << r.aux << ",\"extra_ns\":" << r.a;
      break;
    case EventType::kNodeCrash:
    case EventType::kNodeRestart:
      break;
    case EventType::kFailureBackoff:
      out << ",\"thread\":" << r.a << ",\"backoff_ns\":" << r.b;
      break;
    case EventType::kNodeSuspected:
    case EventType::kNodeTrusted:
      out << ",\"peer\":" << r.aux;
      break;
    case EventType::kRecoveryStart:
      out << ",\"thread\":" << r.a << ",\"object\":" << r.b;
      break;
    case EventType::kRecoveryEnd:
      out << ",\"thread\":" << r.a << ",\"object\":" << r.b << ",\"ok\":"
          << (r.flag ? "true" : "false");
      break;
    case EventType::kObjectRecovered:
      out << ",\"object\":" << r.a << ",\"from\":" << r.aux << ",\"from_checkpoint\":"
          << (r.flag ? "true" : "false");
      break;
    case EventType::kNodeDrained:
      out << ",\"objects_moved\":" << r.a;
      break;
    case EventType::kPolicyMigration:
      out << ",\"object\":" << r.a << ",\"from\":" << r.aux << ",\"cost_ns\":" << r.b
          << ",\"ok\":" << (r.flag ? "true" : "false");
      break;
  }
  // Trace join key, present only when a span source stamped the record —
  // span-free dumps stay byte-identical to the pre-span schema.
  if (r.span != 0) {
    out << ",\"span\":" << r.span;
  }
  out << "}";
}

void Recorder::RenderThread(std::ostream& out, ThreadId tid, const amber::ThreadModel::Thread& t,
                            const std::vector<int>& extra_held) {
  using Kind = amber::ThreadModel::Marker::Kind;
  using RunState = amber::ThreadModel::RunState;
  out << "\n    {\"thread\":" << tid << ",\"name\":\"";
  out << JsonEscape(t.name);
  out << "\",\"parent\":" << t.parent << ",\"node\":" << t.node << ",\"status\":\"";
  switch (t.state) {
    case RunState::kReady:   out << "ready"; break;
    case RunState::kRunning: out << "running"; break;
    case RunState::kBlocked: out << "blocked"; break;
    case RunState::kExited:  out << "exited"; break;
  }
  // A blocked thread waits on the last marker armed before the block
  // (retransmissions aside); each marker overwrites only the fields it
  // carries.
  const char* wait = "none";
  int64_t wait_arg = 0;
  NodeId wait_node = -1;
  if (t.state == RunState::kBlocked) {
    for (const amber::ThreadModel::Marker& m : t.markers) {
      switch (m.kind) {
        case Kind::kJoin:      wait = "join"; wait_arg = m.arg; break;
        case Kind::kLock:      wait = "lock"; wait_arg = m.arg; break;
        case Kind::kRpc:       wait = "rpc"; wait_arg = m.arg; wait_node = m.node; break;
        case Kind::kMigration:
        case Kind::kArrival:   wait = "migration"; wait_node = m.node; break;
        case Kind::kBackoff:   wait = "backoff"; break;
        case Kind::kRetry:     break;
      }
    }
  }
  out << "\",\"since_ns\":" << t.since << ",\"wait\":\"" << wait << "\",\"wait_arg\":" << wait_arg
      << ",\"wait_node\":" << wait_node
      << ",\"in_recovery\":" << (t.recovery > 0 ? "true" : "false") << ",\"held_locks\":[";
  std::vector<int> held = t.locks;
  for (int lock : extra_held) {
    if (std::find(held.begin(), held.end(), lock) == held.end()) {
      held.push_back(lock);
    }
  }
  for (size_t i = 0; i < held.size(); ++i) {
    out << (i == 0 ? "" : ",") << held[i];
  }
  out << "],\"stack\":[";
  for (size_t i = 0; i < t.frames.size(); ++i) {
    out << (i == 0 ? "" : ",") << ObjectId(t.frames[i].object);
  }
  out << "]}";
}

void Recorder::WriteDump(std::ostream& out, const std::string& reason,
                         const std::string& detail) {
  amber::Runtime* rt = amber::Runtime::CurrentOrNull();

  out << "{\n";
  out << "  \"fdr\": \"";
  out << JsonEscape(config_.name);
  out << "\",\n";
  out << "  \"schema\": 1,\n";
  out << "  \"reason\": \"";
  out << JsonEscape(reason);
  out << "\",\n";
  out << "  \"detail\": \"";
  out << JsonEscape(detail);
  out << "\",\n";
  const Time vt = rt != nullptr ? rt->now() : last_time_;
  out << "  \"virtual_time_ns\": " << vt << ",\n";
  // The thread this dump is "about": the fiber that was executing when the
  // dump was requested (the panicking thread), or 0 when the death happened
  // in event context / outside the simulation.
  ThreadId dying = 0;
  if (rt != nullptr && rt->sim().current() != nullptr) {
    dying = rt->sim().current()->id;
  }
  out << "  \"dying_thread\": " << dying << ",\n";
  out << "  \"ring_capacity\": " << config_.ring_capacity << ",\n";
  out << "  \"recorded\": " << recorded() << ",\n";
  out << "  \"dropped\": " << dropped() << ",\n";

  // Per-node ring stats + last activity (the analyzer's "was this node
  // really dead" cross-check against suspicion views).
  out << "  \"nodes\": [";
  for (size_t n = 0; n < rings_.size(); ++n) {
    const Ring& ring = rings_[n];
    Time last = 0;
    for (const Record& r : ring.buf) {
      last = std::max(last, r.when);
    }
    const uint64_t drop = ring.appended - ring.buf.size();
    out << (n == 0 ? "" : ",") << "\n    {\"node\":" << n << ",\"recorded\":" << ring.appended
        << ",\"dropped\":" << drop << ",\"crashed\":"
        << (crashed_.count(static_cast<NodeId>(n)) ? "true" : "false")
        << ",\"last_event_ns\":" << last << "}";
  }
  out << "\n  ],\n";

  // Suspicion views: the authoritative Membership::Suspects() matrix when a
  // runtime (with an active fault plan) is still alive, else the view
  // reconstructed from suspected/trusted events.
  out << "  \"suspicion\": [";
  {
    bool first = true;
    const int nnodes = rt != nullptr ? rt->nodes() : static_cast<int>(rings_.size());
    for (NodeId viewer = 0; viewer < nnodes; ++viewer) {
      std::vector<NodeId> sus;
      if (rt != nullptr && rt->membership() != nullptr) {
        for (NodeId peer = 0; peer < nnodes; ++peer) {
          if (rt->membership()->Suspects(viewer, peer)) {
            sus.push_back(peer);
          }
        }
      } else {
        auto it = suspects_.find(viewer);
        if (it != suspects_.end()) {
          sus.assign(it->second.begin(), it->second.end());
        }
      }
      out << (first ? "" : ",") << "\n    {\"viewer\":" << viewer << ",\"suspects\":[";
      for (size_t i = 0; i < sus.size(); ++i) {
        out << (i == 0 ? "" : ",") << sus[i];
      }
      out << "]}";
      first = false;
    }
  }
  out << "\n  ],\n";

  // Ground-truth lock holds from the runtime. Uncontended acquires emit no
  // observer event (the fast path is uninstrumented by design), so the
  // event-derived lock table alone misses them; Runtime::HeldLocks() fills
  // the gap at dump time without perturbing any id numbering.
  std::map<ThreadId, std::vector<int>> extra_held;    // holder -> lock ids
  std::map<int, ThreadId> holder_override;            // lock id -> holder
  std::vector<amber::Runtime::HeldLock> anon_holds;   // never-id'd locks
  if (rt != nullptr) {
    for (const amber::Runtime::HeldLock& h : rt->HeldLocks()) {
      if (h.lock > 0 && h.holder != 0) {
        holder_override[h.lock] = h.holder;
        extra_held[h.holder].push_back(h.lock);
      } else {
        anon_holds.push_back(h);
      }
    }
  }

  // Per-thread state at time of death.
  out << "  \"threads\": [";
  if (model_ != nullptr) {
    bool first = true;
    static const std::vector<int> kNone;
    model_->ForEach([&](ThreadId tid, const amber::ThreadModel::Thread& t) {
      out << (first ? "" : ",");
      auto eit = extra_held.find(tid);
      RenderThread(out, tid, t, eit != extra_held.end() ? eit->second : kNone);
      first = false;
    });
  }
  out << "\n  ],\n";

  // Lock table: who holds what, who waits. Event-derived waiters, with the
  // holder corrected from the runtime's ground truth when available.
  out << "  \"locks\": [";
  {
    std::map<int, LockLive> table = locks_;
    for (const auto& [id, holder] : holder_override) {
      table[id].holder = holder;
    }
    bool first = true;
    for (const auto& [id, l] : table) {
      if (l.holder == 0 && l.waiters.empty()) {
        continue;  // free and uncontended: noise
      }
      out << (first ? "" : ",") << "\n    {\"lock\":" << id << ",\"holder\":" << l.holder
          << ",\"waiters\":[";
      for (size_t i = 0; i < l.waiters.size(); ++i) {
        out << (i == 0 ? "" : ",") << l.waiters[i];
      }
      out << "]}";
      first = false;
    }
    // Locks held but never contended/released while observed have no dense
    // id; list them anyway (id 0) so no hold is silently missing.
    for (const amber::Runtime::HeldLock& h : anon_holds) {
      out << (first ? "" : ",") << "\n    {\"lock\":0,\"holder\":" << h.holder
          << ",\"waiters\":[]}";
      first = false;
    }
  }
  out << "\n  ],\n";

  // Reliable roundtrips still in flight, with their transmission counts.
  out << "  \"rpcs_in_flight\": [";
  {
    bool first = true;
    for (const auto& [id, r] : rpcs_) {
      out << (first ? "" : ",") << "\n    {\"id\":" << id << ",\"src\":" << r.src
          << ",\"dst\":" << r.dst << ",\"bytes\":" << r.bytes << ",\"requester\":" << r.requester
          << ",\"depart_ns\":" << r.depart << ",\"attempts\":" << r.attempts << "}";
      first = false;
    }
  }
  out << "\n  ],\n";

  // Recently-touched objects, with their descriptor forwarding chain on
  // every node (read via DescriptorTable::ForEach — no Lookup side effects).
  std::vector<int> selected;
  for (size_t i = 0; i < objects_.size(); ++i) {
    selected.push_back(static_cast<int>(i));
  }
  std::sort(selected.begin(), selected.end(), [this](int a, int b) {
    const ObjectLive& oa = objects_[static_cast<size_t>(a)];
    const ObjectLive& ob = objects_[static_cast<size_t>(b)];
    return oa.last_touch != ob.last_touch ? oa.last_touch > ob.last_touch : a < b;
  });
  if (selected.size() > config_.dump_objects) {
    selected.resize(config_.dump_objects);
  }
  std::sort(selected.begin(), selected.end());
  // id -> per-node descriptor rendering ("res", "rep->h", "->h", "-").
  std::map<int, std::vector<std::string>> chains;
  if (rt != nullptr) {
    std::unordered_map<const void*, int> wanted;
    for (const auto& [ptr, id] : obj_ids_) {
      if (std::binary_search(selected.begin(), selected.end(), id)) {
        wanted.emplace(ptr, id);
      }
    }
    for (int id : selected) {
      chains[id].assign(static_cast<size_t>(rt->nodes()), "-");
    }
    for (NodeId n = 0; n < rt->nodes(); ++n) {
      rt->table(n).ForEach([&](const void* ptr, const amber::Descriptor& d) {
        auto it = wanted.find(ptr);
        if (it == wanted.end()) {
          return;
        }
        std::string& cell = chains[it->second][static_cast<size_t>(n)];
        switch (d.state) {
          case amber::Residency::kUninitialized:
            cell = "-";
            break;
          case amber::Residency::kResident:
            cell = "res";
            break;
          case amber::Residency::kRemoteHint:
            cell = "->" + std::to_string(d.forward);
            break;
          case amber::Residency::kReplica:
            cell = d.forward == amber::kNoNode ? "rep" : "rep->" + std::to_string(d.forward);
            break;
        }
      });
    }
  }
  out << "  \"objects\": [";
  {
    bool first = true;
    for (int id : selected) {
      const ObjectLive& o = objects_[static_cast<size_t>(id)];
      out << (first ? "" : ",") << "\n    {\"id\":" << id << ",\"label\":\"";
      out << JsonEscape(o.label.empty() ? "obj-" + std::to_string(id) : o.label);
      out << "\",\"node\":" << o.node << ",\"last_touched_ns\":" << o.last_touch
          << ",\"chain\":[";
      auto it = chains.find(id);
      if (it != chains.end()) {
        for (size_t n = 0; n < it->second.size(); ++n) {
          out << (n == 0 ? "" : ",") << "\"" << it->second[n] << "\"";
        }
      }
      out << "]}";
      first = false;
    }
  }
  out << "\n  ],\n";

  // Authoritative kernel snapshot: every fiber still tracked, in creation
  // order — the ground truth the event-derived thread states are checked
  // against.
  out << "  \"fibers\": [";
  if (rt != nullptr) {
    bool first = true;
    rt->sim().ForEachFiber([&](const sim::Fiber& f) {
      out << (first ? "" : ",") << "\n    {\"fiber\":" << f.id << ",\"name\":\"";
      out << JsonEscape(f.name);
      out << "\",\"node\":" << f.node << ",\"processor\":" << f.processor << ",\"state\":\""
          << sim::FiberStateName(f.state) << "\",\"vtime_ns\":" << f.vtime << "}";
      first = false;
    });
  }
  out << "\n  ],\n";

  // The causally-merged final window.
  const std::vector<const Record*> merged = Merged();
  out << "  \"events\": [";
  for (size_t i = 0; i < merged.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n    ";
    RenderEvent(out, *merged[i]);
  }
  out << "\n  ]\n";
  out << "}\n";
}

// --- Chrome trace rendering ---------------------------------------------------

namespace {

// Trace event names spell the record type with dashes ("object-move").
std::string TraceName(EventType t) {
  std::string name = TypeName(t);
  std::replace(name.begin(), name.end(), '_', '-');
  return name;
}

double Us(Time t) { return static_cast<double>(t) / 1000.0; }

}  // namespace

void Recorder::WriteChromeTrace(std::ostream& out) const {
  // Rendered lines are sorted by timestamp, ties in render order, so the
  // same records always give the same bytes.
  struct Line {
    double ts;
    size_t seq;
    std::string json;
  };
  std::vector<Line> lines;
  char buf[512];
  auto add = [&](Time ts) { lines.push_back(Line{Us(ts), lines.size(), buf}); };
  auto thread = [this](int64_t tid) {
    const ThreadId id = static_cast<ThreadId>(tid);
    if (model_ != nullptr && !model_->Get(id).name.empty()) {
      return JsonEscape(model_->Get(id).name);
    }
    return "t" + std::to_string(id);
  };

  // Render-time pairing state, keyed by thread, rpc and object ids.
  struct OpenSpan {
    Time start;
    NodeId node;
  };
  std::map<int64_t, OpenSpan> running;                   // open dispatch
  std::map<int64_t, std::vector<const Record*>> calls;   // invoke stack
  std::map<int64_t, int> migration_flow;                 // awaiting arrival
  std::map<int64_t, const Record*> rpc_requests;         // by rpc id
  std::unordered_map<int64_t, int> ordinals;             // object id -> obj-N
  int next_flow = 0;
  NodeId max_node = 0;

  for (const Record* rec : Merged()) {
    const Record& r = *rec;
    const NodeId node = r.node;
    NodeId dst = node;
    switch (r.type) {
      case EventType::kThreadDispatch:
        running[r.a] = OpenSpan{r.when, node};
        break;
      case EventType::kThreadBlock:
      case EventType::kThreadPreempt:
      case EventType::kThreadExit: {
        auto it = running.find(r.a);
        if (it != running.end()) {
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"running\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                        "\"pid\":%d,\"tid\":\"%s (cpu)\",\"cat\":\"sched\"}",
                        Us(it->second.start), Us(r.when - it->second.start), it->second.node,
                        thread(r.a).c_str());
          add(it->second.start);
          running.erase(it);
        }
        break;
      }
      case EventType::kThreadUnblock: {
        auto it = migration_flow.find(r.a);
        if (it != migration_flow.end()) {
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"migrate\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
                        "\"id\":%d,\"ts\":%.3f,\"pid\":%d,\"tid\":\"%s (cpu)\"}",
                        it->second, Us(r.when), node, thread(r.a).c_str());
          add(r.when);
          migration_flow.erase(it);
        }
        break;
      }
      case EventType::kThreadMigrate: {
        dst = r.aux;
        const int id = next_flow++;
        migration_flow[r.a] = id;
        const std::string name = thread(r.a);
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"migrate\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,"
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":\"%s (cpu)\"}",
                      id, Us(r.when), node, name.c_str());
        add(r.when);
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread-migrate %s %d->%d\",\"ph\":\"i\",\"ts\":%.3f,"
                      "\"pid\":%d,\"tid\":\"%s (cpu)\",\"s\":\"p\",\"cat\":\"migration\","
                      "\"args\":{\"bytes\":%lld}}",
                      name.c_str(), node, dst, Us(r.when), node, name.c_str(),
                      static_cast<long long>(r.b));
        add(r.when);
        break;
      }
      case EventType::kInvokeEnter:
        calls[r.a].push_back(&r);
        break;
      case EventType::kInvokeExit: {
        auto it = calls.find(r.a);
        if (it != calls.end() && !it->second.empty()) {
          const Record* enter = it->second.back();
          it->second.pop_back();
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                        "\"tid\":\"%s\",\"cat\":\"invoke\",\"args\":{\"remote\":%s}}",
                        JsonEscape(objects_[static_cast<size_t>(enter->b)].label).c_str(),
                        Us(enter->when), Us(r.when - enter->when), enter->node,
                        thread(r.a).c_str(), enter->flag ? "true" : "false");
          add(enter->when);
        }
        break;
      }
      case EventType::kRpcRequest:
        dst = r.aux;
        rpc_requests[r.a] = &r;
        break;
      case EventType::kRpcResponse: {
        dst = r.aux;
        auto it = rpc_requests.find(r.a);
        if (it != rpc_requests.end()) {
          const Record& req = *it->second;
          // Roundtrip span on the requester's "rpc" row, request departure
          // to reply arrival, with a flow arrow to the service.
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"rpc %d->%d (%lld B)\",\"ph\":\"X\",\"ts\":%.3f,"
                        "\"dur\":%.3f,\"pid\":%d,\"tid\":\"rpc\",\"cat\":\"rpc\"}",
                        req.node, req.aux, static_cast<long long>(req.b), Us(req.when),
                        Us(r.c - req.when), req.node);
          add(req.when);
          const int id = next_flow++;
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"rpc\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,"
                        "\"ts\":%.3f,\"pid\":%d,\"tid\":\"rpc\"}",
                        id, Us(req.when), req.node);
          add(req.when);
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"rpc\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
                        "\"id\":%d,\"ts\":%.3f,\"pid\":%d,\"tid\":\"rpc\"}",
                        id, Us(r.when), node);
          add(r.when);
          rpc_requests.erase(it);
        }
        break;
      }
      case EventType::kMessage:
        dst = r.aux;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"msg %d->%d (%lld B)\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":%d,\"tid\":\"net\",\"cat\":\"message\"}",
                      node, dst, static_cast<long long>(r.a), Us(r.when), Us(r.b - r.when),
                      node);
        add(r.when);
        break;
      case EventType::kLockBlocked:
      case EventType::kLockAcquired:
      case EventType::kLockReleased:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s lock-%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"%s\",\"s\":\"t\",\"cat\":\"sync\",\"args\":{\"ns\":%lld}}",
                      TraceName(r.type).c_str(), r.aux, Us(r.when), node, thread(r.a).c_str(),
                      static_cast<long long>(r.b));
        add(r.when);
        break;
      case EventType::kConditionWake:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"condition-wake cond-%d\",\"ph\":\"i\",\"ts\":%.3f,"
                      "\"pid\":%d,\"tid\":\"sync\",\"s\":\"t\",\"cat\":\"sync\","
                      "\"args\":{\"woken\":%lld}}",
                      r.aux, Us(r.when), node, static_cast<long long>(r.a));
        add(r.when);
        break;
      case EventType::kThreadCreate: {
        const std::string name = thread(r.a);
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread-create %s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"%s (cpu)\",\"s\":\"t\",\"cat\":\"sched\"}",
                      name.c_str(), Us(r.when), node, name.c_str());
        add(r.when);
        break;
      }
      case EventType::kObjectMove:
        dst = r.aux;
        [[fallthrough]];
      case EventType::kReplicaInstall: {
        const int ordinal =
            ordinals.try_emplace(r.a, static_cast<int>(ordinals.size())).first->second;
        const std::string kind = TraceName(r.type);
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s obj-%d %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"%s\",\"s\":\"p\",\"cat\":\"%s\",\"args\":{\"bytes\":%lld}}",
                      kind.c_str(), ordinal, node, dst, Us(r.when), node, kind.c_str(),
                      kind.c_str(), static_cast<long long>(r.b));
        add(r.when);
        break;
      }
      case EventType::kMessageDropped:
        dst = r.aux;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"drop %d->%d (%s)\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"net\",\"s\":\"p\",\"cat\":\"fault\",\"args\":{\"bytes\":%lld}}",
                      node, dst, DropName(r.flag), Us(r.when), node, static_cast<long long>(r.a));
        add(r.when);
        break;
      case EventType::kMessageDuplicated:
        dst = r.aux;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"dup %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"net\",\"s\":\"p\",\"cat\":\"fault\",\"args\":{\"bytes\":%lld}}",
                      node, dst, Us(r.when), node, static_cast<long long>(r.a));
        add(r.when);
        break;
      case EventType::kMessageDelayed:
        dst = r.aux;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"delay %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"net\",\"s\":\"p\",\"cat\":\"fault\",\"args\":{\"extra_ns\":%lld}}",
                      node, dst, Us(r.when), node, static_cast<long long>(r.a));
        add(r.when);
        break;
      case EventType::kNodeCrash:
      case EventType::kNodeRestart:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s node-%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"fault\",\"s\":\"p\",\"cat\":\"fault\"}",
                      TraceName(r.type).c_str(), node, Us(r.when), node);
        add(r.when);
        break;
      case EventType::kRpcRetry:
      case EventType::kRpcTimeout:
        dst = r.aux;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"rpc\",\"s\":\"t\",\"cat\":\"fault\","
                      "\"args\":{\"id\":%lld,\"attempt\":%lld}}",
                      TraceName(r.type).c_str(), node, dst, Us(r.when), node,
                      static_cast<long long>(r.a), static_cast<long long>(r.b));
        add(r.when);
        break;
      default:
        continue;  // joins, backoff, membership and recovery are not drawn
    }
    max_node = std::max({max_node, node, dst});
  }

  std::stable_sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.seq < b.seq;
  });

  out << "{\"traceEvents\":[\n";
  for (NodeId n = 0; n <= max_node; ++n) {
    out << (n == 0 ? "" : ",\n") << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << n
        << ",\"args\":{\"name\":\"node " << n << "\"}}";
  }
  for (const Line& l : lines) {
    out << ",\n" << l.json;
  }
  out << "\n]}\n";
}

}  // namespace fdr
