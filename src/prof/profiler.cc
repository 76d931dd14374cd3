#include "src/prof/profiler.h"

#include <algorithm>
#include <cstdio>

#include "src/base/json.h"
#include "src/base/panic.h"

namespace prof {
namespace {

using amber::Duration;
using amber::JsonEscape;
using amber::ThreadId;
using amber::ThreadModel;

std::string NodeCat(const char* prefix, NodeId n) {
  return std::string(prefix) + std::to_string(n);
}

// How many cursor-preserving walk steps (thread jumps at one timestamp) are
// tolerated before the walk forces in-place attribution. Wake chains at a
// single virtual instant are short in practice; this is a cycle guard.
constexpr int kStallLimit = 64;

// Rebuilds a run from its replayed events: the model's segments, each
// blocked one named by the priority rule, plus the object and lock
// aggregates; Finalize walks the critical path and ranks the advice.
class Builder final : public amber::RuntimeObserver, public ThreadModel::Tiler {
 public:
  explicit Builder(const ThreadModel& model) : model_(model) {}

  // Walks the critical path back from `horizon`, the run's last instant.
  ProfileReport Finalize(Time horizon);

  // --- ThreadModel::Tiler -----------------------------------------------------
  void OnSegment(const ThreadModel::Segment& seg, const ThreadModel::Thread& t) override;

  // --- RuntimeObserver --------------------------------------------------------
  void OnThreadExit(Time when, NodeId node, ThreadId thread) override;
  void OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                       int64_t bytes) override;
  void OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                     const std::string& object, bool remote, NodeId origin,
                     Duration entry_overhead) override;
  void OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                    Duration exit_overhead) override;
  void OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock, Duration wait) override;
  void OnLockReleased(Time, NodeId, ThreadId, int lock, Duration held) override {
    locks_[lock].hold_ns += held;
  }
  // The wait that just ended was a timeout, not a service: fault-induced.
  void OnRpcRetry(Time, NodeId, NodeId, uint64_t, int, ThreadId requester) override {
    MarkLastWaitFault(threads_[requester]);
  }
  void OnRpcTimeout(Time, NodeId, NodeId, uint64_t, int, ThreadId requester) override {
    MarkLastWaitFault(threads_[requester]);
  }
  void OnObjectMove(Time when, const void* obj, NodeId, NodeId dst, int64_t) override;

 private:
  enum class SegKind : uint8_t { kQueued, kRunning, kBlocked };
  enum class Cause : uint8_t {
    kNone,
    kLock,
    kRpc,
    kJoin,
    kMigration,
    kFault,
    kWake,
    kNet,
    kRecovery,
  };

  struct Segment {
    Time start = 0;
    Time end = 0;
    SegKind kind = SegKind::kQueued;
    Cause cause = Cause::kNone;
    NodeId node = 0;
    int aux = 0;         // lock id (kLock) or serving node (kRpc)
    ThreadId other = 0;  // join target (kJoin) or waker (kWake)
    Time wake_time = 0;  // when the waker called Wake (kWake / kJoin)
  };

  // A thread's named segments; its status, markers and frames live in the
  // model.
  struct ThreadSegs {
    Time exit_time = 0;
    int64_t exit_seq = -1;  // -1: has not exited
    std::vector<Segment> segs;
    int last_blocked = -1;  // index of the most recently closed blocked seg
  };

  // The priority rule: names a block from the markers armed before it (they
  // know *why* the thread blocked), then the waker, then the network.
  static void NameBlock(Segment& s, const ThreadModel::Segment& seg, const ThreadModel::Thread& m);
  // Reclassifies the block that just ended as fault-induced (a timeout).
  void MarkLastWaitFault(ThreadSegs& st);
  int ObjectId(const void* obj);
  const ThreadSegs& SegsOf(ThreadId tid) const {
    static const ThreadSegs kNone;
    const auto it = threads_.find(tid);
    return it != threads_.end() ? it->second : kNone;
  }
  // Index of the segment containing t (start < t <= end), or the last
  // segment before t (gap), or -1 if t is at/before the first segment.
  static int SegmentBefore(const ThreadSegs& st, Time t);

  const ThreadModel& model_;
  std::map<ThreadId, ThreadSegs> threads_;
  std::map<const void*, int> obj_ids_;
  std::vector<ObjectProfile> objects_;  // by dense id
  std::map<int, LockProfile> locks_;    // by lock id
  int64_t exit_counter_ = 0;
};

void Builder::OnSegment(const ThreadModel::Segment& seg, const ThreadModel::Thread& t) {
  Segment s;
  s.start = seg.start;
  s.end = seg.end;
  s.node = seg.node;
  ThreadSegs& st = threads_[seg.thread];
  switch (seg.state) {
    case ThreadModel::RunState::kReady:
      break;
    case ThreadModel::RunState::kRunning:
      s.kind = SegKind::kRunning;
      break;
    case ThreadModel::RunState::kBlocked:
      s.kind = SegKind::kBlocked;
      NameBlock(s, seg, t);
      st.last_blocked = static_cast<int>(st.segs.size());
      break;
    case ThreadModel::RunState::kExited:
      return;
  }
  st.segs.push_back(s);
}

void Builder::NameBlock(Segment& s, const ThreadModel::Segment& seg,
                        const ThreadModel::Thread& m) {
  // A migration announced after arrival names no coming wait.
  using Kind = ThreadModel::Marker::Kind;
  auto armed = [&m](Kind kind) -> const ThreadModel::Marker* {
    for (auto it = m.markers.rbegin(); it != m.markers.rend(); ++it) {
      if (it->kind == kind) {
        return &*it;
      }
    }
    return nullptr;
  };
  s.cause = Cause::kNet;
  if (const auto* join = armed(Kind::kJoin)) {
    s.cause = Cause::kJoin;
    s.other = static_cast<ThreadId>(join->arg);
    s.wake_time = seg.wake_time;
  } else if (m.lock >= 0) {
    s.cause = Cause::kLock;
    s.aux = m.lock;
  } else if (armed(Kind::kMigration) != nullptr) {
    s.cause = Cause::kMigration;
  } else if (armed(Kind::kBackoff) != nullptr) {
    s.cause = Cause::kFault;
  } else if (m.rpc) {
    s.cause = Cause::kRpc;
    s.aux = m.rpc_dst;
  } else if (seg.waker != 0 && seg.waker != seg.thread) {
    s.cause = Cause::kWake;
    s.other = seg.waker;
    s.wake_time = seg.wake_time;
  }
  // Inside a recovery episode every rpc/net wait is the recovery's cost —
  // the probes and restores themselves — not ordinary service time.
  if (m.recovery > 0 && (s.cause == Cause::kRpc || s.cause == Cause::kNet)) {
    s.cause = Cause::kRecovery;
    s.aux = 0;
  }
}

void Builder::MarkLastWaitFault(ThreadSegs& st) {
  if (st.last_blocked >= 0) {
    Segment& seg = st.segs[st.last_blocked];
    if (seg.cause == Cause::kRpc || seg.cause == Cause::kNet) {
      seg.cause = Cause::kFault;
    }
  }
}

int Builder::ObjectId(const void* obj) {
  const auto [it, inserted] = obj_ids_.try_emplace(obj, static_cast<int>(obj_ids_.size()));
  if (inserted) {
    objects_.emplace_back().id = it->second;
  }
  return it->second;
}

void Builder::OnThreadExit(Time when, NodeId, ThreadId thread) {
  ThreadSegs& st = threads_[thread];
  st.exit_time = when;
  st.exit_seq = exit_counter_++;
}

void Builder::OnThreadMigrate(Time, NodeId, NodeId dst, ThreadId thread, int64_t) {
  ThreadSegs& st = threads_[thread];
  if (model_.Get(thread).node == dst && st.last_blocked >= 0) {
    // Reliable-mode travel announces the migration *after* arrival (the
    // thread already runs on dst): the wait it just finished was the
    // transit. Failed attempts were already reclassified by OnRpcRetry.
    // (Lossless mode announces before departure, and the model's marker
    // names the *next* wait.)
    Segment& seg = st.segs[st.last_blocked];
    if (seg.cause == Cause::kNet) {
      seg.cause = Cause::kMigration;
    }
  }
}

void Builder::OnInvokeEnter(Time when, NodeId node, ThreadId, const void* obj,
                            const std::string& object, bool remote, NodeId origin,
                            Duration entry_overhead) {
  ObjectProfile& agg = objects_[ObjectId(obj)];
  agg.label = object;
  agg.home = node;
  ++agg.invocations;
  ++agg.calls_by_origin[origin];
  if (remote) {
    ++agg.remote_invocations;
    agg.overhead_by_origin[origin] += entry_overhead;
  }
}

void Builder::OnInvokeExit(Time when, NodeId, ThreadId thread, Duration, bool,
                           Duration exit_overhead) {
  const ThreadModel::Thread& m = model_.Get(thread);
  if (m.frames.empty()) {
    return;  // enter predates the log
  }
  const ThreadModel::Frame& f = m.frames.back();  // still open: the model lags the event
  if (f.remote) {
    objects_[ObjectId(f.object)].overhead_by_origin[f.origin] += exit_overhead;
  }
}

void Builder::OnLockAcquired(Time, NodeId, ThreadId, int lock, Duration wait) {
  LockProfile& l = locks_[lock];
  ++l.acquisitions;
  l.wait_ns += wait;
  l.max_wait_ns = std::max(l.max_wait_ns, wait);
}

void Builder::OnObjectMove(Time, const void* obj, NodeId, NodeId dst, int64_t) {
  const int id = ObjectId(obj);
  ++objects_[id].moves;
  objects_[id].home = dst;
}

// --- Extraction --------------------------------------------------------------------

int Builder::SegmentBefore(const ThreadSegs& st, Time t) {
  // Last segment with start < t (binary search over the sorted tiling).
  int lo = 0;
  int hi = static_cast<int>(st.segs.size());
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (st.segs[mid].start >= t) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo - 1;
}

ProfileReport Builder::Finalize(Time horizon) {
  ProfileReport r;
  r.total_ns = horizon;

  // Aggregates.
  for (ObjectProfile& o : objects_) {
    if (o.label.empty()) {
      o.label = "obj-" + std::to_string(o.id);  // moved, never invoked
    }
  }
  r.objects = std::move(objects_);
  for (auto& [id, l] : locks_) {
    l.id = id;
    r.locks.push_back(l);
  }

  // Choose the walk's starting point: the thread whose exit is latest (tie:
  // latest in exit order — deterministic).
  ThreadId start = 0;
  Time best_exit = -1;
  int64_t best_seq = -1;
  for (const auto& [tid, st] : threads_) {
    if (st.exit_seq < 0) {
      continue;
    }
    if (st.exit_time > best_exit || (st.exit_time == best_exit && st.exit_seq > best_seq)) {
      best_exit = st.exit_time;
      best_seq = st.exit_seq;
      start = tid;
    }
  }
  if (start == 0 && !threads_.empty()) {
    start = threads_.begin()->first;  // nothing exited: the lowest thread id
  }
  if (start == 0 || r.total_ns == 0) {
    return r;
  }

  // Backward walk: attribute (from, cursor] stretches until time zero.
  std::vector<PathStep> steps;  // collected end -> start, reversed below
  std::map<int, Time> lock_path;
  Time cursor = r.total_ns;
  ThreadId t = start;
  Time last_cursor = cursor;
  int stall = 0;
  auto attribute = [&](const std::string& cat, Time from) {
    if (from >= cursor) {
      return;
    }
    const Time len = cursor - from;
    r.breakdown[cat] += len;
    if (!steps.empty() && steps.back().category == cat) {
      steps.back().ns += len;
    } else {
      steps.push_back(PathStep{cat, len});
    }
    cursor = from;
  };

  while (cursor > 0) {
    if (cursor < last_cursor) {
      last_cursor = cursor;
      stall = 0;
    } else {
      ++stall;
    }
    const bool forced = stall > kStallLimit;  // cycle guard: stop jumping

    const ThreadSegs& st = SegsOf(t);
    const int si = SegmentBefore(st, cursor);
    if (si < 0) {
      // At or before this thread's creation: follow the creation edge (the
      // parent was running CreateThread at this instant).
      const ThreadId parent = model_.Get(t).parent;
      if (parent != 0 && model_.Get(parent).seen && !forced) {
        t = parent;
        continue;
      }
      attribute("rpc.net", 0);
      break;
    }
    const Segment& seg = st.segs[si];
    if (seg.end < cursor) {
      // Gap past the thread's last activity (post-exit event drain).
      attribute("rpc.net", seg.end);
      continue;
    }
    switch (seg.kind) {
      case SegKind::kQueued:
        attribute(NodeCat("queue.node", seg.node), seg.start);
        break;
      case SegKind::kRunning:
        attribute(NodeCat("compute.node", seg.node), seg.start);
        break;
      case SegKind::kBlocked:
        switch (seg.cause) {
          case Cause::kLock:
            lock_path[seg.aux] += cursor - seg.start;
            attribute("lock." + std::to_string(seg.aux), seg.start);
            break;
          case Cause::kMigration:
            attribute("migration", seg.start);
            break;
          case Cause::kFault:
            attribute("fault", seg.start);
            break;
          case Cause::kRecovery:
            attribute("recovery", seg.start);
            break;
          case Cause::kRpc:
            attribute(NodeCat("rpc.node", seg.aux), seg.start);
            break;
          case Cause::kJoin:
          case Cause::kWake: {
            // Jump to the thread that caused the wake, at the time it called
            // Wake; the remainder (wake -> unblock delivery) is scheduler
            // latency on the sleeper's node.
            const Time jump = std::max(seg.start, std::min(seg.wake_time, cursor));
            const bool can_jump =
                !forced && jump > 0 && SegmentBefore(SegsOf(seg.other), jump) >= 0;
            if (can_jump) {
              attribute(NodeCat("queue.node", seg.node), jump);
              t = seg.other;
            } else {
              attribute(NodeCat("queue.node", seg.node), seg.start);
            }
            break;
          }
          default:
            attribute("rpc.net", seg.start);
            break;
        }
        break;
    }
  }
  std::reverse(steps.begin(), steps.end());
  r.critical_path = std::move(steps);
  for (LockProfile& lp : r.locks) {
    const auto lit = lock_path.find(lp.id);
    lp.critical_path_ns = lit != lock_path.end() ? lit->second : 0;
  }

  // --- Placement advice -------------------------------------------------------

  // Per-thread overhead savings only shorten the *run* to the extent the run
  // actually waits on placement overhead: scale raw savings by the measured
  // migration + RPC share of the critical path. A run that is 95% compute
  // cannot be made much faster by moving objects, however much total thread
  // time the moves would save.
  Time path_overhead_ns = 0;
  for (const auto& [cat, ns] : r.breakdown) {
    if (cat == "migration" || cat.rfind("rpc.", 0) == 0) {
      path_overhead_ns += ns;
    }
  }

  char buf[512];
  for (const ObjectProfile& o : r.objects) {
    if (o.remote_invocations == 0) {
      continue;
    }
    Time total_overhead = 0;
    for (const auto& [n, v] : o.overhead_by_origin) {
      total_overhead += v;
    }
    if (total_overhead == 0) {
      continue;
    }
    // Heaviest remote origin (map order breaks ties toward the lowest node).
    NodeId best = o.home;
    Time best_overhead = 0;
    for (const auto& [n, v] : o.overhead_by_origin) {
      if (n != o.home && v > best_overhead) {
        best = n;
        best_overhead = v;
      }
    }
    if (best == o.home || best_overhead == 0) {
      continue;
    }
    const int percent = static_cast<int>(100 * best_overhead / total_overhead);
    if (percent < 60) {
      // No dominant origin: the traffic is symmetric (e.g. neighbour edge
      // exchange). Moving the object only relocates the overhead — that is
      // a load-balance problem, not a placement one.
      continue;
    }
    // Moving the object makes calls from `best` local and calls from the
    // current home remote; price the latter at this object's average
    // remote-call overhead.
    const Time avg_remote = total_overhead / o.remote_invocations;
    const auto hit = o.calls_by_origin.find(o.home);
    const int64_t calls_from_home = hit != o.calls_by_origin.end() ? hit->second : 0;
    const Time raw_saving = best_overhead - avg_remote * calls_from_home;
    if (raw_saving <= 0) {
      continue;
    }
    const Time saving =
        r.total_ns > 0
            ? static_cast<Time>(static_cast<__int128>(raw_saving) * path_overhead_ns /
                                r.total_ns)
            : raw_saving;
    if (saving <= 0) {
      continue;
    }
    Advice a;
    a.kind = "move";
    a.target = o.id;
    a.label = o.label;
    a.from = o.home;
    a.to = best;
    a.est_saving_ns = saving;
    std::snprintf(buf, sizeof(buf),
                  "%s lives on node %d but %d%% of remote-invocation overhead originates on "
                  "node %d; MoveTo(%d) est. saving %lld us",
                  o.label.c_str(), o.home, percent, best, best,
                  static_cast<long long>(saving / 1000));
    a.text = buf;
    r.advice.push_back(std::move(a));
  }
  for (const LockProfile& l : r.locks) {
    if (l.critical_path_ns == 0) {
      continue;
    }
    Advice a;
    a.kind = "lock";
    a.target = l.id;
    a.label = "lock " + std::to_string(l.id);
    a.est_saving_ns = l.critical_path_ns;
    std::snprintf(buf, sizeof(buf),
                  "lock %d contributes %lld us of critical-path wait (%lld acquisitions, "
                  "total wait %lld us); shorten the critical section or split the lock",
                  l.id, static_cast<long long>(l.critical_path_ns / 1000),
                  static_cast<long long>(l.acquisitions),
                  static_cast<long long>(l.wait_ns / 1000));
    a.text = buf;
    r.advice.push_back(std::move(a));
  }
  std::stable_sort(r.advice.begin(), r.advice.end(), [](const Advice& a, const Advice& b) {
    return a.est_saving_ns > b.est_saving_ns;
  });

  return r;
}

}  // namespace

ProfileReport Profile(const fdr::Recorder& log) {
  AMBER_CHECK(log.dropped() == 0)
      << ": prof::Profile needs the whole run, but the log dropped " << log.dropped()
      << " records (ring_capacity " << log.config().ring_capacity
      << "); profile a recorder with ring_capacity = SIZE_MAX";
  ThreadModel model;
  Builder builder(model);
  model.AddTiler(&builder);
  log.Replay(builder, model);
  // The run's last instant: the latest event, message arrival or reply.
  Time horizon = 0;
  for (const fdr::Recorder::Record* r : log.Merged()) {
    const Time arrival = r->type == fdr::EventType::kMessage       ? r->b
                         : r->type == fdr::EventType::kRpcResponse ? r->c
                                                                   : 0;
    horizon = std::max({horizon, r->when, arrival});
  }
  model.EndAllSegments(horizon);  // threads that never exited
  return builder.Finalize(horizon);
}

// --- Report rendering --------------------------------------------------------------

void ProfileReport::WriteJson(std::ostream& out) const {
  out << "{\n  \"profile\": \"" << JsonEscape(name) << "\",\n";
  out << "  \"total_ns\": " << total_ns << ",\n";

  out << "  \"breakdown\": {";
  bool first = true;
  for (const auto& [k, v] : breakdown) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(k) << "\": " << v;
    first = false;
  }
  out << (breakdown.empty() ? "" : "\n  ") << "},\n";

  out << "  \"critical_path\": [";
  first = true;
  for (const PathStep& s : critical_path) {
    out << (first ? "\n" : ",\n") << "    {\"category\": \"" << JsonEscape(s.category)
        << "\", \"ns\": " << s.ns << "}";
    first = false;
  }
  out << (critical_path.empty() ? "" : "\n  ") << "],\n";

  out << "  \"objects\": [";
  first = true;
  for (const ObjectProfile& o : objects) {
    out << (first ? "\n" : ",\n") << "    {\"id\": " << o.id << ", \"label\": \""
        << JsonEscape(o.label) << "\", \"home\": " << o.home << ", \"moves\": " << o.moves
        << ", \"invocations\": " << o.invocations
        << ", \"remote_invocations\": " << o.remote_invocations;
    out << ", \"calls_by_origin\": {";
    bool f2 = true;
    for (const auto& [n, c] : o.calls_by_origin) {
      out << (f2 ? "" : ", ") << "\"" << n << "\": " << c;
      f2 = false;
    }
    out << "}, \"overhead_ns_by_origin\": {";
    f2 = true;
    for (const auto& [n, ns] : o.overhead_by_origin) {
      out << (f2 ? "" : ", ") << "\"" << n << "\": " << ns;
      f2 = false;
    }
    out << "}}";
    first = false;
  }
  out << (objects.empty() ? "" : "\n  ") << "],\n";

  out << "  \"locks\": [";
  first = true;
  for (const LockProfile& l : locks) {
    out << (first ? "\n" : ",\n") << "    {\"id\": " << l.id
        << ", \"acquisitions\": " << l.acquisitions << ", \"wait_ns\": " << l.wait_ns
        << ", \"hold_ns\": " << l.hold_ns << ", \"max_wait_ns\": " << l.max_wait_ns
        << ", \"critical_path_ns\": " << l.critical_path_ns << "}";
    first = false;
  }
  out << (locks.empty() ? "" : "\n  ") << "],\n";

  out << "  \"advice\": [";
  first = true;
  for (const Advice& a : advice) {
    out << (first ? "\n" : ",\n") << "    {\"kind\": \"" << a.kind
        << "\", \"target\": " << a.target << ", \"label\": \"" << JsonEscape(a.label) << "\"";
    if (a.kind == "move") {
      out << ", \"from\": " << a.from << ", \"to\": " << a.to;
    }
    out << ", \"est_saving_ns\": " << a.est_saving_ns << ", \"text\": \"" << JsonEscape(a.text)
        << "\"}";
    first = false;
  }
  out << (advice.empty() ? "" : "\n  ") << "]\n}\n";
}

void ProfileReport::WriteSummary(std::ostream& out) const {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "critical-path profile: %s\n", name.c_str());
  out << buf;
  std::snprintf(buf, sizeof(buf), "  total virtual time : %.3f ms\n",
                static_cast<double>(total_ns) / 1e6);
  out << buf;

  // Attribution table, largest share first (ties: category name).
  std::vector<std::pair<std::string, Time>> rows(breakdown.begin(), breakdown.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  Time sum = 0;
  for (const auto& [cat, ns] : rows) {
    sum += ns;
  }
  std::snprintf(buf, sizeof(buf), "  critical path      : %zu steps, %.3f ms attributed\n",
                critical_path.size(), static_cast<double>(sum) / 1e6);
  out << buf;
  for (const auto& [cat, ns] : rows) {
    const double pct =
        total_ns > 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(total_ns) : 0.0;
    std::snprintf(buf, sizeof(buf), "    %-18s %12.3f ms  %5.1f%%\n", cat.c_str(),
                  static_cast<double>(ns) / 1e6, pct);
    out << buf;
  }

  if (!locks.empty()) {
    out << "  locks:\n";
    for (const LockProfile& l : locks) {
      std::snprintf(buf, sizeof(buf),
                    "    lock %-4d %8lld acq  wait %10.3f ms (max %8.3f ms)  hold %10.3f ms"
                    "  critical-path %10.3f ms\n",
                    l.id, static_cast<long long>(l.acquisitions),
                    static_cast<double>(l.wait_ns) / 1e6, static_cast<double>(l.max_wait_ns) / 1e6,
                    static_cast<double>(l.hold_ns) / 1e6,
                    static_cast<double>(l.critical_path_ns) / 1e6);
      out << buf;
    }
  }

  if (advice.empty()) {
    out << "  advice: none (placement and locking look balanced)\n";
  } else {
    out << "  advice:\n";
    int rank = 1;
    for (const Advice& a : advice) {
      std::snprintf(buf, sizeof(buf), "    %d. [%s] %s\n", rank++, a.kind.c_str(),
                    a.text.c_str());
      out << buf;
    }
  }
}

}  // namespace prof
