#include "src/core/runtime.h"

#include <cxxabi.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <typeinfo>
#include <unordered_map>
#include <unordered_set>

#include "src/base/logging.h"
#include "src/base/panic.h"
#include "src/core/object.h"
#include "src/core/thread.h"
#include "src/core/thread_model.h"
#include "src/metrics/metrics.h"
#include "src/rpc/wire.h"
#include "src/telemetry/telemetry.h"

namespace amber {
namespace {

Runtime* g_runtime = nullptr;

// Wire size of the thread control state that travels with a migrating
// thread, excluding the stack (registers, scheduling state, frame list).
constexpr int64_t kThreadStateBytes = 96;
// Size of location-protocol control messages (requests, acks, redirects).
constexpr int64_t kControlBytes = 64;
// Size of an asynchronous forwarding-hint update (path compaction, §3.3).
constexpr int64_t kHintUpdateBytes = 32;
// Per-object descriptor/bookkeeping bytes added to a move's bulk payload.
constexpr int64_t kPerObjectMoveOverhead = 32;

}  // namespace

template <typename... Params, typename... Args>
void Runtime::Emit(void (RuntimeObserver::*hook)(Params...), const Args&... args) {
  if (observers_.empty()) {
    return;
  }
  telemetry::ScopedWallTimer fanout(telemetry::Bucket::kObserverFanout);
  for (RuntimeObserver* o : observers_) {
    (o->*hook)(args...);
  }
  // Applied last, so every observer reads the model as it was before the
  // event (see thread_model.h).
  (model_.get()->*hook)(args...);
}

// Bridges the lower layers' observer interfaces (sim::SchedObserver,
// rpc::TransportObserver, fault::FaultSink) into the observer bus and the
// metrics registry. Allocated only while a sink is attached, so detached
// runs never construct it and the kernel/transport hooks stay null.
struct Runtime::Instrumentation : public sim::SchedObserver,
                                  public rpc::TransportObserver,
                                  public fault::FaultSink {
  explicit Instrumentation(Runtime* rt) : rt(rt) {}

  Runtime* rt;
  // ObjectLabel's cache, by dynamic type.
  std::unordered_map<const std::type_info*, std::string> type_labels;

  // Human-readable dynamic type of an object (invocation span labels),
  // demangled once per type. Demangling is deterministic: same binary, same
  // names.
  const std::string& ObjectLabel(const Object* obj) {
    static const std::string kStackLocal = "stack-local";
    if (obj == nullptr) {
      return kStackLocal;
    }
    const std::type_info& type = typeid(*obj);
    auto [it, inserted] = type_labels.try_emplace(&type);
    if (inserted) {
      int status = 0;
      char* demangled = abi::__cxa_demangle(type.name(), nullptr, nullptr, &status);
      it->second = (status == 0 && demangled != nullptr) ? demangled : type.name();
      std::free(demangled);
    }
    return it->second;
  }

  // --- Hot-path metric instances ---------------------------------------------
  //
  // The families recorded on every dispatch, invocation, migration, message
  // and lock event keep their instances here (Registry::Resolve), so a
  // record is an index plus Record/Add, with no name or label string and no
  // map walk. The families SetMetrics pre-registers are resolved there
  // (ResolveMetrics); the rest on first use, since resolving them early
  // would add labels to the document. Rare paths (faults, recovery, membership, drain,
  // policy) look their metrics up by name.
  struct NodeMetrics {
    metrics::Histogram* invoke_local = nullptr;
    metrics::Histogram* invoke_remote = nullptr;
    metrics::Histogram* runqueue_wait = nullptr;
    metrics::Histogram* runqueue_depth = nullptr;
    metrics::Histogram* lock_wait = nullptr;
    metrics::Histogram* rpc_roundtrip = nullptr;
    metrics::Counter* threads_created = nullptr;
    metrics::Counter* preempts = nullptr;
    metrics::Counter* barrier_waits = nullptr;
  };
  struct LinkMetrics {
    metrics::Counter* messages = nullptr;
    metrics::Counter* bytes = nullptr;
  };
  struct LockMetrics {
    metrics::Counter* blocked = nullptr;
    metrics::Histogram* wait = nullptr;
    metrics::Histogram* hold = nullptr;
  };
  struct HotMetrics {
    std::vector<NodeMetrics> node;  // by node
    std::vector<LinkMetrics> link;  // nodes x nodes, row = source
    std::vector<LockMetrics> lock;  // by dense sync id, grown on first use
    metrics::Histogram* migration_latency = nullptr;
    metrics::Histogram* move_latency = nullptr;
    metrics::Histogram* forward_chain = nullptr;
    metrics::Histogram* lock_hold = nullptr;
    metrics::Counter* migration_bytes = nullptr;
    metrics::Counter* move_bytes = nullptr;
    metrics::Counter* replica_fetches = nullptr;
    metrics::Counter* condition_wakeups = nullptr;
  };
  HotMetrics hot;

  // Drops every kept instance (a registry was attached, replaced or
  // detached), then registers the live-path families in the new registry so
  // the document always contains them (at zero) even when the run never
  // hits a path — keeping what that registration returns.
  void ResolveMetrics() {
    hot = HotMetrics{};
    if (rt->metrics_ == nullptr) {
      return;
    }
    const size_t n = static_cast<size_t>(rt->nodes());
    hot.node.resize(n);
    hot.link.resize(n * n);
    for (NodeId node = 0; node < rt->nodes(); ++node) {
      NodeMetrics& m = hot.node[static_cast<size_t>(node)];
      AtNode(m.invoke_local, "amber.invoke.latency.local", node);
      AtNode(m.invoke_remote, "amber.invoke.latency.remote", node);
      AtNode(m.runqueue_wait, "sched.runqueue.wait", node);
      AtNode(m.runqueue_depth, "sched.runqueue.depth", node);
      AtNode(m.lock_wait, "sync.lock.wait", node);
      AtNode(m.rpc_roundtrip, "rpc.roundtrip.latency", node);
    }
    Total(hot.migration_latency, "amber.migration.latency");
    Total(hot.move_latency, "amber.move.latency");
    Total(hot.forward_chain, "amber.forward.chain");
    Total(hot.lock_hold, "sync.lock.hold");
    Total(hot.migration_bytes, "amber.migration.bytes");
    Total(hot.move_bytes, "amber.move.bytes");
    Total(hot.replica_fetches, "amber.replica.fetches");
    Total(hot.condition_wakeups, "sync.condition.wakeups");
  }

  // The instance `slot` keeps in the attached registry, resolved through
  // Get*(name, label()) while it is not kept (see Registry::Resolve).
  template <typename T, typename Label>
  T& Resolve(T*& slot, const char* name, Label label) {
    metrics::Registry& m = *rt->metrics_;
    return m.Resolve(slot, [&]() -> T& {
      if constexpr (std::is_same_v<T, metrics::Counter>) {
        return m.GetCounter(name, label());
      } else {
        return m.GetHistogram(name, label());
      }
    });
  }
  template <typename T>
  T& Total(T*& slot, const char* name) {
    return Resolve(slot, name, [] { return std::string("total"); });
  }
  template <typename T>
  T& AtNode(T*& slot, const char* name, NodeId node) {
    return Resolve(slot, name, [node] { return metrics::Registry::NodeLabel(node); });
  }
  NodeMetrics& NodeSlots(NodeId node) { return hot.node[static_cast<size_t>(node)]; }
  LinkMetrics& LinkSlots(NodeId src, NodeId dst) {
    return hot.link[static_cast<size_t>(src) * hot.node.size() + static_cast<size_t>(dst)];
  }
  LockMetrics& LockSlots(int id) {
    const size_t i = static_cast<size_t>(id);
    if (i >= hot.lock.size()) {
      hot.lock.resize(i + 1);
    }
    return hot.lock[i];
  }
  template <typename T>
  T& AtLock(T*& slot, const char* name, int id) {
    return Resolve(slot, name, [id] { return "lock" + std::to_string(id); });
  }

  // One thread migration / object move.
  void RecordMigration(Duration latency, int64_t bytes) {
    Total(hot.migration_latency, "amber.migration.latency").Record(static_cast<double>(latency));
    Total(hot.migration_bytes, "amber.migration.bytes").Add(bytes);
  }
  void RecordMove(Duration latency, int64_t bytes) {
    Total(hot.move_latency, "amber.move.latency").Record(static_cast<double>(latency));
    Total(hot.move_bytes, "amber.move.bytes").Add(bytes);
  }

  // depart time per in-flight rpc id (erased on response) for latency.
  std::unordered_map<uint64_t, Time> rpc_depart;
  // ids that needed at least one retransmission (for rpc.retry.latency).
  std::unordered_set<uint64_t> rpc_retried;

  // --- sim::SchedObserver ----------------------------------------------------
  void OnFiberCreate(Time when, sim::NodeId node, const sim::Fiber& f) override {
    // Spawn runs in the creating fiber's context (host context for the
    // initial thread), so current() is the parent — the causal creation
    // edge the critical-path profiler walks.
    sim::Fiber* creator = rt->sim_->current();
    const ThreadId parent = creator != nullptr ? creator->id : 0;
    rt->Emit(&RuntimeObserver::OnThreadCreate, when, node, f.id, f.name, parent);
    if (rt->metrics_ != nullptr) {
      AtNode(NodeSlots(node).threads_created, "sched.threads.created", node).Add();
    }
  }
  void OnFiberDispatch(Time when, sim::NodeId node, const sim::Fiber& f,
                       Duration queue_wait) override {
    rt->model_->EndSegment(f.id, when, node);
    rt->Emit(&RuntimeObserver::OnThreadDispatch, when, node, f.id, queue_wait);
    if (rt->metrics_ != nullptr) {
      NodeMetrics& m = NodeSlots(node);
      AtNode(m.runqueue_wait, "sched.runqueue.wait", node).Record(static_cast<double>(queue_wait));
      AtNode(m.runqueue_depth, "sched.runqueue.depth", node)
          .Record(static_cast<double>(rt->sim_->RunQueueLength(node)));
    }
  }
  void OnFiberBlock(Time when, sim::NodeId node, const sim::Fiber& f) override {
    rt->model_->EndSegment(f.id, when, node);
    rt->Emit(&RuntimeObserver::OnThreadBlock, when, node, f.id);
  }
  void OnFiberUnblock(Time when, sim::NodeId node, const sim::Fiber& f, uint64_t waker_id,
                      Time wake_time) override {
    rt->model_->EndSegment(f.id, when, node, waker_id, wake_time);
    rt->Emit(&RuntimeObserver::OnThreadUnblock, when, node, f.id, waker_id, wake_time);
  }
  void OnFiberPreempt(Time when, sim::NodeId node, const sim::Fiber& f) override {
    rt->model_->EndSegment(f.id, when, node);
    rt->Emit(&RuntimeObserver::OnThreadPreempt, when, node, f.id);
    if (rt->metrics_ != nullptr) {
      AtNode(NodeSlots(node).preempts, "sched.preempts", node).Add();
    }
  }
  void OnFiberExit(Time when, sim::NodeId node, const sim::Fiber& f) override {
    rt->model_->EndSegment(f.id, when, node);
    rt->Emit(&RuntimeObserver::OnThreadExit, when, node, f.id);
  }

  // --- rpc::TransportObserver ------------------------------------------------
  void OnRpcRequest(Time depart, rpc::NodeId src, rpc::NodeId dst, int64_t bytes, uint64_t id,
                    uint64_t requester) override {
    rt->Emit(&RuntimeObserver::OnRpcRequest, depart, src, dst, bytes, id, requester);
    if (rt->metrics_ != nullptr) {
      rpc_depart[id] = depart;
    }
  }
  void OnRpcResponse(Time when, Time reply_arrive, rpc::NodeId src, rpc::NodeId dst,
                     int64_t bytes, uint64_t id) override {
    rt->Emit(&RuntimeObserver::OnRpcResponse, when, reply_arrive, src, dst, bytes, id);
    if (rt->metrics_ != nullptr) {
      auto it = rpc_depart.find(id);
      if (it != rpc_depart.end()) {
        // Latency as seen by the requester (dst of the reply).
        AtNode(NodeSlots(dst).rpc_roundtrip, "rpc.roundtrip.latency", dst)
            .Record(static_cast<double>(reply_arrive - it->second));
        if (auto rit = rpc_retried.find(id); rit != rpc_retried.end()) {
          // First-departure-to-reply latency of roundtrips that needed
          // retransmission — the cost of riding out loss.
          rt->metrics_->GetHistogram("rpc.retry.latency")
              .Record(static_cast<double>(reply_arrive - it->second));
          rpc_retried.erase(rit);
        }
        rpc_depart.erase(it);
      }
    }
  }
  void OnRpcRetry(Time when, rpc::NodeId src, rpc::NodeId dst, uint64_t id, int attempt,
                  uint64_t requester) override {
    rt->Emit(&RuntimeObserver::OnRpcRetry, when, src, dst, id, attempt, requester);
    if (rt->metrics_ != nullptr) {
      rt->metrics_->GetCounter("rpc.retries").Add();
      rpc_retried.insert(id);
    }
  }
  void OnRpcTimeout(Time when, rpc::NodeId src, rpc::NodeId dst, uint64_t id, int attempts,
                    uint64_t requester) override {
    rt->Emit(&RuntimeObserver::OnRpcTimeout, when, src, dst, id, attempts, requester);
    if (rt->metrics_ != nullptr) {
      rt->metrics_->GetCounter("rpc.timeouts").Add();
      rpc_depart.erase(id);
      rpc_retried.erase(id);
    }
  }
  void OnRpcDuplicateSuppressed(Time /*when*/, rpc::NodeId /*node*/, uint64_t /*id*/) override {
    if (rt->metrics_ != nullptr) {
      rt->metrics_->GetCounter("rpc.dup_suppressed").Add();
    }
  }

  // --- fault::FaultSink ------------------------------------------------------
  void OnMessageDropped(Time when, fault::NodeId src, fault::NodeId dst, int64_t bytes,
                        fault::DropReason reason) override {
    rt->Emit(&RuntimeObserver::OnMessageDropped, when, src, dst, bytes,
             fault::DropReasonName(reason));
    if (rt->metrics_ != nullptr) {
      rt->metrics_->GetCounter("fault.drops", metrics::Registry::LinkLabel(src, dst)).Add();
    }
  }
  void OnMessageDuplicated(Time when, fault::NodeId src, fault::NodeId dst,
                           int64_t bytes) override {
    rt->Emit(&RuntimeObserver::OnMessageDuplicated, when, src, dst, bytes);
    if (rt->metrics_ != nullptr) {
      rt->metrics_->GetCounter("fault.dups", metrics::Registry::LinkLabel(src, dst)).Add();
    }
  }
  void OnMessageDelayed(Time when, fault::NodeId src, fault::NodeId dst,
                        Duration extra) override {
    rt->Emit(&RuntimeObserver::OnMessageDelayed, when, src, dst, extra);
    if (rt->metrics_ != nullptr) {
      rt->metrics_->GetCounter("fault.delays", metrics::Registry::LinkLabel(src, dst)).Add();
      rt->metrics_->GetHistogram("fault.delay").Record(static_cast<double>(extra));
    }
  }
  void OnNodeCrash(Time when, fault::NodeId node) override {
    rt->Emit(&RuntimeObserver::OnNodeCrash, when, node);
    if (rt->metrics_ != nullptr) {
      rt->metrics_->GetCounter("fault.node.crashes", node).Add();
    }
  }
  void OnNodeRestart(Time when, fault::NodeId node) override {
    rt->Emit(&RuntimeObserver::OnNodeRestart, when, node);
    if (rt->metrics_ != nullptr) {
      rt->metrics_->GetCounter("fault.node.restarts", node).Add();
    }
  }
};

Runtime::Runtime(const Config& config)
    : config_(config), model_(std::make_shared<ThreadModel>()) {
  AMBER_CHECK(g_runtime == nullptr) << "only one Runtime may exist at a time";
  sim::Kernel::Config kc;
  kc.nodes = config.nodes;
  kc.procs_per_node = config.procs_per_node;
  kc.cost = config.cost;
  sim_ = std::make_unique<sim::Kernel>(kc);
  net_ = std::make_unique<net::Network>(sim_.get(), config.topology);
  rpc_ = std::make_unique<rpc::Transport>(sim_.get(), net_.get());
  gas_ = std::make_unique<mem::GlobalAddressSpace>(config.arena_bytes);
  region_server_ = std::make_unique<mem::RegionServer>(gas_.get(), config.nodes,
                                                       config.initial_regions_per_node);
  for (NodeId n = 0; n < config.nodes; ++n) {
    allocators_.push_back(std::make_unique<mem::SegmentAllocator>(gas_.get(), n));
    for (int r = 0; r < config.initial_regions_per_node; ++r) {
      allocators_.back()->AddRegion(n * config.initial_regions_per_node + r);
    }
    tables_.push_back(std::make_unique<DescriptorTable>(n));
  }
  migration_matrix_.assign(static_cast<size_t>(config.nodes) * config.nodes, 0);
  sim_->SetResumeHook([this](sim::Fiber* f) { ResumeHook(f); });
  g_runtime = this;
}

Runtime::~Runtime() {
  if (blackbox_ != nullptr) {
    SetPanicHook(nullptr);
  }
  // Destroy thread records (their std::function/vector state lives on the
  // host heap); object segments disappear with the arena.
  for (ThreadObject* t : threads_) {
    t->~ThreadObject();
  }
  g_runtime = nullptr;
}

Runtime& Runtime::Current() {
  AMBER_CHECK(g_runtime != nullptr) << "no Runtime is active";
  return *g_runtime;
}

Runtime* Runtime::CurrentOrNull() { return g_runtime; }

DescriptorTable& Runtime::table(NodeId node) {
  AMBER_CHECK(node >= 0 && node < nodes());
  return *tables_[static_cast<size_t>(node)];
}

mem::SegmentAllocator& Runtime::allocator(NodeId node) {
  AMBER_CHECK(node >= 0 && node < nodes());
  return *allocators_[static_cast<size_t>(node)];
}

NodeId Runtime::here() const {
  sim::Fiber* f = sim_->current();
  AMBER_CHECK(f != nullptr) << "not running on an Amber thread";
  return f->node;
}

ThreadObject* Runtime::current_thread() const {
  sim::Fiber* f = sim_->current();
  AMBER_CHECK(f != nullptr) << "not running on an Amber thread";
  auto* t = static_cast<ThreadObject*>(f->user_data);
  AMBER_CHECK(t != nullptr);
  return t;
}

// --- Program startup ----------------------------------------------------------

Time Runtime::Run(std::function<void()> main) {
  AMBER_CHECK(!ran_) << "a Runtime represents one program execution; construct a new one";
  ran_ = true;
  // Stamp log lines with virtual time for the duration of the run.
  SetLogTimeSource(+[]() -> int64_t { return g_runtime != nullptr ? g_runtime->now() : 0; });
  // The initial thread is materialized host-side on node 0 — program startup
  // (§3: tasks created by Topaz facilities), not a charged runtime operation.
  void* mem = allocators_[0]->Allocate(sizeof(ThreadObject));
  AMBER_CHECK(mem != nullptr);
  pending_.push_back(PendingAllocation{mem, sizeof(ThreadObject), nullptr});
  auto* t = new (mem) ThreadObject();
  AMBER_CHECK(pending_.back().primary == t);
  pending_.pop_back();
  // Live like any constructed object (so invariant checks cover it), but
  // not counted in objects_created_: no New made it.
  objects_[t].live = 1;
  t->header_.flags |= kObjThread;
  t->header_.home = 0;
  t->header_.owner = 0;
  t->header_.size = sizeof(ThreadObject);
  tables_[0]->SetResident(t);
  t->name_ = "main";
  t->body_ = std::move(main);
  void* stack = allocators_[0]->Allocate(config_.stack_bytes);
  AMBER_CHECK(stack != nullptr);
  t->stack_base_ = stack;
  t->fiber_ = sim_->Spawn(0, stack, config_.stack_bytes, [this, t] { ThreadMain(t); }, "main");
  t->fiber_->user_data = t;
  threads_.push_back(t);
  const Time end = sim_->Run();
  PublishRunTotals(end);
  if (policy_ != nullptr) {
    policy_->OnRunEnd(end);
  }
  SetLogTimeSource(nullptr);
  return end;
}

void Runtime::ThreadMain(ThreadObject* t) {
  t->frames_.push_back(Frame{t});
  t->body_();
  sim_->Sync();
  t->finished_ = true;
  for (sim::Fiber* w : t->join_waiters_) {
    sim_->Wake(w, sim_->Now());
  }
  t->join_waiters_.clear();
  t->frames_.clear();
  // Give the chase scratch back now: a finished thread chases no more, and
  // its object lives on until the runtime's teardown.
  t->chase_.clear();
  t->chase_.shrink_to_fit();
}

// --- Object construction --------------------------------------------------------

void* Runtime::AllocateSegmentOnCurrentNode(size_t size) {
  const NodeId node = here();
  mem::SegmentAllocator& alloc = *allocators_[static_cast<size_t>(node)];
  void* p = alloc.Allocate(size);
  if (p != nullptr) {
    return p;
  }
  // Pool exhausted: extend it through the address-space server (§3.1). A
  // remote server costs a control RPC; the server node extends locally.
  const NodeId server = region_server_->server_node();
  int64_t region = -1;
  if (node == server) {
    sim_->Charge(cost().object_create);  // local bookkeeping for the grant
    sim_->Sync();
    region = region_server_->AcquireRegion(node);
  } else {
    for (int tries = 0;; ++tries) {
      const rpc::RoundtripResult rr =
          rpc_->Roundtrip(server, kControlBytes, [this, node, &region]() -> int64_t {
            region = region_server_->AcquireRegion(node);
            return kControlBytes;
          });
      if (rr.status == rpc::SendStatus::kOk) {
        break;
      }
      // Fault-injected runs: the server may be crashed right now; keep
      // retrying (it is fail-stop/restart) rather than hanging, with a cap
      // so a permanently dead server is a detected failure.
      AMBER_CHECK(tries < 16) << "address-space server on node " << server << " unreachable";
    }
  }
  alloc.AddRegion(region);
  p = alloc.Allocate(size);
  AMBER_CHECK(p != nullptr);
  return p;
}

void* Runtime::AllocateObjectMemory(size_t size) {
  sim_->Charge(cost().object_create);
  sim_->Sync();
  void* p = AllocateSegmentOnCurrentNode(size);
  // The descriptor is initialized at allocation time, on the allocating
  // node (§3.2): the object is resident here from birth, even if its
  // constructor migrates the creating thread.
  tables_[static_cast<size_t>(here())]->SetResident(p);
  pending_.push_back(PendingAllocation{p, size, nullptr});
  return p;
}

void Runtime::AbandonObjectMemory(void* p) {
  AMBER_CHECK(!pending_.empty() && pending_.back().base == p);
  pending_.pop_back();
  tables_[static_cast<size_t>(here())]->Erase(p);
  allocator(gas_->HomeOf(p)).Free(p);
}

void Runtime::OnObjectConstruct(Object* obj) {
  if (!pending_.empty()) {
    PendingAllocation& p = pending_.back();
    auto* base = static_cast<char*>(p.base);
    auto* addr = reinterpret_cast<char*>(obj);
    if (addr >= base && addr < base + p.size) {
      if (p.primary == nullptr) {
        AMBER_CHECK(addr == base) << "Object base must be the first subobject";
        p.primary = obj;
        const NodeId node = sim_->current() != nullptr ? here() : 0;
        obj->header_.home = gas_->HomeOf(base);
        obj->header_.owner = node;
        obj->header_.size = p.size;
        // Creation-sequence id: deterministic program order, unlike the
        // segment address (DrainNode iteration, fault.unreachable labels).
        objects_[obj].seq = next_obj_seq_++;
      } else {
        // A member object (§3.6): co-resident with — and moves with — the
        // containing primary.
        obj->header_.flags |= kObjMember;
        obj->header_.primary = p.primary;
      }
      return;
    }
  }
  obj->header_.flags |= kObjStackLocal;
}

void Runtime::OnObjectDestruct(Object* obj) {
  // Unregisters a primary (deleted, or a thread reclaimed at teardown);
  // member/stack objects were never registered.
  objects_.Erase(obj);
  checkpoints_.erase(obj);
}

void Runtime::FinishObjectConstruction(Object* obj) {
  AMBER_CHECK(!pending_.empty() && pending_.back().primary == obj)
      << "FinishObjectConstruction out of order";
  pending_.pop_back();
  objects_[obj].live = 1;
  ++objects_created_;
}

void Runtime::DeleteObject(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  ObjectHeader& h = obj->header_;
  AMBER_CHECK(!h.IsMember() && !h.IsStackLocal()) << "delete the containing object";
  AMBER_CHECK(!h.IsThread()) << "thread objects are reclaimed by Join";
  AMBER_CHECK(h.attach_parent == nullptr) << "unattach before delete";
  AMBER_CHECK(h.first_child == nullptr) << "unattach children before delete";
  sim_->Charge(cost().object_destroy);
  sim_->Sync();
  const NodeId node = here();
  AMBER_CHECK(tables_[static_cast<size_t>(node)]->IsResident(obj))
      << "DeleteObject must run where the object is resident";
  tables_[static_cast<size_t>(node)]->Erase(obj);
  h.owner = kNoNode;  // a stale Ref used here must miss EnsureResident's fast path
  const NodeId home = gas_->HomeOf(obj);
  obj->~Object();  // virtual: destroys the complete object
  allocator(home).Free(obj);
}

// --- Invocation protocol ---------------------------------------------------------

void Runtime::EnterInvocation(Object* primary, int64_t args_wire_bytes) {
  ThreadObject* t = current_thread();
  const bool instr = instrumented();
  // Frame push precedes the residency check (§3.5) so a concurrent move
  // already sees this thread as bound to the object.
  t->frames_.push_back(Frame{primary, instr ? sim_->Now() : 0});
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  if (policy_ != nullptr) {
    // Adaptive placement: offer the policy a pull before the residency
    // check chases the object the other way (see MaybePolicyPull).
    MaybePolicyPull(primary);
  }
  const int64_t migrations_before = thread_migrations_;
  // Bracket the residency check: its duration (chain chasing + migration +
  // failure backoff) is the invocation's entry overhead — what a better
  // placement of `primary` would have saved the caller standing on `origin`.
  const NodeId origin = instr ? here() : kNoNode;
  const Time chase_start = instr ? sim_->Now() : 0;
  EnsureResident(primary, args_wire_bytes);
  if (instr) {
    const bool remote = thread_migrations_ != migrations_before;
    t->frames_.back().remote = remote;
    if (!observers_.empty()) {  // the demangled label is only built for an observer
      const Time now = sim_->Now();
      Emit(&RuntimeObserver::OnInvokeEnter, now, here(), t->fiber_->id, primary,
           instr_->ObjectLabel(primary), remote, origin, now - chase_start);
    }
  }
}

void Runtime::ExitInvocation(int64_t result_wire_bytes) {
  ThreadObject* t = current_thread();
  AMBER_CHECK(t->frames_.size() > 1) << "invocation stack underflow";
  const Frame done = t->frames_.back();
  t->frames_.pop_back();
  sim_->Charge(cost().local_return);
  sim_->Sync();
  const bool instr = instrumented();
  const Time return_start = instr ? sim_->Now() : 0;
  // Return-time check, made after the frame pop (§3.5): continue where the
  // enclosing frame's object now lives.
  EnsureResident(t->frames_.back().object, result_wire_bytes);
  if (instr) {
    const Time now = sim_->Now();
    const Duration span = now - done.enter;
    if (metrics_ != nullptr) {
      Instrumentation::NodeMetrics& m = instr_->NodeSlots(here());
      instr_
          ->AtNode(done.remote ? m.invoke_remote : m.invoke_local,
                   done.remote ? "amber.invoke.latency.remote" : "amber.invoke.latency.local",
                   here())
          .Record(static_cast<double>(span));
    }
    Emit(&RuntimeObserver::OnInvokeExit, now, here(), t->fiber_->id, span, done.remote,
         now - return_start);
  }
}

void Runtime::ResumeHook(sim::Fiber* f) {
  auto* t = static_cast<ThreadObject*>(f->user_data);
  if (t == nullptr || t->resolving_ || t->frames_.empty()) {
    return;
  }
  // Context-switch-in residency check (§3.5): a thread bound to an object
  // that moved while the thread was suspended chases it on dispatch.
  EnsureResident(t->frames_.back().object, 0);
}

int64_t Runtime::ThreadPayloadBytes() const {
  return kThreadStateBytes + cost().thread_ship_stack_bytes;
}

Status Runtime::TravelThread(NodeId dst, int64_t extra_bytes) {
  ThreadObject* t = current_thread();
  const NodeId src = here();
  AMBER_CHECK(dst != src);
  // The thread object travels with the thread: forward at the source,
  // resident at the destination. (Descriptors flip at departure; see
  // DESIGN.md on the in-flight window.)
  tables_[static_cast<size_t>(src)]->SetForward(t, dst);
  tables_[static_cast<size_t>(dst)]->SetResident(t);
  t->header_.owner = dst;
  const int64_t payload = ThreadPayloadBytes() + extra_bytes;
  const Time depart = sim_->Now();
  if (!rpc_->reliability_enabled()) {
    ++thread_migrations_;
    migration_matrix_[static_cast<size_t>(src) * static_cast<size_t>(nodes()) +
                      static_cast<size_t>(dst)] += 1;
    Emit(&RuntimeObserver::OnThreadMigrate, depart, src, dst, t->fiber_->id, payload);
    rpc_->Travel(dst, payload);
    if (metrics_ != nullptr) {
      // Departure decision to running again at dst (marshal + wire + dispatch).
      instr_->RecordMigration(sim_->Now() - depart, payload);
    }
    return Status::kOk;
  }
  // Fault-injected run: the migration can fail (dst dead or partitioned away
  // for the whole retransmission budget). The thread is still on src then —
  // flip the descriptors back, leaving a correct dst->src hint in place of
  // the speculative resident entry.
  const rpc::TravelResult r = rpc_->Travel(dst, payload);
  if (r.status != rpc::SendStatus::kOk) {
    tables_[static_cast<size_t>(dst)]->SetForward(t, src);
    tables_[static_cast<size_t>(src)]->SetResident(t);
    t->header_.owner = src;
    return Status::kUnreachable;
  }
  ++thread_migrations_;
  migration_matrix_[static_cast<size_t>(src) * static_cast<size_t>(nodes()) +
                    static_cast<size_t>(dst)] += 1;
  Emit(&RuntimeObserver::OnThreadMigrate, depart, src, dst, t->fiber_->id, payload);
  if (metrics_ != nullptr) {
    instr_->RecordMigration(sim_->Now() - depart, payload);
  }
  return Status::kOk;
}

void Runtime::EnsureResident(Object* obj, int64_t payload_bytes) {
  if (obj == nullptr) {
    return;
  }
  ObjectHeader& h = Object::HeaderOf(obj);  // obj may dangle: report it below
  if (h.IsStackLocal()) {
    return;
  }
  // The invoke-time check at the object's own address (§3.2): on the node
  // the object lives on, `owner` is that node's resident bit. Only "is it
  // me?" is read from it; every other answer comes from this node's table.
  if (h.owner == here()) {
    AMBER_DCHECK(tables_[static_cast<size_t>(h.owner)]->IsResident(obj))
        << "owner " << h.owner << " does not mark " << obj << " resident";
    return;
  }
  ThreadObject* t = current_thread();
  if (t->resolving_) {
    return;  // the outer resolution loop is already chasing
  }
  t->resolving_ = true;
  const bool faulty = rpc_->reliability_enabled();
  // (node, stale hint) pairs visited on the way, for path compaction.
  std::vector<std::pair<NodeId, NodeId>>& visited = t->chase_;
  visited.clear();
  int hops = 0;
  int failures = 0;  // consecutive unreachable rounds (fault-injected runs)
  for (;;) {
    const NodeId cur = here();
    const Descriptor d = tables_[static_cast<size_t>(cur)]->Lookup(obj);
    if (d.state == Residency::kResident || d.state == Residency::kReplica) {
      break;
    }
    NodeId target;
    if (d.state == Residency::kRemoteHint) {
      target = d.forward;
    } else {
      const NodeId home = gas_->HomeOf(obj);
      AMBER_CHECK(home != kNoNode) << "reference outside the object space";
      AMBER_CHECK(home != cur) << "dangling object reference (home has no descriptor)";
      target = home;
    }
    if (h.IsImmutable()) {
      // Immutable objects replicate to the reader instead of pulling the
      // reader to them (§2.3).
      AMBER_LOG(kTrace) << "EnsureResident: fetch replica of " << obj << " via " << target;
      if (FetchReplica(obj, target) != Status::kOk) {
        HandleUnreachable(obj, target, ++failures);
      }
      continue;
    }
    if (hops > 0) {
      ++forward_hops_;
    }
    ++hops;
    AMBER_CHECK(faulty || hops <= 2 * nodes() + 4) << "forwarding chain did not terminate";
    AMBER_LOG(kTrace) << "EnsureResident: chase " << obj << " " << cur << " -> " << target;
    if (TravelThread(target, payload_bytes) != Status::kOk) {
      // The hop target is unreachable (crashed or partitioned away). Repair
      // the chain: probe the nodes that *are* reachable for the object and
      // re-aim the local hint past the dead node. If nobody reachable holds
      // it, the object itself is unavailable — failure contract.
      const NodeId found = BroadcastLocate(obj);
      if (found != kNoNode) {
        if (found != target) {
          AMBER_LOG(kTrace) << "EnsureResident: repair " << obj << " hint " << target << " -> "
                            << found;
          tables_[static_cast<size_t>(cur)]->SetForward(obj, found);
        }
        failures = 0;  // the object is reachable again; re-chase
        continue;
      }
      HandleUnreachable(obj, target, ++failures);
      continue;
    }
    failures = 0;
    visited.emplace_back(cur, target);
  }
  if (hops > 0 && metrics_ != nullptr) {
    instr_->Total(instr_->hot.forward_chain, "amber.forward.chain")
        .Record(static_cast<double>(hops));
  }
  // Path compaction (§3.3): every node along the chain learns the final
  // location, via asynchronous hint updates.
  const NodeId final_node = here();
  for (const auto& [v, hint] : visited) {
    if (v != final_node && hint != final_node) {
      tables_[static_cast<size_t>(v)]->SetForward(obj, final_node);
      net_->Send(final_node, v, kHintUpdateBytes, sim_->Now());
    }
  }
  t->resolving_ = false;
}

NodeId Runtime::ResolveLocation(Object* obj) {
  const NodeId cur = here();
  Descriptor d = tables_[static_cast<size_t>(cur)]->Lookup(obj);
  if (d.state == Residency::kResident) {
    return cur;
  }
  NodeId target;
  if (d.state == Residency::kRemoteHint ||
      (d.state == Residency::kReplica && d.forward != kNoNode)) {
    // A replica remembers where its bytes came from — a trail toward the
    // primary even when this node never held a forwarding entry.
    target = d.forward;
  } else {
    const NodeId home = gas_->HomeOf(obj);
    AMBER_CHECK(home != kNoNode) << "reference outside the object space";
    AMBER_CHECK(home != cur || d.state == Residency::kReplica)
        << "dangling object reference (home has no descriptor)";
    target = home;
  }
  int hops = 0;
  std::vector<NodeId> visited{cur};
  for (;;) {
    AMBER_CHECK(++hops <= 2 * nodes() + 4) << "forwarding chain did not terminate";
    if (target == cur) {
      // A remote hint pointed back here; re-read our own table.
      d = tables_[static_cast<size_t>(cur)]->Lookup(obj);
      if (d.state == Residency::kResident) {
        target = cur;
        break;
      }
      AMBER_CHECK(d.state == Residency::kRemoteHint ||
                  (d.state == Residency::kReplica && d.forward != kNoNode))
          << "location chain stuck: self-lookup state=" << static_cast<int>(d.state)
          << " node=" << cur;
      target = d.forward;
      continue;
    }
    bool found = false;
    NodeId next = kNoNode;
    const NodeId probe = target;
    const rpc::RoundtripResult rr =
        rpc_->Roundtrip(probe, kControlBytes, [this, obj, probe, &found, &next]() -> int64_t {
          const Descriptor dd = tables_[static_cast<size_t>(probe)]->Lookup(obj);
          if (dd.state == Residency::kResident) {
            found = true;
          } else if (dd.state == Residency::kRemoteHint ||
                     (dd.state == Residency::kReplica && dd.forward != kNoNode)) {
            next = dd.forward;
          } else {
            next = gas_->HomeOf(obj);
          }
          return kControlBytes;
        });
    if (rr.status != rpc::SendStatus::kOk) {
      return kNoNode;  // probe unreachable (fault-injected runs only)
    }
    if (found) {
      break;
    }
    AMBER_CHECK(next != kNoNode);
    visited.push_back(probe);
    target = next;
  }
  // Path compaction for the nodes we probed. A node holding a replica keeps
  // it (the bytes stay useful for immutable reads); only its primary hint
  // is refreshed.
  for (NodeId v : visited) {
    if (v == target) {
      continue;
    }
    if (tables_[static_cast<size_t>(v)]->Lookup(obj).state == Residency::kReplica) {
      tables_[static_cast<size_t>(v)]->SetReplica(obj, target);
    } else {
      tables_[static_cast<size_t>(v)]->SetForward(obj, target);
    }
  }
  return target;
}

NodeId Runtime::BroadcastLocate(Object* obj) {
  const NodeId cur = here();
  if (tables_[static_cast<size_t>(cur)]->IsResident(obj)) {
    return cur;
  }
  for (NodeId n = 0; n < nodes(); ++n) {
    if (n == cur) {
      continue;
    }
    // Ask the membership service, not the injector: skip peers whose
    // heartbeat lease has expired instead of burning a retransmission
    // budget on each. A dead-but-not-yet-suspected peer still costs one
    // probe, but the transport's own suspicion check cuts that short as
    // soon as the lease runs out mid-probe.
    if (membership_ != nullptr && membership_->Suspects(cur, n)) {
      continue;
    }
    bool resident = false;
    const rpc::RoundtripResult rr =
        rpc_->Roundtrip(n, kControlBytes, [this, obj, n, &resident]() -> int64_t {
          resident = tables_[static_cast<size_t>(n)]->IsResident(obj);
          return kControlBytes;
        });
    if (rr.status == rpc::SendStatus::kOk && resident) {
      return n;
    }
  }
  return kNoNode;
}

void Runtime::HandleUnreachable(Object* obj, NodeId node, int attempts) {
  if (metrics_ != nullptr) {
    // Labelled with the chased object's creation-sequence id alongside the
    // dead node (pointers would not be stable across runs), so the counter
    // says *what* was unreachable, not just where.
    std::string label = "node" + std::to_string(node);
    if (const ObjectEntry* e = objects_.Find(obj); e != nullptr) {
      label = "obj" + std::to_string(e->seq) + "@" + label;
    }
    metrics_->GetCounter("fault.unreachable", label).Add();
  }
  FailureAction action = FailureAction::kAbort;
  if (failure_handler_) {
    action = failure_handler_(FailureEvent{Status::kUnreachable, obj, node, attempts});
  }
  if (action == FailureAction::kAbort) {
    AMBER_CHECK(false) << "object " << obj << " unreachable: node " << node
                  << " is down or partitioned away (after " << attempts
                  << " repair rounds); install a FailureHandler to retry";
  }
  if (action == FailureAction::kRecover && RecoverObject(obj, node)) {
    return;  // the object has a live home again; the caller re-probes it
  }
  // kRetry (or an unrecoverable object under kRecover): back off one
  // retransmission-timeout before re-probing, so a crashed node gets a
  // chance to restart (or a partition to heal).
  sim::Fiber* self = sim_->current();
  const Duration backoff = rpc_->retry_policy().timeout_cap;
  const Time resume = sim_->Now() + backoff;
  Emit(&RuntimeObserver::OnFailureBackoff, sim_->Now(), here(), self->id, backoff);
  sim_->Post(resume, [this, self] { sim_->Wake(self, sim_->Now()); });
  sim_->Block();
}

Status Runtime::FetchReplica(Object* obj, NodeId from) {
  const NodeId cur = here();
  if (metrics_ != nullptr) {
    instr_->Total(instr_->hot.replica_fetches, "amber.replica.fetches").Add();
  }
  NodeId target = from;
  int hops = 0;
  const int64_t obj_bytes = static_cast<int64_t>(obj->header_.size);
  for (;;) {
    AMBER_CHECK(++hops <= 2 * nodes() + 4) << "replica fetch chain did not terminate";
    AMBER_LOG(kTrace) << "FetchReplica: " << obj << " probe " << target;
    bool found = false;
    NodeId next = kNoNode;
    const NodeId probe = target;
    const rpc::RoundtripResult rr =
        rpc_->Roundtrip(probe, kControlBytes,
                        [this, obj, probe, obj_bytes, &found, &next]() -> int64_t {
                          const Descriptor dd = tables_[static_cast<size_t>(probe)]->Lookup(obj);
                          if (dd.state == Residency::kResident || dd.state == Residency::kReplica) {
                            found = true;
                            return kControlBytes + obj_bytes;  // reply carries the object
                          }
                          next = dd.state == Residency::kRemoteHint ? dd.forward
                                                                    : gas_->HomeOf(obj);
                          return kControlBytes;
                        });
    if (rr.status != rpc::SendStatus::kOk) {
      return Status::kUnreachable;  // holder unreachable (fault-injected runs)
    }
    if (found) {
      break;
    }
    AMBER_CHECK(next != kNoNode && next != probe);
    target = next;
  }
  // Unmarshal locally (the real copy through a wire buffer).
  sim_->Charge(cost().MarshalCost(obj_bytes));
  rpc::WireBuffer wb;
  wb.PutBytes(obj, obj->header_.size);
  sim_->Sync();
  // Two threads on one node can fetch concurrently; both pay the fetch but
  // only one install is recorded. A stale forwarding hint is overwritten —
  // the replica supersedes it.
  const Residency st = tables_[static_cast<size_t>(cur)]->Lookup(obj).state;
  if (st != Residency::kReplica && st != Residency::kResident) {
    tables_[static_cast<size_t>(cur)]->SetReplica(obj, target != cur ? target : kNoNode);
    ++replicas_installed_;
    Emit(&RuntimeObserver::OnReplicaInstall, sim_->Now(), obj, cur);
  }
  return Status::kOk;
}

// --- Mobility -----------------------------------------------------------------------

void Runtime::CollectClosure(Object* obj, std::vector<Object*>* out) {
  out->push_back(obj);
  for (Object* c = obj->header_.first_child; c != nullptr; c = c->header_.next_sibling) {
    CollectClosure(c, out);
  }
}

int64_t Runtime::ClosureBytes(Object* obj) {
  std::vector<Object*> closure;
  CollectClosure(obj->AmberPrimary(), &closure);
  int64_t total = 0;
  for (Object* o : closure) {
    total += static_cast<int64_t>(o->header_.size) + o->AmberPayloadBytes() +
             kPerObjectMoveOverhead;
  }
  return total;
}

int64_t Runtime::FlipDescriptorsForMove(const std::vector<Object*>& closure, NodeId src,
                                        NodeId dst) {
  int64_t total = 0;
  for (Object* o : closure) {
    tables_[static_cast<size_t>(src)]->SetForward(o, dst);
    tables_[static_cast<size_t>(dst)]->SetResident(o);
    o->header_.owner = dst;
    total += static_cast<int64_t>(o->header_.size) + o->AmberPayloadBytes() +
             kPerObjectMoveOverhead;
  }
  return total;
}

uint64_t Runtime::SerializeClosure(const std::vector<Object*>& closure) {
  rpc::WireBuffer wb;
  for (Object* o : closure) {
    wb.PutPointer(o);
    wb.PutBytes(o, o->header_.size);
  }
  return wb.Checksum();
}

Status Runtime::MoveTo(Object* obj, NodeId dst) {
  AMBER_CHECK(obj != nullptr);
  AMBER_CHECK(dst >= 0 && dst < nodes());
  obj = obj->AmberPrimary();
  AMBER_CHECK(obj != nullptr) << "cannot move a stack-local object";
  ObjectHeader& h = obj->header_;
  AMBER_CHECK(!h.IsThread()) << "thread objects move with their thread";
  AMBER_CHECK(h.attach_parent == nullptr) << "unattach before moving an attached object";
  sim_->Sync();

  if (h.IsImmutable()) {
    // §2.3: "Invoking MoveTo on an immutable object causes the object to be
    // copied rather than moved."
    return ReplicateTo(obj, dst);
  }

  const bool faulty = rpc_->reliability_enabled();
  for (int attempt = 0;; ++attempt) {
    if (faulty && attempt > 2 * nodes() + 4) {
      // The mover lost every race (or the object keeps dodging through a
      // flaky cluster). Typed give-up instead of a panic: the object is
      // still consistent wherever it is.
      return Status::kTimeout;
    }
    AMBER_CHECK(attempt <= 2 * nodes() + 4) << "move could not catch the object";
    AMBER_LOG(kTrace) << "MoveTo: attempt " << attempt << " obj " << obj << " dst " << dst;
    const NodeId owner = ResolveLocation(obj);
    if (owner == kNoNode) {
      return Status::kUnreachable;  // fault-injected runs only
    }
    if (owner == dst) {
      return Status::kOk;
    }
    if (membership_ != nullptr && membership_->Suspects(here(), dst)) {
      return Status::kUnreachable;  // destination's heartbeat lease expired
    }
    if (owner == here()) {
      return MoveOutLocal(obj, dst);
    }
    bool accepted = false;
    const Status s = RequestRemoteMove(obj, owner, dst, &accepted);
    if (s != Status::kOk) {
      return s;
    }
    if (accepted) {
      return Status::kOk;
    }
  }
}

void Runtime::MaybePolicyPull(Object* primary) {
  if (primary == nullptr) {
    return;
  }
  Object* p = primary->AmberPrimary();
  if (p == nullptr) {
    return;  // stack-local: lives in its thread's frame, nothing to place
  }
  ObjectHeader& h = p->header_;
  if (h.IsThread() || h.IsImmutable()) {
    return;  // threads move with their fibers; immutables replicate to readers
  }
  ThreadObject* t = current_thread();
  if (t->resolving_) {
    return;  // already inside a residency resolution — don't recurse
  }
  const NodeId cur = here();
  if (tables_[static_cast<size_t>(cur)]->IsResident(p)) {
    return;  // already local: the residency check will be free
  }
  // The movable unit is the attach-group root: attached children cannot be
  // MoveTo'd alone, the group migrates or stays together.
  Object* root = p;
  while (root->header_.attach_parent != nullptr) {
    root = root->header_.attach_parent;
  }
  if (root->header_.IsThread() || root->header_.IsImmutable()) {
    return;
  }
  if (!policy_->ShouldPull(root, p, cur, sim_->Now())) {
    return;
  }
  const Time start = sim_->Now();
  const NodeId src = root->header_.owner;
  // Suppress the context-switch-in residency chase while the pull is in
  // flight: the top frame is the object being pulled, and chasing it from
  // ResumeHook would migrate this thread toward the moving object mid-pull.
  t->resolving_ = true;
  const Status s = MoveTo(root, cur);
  t->resolving_ = false;
  const bool ok = s == Status::kOk;
  if (metrics_ != nullptr) {
    metrics_->GetCounter(ok ? "policy.migrations" : "policy.migrations.failed", cur).Add();
  }
  const Time now = sim_->Now();
  Emit(&RuntimeObserver::OnPolicyMigration, now, root, src, cur, ok, now - start);
  policy_->OnPullResult(root, cur, ok);
}

Status Runtime::MoveOutLocal(Object* obj, NodeId dst) {
  const NodeId src = here();
  const Time move_start = metrics_ != nullptr ? sim_->Now() : 0;
  std::vector<Object*> closure;
  CollectClosure(obj, &closure);
  sim_->Charge(cost().move_setup);
  sim_->Sync();
  // §3.5 order: mark non-resident, then preempt every processor on this node
  // so running threads make a fresh residency check, then transfer.
  const int64_t total = FlipDescriptorsForMove(closure, src, dst);
  sim_->RequestPreempt(src);
  SerializeClosure(closure);
  // SendBulk charges this thread for marshalling the payload, then occupies
  // the wire; install completes after the destination's install cost.
  sim::Fiber* self = sim_->current();
  if (rpc_->reliability_enabled()) {
    const net::TxResult tx = rpc_->SendBulkTracked(dst, total, nullptr);
    if (!tx.delivered) {
      // The transfer was lost (destination crashed or link cut). Restore the
      // closure at the source — the speculative resident entries at dst
      // become correct dst->src hints — and surface the detection latency as
      // one retransmission-timeout of blocking (the bulk protocol's ack
      // timer).
      for (Object* o : closure) {
        tables_[static_cast<size_t>(dst)]->SetForward(o, src);
        tables_[static_cast<size_t>(src)]->SetResident(o);
        o->header_.owner = src;
      }
      const Duration ack_timeout = rpc_->retry_policy().timeout;
      const Time give_up = sim_->Now() + ack_timeout;
      Emit(&RuntimeObserver::OnFailureBackoff, sim_->Now(), src, self->id, ack_timeout);
      sim_->Post(give_up, [this, self] { sim_->Wake(self, sim_->Now()); });
      sim_->Block();
      return Status::kUnreachable;
    }
    const Time installed = tx.arrival + cost().move_install;
    sim_->Wake(self, installed);
    sim_->Block();
  } else {
    const Time arrive = rpc_->SendBulk(dst, total, nullptr);
    const Time installed = arrive + cost().move_install;
    sim_->Wake(self, installed);
    sim_->Block();
  }
  ++objects_moved_;
  Emit(&RuntimeObserver::OnObjectMove, sim_->Now(), obj, src, dst, total);
  if (metrics_ != nullptr) {
    instr_->RecordMove(sim_->Now() - move_start, total);
  }
  MaybeRecheckpoint(obj);
  return Status::kOk;
}

Status Runtime::RequestRemoteMove(Object* obj, NodeId owner, NodeId dst, bool* accepted_out) {
  const NodeId cur = here();
  AMBER_CHECK(owner != cur);
  sim::Fiber* self = sim_->current();
  const Time move_start = metrics_ != nullptr ? sim_->Now() : 0;
  int64_t moved_bytes = 0;
  bool accepted = false;
  if (rpc_->reliability_enabled()) {
    // Fault-injected run: the whole exchange rides the reliable roundtrip
    // (the control request or its ack can be lost). The owner-side bulk
    // transfer is tracked; a lost transfer reverts the move at the owner and
    // NACKs, so the requester re-resolves — the source's ack timeout is
    // folded into the control reply (oracle shortcut, see docs/FAULTS.md).
    const rpc::RoundtripResult rr = rpc_->Roundtrip(
        owner, kControlBytes, [this, obj, owner, dst, &accepted, &moved_bytes]() -> int64_t {
          if (!tables_[static_cast<size_t>(owner)]->IsResident(obj)) {
            return kControlBytes;  // the object moved on; NACK
          }
          std::vector<Object*> closure;
          CollectClosure(obj, &closure);
          const int64_t total = FlipDescriptorsForMove(closure, owner, dst);
          sim_->RequestPreempt(owner);
          SerializeClosure(closure);
          const Time depart = sim_->Now() + cost().move_setup + cost().MarshalCost(total) +
                              cost().rpc_send_software;
          const net::TxResult tx = net_->SendBulkTracked(owner, dst, total, depart, nullptr);
          if (!tx.delivered) {
            // Transfer lost: the object never left. Flip back.
            for (Object* o : closure) {
              tables_[static_cast<size_t>(dst)]->SetForward(o, owner);
              tables_[static_cast<size_t>(owner)]->SetResident(o);
              o->header_.owner = owner;
            }
            return kControlBytes;
          }
          accepted = true;
          moved_bytes = total;
          ++objects_moved_;
          Emit(&RuntimeObserver::OnObjectMove, sim_->Now(), obj, owner, dst, total);
          return kControlBytes;
        });
    if (rr.status != rpc::SendStatus::kOk) {
      if (accepted) {
        // The owner committed the move (descriptors flipped, transfer
        // delivered) but every reply copy was lost: a lost ack, not a lost
        // move. The in-simulator flag is the oracle; it is stable here
        // because the transport cancels the roundtrip on give-up, so the
        // service can no longer run after this point.
        if (metrics_ != nullptr) {
          instr_->RecordMove(sim_->Now() - move_start, moved_bytes);
        }
        MaybeRecheckpoint(obj);
        *accepted_out = true;
        return Status::kOk;
      }
      *accepted_out = false;
      return Status::kUnreachable;  // owner unreachable
    }
    if (accepted && metrics_ != nullptr) {
      instr_->RecordMove(sim_->Now() - move_start, moved_bytes);
    }
    if (accepted) {
      MaybeRecheckpoint(obj);
    }
    *accepted_out = accepted;
    return Status::kOk;
  }
  // Charge the request like any control send, then run the source side of
  // the move at the owner (event context, latency model), then block until
  // the destination's install acknowledgement.
  sim_->Charge(cost().MarshalCost(kControlBytes) + cost().rpc_send_software);
  sim_->Sync();
  net_->Send(cur, owner, kControlBytes, sim_->Now(), [this, obj, owner, dst, cur, self, &accepted,
                                                      &moved_bytes] {
    if (!tables_[static_cast<size_t>(owner)]->IsResident(obj)) {
      // The object moved on; NACK so the requester re-resolves.
      const Time back = net_->Send(owner, cur, kControlBytes, sim_->Now());
      sim_->Wake(self, back);
      return;
    }
    accepted = true;
    std::vector<Object*> closure;
    CollectClosure(obj, &closure);
    const int64_t total = FlipDescriptorsForMove(closure, owner, dst);
    moved_bytes = total;
    sim_->RequestPreempt(owner);
    SerializeClosure(closure);
    const Time depart =
        sim_->Now() + cost().move_setup + cost().MarshalCost(total) + cost().rpc_send_software;
    const Time arrive = net_->SendBulk(owner, dst, total, depart, nullptr);
    const Time installed = arrive + cost().move_install;
    if (dst == cur) {
      sim_->Wake(self, installed);
    } else {
      const Time ack = net_->Send(dst, cur, kControlBytes, installed);
      sim_->Wake(self, ack);
    }
    ++objects_moved_;
    Emit(&RuntimeObserver::OnObjectMove, sim_->Now(), obj, owner, dst, total);
  });
  sim_->Block();
  if (accepted && metrics_ != nullptr) {
    instr_->RecordMove(sim_->Now() - move_start, moved_bytes);
  }
  *accepted_out = accepted;
  return Status::kOk;
}

Status Runtime::ReplicateTo(Object* obj, NodeId dst) {
  if (tables_[static_cast<size_t>(dst)]->Lookup(obj).state != Residency::kUninitialized) {
    return Status::kOk;  // dst already holds the object or a replica
  }
  const NodeId cur = here();
  const int64_t obj_bytes = static_cast<int64_t>(obj->header_.size);
  sim::Fiber* self = sim_->current();
  const bool faulty = rpc_->reliability_enabled();
  if (membership_ != nullptr && membership_->Suspects(cur, dst)) {
    return Status::kUnreachable;  // destination's heartbeat lease expired
  }
  if (tables_[static_cast<size_t>(cur)]->Lookup(obj).state != Residency::kUninitialized &&
      dst != cur) {
    // We hold the bytes: bulk-copy them to dst and install a replica.
    SerializeClosure({obj});
    if (faulty) {
      const net::TxResult tx = rpc_->SendBulkTracked(dst, obj_bytes, nullptr);
      if (!tx.delivered) {
        // Copy lost; dst never saw it. Ride out the ack timeout, report.
        const Duration ack_timeout = rpc_->retry_policy().timeout;
        const Time give_up = sim_->Now() + ack_timeout;
        Emit(&RuntimeObserver::OnFailureBackoff, sim_->Now(), cur, self->id, ack_timeout);
        sim_->Post(give_up, [this, self] { sim_->Wake(self, sim_->Now()); });
        sim_->Block();
        return Status::kUnreachable;
      }
      const Time installed = tx.arrival + cost().move_install;
      tables_[static_cast<size_t>(dst)]->SetReplica(obj, cur);
      ++replicas_installed_;
      Emit(&RuntimeObserver::OnReplicaInstall, installed, obj, dst);
      sim_->Wake(self, installed);
      sim_->Block();
      return Status::kOk;
    }
    const Time arrive = rpc_->SendBulk(dst, obj_bytes, nullptr);
    const Time installed = arrive + cost().move_install;
    tables_[static_cast<size_t>(dst)]->SetReplica(obj, cur);
    ++replicas_installed_;
    Emit(&RuntimeObserver::OnReplicaInstall, installed, obj, dst);
    sim_->Wake(self, installed);
    sim_->Block();
    return Status::kOk;
  }
  // Find a holder, then have it copy to dst.
  const NodeId holder = ResolveLocation(obj);
  if (holder == kNoNode) {
    return Status::kUnreachable;  // fault-injected runs only
  }
  if (holder == dst) {
    return Status::kOk;
  }
  if (faulty) {
    // Reliable control roundtrip to the holder; the holder-side copy to dst
    // is tracked and only installs the replica when it actually arrives.
    bool installed_ok = false;
    const rpc::RoundtripResult rr = rpc_->Roundtrip(
        holder, kControlBytes, [this, obj, holder, dst, obj_bytes, &installed_ok]() -> int64_t {
          SerializeClosure({obj});
          const Time depart =
              sim_->Now() + cost().MarshalCost(obj_bytes) + cost().rpc_send_software;
          const net::TxResult tx = net_->SendBulkTracked(holder, dst, obj_bytes, depart, nullptr);
          if (tx.delivered) {
            const Time installed = tx.arrival + cost().move_install;
            tables_[static_cast<size_t>(dst)]->SetReplica(obj, holder);
            ++replicas_installed_;
            installed_ok = true;
            Emit(&RuntimeObserver::OnReplicaInstall, installed, obj, dst);
          }
          return kControlBytes;
        });
    if (rr.status != rpc::SendStatus::kOk) {
      return Status::kUnreachable;
    }
    return installed_ok ? Status::kOk : Status::kUnreachable;
  }
  sim_->Charge(cost().MarshalCost(kControlBytes) + cost().rpc_send_software);
  sim_->Sync();
  net_->Send(cur, holder, kControlBytes, sim_->Now(), [this, obj, holder, dst, cur, self,
                                                       obj_bytes] {
    SerializeClosure({obj});
    const Time depart = sim_->Now() + cost().MarshalCost(obj_bytes) + cost().rpc_send_software;
    const Time arrive = net_->SendBulk(holder, dst, obj_bytes, depart, nullptr);
    const Time installed = arrive + cost().move_install;
    tables_[static_cast<size_t>(dst)]->SetReplica(obj, holder);
    ++replicas_installed_;
    Emit(&RuntimeObserver::OnReplicaInstall, installed, obj, dst);
    if (dst == cur) {
      sim_->Wake(self, installed);
    } else {
      const Time ack = net_->Send(dst, cur, kControlBytes, installed);
      sim_->Wake(self, ack);
    }
  });
  sim_->Block();
  return Status::kOk;
}

NodeId Runtime::Locate(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  obj = obj->AmberPrimary();
  if (obj == nullptr) {
    return here();  // stack-local: wherever this thread is
  }
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  return ResolveLocation(obj);
}

void Runtime::Attach(Object* child, Object* parent) {
  AMBER_CHECK(child != nullptr && parent != nullptr);
  child = child->AmberPrimary();
  parent = parent->AmberPrimary();
  AMBER_CHECK(child != nullptr && parent != nullptr) << "cannot attach stack-local objects";
  AMBER_CHECK(child != parent);
  AMBER_CHECK(!child->header_.IsThread() && !parent->header_.IsThread());
  AMBER_CHECK(!child->header_.IsImmutable()) << "immutable objects replicate; do not attach them";
  AMBER_CHECK(child->header_.attach_parent == nullptr) << "already attached";
  // Reject cycles: parent must not be a descendant of child.
  for (Object* a = parent; a != nullptr; a = a->header_.attach_parent) {
    AMBER_CHECK(a != child) << "attachment cycle";
  }
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  // Attachment guarantees co-location (§2.3): bring the child to the parent.
  // Under fault injection the parent's node may be down or the move may be
  // lost; treat that like any unreachable invocation target (failure
  // handler + backoff) instead of panicking — fault-free runs never loop.
  int attach_failures = 0;
  for (;;) {
    const NodeId p = ResolveLocation(parent);
    if (p == kNoNode) {
      // Even the parent's location probe failed (its chain runs through a
      // dead node); back off and re-resolve like any other unreachable.
      HandleUnreachable(parent, gas_->HomeOf(parent), ++attach_failures);
      continue;
    }
    if (ResolveLocation(child) == p || MoveTo(child, p) == Status::kOk) {
      break;
    }
    HandleUnreachable(parent, p, ++attach_failures);
  }
  sim_->Sync();
  child->header_.attach_parent = parent;
  child->header_.next_sibling = parent->header_.first_child;
  parent->header_.first_child = child;
}

void Runtime::Unattach(Object* child) {
  AMBER_CHECK(child != nullptr);
  child = child->AmberPrimary();
  AMBER_CHECK(child != nullptr);
  Object* parent = child->header_.attach_parent;
  AMBER_CHECK(parent != nullptr) << "object is not attached";
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  Object** link = &parent->header_.first_child;
  while (*link != child) {
    AMBER_CHECK(*link != nullptr) << "attachment list corrupt";
    link = &(*link)->header_.next_sibling;
  }
  *link = child->header_.next_sibling;
  child->header_.attach_parent = nullptr;
  child->header_.next_sibling = nullptr;
}

void Runtime::MakeImmutable(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  obj = obj->AmberPrimary();
  AMBER_CHECK(obj != nullptr) << "cannot mark a stack-local object immutable";
  AMBER_CHECK(!obj->header_.IsThread());
  AMBER_CHECK(obj->header_.first_child == nullptr && obj->header_.attach_parent == nullptr)
      << "detach before marking immutable";
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  obj->header_.flags |= kObjImmutable;
}

NodeId Runtime::OwnerOf(const Object* obj) const {
  const Object* p = const_cast<Object*>(obj)->AmberPrimary();
  return p != nullptr ? p->amber_header().owner : kNoNode;
}

// --- Crash recovery / planned shutdown (docs/FAULTS.md) ------------------------------

void Runtime::SetRecoverable(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  obj = obj->AmberPrimary();
  AMBER_CHECK(obj != nullptr) << "stack-local objects are not recoverable";
  ObjectHeader& h = obj->header_;
  AMBER_CHECK(!h.IsThread()) << "threads are not recoverable state";
  AMBER_CHECK(!h.IsImmutable()) << "immutable objects already recover via replicas";
  AMBER_CHECK(h.attach_parent == nullptr && h.first_child == nullptr)
      << "a checkpoint covers a single unattached object";
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  h.flags |= kObjRecoverable;
  if (injector_ != nullptr && injector_->active()) {
    CheckpointObject(obj);  // best-effort initial restore point
  }
}

bool Runtime::CheckpointObject(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  obj = obj->AmberPrimary();
  AMBER_CHECK(obj != nullptr && obj->header_.IsRecoverable())
      << "CheckpointObject requires SetRecoverable";
  if (injector_ == nullptr || !injector_->active()) {
    return true;  // fault-free run: nothing to survive, nothing shipped
  }
  sim_->Sync();
  const NodeId owner = obj->header_.owner;
  const NodeId cur = here();
  // Buddy election: the lowest node, other than the owner, whose heartbeat
  // lease is intact — deterministic given the suspicion state.
  NodeId buddy = kNoNode;
  for (NodeId n = 0; n < nodes(); ++n) {
    if (n == owner || (membership_ != nullptr && membership_->Suspects(cur, n))) {
      continue;
    }
    buddy = n;
    break;
  }
  if (buddy == kNoNode) {
    return false;  // nobody live to hold the checkpoint
  }
  std::vector<uint8_t> bytes;
  obj->AmberSaveState(&bytes);
  // The checkpoint travels owner -> buddy as a tracked background bulk
  // transfer: it takes fault draws like any frame and is recorded only if
  // it actually arrived — a lost checkpoint leaves the previous one valid.
  const int64_t wire = kControlBytes + static_cast<int64_t>(bytes.size());
  const net::TxResult tx = net_->SendBulkTracked(owner, buddy, wire, sim_->Now(), nullptr);
  if (!tx.delivered) {
    return false;
  }
  CheckpointRecord& rec = checkpoints_[obj];
  rec.bytes = std::move(bytes);
  rec.buddy = buddy;
  rec.when = sim_->Now();
  if (metrics_ != nullptr) {
    metrics_->GetCounter("recovery.checkpoints").Add();
    metrics_->GetCounter("recovery.checkpoint.bytes").Add(wire);
  }
  return true;
}

void Runtime::MaybeRecheckpoint(Object* obj) {
  // Quiescent point: the move just committed and no invocation is running
  // inside the object. Only meaningful under an active fault plan.
  if (membership_ == nullptr || !obj->header_.IsRecoverable()) {
    return;
  }
  CheckpointObject(obj);
}

bool Runtime::RecoverObject(Object* obj, NodeId node) {
  if (obj->header_.IsThread()) {
    return false;  // a thread's stack is not recoverable state
  }
  NotifyRecoveryStart(obj);
  const Time start = sim_->Now();
  bool ok = false;
  if (obj->header_.IsImmutable()) {
    ok = RecoverImmutable(obj, node);
  } else if (checkpoints_.find(obj) != checkpoints_.end()) {
    ok = RecoverMutable(obj, node);
  }
  NotifyRecoveryEnd(obj, ok);
  if (ok && metrics_ != nullptr) {
    metrics_->GetHistogram("recovery.latency").Record(static_cast<double>(sim_->Now() - start));
  }
  return ok;
}

bool Runtime::RecoverImmutable(Object* obj, NodeId node) {
  const NodeId cur = here();
  const NodeId dead = obj->header_.owner;
  // Deterministic election: probe the non-suspected nodes in ascending id
  // order for a surviving copy; the lowest holder becomes the new home.
  // Every recovering thread runs the same scan and picks the same winner.
  for (NodeId n = 0; n < nodes(); ++n) {
    if (n == node || n == dead ||
        (membership_ != nullptr && membership_->Suspects(cur, n))) {
      continue;
    }
    bool holds = false;
    if (n == cur) {
      const Residency st = tables_[static_cast<size_t>(cur)]->Lookup(obj).state;
      holds = st == Residency::kReplica || st == Residency::kResident;
    } else {
      const rpc::RoundtripResult rr =
          rpc_->Roundtrip(n, kControlBytes, [this, obj, n, &holds]() -> int64_t {
            const Residency st = tables_[static_cast<size_t>(n)]->Lookup(obj).state;
            holds = st == Residency::kReplica || st == Residency::kResident;
            return kControlBytes;
          });
      if (rr.status != rpc::SendStatus::kOk) {
        continue;  // this candidate is unreachable too; keep scanning
      }
    }
    if (!holds) {
      continue;
    }
    sim_->Sync();
    // Promote the survivor's replica to the primary copy.
    tables_[static_cast<size_t>(n)]->SetResident(obj);
    obj->header_.owner = n;
    if (cur != n && !tables_[static_cast<size_t>(cur)]->IsResident(obj)) {
      tables_[static_cast<size_t>(cur)]->SetForward(obj, n);
    }
    Emit(&RuntimeObserver::OnObjectRecovered, sim_->Now(), obj, dead, n,
         /*from_checkpoint=*/false);
    if (metrics_ != nullptr) {
      metrics_->GetCounter("recovery.rebinds").Add();
    }
    return true;
  }
  return false;  // no surviving copy: unrecoverable until a restart
}

bool Runtime::RecoverMutable(Object* obj, NodeId node) {
  const auto it = checkpoints_.find(obj);
  if (it == checkpoints_.end()) {
    return false;
  }
  const NodeId cur = here();
  const NodeId dead = obj->header_.owner;
  const NodeId buddy = it->second.buddy;
  if (buddy == kNoNode || buddy == node || buddy == dead ||
      (membership_ != nullptr && membership_->Suspects(cur, buddy))) {
    return false;  // the checkpoint died with its holder
  }
  // Restore at the buddy. Idempotent: the restore runs only while the
  // object is still homed at the dead node, so concurrent recoverers agree
  // — the first restore wins and the rest observe the new home.
  bool restored = false;
  auto restore = [this, obj, dead, buddy, &it, &restored] {
    if (obj->header_.owner != dead) {
      restored = true;  // someone already recovered it (and it may have moved on)
      return;
    }
    obj->AmberLoadState(it->second.bytes.data(), it->second.bytes.size());
    tables_[static_cast<size_t>(buddy)]->SetResident(obj);
    obj->header_.owner = buddy;
    restored = true;
  };
  if (buddy == cur) {
    sim_->Charge(cost().move_install);
    sim_->Sync();
    restore();
  } else {
    const rpc::RoundtripResult rr =
        rpc_->Roundtrip(buddy, kControlBytes, [this, obj, &restore]() -> int64_t {
          restore();
          return kControlBytes + static_cast<int64_t>(obj->header_.size);
        });
    if (rr.status != rpc::SendStatus::kOk) {
      return false;
    }
  }
  if (!restored) {
    return false;
  }
  if (cur != buddy && !tables_[static_cast<size_t>(cur)]->IsResident(obj)) {
    tables_[static_cast<size_t>(cur)]->SetForward(obj, buddy);
  }
  Emit(&RuntimeObserver::OnObjectRecovered, sim_->Now(), obj, dead, obj->header_.owner,
       /*from_checkpoint=*/true);
  if (metrics_ != nullptr) {
    metrics_->GetCounter("recovery.restores").Add();
  }
  // The restored copy is the new authoritative state; its old checkpoint
  // record points at what is now the home. Take a fresh one elsewhere.
  MaybeRecheckpoint(obj);
  return true;
}

int Runtime::DrainNode(NodeId node) {
  AMBER_CHECK(node >= 0 && node < nodes());
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  const NodeId cur = here();
  // Evacuation targets: every other node whose heartbeat lease is intact.
  std::vector<NodeId> targets;
  for (NodeId n = 0; n < nodes(); ++n) {
    if (n == node || (membership_ != nullptr && membership_->Suspects(cur, n))) {
      continue;
    }
    targets.push_back(n);
  }
  AMBER_CHECK(!targets.empty()) << "no live node to evacuate node " << node << " to";
  // Roots homed on the draining node, in creation order — deterministic,
  // where the object map's slot order (by address) would not be.
  std::vector<std::pair<uint64_t, Object*>> roots;
  objects_.ForEach([&](Object* obj, const ObjectEntry& e) {
    const ObjectHeader& h = obj->header_;
    if (!e.live || h.IsMember() || h.IsStackLocal() || h.IsThread() ||
        h.attach_parent != nullptr || h.owner != node) {
      return;  // attached children move with their root; threads follow §3.5
    }
    roots.emplace_back(e.seq, obj);
  });
  std::sort(roots.begin(), roots.end());
  int moved = 0;
  size_t next_target = 0;
  for (const auto& [seq, obj] : roots) {
    const NodeId dst = targets[next_target % targets.size()];
    Status s;
    if (obj->header_.IsImmutable()) {
      // Re-home the primary copy: replicate to dst, promote that replica,
      // and leave a forwarding hint behind. (Not a replica: the drained
      // node is going away, and the hint keeps the old home resolvable —
      // an immutable primary never moves otherwise, so nobody else knows
      // where it went.)
      s = ReplicateTo(obj, dst);
      if (s == Status::kOk) {
        sim_->Sync();
        tables_[static_cast<size_t>(dst)]->SetResident(obj);
        obj->header_.owner = dst;
        tables_[static_cast<size_t>(node)]->SetForward(obj, dst);
      }
    } else {
      s = MoveTo(obj, dst);
    }
    if (s == Status::kOk) {
      ++moved;
      ++next_target;
    }
  }
  // Kick every processor on the drained node: resident threads re-run the
  // §3.5 residency check on dispatch and chase their objects out.
  sim_->RequestPreempt(node);
  Emit(&RuntimeObserver::OnNodeDrained, sim_->Now(), node, moved);
  if (metrics_ != nullptr) {
    metrics_->GetCounter("drain.objects", node).Add(moved);
  }
  return moved;
}

void Runtime::OnPeerSuspected(Time when, NodeId by, NodeId peer) {
  Emit(&RuntimeObserver::OnNodeSuspected, when, by, peer);
  if (metrics_ != nullptr) {
    // Detection quality, graded against the injector's ground truth (the
    // one sanctioned oracle use: tests judge the protocol with it).
    if (!sim_->NodeUp(peer)) {
      metrics_->GetCounter("member.suspicions").Add();
      if (!crash_time_.empty() && crash_time_[static_cast<size_t>(peer)] >= 0) {
        metrics_->GetHistogram("member.detect_latency")
            .Record(static_cast<double>(when - crash_time_[static_cast<size_t>(peer)]));
      }
    } else if (injector_ != nullptr && !injector_->Reachable(by, peer, when)) {
      metrics_->GetCounter("member.suspicions").Add();  // partitioned: genuine
    } else {
      metrics_->GetCounter("member.false_suspicions").Add();
    }
  }
  // Threads homed on the suspected node are *lost*: their joiners must not
  // sleep forever waiting on a node that cannot answer.
  for (ThreadObject* t : threads_) {
    if (!t->finished_ && !t->lost_ && t->header_.owner == peer) {
      t->lost_ = true;
      for (sim::Fiber* w : t->join_waiters_) {
        sim_->Wake(w, when);
      }
      t->join_waiters_.clear();
    }
  }
}

void Runtime::OnPeerTrusted(Time when, NodeId by, NodeId peer) {
  Emit(&RuntimeObserver::OnNodeTrusted, when, by, peer);
  // A healed partition (no crash) revives the node's threads: they were
  // never actually dead. After a real restart OnNodeEvent clears them too.
  if (sim_->NodeUp(peer)) {
    for (ThreadObject* t : threads_) {
      if (t->lost_ && t->header_.owner == peer) {
        t->lost_ = false;
      }
    }
  }
}

void Runtime::OnNodeEvent(Time when, NodeId node, bool up) {
  if (!up) {
    crash_time_[static_cast<size_t>(node)] = when;
    return;
  }
  crash_time_[static_cast<size_t>(node)] = Time{-1};
  if (membership_ != nullptr) {
    membership_->OnNodeRestart(when, node);
  }
  // Boot-time repair, run by the restarting node over its own table: while
  // it was down, objects may have moved or been recovered away, leaving
  // stale Resident claims here. Demote them so chases leave immediately —
  // an immutable object's stale copy is still a perfectly good replica.
  DescriptorTable& tab = *tables_[static_cast<size_t>(node)];
  objects_.ForEach([&](Object* obj, const ObjectEntry& e) {
    const ObjectHeader& h = obj->header_;
    if (!e.live || h.IsMember() || h.IsStackLocal()) {
      return;
    }
    if (h.owner != node && tab.Lookup(obj).state == Residency::kResident) {
      if (h.IsImmutable()) {
        tab.SetReplica(obj, h.owner);
      } else {
        tab.SetForward(obj, h.owner);
      }
    }
  });
  // The node's threads resume from the freeze: no longer lost.
  for (ThreadObject* t : threads_) {
    if (t->lost_ && t->header_.owner == node) {
      t->lost_ = false;
    }
  }
}

void Runtime::NotifyRecoveryStart(const Object* obj) {
  Emit(&RuntimeObserver::OnRecoveryStart, sim_->Now(), here(), sim_->current()->id, obj);
}

void Runtime::NotifyRecoveryEnd(const Object* obj, bool ok) {
  Emit(&RuntimeObserver::OnRecoveryEnd, sim_->Now(), here(), sim_->current()->id, obj, ok);
}

// --- Threads -------------------------------------------------------------------------

ThreadObject* Runtime::CreateThread(std::function<void()> body, std::string name, int priority) {
  sim_->Charge(cost().thread_create);
  void* mem = AllocateObjectMemory(sizeof(ThreadObject));
  auto* t = new (mem) ThreadObject();
  FinishObjectConstruction(t);
  t->header_.flags |= kObjThread;
  t->name_ = name.empty() ? "thread-" + std::to_string(threads_.size()) : std::move(name);
  t->body_ = std::move(body);
  void* stack = AllocateSegmentOnCurrentNode(config_.stack_bytes);
  t->stack_base_ = stack;
  t->fiber_ =
      sim_->Spawn(here(), stack, config_.stack_bytes, [this, t] { ThreadMain(t); }, t->name_);
  t->fiber_->user_data = t;
  t->fiber_->priority = priority;
  threads_.push_back(t);
  return t;
}

bool Runtime::JoinWait(ThreadObject* t, bool fail_aware) {
  AMBER_CHECK(t != nullptr);
  AMBER_CHECK(!t->joined_) << "thread joined twice";
  sim_->Charge(cost().join_sync);
  sim_->Sync();
  int failures = 0;
  while (!t->finished_) {
    if (t->lost_) {
      // The thread's node is suspected down: it cannot finish unless that
      // node restarts. TryJoin reports the loss; a plain Join consults the
      // failure handler (backoff-and-recheck, or typed abort).
      if (fail_aware) {
        return false;
      }
      HandleUnreachable(t, t->header_.owner, ++failures);
      continue;
    }
    // The join will actually wait: the causal edge is "joiner sleeps until
    // target exits" (the profiler follows the critical path into `t`).
    Emit(&RuntimeObserver::OnThreadJoin, sim_->Now(), here(), sim_->current()->id,
         t->fiber_->id);
    t->join_waiters_.push_back(sim_->current());
    sim_->Block();
  }
  t->joined_ = true;
  if (!t->reaped_) {
    t->reaped_ = true;
    sim_->DestroyFiber(t->fiber_);
    t->fiber_ = nullptr;
    allocator(gas_->HomeOf(t->stack_base_)).Free(t->stack_base_);
    t->stack_base_ = nullptr;
  }
  return true;
}

void Runtime::SetScheduler(NodeId node, std::unique_ptr<sim::RunQueue> queue) {
  sim_->SetRunQueue(node, std::move(queue));
}

void Runtime::SetObserver(RuntimeObserver* observer) {
  observers_.clear();
  if (observer != nullptr) {
    observers_.push_back(observer);
  }
  UpdateInstrumentation();
}

void Runtime::AddObserver(RuntimeObserver* observer) {
  AMBER_CHECK(observer != nullptr);
  AMBER_CHECK(std::find(observers_.begin(), observers_.end(), observer) == observers_.end())
      << "observer already attached";
  observers_.push_back(observer);
  UpdateInstrumentation();
}

void Runtime::RemoveObserver(RuntimeObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
  UpdateInstrumentation();
}

void Runtime::SetMetrics(metrics::Registry* registry) {
  metrics_ = registry;
  UpdateInstrumentation();  // allocates instr_ when a registry is attached
  if (instr_ != nullptr) {
    instr_->ResolveMetrics();
  }
}

void Runtime::SetBlackBox(BlackBox* recorder) {
  if (blackbox_ != nullptr) {
    RemoveObserver(blackbox_);
    SetPanicHook(nullptr);
  }
  blackbox_ = recorder;
  if (recorder == nullptr) {
    return;
  }
  AddObserver(recorder);
  // Any Panic (AMBER_CHECK included, from fiber or event context) flushes
  // the recorder before abort; Panic prints the returned path. The hook
  // never raises virtual time — it only reads recorder + runtime state.
  SetPanicHook([this](const std::string& msg, const char* file, int line) -> std::string {
    if (blackbox_ == nullptr) {
      return "";
    }
    const std::string path = "FDR_" + blackbox_->name() + ".json";
    std::ofstream out(path);
    if (!out) {
      return "";
    }
    std::ostringstream where;
    where << msg << " at " << file << ":" << line;
    blackbox_->WriteDump(out, "panic", where.str());
    return path;
  });
}

std::string Runtime::DumpBlackBox(const std::string& path) {
  if (blackbox_ == nullptr) {
    return "";
  }
  std::ofstream out(path);
  AMBER_CHECK(out) << "cannot open black-box dump path " << path;
  blackbox_->WriteDump(out, "explicit", "");
  return path;
}

void Runtime::SetPlacementPolicy(PlacementHook* policy) {
  AMBER_CHECK(!ran_) << "attach the placement policy before Run()";
  policy_ = policy;
}

void Runtime::SetFaultInjector(fault::Injector* injector) {
  AMBER_CHECK(!ran_) << "attach the fault injector before Run()";
  AMBER_CHECK(injector_ == nullptr || injector == nullptr) << "fault injector already attached";
  injector_ = injector;
  if (injector_ != nullptr) {
    injector_->Attach(sim_.get(), net_.get(), rpc_.get());
    if (injector_->active()) {
      // Real failure detection: a heartbeat/lease membership service whose
      // datagrams ride the same faulty network as everything else. The
      // repair, screening and recovery paths ask *it* who is reachable; the
      // injector stays ground truth for tests and detection-quality metrics
      // only. An empty plan creates none of this (byte-identity contract).
      crash_time_.assign(static_cast<size_t>(nodes()), Time{-1});
      membership_ = std::make_unique<fault::Membership>(sim_.get(), net_.get());
      membership_->SetSuspicionHandler(
          [this](Time when, NodeId by, NodeId peer) { OnPeerSuspected(when, by, peer); });
      membership_->SetTrustHandler(
          [this](Time when, NodeId by, NodeId peer) { OnPeerTrusted(when, by, peer); });
      membership_->Start();
      rpc_->SetSuspicionOracle(
          [this](NodeId src, NodeId dst) { return membership_->Suspects(src, dst); });
      injector_->SetNodeEventHandler(
          [this](Time when, NodeId node, bool up) { OnNodeEvent(when, node, up); });
    }
  }
  UpdateInstrumentation();
}

void Runtime::UpdateInstrumentation() {
  model_->ClearTilers();
  for (RuntimeObserver* o : observers_) {
    if (auto* tiler = dynamic_cast<ThreadModel::Tiler*>(o)) {
      model_->AddTiler(tiler);
    }
  }
  const bool on = !observers_.empty() || metrics_ != nullptr;
  if (on && instr_ == nullptr) {
    instr_ = std::make_unique<Instrumentation>(this);
  }
  sim_->SetSchedObserver(on ? instr_.get() : nullptr);
  rpc_->SetObserver(on ? instr_.get() : nullptr);
  if (injector_ != nullptr) {
    injector_->SetSink(on ? instr_.get() : nullptr);
  }
  if (on) {
    net_->SetMessageObserver(
        [this](Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) {
          Emit(&RuntimeObserver::OnMessage, depart, arrive, src, dst, bytes);
          if (metrics_ != nullptr) {
            Instrumentation::LinkMetrics& m = instr_->LinkSlots(src, dst);
            auto link = [src, dst] { return metrics::Registry::LinkLabel(src, dst); };
            instr_->Resolve(m.messages, "net.link.messages", link).Add();
            instr_->Resolve(m.bytes, "net.link.bytes", link).Add(bytes);
          }
        });
  } else {
    net_->SetMessageObserver(nullptr);
  }
  // Per-link histograms (net.link_bytes / net.link_queue_depth) are
  // recorded inside the network itself — it alone sees channel backlog.
  net_->SetMetrics(metrics_);
}

void Runtime::PublishRunTotals(Time end) {
  if (metrics_ == nullptr) {
    return;
  }
  metrics::Registry& m = *metrics_;
  m.GetCounter("amber.objects.created").Add(objects_created_);
  m.GetCounter("amber.objects.moved").Add(objects_moved_);
  m.GetCounter("amber.replicas.installed").Add(replicas_installed_);
  m.GetCounter("amber.threads.migrated").Add(thread_migrations_);
  m.GetCounter("amber.forward.hops").Add(forward_hops_);
  for (NodeId s = 0; s < nodes(); ++s) {
    for (NodeId d = 0; d < nodes(); ++d) {
      const int64_t c = MigrationCount(s, d);
      if (c != 0) {
        m.GetCounter("amber.migration.matrix", metrics::Registry::LinkLabel(s, d)).Add(c);
      }
    }
  }
  m.GetCounter("net.messages").Add(net_->messages());
  m.GetCounter("net.bytes").Add(net_->bytes_sent());
  m.GetCounter("net.fragments").Add(net_->fragments());
  m.GetGauge("net.busy_ns").Set(static_cast<double>(net_->busy_time()));
  m.GetCounter("rpc.roundtrips").Add(rpc_->roundtrips());
  m.GetCounter("rpc.travels").Add(rpc_->travels());
  m.GetCounter("sim.events").Add(static_cast<int64_t>(sim_->events_run()));
  m.GetCounter("sim.dispatches").Add(static_cast<int64_t>(sim_->dispatches()));
  m.GetCounter("sim.preemptions").Add(static_cast<int64_t>(sim_->preemptions()));
  for (NodeId n = 0; n < nodes(); ++n) {
    m.GetGauge("sched.busy_ns", n).Set(static_cast<double>(sim_->NodeBusyTime(n)));
  }
  m.GetGauge("run.virtual_time").Set(static_cast<double>(end));
  m.GetGauge("run.nodes").Set(static_cast<double>(nodes()));
  m.GetGauge("run.procs_per_node").Set(static_cast<double>(procs_per_node()));
  if (blackbox_ != nullptr) {
    blackbox_->PublishMetrics(metrics_);
  }
  if (policy_ != nullptr) {
    policy_->PublishMetrics(metrics_);
  }
}

int Runtime::SyncObjectId(const void* obj) {
  const auto [it, inserted] = sync_ids_.try_emplace(obj, static_cast<int>(sync_ids_.size()) + 1);
  return it->second;
}

void Runtime::NotifyLockBlocked(const void* lock) {
  if (!instrumented()) {
    return;
  }
  const int id = SyncObjectId(lock);
  Emit(&RuntimeObserver::OnLockBlocked, sim_->Now(), here(), sim_->current()->id, id);
  if (metrics_ != nullptr) {
    instr_->AtLock(instr_->LockSlots(id).blocked, "sync.lock.blocked", id).Add();
  }
}

void Runtime::NotifyLockAcquired(const void* lock, Duration wait) {
  if (!instrumented()) {
    return;
  }
  const int id = SyncObjectId(lock);
  Emit(&RuntimeObserver::OnLockAcquired, sim_->Now(), here(), sim_->current()->id, id, wait);
  if (metrics_ != nullptr) {
    const NodeId node = here();
    instr_->AtNode(instr_->NodeSlots(node).lock_wait, "sync.lock.wait", node)
        .Record(static_cast<double>(wait));
    // Per-lock wait-time distribution (the placement/contention advisor's
    // input): labelled by the dense lock id, like sync.lock.blocked.
    instr_->AtLock(instr_->LockSlots(id).wait, "lock.wait_ns", id)
        .Record(static_cast<double>(wait));
  }
}

void Runtime::NotifyLockHeldSince(const void* lock, Time when, ThreadObject* holder) {
  if (!instrumented()) {
    return;
  }
  lock_acquired_[lock] = {when, holder};
}

std::vector<Runtime::HeldLock> Runtime::HeldLocks() const {
  std::vector<HeldLock> held;
  held.reserve(lock_acquired_.size());
  for (const auto& [lock, hold] : lock_acquired_) {
    HeldLock h;
    // Read-only id lookup: locks that never produced an id-bearing event
    // stay 0 — assigning here would perturb the dense numbering that
    // traces and metrics labels already use.
    if (auto it = sync_ids_.find(lock); it != sync_ids_.end()) {
      h.lock = it->second;
    }
    if (hold.holder != nullptr && hold.holder->fiber_ != nullptr) {
      h.holder = hold.holder->fiber_->id;
    }
    h.since = hold.since;
    held.push_back(h);
  }
  // lock_acquired_ iterates in pointer order (nondeterministic across
  // runs); sort by stable keys so dumps stay byte-identical.
  std::sort(held.begin(), held.end(), [](const HeldLock& a, const HeldLock& b) {
    return std::tie(a.lock, a.holder, a.since) < std::tie(b.lock, b.holder, b.since);
  });
  return held;
}

void Runtime::NotifyLockReleased(const void* lock) {
  if (!instrumented()) {
    return;
  }
  Duration held = 0;
  if (auto it = lock_acquired_.find(lock); it != lock_acquired_.end()) {
    held = sim_->Now() - it->second.since;
    lock_acquired_.erase(it);
  }
  const int id = SyncObjectId(lock);
  Emit(&RuntimeObserver::OnLockReleased, sim_->Now(), here(), sim_->current()->id, id, held);
  if (metrics_ != nullptr) {
    instr_->Total(instr_->hot.lock_hold, "sync.lock.hold").Record(static_cast<double>(held));
    // Per-lock hold-time distribution, same labelling as lock.wait_ns.
    instr_->AtLock(instr_->LockSlots(id).hold, "lock.hold_ns", id)
        .Record(static_cast<double>(held));
  }
}

void Runtime::NotifyConditionWake(const void* condition, int woken) {
  if (!instrumented()) {
    return;
  }
  const int id = SyncObjectId(condition);
  Emit(&RuntimeObserver::OnConditionWake, sim_->Now(), here(), id, woken);
  if (metrics_ != nullptr) {
    instr_->Total(instr_->hot.condition_wakeups, "sync.condition.wakeups").Add(woken);
  }
}

void Runtime::NotifyBarrierWait() {
  if (!instrumented()) {
    return;
  }
  if (metrics_ != nullptr) {
    const NodeId node = here();
    instr_->AtNode(instr_->NodeSlots(node).barrier_waits, "sync.barrier.waits", node).Add();
  }
}

// --- Validation -------------------------------------------------------------------------

void Runtime::ValidateLocationInvariants() {
  // Fault-injected runs relax the residency count around crashed nodes: a
  // down node's table is frozen and may hold a stale Resident claim (the
  // boot-time repair in OnNodeEvent fixes it on restart), and an object
  // homed on a down node legitimately has no live resident copy at all.
  // The oracle use (sim_->NodeUp) is sanctioned here — validation is a test
  // instrument, not a protocol path.
  const bool faulty = injector_ != nullptr && injector_->active();
  objects_.ForEach([&](Object* obj, const ObjectEntry& e) {
    const ObjectHeader& h = obj->amber_header();
    if (!e.live || h.IsMember() || h.IsStackLocal()) {
      return;
    }
    // The direction EnsureResident's fast path relies on: an up owner's own
    // table marks the object resident, so `owner == here()` answers the
    // residency check without a table probe.
    AMBER_CHECK(h.owner >= 0 && h.owner < nodes()) << "live object " << obj << " has no owner";
    if (!faulty || sim_->NodeUp(h.owner)) {
      AMBER_CHECK(tables_[static_cast<size_t>(h.owner)]->IsResident(obj))
          << "owner " << h.owner << " does not mark " << obj << " resident";
    }
    // Exactly one *up* node marks a mutable object resident, and it is the
    // owner — unless the owner itself is down, in which case nobody is.
    int resident_count = 0;
    for (NodeId n = 0; n < nodes(); ++n) {
      if (faulty && !sim_->NodeUp(n)) {
        continue;
      }
      const Descriptor d = tables_[static_cast<size_t>(n)]->Lookup(obj);
      if (d.state == Residency::kResident) {
        ++resident_count;
        AMBER_CHECK(n == h.owner) << "resident node " << n << " != owner " << h.owner;
      }
      AMBER_CHECK(h.IsImmutable() || d.state != Residency::kReplica)
          << "replica of a mutable object";
    }
    if (faulty && !sim_->NodeUp(h.owner)) {
      AMBER_CHECK(resident_count == 0)
          << "object claims residence on an up node but is owned by down node " << h.owner;
    } else {
      AMBER_CHECK(resident_count == 1) << "object resident on " << resident_count << " nodes";
    }
    // Every forwarding chain terminates at the owner; under faults a chain
    // may dead-end at a down node (repaired lazily by BroadcastLocate).
    for (NodeId n = 0; n < nodes(); ++n) {
      if (faulty && !sim_->NodeUp(n)) {
        continue;
      }
      NodeId at = n;
      int hops = 0;
      for (;;) {
        if (faulty && !sim_->NodeUp(at)) {
          break;  // chain runs into a down node: terminal until repaired
        }
        const Descriptor d = tables_[static_cast<size_t>(at)]->Lookup(obj);
        if (d.state == Residency::kResident) {
          break;
        }
        if (d.state == Residency::kReplica) {
          AMBER_CHECK(h.IsImmutable());
          break;
        }
        if (d.state == Residency::kUninitialized) {
          const NodeId home = gas_->HomeOf(obj);
          AMBER_CHECK(home != at) << "dangling home descriptor";
          at = home;
        } else {
          at = d.forward;
        }
        AMBER_CHECK(++hops <= 2 * nodes()) << "forwarding chain does not terminate";
      }
    }
    // Attachment groups are co-located.
    for (Object* c = h.first_child; c != nullptr; c = c->amber_header().next_sibling) {
      AMBER_CHECK(c->amber_header().owner == h.owner) << "attached child on different node";
    }
  });
}

}  // namespace amber
