// The Amber public API.
//
// Programs include this one header. The surface mirrors the paper's
// programming model (§2): object creation with New, location-independent
// invocation through Ref<T>::Call, threads with StartThread/Join, the
// mobility primitives MoveTo / Locate / Attach / Unattach / MakeImmutable,
// and the synchronization classes in sync.h.
//
// A minimal program:
//
//   class Counter : public amber::Object {
//    public:
//     int Add(int d) { return value_ += d; }
//    private:
//     int value_ = 0;
//   };
//
//   amber::Runtime::Config config;
//   config.nodes = 4;
//   config.procs_per_node = 4;
//   amber::Runtime rt(config);
//   rt.Run([] {
//     auto c = amber::New<Counter>();
//     amber::MoveTo(c, 2);              // place the data
//     int v = c.Call(&Counter::Add, 5); // thread migrates to node 2 and back
//   });

#ifndef AMBER_SRC_CORE_AMBER_H_
#define AMBER_SRC_CORE_AMBER_H_

#include <utility>

#include "src/core/object.h"
#include "src/core/ref.h"
#include "src/core/runtime.h"
#include "src/core/sync.h"
#include "src/core/thread.h"

namespace amber {

// Creates a T in the global object space on the current node and returns a
// location-independent reference. T must derive amber::Object.
template <typename T, typename... A>
Ref<T> New(A&&... args) {
  static_assert(std::is_base_of_v<Object, T>, "New<T> requires T : public amber::Object");
  Runtime& rt = Runtime::Current();
  void* mem = rt.AllocateObjectMemory(sizeof(T));
  T* obj;
  try {
    obj = new (mem) T(std::forward<A>(args)...);
  } catch (...) {
    rt.AbandonObjectMemory(mem);
    throw;
  }
  rt.FinishObjectConstruction(obj);
  return Ref<T>(obj);
}

// Creates a T and moves it to `node` — convenience for the create-then-place
// pattern the paper's SOR program uses for its section objects.
template <typename T, typename... A>
Ref<T> NewOn(NodeId node, A&&... args) {
  Ref<T> ref = New<T>(std::forward<A>(args)...);
  Runtime::Current().MoveTo(ref.object(), node);
  return ref;
}

// Destroys an object. Like any invocation, the call takes place where the
// object resides (the calling thread migrates there if necessary).
template <typename T>
void Delete(Ref<T> ref) {
  Runtime& rt = Runtime::Current();
  Object* obj = ref.object();
  rt.EnterInvocation(Object::PrimaryOf(obj), 0);  // migrate to the object (ref may dangle)
  rt.DeleteObject(obj);                        // destroy it here
  rt.ExitInvocation(0);                        // migrate back to the caller's frame
}

// --- Mobility (§2.3) -------------------------------------------------------

// Returns Status::kOk in fault-free runs; under fault injection an
// unreachable owner/destination is reported instead of hanging (the object
// stays consistent at its source).
template <typename T>
Status MoveTo(Ref<T> ref, NodeId node) {
  return Runtime::Current().MoveTo(ref.object(), node);
}

template <typename T>
NodeId Locate(Ref<T> ref) {
  return Runtime::Current().Locate(ref.object());
}

// Attaches `child` to `parent`: co-located now and forever after (until
// Unattach); moving the parent moves the child.
template <typename C, typename P>
void Attach(Ref<C> child, Ref<P> parent) {
  Runtime::Current().Attach(child.object(), parent.object());
}

template <typename C>
void Unattach(Ref<C> child) {
  Runtime::Current().Unattach(child.object());
}

// Declares that the object will never be modified again; from now on remote
// use replicates it instead of shipping threads to it.
template <typename T>
void MakeImmutable(Ref<T> ref) {
  Runtime::Current().MakeImmutable(ref.object());
}

// --- Crash recovery and planned shutdown (docs/FAULTS.md) --------------------

// Opts a mutable primary object into checkpoint/restore crash recovery: its
// bytes (Object::AmberSaveState) are checkpointed to a buddy node after
// every successful move and at every explicit Checkpoint call, and a crash
// of its node restores the *last checkpoint* on the buddy (a documented
// staleness window — work since the checkpoint is lost and must be
// idempotently re-run by the application). No-op cost in fault-free runs.
template <typename T>
void SetRecoverable(Ref<T> ref) {
  Runtime::Current().SetRecoverable(ref.object());
}

// Checkpoints a recoverable object at a quiescent point. Returns true once
// the checkpoint reached its buddy node; false means the transfer was lost
// (retry — a fresh buddy is elected each call if the old one is suspected).
template <typename T>
bool Checkpoint(Ref<T> ref) {
  return Runtime::Current().CheckpointObject(ref.object());
}

// Planned shutdown: evacuates every mobile primary object homed on `node`
// to the remaining live nodes (attach groups move as units; threads follow
// their objects through the §3.5 residency re-check). Returns the number of
// evacuated objects.
inline int DrainNode(NodeId node) { return Runtime::Current().DrainNode(node); }

// --- Time, placement, scheduling --------------------------------------------

// Consumes `d` of CPU time on the calling thread (application computation).
inline void Work(Duration d) { Runtime::Current().Work(d); }

// Voluntarily yields the processor to another ready thread on this node
// (the thread re-checks residency when dispatched again, §3.5).
inline void Yield() { Runtime::Current().sim().Yield(); }

// The node the calling thread is currently executing on.
inline NodeId Here() { return Runtime::Current().here(); }

inline Time Now() { return Runtime::Current().now(); }

// Parks the calling thread until virtual time `t` (no-op if already past).
// Open-loop workload drivers use this to pace deterministic arrival
// processes independently of how long each request takes to serve.
inline void SleepUntil(Time t) { Runtime::Current().sim().SleepUntil(t); }
inline int Nodes() { return Runtime::Current().nodes(); }
inline int ProcsPerNode() { return Runtime::Current().procs_per_node(); }

// Installs a custom scheduling policy on a node (§2.1).
inline void SetScheduler(NodeId node, std::unique_ptr<sim::RunQueue> queue) {
  Runtime::Current().SetScheduler(node, std::move(queue));
}

}  // namespace amber

#endif  // AMBER_SRC_CORE_AMBER_H_
