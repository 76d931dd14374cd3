// The discrete-event simulation kernel.
//
// One Kernel simulates a cluster of `nodes` shared-memory multiprocessors
// with `procs_per_node` processors each, on a single host thread, in virtual
// time. Fibers execute real code; their elapsed time is whatever they Charge.
//
// Ordering discipline
// -------------------
// Events execute in strict (time, sequence) order, so any state shared
// between fibers must only be touched at an *ordered point*: inside an event
// handler, or in fiber code immediately after Kernel::Sync() (which re-enters
// the fiber through the event queue at its current virtual time). Pure
// computation (Charge) may run ahead of the clock safely because it touches
// nothing shared. All Amber runtime primitives Sync() on entry. Preemption
// requests take effect at the next charge boundary or sync point, bounding
// the interleaving granularity by the scheduling quantum — the same
// granularity at which a real multiprocessor node would service the §3.5
// move-time preemption interrupt.
//
// A Sync (and a SpinResume) posts a resume key, not a closure: the event is
// "switch back into this fiber". Closures remain for everything the kernel
// does on a fiber's behalf — spawning, waking, timers, releasing a processor
// on block, yield, travel or exit — and for the network and runtime.
//
// Direct handoff. Every switch out of a fiber goes through SwitchToKernel.
// When the earliest pending event is another fiber's resume key, the
// departing fiber pops it, advances the clock and switches straight to that
// fiber, which is exactly what the kernel loop would do next. Two guards
// keep the order exact. (1) No handoff while the kernel still has work in
// the current event: TryDispatch, after a dispatched fiber's slice, may
// dispatch another ready fiber on that node at the same time, so while its
// node has a free processor and a non-empty run queue the fiber returns to
// the kernel. The answer cannot change while handed-off fibers run: only
// events free processors or fill run queues. (2) A fiber whose own key is next returns to the kernel too,
// which switches straight back (a plain round trip, not elided). Event
// order, seq numbering and events_run() are those of the kernel loop alone.

#ifndef AMBER_SRC_SIM_KERNEL_H_
#define AMBER_SRC_SIM_KERNEL_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/stats.h"
#include "src/base/time.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/fiber.h"
#include "src/sim/run_queue.h"

namespace telemetry {
class SelfProfiler;
}  // namespace telemetry

namespace sim {

// Observer of scheduling events (run-queue activity, blocking, preemption).
// Callbacks fire at ordered points with virtual timestamps and must not call
// back into the kernel's mutating primitives. The Amber runtime bridges
// these to its RuntimeObserver / metrics registry; the hooks cost nothing
// when no observer is installed (a single null check per event site).
class SchedObserver {
 public:
  virtual ~SchedObserver() = default;
  // A fiber was created on `node` and will become ready at `when`.
  virtual void OnFiberCreate(Time when, NodeId node, const Fiber& f) {}
  // A fiber left the run queue and starts running; `queue_wait` is the time
  // it spent ready-but-not-running since it was enqueued.
  virtual void OnFiberDispatch(Time when, NodeId node, const Fiber& f, Duration queue_wait) {}
  // A running fiber gave up its processor to wait (Block / migration
  // departure).
  virtual void OnFiberBlock(Time when, NodeId node, const Fiber& f) {}
  // A blocked fiber became runnable again (Wake / migration arrival).
  // `waker_id` is the fiber id of the party that called Wake (0 when the
  // wake came from event context — a timer, message delivery, or migration
  // arrival) and `wake_time` is the waker's clock at the Wake call. Ids are
  // passed rather than Fiber pointers because the waker may have exited —
  // and its record been reclaimed — by the time the wake is delivered.
  virtual void OnFiberUnblock(Time when, NodeId node, const Fiber& f, uint64_t waker_id,
                              Time wake_time) {}
  // A running fiber was requeued involuntarily (quantum expiry, move-time
  // preemption) or yielded.
  virtual void OnFiberPreempt(Time when, NodeId node, const Fiber& f) {}
  virtual void OnFiberExit(Time when, NodeId node, const Fiber& f) {}
};

class Kernel {
 public:
  struct Config {
    int nodes = 1;
    int procs_per_node = 1;
    CostModel cost;
  };

  explicit Kernel(const Config& config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Setup / teardown ----------------------------------------------------

  // Creates a fiber that will run fn on `node`. The stack is borrowed, not
  // owned; it must outlive the fiber. The fiber becomes ready at the current
  // virtual time. Callable from host code (before Run) or from fiber code.
  Fiber* Spawn(NodeId node, void* stack_base, size_t stack_size, std::function<void()> fn,
               std::string name = "");

  // Frees the kernel's record of a finished fiber. The caller reclaims the
  // stack. Must not be called on a live fiber.
  void DestroyFiber(Fiber* f);

  // Replaces a node's scheduling policy. Queued fibers are transferred.
  void SetRunQueue(NodeId node, std::unique_ptr<RunQueue> queue);
  RunQueue& run_queue(NodeId node);

  // Hook invoked in fiber context whenever a fiber is dispatched again after
  // blocking or being preempted — Amber's context-switch-in residency check
  // (§3.5) lives here.
  void SetResumeHook(std::function<void(Fiber*)> hook) { resume_hook_ = std::move(hook); }

  // Attaches a scheduling-event observer (nullptr detaches). Guarded at
  // every emission site, so the cost is zero when none is attached.
  void SetSchedObserver(SchedObserver* observer) { sched_observer_ = observer; }

  // --- Fiber-facing primitives (call only from fiber context) --------------

  // Advances the running fiber's virtual time by d, honouring the timeslice:
  // the fiber is preempted (and requeued) at quantum boundaries when other
  // work is waiting or a preemption was requested.
  void Charge(Duration d);

  // Re-enters the fiber through the event queue at its current virtual time.
  // Establishes an ordered point; see the header comment.
  void Sync();

  // Voluntarily yields the processor: requeue on this node and reschedule.
  void Yield();

  // Blocks until another party calls Wake. The caller must have registered
  // itself with that party *after* a Sync() — see the ordering discipline.
  void Block();

  // Moves the running fiber to `node`, arriving at time `arrive` (>= current
  // vtime). The processor is released now; the fiber joins the destination
  // run queue at `arrive`. Used for Amber thread migration.
  void TravelTo(NodeId node, Time arrive);

  // Parks the running fiber until virtual time `t`, releasing its processor
  // (a timer sleep, not a busy wait). Returns immediately when t has already
  // passed. The open-loop benchmark drivers pace their deterministic arrival
  // processes with this.
  void SleepUntil(Time t);

  // Suspends the running fiber WITHOUT releasing its processor — the
  // processor spins (stays busy) until SpinResume. Models non-relinquishing
  // locks (§2.2): latency-optimal, throughput-hostile.
  void SpinWait();

  // Resumes a SpinWait-ed fiber at time t (>= now). Call from an ordered
  // point. The spinner's virtual time jumps to t; its processor was busy
  // throughout.
  void SpinResume(Fiber* f, Time t);

  // Terminates the running fiber (runs its on_exit first). Does not return.
  [[noreturn]] void Exit();

  // --- Kernel-facing primitives (event handlers or ordered fiber code) -----

  // Schedules fn (any void() callable, move-only ones included) to run at
  // virtual time t. The closure is stored in the event queue as is.
  template <typename F>
  void Post(Time t, F&& fn) {
    queue_.Post(t, std::forward<F>(fn));
  }

  // Makes a blocked fiber ready on its current node at time t.
  void Wake(Fiber* f, Time t);

  // Flags every fiber currently running on `node` for preemption; each will
  // be requeued at its next charge boundary or sync point and will run the
  // resume hook when dispatched again. Returns how many were flagged.
  int RequestPreempt(NodeId node);

  // Marks a node down (crash) or back up (restart). A down node dispatches
  // nothing: running fibers are flagged for preemption and park on the run
  // queue at their next charge boundary; fibers arriving via TravelTo queue
  // up and wait. Memory and queued state survive the outage (fail-stop
  // freeze/restart — the fault-injection model, see docs/FAULTS.md).
  // Call from event context or ordered fiber code.
  void SetNodeUp(NodeId node, bool up);
  bool NodeUp(NodeId node) const;

  // --- Clock / introspection ------------------------------------------------

  // Current virtual time: the running fiber's vtime, else the event clock.
  Time Now() const;

  Fiber* current() const { return current_; }
  int nodes() const { return static_cast<int>(nodes_.size()); }
  int procs_per_node() const { return procs_per_node_; }
  const CostModel& cost() const { return cost_; }
  CostModel& mutable_cost() { return cost_; }

  // --- Run loop -------------------------------------------------------------

  // Processes events until none remain. Returns the final virtual time.
  Time Run();

  // Fibers spawned but not finished. Nonzero after Run() means deadlock.
  int live_fibers() const { return live_fibers_; }

  // Read-only sweep over every fiber the kernel still tracks, in creation
  // order (finished fibers stay listed until DestroyFiber reclaims them).
  // Post-mortem introspection — the flight recorder's authoritative
  // per-thread snapshot at time of death. `fn` must not call back into the
  // kernel.
  void ForEachFiber(const std::function<void(const Fiber&)>& fn) const;

  // True while any unfinished fiber sits on an up node. Background services
  // (the membership heartbeat ticks) use this to decide whether the
  // simulation still has work that could need them: fibers frozen on
  // crashed nodes do not count — with every up node idle they can only run
  // again through a restart event that is already in the queue.
  bool AnyLiveFiberOnUpNode() const;

  // --- Statistics ------------------------------------------------------------

  // Total processor-busy virtual time on a node (for utilization reports).
  Duration NodeBusyTime(NodeId node) const;

  // Instantaneous load introspection (for placement policies).
  int RunQueueLength(NodeId node) const;
  int BusyProcessors(NodeId node) const;
  uint64_t dispatches() const { return dispatches_; }
  uint64_t preemptions() const { return preemptions_; }
  uint64_t events_run() const { return queue_.events_run(); }

 private:
  struct Processor {
    Fiber* running = nullptr;
    Time busy_since = 0;
  };
  struct NodeState {
    std::vector<Processor> procs;
    std::vector<int> free_procs;  // LIFO stack of free processor indices
    std::unique_ptr<RunQueue> queue;
    Duration busy_ns = 0;
    bool up = true;  // down nodes dispatch nothing (fault injection)
  };

  static void FiberEntry(void* arg);

  // Runs a resume key's fiber (kernel context).
  void Resume(Fiber* f);

  void EnqueueReady(Fiber* f, Time t);
  void TryDispatch(NodeId node);
  // Switches into f until a fiber switches back to the kernel, timing each
  // fiber's slice into the telemetry fiber_run bucket when a self-profiler
  // is active (a handoff closes one slice and opens the next).
  void RunFiberSlice(Fiber* f);
  void ReleaseProcessorAndMaybeRequeue(Fiber* f, bool requeue);
  // The one way out of a fiber: to the kernel, or by direct handoff to the
  // fiber whose resume key is next (see the header comment).
  void SwitchToKernel(Fiber* f);
  void AfterResume(Fiber* f);
  // Preempts the running fiber at its current vtime (requeue + release).
  void PreemptSelf();

  EventQueue queue_;
  CostModel cost_;
  int procs_per_node_;
  std::vector<NodeState> nodes_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  Fiber* current_ = nullptr;
  Context kernel_ctx_;
  // The node whose TryDispatch loop the kernel is suspended in, if any.
  NodeState* dispatching_ = nullptr;
  // The self-profiler Run() found active, and the start of the open
  // fiber_run scope (0 when the scope is not one of the sampled ones).
  telemetry::SelfProfiler* prof_ = nullptr;
  int64_t slice_start_ = 0;
  std::function<void(Fiber*)> resume_hook_;
  SchedObserver* sched_observer_ = nullptr;
  uint64_t next_fiber_id_ = 1;
  int live_fibers_ = 0;
  uint64_t dispatches_ = 0;
  uint64_t preemptions_ = 0;
};

}  // namespace sim

#endif  // AMBER_SRC_SIM_KERNEL_H_
