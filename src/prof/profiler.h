// Causal critical-path profiler and object placement advisor.
//
// The profile is a function of a flight recorder's log (src/fdr): Profile()
// replays the log's records, in seq order, through a fresh amber::ThreadModel
// and rebuilds the run's blocking-dependency graph. The model tiles every
// thread's lifetime into segments — runnable-but-queued, running, or
// blocked — and the profiler names each blocked segment's *cause* (waiting
// for a lock held elsewhere, waiting for an RPC served by node N including
// retry/timeout episodes, in migration transit, fault-induced backoff, or a
// generic wake by another thread) from the markers armed before the block
// plus the waker carried on the unblock, by a priority rule: join, then
// lock, migration, backoff, rpc, waker.
//
// It then extracts the virtual-time critical path: a backward walk from the
// last thread exit that, at every blocked segment, either attributes the
// wait in place (lock contention, RPC service, migration transit, fault
// backoff) or jumps to the thread that caused the wake (join targets,
// condition/barrier signalers) at the wake time. Every nanosecond of the
// run lands in exactly one category — the breakdown sums to the end-to-end
// virtual time by construction:
//
//   compute.node<n>   executing on a processor of node n
//   queue.node<n>     runnable, waiting for a free processor of node n
//   lock.<l>          blocked on lock l held by another thread
//   rpc.node<n>       waiting for an RPC served by node n
//   rpc.net           waiting on the wire (messages, unpaired waits)
//   migration         thread in migration transit
//   fault             retry backoff / fault-induced waiting
//   recovery          crash-recovery episodes: replica re-bind probes and
//                     checkpoint restores (OnRecoveryStart/End brackets)
//
// The placement advisor aggregates per-object invocation flow (who calls
// each object from where, and how much entry/exit overhead — residency
// chases, thread migration — each remote call pays) and per-lock wait/hold
// totals, then emits ranked advice: "obj-3 lives on node 0 but 83% of
// remote-invocation overhead originates on node 2; MoveTo(2) est. saving
// 1.2 ms".
//
// Determinism: all aggregation is keyed by dense ids (thread ids, first-seen
// object order, lock ids) and all report values are integer nanoseconds, so
// WriteJson output is byte-identical across identical runs.
//
// Usage: attach a recorder that keeps the whole run before Run(), profile
// it after.
//   fdr::Recorder log({.name = "run", .ring_capacity = SIZE_MAX});
//   rt.AddObserver(&log);
//   rt.Run(...);
//   prof::ProfileReport report = prof::Profile(log);

#ifndef AMBER_SRC_PROF_PROFILER_H_
#define AMBER_SRC_PROF_PROFILER_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/fdr/fdr.h"

namespace prof {

using amber::NodeId;
using amber::Time;

// One attributed stretch of the critical path (adjacent equal categories are
// merged; listed in start -> end order).
struct PathStep {
  std::string category;
  Time ns = 0;
};

// Per-object invocation flow, fed to the placement advisor.
struct ObjectProfile {
  int id = 0;          // dense first-seen order (deterministic)
  std::string label;   // demangled class name + instance ordinal
  NodeId home = 0;     // node of residence at the end of the run
  int64_t moves = 0;
  int64_t invocations = 0;
  int64_t remote_invocations = 0;
  std::map<NodeId, int64_t> calls_by_origin;
  // Entry + exit overhead (residency chase, migration, return travel) paid
  // by remote invocations, bucketed by the calling thread's origin node.
  std::map<NodeId, Time> overhead_by_origin;
};

// Per-lock contention totals, with the lock's share of the critical path.
struct LockProfile {
  int id = 0;
  int64_t acquisitions = 0;
  Time wait_ns = 0;
  Time hold_ns = 0;
  Time max_wait_ns = 0;
  Time critical_path_ns = 0;
};

// One ranked recommendation. kind is "move" (object placement) or "lock"
// (contention hot spot); est_saving_ns orders the list.
struct Advice {
  std::string kind;
  int target = 0;  // object id (move) or lock id (lock)
  std::string label;
  NodeId from = 0;
  NodeId to = 0;
  Time est_saving_ns = 0;
  std::string text;
};

struct ProfileReport {
  std::string name;  // scenario/bench name, set by the caller
  Time total_ns = 0;
  // category -> attributed ns; the values sum exactly to total_ns.
  std::map<std::string, Time> breakdown;
  std::vector<PathStep> critical_path;
  std::vector<ObjectProfile> objects;  // ordered by id
  std::vector<LockProfile> locks;      // ordered by id
  std::vector<Advice> advice;          // best saving first

  // Machine-readable report. Integer-only values and deterministic key
  // order: byte-identical across identical (same-seed) runs.
  void WriteJson(std::ostream& out) const;

  // Human-readable summary (totals, attribution table, top locks, advice).
  void WriteSummary(std::ostream& out) const;
};

// Replays `log` and builds the report (name left empty for the caller).
// Panics if the log dropped records: a profile of a partial run would be
// silently wrong.
ProfileReport Profile(const fdr::Recorder& log);

}  // namespace prof

#endif  // AMBER_SRC_PROF_PROFILER_H_
