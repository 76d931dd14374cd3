// Per-node run queues.
//
// The scheduling *policy* of each node is pluggable, mirroring Amber/Presto's
// replaceable scheduler objects (§2.1): "An application can install a custom
// scheduling discipline at runtime by replacing the system scheduler object."
// amber::SetScheduler() installs one of these (or a user subclass) per node.

#ifndef AMBER_SRC_SIM_RUN_QUEUE_H_
#define AMBER_SRC_SIM_RUN_QUEUE_H_

#include <deque>
#include <map>

#include "src/sim/fiber.h"

namespace sim {

class RunQueue {
 public:
  virtual ~RunQueue() = default;

  virtual void Enqueue(Fiber* f) = 0;
  // Returns the next fiber to run, or nullptr if empty.
  virtual Fiber* Dequeue() = 0;
  virtual bool Empty() const = 0;
  virtual size_t Size() const = 0;
  // Removes a specific fiber (used when a queued thread migrates away).
  virtual bool Remove(Fiber* f) = 0;
};

// Default policy: FIFO with round-robin timeslicing (the Amber default).
class FifoRunQueue : public RunQueue {
 public:
  void Enqueue(Fiber* f) override { q_.push_back(f); }
  Fiber* Dequeue() override {
    if (q_.empty()) {
      return nullptr;
    }
    Fiber* f = q_.front();
    q_.pop_front();
    return f;
  }
  bool Empty() const override { return q_.empty(); }
  size_t Size() const override { return q_.size(); }
  bool Remove(Fiber* f) override {
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (*it == f) {
        q_.erase(it);
        return true;
      }
    }
    return false;
  }

 private:
  std::deque<Fiber*> q_;
};

// Strict priority (higher Fiber::priority first), FIFO within a level.
class PriorityRunQueue : public RunQueue {
 public:
  void Enqueue(Fiber* f) override {
    levels_[-f->priority].push_back(f);
    ++size_;
  }
  Fiber* Dequeue() override {
    if (size_ == 0) {
      return nullptr;
    }
    auto it = levels_.begin();
    while (it->second.empty()) {
      it = levels_.erase(it);
    }
    Fiber* f = it->second.front();
    it->second.pop_front();
    --size_;
    return f;
  }
  bool Empty() const override { return size_ == 0; }
  size_t Size() const override { return size_; }
  bool Remove(Fiber* f) override {
    auto level = levels_.find(-f->priority);
    if (level == levels_.end()) {
      return false;
    }
    for (auto it = level->second.begin(); it != level->second.end(); ++it) {
      if (*it == f) {
        level->second.erase(it);
        --size_;
        return true;
      }
    }
    return false;
  }

 private:
  std::map<int, std::deque<Fiber*>> levels_;  // keyed by -priority: highest first
  size_t size_ = 0;
};

}  // namespace sim

#endif  // AMBER_SRC_SIM_RUN_QUEUE_H_
