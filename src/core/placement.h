// Higher-level object placement policies.
//
// The paper deliberately leaves placement to "the program or higher-level
// object placement software" (§2.3). This is that software: pluggable
// policies that decide where to put the next object, built entirely on the
// public mobility primitives — nothing here has privileged access to the
// runtime. Subclass Placer and implement NextNode; RoundRobinPlacer cycles
// through the nodes (static balance). Load-driven placement that moves
// objects while the program runs lives in src/policy.
//
// Usage:
//   RoundRobinPlacer placer;
//   auto section = placer.Place<Section>(args...);   // New + MoveTo

#ifndef AMBER_SRC_CORE_PLACEMENT_H_
#define AMBER_SRC_CORE_PLACEMENT_H_

#include "src/core/amber.h"

namespace amber {

class Placer {
 public:
  virtual ~Placer() = default;

  // The node the next object should be placed on.
  virtual NodeId NextNode() = 0;

  // Creates a T and places it according to the policy.
  template <typename T, typename... A>
  Ref<T> Place(A&&... args) {
    Ref<T> ref = New<T>(std::forward<A>(args)...);
    const NodeId target = NextNode();
    if (target != Here()) {
      MoveTo(ref, target);
    }
    return ref;
  }
};

class RoundRobinPlacer : public Placer {
 public:
  explicit RoundRobinPlacer(NodeId first = 0) : next_(first) {}

  NodeId NextNode() override {
    const NodeId n = next_;
    next_ = static_cast<NodeId>((next_ + 1) % Nodes());
    return n;
  }

 private:
  NodeId next_;
};

}  // namespace amber

#endif  // AMBER_SRC_CORE_PLACEMENT_H_
