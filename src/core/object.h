// amber::Object — the base class of everything in the object space (§3.6).
//
// "Object descriptors are allocated and managed by deriving all user classes
// from a single base class called Object whose private data items include
// the descriptor. The constructor and destructor functions for the Object
// class maintain the descriptor..."
//
// Construction discipline:
//   * amber::New<T>(...) allocates a segment in the global object space and
//     placement-constructs T there → a *primary*, independently mobile object.
//   * An Object embedded by value inside another Object (a C++ member object)
//     is detected during construction and marked kObjMember: it is always
//     co-resident with — and moves with — its containing primary (§3.6).
//   * An Object constructed on a thread's stack is marked kObjStackLocal:
//     always co-resident with the running thread.

#ifndef AMBER_SRC_CORE_OBJECT_H_
#define AMBER_SRC_CORE_OBJECT_H_

#include <cstdint>
#include <vector>

#include "src/kernel/object_header.h"

namespace amber {

class Runtime;

// Holds an Object's header in a non-polymorphic base; see Object::PrimaryOf.
struct ObjectHeaderBase {
  ObjectHeader header_;
};

class Object : private ObjectHeaderBase {
 public:
  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

  // The primary object whose location governs this object: itself if it is
  // a primary, the containing object for members (transitively resolved at
  // construction), nullptr for stack-local objects.
  Object* AmberPrimary() { return PrimaryOf(this); }

  // AmberPrimary of an object that may already be destroyed: a Ref can
  // dangle, and the runtime reads the dead object's header to report it.
  // The header is reached by a conversion to the non-polymorphic base, not
  // by a member access through Object, which would read the vptr (UBSan's
  // vptr check rejects that once the destructor has run).
  static Object* PrimaryOf(Object* obj) {
    const ObjectHeader& h = HeaderOf(obj);
    return h.IsMember() ? h.primary : (h.IsStackLocal() ? nullptr : obj);
  }
  const ObjectHeader& amber_header() const { return header_; }

  // Wire bytes of state held OUTSIDE the object's own segment (heap-backed
  // vectors, strings...). Migration charges segment + this. Override it in
  // classes with out-of-line state that should travel on moves — the manual
  // serialization burden of the era; the default assumes none.
  virtual int64_t AmberPayloadBytes() const { return 0; }

  // Checkpoint hooks for amber::SetRecoverable (docs/FAULTS.md). The default
  // raw-copies the derived part of the object's segment, which is correct
  // only for trivially-copyable representations; classes with out-of-line
  // state (the AmberPayloadBytes cases) must override both symmetrically.
  // Save runs at a quiescent point; Load rebuilds the object from a prior
  // Save's bytes on the recovery buddy after the home node crashed.
  virtual void AmberSaveState(std::vector<uint8_t>* out) const;
  virtual void AmberLoadState(const uint8_t* data, size_t size);

 protected:
  Object();
  virtual ~Object();

 private:
  friend class Runtime;
  static ObjectHeader& HeaderOf(Object* obj) {
    return static_cast<ObjectHeaderBase*>(obj)->header_;
  }
};

}  // namespace amber

#endif  // AMBER_SRC_CORE_OBJECT_H_
