//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Queue<T>: the paper's section-3 type Queue (of Items) as a concrete
/// C++ class with a private singly linked representation.
///
/// The public operations mirror the algebraic signature exactly
/// (NEW = the constructor, ADD = add, FRONT = front, REMOVE = remove,
/// IS_EMPTY? = isEmpty); boundary conditions surface as std::nullopt /
/// false instead of the algebra's error, and the ModelBinding registry
/// (Bindings.cpp) maps between the two. The representation is invisible to clients — the class *is*
/// the information-hiding boundary the paper argues for.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_ADT_QUEUE_H
#define ALGSPEC_ADT_QUEUE_H

#include <cassert>
#include <memory>
#include <optional>
#include <utility>

namespace algspec {
namespace adt {

/// FIFO queue over a private singly linked list with head and tail
/// pointers; O(1) add and remove, deep-copying value semantics.
template <typename T> class Queue {
public:
  Queue() = default;
  ~Queue() { clear(); }

  Queue(const Queue &Other) { copyFrom(Other); }
  Queue &operator=(const Queue &Other) {
    if (this != &Other) {
      clear();
      copyFrom(Other);
    }
    return *this;
  }
  Queue(Queue &&Other) noexcept
      : Head(std::exchange(Other.Head, nullptr)),
        Tail(std::exchange(Other.Tail, nullptr)),
        Size(std::exchange(Other.Size, 0)) {}
  Queue &operator=(Queue &&Other) noexcept {
    if (this != &Other) {
      clear();
      Head = std::exchange(Other.Head, nullptr);
      Tail = std::exchange(Other.Tail, nullptr);
      Size = std::exchange(Other.Size, 0);
    }
    return *this;
  }

  /// ADD: enqueues at the back.
  void add(T Item) {
    Node *N = new Node{std::move(Item), nullptr};
    if (Tail)
      Tail->Next = N;
    else
      Head = N;
    Tail = N;
    ++Size;
  }

  /// FRONT: the oldest element; nullopt on the empty queue (the
  /// algebra's FRONT(NEW) = error).
  std::optional<T> front() const {
    if (!Head)
      return std::nullopt;
    return Head->Item;
  }

  /// REMOVE: drops the oldest element; returns false on the empty queue
  /// (the algebra's REMOVE(NEW) = error).
  bool remove() {
    if (!Head)
      return false;
    Node *N = Head;
    Head = Head->Next;
    if (!Head)
      Tail = nullptr;
    delete N;
    --Size;
    return true;
  }

  /// IS_EMPTY?.
  bool isEmpty() const { return Head == nullptr; }

  size_t size() const { return Size; }

  /// Structural equality of the abstract values (element sequences).
  friend bool operator==(const Queue &A, const Queue &B) {
    if (A.Size != B.Size)
      return false;
    for (Node *NA = A.Head, *NB = B.Head; NA; NA = NA->Next, NB = NB->Next)
      if (!(NA->Item == NB->Item))
        return false;
    return true;
  }

private:
  struct Node {
    T Item;
    Node *Next;
  };

  void clear() {
    while (Head) {
      Node *N = Head;
      Head = Head->Next;
      delete N;
    }
    Tail = nullptr;
    Size = 0;
  }

  void copyFrom(const Queue &Other) {
    for (Node *N = Other.Head; N; N = N->Next)
      add(N->Item);
  }

  Node *Head = nullptr;
  Node *Tail = nullptr;
  size_t Size = 0;
};

} // namespace adt
} // namespace algspec

#endif // ALGSPEC_ADT_QUEUE_H
