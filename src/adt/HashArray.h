//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HashArray<V>: the paper's section-4 type Array (of attributelists,
/// indexed by Identifier) as a chained hash table.
///
/// The paper's PL/I implementation is a based array of n bucket pointers;
/// ASSIGN allocates an entry and *prepends* it to its bucket, READ scans
/// the bucket and returns the first (most recent) match — so ASSIGN
/// never overwrites, exactly matching the free-constructor reading of
/// axioms 17-20 where the newest assignment shadows older ones. This
/// class keeps those semantics, including the prepend.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_ADT_HASHARRAY_H
#define ALGSPEC_ADT_HASHARRAY_H

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace algspec {
namespace adt {

/// Chained hash table from identifiers to values with shadowing
/// assignment history. Deep-copying value semantics.
template <typename V> class HashArray {
public:
  /// \p NumBuckets is the paper's n; small values are legal (and force
  /// collisions, which the tests exploit).
  explicit HashArray(size_t NumBuckets = 64) : Buckets(NumBuckets) {}

  HashArray(const HashArray &Other) : Buckets(Other.Buckets.size()) {
    copyFrom(Other);
  }
  HashArray &operator=(const HashArray &Other) {
    if (this != &Other) {
      clear();
      Buckets.assign(Other.Buckets.size(), nullptr);
      copyFrom(Other);
    }
    return *this;
  }
  HashArray(HashArray &&Other) noexcept
      : Buckets(std::move(Other.Buckets)),
        NumEntries(std::exchange(Other.NumEntries, 0)) {
    Other.Buckets.assign(Buckets.size(), nullptr);
  }
  HashArray &operator=(HashArray &&Other) noexcept {
    if (this != &Other) {
      clear();
      Buckets = std::move(Other.Buckets);
      NumEntries = std::exchange(Other.NumEntries, 0);
      Other.Buckets.assign(Buckets.size(), nullptr);
    }
    return *this;
  }
  ~HashArray() { clear(); }

  /// ASSIGN: prepends a (id, value) entry; older entries for the same
  /// identifier are shadowed, not destroyed.
  void assign(std::string_view Id, V Value) {
    size_t B = bucketOf(Id);
    Buckets[B] = new Entry{std::string(Id), std::move(Value), Buckets[B]};
    ++NumEntries;
  }

  /// READ: the most recent value for \p Id; nullopt when undefined (the
  /// algebra's READ(EMPTY, id) = error).
  std::optional<V> read(std::string_view Id) const {
    for (Entry *E = Buckets[bucketOf(Id)]; E; E = E->Next)
      if (E->Id == Id)
        return E->Value;
    return std::nullopt;
  }

  /// IS_UNDEFINED?.
  bool isUndefined(std::string_view Id) const {
    for (Entry *E = Buckets[bucketOf(Id)]; E; E = E->Next)
      if (E->Id == Id)
        return false;
    return true;
  }

  /// Total entries including shadowed ones (the constructor-term size).
  size_t entryCount() const { return NumEntries; }
  size_t bucketCount() const { return Buckets.size(); }

  /// Visits the visible (unshadowed) bindings in unspecified order.
  template <typename Fn> void forEachVisible(Fn Visit) const {
    std::vector<std::string_view> SeenIds;
    for (Entry *Head : Buckets) {
      for (Entry *E = Head; E; E = E->Next) {
        bool Shadowed = false;
        for (std::string_view Id : SeenIds)
          if (Id == E->Id)
            Shadowed = true;
        if (Shadowed)
          continue;
        SeenIds.push_back(E->Id);
        Visit(std::string_view(E->Id), E->Value);
      }
    }
  }

  /// Representation equality: same bucket structure and the same
  /// assignment history per bucket. Finer than observational equality
  /// (which ignores shadowed entries and assignment order across
  /// distinct identifiers) but exact for values produced by replaying
  /// one ASSIGN sequence — which is what testgen campaigns compare.
  friend bool operator==(const HashArray &A, const HashArray &B) {
    if (A.Buckets.size() != B.Buckets.size() ||
        A.NumEntries != B.NumEntries)
      return false;
    for (size_t I = 0; I != A.Buckets.size(); ++I) {
      Entry *EA = A.Buckets[I], *EB = B.Buckets[I];
      while (EA && EB) {
        if (EA->Id != EB->Id || !(EA->Value == EB->Value))
          return false;
        EA = EA->Next;
        EB = EB->Next;
      }
      if (EA || EB)
        return false;
    }
    return true;
  }

private:
  struct Entry {
    std::string Id;
    V Value;
    Entry *Next;
  };

  size_t bucketOf(std::string_view Id) const {
    return std::hash<std::string_view>()(Id) % Buckets.size();
  }

  void clear() {
    for (Entry *&Head : Buckets) {
      while (Head) {
        Entry *E = Head;
        Head = Head->Next;
        delete E;
      }
    }
    NumEntries = 0;
  }

  void copyFrom(const HashArray &Other) {
    // Preserve per-bucket order (newest first) by copying each chain
    // back-to-front.
    for (size_t B = 0; B != Other.Buckets.size(); ++B) {
      std::vector<const Entry *> Chain;
      for (Entry *E = Other.Buckets[B]; E; E = E->Next)
        Chain.push_back(E);
      for (size_t I = Chain.size(); I != 0; --I) {
        Buckets[B] =
            new Entry{Chain[I - 1]->Id, Chain[I - 1]->Value, Buckets[B]};
        ++NumEntries;
      }
    }
  }

  std::vector<Entry *> Buckets;
  size_t NumEntries = 0;
};

} // namespace adt
} // namespace algspec

#endif // ALGSPEC_ADT_HASHARRAY_H
