//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Eval terms generated together with their value. The value comes from
/// a small std-container model of Queue, Stack (of Arrays) and Nat, and
/// is rendered as the normal form the rewrite engine must print. Errors
/// are strict: an operation applied to `error` is `error`.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <deque>
#include <optional>
#include <utility>

using namespace perfbench;

namespace {

const char *const Atoms[] = {"'a", "'b", "'c", "'d", "'e"};
const char *const Attrs[] = {"'p", "'q", "'r"};

/// A generated term and its model value (nullopt = error).
template <class T> struct Gen {
  std::string Term;
  std::optional<T> Value;
};

//===-- Queue (FIFO of atoms) --------------------------------------------===//

using QueueV = std::deque<std::string>;

std::string renderQueue(const QueueV &Q) {
  std::string S = "NEW";
  for (const std::string &I : Q)
    S = "ADD(" + S + ", " + I + ")";
  return S;
}

Gen<QueueV> genQueue(Rng &R, unsigned Depth) {
  if (Depth == 0 || R.chance(15))
    return {"NEW", QueueV()};
  Gen<QueueV> Inner = genQueue(R, Depth - 1);
  // REMOVE on an empty queue is an error; keep it rare.
  bool Remove = R.chance(30) &&
                (!Inner.Value || !Inner.Value->empty() || R.chance(10));
  if (Remove) {
    Gen<QueueV> Out{"REMOVE(" + Inner.Term + ")", Inner.Value};
    if (Out.Value) {
      if (Out.Value->empty())
        Out.Value.reset();
      else
        Out.Value->pop_front();
    }
    return Out;
  }
  std::string Item = Atoms[R.below(5)];
  Gen<QueueV> Out{"ADD(" + Inner.Term + ", " + Item + ")", Inner.Value};
  if (Out.Value)
    Out.Value->push_back(Item);
  return Out;
}

EvalCase queueCase(Rng &R) {
  Gen<QueueV> Q = genQueue(R, 3 + static_cast<unsigned>(R.below(4)));
  EvalCase C{"queue", "", "error"};
  switch (R.below(3)) {
  case 0:
    C.Term = "FRONT(" + Q.Term + ")";
    if (Q.Value && !Q.Value->empty())
      C.Value = Q.Value->front();
    break;
  case 1:
    C.Term = "IS_EMPTY?(" + Q.Term + ")";
    if (Q.Value)
      C.Value = Q.Value->empty() ? "true" : "false";
    break;
  default:
    C.Term = Q.Term;
    if (Q.Value)
      C.Value = renderQueue(*Q.Value);
    break;
  }
  return C;
}

//===-- Stack of Arrays (the stackarray builtin) --------------------------===//

/// An array is its assignment history: ASSIGN is a free constructor, so
/// the normal form keeps shadowed assignments.
using ArrayV = std::vector<std::pair<std::string, std::string>>;
using StackV = std::vector<ArrayV>;

std::string renderArray(const ArrayV &A) {
  std::string S = "EMPTY";
  for (const auto &[Id, Attr] : A)
    S = "ASSIGN(" + S + ", " + Id + ", " + Attr + ")";
  return S;
}

std::string renderStack(const StackV &St) {
  std::string S = "NEWSTACK";
  for (const ArrayV &A : St)
    S = "PUSH(" + S + ", " + renderArray(A) + ")";
  return S;
}

Gen<ArrayV> genArray(Rng &R, unsigned Depth) {
  if (Depth == 0 || R.chance(20))
    return {"EMPTY", ArrayV()};
  Gen<ArrayV> Inner = genArray(R, Depth - 1);
  std::string Id = Atoms[R.below(3)];
  std::string Attr = Attrs[R.below(3)];
  Gen<ArrayV> Out{"ASSIGN(" + Inner.Term + ", " + Id + ", " + Attr + ")",
                  Inner.Value};
  if (Out.Value)
    Out.Value->emplace_back(Id, Attr);
  return Out;
}

Gen<StackV> genStack(Rng &R, unsigned Depth) {
  if (Depth == 0 || R.chance(15))
    return {"NEWSTACK", StackV()};
  Gen<StackV> Inner = genStack(R, Depth - 1);
  bool NonEmpty = Inner.Value && !Inner.Value->empty();
  size_t Pick = R.below(10);
  if (Pick < 2 && (NonEmpty || R.chance(10))) {
    Gen<StackV> Out{"POP(" + Inner.Term + ")", Inner.Value};
    if (Out.Value) {
      if (Out.Value->empty())
        Out.Value.reset();
      else
        Out.Value->pop_back();
    }
    return Out;
  }
  Gen<ArrayV> A = genArray(R, 1 + static_cast<unsigned>(R.below(3)));
  if (Pick < 4 && (NonEmpty || R.chance(10))) {
    // REPLACE(stk, arr) = if IS_NEWSTACK?(stk) then error
    //                     else PUSH(POP(stk), arr)
    Gen<StackV> Out{"REPLACE(" + Inner.Term + ", " + A.Term + ")",
                    Inner.Value};
    if (Out.Value) {
      if (Out.Value->empty())
        Out.Value.reset();
      else
        Out.Value->back() = *A.Value;
    }
    return Out;
  }
  Gen<StackV> Out{"PUSH(" + Inner.Term + ", " + A.Term + ")", Inner.Value};
  if (Out.Value)
    Out.Value->push_back(*A.Value);
  return Out;
}

EvalCase stackCase(Rng &R) {
  Gen<StackV> St = genStack(R, 2 + static_cast<unsigned>(R.below(4)));
  EvalCase C{"stackarray", "", "error"};
  std::string Id = Atoms[R.below(3)];
  bool Top = St.Value && !St.Value->empty();
  switch (R.below(4)) {
  case 0:
    C.Term = "TOP(" + St.Term + ")";
    if (Top)
      C.Value = renderArray(St.Value->back());
    break;
  case 1:
    C.Term = "READ(TOP(" + St.Term + "), " + Id + ")";
    if (Top)
      for (const auto &[K, V] : St.Value->back())
        if (K == Id)
          C.Value = V; // The latest assignment wins.
    break;
  case 2:
    C.Term = "IS_NEWSTACK?(" + St.Term + ")";
    if (St.Value)
      C.Value = St.Value->empty() ? "true" : "false";
    break;
  default:
    C.Term = St.Term;
    if (St.Value)
      C.Value = renderStack(*St.Value);
    break;
  }
  return C;
}

//===-- Nat (Peano) -------------------------------------------------------===//

std::string renderNat(unsigned N) {
  std::string S = "ZERO";
  for (unsigned I = 0; I != N; ++I)
    S = "SUCC(" + S + ")";
  return S;
}

Gen<unsigned> genNat(Rng &R, unsigned Depth) {
  if (Depth == 0 || R.chance(20)) {
    unsigned N = static_cast<unsigned>(R.below(3));
    return {renderNat(N), N};
  }
  Gen<unsigned> A = genNat(R, Depth - 1);
  Gen<unsigned> B = genNat(R, Depth - 1);
  if (R.chance(40) && *A.Value * *B.Value <= 12)
    return {"TIMES(" + A.Term + ", " + B.Term + ")", *A.Value * *B.Value};
  if (R.chance(50))
    return {"SUCC(" + A.Term + ")", *A.Value + 1};
  return {"PLUS(" + A.Term + ", " + B.Term + ")", *A.Value + *B.Value};
}

EvalCase natCase(Rng &R) {
  Gen<unsigned> N = genNat(R, 2 + static_cast<unsigned>(R.below(2)));
  if (R.chance(25))
    return {"nat", "IS_ZERO?(" + N.Term + ")", *N.Value ? "false" : "true"};
  return {"nat", N.Term, renderNat(*N.Value)};
}

} // namespace

EvalCase perfbench::generateEvalCase(Rng &R, unsigned Which) {
  switch (Which % 3) {
  case 0:
    return queueCase(R);
  case 1:
    return stackCase(R);
  default:
    return natCase(R);
  }
}
