//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test oracles for axiom instances (Gaudel & Le Gall): decide whether
/// two ground terms denote the same value of the implementation.
///
/// When the binding can compare values of the axiom's sort directly
/// (bound equality, or the Bool/Int/atom defaults), the oracle is that
/// comparison. For sorts without equality the oracle is a finite set of
/// observable contexts computed from the signature: terms C[_] with one
/// hole of the sort whose result sort *is* comparable. Two values are
/// deemed equal when every context agrees on them — the observational
/// equality the paper's section-5 discipline actually promises.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_TESTGEN_ORACLE_H
#define ALGSPEC_TESTGEN_ORACLE_H

#include "ast/Ids.h"
#include "support/Error.h"

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace algspec {

class AlgebraContext;
class ModelBinding;
class Replica;
class Spec;
class TermEnumerator;
class Value;

/// Tunables for observer-context construction.
struct OracleOptions {
  /// Operations stacked above the hole (observation depth).
  unsigned MaxContextDepth = 2;
  /// Cap on finished contexts per sort.
  size_t MaxContexts = 64;
  /// Depth bound for the ground terms filling non-hole argument slots.
  unsigned FillerDepth = 2;
  /// Filler terms tried per non-hole argument position.
  size_t FillersPerPosition = 2;
};

/// One observer: a term over a single hole variable, with a result sort
/// the binding can compare.
struct ObserverContext {
  TermId Context;
  VarId Hole;
  SortId ResultSort;
};

/// The oracle's answer for one axiom instance.
struct OracleVerdict {
  bool Equal = false;
  /// When unequal: what distinguished the sides, rendered.
  std::string Detail;
};

/// Renders an observable value (Bool/Int/atom) for reports; errors render
/// as "error", unobservable representations as "<sort value>".
std::string renderObservable(const AlgebraContext &Ctx, SortId Sort,
                             const Value &V);

/// The oracle for one sort.
class Oracle {
public:
  /// Builds the oracle for values of \p Sort against \p B. Uses direct
  /// comparison when the binding has an equality for the sort (unless
  /// \p ForceObservers); otherwise computes the observer-context set
  /// from the operations declared by \p Specs, restricted to operations
  /// the binding can actually run. Construction is deterministic:
  /// contexts come out in spec/operation declaration order.
  static Oracle build(AlgebraContext &Ctx,
                      std::span<const Spec *const> Specs, SortId Sort,
                      ModelBinding &B, TermEnumerator &Enum,
                      bool ForceObservers, const OracleOptions &Options);

  /// False when the sort has neither an equality nor any observer
  /// context — the campaign reports this as a named obstruction.
  bool decidable() const { return Direct || !Observers.empty(); }
  bool usesObservers() const { return !Direct; }
  size_t observerCount() const { return Observers.size(); }

  /// This oracle over a parallel worker's replica: the value sort, every
  /// observer context with its hole, and the result sorts mapped into
  /// \p Rep, so the worker judges its instances through compare() on its
  /// own binding. Empty when a context does not map into the replica.
  std::optional<Oracle> replicate(Replica &Rep) const;

  /// Compares the ground terms \p L and \p R by evaluating them (and,
  /// for observer oracles, their observations) through \p B, whose
  /// context is the one this oracle was built or replicated into. Fails
  /// only on evaluation errors the campaign reports as obstructions
  /// (unbound operations, missing equalities); in-algebra errors are
  /// values and compare equal to each other only. The instance fails
  /// when the result is an error or not Equal; nothing is rendered for
  /// a passing instance.
  Result<OracleVerdict> compare(ModelBinding &B, TermId L, TermId R) const;

private:
  SortId ValueSort;
  bool Direct = true;
  std::vector<ObserverContext> Observers;
};

} // namespace algspec

#endif // ALGSPEC_TESTGEN_ORACLE_H
