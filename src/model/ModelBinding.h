//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binding of specification operations to concrete C++ implementations.
///
/// This realizes the paper's section-5 testing discipline: a programmer
/// implements a module against the algebraic definition alone; the
/// binding evaluates ground terms of the algebra by running the real
/// code, so a testgen campaign (testgen/TestGen.h) can check every axiom
/// against the implementation. It is also the other half of "implementations and
/// specifications are interchangeable": Session interprets the spec,
/// ModelBinding runs the code, both evaluate the same terms.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_MODEL_MODELBINDING_H
#define ALGSPEC_MODEL_MODELBINDING_H

#include "ast/Ids.h"
#include "model/Value.h"
#include "support/Error.h"

#include <functional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace algspec {

class AlgebraContext;
class Spec;

/// Evaluates ground terms by dispatching operations to bound callables.
///
/// Built-in behaviour (no binding required):
///  - Bool literals/true/false/not/and/or, Int literals and arithmetic;
///  - atom literals evaluate to std::string of their name (overridable
///    per sort with bindAtoms);
///  - SAME compares through the equality bound for the argument sort
///    (defaults exist for Bool/Int/atom sorts);
///  - if-then-else is lazy in its branches, strict in its condition;
///  - error propagates strictly through every bound operation.
class ModelBinding {
public:
  using OpFn = std::function<Value(std::span<const Value>)>;
  using AtomFn = std::function<Value(std::string_view)>;
  using EqFn = std::function<bool(const Value &, const Value &)>;

  explicit ModelBinding(AlgebraContext &Ctx);

  /// Binds an operation to a callable. Arguments arrive error-free (the
  /// binding short-circuits); return Value::error() to signal the
  /// algebra's error (e.g. FRONT of an empty queue).
  void bindOp(OpId Op, OpFn Fn);
  /// Convenience: binds by unique operation name. Fails with a
  /// structured "unbound operation" diagnostic when the name is unknown
  /// or ambiguous in the context, so callers (the testgen obstruction
  /// report, the binding registry) can surface it instead of crashing.
  Result<void> bindOp(std::string_view Name, OpFn Fn);
  /// Like bindOp(Name), but resolves \p Name among the operations \p S
  /// declares before consulting the whole context — several loaded specs
  /// may declare the same operation name (Queue and Symboltable both
  /// have ADD), and a binding registry installs per spec.
  Result<void> bindOp(const Spec &S, std::string_view Name, OpFn Fn);

  /// Overrides how atom literals of \p Sort become runtime values.
  void bindAtoms(SortId Sort, AtomFn Fn);

  /// Registers equality for values of \p Sort (needed for SAME on that
  /// sort and for comparing axiom sides of that sort).
  void bindEquals(SortId Sort, EqFn Fn);

  /// Evaluates a ground term. Fails (Result error) on unbound operations
  /// or non-ground terms; in-algebra errors come back as
  /// Value::error().
  Result<Value> evaluate(TermId Term);

  /// Compares two values of \p Sort; errors compare equal to errors
  /// only. Fails when no equality is bound for the sort.
  Result<bool> equal(SortId Sort, const Value &A, const Value &B);

  /// True when equal() can decide \p Sort: an explicit bindEquals, or a
  /// default (Bool, Int, and atom sorts in their default string
  /// representation). The testgen oracle layer keys on this to choose
  /// between direct comparison and observable-context oracles.
  bool hasEquality(SortId Sort) const;

  /// True when evaluate() could dispatch \p Op somewhere: an explicit
  /// binding, a builtin (arithmetic, SAME, ite, ...), or the boolean
  /// constants.
  bool isBoundOrBuiltin(OpId Op) const;

  /// The operations of \p S that evaluate() cannot dispatch, in
  /// declaration order — testgen reports these as named obstructions
  /// before running a campaign.
  std::vector<OpId> unboundOps(const Spec &S) const;

  AlgebraContext &context() { return Ctx; }

private:
  AlgebraContext &Ctx;
  std::unordered_map<OpId, OpFn> Ops;
  std::unordered_map<SortId, AtomFn> Atoms;
  std::unordered_map<SortId, EqFn> Equals;
};

} // namespace algspec

#endif // ALGSPEC_MODEL_MODELBINDING_H
