//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Axiom-derived test campaigns against real implementations (Gaudel &
/// Le Gall, "Testing Data Types Implementations from Algebraic
/// Specifications").
///
/// The exhaustive test set of a spec is every ground instance of every
/// axiom — infinite. A campaign makes it finite under two explicit
/// hypotheses, each accounted for in the report:
///
///  - regularity: instances whose variable terms stay within a depth
///    bound stand in for all instances (the depth-bounded space is the
///    per-axiom accounting figure);
///  - uniformity (optional): one representative per variable/
///    constructor-case cell stands in for the whole cell — the cells
///    come from the same top-constructor case split the pattern-matrix
///    machinery uses.
///
/// A seeded-random mode samples the depth-bounded space instead of
/// enumerating it. Each planned instance is judged by an Oracle (bound
/// equality or observable contexts); a failing instance is shrunk to a
/// locally minimal counterexample and rendered with the spec-side
/// normal form against the implementation's answer. The instance sweep
/// shards over the parallel driver; reports are byte-identical at any
/// job count because the plan is generated serially up front and
/// failures are re-evaluated on the caller's binding in plan order.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_TESTGEN_TESTGEN_H
#define ALGSPEC_TESTGEN_TESTGEN_H

#include "check/TermEnumerator.h"
#include "support/Parallel.h"
#include "testgen/Oracle.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace algspec {

class AlgebraContext;
class JsonWriter;
class ModelBinding;
class RewriteEngine;
class Spec;

/// Tunables for one campaign.
struct TestGenOptions {
  /// Regularity hypothesis: depth bound for variable instantiations.
  unsigned MaxDepth = 3;
  /// Cap on planned instances per axiom.
  size_t MaxInstancesPerAxiom = 50000;
  /// When nonzero, sample this many instances per axiom from the
  /// depth-bounded space (seeded by Seed) instead of enumerating it.
  size_t RandomCount = 0;
  uint64_t Seed = 0;
  /// Uniformity hypothesis: keep one representative per
  /// variable/constructor-case cell (ignored in random mode).
  bool Uniformity = false;
  /// Force observer-context oracles even where an equality is bound.
  bool ForceObservers = false;
  OracleOptions Oracles;
  EnumeratorOptions Enum;
  /// Parallel sharding of the instance sweep; reports are byte-identical
  /// at any job count. Takes effect only with a BindingFactory.
  ParallelOptions Par;
  /// Builds a fresh binding over a worker's replica. A ModelBinding
  /// wraps arbitrary user callables, so it cannot be copied the way specs
  /// can; the factory re-binds the implementation against the replica
  /// context and its re-elaborated specs (operation names resolve per
  /// spec, not globally). Returning null falls the worker back to
  /// flagging its whole shard for the caller to re-judge.
  ///
  /// Concurrency contract: the factory is invoked lazily from pool
  /// worker threads, so it must be safe to call concurrently, and the
  /// bindings it returns are evaluated concurrently over disjoint
  /// instance shards. Workers evaluate every instance of their shard on
  /// replica bindings, and the caller's binding then re-judges only the
  /// flagged instances during the merge, whereas the serial sweep
  /// evaluates every instance up to the first failure on the caller's
  /// binding. The byte-identical-report guarantee therefore holds only
  /// for deterministic, effectively stateless bindings whose results do
  /// not depend on evaluation order or on which binding instance runs
  /// them.
  std::function<std::unique_ptr<ModelBinding>(AlgebraContext &,
                                              std::span<const Spec>)>
      BindingFactory;
  /// When set, failures carry the spec-side normal form of the failing
  /// instance (what the axioms say the answer is).
  RewriteEngine *SpecEngine = nullptr;
};

/// A shrunk counterexample, fully rendered.
struct TestGenFailure {
  /// "q := ADD(NEW, 'item1), i := 'item2" — the shrunk assignment.
  std::string Assignment;
  std::string Lhs; ///< Instantiated left side.
  std::string Rhs; ///< Instantiated right side.
  /// Spec-side normal form of the instantiated left side (empty without
  /// a SpecEngine).
  std::string SpecNormalForm;
  /// What the implementation answered: observable values, or the
  /// distinguishing observation.
  std::string ImplAnswer;
  uint64_t ShrinkSteps = 0;
};

/// Per-axiom campaign outcome, with per-hypothesis accounting.
struct AxiomCampaign {
  unsigned AxiomNumber = 0;
  bool Passed = true;
  bool Skipped = false; ///< Uninhabited sort; no instances exist.
  /// Regularity accounting: the full depth-bounded ground space
  /// (clamped at uint64 max on overflow).
  uint64_t SpaceAtDepth = 0;
  /// Instances selected after uniformity/random/cap.
  uint64_t Planned = 0;
  /// Instances executed (plan order; stops at the first failure).
  uint64_t Run = 0;
  /// Uniformity accounting: product of per-variable cell counts (0 when
  /// the hypothesis is off).
  uint64_t UniformityCells = 0;
  bool UsedObservers = false;
  uint64_t ObserverContexts = 0;
  std::optional<TestGenFailure> Failure;
};

/// A named reason the campaign could not run (unbound operations, an
/// undecidable sort) — reported instead of crashing.
struct TestGenObstruction {
  std::string Name;
  std::string Detail;
};

/// Outcome of a whole campaign over one spec.
struct TestGenReport {
  std::string SpecName;
  /// Human-readable implementation name (filled by the caller; the
  /// registry rows carry one).
  std::string Impl;
  bool AllPassed = true; ///< False on any failure or obstruction.
  std::vector<TestGenObstruction> Obstructions;
  std::vector<AxiomCampaign> Axioms;
  std::vector<std::string> Caveats;

  // Campaign totals. Deterministic counts only — no engine counters, no
  // job counts — so reports diff byte-identically across build types,
  // sanitizers, and --jobs values.
  uint64_t TotalPlanned = 0;
  uint64_t TotalRun = 0;
  uint64_t TotalFailures = 0;
  uint64_t TotalShrinkSteps = 0;
  uint64_t TotalObserverContexts = 0;
  uint64_t TotalUniformityCells = 0;

  std::string render(const TestGenOptions &Options) const;
  void writeJson(JsonWriter &W, const TestGenOptions &Options) const;
};

/// Runs the campaign for \p S against \p Binding. \p AllSpecs is the
/// whole loaded workspace — observer contexts may observe through any
/// spec's operations, and parallel workers replicate the full set.
TestGenReport runTestGen(AlgebraContext &Ctx, const Spec &S,
                         std::span<const Spec *const> AllSpecs,
                         ModelBinding &Binding,
                         const TestGenOptions &Options = TestGenOptions());

} // namespace algspec

#endif // ALGSPEC_TESTGEN_TESTGEN_H
