//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AlgSpec umbrella API: one include for the common workflow
///
///   load specs -> check completeness/consistency -> execute or verify.
///
/// The fine-grained headers remain the primary API; this facade wires the
/// usual pipeline together for tools and examples.
///
//===----------------------------------------------------------------------===//

#ifndef ALGSPEC_CORE_ALGSPEC_H
#define ALGSPEC_CORE_ALGSPEC_H

#include "ast/AlgebraContext.h"
#include "ast/Spec.h"
#include "ast/SpecPrinter.h"
#include "ast/TermPrinter.h"
#include "check/Completeness.h"
#include "check/Consistency.h"
#include "check/Convergence.h"
#include "check/ErrorFlow.h"
#include "check/Exhaustiveness.h"
#include "check/Lint.h"
#include "check/Skeleton.h"
#include "check/Termination.h"
#include "interp/Session.h"
#include "model/ModelBinding.h"
#include "parser/Parser.h"
#include "rewrite/Engine.h"
#include "specs/BuiltinSpecs.h"
#include "support/Diagnostic.h"
#include "support/SourceMgr.h"
#include "verify/RepVerifier.h"

#include <memory>
#include <string>
#include <vector>

namespace algspec {

/// A context plus every spec loaded into it, with the standard checks a
/// spec author runs before trusting an axiom set.
class Workspace {
public:
  Workspace() : Ctx(std::make_unique<AlgebraContext>()) {}

  AlgebraContext &context() { return *Ctx; }

  /// Parses spec text into the workspace and appends the specs. The
  /// workspace keeps the source buffer so later diagnostics (lint
  /// findings) can render the offending line.
  Result<void> load(std::string_view Text,
                    std::string BufferName = "<spec>") {
    auto SM = std::make_unique<SourceMgr>(std::move(BufferName),
                                          std::string(Text));
    DiagnosticEngine Diags;
    std::vector<Spec> Parsed = parseSpecs(*Ctx, *SM, Diags);
    if (Diags.hasErrors())
      return makeError(Diags.render(SM.get()));
    Buffers.push_back(std::move(SM));
    for (Spec &S : Parsed) {
      Specs.push_back(std::move(S));
      SpecBuffer.push_back(Buffers.size() - 1);
    }
    return Result<void>();
  }

  const std::vector<Spec> &specs() const { return Specs; }

  /// Finds a loaded spec by name; nullptr when absent.
  const Spec *find(std::string_view Name) const {
    for (const Spec &S : Specs)
      if (S.name() == Name)
        return &S;
    return nullptr;
  }

  /// Static sufficient-completeness check of one loaded spec.
  CompletenessReport checkComplete(const Spec &S) {
    return checkCompleteness(*Ctx, S);
  }

  /// Consistency check over every loaded spec. A convergence certificate
  /// is computed first: when it proves the workspace confluent and
  /// terminating, the report upgrades to "proven consistent" and the
  /// critical-pair sweep is skipped. Short of that, \p EGraph controls
  /// the equality-saturation screen over the critical pairs.
  ConsistencyReport checkConsistent(unsigned GroundDepth = 2,
                                    ParallelOptions Par = ParallelOptions(),
                                    EngineOptions Eng = EngineOptions(),
                                    EqSatMode EGraph = EqSatMode::Auto) {
    ConvergenceReport Certificate = convergence(Eng);
    return checkConsistency(*Ctx, specPointers(), GroundDepth,
                            EnumeratorOptions(), Par, Eng, &Certificate,
                            EGraph);
  }

  /// Runs the standard lint passes over every loaded spec.
  LintReport lint() { return lintSpecs(*Ctx, specPointers()); }

  /// Attempts a recursive-path-ordering termination proof over every
  /// loaded spec's axioms.
  TerminationReport termination() {
    return proveTermination(*Ctx, specPointers());
  }

  /// Certifies convergence (confluence + termination) of the loaded
  /// specs' combined rule set.
  ConvergenceReport convergence(EngineOptions Eng = EngineOptions()) {
    ConvergenceOptions Options;
    Options.Engine = Eng;
    return certifyConvergence(*Ctx, specPointers(), Options);
  }

  /// Certifies static sufficient-completeness (constructor-case
  /// exhaustiveness) of every loaded spec's defined operations. A spec
  /// whose verdict is complete lets checkCompletenessDynamic skip its
  /// ground sweep.
  ExhaustivenessReport exhaustiveness(EngineOptions Eng = EngineOptions()) {
    ExhaustivenessOptions Options;
    Options.Engine = Eng;
    return certifyExhaustiveness(*Ctx, specPointers(), Options);
  }

  /// The source buffer \p S was parsed from; null for specs the workspace
  /// did not load itself.
  const SourceMgr *bufferFor(const Spec &S) const {
    for (size_t I = 0; I < Specs.size(); ++I)
      if (&Specs[I] == &S)
        return Buffers[SpecBuffer[I]].get();
    return nullptr;
  }

  /// Renders a lint report, resolving each finding's source buffer by its
  /// spec name (one workspace may hold buffers from several files).
  std::string renderLint(const LintReport &Report) const {
    std::string Out;
    for (const LintFinding &F : Report.Findings) {
      const Spec *S = find(F.SpecName);
      Out += renderFinding(F, S != nullptr ? bufferFor(*S) : nullptr);
    }
    return Out;
  }

  /// A symbolic-interpretation session over every loaded spec.
  Result<Session> session(EngineOptions Options = EngineOptions()) {
    return Session::create(*Ctx, specPointers(), Options);
  }

  /// Pointers to every loaded spec (valid until the next load()).
  std::vector<const Spec *> specPointers() const {
    std::vector<const Spec *> Ptrs;
    Ptrs.reserve(Specs.size());
    for (const Spec &S : Specs)
      Ptrs.push_back(&S);
    return Ptrs;
  }

private:
  std::unique_ptr<AlgebraContext> Ctx;
  std::vector<Spec> Specs;
  /// Buffers loaded so far; SpecBuffer[I] is the index of the buffer
  /// Specs[I] was parsed from.
  std::vector<std::unique_ptr<SourceMgr>> Buffers;
  std::vector<size_t> SpecBuffer;
};

} // namespace algspec

#endif // ALGSPEC_CORE_ALGSPEC_H
