//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Specification-based testing (paper, section 5): a module implementor
/// is handed nothing but the algebraic definition; a testgen campaign
/// replays every axiom instance up to a depth bound against the real
/// code. A correct FIFO queue passes every axiom; a queue with a LIFO
/// bug in REMOVE is caught, with a shrunk failing instance and the
/// answer the axioms give for it printed.
///
/// The Queue binding itself lives in the shared registry
/// (src/adt/Bindings.cpp) — the same wiring the Model tests and the
/// `algspec testgen` campaigns use — and the LIFO bug is its registered
/// "remove-lifo" mutant.
///
//===----------------------------------------------------------------------===//

#include "adt/Bindings.h"
#include "core/AlgSpec.h"
#include "testgen/TestGen.h"

#include <cstdio>
#include <string>

using namespace algspec;

int main() {
  Workspace WS;
  if (Result<void> R = WS.load(specs::QueueAlg, "queue.alg"); !R) {
    std::fprintf(stderr, "%s\n", R.error().message().c_str());
    return 1;
  }
  const Spec *Queue = WS.find("Queue");
  const adt::AdtBinding *Row = adt::findAdtBinding("Queue");
  if (!Queue || !Row) {
    std::fprintf(stderr, "Queue spec or binding registry row missing\n");
    return 1;
  }

  // The spec side of each counterexample: what the axioms say the
  // failing instance should have been.
  Result<Session> SpecSide = WS.session();
  if (!SpecSide) {
    std::fprintf(stderr, "%s\n", SpecSide.error().message().c_str());
    return 1;
  }
  TestGenOptions Options;
  Options.MaxDepth = 5;
  Options.SpecEngine = &SpecSide->engine();
  std::vector<const Spec *> All = WS.specPointers();

  std::printf("==== testing the correct FIFO implementation ====\n");
  {
    ModelBinding B(WS.context());
    if (Result<void> R = Row->Install(B, *Queue, ""); !R) {
      std::fprintf(stderr, "%s\n", R.error().message().c_str());
      return 1;
    }
    TestGenReport Report = runTestGen(WS.context(), *Queue, All, B, Options);
    std::printf("%s", Report.render(Options).c_str());
    if (!Report.AllPassed) {
      std::fprintf(stderr, "unexpected failure in the correct queue\n");
      return 1;
    }
  }

  std::printf("\n==== testing the buggy (LIFO-removing) implementation "
              "====\n");
  {
    ModelBinding B(WS.context());
    if (Result<void> R = Row->Install(B, *Queue, "remove-lifo"); !R) {
      std::fprintf(stderr, "%s\n", R.error().message().c_str());
      return 1;
    }
    TestGenReport Report = runTestGen(WS.context(), *Queue, All, B, Options);
    std::printf("%s", Report.render(Options).c_str());
    if (Report.TotalFailures == 0) {
      std::fprintf(stderr, "the axioms should have caught the bug\n");
      return 1;
    }
  }

  std::printf("\nThe axioms are the test oracle: the implementor never "
              "needed a hand-written expected output.\n");
  return 0;
}
