//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The algspec command-line driver.
///
///   algspec check <file.alg>...          parse + completeness + consistency
///                                        + termination verdicts
///   algspec lint  <file.alg>...          static-analysis lint passes and
///                                        the RPO termination prover
///   algspec analyze <file.alg>...        error-flow analysis: per-operation
///                                        definedness summaries and the
///                                        inferred preconditions
///   algspec eval  <file.alg> -e <term>   normalize a term against the specs
///   algspec run   <file.alg> <prog>      run an assignment program (x := ...)
///   algspec trace <file.alg> -e <term>   normalize, printing every step
///   algspec enum  <file.alg> -s <sort> -d <depth>
///                                        enumerate ground constructor terms
///   algspec testgen --builtin <name>...  run axiom-derived test campaigns
///                                        against the registered C++ ADT
///                                        implementations
///   algspec axioms <file.alg>            pretty-print the parsed axioms
///
/// `--builtin <name>` (queue, symboltable, stackarray, knowlist,
/// knows_symboltable, nat, set, list, bag, bst, table, boundedqueue,
/// symboltable_impl) loads an embedded paper spec instead of (or in
/// addition to) files.
///
//===----------------------------------------------------------------------===//

#include "adt/Bindings.h"
#include "check/ErrorFlow.h"
#include "core/AlgSpec.h"
#include "model/ModelBinding.h"
#include "testgen/TestGen.h"
#include "server/Client.h"
#include "server/Server.h"
#include "server/Version.h"
#include "support/Json.h"
#include "support/SourceMgr.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
// This is tool code, not library code: std::cin is the natural way to
// support `algspec run specs.alg -`.
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace algspec;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: algspec <command> [options] [files...]\n"
      "\n"
      "commands:\n"
      "  check   parse the specs, then run the sufficient-completeness\n"
      "          and consistency checkers and the termination prover\n"
      "  lint    run the static-analysis lint passes (unused variables,\n"
      "          unbound RHS variables, non-left-linear patterns,\n"
      "          subsumed axioms, constructor discipline, unused\n"
      "          declarations, error-flow rules) and the RPO termination\n"
      "          prover\n"
      "  analyze run the error-flow analysis: per-operation definedness\n"
      "          summaries (never/may/always-error per constructor case)\n"
      "          and the inferred definedness obligations\n"
      "  axioms  pretty-print every parsed spec and its axioms\n"
      "  eval    normalize a term: algspec eval q.alg -e 'FRONT(ADD(NEW, "
      "'x))'\n"
      "  trace   like eval, printing each rewrite step\n"
      "  run     execute an assignment program file (or - for stdin)\n"
      "  enum    enumerate ground terms: algspec enum q.alg -s Queue -d 3\n"
      "  testgen compile the loaded specs into axiom-derived test\n"
      "          campaigns and run them against the registered C++ ADT\n"
      "          implementations (depth bound -d; --uniformity or\n"
      "          --random <n> shrink the instance set under explicit\n"
      "          hypotheses; --mutant <name> seeds a known bug)\n"
      "  skeleton  generate the axiom left-hand sides a new spec needs\n"
      "            (one per defined-op/constructor pair)\n"
      "  fmt     reprint the specs in canonical form\n"
      "  verify  check a representation: --abstract <spec> --rep-sort\n"
      "          <sort> --phi <op> --map ABSTRACT=IMPL... [--free]\n"
      "          [--invariant <op>] [--hom] [-d <depth>]\n"
      "  serve   run the request daemon: --listen unix:<path> and/or\n"
      "          --listen tcp:<host>:<port> [--workers <n>]\n"
      "          [--queue-max <n>] [--cache-max <n>] [--max-steps <n>]\n"
      "          [--deadline-ms <n>]\n"
      "  client  talk to a daemon: --connect <addr> followed by hello,\n"
      "          stats, or a command with its usual flags; or\n"
      "          --stress NxM for the differential load driver\n"
      "  version print the build identification (also reported by the\n"
      "          serve protocol's hello handshake)\n"
      "\n"
      "options:\n"
      "  --builtin <name>   load an embedded paper spec (queue,\n"
      "                     symboltable, stackarray, knowlist,\n"
      "                     knows_symboltable, nat, set, list, bag,\n"
      "                     bst, table, boundedqueue, symboltable_impl)\n"
      "  -e <term>          the term for eval/trace\n"
      "  -s <sort>          the sort for enum\n"
      "  -d <depth>         the depth for enum (default 3)\n"
      "  --dynamic <depth>  also run the dynamic completeness check\n"
      "  --jobs <n>         worker threads for the check/verify instance\n"
      "                     sweeps (0 = hardware concurrency, the\n"
      "                     default; reports are identical at any n)\n"
      "  --engine <which>   rewrite engine: 'compiled' (matching\n"
      "                     automata + RHS templates, the default) or\n"
      "                     'interp' (the reference interpreter);\n"
      "                     results are identical either way\n"
      "  --egraph <mode>    equality-saturation oracle behind the\n"
      "                     check/verify sweeps: 'auto' (when the\n"
      "                     convergence gate licenses it, the default),\n"
      "                     'off', or 'on' (saturation counters even\n"
      "                     ungated); verdicts are identical either way\n"
      "  --json             machine-readable output (check, lint,\n"
      "                     analyze, verify, testgen)\n"
      "  --random <n>       testgen: sample n instances per axiom from\n"
      "                     the depth-bounded space instead of\n"
      "                     enumerating it (deterministic under --seed)\n"
      "  --seed <n>         testgen: seed for --random (default 0)\n"
      "  --uniformity       testgen: keep one representative per\n"
      "                     variable/constructor-case cell\n"
      "  --oracle <which>   testgen: 'auto' (bound equality where\n"
      "                     available, the default) or 'observers'\n"
      "                     (observable-context oracles even where an\n"
      "                     equality is bound)\n"
      "  --mutant <name>    testgen: install a seeded implementation\n"
      "                     bug (the campaign should catch it)\n"
      "  --Werror           lint/analyze: treat warnings as errors\n"
      "  --listen <addr>    serve: listen address (repeatable)\n"
      "  --connect <addr>   client: daemon address\n"
      "  --stress NxM       client: N connections x M requests each\n"
      "  --workers <n>      serve: worker threads (0 = hw concurrency)\n"
      "  --queue-max <n>    serve: queue high-water mark (default 64)\n"
      "  --cache-max <n>    serve: workspace-cache entries (default 16)\n"
      "  --max-steps <n>    serve: per-request engine fuel cap\n"
      "  --deadline-ms <n>  client: per-request deadline;\n"
      "                     serve: default deadline for requests\n"
      "                     that carry none\n");
  return 2;
}

Result<std::string> readFile(const std::string &Path) {
  if (Path == "-") {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    return Buffer.str();
  }
  std::ifstream In(Path);
  if (!In)
    return makeError("cannot open '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

struct Options {
  std::string Command;
  std::vector<std::string> Files;
  std::vector<std::string> Builtins;
  std::string TermText;
  std::string SortName;
  unsigned Depth = 3;
  int DynamicDepth = -1;
  unsigned Jobs = 0; ///< 0 = hardware concurrency.
  /// --engine: compiled automata (default) vs the reference interpreter.
  bool CompileEngine = true;
  /// --egraph: the equality-saturation oracle mode.
  EqSatMode EGraph = EqSatMode::Auto;
  bool Json = false;
  bool WarningsAsErrors = false;
  // verify options.
  std::string AbstractSpec;
  std::string RepSort;
  std::string PhiName;
  std::vector<std::pair<std::string, std::string>> OpMap;
  std::string InvariantName;
  bool FreeDomain = false;
  bool Homomorphism = false;
  // testgen options.
  size_t RandomCount = 0;
  uint64_t Seed = 0;
  bool Uniformity = false;
  bool ForceObservers = false;
  std::string Mutant;
  // serve/client options.
  std::vector<std::string> ListenAddrs;
  std::string ConnectAddr;
  std::string StressSpec; ///< "NxM"; empty = single-shot client.
  unsigned ServeWorkers = 0;
  unsigned QueueMax = 64;
  unsigned CacheMax = 16;
  uint64_t MaxSteps = 0;
  int64_t DeadlineMs = 0;
};

/// Reads \p Text into \p Into when it is a plain decimal integer that
/// fits the field's type: no sign, no other character, not empty.
template <typename T> bool readCount(std::string_view Text, T &Into) {
  const char *End = Text.data() + Text.size();
  uint64_t Value = 0;
  auto [Stop, Ec] = std::from_chars(Text.data(), End, Value);
  if (Text.empty() || Ec != std::errc() || Stop != End ||
      Value > static_cast<uint64_t>(std::numeric_limits<T>::max()))
    return false;
  Into = static_cast<T>(Value);
  return true;
}

/// Reads the value \p Text of numeric flag \p Flag into \p Into; any
/// value readCount rejects is a usage error naming the flag.
template <typename T>
bool parseCount(const char *Flag, const char *Text, T &Into) {
  if (readCount(Text, Into))
    return true;
  std::fprintf(stderr, "error: %s wants an integer from 0 to %llu, got '%s'\n",
               Flag,
               static_cast<unsigned long long>(std::numeric_limits<T>::max()),
               Text);
  return false;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  if (Argc < 2)
    return false;
  Opts.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto needValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    auto count = [&](const char *Flag, auto &Into) {
      const char *V = needValue(Flag);
      return V && parseCount(Flag, V, Into);
    };
    if (Arg == "--builtin") {
      const char *V = needValue("--builtin");
      if (!V)
        return false;
      Opts.Builtins.push_back(V);
    } else if (Arg == "-e") {
      const char *V = needValue("-e");
      if (!V)
        return false;
      Opts.TermText = V;
    } else if (Arg == "-s") {
      const char *V = needValue("-s");
      if (!V)
        return false;
      Opts.SortName = V;
    } else if (Arg == "-d") {
      if (!count("-d", Opts.Depth))
        return false;
    } else if (Arg == "--dynamic") {
      if (!count("--dynamic", Opts.DynamicDepth))
        return false;
    } else if (Arg == "--jobs") {
      if (!count("--jobs", Opts.Jobs))
        return false;
    } else if (Arg == "--engine" || Arg.rfind("--engine=", 0) == 0) {
      // Both `--engine interp` and `--engine=interp` are accepted; the
      // inline form is what the docs show.
      std::string Which;
      if (Arg == "--engine") {
        const char *V = needValue("--engine");
        if (!V)
          return false;
        Which = V;
      } else {
        Which = Arg.substr(std::string("--engine=").size());
      }
      if (Which == "compiled") {
        Opts.CompileEngine = true;
      } else if (Which == "interp") {
        Opts.CompileEngine = false;
      } else {
        std::fprintf(stderr,
                     "error: --engine wants 'compiled' or 'interp'\n");
        return false;
      }
    } else if (Arg == "--egraph" || Arg.rfind("--egraph=", 0) == 0) {
      std::string Mode;
      if (Arg == "--egraph") {
        const char *V = needValue("--egraph");
        if (!V)
          return false;
        Mode = V;
      } else {
        Mode = Arg.substr(std::string("--egraph=").size());
      }
      if (Mode == "auto") {
        Opts.EGraph = EqSatMode::Auto;
      } else if (Mode == "off") {
        Opts.EGraph = EqSatMode::Off;
      } else if (Mode == "on") {
        Opts.EGraph = EqSatMode::On;
      } else {
        std::fprintf(stderr,
                     "error: --egraph wants 'on', 'off', or 'auto'\n");
        return false;
      }
    } else if (Arg == "--abstract") {
      const char *V = needValue("--abstract");
      if (!V)
        return false;
      Opts.AbstractSpec = V;
    } else if (Arg == "--rep-sort") {
      const char *V = needValue("--rep-sort");
      if (!V)
        return false;
      Opts.RepSort = V;
    } else if (Arg == "--phi") {
      const char *V = needValue("--phi");
      if (!V)
        return false;
      Opts.PhiName = V;
    } else if (Arg == "--map") {
      const char *V = needValue("--map");
      if (!V)
        return false;
      std::string Pair = V;
      size_t Eq = Pair.find('=');
      if (Eq == std::string::npos) {
        std::fprintf(stderr, "error: --map wants ABSTRACT=IMPL\n");
        return false;
      }
      Opts.OpMap.emplace_back(Pair.substr(0, Eq), Pair.substr(Eq + 1));
    } else if (Arg == "--invariant") {
      const char *V = needValue("--invariant");
      if (!V)
        return false;
      Opts.InvariantName = V;
    } else if (Arg == "--free") {
      Opts.FreeDomain = true;
    } else if (Arg == "--hom") {
      Opts.Homomorphism = true;
    } else if (Arg == "--random") {
      if (!count("--random", Opts.RandomCount))
        return false;
    } else if (Arg == "--seed") {
      if (!count("--seed", Opts.Seed))
        return false;
    } else if (Arg == "--uniformity") {
      Opts.Uniformity = true;
    } else if (Arg == "--oracle" || Arg.rfind("--oracle=", 0) == 0) {
      std::string Which;
      if (Arg == "--oracle") {
        const char *V = needValue("--oracle");
        if (!V)
          return false;
        Which = V;
      } else {
        Which = Arg.substr(std::string("--oracle=").size());
      }
      if (Which == "auto") {
        Opts.ForceObservers = false;
      } else if (Which == "observers") {
        Opts.ForceObservers = true;
      } else {
        std::fprintf(stderr,
                     "error: --oracle wants 'auto' or 'observers'\n");
        return false;
      }
    } else if (Arg == "--mutant") {
      const char *V = needValue("--mutant");
      if (!V)
        return false;
      Opts.Mutant = V;
    } else if (Arg == "--listen") {
      const char *V = needValue("--listen");
      if (!V)
        return false;
      Opts.ListenAddrs.push_back(V);
    } else if (Arg == "--connect") {
      const char *V = needValue("--connect");
      if (!V)
        return false;
      Opts.ConnectAddr = V;
    } else if (Arg == "--stress") {
      const char *V = needValue("--stress");
      if (!V)
        return false;
      Opts.StressSpec = V;
    } else if (Arg == "--workers") {
      if (!count("--workers", Opts.ServeWorkers))
        return false;
    } else if (Arg == "--queue-max") {
      if (!count("--queue-max", Opts.QueueMax))
        return false;
    } else if (Arg == "--cache-max") {
      if (!count("--cache-max", Opts.CacheMax))
        return false;
    } else if (Arg == "--max-steps") {
      if (!count("--max-steps", Opts.MaxSteps))
        return false;
    } else if (Arg == "--deadline-ms") {
      if (!count("--deadline-ms", Opts.DeadlineMs))
        return false;
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (Arg == "--Werror") {
      Opts.WarningsAsErrors = true;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    } else {
      Opts.Files.push_back(Arg);
    }
  }
  return true;
}

/// Loads every requested builtin and file into \p WS. Returns false (with
/// diagnostics printed) on any failure.
bool loadAll(Workspace &WS, const Options &Opts,
             const std::vector<std::string> &Files) {
  for (const std::string &Name : Opts.Builtins) {
    std::string_view Text = server::builtinSpecText(Name);
    if (Text.empty()) {
      std::fprintf(stderr, "error: unknown builtin spec '%s'\n",
                   Name.c_str());
      return false;
    }
    if (Result<void> R = WS.load(Text, Name + ".alg"); !R) {
      std::fprintf(stderr, "%s", R.error().message().c_str());
      return false;
    }
  }
  for (const std::string &Path : Files) {
    Result<std::string> Text = readFile(Path);
    if (!Text) {
      std::fprintf(stderr, "error: %s\n", Text.error().message().c_str());
      return false;
    }
    if (Result<void> R = WS.load(*Text, Path); !R) {
      std::fprintf(stderr, "%s", R.error().message().c_str());
      return false;
    }
  }
  if (WS.specs().empty()) {
    std::fprintf(stderr, "error: no specs loaded; pass files or "
                         "--builtin\n");
    return false;
  }
  return true;
}


int cmdAxioms(Workspace &WS) {
  for (const Spec &S : WS.specs()) {
    std::printf("spec %s\n", S.name().c_str());
    for (OpId Op : S.operations()) {
      const OpInfo &Info = WS.context().op(Op);
      std::string Domain;
      for (size_t I = 0; I != Info.ArgSorts.size(); ++I) {
        if (I)
          Domain += ", ";
        Domain += WS.context().sortName(Info.ArgSorts[I]);
      }
      std::printf("  %s%-14s : %s -> %s\n",
                  Info.isConstructor() ? "*" : " ",
                  std::string(WS.context().opName(Op)).c_str(),
                  Domain.c_str(),
                  std::string(WS.context().sortName(Info.ResultSort))
                      .c_str());
    }
    for (const Axiom &Ax : S.axioms())
      std::printf("  (%u) %s\n", Ax.Number,
                  printAxiom(WS.context(), Ax).c_str());
    std::printf("(* marks constructors)\n\n");
  }
  return 0;
}


int cmdRun(Workspace &WS, const Options &Opts,
           const std::string &ProgramPath) {
  Result<std::string> Program = readFile(ProgramPath);
  if (!Program) {
    std::fprintf(stderr, "error: %s\n", Program.error().message().c_str());
    return 1;
  }
  EngineOptions EngineOpts;
  EngineOpts.Compile = Opts.CompileEngine;
  auto SessionOrErr = WS.session(EngineOpts);
  if (!SessionOrErr) {
    std::fprintf(stderr, "%s\n", SessionOrErr.error().message().c_str());
    return 1;
  }
  Session S = SessionOrErr.take();
  if (Result<void> R = S.runProgram(*Program); !R) {
    std::fprintf(stderr, "error: %s\n", R.error().message().c_str());
    return 1;
  }
  // Print the final value of every register assigned by the program, in
  // program order of first assignment (approximated by scanning lines).
  std::string Line;
  std::istringstream In(*Program);
  std::vector<std::string> Printed;
  while (std::getline(In, Line)) {
    size_t Pos = Line.find(":=");
    if (Pos == std::string::npos)
      continue;
    std::string Name = Line.substr(0, Pos);
    Name.erase(0, Name.find_first_not_of(" \t"));
    Name.erase(Name.find_last_not_of(" \t") + 1);
    if (Name.empty() ||
        std::find(Printed.begin(), Printed.end(), Name) != Printed.end())
      continue;
    Printed.push_back(Name);
    TermId Value = S.lookup(Name);
    if (Value.isValid())
      std::printf("%s = %s\n", Name.c_str(),
                  printTerm(WS.context(), Value).c_str());
  }
  (void)Opts;
  return 0;
}


int cmdEnum(Workspace &WS, const Options &Opts) {
  if (Opts.SortName.empty()) {
    std::fprintf(stderr, "error: enum needs -s <sort>\n");
    return 2;
  }
  SortId Sort = WS.context().lookupSort(Opts.SortName);
  if (!Sort.isValid()) {
    std::fprintf(stderr, "error: unknown sort '%s'\n",
                 Opts.SortName.c_str());
    return 1;
  }
  TermEnumerator Enumerator(WS.context());
  const std::vector<TermId> &Terms = Enumerator.enumerate(Sort, Opts.Depth);
  for (TermId Term : Terms)
    std::printf("%s\n", printTerm(WS.context(), Term).c_str());
  std::fprintf(stderr, "%zu term(s) of sort %s up to depth %u%s\n",
               Terms.size(), Opts.SortName.c_str(), Opts.Depth,
               Enumerator.wasTruncated(Sort, Opts.Depth) ? " (truncated)"
                                                         : "");
  return 0;
}

/// `algspec testgen`: compile every loaded spec into an axiom-derived
/// test campaign and run it against the C++ implementation the registry
/// binds to that spec name. Exit 0 when every campaign passes, 1 on any
/// counterexample or obstruction, 2 on usage errors.
int cmdTestgen(Workspace &WS, const Options &Opts) {
  if (Opts.Uniformity && Opts.RandomCount) {
    std::fprintf(stderr, "error: --uniformity and --random are different "
                         "selection hypotheses; pick one\n");
    return 2;
  }
  if (!Opts.Mutant.empty()) {
    bool Known = false;
    for (const adt::AdtBinding &Row : adt::adtBindings())
      for (const adt::MutantInfo &M : Row.Mutants)
        Known |= M.Name == Opts.Mutant;
    if (!Known) {
      std::fprintf(stderr, "error: unknown mutant '%s'; known mutants:\n",
                   Opts.Mutant.c_str());
      for (const adt::AdtBinding &Row : adt::adtBindings())
        for (const adt::MutantInfo &M : Row.Mutants)
          std::fprintf(stderr, "  %s (%s): %s\n",
                       std::string(M.Name).c_str(),
                       std::string(Row.SpecName).c_str(),
                       std::string(M.Description).c_str());
      return 2;
    }
  }

  // Spec-side engine, so counterexamples carry the normal form the
  // axioms compute for the failing instance.
  EngineOptions EngineOpts;
  EngineOpts.Compile = Opts.CompileEngine;
  auto SessionOrErr = WS.session(EngineOpts);
  if (!SessionOrErr) {
    std::fprintf(stderr, "%s\n", SessionOrErr.error().message().c_str());
    return 1;
  }
  Session Sess = SessionOrErr.take();

  TestGenOptions TG;
  TG.MaxDepth = Opts.Depth;
  TG.RandomCount = Opts.RandomCount;
  TG.Seed = Opts.Seed;
  TG.Uniformity = Opts.Uniformity;
  TG.ForceObservers = Opts.ForceObservers;
  TG.Par.Jobs = Opts.Jobs;
  TG.SpecEngine = &Sess.engine();

  std::vector<const Spec *> AllSpecs = WS.specPointers();
  bool AllPassed = true;
  uint64_t Planned = 0, Run = 0, Failures = 0, ShrinkSteps = 0;
  JsonWriter W;
  if (Opts.Json) {
    W.beginObject();
    W.key("command").value("testgen");
    W.key("specs").beginArray();
  }
  for (const Spec &S : WS.specs()) {
    TestGenReport Report;
    const adt::AdtBinding *Row = adt::findAdtBinding(S.name());
    if (!Row) {
      Report.SpecName = S.name();
      Report.AllPassed = false;
      Report.Obstructions.push_back(
          {"unknown-implementation",
           "no C++ implementation is registered for spec '" + S.name() +
               "'"});
    } else {
      // The mutant applies only to the row that declares it; the other
      // campaigns run against the healthy implementations.
      std::string_view Mutant;
      for (const adt::MutantInfo &M : Row->Mutants)
        if (M.Name == Opts.Mutant)
          Mutant = Opts.Mutant;
      ModelBinding B(WS.context());
      if (Result<void> R = Row->Install(B, S, Mutant); !R) {
        Report.SpecName = S.name();
        Report.Impl = Row->Impl;
        Report.AllPassed = false;
        Report.Obstructions.push_back(
            {"binding-install", R.error().message()});
      } else {
        TestGenOptions Local = TG;
        Local.BindingFactory =
            [Row, Mutant, SpecName = S.name()](AlgebraContext &RCtx,
                                               std::span<const Spec> RSpecs)
            -> std::unique_ptr<ModelBinding> {
          const Spec *RS = nullptr;
          for (const Spec &Candidate : RSpecs)
            if (Candidate.name() == SpecName)
              RS = &Candidate;
          if (!RS)
            return nullptr;
          auto RB = std::make_unique<ModelBinding>(RCtx);
          if (!Row->Install(*RB, *RS, Mutant))
            return nullptr;
          return RB;
        };
        Report = runTestGen(WS.context(), S, AllSpecs, B, Local);
        Report.Impl = Row->Impl;
      }
    }
    AllPassed &= Report.AllPassed;
    Planned += Report.TotalPlanned;
    Run += Report.TotalRun;
    Failures += Report.TotalFailures;
    ShrinkSteps += Report.TotalShrinkSteps;
    if (Opts.Json)
      Report.writeJson(W, TG);
    else
      std::printf("%s", Report.render(TG).c_str());
  }
  if (Opts.Json) {
    W.endArray();
    W.key("stats").beginObject();
    W.key("campaign").beginObject();
    W.key("planned").value(Planned);
    W.key("run").value(Run);
    W.key("failures").value(Failures);
    W.key("shrinkSteps").value(ShrinkSteps);
    W.endObject();
    W.endObject();
    W.endObject();
    std::printf("%s\n", W.str().c_str());
  }
  return AllPassed ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// The servable subcommands (check, lint, analyze, eval, trace, verify)
// run through the shared command layer in src/server/Commands — the
// same code `algspec serve` dispatches, which is what makes a served
// response byte-identical to the one-shot CLI by construction.
//===----------------------------------------------------------------------===//

/// Resolves builtins and reads files into the command layer's source
/// list, printing the CLI's usual diagnostics on failure.
bool gatherSources(const Options &Opts,
                   const std::vector<std::string> &Files,
                   std::vector<server::SourceFile> &Out) {
  for (const std::string &Name : Opts.Builtins) {
    std::string_view Text = server::builtinSpecText(Name);
    if (Text.empty()) {
      std::fprintf(stderr, "error: unknown builtin spec '%s'\n",
                   Name.c_str());
      return false;
    }
    Out.push_back({Name + ".alg", std::string(Text)});
  }
  for (const std::string &Path : Files) {
    Result<std::string> Text = readFile(Path);
    if (!Text) {
      std::fprintf(stderr, "error: %s\n", Text.error().message().c_str());
      return false;
    }
    Out.push_back({Path, Text.take()});
  }
  return true;
}

server::CommandOptions toCommandOptions(const Options &Opts) {
  server::CommandOptions C;
  C.TermText = Opts.TermText;
  C.Depth = Opts.Depth;
  C.DynamicDepth = Opts.DynamicDepth;
  C.Jobs = Opts.Jobs;
  C.CompileEngine = Opts.CompileEngine;
  C.EGraph = Opts.EGraph;
  C.Json = Opts.Json;
  C.WarningsAsErrors = Opts.WarningsAsErrors;
  C.AbstractSpec = Opts.AbstractSpec;
  C.RepSort = Opts.RepSort;
  C.PhiName = Opts.PhiName;
  C.OpMap = Opts.OpMap;
  C.InvariantName = Opts.InvariantName;
  C.FreeDomain = Opts.FreeDomain;
  C.Homomorphism = Opts.Homomorphism;
  return C;
}

int runServable(const Options &Opts) {
  server::CommandRequest R;
  R.Command = Opts.Command;
  if (!gatherSources(Opts, Opts.Files, R.Sources))
    return 1;
  R.Opts = toCommandOptions(Opts);
  server::CommandResult Res = server::runCommand(R);
  std::fwrite(Res.Out.data(), 1, Res.Out.size(), stdout);
  std::fwrite(Res.Err.data(), 1, Res.Err.size(), stderr);
  return Res.ExitCode;
}

int cmdVersion() {
  std::printf("algspec %s (%s build, %s engine)\n",
              server::gitVersion().c_str(), server::buildType().c_str(),
              server::defaultEngineName());
  return 0;
}

int cmdServe(const Options &Opts) {
  server::ServerOptions SO;
  for (const std::string &Text : Opts.ListenAddrs) {
    Result<SocketAddress> Addr = SocketAddress::parse(Text);
    if (!Addr) {
      std::fprintf(stderr, "error: %s\n", Addr.error().message().c_str());
      return 2;
    }
    SO.Listen.push_back(*Addr);
  }
  if (SO.Listen.empty()) {
    std::fprintf(stderr, "error: serve needs --listen unix:<path> or "
                         "--listen tcp:<host>:<port>\n");
    return 2;
  }
  SO.Workers = Opts.ServeWorkers;
  SO.QueueMax = Opts.QueueMax;
  SO.CacheMaxEntries = Opts.CacheMax;
  SO.MaxSteps = Opts.MaxSteps;
  SO.DefaultDeadlineMs = Opts.DeadlineMs;
  SO.Verbose = true;
  if (Result<void> R = server::serveForever(std::move(SO)); !R) {
    std::fprintf(stderr, "error: %s\n", R.error().message().c_str());
    return 1;
  }
  return 0;
}

int cmdClient(const Options &Opts) {
  if (Opts.ConnectAddr.empty()) {
    std::fprintf(stderr, "error: client needs --connect <addr>\n");
    return 2;
  }
  Result<SocketAddress> Addr = SocketAddress::parse(Opts.ConnectAddr);
  if (!Addr) {
    std::fprintf(stderr, "error: %s\n", Addr.error().message().c_str());
    return 2;
  }

  if (!Opts.StressSpec.empty()) {
    unsigned Connections = 0, Requests = 0;
    std::string_view Shape = Opts.StressSpec;
    size_t X = Shape.find('x');
    if (X == std::string_view::npos ||
        !readCount(Shape.substr(0, X), Connections) ||
        !readCount(Shape.substr(X + 1), Requests) || Connections == 0 ||
        Requests == 0) {
      std::fprintf(stderr, "error: --stress wants NxM, got '%s'\n",
                   Opts.StressSpec.c_str());
      return 2;
    }
    server::StressOptions SO;
    SO.Connections = Connections;
    SO.RequestsPerConnection = Requests;
    SO.Jobs = Opts.Jobs ? Opts.Jobs : 1;
    Result<server::StressReport> Report = server::runStress(*Addr, SO);
    if (!Report) {
      std::fprintf(stderr, "error: %s\n",
                   Report.error().message().c_str());
      return 1;
    }
    std::printf("stress: %llu sent, %llu byte-identical, %llu mismatched, "
                "%llu transport error(s); stats %s (%s)\n",
                static_cast<unsigned long long>(Report->Sent),
                static_cast<unsigned long long>(Report->Matched),
                static_cast<unsigned long long>(Report->Mismatched),
                static_cast<unsigned long long>(Report->TransportErrors),
                Report->StatsReconciled ? "reconciled" : "OFF",
                Report->StatsDetail.c_str());
    if (!Report->ok()) {
      if (!Report->FirstMismatch.empty())
        std::fprintf(stderr, "first failure: %s\n",
                     Report->FirstMismatch.c_str());
      return 1;
    }
    return 0;
  }

  if (Opts.Files.empty()) {
    std::fprintf(stderr, "error: client needs a request type (hello, "
                         "stats, or a command)\n");
    return 2;
  }
  std::string Type = Opts.Files.front();
  std::vector<std::string> Rest(Opts.Files.begin() + 1, Opts.Files.end());

  if (server::isControlRequest(Type)) {
    Result<server::WireResponse> Resp = server::requestOnce(
        *Addr, server::encodeControlRequest("", Type));
    if (!Resp) {
      std::fprintf(stderr, "error: %s\n", Resp.error().message().c_str());
      return 1;
    }
    std::printf("%s\n", Resp->Raw.c_str());
    return 0;
  }

  if (!server::isServableCommand(Type)) {
    std::fprintf(stderr, "error: unknown request type '%s'\n",
                 Type.c_str());
    return 2;
  }
  server::CommandRequest R;
  R.Command = Type;
  if (!gatherSources(Opts, Rest, R.Sources))
    return 1;
  R.Opts = toCommandOptions(Opts);
  Result<server::WireResponse> Resp = server::requestOnce(
      *Addr, server::encodeCommandRequest("", R, Opts.DeadlineMs));
  if (!Resp) {
    std::fprintf(stderr, "error: %s\n", Resp.error().message().c_str());
    return 1;
  }
  if (Resp->Type != "response") {
    std::fprintf(stderr, "error: server replied %s: %s\n",
                 Resp->ErrorCode.c_str(), Resp->ErrorMessage.c_str());
    return 1;
  }
  std::fwrite(Resp->Out.data(), 1, Resp->Out.size(), stdout);
  std::fwrite(Resp->Err.data(), 1, Resp->Err.size(), stderr);
  return Resp->Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage();

  if (server::isServableCommand(Opts.Command))
    return runServable(Opts);
  if (Opts.Command == "serve")
    return cmdServe(Opts);
  if (Opts.Command == "client")
    return cmdClient(Opts);
  if (Opts.Command == "version")
    return cmdVersion();

  Workspace WS;

  if (Opts.Command == "axioms") {
    if (!loadAll(WS, Opts, Opts.Files))
      return 1;
    return cmdAxioms(WS);
  }
  if (Opts.Command == "fmt") {
    if (!loadAll(WS, Opts, Opts.Files))
      return 1;
    for (const Spec &S : WS.specs())
      std::printf("%s\n", printSpec(WS.context(), S).c_str());
    return 0;
  }
  if (Opts.Command == "run") {
    // The last file is the program; the rest are specs.
    if (Opts.Files.empty() && Opts.Builtins.empty()) {
      std::fprintf(stderr, "error: run needs specs and a program file\n");
      return 2;
    }
    std::vector<std::string> SpecFiles = Opts.Files;
    if (SpecFiles.empty()) {
      std::fprintf(stderr, "error: run needs a program file\n");
      return 2;
    }
    std::string ProgramPath = SpecFiles.back();
    SpecFiles.pop_back();
    if (!loadAll(WS, Opts, SpecFiles))
      return 1;
    return cmdRun(WS, Opts, ProgramPath);
  }
  if (Opts.Command == "enum") {
    if (!loadAll(WS, Opts, Opts.Files))
      return 1;
    return cmdEnum(WS, Opts);
  }
  if (Opts.Command == "testgen") {
    if (!loadAll(WS, Opts, Opts.Files))
      return 1;
    return cmdTestgen(WS, Opts);
  }
  if (Opts.Command == "skeleton") {
    if (!loadAll(WS, Opts, Opts.Files))
      return 1;
    for (const Spec &S : WS.specs()) {
      std::printf("-- skeleton for spec %s\n", S.name().c_str());
      SkeletonReport Report = generateSkeletons(WS.context(), S);
      std::printf("%s\n", Report.render(WS.context()).c_str());
    }
    return 0;
  }
  return usage();
}
