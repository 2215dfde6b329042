//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded request streams for the three workloads.
///
/// A pass holds a fixed count of every request class (the mix tables
/// below); the seed chooses which sources, deletions, depths and eval
/// terms fill those slots and the order of the pass. Fixed class counts
/// keep each latency quantile inside one class on every seed: see
/// perfbench/README.md for the sizing rule.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <deque>

using namespace perfbench;

namespace {

BenchRequest command(const std::string &Class, const std::string &Command,
                     const SourceSet &Set, unsigned Jobs) {
  BenchRequest R;
  R.Class = Class;
  R.Cmd.Command = Command;
  R.Cmd.Sources = Set.Files;
  R.Cmd.Opts.Jobs = Jobs;
  R.Want.Set = &Set;
  R.Want.Exit = Command == "check"  ? Set.CheckExit
                : Command == "lint" ? Set.LintExit
                                    : Set.AnalyzeExit;
  return R;
}

/// The paper's section-4 proof: Symboltable represented as a Stack of
/// Arrays. Over reachable values every axiom holds; over free terms
/// axioms 6 and 9 fail at NEWSTACK (the paper's Assumption 1); the
/// homomorphism form holds.
BenchRequest verify(const std::string &Domain, unsigned Depth,
                    unsigned Jobs) {
  BenchRequest R;
  R.Class = "verify-" + Domain;
  R.Variant = "d" + std::to_string(Depth);
  R.Cmd.Command = "verify";
  for (const char *Name : {"symboltable", "stackarray", "symboltable_impl"})
    R.Cmd.Sources.push_back(
        {std::string(Name) + ".alg",
         std::string(algspec::server::builtinSpecText(Name))});
  auto &O = R.Cmd.Opts;
  O.Jobs = Jobs;
  O.Depth = Depth;
  O.AbstractSpec = "Symboltable";
  O.RepSort = "Stack";
  O.PhiName = "PHI";
  O.OpMap = {{"INIT", "INIT_R"},         {"ENTERBLOCK", "ENTERBLOCK_R"},
             {"LEAVEBLOCK", "LEAVEBLOCK_R"}, {"ADD", "ADD_R"},
             {"IS_INBLOCK?", "IS_INBLOCK_R?"}, {"RETRIEVE", "RETRIEVE_R"}};
  O.FreeDomain = Domain == "free";
  O.Homomorphism = Domain == "hom";
  if (O.FreeDomain) {
    R.Want.Exit = 1;
    R.Want.FailingAxioms = {6, 9};
  }
  return R;
}

BenchRequest testgen(const std::string &Builtin, unsigned Depth,
                     const std::string &Mutant, unsigned Jobs) {
  BenchRequest R;
  R.Class = Mutant.empty() ? "testgen" : "testgen-mutant";
  R.Variant = (Mutant.empty() ? Builtin : Mutant) + "-d" +
              std::to_string(Depth);
  R.K = Kind::TestGen;
  R.Cmd.Command = "testgen";
  R.Cmd.Sources.push_back(
      {Builtin + ".alg",
       std::string(algspec::server::builtinSpecText(Builtin))});
  R.Cmd.Opts.Depth = Depth;
  R.Cmd.Opts.Jobs = Jobs;
  R.Mutant = Mutant;
  // Each mutant breaks exactly the axiom that defines the mutated
  // operation: Queue axiom 6 (REMOVE) and Stack axiom 7 (REPLACE).
  if (Mutant == "remove-lifo")
    R.Want.FailingAxioms = {6};
  else if (Mutant == "replace-pops")
    R.Want.FailingAxioms = {7};
  R.Want.Exit = Mutant.empty() ? 0 : 1;
  return R;
}

/// \p K distinct indices below \p N, seeded.
std::vector<size_t> pick(Rng &R, size_t N, size_t K) {
  std::vector<size_t> All(N);
  for (size_t I = 0; I != N; ++I)
    All[I] = I;
  R.shuffle(All);
  All.resize(std::min(K, N));
  std::sort(All.begin(), All.end());
  return All;
}

/// The request kinds of the section-3 author loop, shared by the served
/// session. Every pass runs check, lint and analyze on all 19 catalog
/// sets, so the seed moves only the deletions, the eval terms, which
/// checks get --dynamic, and the order.
struct AuthorMix {
  size_t Dynamic = 6;   ///< Of the check requests, with --dynamic 3.
  size_t Deletions = 6; ///< check on single-axiom deletions.
  size_t Eval = 5;
  size_t Trace = 4;
  size_t Reachable;     ///< Half at depth 2, half at depth 3.
  size_t Free;          ///< Half at depth 2, half at depth 3.
};

/// author-loop: the 72 cheap requests (check, deletions, lint, analyze,
/// eval/trace) are 68% of a pass, shallow Reachable verifies 26%,
/// shallow FreeTerms verifies 6%. The median lies inside the cheap block
/// and p90 inside the Reachable-verify class.
constexpr AuthorMix AuthorLoopMix{6, 6, 5, 4, 28, 6};

/// served-session: in the daemon a cheap request costs a cache hit or a
/// miss, and the median of a cheap block would sit on that hit/miss
/// boundary. Here cheap requests are 35%, Reachable verifies (always
/// cache hits) 50% and FreeTerms verifies 15%: the median lies inside
/// the Reachable class and p90 inside the FreeTerms class.
constexpr AuthorMix ServedMix{6, 6, 5, 4, 104, 30};

std::vector<BenchRequest> authorPass(Rng &R, const std::vector<SourceSet> &Cat,
                                     const std::vector<Deletion> &Dels,
                                     std::deque<SourceSet> &DelSets,
                                     const AuthorMix &M, size_t DynamicOffset,
                                     unsigned Jobs) {
  std::vector<BenchRequest> Pass;
  for (size_t I = 0; I != Cat.size(); ++I) {
    // --dynamic rotates over the catalog pass by pass from a seeded
    // offset, so every set gets its share.
    bool IsDyn = (I + Cat.size() - DynamicOffset % Cat.size()) %
                     Cat.size() <
                 M.Dynamic;
    BenchRequest Q =
        command(IsDyn ? "check-dynamic" : "check", "check", Cat[I], Jobs);
    if (IsDyn) {
      Q.Cmd.Opts.DynamicDepth = 3;
      Q.Want.Dynamic = true;
    }
    Pass.push_back(std::move(Q));
  }
  for (size_t I : pick(R, Dels.size(), M.Deletions)) {
    const Deletion &D = Dels[I];
    const SourceSet &Base = Cat[D.Set];
    SourceSet &Edited = DelSets.emplace_back();
    Edited.Label = Base.Label + " without " + D.SpecName + " axiom " +
                   std::to_string(D.Axiom);
    Edited.Files = Base.Files;
    Edited.Primary = Base.Primary;
    Edited.Files[Base.Primary].Text = D.Text;
    Edited.CheckExit = 1;
    Edited.Specs = Base.Specs;
    Edited.Missing = {D.Skeleton};
    for (SpecVerdict &V : Edited.Specs)
      if (V.Name == D.SpecName) {
        V.Complete = false;
        V.Edited = true;
      }
    Pass.push_back(command("check-deletion", "check", Edited, Jobs));
  }
  for (const SourceSet &S : Cat) {
    Pass.push_back(command("lint", "lint", S, Jobs));
    Pass.push_back(command("analyze", "analyze", S, Jobs));
  }
  for (size_t I = 0; I != M.Eval + M.Trace; ++I) {
    bool Trace = I >= M.Eval;
    EvalCase C = generateEvalCase(R, static_cast<unsigned>(I));
    BenchRequest Q;
    Q.Class = Trace ? "trace" : "eval";
    Q.Cmd.Command = Q.Class;
    Q.Cmd.Sources.push_back(
        {C.Builtin + ".alg",
         std::string(algspec::server::builtinSpecText(C.Builtin))});
    Q.Cmd.Opts.TermText = C.Term;
    Q.Cmd.Opts.Jobs = Jobs;
    Q.Want.Value = C.Value;
    Pass.push_back(std::move(Q));
  }
  for (size_t I = 0; I != M.Reachable; ++I)
    Pass.push_back(verify("reachable", 2 + unsigned(I % 2), Jobs));
  for (size_t I = 0; I != M.Free; ++I)
    Pass.push_back(verify("free", 2 + unsigned(I % 2), Jobs));
  R.shuffle(Pass);
  return Pass;
}

/// Deep section-4 proofs and testgen campaigns at the machine's
/// parallelism. By latency the 22 requests of a pass form five blocks:
/// queue campaigns (~2 ms, 4), symboltable campaigns and Reachable
/// proofs (11-16 ms, 9), homomorphism and FreeTerms proofs (50-150 ms,
/// 5), stackarray campaigns (~260 ms, 4). The median falls inside the
/// second block and p90 inside the last; deep verify takes over a third
/// of a pass, testgen nearly two thirds.
std::vector<BenchRequest> batchPass(Rng &R, unsigned Jobs) {
  std::vector<BenchRequest> Pass;
  for (unsigned Rep = 0; Rep != 2; ++Rep) {
    Pass.push_back(testgen("queue", 5, "", Jobs));
    Pass.push_back(testgen("queue", 4, "remove-lifo", Jobs));
    Pass.push_back(verify("hom", 4, Jobs));
    Pass.push_back(testgen("stackarray", 4, "", Jobs));
    Pass.push_back(testgen("stackarray", 4, "replace-pops", Jobs));
  }
  for (unsigned Rep = 0; Rep != 3; ++Rep) {
    Pass.push_back(testgen("symboltable", 4, "", Jobs));
    Pass.push_back(verify("reachable", 4, Jobs));
    Pass.push_back(verify("reachable", 5, Jobs));
    Pass.push_back(verify("free", 4, Jobs));
  }
  R.shuffle(Pass);
  return Pass;
}

} // namespace

bool perfbench::generateStream(const std::string &Workload, uint64_t Seed,
                               const std::vector<SourceSet> &Cat,
                               unsigned Nproc, Stream &Out,
                               std::string &Err) {
  // Mixing the workload name into the seed keeps workloads on one seed
  // from drawing correlated choices.
  Rng R(Seed ^ fnv1a(Workload));
  Out = Stream();
  Out.Workload = Workload;
  Out.Seed = Seed;
  std::vector<Deletion> Dels = enumerateDeletions(Cat);
  if (Workload == "author-loop" || Workload == "served-session") {
    bool Served = Workload == "served-session";
    Out.Connections = Served ? std::min(2u, std::max(1u, Nproc)) : 1;
    Out.Jobs = 1;
    // Served: 4 passes of 6 deletions each make a working set of about
    // 43 distinct source sets against the daemon's 16-entry cache.
    size_t Passes = Served ? 4 : 8;
    const AuthorMix &M = Served ? ServedMix : AuthorLoopMix;
    size_t Offset = R.below(Cat.size());
    for (size_t P = 0; P != Passes; ++P)
      Out.Passes.push_back(authorPass(R, Cat, Dels, Out.DeletionSets, M,
                                      Offset + P * M.Dynamic, Out.Jobs));
    return true;
  }
  if (Workload == "batch-proofs") {
    Out.Jobs = std::min(Nproc, 4u);
    for (size_t P = 0; P != 4; ++P)
      Out.Passes.push_back(batchPass(R, Out.Jobs));
    return true;
  }
  Err = "unknown workload '" + Workload +
        "' (author-loop, served-session, batch-proofs)";
  return false;
}

std::string BenchRequest::describe() const {
  const auto &O = Cmd.Opts;
  std::string S = "class=" + Class + " cmd=" + Cmd.Command + " sources=";
  char Hash[32];
  for (size_t I = 0; I != Cmd.Sources.size(); ++I) {
    std::snprintf(Hash, sizeof(Hash), "%016llx",
                  static_cast<unsigned long long>(fnv1a(Cmd.Sources[I].Text)));
    S += (I ? "," : "") + Cmd.Sources[I].Name + "@" + Hash;
  }
  S += " jobs=" + std::to_string(O.Jobs);
  if (Cmd.Command == "verify" || Cmd.Command == "testgen")
    S += " depth=" + std::to_string(O.Depth);
  if (O.DynamicDepth > 0)
    S += " dynamic=" + std::to_string(O.DynamicDepth);
  if (O.FreeDomain)
    S += " free";
  if (O.Homomorphism)
    S += " hom";
  if (!Mutant.empty())
    S += " mutant=" + Mutant;
  if (!O.TermText.empty())
    S += " term=" + O.TermText;
  S += " | expect exit=" + std::to_string(Want.Exit);
  if (Want.Set)
    for (const std::string &M : Want.Set->Missing)
      S += " missing=" + M;
  if (!Want.Value.empty())
    S += " value=" + Want.Value;
  for (unsigned A : Want.FailingAxioms)
    S += " fails=" + std::to_string(A);
  return S;
}
