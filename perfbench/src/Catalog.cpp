//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The source catalog, its hand-written verdict table, and the
/// single-axiom deletions derived from the spec text alone.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

using namespace perfbench;

namespace {

SourceFile builtin(const std::string &Name) {
  return {Name + ".alg",
          std::string(algspec::server::builtinSpecText(Name))};
}

SpecVerdict orthogonal(const std::string &Name) { return {Name}; }

/// A spec whose recursive-path-ordering termination proof fails by
/// design (Table's SELECT_VAL recursion, SymboltableImpl's RETRIEVE_R):
/// its convergence stays an honest `unknown`.
SpecVerdict unprovedTermination(const std::string &Name) {
  SpecVerdict V{Name};
  V.TerminationProved = false;
  V.Convergence = "unknown";
  return V;
}

} // namespace

bool perfbench::buildCatalog(const std::string &Root,
                             std::vector<SourceSet> &Out, std::string &Err) {
  Out.clear();
  auto single = [&](const std::string &Name,
                    std::vector<SpecVerdict> Specs) {
    SourceSet S;
    S.Label = Name;
    S.Files = {builtin(Name)};
    S.Specs = std::move(Specs);
    Out.push_back(std::move(S));
  };
  // The 13 builtins. Every one is sufficiently complete and consistent;
  // all but Table certify orthogonal.
  single("queue", {orthogonal("Queue")});
  single("symboltable", {orthogonal("Symboltable")});
  single("stackarray", {orthogonal("Array"), orthogonal("Stack")});
  single("knowlist", {orthogonal("Knowlist")});
  single("knows_symboltable",
         {orthogonal("Knowlist"), orthogonal("Symboltable")});
  single("nat", {orthogonal("Nat")});
  single("set", {orthogonal("Set")});
  single("list", {orthogonal("List")});
  single("bag", {orthogonal("Bag")});
  single("bst", {orthogonal("Bst")});
  single("table", {unprovedTermination("Table")});
  single("boundedqueue", {orthogonal("BoundedQueue")});
  std::vector<SpecVerdict> ImplSpecs = {
      orthogonal("Symboltable"), orthogonal("Array"), orthogonal("Stack"),
      unprovedTermination("SymboltableImpl"), orthogonal("Phi")};
  {
    SourceSet S;
    S.Label = "symboltable_impl";
    S.Files = {builtin("symboltable"), builtin("stackarray"),
               builtin("symboltable_impl")};
    S.Primary = 2;
    S.Specs = ImplSpecs;
    Out.push_back(std::move(S));
  }

  // The example specs, read from the checkout like a user's files.
  struct Example {
    const char *File;
    bool WithImplDeps;
    int CheckExit;
    bool LintClean;
    std::vector<SpecVerdict> Specs;
    std::vector<std::string> Missing;
  };
  SpecVerdict Pile{"Pile"};
  Pile.Complete = false;
  SpecVerdict Choice{"Choice"};
  Choice.Convergence = "unknown"; // PICK rewrites to RED vs BLUE.
  SpecVerdict Duplicate{"Duplicate"};
  Duplicate.Complete = false;
  Duplicate.Convergence = "unknown"; // Non-left-linear axiom 1.
  SpecVerdict Sack{"Sack"};
  Sack.Convergence = "convergent"; // One joinable critical pair.
  const Example Examples[] = {
      {"incomplete.alg", false, 1, false, {Pile}, {"SIZE(PUSH(_,_))"}},
      {"nonconfluent.alg", false, 1, false, {Choice}, {}},
      {"nonleftlinear.alg", false, 1, false, {Duplicate},
       {"DUP?(PUT(MKD,_))"}},
      {"priority_queue.alg", false, 0, true, {orthogonal("PriorityQueue")},
       {}},
      {"shadowed.alg", false, 0, false, {Sack}, {}},
      {"symboltable_impl.alg", true, 0, true, ImplSpecs, {}},
  };
  for (const Example &E : Examples) {
    std::string Path = Root + "/examples/specs/" + E.File;
    std::ifstream In(Path, std::ios::binary);
    if (!In) {
      Err = "cannot read " + Path;
      return false;
    }
    std::stringstream Text;
    Text << In.rdbuf();
    SourceSet S;
    S.Label = std::string("examples/specs/") + E.File;
    if (E.WithImplDeps)
      S.Files = {builtin("symboltable"), builtin("stackarray")};
    S.Primary = S.Files.size();
    S.Files.push_back({E.File, Text.str()});
    S.CheckExit = E.CheckExit;
    S.LintClean = E.LintClean;
    S.Specs = E.Specs;
    S.Missing = E.Missing;
    Out.push_back(std::move(S));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// A minimal reader of spec text, enough to find each axiom's lines and
// left-hand side. It is deliberately independent of src/parser.
//===----------------------------------------------------------------------===//

namespace {

struct AxiomText {
  unsigned Number = 0;
  size_t FirstLine = 0, LastLine = 0;
  std::string Lhs;
};

struct SpecText {
  std::string Name;
  std::set<std::string> Ops, Vars;
  std::vector<AxiomText> Axioms;
};

std::string trim(std::string S) {
  size_t B = S.find_first_not_of(" \t\r");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r");
  return S.substr(B, E - B + 1);
}

std::vector<std::string> splitNames(const std::string &S) {
  std::vector<std::string> Names;
  std::stringstream In(S);
  std::string Part;
  while (std::getline(In, Part, ','))
    if (std::string T = trim(Part); !T.empty())
      Names.push_back(T);
  return Names;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::stringstream In(Text);
  std::string L;
  while (std::getline(In, L))
    Lines.push_back(L);
  return Lines;
}

/// Reads every spec of \p Lines; constructor names of all specs go to
/// \p Ctors (patterns may use another spec's constructors).
std::vector<SpecText> readSpecs(const std::vector<std::string> &Lines,
                                std::set<std::string> &Ctors) {
  std::vector<SpecText> Specs;
  enum { None, Other, Ops, CtorList, Vars, Axioms } Section = None;
  size_t BaseIndent = 0;
  for (size_t I = 0; I != Lines.size(); ++I) {
    std::string Raw = Lines[I];
    if (size_t C = Raw.find("--"); C != std::string::npos)
      Raw.resize(C);
    std::string T = trim(Raw);
    if (T.empty())
      continue;
    std::string Word = T.substr(0, T.find(' '));
    std::string Rest = trim(T.substr(Word.size()));
    if (Word == "spec") {
      Specs.push_back({});
      Specs.back().Name = Rest;
      Section = Other;
      continue;
    }
    if (Specs.empty())
      continue;
    SpecText &S = Specs.back();
    if (Word == "end") {
      Section = None;
    } else if (Word == "uses" || Word == "sorts") {
      Section = Other;
    } else if (Word == "ops") {
      Section = Ops;
    } else if (Word == "constructors") {
      Section = CtorList;
      for (const std::string &N : splitNames(Rest))
        Ctors.insert(N);
    } else if (Word == "vars") {
      Section = Vars;
    } else if (Word == "axioms") {
      Section = Axioms;
      BaseIndent = std::string::npos;
    } else if (Section == Ops || Section == Vars) {
      size_t Colon = T.find(':');
      if (Colon == std::string::npos)
        continue;
      for (const std::string &N : splitNames(T.substr(0, Colon)))
        (Section == Ops ? S.Ops : S.Vars).insert(N);
    } else if (Section == CtorList) {
      for (const std::string &N : splitNames(T))
        Ctors.insert(N);
    } else if (Section == Axioms) {
      size_t Indent = Raw.find_first_not_of(' ');
      if (BaseIndent == std::string::npos)
        BaseIndent = Indent;
      if (Indent <= BaseIndent) {
        AxiomText A;
        A.Number = static_cast<unsigned>(S.Axioms.size() + 1);
        A.FirstLine = A.LastLine = I;
        A.Lhs = trim(T.substr(0, T.find('=')));
        S.Axioms.push_back(A);
      } else if (!S.Axioms.empty()) {
        S.Axioms.back().LastLine = I;
      }
    }
  }
  return Specs;
}

struct Pattern {
  std::string Name;
  bool Call = false;
  std::vector<Pattern> Args;
};

std::vector<std::string> tokenize(const std::string &S) {
  std::vector<std::string> Toks;
  for (size_t I = 0; I < S.size();) {
    char C = S[I];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
    } else if (C == '(' || C == ')' || C == ',') {
      Toks.emplace_back(1, C);
      ++I;
    } else {
      size_t J = I;
      while (J < S.size() && !std::isspace(static_cast<unsigned char>(S[J])) &&
             S[J] != '(' && S[J] != ')' && S[J] != ',')
        ++J;
      Toks.push_back(S.substr(I, J - I));
      I = J;
    }
  }
  return Toks;
}

bool parsePattern(const std::vector<std::string> &Toks, size_t &Pos,
                  Pattern &Out) {
  if (Pos >= Toks.size() || Toks[Pos] == "(" || Toks[Pos] == ")" ||
      Toks[Pos] == ",")
    return false;
  Out.Name = Toks[Pos++];
  if (Pos < Toks.size() && Toks[Pos] == "(") {
    Out.Call = true;
    ++Pos;
    while (true) {
      Out.Args.emplace_back();
      if (!parsePattern(Toks, Pos, Out.Args.back()))
        return false;
      if (Pos < Toks.size() && Toks[Pos] == ",") {
        ++Pos;
        continue;
      }
      if (Pos < Toks.size() && Toks[Pos] == ")") {
        ++Pos;
        return true;
      }
      return false;
    }
  }
  return true;
}

/// True when \p P is a linear constructor pattern over \p Vars.
bool isLinearCtorPattern(const Pattern &P, const std::set<std::string> &Vars,
                         const std::set<std::string> &Ctors,
                         std::set<std::string> &Seen) {
  if (!P.Call && Vars.count(P.Name))
    return Seen.insert(P.Name).second;
  if (!Ctors.count(P.Name))
    return false;
  for (const Pattern &A : P.Args)
    if (!isLinearCtorPattern(A, Vars, Ctors, Seen))
      return false;
  return true;
}

/// Whether two patterns share an instance, reading variables of either
/// side as wildcards (an over-approximation for non-linear sides).
bool overlaps(const Pattern &A, const Pattern &B,
              const std::set<std::string> &VarsA,
              const std::set<std::string> &VarsB) {
  if ((!A.Call && VarsA.count(A.Name)) || (!B.Call && VarsB.count(B.Name)))
    return true;
  if (A.Name != B.Name || A.Args.size() != B.Args.size())
    return false;
  for (size_t I = 0; I != A.Args.size(); ++I)
    if (!overlaps(A.Args[I], B.Args[I], VarsA, VarsB))
      return false;
  return true;
}

} // namespace

std::string perfbench::skeletonOf(const std::string &Term) {
  std::string Out;
  for (const std::string &T : tokenize(Term))
    Out += std::islower(static_cast<unsigned char>(T[0])) ? "_" : T;
  return Out;
}

std::vector<Deletion>
perfbench::enumerateDeletions(const std::vector<SourceSet> &Cat) {
  std::vector<Deletion> Out;
  for (size_t SetIdx = 0; SetIdx != Cat.size(); ++SetIdx) {
    const SourceSet &Set = Cat[SetIdx];
    // Only from sets whose check passes, so the deleted case is the one
    // and only missing case.
    if (Set.CheckExit != 0)
      continue;
    const std::string &Text = Set.Files[Set.Primary].Text;
    std::vector<std::string> Lines = splitLines(Text);
    std::set<std::string> Ctors;
    for (const SourceFile &F : Set.Files) {
      std::set<std::string> Local;
      readSpecs(splitLines(F.Text), Local);
      Ctors.insert(Local.begin(), Local.end());
    }
    for (const SpecText &S : readSpecs(Lines, Ctors)) {
      std::vector<Pattern> Lhs(S.Axioms.size());
      bool Parsed = true, FreeCtors = true;
      for (size_t I = 0; I != S.Axioms.size(); ++I) {
        std::vector<std::string> Toks = tokenize(S.Axioms[I].Lhs);
        size_t Pos = 0;
        Parsed &= parsePattern(Toks, Pos, Lhs[I]) && Pos == Toks.size();
        FreeCtors &= !Ctors.count(Lhs[I].Name);
      }
      if (!Parsed || !FreeCtors)
        continue;
      for (size_t I = 0; I != S.Axioms.size(); ++I) {
        const Pattern &P = Lhs[I];
        if (!P.Call || !S.Ops.count(P.Name))
          continue;
        std::set<std::string> Seen;
        bool Linear = true;
        for (const Pattern &A : P.Args)
          Linear &= isLinearCtorPattern(A, S.Vars, Ctors, Seen);
        if (!Linear)
          continue;
        bool Overlap = false;
        for (size_t J = 0; J != S.Axioms.size(); ++J)
          Overlap |= J != I && overlaps(P, Lhs[J], S.Vars, S.Vars);
        if (Overlap)
          continue;
        Deletion D;
        D.Set = SetIdx;
        D.SpecName = S.Name;
        D.Axiom = S.Axioms[I].Number;
        D.Lhs = S.Axioms[I].Lhs;
        D.Skeleton = skeletonOf(D.Lhs);
        for (size_t L = 0; L != Lines.size(); ++L)
          if (L < S.Axioms[I].FirstLine || L > S.Axioms[I].LastLine)
            D.Text += Lines[L] + "\n";
        Out.push_back(std::move(D));
      }
    }
  }
  return Out;
}
