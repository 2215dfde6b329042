//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Judging answers against the expected ones. Only the report text the
/// CLI prints is read here (plus testgen's per-campaign outcome), and
/// only the verdicts the verdict table, the deletion, or the model fixes.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace perfbench;

namespace {

std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  std::stringstream In(Text);
  std::string L;
  while (std::getline(In, L))
    Out.push_back(L);
  return Out;
}

bool startsWith(const std::string &S, const std::string &P) {
  return S.compare(0, P.size(), P) == 0;
}

/// The name between the first pair of single quotes after \p Prefix.
std::string quotedName(const std::string &Line, const std::string &Prefix) {
  size_t B = Prefix.size();
  size_t E = Line.find('\'', B);
  return E == std::string::npos ? "" : Line.substr(B, E - B);
}

/// Fuel, depth and arena limits end in structured errors; one the
/// expected answer does not list is a failed operation, not a wrong one.
bool isLimitError(const std::string &Err) {
  for (const char *Marker : {"fuel", "step limit", "depth limit",
                             "exhausted", "arena limit"})
    if (Err.find(Marker) != std::string::npos)
      return true;
  return false;
}

struct SpecSeen {
  bool Complete = false;
  bool Proved = false;
  std::string Dynamic;
};

std::string checkReport(const BenchRequest &Req,
                        const std::vector<std::string> &Ls) {
  const SourceSet &Set = *Req.Want.Set;
  std::vector<std::string> Names;
  std::map<std::string, SpecSeen> Seen;
  std::map<std::string, std::string> Convergence;
  std::vector<std::string> Missing;
  SpecSeen *Cur = nullptr;
  for (const std::string &L : Ls) {
    if (startsWith(L, "spec '")) {
      Names.push_back(quotedName(L, "spec '"));
      Cur = &Seen[Names.back()];
    } else if (startsWith(L, "convergence of '")) {
      std::string Name = quotedName(L, "convergence of '");
      size_t Colon = L.find("': ");
      std::string Rest = Colon == std::string::npos ? "" : L.substr(Colon + 3);
      Convergence[Name] = Rest.substr(0, Rest.find_first_of(" ("));
    } else if (L.size() > 4 && startsWith(L, "  ") &&
               L.compare(L.size() - 4, 4, " = ?") == 0) {
      Missing.push_back(skeletonOf(L.substr(0, L.size() - 4)));
    } else if (Cur && L == "  sufficient completeness: yes") {
      Cur->Complete = true;
    } else if (Cur && startsWith(L, "  termination: proved")) {
      Cur->Proved = true;
    } else if (Cur && startsWith(L, "  dynamic check (depth")) {
      Cur->Dynamic = L;
    }
  }
  if (Names.size() != Set.Specs.size())
    return "check reported " + std::to_string(Names.size()) +
           " specs, expected " + std::to_string(Set.Specs.size());
  for (size_t I = 0; I != Names.size(); ++I) {
    const SpecVerdict &V = Set.Specs[I];
    const SpecSeen &S = Seen[Names[I]];
    if (Names[I] != V.Name)
      return "spec " + std::to_string(I) + " is '" + Names[I] +
             "', expected '" + V.Name + "'";
    if (S.Complete != V.Complete)
      return "completeness of '" + V.Name + "' differs";
    if (V.Edited)
      continue;
    if (S.Proved != V.TerminationProved)
      return "termination verdict of '" + V.Name + "' differs";
    if (Convergence[V.Name] != V.Convergence)
      return "convergence of '" + V.Name + "' is '" + Convergence[V.Name] +
             "', expected '" + V.Convergence + "'";
    if (Req.Want.Dynamic && V.Complete &&
        S.Dynamic.find("skipped") == std::string::npos &&
        S.Dynamic.find(": 0 stuck term(s)") == std::string::npos)
      return "dynamic check of complete '" + V.Name + "': " + S.Dynamic;
  }
  if (Missing != Set.Missing)
    return "missing cases [" + (Missing.empty() ? "" : Missing.front()) +
           (Missing.size() > 1 ? ", ..." : "") + "], expected [" +
           (Set.Missing.empty() ? "" : Set.Missing.front()) + "]";
  return "";
}

std::string lintReport(const SourceSet &Set,
                       const std::vector<std::string> &Ls) {
  std::vector<std::pair<std::string, bool>> Term;
  bool Clean = false;
  for (const std::string &L : Ls) {
    if (startsWith(L, "termination of '")) {
      std::string Name = quotedName(L, "termination of '");
      Term.emplace_back(Name, L.find("': proved") != std::string::npos);
    }
    Clean |= L == "lint: no findings.";
  }
  if (Term.size() != Set.Specs.size())
    return "lint named " + std::to_string(Term.size()) + " specs";
  for (size_t I = 0; I != Term.size(); ++I)
    if (Term[I].first != Set.Specs[I].Name ||
        Term[I].second != Set.Specs[I].TerminationProved)
      return "termination verdict of '" + Set.Specs[I].Name + "' differs";
  if (Clean != Set.LintClean)
    return Set.LintClean ? "findings on a clean set" : "no findings reported";
  return "";
}

std::string analyzeReport(const SourceSet &Set,
                          const std::vector<std::string> &Ls) {
  std::vector<std::pair<std::string, std::string>> Conv;
  for (const std::string &L : Ls) {
    if (!startsWith(L, "convergence of '"))
      continue;
    size_t Colon = L.find("': ");
    std::string Rest = Colon == std::string::npos ? "" : L.substr(Colon + 3);
    Conv.emplace_back(quotedName(L, "convergence of '"),
                      Rest.substr(0, Rest.find_first_of(" (")));
  }
  if (Conv.size() != Set.Specs.size())
    return "analyze named " + std::to_string(Conv.size()) + " specs";
  for (size_t I = 0; I != Conv.size(); ++I)
    if (Conv[I].first != Set.Specs[I].Name ||
        Conv[I].second != Set.Specs[I].Convergence)
      return "convergence of '" + Set.Specs[I].Name + "' is '" +
             Conv[I].second + "'";
  return "";
}

std::string verifyReport(const BenchRequest &Req,
                         const std::vector<std::string> &Ls) {
  bool Hom = Req.Cmd.Opts.Homomorphism;
  std::vector<unsigned> Failing;
  size_t Verdicts = 0;
  bool Discharged = false;
  for (size_t I = 0; I != Ls.size(); ++I) {
    const std::string &L = Ls[I];
    Discharged |= L == "all definedness obligations discharged";
    if (Hom && startsWith(L, "homomorphism for ")) {
      ++Verdicts;
      if (L.find(": verified") == std::string::npos)
        return "homomorphism fails: " + L;
    } else if (!Hom && startsWith(L, "axiom ")) {
      ++Verdicts;
      if (L.find(": FAILED") != std::string::npos) {
        Failing.push_back(static_cast<unsigned>(std::stoul(L.substr(6))));
        // Free terms fail at the empty stack (Assumption 1).
        if (I + 1 == Ls.size() ||
            !startsWith(Ls[I + 1], "  assignment: symtab_r = NEWSTACK"))
          return "axiom " + std::to_string(Failing.back()) +
                 " fails away from NEWSTACK";
      } else if (L.find(": verified") == std::string::npos) {
        return "unexpected verdict line: " + L;
      }
    }
  }
  if (Verdicts != (Hom ? 6u : 9u))
    return std::to_string(Verdicts) + " verdicts";
  if (Failing != Req.Want.FailingAxioms)
    return "failing axioms differ";
  if (!Req.Cmd.Opts.FreeDomain && !Discharged)
    return "obligations not all discharged";
  return "";
}

} // namespace

Verdict perfbench::judgeCommand(const BenchRequest &Req, int Exit,
                                const std::string &Out,
                                const std::string &Err, std::string &Why) {
  Why.clear();
  if (isLimitError(Err)) {
    Why = "limit error: " + Err.substr(0, Err.find('\n'));
    return Verdict::Failed;
  }
  if (Exit != Req.Want.Exit) {
    Why = "exit " + std::to_string(Exit) + ", expected " +
          std::to_string(Req.Want.Exit);
    return Verdict::Wrong;
  }
  std::vector<std::string> Ls = lines(Out);
  const std::string &C = Req.Cmd.Command;
  if (C == "check")
    Why = checkReport(Req, Ls);
  else if (C == "lint")
    Why = lintReport(*Req.Want.Set, Ls);
  else if (C == "analyze")
    Why = analyzeReport(*Req.Want.Set, Ls);
  else if (C == "eval")
    Why = Out == Req.Want.Value + "\n" && Err.empty()
              ? ""
              : "value '" + Out.substr(0, Out.find('\n')) + "', expected '" +
                    Req.Want.Value + "'";
  else if (C == "trace") {
    if (Ls.empty() || Ls.back() != Req.Want.Value)
      Why = "trace ends in '" + (Ls.empty() ? "" : Ls.back()) +
            "', expected '" + Req.Want.Value + "'";
    for (size_t I = 0; Why.empty() && I + 1 < Ls.size(); ++I)
      if (Ls[I].find(" ~> ") == std::string::npos ||
          Ls[I].find("  [axiom ") == std::string::npos)
        Why = "malformed trace step: " + Ls[I];
  } else if (C == "verify")
    Why = verifyReport(Req, Ls);
  else
    Why = "no expectation for command '" + C + "'";
  return Why.empty() ? Verdict::Right : Verdict::Wrong;
}

Verdict perfbench::judgeTestGen(const BenchRequest &Req,
                                const std::vector<CampaignOutcome> &Got,
                                std::string &Why) {
  Why.clear();
  std::vector<unsigned> Failing;
  for (const CampaignOutcome &C : Got) {
    if (C.Run == 0)
      Why = "campaign of '" + C.Spec + "' ran no instance";
    if (!C.Passed && C.FailingAxioms.empty())
      Why = "campaign of '" + C.Spec + "' failed without a counterexample";
    Failing.insert(Failing.end(), C.FailingAxioms.begin(),
                   C.FailingAxioms.end());
  }
  if (Got.empty())
    Why = "no campaign ran";
  if (Why.empty() && Failing != Req.Want.FailingAxioms)
    Why = Failing.empty() ? "mutant not caught" : "unexpected failing axiom " +
                                                      std::to_string(Failing.front());
  return Why.empty() ? Verdict::Right : Verdict::Wrong;
}
