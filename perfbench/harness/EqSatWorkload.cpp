//===- perfbench/harness/EqSatWorkload.cpp - Fig. 7 workload --------------===//
//
// Part of the egglog-cpp benchmark harness.
//
// The Fig. 7 math rules (egg's analysis-free math suite) over polynomial
// seed terms, run for a fixed number of iterations without the BackOff
// scheduler, then the cheapest form of every seed term is extracted. A
// round grows 256 independent e-graphs, each from its own twelve seed
// terms. One operation is one seed term.
//
// The seed terms come from fixed templates. The benchmark seed picks the
// variable names and the constants (distinct, and never -1, 0, 1 or an
// exponent), so every seed grows e-graphs of the same shape while the
// engine sees different symbols and numbers.
//
// Checks: each extracted term equals its seed term as a polynomial at
// seeded random points modulo 2^61 - 1, and its tree cost is not above
// the seed term's.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Oracles.h"

#include "core/Extract.h"
#include "core/Frontend.h"

#include <cctype>
#include <cstdio>
#include <random>
#include <set>

using namespace egglog;
using namespace perfbench;

namespace {

/// Iterations of the rule set per e-graph. Growth is exponential in this:
/// 5 iterations reach ~9k live tuples, 6 reach ~0.5M and 7 need more than
/// 3 GB. One e-graph at 6 iterations spends ~6x its solve time in
/// extraction, and its round time varied by 18% (quartile spread) between
/// runs, against ~10% for many e-graphs at 5.
constexpr unsigned Iterations = 5;

/// Independent e-graphs per round, each with its own seed terms.
constexpr unsigned Graphs = 256;

/// Points at which each extracted term is compared with its seed.
constexpr unsigned CheckPoints = 8;

const char *MathRules = R"(
  (datatype Math
    (Num i64)
    (Sym String)
    (Add Math Math)
    (Sub Math Math)
    (Mul Math Math)
    (Pow Math Math))
  (rewrite (Add a b) (Add b a))
  (rewrite (Mul a b) (Mul b a))
  (rewrite (Add (Add a b) c) (Add a (Add b c)))
  (rewrite (Mul (Mul a b) c) (Mul a (Mul b c)))
  (rewrite (Sub a b) (Add a (Mul (Num -1) b)))
  (rewrite (Add a (Num 0)) a)
  (rewrite (Mul a (Num 0)) (Num 0))
  (rewrite (Mul a (Num 1)) a)
  (rewrite (Sub a a) (Num 0))
  (rewrite (Mul a (Add b c)) (Add (Mul a b) (Mul a c)))
  (rewrite (Add (Mul a b) (Mul a c)) (Mul a (Add b c)))
  (rewrite (Mul (Pow a b) (Pow a c)) (Pow a (Add b c)))
)";

/// Seed-term templates: ?v is a variable, #k a constant, both chosen per
/// benchmark seed; (Num 0), (Num 1) and exponents are fixed. The first
/// eight are egg's math test terms.
const char *Templates[] = {
    "(Add ?x (Add ?x (Add ?x ?x)))",
    "(Mul (Add ?x ?y) (Add ?y ?x))",
    "(Sub (Add ?x ?y) (Add ?x ?y))",
    "(Mul (Mul ?x ?y) ?z)",
    "(Add (Mul ?x (Add ?y (Num 1))) (Mul (Add ?y (Num 1)) ?x))",
    "(Sub (Mul (Add ?a ?b) ?c) (Mul ?c (Add ?a ?b)))",
    "(Mul (Pow ?x (Num 2)) (Pow ?x (Num 3)))",
    "(Add (Mul ?a (Num 0)) (Mul ?b (Num 1)))",
    "(Add (Mul #1 (Pow ?x (Num 2))) (Add (Mul #2 ?x) #3))",
    "(Mul (Sub ?x ?y) (Add ?x ?y))",
    "(Sub (Mul (Add ?x #1) (Add ?x #2)) (Mul ?x ?x))",
    "(Add (Mul ?x ?y) (Mul ?y (Add ?x #4)))",
};

/// Instantiates the templates for one benchmark seed. A variable or
/// constant slot means the same thing in every template, as in egg's
/// terms.
std::vector<std::string> seedTerms(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::map<std::string, std::string> Names;
  std::map<std::string, int64_t> Constants;
  std::set<std::string> UsedNames;
  std::set<int64_t> UsedConstants;
  auto NameFor = [&](const std::string &Slot) {
    auto It = Names.find(Slot);
    if (It != Names.end())
      return It->second;
    std::string Name;
    do
      Name = "v" + std::to_string(Rng() % 100000);
    while (!UsedNames.insert(Name).second);
    return Names[Slot] = Name;
  };
  auto ConstantFor = [&](const std::string &Slot) {
    auto It = Constants.find(Slot);
    if (It != Constants.end())
      return It->second;
    int64_t K;
    do
      K = int64_t(4 + Rng() % 996) * ((Rng() & 1) ? 1 : -1);
    while (!UsedConstants.insert(K).second);
    return Constants[Slot] = K;
  };

  std::vector<std::string> Terms;
  for (const char *Template : Templates) {
    std::string T = Template, Out;
    for (size_t I = 0; I < T.size();) {
      if (T[I] != '?' && T[I] != '#') {
        Out += T[I++];
        continue;
      }
      size_t End = I + 1;
      while (End < T.size() && std::isalnum(static_cast<unsigned char>(T[End])))
        ++End;
      std::string Slot = T.substr(I, End - I);
      if (T[I] == '?')
        Out += "(Sym \"" + NameFor(Slot) + "\")";
      else
        Out += "(Num " + std::to_string(ConstantFor(Slot)) + ")";
      I = End;
    }
    Terms.push_back(Out);
  }
  return Terms;
}

class EqSat : public Workload {
public:
  explicit EqSat(const WorkloadOptions &Options) {
    for (unsigned G = 0; G < Graphs; ++G) {
      uint64_t GraphSeed = Options.Seed * 1000003ULL + G;
      Group &Grp = Groups.emplace_back();
      Grp.Terms = seedTerms(GraphSeed);
      std::set<std::string> Symbols;
      for (const std::string &T : Grp.Terms) {
        Grp.Seeds.push_back(oracle::parseMathTerm(T));
        collectSymbols(*Grp.Seeds.back(), Symbols);
      }
      std::mt19937_64 Rng(GraphSeed ^ 0x5eedf00dULL);
      for (unsigned I = 0; I < CheckPoints; ++I) {
        std::map<std::string, uint64_t> Point;
        for (const std::string &Sym : Symbols)
          Point[Sym] = Rng() % oracle::PolyPrime;
        Grp.Points.push_back(std::move(Point));
      }
    }
  }

  void runRound(Recorder &Rec, Checks &C) override {
    for (const Group &Grp : Groups)
      runGraph(Rec, C, Grp);
  }

private:
  /// The seed terms of one e-graph with their parsed forms and check points.
  struct Group {
    std::vector<std::string> Terms;
    std::vector<std::unique_ptr<oracle::MathTerm>> Seeds;
    std::vector<std::map<std::string, uint64_t>> Points;
  };
  std::vector<Group> Groups;

  static void collectSymbols(const oracle::MathTerm &T,
                             std::set<std::string> &Out) {
    if (T.Op == "Sym")
      Out.insert(T.Symbol);
    for (const auto &Arg : T.Args)
      collectSymbols(*Arg, Out);
  }

  void runGraph(Recorder &Rec, Checks &C, const Group &Grp) {
    const std::vector<std::string> &Terms = Grp.Terms;
    Rec.round().Attempted += Terms.size();
    std::unique_ptr<Frontend> F;
    std::vector<std::optional<ExtractedTerm>> Extracted(Terms.size());
    bool Ok = true;
    {
      WorkScope Work(Rec);
      Span Op(Rec, "op.egraph", Role::None, "");
      F = std::make_unique<Frontend>();
      {
        Span S(Rec, "frontend.declare", Role::Setup);
        Ok = F->execute(MathRules);
      }
      if (Ok) {
        Span S(Rec, "table.load", Role::Setup);
        for (size_t I = 0; I < Terms.size() && Ok; ++I)
          Ok = F->execute("(define t" + std::to_string(I) + " " + Terms[I] +
                          ")");
        Rec.add("table.rows_loaded", double(F->graph().liveTupleCount()));
      }
      size_t TuplesBefore = F->graph().liveTupleCount();
      size_t UnionsBefore = F->graph().unionFind().unionCount();
      if (Ok) {
        Span S(Rec, "engine.run", Role::Solve, "");
        Ok = F->execute("(run " + std::to_string(Iterations) + ")");
      }
      if (Ok) {
        recordRun(Rec, F->lastRun(), TuplesBefore, UnionsBefore);
        Rec.raise("egraph.approx_mb",
                  double(F->graph().approxBytes()) / (1 << 20));
        uint64_t RowsBefore = F->graph().extractIndex().stats().RowsConsidered;
        for (size_t I = 0; I < Terms.size(); ++I) {
          Value Root;
          if (!F->evalGround("t" + std::to_string(I), Root))
            continue;
          Span S(Rec, "extract", Role::None, "extract.s");
          Extracted[I] = extractTerm(F->graph(), Root);
        }
        Rec.add("extract.rows_considered",
                double(F->graph().extractIndex().stats().RowsConsidered -
                       RowsBefore));
      }
    }
    if (!Ok) {
      std::fprintf(stderr, "perfbench: eqsat failed: %s\n", F->error().c_str());
      Rec.round().Failed += Terms.size();
    } else {
      for (size_t I = 0; I < Terms.size(); ++I) {
        if (!Extracted[I]) {
          ++Rec.round().Failed;
          continue;
        }
        check(C, Grp, I, *Extracted[I]);
      }
    }
    WorkScope Work(Rec);
    F.reset();
  }

  void check(Checks &C, const Group &Grp, size_t Index,
             const ExtractedTerm &E) {
    std::string Where = "eqsat seed term " + Grp.Terms[Index] +
                        ": extracted " + E.Text + ": ";
    std::unique_ptr<oracle::MathTerm> Term = oracle::parseMathTerm(E.Text);
    if (!Term) {
      C.fail(Where + "does not parse as a math term");
      return;
    }
    std::string Why;
    if (!oracle::samePolynomial(*Term, *Grp.Seeds[Index], Grp.Points, Why))
      C.fail(Where + "is not the seed's polynomial: " + Why);
    int64_t Cost = oracle::treeCost(*Term);
    if (Cost != E.Cost)
      C.fail(Where + "reported cost " + std::to_string(E.Cost) +
             " but its tree cost is " + std::to_string(Cost));
    if (Cost > oracle::treeCost(*Grp.Seeds[Index]))
      C.fail(Where + "costs more than the seed term");
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeEqSat(const WorkloadOptions &Options) {
  return std::make_unique<EqSat>(Options);
}
