//===- perfbench/harness/OracleSelfTest.cpp - Oracles reject wrong answers ===//
//
// Part of the egglog-cpp benchmark harness.
//
// Shows that each independent check accepts right answers and rejects
// planted wrong ones:
//
//   points-to  a partition with two alias classes merged;
//   eqsat      an extracted term with one operand changed (every operand
//              position of several terms, in turn);
//   herbie     a candidate with one term dropped (every sum, difference
//              and fma addend of several candidates, in turn).
//
// Usage: perfbench_oracles     (exit 0 when every case behaves)
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include <cstdio>
#include <functional>
#include <random>
#include <set>

using namespace oracle;

namespace {

int Failures = 0;
int Passes = 0;

void expect(bool Condition, const std::string &What) {
  if (Condition) {
    ++Passes;
  } else {
    ++Failures;
    std::printf("FAIL: %s\n", What.c_str());
  }
}

//===--- points-to ---------------------------------------------------------===

/// A random pointer program with local structure (a few regions, so the
/// partition has many classes).
PointerFacts randomFacts(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  PointerFacts F;
  F.NumVars = 200;
  F.NumBaseAllocs = 30;
  F.NumFields = 2;
  auto Var = [&](uint32_t Region) { return Region * 20 + Rng() % 20; };
  for (uint32_t A = 0; A < F.NumBaseAllocs; ++A)
    F.Allocs.emplace_back(Var(A % 10), A);
  for (int I = 0; I < 150; ++I) {
    uint32_t R = Rng() % 10;
    switch (Rng() % 4) {
    case 0:
      F.Copies.emplace_back(Var(R), Var(R));
      break;
    case 1:
      F.Loads.emplace_back(Var(R), Var(R));
      break;
    case 2:
      F.Stores.emplace_back(Var(R), Var(R));
      break;
    default:
      F.Geps.emplace_back(Var(R), Var(R), Rng() % 2);
    }
  }
  return F;
}

void pointsToCases() {
  // x = &a; y = x; *y = z; z = &b; w = *x  =>  {x, y, a}, {z, w, b}.
  PointerFacts Small;
  Small.NumVars = 5; // x y z w u
  Small.NumBaseAllocs = 2;
  Small.NumFields = 1;
  Small.Allocs = {{0, 0}, {2, 1}};
  Small.Copies = {{1, 0}};
  Small.Stores = {{1, 2}};
  Small.Loads = {{3, 0}};
  // u = &x->f0: u points to a's field-0 allocation (node 5 + 2 + 0).
  Small.Geps = {{4, 0, 0}};
  std::vector<uint32_t> P = steensgaardPartition(Small);
  std::vector<uint32_t> Expected = {0, 0, 2, 2, 4, 0, 2, 4, 8};
  std::string Why;
  expect(samePartition(P, Expected, Why), "hand-solved partition: " + Why);

  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    std::vector<uint32_t> Right = steensgaardPartition(randomFacts(Seed));
    expect(samePartition(Right, Right, Why), "partition equals itself");
    // Merge two classes: relabel every member of one as the other.
    std::set<uint32_t> Labels(Right.begin(), Right.end());
    if (Labels.size() < 2)
      continue;
    uint32_t Keep = *Labels.begin(), Drop = *std::next(Labels.begin());
    std::vector<uint32_t> Merged = Right;
    for (uint32_t &L : Merged)
      if (L == Drop)
        L = Keep;
    expect(!samePartition(Merged, Right, Why),
           "merged alias classes rejected (seed " + std::to_string(Seed) +
               ")");
  }
}

//===--- eqsat -------------------------------------------------------------===

/// Every term reachable by changing one operand of \p T: a symbol to a
/// symbol the term does not use, a number to another number.
void forEachOperandChange(MathTerm &T,
                          const std::function<void()> &Visit) {
  if (T.Op == "Sym") {
    std::string Saved = T.Symbol;
    T.Symbol = "fresh";
    Visit();
    T.Symbol = Saved;
    return;
  }
  if (T.Op == "Num") {
    int64_t Saved = T.Number;
    T.Number = Saved + 7;
    Visit();
    T.Number = Saved;
    return;
  }
  for (auto &Arg : T.Args)
    forEachOperandChange(*Arg, Visit);
}

void eqsatCases() {
  struct Case {
    const char *Seed;
    const char *Extracted;
  };
  // Extracted forms are the seed's polynomial with no more tree cost.
  const Case Cases[] = {
      {"(Add (Sym \"x\") (Add (Sym \"x\") (Add (Sym \"x\") (Sym \"x\"))))",
       "(Add (Add (Sym \"x\") (Sym \"x\")) (Add (Sym \"x\") (Sym \"x\")))"},
      {"(Mul (Pow (Sym \"x\") (Num 2)) (Pow (Sym \"x\") (Num 3)))",
       "(Pow (Sym \"x\") (Add (Num 2) (Num 3)))"},
      {"(Add (Mul (Num 5) (Pow (Sym \"x\") (Num 2))) (Add (Mul (Num -9) "
       "(Sym \"x\")) (Num 11)))",
       "(Add (Num 11) (Mul (Sym \"x\") (Add (Mul (Num 5) (Sym \"x\")) "
       "(Num -9))))"},
      {"(Sub (Mul (Add (Sym \"x\") (Num 4)) (Add (Sym \"x\") (Num -6))) "
       "(Mul (Sym \"x\") (Sym \"x\")))",
       "(Add (Mul (Num -2) (Sym \"x\")) (Num -24))"},
  };
  std::mt19937_64 Rng(7);
  for (const Case &C : Cases) {
    auto Seed = parseMathTerm(C.Seed);
    auto Right = parseMathTerm(C.Extracted);
    expect(Seed && Right, std::string("parses: ") + C.Extracted);
    if (!Seed || !Right)
      continue;
    std::vector<std::map<std::string, uint64_t>> Points(8);
    for (auto &P : Points)
      P = {{"x", Rng() % PolyPrime}, {"fresh", Rng() % PolyPrime}};
    std::string Why;
    expect(samePolynomial(*Right, *Seed, Points, Why),
           std::string("right answer accepted: ") + C.Extracted + " " + Why);
    expect(treeCost(*Right) <= treeCost(*Seed),
           std::string("right answer is no costlier: ") + C.Extracted);
    forEachOperandChange(*Right, [&] {
      expect(!samePolynomial(*Right, *Seed, Points, Why),
             std::string("changed operand rejected in ") + C.Extracted);
    });
  }
  // The cost model: a constructor and its primitive payload cost 1 each.
  auto Leaf = parseMathTerm("(Add (Num 1) (Sym \"x\"))");
  expect(Leaf && treeCost(*Leaf) == 5, "tree cost of (Add (Num 1) (Sym x))");
}

//===--- herbie ------------------------------------------------------------===

/// Every expression reachable by dropping one term of a sum, difference
/// or fma: the node is replaced by one of its addends.
void forEachDroppedTerm(std::unique_ptr<RealExpr> &Slot,
                        const std::function<void()> &Visit) {
  RealExpr &E = *Slot;
  bool Sum = E.Op == "+" || E.Op == "-";
  if (Sum || E.Op == "fma") {
    // fma(a, b, c) = a*b + c: keep a*b, or keep c.
    std::vector<std::unique_ptr<RealExpr>> Kept;
    if (E.Op == "fma") {
      auto Product = std::make_unique<RealExpr>();
      Product->Op = "*";
      Product->Args.push_back(std::move(E.Args[0]));
      Product->Args.push_back(std::move(E.Args[1]));
      Kept.push_back(std::move(Product));
      Kept.push_back(std::move(E.Args[2]));
    } else {
      Kept.push_back(std::move(E.Args[0]));
      Kept.push_back(std::move(E.Args[1]));
    }
    std::unique_ptr<RealExpr> Whole = std::move(Slot);
    for (auto &Keep : Kept) {
      Slot = std::move(Keep);
      Visit();
      Keep = std::move(Slot);
    }
    // Put the node back together.
    if (Whole->Op == "fma") {
      Whole->Args[0] = std::move(Kept[0]->Args[0]);
      Whole->Args[1] = std::move(Kept[0]->Args[1]);
      Whole->Args[2] = std::move(Kept[1]);
    } else {
      Whole->Args[0] = std::move(Kept[0]);
      Whole->Args[1] = std::move(Kept[1]);
    }
    Slot = std::move(Whole);
  }
  for (auto &Arg : Slot->Args)
    forEachDroppedTerm(Arg, Visit);
}

void herbieCases() {
  struct Case {
    const char *Input;
    const char *Chosen;
    std::vector<std::tuple<std::string, double, double>> Ranges;
  };
  const Case Cases[] = {
      {"(- (sqrt (+ x 1)) (sqrt x))", "(/ 1 (+ (sqrt (+ x 1)) (sqrt x)))",
       {{"x", 1.0, 1e12}}},
      {"(- (cbrt (+ v 1)) (cbrt v))",
       "(/ 1 (+ (* (cbrt (+ v 1)) (cbrt (+ v 1))) "
       "(+ (* (cbrt (+ v 1)) (cbrt v)) (* (cbrt v) (cbrt v)))))",
       {{"v", 1.0, 1e12}}},
      {"(- (* x x) (* y y))", "(* (+ x y) (- x y))",
       {{"x", -1e3, 1e3}, {"y", -1e3, 1e3}}},
      {"(+ (* a b) c)", "(fma a b c)",
       {{"a", -10, 10}, {"b", -10, 10}, {"c", -10, 10}}},
  };
  for (const Case &C : Cases) {
    auto Input = parseRealExpr(C.Input);
    auto Chosen = parseRealExpr(C.Chosen);
    expect(Input && Chosen, std::string("parses: ") + C.Chosen);
    if (!Input || !Chosen)
      continue;
    std::vector<RealPoint> Points = freshPoints(*Input, C.Ranges, 128, 99);
    RealComparison Right = compareReal(*Chosen, *Input, Points);
    expect(Right.Agrees, std::string("right answer accepted: ") + C.Chosen +
                             " " + Right.Why);
    expect(Right.CandidateErrorBits <= Right.InputErrorBits + 0.5,
           std::string("right answer is no less accurate: ") + C.Chosen);
    forEachDroppedTerm(Chosen, [&] {
      RealComparison Wrong = compareReal(*Chosen, *Input, Points);
      expect(!Wrong.Agrees, "dropped term rejected: " +
                                printRealExpr(*Chosen) + " for " + C.Input);
    });
    expect(printRealExpr(*Chosen) == printRealExpr(*parseRealExpr(C.Chosen)),
           "expression restored after the mutations");
  }
  expect(errorBits(1.0, 1.0) == 0, "exact value has 0 bits of error");
  expect(errorBits(1.0, std::nextafter(1.0, 2.0)) == 1,
         "one ulp is 1 bit of error");
}

} // namespace

int main() {
  pointsToCases();
  eqsatCases();
  herbieCases();
  std::printf("oracle self-test: %d checks passed, %d failed\n", Passes,
              Failures);
  return Failures == 0 ? 0 : 1;
}
