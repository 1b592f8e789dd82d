//===- perfbench/harness/Oracles.h - Independent output checks -*- C++ -*-===//
//
// Part of the egglog-cpp benchmark harness.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks of the program's outputs that share no code with the program:
/// this header includes no egglog header and the implementations parse
/// and evaluate everything themselves.
///
///  * Points-to: a union-find Steensgaard solver over the same facts,
///    whose partition of variables and allocations the engine's must equal.
///  * EqSat: an evaluator of math terms as polynomials modulo a large
///    prime, plus the extraction tree cost, so an extracted term can be
///    checked against its seed term.
///  * Herbie: a binary128 (libquadmath) evaluator of the real-expression
///    language, so a chosen expression can be checked against its input at
///    fresh points, and a binary64 evaluator to measure its error there.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_ORACLES_H
#define PERFBENCH_HARNESS_ORACLES_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace oracle {

//===--- points-to ---------------------------------------------------------===

/// The facts of one pointer program, with the same meaning as the engine's
/// encoding: base allocations are 0..NumBaseAllocs-1, and field F of base
/// allocation A is allocation NumBaseAllocs + A * NumFields + F.
struct PointerFacts {
  uint32_t NumVars = 0;
  uint32_t NumBaseAllocs = 0;
  uint32_t NumFields = 0;
  std::vector<std::pair<uint32_t, uint32_t>> Allocs, Copies, Loads, Stores;
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> Geps;

  uint32_t numAllocs() const {
    return NumBaseAllocs + NumBaseAllocs * NumFields;
  }
};

/// Steensgaard's unification analysis by union-find. Returns, for every
/// node (variables 0..NumVars-1, then allocations), the smallest node in
/// its class: a variable's class holds what it may point to.
std::vector<uint32_t> steensgaardPartition(const PointerFacts &Facts);

/// True if \p A and \p B put the same nodes together. On a mismatch,
/// \p Why names one pair of nodes the two disagree on.
bool samePartition(const std::vector<uint32_t> &A,
                   const std::vector<uint32_t> &B, std::string &Why);

//===--- eqsat -------------------------------------------------------------===

/// A term of the math datatype: (Num k), (Sym "name"), or
/// (Add|Sub|Mul|Pow a b).
struct MathTerm {
  std::string Op;
  int64_t Number = 0;
  std::string Symbol;
  std::vector<std::unique_ptr<MathTerm>> Args;
};

/// Parses the engine's printed form of a math term; null on a syntax
/// error or an unknown operator.
std::unique_ptr<MathTerm> parseMathTerm(const std::string &Text);

/// Tree cost under the engine's default model: every constructor costs 1
/// and every primitive leaf (the i64 or String payload) costs 1.
int64_t treeCost(const MathTerm &T);

/// The modulus of polynomial evaluation (the Mersenne prime 2^61 - 1).
constexpr uint64_t PolyPrime = (uint64_t(1) << 61) - 1;

/// Evaluates \p T modulo PolyPrime with each symbol bound by \p Point
/// (symbols missing from it are an error: returns false).
bool evalPoly(const MathTerm &T, const std::map<std::string, uint64_t> &Point,
              uint64_t &Out);

/// True if \p Candidate and \p Seed agree as polynomials at \p Points.
bool samePolynomial(const MathTerm &Candidate, const MathTerm &Seed,
                    const std::vector<std::map<std::string, uint64_t>> &Points,
                    std::string &Why);

//===--- herbie ------------------------------------------------------------===

/// An expression of the real-expression language in surface syntax:
/// (+ - * / neg sqrt cbrt fabs fma), numbers and variables.
struct RealExpr {
  std::string Op; ///< "num", "var", or an operator name.
  double Number = 0;
  std::string Name;
  std::vector<std::unique_ptr<RealExpr>> Args;
};

std::unique_ptr<RealExpr> parseRealExpr(const std::string &Text);

/// Renders \p E back to surface syntax (numbers with 17 digits).
std::string printRealExpr(const RealExpr &E);

/// Variable bindings for one point.
using RealPoint = std::map<std::string, double>;

/// Draws \p Count points from per-variable ranges [Lo, Hi] (half uniform,
/// half log-uniform when Lo > 0), keeping only points where \p Reference
/// is finite in binary128. Deterministic in \p Seed.
std::vector<RealPoint>
freshPoints(const RealExpr &Reference,
            const std::vector<std::tuple<std::string, double, double>> &Ranges,
            size_t Count, uint64_t Seed);

/// The result of comparing a candidate with the input expression it
/// replaces at a set of points.
struct RealComparison {
  bool Agrees = true;
  std::string Why;
  /// Largest |candidate - input| in binary128 divided by the forward error
  /// bound of the two evaluations (see Oracles.cpp); above 1 = disagree.
  double WorstDiscrepancy = 0;
  /// Mean bits of binary64 error against the binary128 value of the input.
  double CandidateErrorBits = 0;
  double InputErrorBits = 0;
};

RealComparison compareReal(const RealExpr &Candidate, const RealExpr &Input,
                           const std::vector<RealPoint> &Points);

/// log2(1 + ulp distance) between two doubles, over the ordered binary64
/// encoding; 64 when either is NaN.
double errorBits(double Approx, double Exact);

} // namespace oracle

#endif // PERFBENCH_HARNESS_ORACLES_H
