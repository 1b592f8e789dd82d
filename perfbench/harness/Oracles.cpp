//===- perfbench/harness/Oracles.cpp - Independent output checks ----------===//
//
// Part of the egglog-cpp benchmark harness. See Oracles.h.
//
//===----------------------------------------------------------------------===//

#include "Oracles.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

extern "C" {
#include <quadmath.h>
}

using namespace oracle;

//===--- points-to ---------------------------------------------------------===

namespace {

/// Union-find over analysis nodes. Each class may own a pointee class (the
/// `contents` of the object it stands for) and, for each field, one
/// representative field allocation (all field-F sub-allocations of the
/// base allocations in one class are unified).
class Steensgaard {
public:
  Steensgaard(uint32_t NumNodes, uint32_t NumFields)
      : NumFields(NumFields) {
    for (uint32_t I = 0; I < NumNodes; ++I)
      addNode();
  }

  uint32_t addNode() {
    uint32_t Id = static_cast<uint32_t>(Parent.size());
    Parent.push_back(Id);
    Pointee.push_back(None);
    FieldRep.resize(FieldRep.size() + NumFields, None);
    return Id;
  }

  uint32_t find(uint32_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  void setFieldRep(uint32_t Node, uint32_t Field, uint32_t Rep) {
    FieldRep[size_t(Node) * NumFields + Field] = Rep;
  }

  uint32_t fieldRep(uint32_t Node, uint32_t Field) {
    return FieldRep[size_t(find(Node)) * NumFields + Field];
  }

  /// The pointee of X's class, created on first use.
  uint32_t pointee(uint32_t X) {
    uint32_t Root = find(X);
    if (Pointee[Root] == None) {
      uint32_t Fresh = addNode();
      Pointee[Root] = Fresh;
    }
    return Pointee[Root];
  }

  /// Unifies two classes and, transitively, their pointees and field
  /// representatives. Returns true if anything merged.
  bool unite(uint32_t A, uint32_t B) {
    bool Merged = false;
    Work.emplace_back(A, B);
    while (!Work.empty()) {
      auto [X, Y] = Work.back();
      Work.pop_back();
      uint32_t RX = find(X), RY = find(Y);
      if (RX == RY)
        continue;
      Merged = true;
      if (RX > RY)
        std::swap(RX, RY);
      Parent[RY] = RX;
      if (Pointee[RY] != None) {
        if (Pointee[RX] == None)
          Pointee[RX] = Pointee[RY];
        else
          Work.emplace_back(Pointee[RX], Pointee[RY]);
      }
      for (uint32_t F = 0; F < NumFields; ++F) {
        uint32_t &Into = FieldRep[size_t(RX) * NumFields + F];
        uint32_t From = FieldRep[size_t(RY) * NumFields + F];
        if (From == None)
          continue;
        if (Into == None)
          Into = From;
        else
          Work.emplace_back(Into, From);
      }
    }
    return Merged;
  }

private:
  static constexpr uint32_t None = UINT32_MAX;
  uint32_t NumFields;
  std::vector<uint32_t> Parent, Pointee, FieldRep;
  std::vector<std::pair<uint32_t, uint32_t>> Work;
};

} // namespace

std::vector<uint32_t>
oracle::steensgaardPartition(const PointerFacts &Facts) {
  const uint32_t NV = Facts.NumVars;
  const uint32_t NumNodes = NV + Facts.numAllocs();
  Steensgaard S(NumNodes, Facts.NumFields);
  for (uint32_t A = 0; A < Facts.NumBaseAllocs; ++A)
    for (uint32_t F = 0; F < Facts.NumFields; ++F)
      S.setFieldRep(NV + A, F,
                    NV + Facts.NumBaseAllocs + A * Facts.NumFields + F);

  for (auto [V, A] : Facts.Allocs)
    S.unite(V, NV + A);
  for (auto [D, Src] : Facts.Copies)
    S.unite(D, Src);
  for (auto [D, Src] : Facts.Loads)
    S.unite(D, S.pointee(Src));
  for (auto [D, Src] : Facts.Stores)
    S.unite(S.pointee(D), Src);
  // d = &b->f points d at field f of every allocation b may point to; all
  // of those are one class, represented by the class's field-f rep. The
  // condition depends on the partition, so iterate to a fixpoint.
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (auto [D, B, F] : Facts.Geps) {
      uint32_t Rep = S.fieldRep(B, F);
      if (Rep != UINT32_MAX && S.unite(D, Rep))
        Changed = true;
    }
  }

  std::vector<uint32_t> RootMin;
  std::vector<uint32_t> Label(NumNodes);
  for (uint32_t I = 0; I < NumNodes; ++I) {
    uint32_t Root = S.find(I);
    if (Root >= RootMin.size())
      RootMin.resize(Root + 1, UINT32_MAX);
    RootMin[Root] = std::min(RootMin[Root], I);
  }
  for (uint32_t I = 0; I < NumNodes; ++I)
    Label[I] = RootMin[S.find(I)];
  return Label;
}

bool oracle::samePartition(const std::vector<uint32_t> &A,
                           const std::vector<uint32_t> &B, std::string &Why) {
  if (A.size() != B.size()) {
    Why = "partitions cover " + std::to_string(A.size()) + " and " +
          std::to_string(B.size()) + " nodes";
    return false;
  }
  // Two labelings describe the same partition iff the label maps are
  // bijective: every A-label pairs with exactly one B-label and back.
  std::map<uint32_t, uint32_t> AToB, BToA;
  for (size_t I = 0; I < A.size(); ++I) {
    auto ItA = AToB.emplace(A[I], B[I]).first;
    auto ItB = BToA.emplace(B[I], A[I]).first;
    if (ItA->second != B[I] || ItB->second != A[I]) {
      Why = "node " + std::to_string(I) + " is grouped differently (labels " +
            std::to_string(A[I]) + " / " + std::to_string(B[I]) + ")";
      return false;
    }
  }
  return true;
}

//===--- s-expression tokens ------------------------------------------------===

namespace {

/// Splits text into "(", ")", quoted strings (kept with their quotes) and
/// atoms.
std::vector<std::string> tokenize(const std::string &Text) {
  std::vector<std::string> Tokens;
  size_t I = 0;
  while (I < Text.size()) {
    char C = Text[I];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
    } else if (C == '(' || C == ')') {
      Tokens.emplace_back(1, C);
      ++I;
    } else if (C == '"') {
      size_t End = Text.find('"', I + 1);
      if (End == std::string::npos)
        return {};
      Tokens.push_back(Text.substr(I, End - I + 1));
      I = End + 1;
    } else {
      size_t Start = I;
      while (I < Text.size() && Text[I] != '(' && Text[I] != ')' &&
             !std::isspace(static_cast<unsigned char>(Text[I])))
        ++I;
      Tokens.push_back(Text.substr(Start, I - Start));
    }
  }
  return Tokens;
}

bool parseInt64(const std::string &Token, int64_t &Out) {
  if (Token.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Token.c_str(), &End, 10);
  if (errno != 0 || End != Token.c_str() + Token.size())
    return false;
  Out = V;
  return true;
}

std::unique_ptr<MathTerm> parseMath(const std::vector<std::string> &Tokens,
                                    size_t &Pos) {
  if (Pos >= Tokens.size() || Tokens[Pos] != "(")
    return nullptr;
  ++Pos;
  if (Pos >= Tokens.size())
    return nullptr;
  auto T = std::make_unique<MathTerm>();
  T->Op = Tokens[Pos++];
  if (T->Op == "Num") {
    if (Pos >= Tokens.size() || !parseInt64(Tokens[Pos++], T->Number))
      return nullptr;
  } else if (T->Op == "Sym") {
    if (Pos >= Tokens.size() || Tokens[Pos].size() < 2 ||
        Tokens[Pos][0] != '"')
      return nullptr;
    T->Symbol = Tokens[Pos].substr(1, Tokens[Pos].size() - 2);
    ++Pos;
  } else if (T->Op == "Add" || T->Op == "Sub" || T->Op == "Mul" ||
             T->Op == "Pow") {
    for (int I = 0; I < 2; ++I) {
      auto Arg = parseMath(Tokens, Pos);
      if (!Arg)
        return nullptr;
      T->Args.push_back(std::move(Arg));
    }
  } else {
    return nullptr;
  }
  if (Pos >= Tokens.size() || Tokens[Pos] != ")")
    return nullptr;
  ++Pos;
  return T;
}

uint64_t mulMod(uint64_t A, uint64_t B) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(A) * B) %
                               PolyPrime);
}

uint64_t powMod(uint64_t Base, uint64_t Exp) {
  uint64_t Result = 1;
  while (Exp) {
    if (Exp & 1)
      Result = mulMod(Result, Base);
    Base = mulMod(Base, Base);
    Exp >>= 1;
  }
  return Result;
}

} // namespace

//===--- eqsat -------------------------------------------------------------===

std::unique_ptr<MathTerm> oracle::parseMathTerm(const std::string &Text) {
  std::vector<std::string> Tokens = tokenize(Text);
  size_t Pos = 0;
  auto T = parseMath(Tokens, Pos);
  if (!T || Pos != Tokens.size())
    return nullptr;
  return T;
}

int64_t oracle::treeCost(const MathTerm &T) {
  if (T.Args.empty())
    return 2; // constructor + primitive payload
  int64_t Cost = 1;
  for (const auto &Arg : T.Args)
    Cost += treeCost(*Arg);
  return Cost;
}

bool oracle::evalPoly(const MathTerm &T,
                      const std::map<std::string, uint64_t> &Point,
                      uint64_t &Out) {
  if (T.Op == "Num") {
    int64_t Mod = T.Number % static_cast<int64_t>(PolyPrime);
    Out = static_cast<uint64_t>(Mod < 0 ? Mod + int64_t(PolyPrime) : Mod);
    return true;
  }
  if (T.Op == "Sym") {
    auto It = Point.find(T.Symbol);
    if (It == Point.end())
      return false;
    Out = It->second % PolyPrime;
    return true;
  }
  uint64_t A = 0, B = 0;
  if (T.Args.size() != 2 || !evalPoly(*T.Args[0], Point, A) ||
      !evalPoly(*T.Args[1], Point, B))
    return false;
  if (T.Op == "Add")
    Out = (A + B) % PolyPrime;
  else if (T.Op == "Sub")
    Out = (A + PolyPrime - B) % PolyPrime;
  else if (T.Op == "Mul")
    Out = mulMod(A, B);
  else if (T.Op == "Pow")
    Out = powMod(A, B); // exponents are small non-negative constants
  else
    return false;
  return true;
}

bool oracle::samePolynomial(
    const MathTerm &Candidate, const MathTerm &Seed,
    const std::vector<std::map<std::string, uint64_t>> &Points,
    std::string &Why) {
  for (size_t I = 0; I < Points.size(); ++I) {
    uint64_t C = 0, S = 0;
    if (!evalPoly(Candidate, Points[I], C) || !evalPoly(Seed, Points[I], S)) {
      Why = "term has a symbol the seed does not bind";
      return false;
    }
    if (C != S) {
      Why = "values differ at point " + std::to_string(I) + " (" +
            std::to_string(C) + " vs " + std::to_string(S) + ")";
      return false;
    }
  }
  return true;
}

//===--- herbie ------------------------------------------------------------===

namespace {

unsigned realArity(const std::string &Op) {
  if (Op == "neg" || Op == "sqrt" || Op == "cbrt" || Op == "fabs")
    return 1;
  if (Op == "+" || Op == "-" || Op == "*" || Op == "/")
    return 2;
  if (Op == "fma")
    return 3;
  return 0;
}

std::unique_ptr<RealExpr> parseReal(const std::vector<std::string> &Tokens,
                                    size_t &Pos) {
  if (Pos >= Tokens.size())
    return nullptr;
  auto E = std::make_unique<RealExpr>();
  const std::string &Tok = Tokens[Pos++];
  if (Tok == ")")
    return nullptr;
  if (Tok != "(") {
    char *End = nullptr;
    double V = std::strtod(Tok.c_str(), &End);
    if (End == Tok.c_str() + Tok.size() && !Tok.empty() &&
        (std::isdigit(static_cast<unsigned char>(Tok[0])) || Tok[0] == '-' ||
         Tok[0] == '.' || Tok[0] == '+')) {
      E->Op = "num";
      E->Number = V;
    } else {
      E->Op = "var";
      E->Name = Tok;
    }
    return E;
  }
  if (Pos >= Tokens.size())
    return nullptr;
  E->Op = Tokens[Pos++];
  unsigned Arity = realArity(E->Op);
  if (Arity == 0)
    return nullptr;
  for (unsigned I = 0; I < Arity; ++I) {
    auto Arg = parseReal(Tokens, Pos);
    if (!Arg)
      return nullptr;
    E->Args.push_back(std::move(Arg));
  }
  if (Pos >= Tokens.size() || Tokens[Pos] != ")")
    return nullptr;
  ++Pos;
  return E;
}

/// Evaluates in binary128 and adds |value| of every node to \p Magnitude:
/// each rounding error is at most 2^-113 of the value it rounds, so
/// 2^-113 * Magnitude (amplified by later operations) bounds how far the
/// computed value may sit from the real one.
__float128 evalQuad(const RealExpr &E, const RealPoint &P,
                    __float128 &Magnitude) {
  __float128 R = 0;
  if (E.Op == "num") {
    R = E.Number;
  } else if (E.Op == "var") {
    auto It = P.find(E.Name);
    R = It == P.end() ? nanq("") : __float128(It->second);
  } else {
    __float128 A = evalQuad(*E.Args[0], P, Magnitude);
    __float128 B = E.Args.size() > 1 ? evalQuad(*E.Args[1], P, Magnitude) : 0;
    if (E.Op == "+")
      R = A + B;
    else if (E.Op == "-")
      R = A - B;
    else if (E.Op == "*")
      R = A * B;
    else if (E.Op == "/")
      R = A / B;
    else if (E.Op == "neg")
      R = -A;
    else if (E.Op == "sqrt")
      R = sqrtq(A);
    else if (E.Op == "cbrt")
      R = cbrtq(A);
    else if (E.Op == "fabs")
      R = fabsq(A);
    else if (E.Op == "fma")
      R = fmaq(A, B, evalQuad(*E.Args[2], P, Magnitude));
  }
  Magnitude += fabsq(R);
  return R;
}

double evalDouble(const RealExpr &E, const RealPoint &P) {
  if (E.Op == "num")
    return E.Number;
  if (E.Op == "var") {
    auto It = P.find(E.Name);
    return It == P.end() ? std::nan("") : It->second;
  }
  double A = evalDouble(*E.Args[0], P);
  double B = E.Args.size() > 1 ? evalDouble(*E.Args[1], P) : 0;
  if (E.Op == "+")
    return A + B;
  if (E.Op == "-")
    return A - B;
  if (E.Op == "*")
    return A * B;
  if (E.Op == "/")
    return A / B;
  if (E.Op == "neg")
    return -A;
  if (E.Op == "sqrt")
    return std::sqrt(A);
  if (E.Op == "cbrt")
    return std::cbrt(A);
  if (E.Op == "fabs")
    return std::fabs(A);
  return std::fma(A, B, evalDouble(*E.Args[2], P));
}

/// SplitMix64: the oracle's own generator, so fresh points share nothing
/// with the program's sampler.
struct SplitMix {
  uint64_t State;
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

bool quadFinite(__float128 X) { return !isnanq(X) && !isinfq(X); }

} // namespace

std::unique_ptr<RealExpr> oracle::parseRealExpr(const std::string &Text) {
  std::vector<std::string> Tokens = tokenize(Text);
  size_t Pos = 0;
  auto E = parseReal(Tokens, Pos);
  if (!E || Pos != Tokens.size())
    return nullptr;
  return E;
}

std::string oracle::printRealExpr(const RealExpr &E) {
  if (E.Op == "num") {
    char Buffer[40];
    std::snprintf(Buffer, sizeof(Buffer), "%.17g", E.Number);
    return Buffer;
  }
  if (E.Op == "var")
    return E.Name;
  std::string Out = "(" + E.Op;
  for (const auto &Arg : E.Args)
    Out += " " + printRealExpr(*Arg);
  return Out + ")";
}

std::vector<RealPoint> oracle::freshPoints(
    const RealExpr &Reference,
    const std::vector<std::tuple<std::string, double, double>> &Ranges,
    size_t Count, uint64_t Seed) {
  SplitMix Rng{Seed};
  std::vector<RealPoint> Points;
  for (size_t Attempt = 0; Points.size() < Count && Attempt < Count * 20;
       ++Attempt) {
    RealPoint P;
    for (const auto &[Name, Lo, Hi] : Ranges) {
      double V = Lo + (Hi - Lo) * Rng.unit();
      if (Lo > 0 && (Rng.next() & 1))
        V = std::exp(std::log(Lo) + (std::log(Hi) - std::log(Lo)) * Rng.unit());
      P[Name] = std::clamp(V, Lo, Hi);
    }
    __float128 Magnitude = 0;
    if (quadFinite(evalQuad(Reference, P, Magnitude)))
      Points.push_back(std::move(P));
  }
  return Points;
}

double oracle::errorBits(double Approx, double Exact) {
  if (std::isnan(Approx) || std::isnan(Exact))
    return 64;
  auto Ordered = [](double D) {
    int64_t Bits = 0;
    std::memcpy(&Bits, &D, sizeof(D));
    return Bits < 0 ? INT64_MIN - Bits : Bits;
  };
  int64_t A = Ordered(Approx), B = Ordered(Exact);
  uint64_t Distance = A > B ? uint64_t(A) - uint64_t(B)
                            : uint64_t(B) - uint64_t(A);
  return std::log2(1.0 + static_cast<double>(Distance));
}

RealComparison oracle::compareReal(const RealExpr &Candidate,
                                   const RealExpr &Input,
                                   const std::vector<RealPoint> &Points) {
  RealComparison Result;
  if (Points.empty()) {
    Result.Agrees = false;
    Result.Why = "no fresh point where the input is finite";
    return Result;
  }
  // Forward error bound: 2^-100 per unit of accumulated magnitude, 13 bits
  // of slack over binary128's unit roundoff for error amplification.
  const __float128 Slack = 0x1.0p-100; // exact in binary64
  double CandidateBits = 0, InputBits = 0;
  for (size_t I = 0; I < Points.size(); ++I) {
    __float128 MagC = 0, MagI = 0;
    __float128 C = evalQuad(Candidate, Points[I], MagC);
    __float128 In = evalQuad(Input, Points[I], MagI);
    __float128 Bound = Slack * (MagC + MagI);
    double Discrepancy =
        quadFinite(C) ? static_cast<double>(fabsq(C - In) / Bound) : INFINITY;
    if (Bound == 0)
      Discrepancy = C == In ? 0 : INFINITY;
    Result.WorstDiscrepancy = std::max(Result.WorstDiscrepancy, Discrepancy);
    if (!(Discrepancy <= 1) && Result.Agrees) {
      // quadmath_snprintf takes exactly one __float128 conversion per call.
      char Got[64], Want[64];
      quadmath_snprintf(Got, sizeof(Got), "%.20Qg", C);
      quadmath_snprintf(Want, sizeof(Want), "%.20Qg", In);
      Result.Agrees = false;
      Result.Why = "point " + std::to_string(I) + ": " + Got + " vs " + Want;
    }
    double Truth = static_cast<double>(In);
    CandidateBits += errorBits(evalDouble(Candidate, Points[I]), Truth);
    InputBits += errorBits(evalDouble(Input, Points[I]), Truth);
  }
  Result.CandidateErrorBits = CandidateBits / Points.size();
  Result.InputErrorBits = InputBits / Points.size();
  return Result;
}
