//===- tests/support/RationalTest.cpp - Rational unit tests ----------------===//
//
// Part of egglog-cpp. Tests for exact rational arithmetic, including the
// sqrt/cbrt bounds used by the mini-Herbie interval analysis, the
// normalization fast paths, and the interval primitives' saturation at
// 1024-bit magnitudes.
//
//===----------------------------------------------------------------------===//

#include "core/Frontend.h"
#include "support/Rational.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

using egglog::BigInt;
using egglog::Rational;

TEST(RationalTest, NormalizationInvariants) {
  Rational Half(BigInt(2), BigInt(4));
  EXPECT_EQ(Half.numerator(), BigInt(1));
  EXPECT_EQ(Half.denominator(), BigInt(2));

  Rational NegHalf(BigInt(1), BigInt(-2));
  EXPECT_TRUE(NegHalf.isNegative());
  EXPECT_EQ(NegHalf.numerator(), BigInt(-1));
  EXPECT_EQ(NegHalf.denominator(), BigInt(2));

  Rational Zero(BigInt(0), BigInt(-7));
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.denominator(), BigInt(1));
}

TEST(RationalTest, Arithmetic) {
  Rational Third(BigInt(1), BigInt(3));
  Rational Quarter(BigInt(1), BigInt(4));
  EXPECT_EQ((Third + Quarter).toString(), "7/12");
  EXPECT_EQ((Third - Quarter).toString(), "1/12");
  EXPECT_EQ((Third * Quarter).toString(), "1/12");
  EXPECT_EQ((Third / Quarter).toString(), "4/3");
  EXPECT_EQ((-Third).toString(), "-1/3");
  EXPECT_EQ(Third.inverse().toString(), "3");
}

TEST(RationalTest, Comparison) {
  Rational A(BigInt(1), BigInt(3)), B(BigInt(1), BigInt(4));
  EXPECT_GT(A, B);
  EXPECT_LT(B, A);
  EXPECT_LE(A, A);
  EXPECT_EQ(Rational::min(A, B), B);
  EXPECT_EQ(Rational::max(A, B), A);
  EXPECT_LT(Rational(-5), Rational(3));
}

TEST(RationalTest, FromDoubleExact) {
  // Doubles are binary rationals, so the conversion must be lossless.
  EXPECT_EQ(Rational::fromDouble(0.5).toString(), "1/2");
  EXPECT_EQ(Rational::fromDouble(0.25).toString(), "1/4");
  EXPECT_EQ(Rational::fromDouble(3.0).toString(), "3");
  EXPECT_EQ(Rational::fromDouble(-1.75).toString(), "-7/4");
  EXPECT_EQ(Rational::fromDouble(0.0).toString(), "0");
  // 0.1 is not representable; round-trip through double must be exact.
  Rational Tenth = Rational::fromDouble(0.1);
  EXPECT_DOUBLE_EQ(Tenth.toDouble(), 0.1);
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(BigInt(1), BigInt(3)).toDouble(),
                   1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Rational(BigInt(-22), BigInt(7)).toDouble(), -22.0 / 7.0);
  EXPECT_DOUBLE_EQ(Rational(1000000007).toDouble(), 1000000007.0);
}

TEST(RationalTest, SqrtBoundsBracketTrueRoot) {
  Rational Two(2);
  Rational Lo = Two.sqrtLower(), Hi = Two.sqrtUpper();
  EXPECT_LE(Lo * Lo, Two);
  EXPECT_GE(Hi * Hi, Two);
  EXPECT_LT((Hi - Lo).toDouble(), 1e-10);

  Rational Nine(9);
  EXPECT_EQ(Nine.sqrtLower(), Rational(3));
  EXPECT_EQ(Nine.sqrtUpper(), Rational(3));

  Rational Zero(0);
  EXPECT_EQ(Zero.sqrtLower(), Rational(0));
  EXPECT_EQ(Zero.sqrtUpper(), Rational(0));
}

TEST(RationalTest, CbrtBoundsBracketTrueRoot) {
  Rational Eight(8);
  EXPECT_EQ(Eight.cbrtLower(), Rational(2));
  EXPECT_EQ(Eight.cbrtUpper(), Rational(2));

  Rational Ten(10);
  Rational Lo = Ten.cbrtLower(), Hi = Ten.cbrtUpper();
  EXPECT_LE(Lo * Lo * Lo, Ten);
  EXPECT_GE(Hi * Hi * Hi, Ten);
  EXPECT_LT((Hi - Lo).toDouble(), 1e-10);

  // cbrt is odd; negative inputs flip the bounds.
  Rational MinusTen(-10);
  Rational NLo = MinusTen.cbrtLower(), NHi = MinusTen.cbrtUpper();
  EXPECT_LE(NLo * NLo * NLo, MinusTen);
  EXPECT_GE(NHi * NHi * NHi, MinusTen);
  EXPECT_LE(NLo, NHi);
}

TEST(RationalTest, Pow) {
  Rational Half(BigInt(1), BigInt(2));
  EXPECT_EQ(Half.pow(3).toString(), "1/8");
  EXPECT_EQ(Half.pow(0).toString(), "1");
  EXPECT_EQ(Half.pow(-2).toString(), "4");
  EXPECT_EQ(Rational(-3).pow(3).toString(), "-27");
}

TEST(RationalTest, AbsAndSign) {
  EXPECT_EQ(Rational(-5).abs(), Rational(5));
  EXPECT_EQ(Rational(5).abs(), Rational(5));
  EXPECT_EQ(Rational(-5).sign(), -1);
  EXPECT_EQ(Rational(0).sign(), 0);
  EXPECT_EQ(Rational(5).sign(), 1);
}

TEST(RationalTest, NoOverflowOnHugeValues) {
  // The paper notes an overflow failure in egglog's fixed-width rationals
  // (§6.2 far-right outlier); arbitrary precision must handle this.
  Rational Big = Rational(BigInt(10).pow(30), BigInt(1));
  Rational Result = Big * Big + Big;
  EXPECT_EQ(Result.numerator().toString(),
            "1000000000000000000000000000001000000000000000000000000000000");
}

class RationalPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RationalPropertyTest, FieldAxioms) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<int64_t> Dist(-1000, 1000);
  for (int Trial = 0; Trial < 100; ++Trial) {
    int64_t NumA = Dist(Rng), NumB = Dist(Rng), NumC = Dist(Rng);
    int64_t DenA = Dist(Rng), DenB = Dist(Rng), DenC = Dist(Rng);
    if (DenA == 0 || DenB == 0 || DenC == 0)
      continue;
    Rational A = Rational(BigInt(NumA), BigInt(DenA));
    Rational B = Rational(BigInt(NumB), BigInt(DenB));
    Rational C = Rational(BigInt(NumC), BigInt(DenC));
    EXPECT_EQ(A + B, B + A);
    EXPECT_EQ((A + B) + C, A + (B + C));
    EXPECT_EQ(A * (B + C), A * B + A * C);
    EXPECT_EQ(A + Rational(0), A);
    EXPECT_EQ(A * Rational(1), A);
    EXPECT_EQ(A - A, Rational(0));
    if (!A.isZero())
      EXPECT_EQ(A * A.inverse(), Rational(1));
  }
}

TEST_P(RationalPropertyTest, SqrtBoundsAlwaysBracket) {
  std::mt19937_64 Rng(GetParam() * 31 + 5);
  std::uniform_int_distribution<int64_t> Dist(0, 100000);
  for (int Trial = 0; Trial < 50; ++Trial) {
    int64_t Num = Dist(Rng), Den = Dist(Rng) + 1;
    Rational V = Rational(BigInt(Num), BigInt(Den));
    Rational Lo = V.sqrtLower(), Hi = V.sqrtUpper();
    EXPECT_LE(Lo * Lo, V);
    EXPECT_GE(Hi * Hi, V);
    EXPECT_LE(Lo, Hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RationalPropertyTest,
                         ::testing::Values(1u, 7u, 99u));

TEST(RationalTest, OutwardRoundingBrackets) {
  // Rounding must be outward (roundDown <= v <= roundUp) and idempotent on
  // small values.
  Rational Third(BigInt(1), BigInt(3));
  EXPECT_EQ(Third.roundDown(64), Third) << "small values pass through";
  Rational Huge = Rational(BigInt(10).pow(40) + BigInt(7), BigInt(10).pow(39));
  Rational Down = Huge.roundDown(64), Up = Huge.roundUp(64);
  EXPECT_LE(Down, Huge);
  EXPECT_GE(Up, Huge);
  EXPECT_LE(Down.numerator().bitWidth(), 70u);
  EXPECT_LE(Down.denominator().bitWidth(), 70u);
  // The loss is bounded: the bracket is tight to ~2^-60 relative error.
  EXPECT_LT(((Up - Down) / Huge).toDouble(), 1e-15);
}

TEST(RationalTest, OutwardRoundingNegative) {
  Rational V = -Rational(BigInt(10).pow(40) + BigInt(7), BigInt(10).pow(39));
  EXPECT_LE(V.roundDown(64), V);
  EXPECT_GE(V.roundUp(64), V);
}

//===----------------------------------------------------------------------===//
// Normalization fast paths
//===----------------------------------------------------------------------===//

namespace {

/// Canonical form by the general route: divide out the full gcd, then move
/// the sign to the numerator.
void expectCanonical(const BigInt &Num, const BigInt &Den) {
  BigInt G = BigInt::gcd(Num, Den);
  BigInt ExpectNum = Num / G, ExpectDen = Den / G;
  if (ExpectDen.isNegative()) {
    ExpectNum = -ExpectNum;
    ExpectDen = -ExpectDen;
  }
  Rational R(Num, Den);
  EXPECT_EQ(R.numerator(), ExpectNum) << Num.toString() << "/" << Den.toString();
  EXPECT_EQ(R.denominator(), ExpectDen)
      << Num.toString() << "/" << Den.toString();
}

} // namespace

TEST(RationalTest, NormalizeFastPathsMatchGcd) {
  std::mt19937_64 Rng(17);
  std::uniform_int_distribution<int64_t> Dist(-1000000000LL, 1000000000LL);
  for (int Trial = 0; Trial < 200; ++Trial) {
    // Numerators with a random power of two folded in, so the dyadic path
    // sees every relation between ctz(num) and log2(den).
    BigInt Num = BigInt(Dist(Rng)).shiftLeft(static_cast<unsigned>(Rng() % 90));
    unsigned K = static_cast<unsigned>(Rng() % 150);
    BigInt Power = BigInt(1).shiftLeft(K);
    expectCanonical(Num, BigInt(1));
    expectCanonical(Num, BigInt(-1));
    expectCanonical(Num, Power);
    expectCanonical(-Num, Power);
    expectCanonical(Num, -Power);
    // Not a power of two: the general gcd path.
    expectCanonical(Num, Power * BigInt(3));
    expectCanonical(Num, Power + BigInt(1).shiftLeft(K + 1));
  }
  Rational Zero(BigInt(0), BigInt(1).shiftLeft(70));
  EXPECT_EQ(Zero.denominator(), BigInt(1));
  Rational Exact(BigInt(3).shiftLeft(100), BigInt(1).shiftLeft(100));
  EXPECT_EQ(Exact, Rational(3));
  EXPECT_TRUE(Exact.isInteger());
}

TEST(RationalTest, InfinitiesBypassNormalization) {
  Rational Inf = Rational::posInfinity(), NegInf = Rational::negInfinity();
  Rational Dyadic(BigInt(-3), BigInt(8));
  EXPECT_EQ(Inf * Dyadic, NegInf);
  EXPECT_EQ((Inf * Dyadic).denominator(), BigInt(0));
  EXPECT_EQ(Inf + Dyadic, Inf);
  EXPECT_EQ(Dyadic / Inf, Rational(0));
  EXPECT_EQ((Dyadic / Inf).denominator(), BigInt(1));
  EXPECT_EQ(NegInf.inverse(), Rational(0));
  EXPECT_EQ(Inf.roundDown(), Inf);
  EXPECT_EQ(NegInf.roundUp(), NegInf);
  EXPECT_EQ(Inf.sqrtLower(), Inf);
  EXPECT_EQ(NegInf.cbrtUpper(), NegInf);
}

TEST(RationalTest, RoundingAndRootsPinned) {
  // Pinned outputs: the interval analysis interns these values, so any
  // change to them changes e-graphs and extracted candidates.
  Rational A(BigInt(10).pow(40) + BigInt(7), BigInt(10).pow(39));
  Rational B(BigInt(1).shiftLeft(2000) + BigInt(1), BigInt(1).shiftLeft(2000));
  Rational C(BigInt(3).pow(700), BigInt(7).pow(300));
  Rational Third(BigInt(1), BigInt(3));
  EXPECT_EQ(A.roundDown().toString(), "10");
  EXPECT_EQ(A.roundUp().toString(),
            "23058430092136939521/2305843009213693952");
  EXPECT_EQ((-A).roundDown().toString(),
            "-23058430092136939521/2305843009213693952");
  EXPECT_EQ((-A).roundUp().toString(), "-10");
  EXPECT_EQ((-A).roundDown(32).toString(), "-5368709121/536870912");
  EXPECT_EQ(B.roundDown().toString(), "1");
  EXPECT_EQ(B.roundUp().toString(),
            "18446744073709551617/18446744073709551616");
  EXPECT_EQ(C.roundDown().toString(),
            "285408103335818771241728317669691768420185465752822756216750025"
            "549325131587780608");
  EXPECT_EQ(C.roundUp().toString(),
            "285408103335818771254583822023763690624521162491552057036927649"
            "499587474270191616");
  EXPECT_EQ(Third.roundDown().toString(), "1/3");
  EXPECT_EQ(A.roundDown().sqrtLower(30).toString(), "1697734891/536870912");
  EXPECT_EQ(A.roundDown().sqrtLower().toString(),
            "445051015374261/140737488355328");
  EXPECT_EQ(Third.sqrtLower(30).toString(), "619925131/1073741824");
  EXPECT_EQ(Third.sqrtLower().toString(), "243764480361061/422212465065984");
  EXPECT_EQ(Rational(2).sqrtLower().toString(),
            "99516432383215/70368744177664");
  EXPECT_EQ(A.roundUp().cbrtUpper(30).toString(),
            "2667060964815856209890228601/1237940039285380274899124224");
  EXPECT_EQ((-A).roundUp().cbrtUpper(30).toString(), "-2313306633/1073741824");
  EXPECT_EQ(B.roundUp().cbrtUpper(30).toString(),
            "9903520314283042199371950763/9903520314283042199192993792");
  EXPECT_EQ(Third.cbrtUpper(30).toString(), "2233472999/3221225472");
  EXPECT_EQ(Rational(10).cbrtUpper().toString(),
            "303209727100677/140737488355328");
  EXPECT_EQ(Rational(-10).cbrtUpper().toString(),
            "-606419454201353/281474976710656");
}

//===----------------------------------------------------------------------===//
// Interval primitives at the 1024-bit saturation regime
//===----------------------------------------------------------------------===//

namespace {

std::string literal(const Rational &R) {
  return "(rational-big \"" + R.numerator().toString() + "\" \"" +
         R.denominator().toString() + "\")";
}

/// Applies an interval primitive through the frontend and returns the
/// extracted result as printed.
std::string applyPrim(const char *Op, const Rational &Arg) {
  egglog::Frontend F;
  std::string Source =
      std::string("(extract (") + Op + " " + literal(Arg) + "))";
  EXPECT_TRUE(F.execute(Source)) << F.error();
  return F.outputs().empty() ? std::string() : F.outputs().back();
}

std::string integerOutput(const BigInt &V) {
  return "(rational-big \"" + V.toString() + "\" \"1\")";
}

std::string reciprocalOutput(const BigInt &V) {
  return "(rational-big \"1\" \"" + V.toString() + "\")";
}

} // namespace

TEST(RationalTest, IntervalPrimitivesSaturatePastTheCap) {
  // 2^1100 + 1 still has a 1101-bit numerator after 64-bit rounding, so
  // lower bounds saturate to the cap 2^896 and upper bounds to +inf; the
  // reciprocal saturates to 0 / 2^-896.
  Rational Huge(BigInt(1).shiftLeft(1100) + BigInt(1), BigInt(1));
  Rational Tiny = Huge.inverse();
  BigInt Cap = BigInt(1).shiftLeft(896);
  const std::string PosInf = "(rational 1 0)", NegInf = "(rational -1 0)";
  const std::string Zero = "(rational 0 1)";
  const std::string CbrtCap =
      "808398262932607875805592260756432342438738120750887540887994093372"
      "720022448044583438778368";

  EXPECT_EQ(applyPrim("round-lo", Huge), integerOutput(Cap));
  EXPECT_EQ(applyPrim("round-hi", Huge), PosInf);
  EXPECT_EQ(applyPrim("sqrt-lo", Huge), integerOutput(BigInt(1).shiftLeft(448)));
  EXPECT_EQ(applyPrim("sqrt-hi", Huge), PosInf);
  EXPECT_EQ(applyPrim("cbrt-lo", Huge), "(rational-big \"" + CbrtCap + "\" \"1\")");
  EXPECT_EQ(applyPrim("cbrt-hi", Huge), PosInf);

  EXPECT_EQ(applyPrim("round-lo", -Huge), NegInf);
  EXPECT_EQ(applyPrim("round-hi", -Huge), integerOutput(-Cap));
  EXPECT_EQ(applyPrim("cbrt-lo", -Huge), NegInf);
  EXPECT_EQ(applyPrim("cbrt-hi", -Huge),
            "(rational-big \"-" + CbrtCap + "\" \"1\")");

  EXPECT_EQ(applyPrim("round-lo", Tiny), Zero);
  EXPECT_EQ(applyPrim("round-hi", Tiny), reciprocalOutput(Cap));
  EXPECT_EQ(applyPrim("sqrt-lo", Tiny), Zero);
  EXPECT_EQ(applyPrim("sqrt-hi", Tiny),
            reciprocalOutput(BigInt(1).shiftLeft(448)));
  EXPECT_EQ(applyPrim("cbrt-lo", Tiny), Zero);
  EXPECT_EQ(applyPrim("cbrt-hi", Tiny),
            "(rational-big \"23241441160490167843\" "
            "\"1878834066219066582311584477431469621900546039126655896565832"
            "7772257672200916867547709591987078149624255479808\")");
  EXPECT_EQ(applyPrim("round-lo", -Tiny), "(rational-big \"-1\" \"" +
                                              Cap.toString() + "\")");
  EXPECT_EQ(applyPrim("round-hi", -Tiny), Zero);
}

TEST(RationalTest, IntervalPrimitivesRoundWideButModerateValues) {
  // (2^2000 + 1) / 2^2000 is wide but near 1: rounding to 64 bits absorbs
  // the width, so nothing saturates.
  Rational NearOne(BigInt(1).shiftLeft(2000) + BigInt(1),
                   BigInt(1).shiftLeft(2000));
  const std::string Up =
      "(rational-big \"18446744073709551617\" \"18446744073709551616\")";
  for (const char *Op : {"round-lo", "sqrt-lo", "cbrt-lo"})
    EXPECT_EQ(applyPrim(Op, NearOne), "(rational 1 1)") << Op;
  for (const char *Op : {"round-hi", "sqrt-hi", "cbrt-hi"})
    EXPECT_EQ(applyPrim(Op, NearOne), Up) << Op;
}
