//===- tests/support/BigIntTest.cpp - BigInt unit tests --------------------===//
//
// Part of egglog-cpp. Unit and property tests for arbitrary-precision
// integers, checked against native 64-bit arithmetic oracles and, for
// division and gcd, against a bit-at-a-time reference division.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <random>
#include <string>
#include <vector>

using egglog::BigInt;

TEST(BigIntTest, ZeroBasics) {
  BigInt Zero;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_FALSE(Zero.isNegative());
  EXPECT_EQ(Zero.sign(), 0);
  EXPECT_EQ(Zero.toString(), "0");
  EXPECT_EQ(Zero.toInt64(), 0);
  EXPECT_EQ(Zero, BigInt(0));
  EXPECT_EQ((-Zero), Zero);
}

TEST(BigIntTest, SmallValues) {
  EXPECT_EQ(BigInt(42).toString(), "42");
  EXPECT_EQ(BigInt(-42).toString(), "-42");
  EXPECT_EQ(BigInt(42).toInt64(), 42);
  EXPECT_EQ(BigInt(-42).toInt64(), -42);
  EXPECT_TRUE(BigInt(1).isOne());
  EXPECT_FALSE(BigInt(-1).isOne());
}

TEST(BigIntTest, Int64Extremes) {
  BigInt Min(INT64_MIN), Max(INT64_MAX);
  EXPECT_TRUE(Min.fitsInt64());
  EXPECT_TRUE(Max.fitsInt64());
  EXPECT_EQ(Min.toInt64(), INT64_MIN);
  EXPECT_EQ(Max.toInt64(), INT64_MAX);
  EXPECT_EQ(Min.toString(), "-9223372036854775808");
  EXPECT_EQ(Max.toString(), "9223372036854775807");
  // One beyond INT64_MAX no longer fits.
  BigInt Beyond = Max + BigInt(1);
  EXPECT_FALSE(Beyond.fitsInt64());
  // INT64_MIN fits exactly; one below does not.
  EXPECT_FALSE((Min - BigInt(1)).fitsInt64());
}

TEST(BigIntTest, FromString) {
  bool Ok = false;
  EXPECT_EQ(BigInt::fromString("123456789012345678901234567890", Ok).toString(),
            "123456789012345678901234567890");
  EXPECT_TRUE(Ok);
  EXPECT_EQ(BigInt::fromString("-987654321", Ok), BigInt(-987654321));
  EXPECT_TRUE(Ok);
  BigInt Bad = BigInt::fromString("12x3", Ok);
  EXPECT_FALSE(Ok);
  BigInt Empty = BigInt::fromString("", Ok);
  EXPECT_FALSE(Ok);
  BigInt JustSign = BigInt::fromString("-", Ok);
  EXPECT_FALSE(Ok);
  (void)Bad;
  (void)Empty;
  (void)JustSign;
}

TEST(BigIntTest, NegativeZeroNormalizes) {
  bool Ok = false;
  BigInt NegZero = BigInt::fromString("-0", Ok);
  EXPECT_TRUE(Ok);
  EXPECT_FALSE(NegZero.isNegative());
  EXPECT_EQ(NegZero, BigInt(0));
}

TEST(BigIntTest, LargeMultiplication) {
  bool Ok = false;
  BigInt A = BigInt::fromString("123456789012345678901234567890", Ok);
  BigInt B = BigInt::fromString("987654321098765432109876543210", Ok);
  BigInt Product = A * B;
  EXPECT_EQ(Product.toString(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) / BigInt(-2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(-2), BigInt(-1));
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::gcd(BigInt(5), BigInt(0)), BigInt(5));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
}

TEST(BigIntTest, Pow) {
  EXPECT_EQ(BigInt(2).pow(10), BigInt(1024));
  EXPECT_EQ(BigInt(10).pow(0), BigInt(1));
  EXPECT_EQ(BigInt(3).pow(40).toString(), "12157665459056928801");
  EXPECT_EQ(BigInt(-2).pow(3), BigInt(-8));
  EXPECT_EQ(BigInt(-2).pow(4), BigInt(16));
}

TEST(BigIntTest, Isqrt) {
  EXPECT_EQ(BigInt(0).isqrt(), BigInt(0));
  EXPECT_EQ(BigInt(1).isqrt(), BigInt(1));
  EXPECT_EQ(BigInt(15).isqrt(), BigInt(3));
  EXPECT_EQ(BigInt(16).isqrt(), BigInt(4));
  EXPECT_EQ(BigInt(17).isqrt(), BigInt(4));
  BigInt Big = BigInt(123456789).pow(2);
  EXPECT_EQ(Big.isqrt(), BigInt(123456789));
  EXPECT_EQ((Big + BigInt(1)).isqrt(), BigInt(123456789));
  EXPECT_EQ((Big - BigInt(1)).isqrt(), BigInt(123456788));
}

TEST(BigIntTest, ShiftLeft) {
  EXPECT_EQ(BigInt(1).shiftLeft(0), BigInt(1));
  EXPECT_EQ(BigInt(1).shiftLeft(10), BigInt(1024));
  EXPECT_EQ(BigInt(3).shiftLeft(33).toString(), "25769803776");
  EXPECT_EQ(BigInt(-1).shiftLeft(4), BigInt(-16));
  EXPECT_EQ(BigInt(0).shiftLeft(100), BigInt(0));
}

TEST(BigIntTest, BitWidth) {
  EXPECT_EQ(BigInt(0).bitWidth(), 0u);
  EXPECT_EQ(BigInt(1).bitWidth(), 1u);
  EXPECT_EQ(BigInt(2).bitWidth(), 2u);
  EXPECT_EQ(BigInt(255).bitWidth(), 8u);
  EXPECT_EQ(BigInt(256).bitWidth(), 9u);
  EXPECT_EQ(BigInt(1).shiftLeft(100).bitWidth(), 101u);
}

TEST(BigIntTest, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(12345).toDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).toDouble(), -12345.0);
  BigInt Big = BigInt(1).shiftLeft(64);
  EXPECT_DOUBLE_EQ(Big.toDouble(), 18446744073709551616.0);
}

/// Property sweep: random 64-bit pairs agree with __int128 oracles for
/// + - * and with int64 oracles for divmod.
class BigIntPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BigIntPropertyTest, ArithmeticMatchesNativeOracle) {
  std::mt19937_64 Rng(GetParam());
  std::uniform_int_distribution<int64_t> Dist(-1000000000LL, 1000000000LL);
  for (int Trial = 0; Trial < 200; ++Trial) {
    int64_t X = Dist(Rng), Y = Dist(Rng);
    BigInt A(X), B(Y);
    EXPECT_EQ((A + B).toInt64(), X + Y);
    EXPECT_EQ((A - B).toInt64(), X - Y);
    __int128 Product = static_cast<__int128>(X) * Y;
    BigInt P = A * B;
    EXPECT_EQ(P.toDouble(), static_cast<double>(Product));
    if (Y != 0) {
      EXPECT_EQ((A / B).toInt64(), X / Y);
      EXPECT_EQ((A % B).toInt64(), X % Y);
    }
    EXPECT_EQ(A.compare(B), X < Y ? -1 : (X == Y ? 0 : 1));
  }
}

TEST_P(BigIntPropertyTest, DivModRoundTrips) {
  std::mt19937_64 Rng(GetParam() * 7919 + 13);
  std::uniform_int_distribution<int64_t> Dist(-1000000000LL, 1000000000LL);
  for (int Trial = 0; Trial < 100; ++Trial) {
    BigInt A = BigInt(Dist(Rng)) * BigInt(Dist(Rng)) + BigInt(Dist(Rng));
    BigInt B = BigInt(Dist(Rng));
    if (B.isZero())
      continue;
    BigInt Q, R;
    BigInt::divmod(A, B, Q, R);
    EXPECT_EQ(Q * B + R, A) << "divmod must round-trip";
    // |R| < |B| and R carries the dividend's sign (or is zero).
    BigInt AbsR = R.isNegative() ? -R : R;
    BigInt AbsB = B.isNegative() ? -B : B;
    EXPECT_LT(AbsR.compare(AbsB), 0);
    if (!R.isZero())
      EXPECT_EQ(R.sign(), A.sign());
  }
}

TEST_P(BigIntPropertyTest, IsqrtBounds) {
  std::mt19937_64 Rng(GetParam() * 104729 + 7);
  std::uniform_int_distribution<int64_t> Dist(0, 1000000000LL);
  for (int Trial = 0; Trial < 100; ++Trial) {
    BigInt V = BigInt(Dist(Rng)) * BigInt(Dist(Rng));
    BigInt S = V.isqrt();
    EXPECT_LE((S * S).compare(V), 0);
    BigInt Next = S + BigInt(1);
    EXPECT_GT((Next * Next).compare(V), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

//===----------------------------------------------------------------------===//
// Division and gcd against a bit-at-a-time reference
//===----------------------------------------------------------------------===//

namespace {

/// Builds a value from little-endian limbs through shiftLeft and +, which
/// the division kernels do not touch.
BigInt fromLimbs(const std::vector<uint32_t> &Limbs, bool Negative = false) {
  BigInt Result;
  for (size_t I = Limbs.size(); I-- > 0;)
    Result = Result.shiftLeft(32) + BigInt(static_cast<int64_t>(Limbs[I]));
  return Negative ? -Result : Result;
}

/// Reference truncated division: schoolbook long division one bit at a
/// time, built only from shiftLeft, +, - and compare. Slow, and simple
/// enough to trust as the oracle for the limb-wise kernels.
void referenceDivmod(const BigInt &Dividend, const BigInt &Divisor,
                     BigInt &Quotient, BigInt &Remainder) {
  ASSERT_FALSE(Divisor.isZero());
  const std::vector<uint32_t> &Bits = Dividend.limbs();
  BigInt AbsDivisor = Divisor.isNegative() ? -Divisor : Divisor;
  std::vector<uint32_t> Quot(Bits.size(), 0);
  BigInt Rem;
  for (unsigned BitIndex = Dividend.bitWidth(); BitIndex-- > 0;) {
    Rem = Rem.shiftLeft(1);
    unsigned Limb = BitIndex / 32, Offset = BitIndex % 32;
    if ((Bits[Limb] >> Offset) & 1)
      Rem = Rem + BigInt(1);
    if (Rem.compare(AbsDivisor) >= 0) {
      Rem = Rem - AbsDivisor;
      Quot[Limb] |= 1u << Offset;
    }
  }
  Quotient = fromLimbs(Quot, Dividend.isNegative() != Divisor.isNegative());
  Remainder = Dividend.isNegative() ? -Rem : Rem;
}

/// Euclid over the reference division.
BigInt referenceGcd(BigInt A, BigInt B) {
  if (A.isNegative())
    A = -A;
  if (B.isNegative())
    B = -B;
  while (!B.isZero()) {
    BigInt Q, R;
    referenceDivmod(A, B, Q, R);
    A = std::move(B);
    B = std::move(R);
  }
  return A;
}

/// Random limbs biased toward the edge values of a limb: 0, all ones and
/// the lone top bit each take a quarter of the draws.
std::vector<uint32_t> randomLimbs(std::mt19937_64 &Rng, size_t Count) {
  std::vector<uint32_t> Limbs(Count);
  for (uint32_t &Limb : Limbs) {
    switch (Rng() % 4) {
    case 0:
      Limb = 0;
      break;
    case 1:
      Limb = 0xffffffffu;
      break;
    case 2:
      Limb = 0x80000000u;
      break;
    default:
      Limb = static_cast<uint32_t>(Rng());
    }
  }
  return Limbs;
}

void expectDivisionMatchesReference(const BigInt &A, const BigInt &B) {
  BigInt RefQ, RefR;
  referenceDivmod(A, B, RefQ, RefR);
  BigInt Q, R;
  BigInt::divmod(A, B, Q, R);
  EXPECT_EQ(Q, RefQ) << A.toString() << " / " << B.toString();
  EXPECT_EQ(R, RefR) << A.toString() << " % " << B.toString();
  EXPECT_EQ(A / B, RefQ);
  EXPECT_EQ(A % B, RefR);
}

} // namespace

TEST(BigIntDivisionTest, ReferenceAgreesWithNativeArithmetic) {
  // The oracle itself, checked on values where int64 is the ground truth.
  const int64_t Dividends[] = {0,         1,         7,
                              -7,        1LL << 40, -(1LL << 40) - 3,
                              INT64_MAX, INT64_MIN + 1};
  const int64_t Divisors[] = {1, -1, 2, -3, 1000000007, 1LL << 33};
  for (int64_t X : Dividends)
    for (int64_t Y : Divisors) {
      BigInt Q, R;
      referenceDivmod(BigInt(X), BigInt(Y), Q, R);
      EXPECT_EQ(Q.toInt64(), X / Y);
      EXPECT_EQ(R.toInt64(), X % Y);
    }
}

TEST(BigIntDivisionTest, RandomOperandsMatchReference) {
  // 1-40 limb operands with edge-value limbs, under all four sign
  // combinations; the divisor is sometimes longer than the dividend.
  std::mt19937_64 Rng(20231);
  for (int Trial = 0; Trial < 120; ++Trial) {
    std::vector<uint32_t> ALimbs = randomLimbs(Rng, 1 + Rng() % 40);
    std::vector<uint32_t> BLimbs = randomLimbs(Rng, 1 + Rng() % 40);
    if (Rng() % 3 == 0 && ALimbs.size() > 1)
      BLimbs.resize(1 + Rng() % ALimbs.size());
    BigInt A = fromLimbs(ALimbs), B = fromLimbs(BLimbs);
    if (B.isZero())
      B = BigInt(0x80000000LL);
    for (int Signs = 0; Signs < 4; ++Signs)
      expectDivisionMatchesReference(Signs & 1 ? -A : A, Signs & 2 ? -B : B);
  }
}

TEST(BigIntDivisionTest, SingleLimbDivisors) {
  std::mt19937_64 Rng(77);
  for (uint32_t Divisor : {1u, 2u, 3u, 10u, 1000000000u, 0x7fffffffu,
                           0x80000000u, 0xffffffffu}) {
    for (int Trial = 0; Trial < 8; ++Trial) {
      BigInt A = fromLimbs(randomLimbs(Rng, 1 + Rng() % 40), Trial & 1);
      expectDivisionMatchesReference(A, BigInt(int64_t(Divisor)));
      expectDivisionMatchesReference(A, -BigInt(int64_t(Divisor)));
    }
  }
}

TEST(BigIntDivisionTest, QuotientDigitCorrectionAndAddBack) {
  // Operands (little-endian limbs) that drive Algorithm D's rare paths.
  // First: the two-limb test lowers q-hat twice and no add-back follows.
  expectDivisionMatchesReference(
      fromLimbs({0x7fffffffu, 0x00000001u, 0x80000000u}),
      fromLimbs({0x00000002u, 0x80000000u}));
  // q-hat survives the two-limb test yet is one too large: the window
  // goes negative and the divisor is added back.
  expectDivisionMatchesReference(fromLimbs({0x00007fffu, 0, 0x00008000u}),
                                 fromLimbs({0x00000002u, 0, 0x00000002u}));
  // Both: two corrections, then an add-back.
  expectDivisionMatchesReference(
      fromLimbs({0, 0, 0xffffffffu, 0x80000000u}),
      fromLimbs({0xfffffffeu, 0xffffffffu, 0x80000000u}));
  expectDivisionMatchesReference(
      fromLimbs({0x00008000u, 0x00000002u, 0, 0x00008000u}),
      fromLimbs({0xfffffffeu, 0, 0x80000000u}));
  // The same shapes pinned by value, so a wrong oracle cannot hide them.
  BigInt Q, R;
  BigInt::divmod(fromLimbs({0x00007fffu, 0, 0x00008000u}),
                 fromLimbs({0x00000002u, 0, 0x00000002u}), Q, R);
  EXPECT_EQ(Q, BigInt(0x3fff));
  EXPECT_EQ(R, fromLimbs({0x00000001u, 0, 0x00000002u}));
}

TEST(BigIntDivisionTest, DivisorLongerThanDividend) {
  BigInt A = fromLimbs({5, 6}), B = fromLimbs({1, 2, 3});
  BigInt Q, R;
  BigInt::divmod(A, B, Q, R);
  EXPECT_TRUE(Q.isZero());
  EXPECT_EQ(R, A);
  BigInt::divmod(-A, B, Q, R);
  EXPECT_TRUE(Q.isZero());
  EXPECT_EQ(R, -A);
}

TEST(BigIntDivisionTest, OutputsMayAliasInputs) {
  BigInt A = fromLimbs({1, 2, 3, 4}), B = fromLimbs({7, 9});
  BigInt ExpectQ = A / B, ExpectR = A % B;
  BigInt X = A, Rem;
  BigInt::divmod(X, B, X, Rem);
  EXPECT_EQ(X, ExpectQ);
  EXPECT_EQ(Rem, ExpectR);
  BigInt Y = B, Quot;
  BigInt::divmod(A, Y, Quot, Y);
  EXPECT_EQ(Quot, ExpectQ);
  EXPECT_EQ(Y, ExpectR);
}

TEST(BigIntDivisionTest, GcdMatchesReference) {
  std::mt19937_64 Rng(4242);
  for (int Trial = 0; Trial < 40; ++Trial) {
    // A shared factor makes the gcd nontrivial.
    BigInt Common = fromLimbs(randomLimbs(Rng, 1 + Rng() % 3));
    BigInt A = fromLimbs(randomLimbs(Rng, 1 + Rng() % 6)) * Common;
    BigInt B = fromLimbs(randomLimbs(Rng, 1 + Rng() % 6)) * Common;
    for (int Signs = 0; Signs < 4; ++Signs) {
      BigInt SA = Signs & 1 ? -A : A, SB = Signs & 2 ? -B : B;
      EXPECT_EQ(BigInt::gcd(SA, SB), referenceGcd(SA, SB))
          << SA.toString() << ", " << SB.toString();
    }
  }
}

TEST(BigIntDivisionTest, GcdOfLargeMultiples) {
  // gcd(G*x, G*y) == G*gcd(x, y): checks 40-limb operands against native
  // gcd on the 64-bit cofactors, beyond the reach of the slow reference.
  auto FromU64 = [](uint64_t V) {
    return fromLimbs({static_cast<uint32_t>(V), static_cast<uint32_t>(V >> 32)});
  };
  std::mt19937_64 Rng(99);
  for (int Trial = 0; Trial < 40; ++Trial) {
    BigInt G = fromLimbs(randomLimbs(Rng, 1 + Rng() % 40));
    if (G.isZero())
      continue;
    uint64_t X = Rng() >> (Rng() % 64), Y = Rng() >> (Rng() % 64);
    EXPECT_EQ(BigInt::gcd(G * FromU64(X), -(G * FromU64(Y))),
              G * FromU64(std::gcd(X, Y)));
  }
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)), BigInt(0));
  BigInt Big = fromLimbs(randomLimbs(Rng, 40));
  EXPECT_EQ(BigInt::gcd(Big, BigInt(0)), Big);
  EXPECT_EQ(BigInt::gcd(BigInt(0), -Big), Big);
}

TEST(BigIntTest, FromStringChunkBoundaries) {
  // Nine digits per limb step: lengths around multiples of nine, leading
  // zeros, and a '+' sign all parse to the same value as digit-at-a-time.
  bool Ok = false;
  std::string Digits;
  BigInt Expect;
  for (int Length = 1; Length <= 40; ++Length) {
    char Digit = static_cast<char>('0' + (Length * 7) % 10);
    Digits.push_back(Digit);
    Expect = Expect * BigInt(10) + BigInt(Digit - '0');
    EXPECT_EQ(BigInt::fromString(Digits, Ok), Expect) << Digits;
    EXPECT_TRUE(Ok);
    EXPECT_EQ(BigInt::fromString("-" + Digits, Ok), -Expect);
    EXPECT_EQ(BigInt::fromString("+000" + Digits, Ok), Expect);
    EXPECT_TRUE(Ok);
  }
  EXPECT_EQ(BigInt::fromString("000000000000", Ok), BigInt(0));
  EXPECT_TRUE(Ok);
  BigInt Bad = BigInt::fromString("1234567890123x", Ok);
  EXPECT_FALSE(Ok);
  EXPECT_TRUE(Bad.isZero());
  std::mt19937_64 Rng(5);
  for (int Trial = 0; Trial < 20; ++Trial) {
    BigInt V = fromLimbs(randomLimbs(Rng, 1 + Rng() % 40), Trial & 1);
    EXPECT_EQ(BigInt::fromString(V.toString(), Ok), V);
    EXPECT_TRUE(Ok);
  }
}

TEST(BigIntTest, ShiftRightTruncatesTowardZero) {
  EXPECT_EQ(BigInt(1024).shiftRight(10), BigInt(1));
  EXPECT_EQ(BigInt(1023).shiftRight(10), BigInt(0));
  EXPECT_EQ(BigInt(-7).shiftRight(1), BigInt(-3));
  EXPECT_EQ(BigInt(-1).shiftRight(1), BigInt(0));
  EXPECT_FALSE(BigInt(-1).shiftRight(1).isNegative());
  EXPECT_EQ(BigInt(5).shiftRight(0), BigInt(5));
  EXPECT_EQ(BigInt(0).shiftRight(7), BigInt(0));
  std::mt19937_64 Rng(11);
  for (int Trial = 0; Trial < 50; ++Trial) {
    BigInt V = fromLimbs(randomLimbs(Rng, 1 + Rng() % 10), Trial & 1);
    unsigned Bits = static_cast<unsigned>(Rng() % 400);
    EXPECT_EQ(V.shiftRight(Bits), V / BigInt(1).shiftLeft(Bits));
    EXPECT_EQ(V.shiftLeft(Bits).shiftRight(Bits), V);
  }
}

TEST(BigIntTest, TrailingZerosAndPowersOfTwo) {
  EXPECT_EQ(BigInt(0).trailingZeros(), 0u);
  EXPECT_FALSE(BigInt(0).isPowerOfTwo());
  EXPECT_TRUE(BigInt(1).isPowerOfTwo());
  EXPECT_FALSE(BigInt(3).isPowerOfTwo());
  EXPECT_EQ(BigInt(12).trailingZeros(), 2u);
  for (unsigned Bits : {0u, 1u, 31u, 32u, 33u, 63u, 64u, 100u, 1023u}) {
    BigInt Power = BigInt(1).shiftLeft(Bits);
    EXPECT_TRUE(Power.isPowerOfTwo()) << Bits;
    EXPECT_TRUE((-Power).isPowerOfTwo()) << Bits;
    EXPECT_EQ(Power.trailingZeros(), Bits);
    EXPECT_EQ((Power * BigInt(3)).trailingZeros(), Bits);
    EXPECT_FALSE((Power * BigInt(3)).isPowerOfTwo());
    EXPECT_FALSE((Power + BigInt(1).shiftLeft(Bits + 40)).isPowerOfTwo());
  }
}
