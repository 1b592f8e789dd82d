//===- support/BigInt.h - Arbitrary-precision signed integers --*- C++ -*-===//
//
// Part of egglog-cpp, a reproduction of "Better Together: Unifying Datalog
// and Equality Saturation" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision signed integer arithmetic. This is the substrate for
/// the exact Rational type used by egglog's `Rational` base sort and by the
/// mini-Herbie interval analysis (Fig. 10 of the paper), where interval
/// endpoints must not overflow. Sign-magnitude representation with 32-bit
/// limbs stored little-endian. Division is Knuth's Algorithm D (one limb of
/// quotient per step); gcd is Euclid over an in-place remainder kernel
/// that hands off to a binary gcd in native words once both operands fit
/// in 128 bits (see DESIGN.md, "Exact arithmetic").
///
//===----------------------------------------------------------------------===//

#ifndef EGGLOG_SUPPORT_BIGINT_H
#define EGGLOG_SUPPORT_BIGINT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace egglog {

/// An arbitrary-precision signed integer.
///
/// Invariants: the limb vector never has trailing zero limbs, and zero is
/// represented by an empty limb vector with a non-negative sign.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a native signed integer.
  BigInt(int64_t Value);

  /// Parses a decimal string with optional leading '-' or '+', nine digits
  /// per limb step. On failure the result is zero and \p Ok is false.
  static BigInt fromString(std::string_view Text, bool &Ok);

  /// Returns true if this integer is zero.
  bool isZero() const { return Limbs.empty(); }

  /// Returns true if this integer is strictly negative.
  bool isNegative() const { return Negative; }

  /// Returns true if this integer is one.
  bool isOne() const { return !Negative && Limbs.size() == 1 && Limbs[0] == 1; }

  /// Returns the sign as -1, 0, or +1.
  int sign() const { return isZero() ? 0 : (Negative ? -1 : 1); }

  /// Returns true if the value fits in int64_t.
  bool fitsInt64() const;

  /// Converts to int64_t; asserts fitsInt64().
  int64_t toInt64() const;

  /// Converts to the nearest double (may round; returns +/-inf on overflow).
  double toDouble() const;

  /// Renders as a decimal string.
  std::string toString() const;

  /// Three-way comparison: -1, 0, or +1 as *this <, ==, > Other.
  int compare(const BigInt &Other) const;

  BigInt operator-() const;
  BigInt operator+(const BigInt &Other) const;
  BigInt operator-(const BigInt &Other) const;
  BigInt operator*(const BigInt &Other) const;

  /// Truncated division (C semantics: rounds toward zero).
  BigInt operator/(const BigInt &Other) const;

  /// Remainder matching truncated division: (a/b)*b + a%b == a.
  BigInt operator%(const BigInt &Other) const;

  /// Computes quotient and remainder in one pass. Asserts Divisor != 0.
  static void divmod(const BigInt &Dividend, const BigInt &Divisor,
                     BigInt &Quotient, BigInt &Remainder);

  /// Greatest common divisor; always non-negative.
  static BigInt gcd(BigInt A, BigInt B);

  /// Raises this to a small non-negative power.
  BigInt pow(uint64_t Exponent) const;

  /// Integer square root: the greatest S with S*S <= *this.
  /// Asserts the value is non-negative.
  BigInt isqrt() const;

  /// Multiplies by 2^Bits (Bits >= 0).
  BigInt shiftLeft(unsigned Bits) const;

  /// Divides by 2^Bits, truncating toward zero like operator/ (the
  /// magnitude is shifted, the sign kept).
  BigInt shiftRight(unsigned Bits) const;

  /// Number of significant bits (0 for zero).
  unsigned bitWidth() const;

  /// Number of trailing zero bits of the magnitude (0 for zero).
  unsigned trailingZeros() const;

  /// Returns true if the magnitude is a power of two (1 included).
  bool isPowerOfTwo() const;

  /// The magnitude's limbs, least significant first, without trailing
  /// zero limbs.
  const std::vector<uint32_t> &limbs() const { return Limbs; }

  bool operator==(const BigInt &Other) const {
    return Negative == Other.Negative && Limbs == Other.Limbs;
  }
  bool operator!=(const BigInt &Other) const { return !(*this == Other); }
  bool operator<(const BigInt &Other) const { return compare(Other) < 0; }
  bool operator<=(const BigInt &Other) const { return compare(Other) <= 0; }
  bool operator>(const BigInt &Other) const { return compare(Other) > 0; }
  bool operator>=(const BigInt &Other) const { return compare(Other) >= 0; }

  /// Hashes the value (suitable for unordered containers).
  size_t hash() const;

private:
  bool Negative = false;
  std::vector<uint32_t> Limbs;

  void normalize();
  static int compareMagnitude(const std::vector<uint32_t> &A,
                              const std::vector<uint32_t> &B);
  static std::vector<uint32_t> addMagnitude(const std::vector<uint32_t> &A,
                                            const std::vector<uint32_t> &B);
  /// Requires |A| >= |B|.
  static std::vector<uint32_t> subMagnitude(const std::vector<uint32_t> &A,
                                            const std::vector<uint32_t> &B);
  static std::vector<uint32_t> mulMagnitude(const std::vector<uint32_t> &A,
                                            const std::vector<uint32_t> &B);
  /// Divides magnitude U by nonzero magnitude V: the quotient goes to *Q
  /// (skipped when Q is null) and the remainder to R. R may be U itself,
  /// which reduces U in place.
  static void divmodMagnitude(const std::vector<uint32_t> &U,
                              const std::vector<uint32_t> &V,
                              std::vector<uint32_t> *Q,
                              std::vector<uint32_t> &R);
};

} // namespace egglog

#endif // EGGLOG_SUPPORT_BIGINT_H
