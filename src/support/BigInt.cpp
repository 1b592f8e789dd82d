//===- support/BigInt.cpp - Arbitrary-precision signed integers ----------===//
//
// Part of egglog-cpp. See BigInt.h for an overview.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

using namespace egglog;

namespace {

void trimLimbs(std::vector<uint32_t> &Limbs) {
  while (!Limbs.empty() && Limbs.back() == 0)
    Limbs.pop_back();
}

/// Out[0..N) = In[0..N) << Shift for Shift in [0, 32); returns the bits
/// shifted out of the top limb. Out may be In.
uint32_t shiftLimbsLeft(const uint32_t *In, size_t N, unsigned Shift,
                        uint32_t *Out) {
  uint32_t Carry = 0;
  for (size_t I = 0; I < N; ++I) {
    uint32_t Limb = In[I];
    Out[I] = (Limb << Shift) | Carry;
    // Widened so that Shift == 0 shifts by 32 in 64 bits, yielding 0.
    Carry = static_cast<uint32_t>(static_cast<uint64_t>(Limb) >> (32 - Shift));
  }
  return Carry;
}

/// Divides U[0..M) by the single limb V in one pass from the top limb.
/// Writes the M quotient limbs to Q unless it is null (Q may be U) and
/// returns the remainder.
uint32_t divBySingleLimb(const uint32_t *U, size_t M, uint32_t V,
                         uint32_t *Q) {
  uint64_t Rem = 0;
  for (size_t I = M; I-- > 0;) {
    uint64_t Current = (Rem << 32) | U[I];
    if (Q)
      Q[I] = static_cast<uint32_t>(Current / V);
    Rem = Current % V;
  }
  return static_cast<uint32_t>(Rem);
}

/// Knuth's Algorithm D (TAOCP Vol. 2, §4.3.1) on 32-bit limbs. Requires
/// M >= N >= 2 and V[N-1] != 0. Writes the M-N+1 quotient limbs to Q unless
/// it is null and the N remainder limbs to R. Q and R may be U: the
/// dividend is only read while it is copied into the scratch window.
void divKnuth(const uint32_t *U, size_t M, const uint32_t *V, size_t N,
              uint32_t *Q, uint32_t *R) {
  constexpr uint64_t Base = uint64_t(1) << 32;
  std::vector<uint32_t> Scratch(M + 1 + N);
  uint32_t *Un = Scratch.data();
  uint32_t *Vn = Un + M + 1;
  // D1: shift both operands so the divisor's top bit is set. The quotient
  // is unchanged; the remainder comes out shifted and is shifted back.
  unsigned Shift = static_cast<unsigned>(std::countl_zero(V[N - 1]));
  shiftLimbsLeft(V, N, Shift, Vn);
  Un[M] = shiftLimbsLeft(U, M, Shift, Un);
  const uint64_t VTop = Vn[N - 1], VNext = Vn[N - 2];
  for (size_t J = M - N + 1; J-- > 0;) {
    // D3: estimate the quotient limb from the window's top two limbs and
    // correct it with the divisor's second limb; afterwards q-hat is exact
    // or one too large.
    uint64_t Top = (static_cast<uint64_t>(Un[J + N]) << 32) | Un[J + N - 1];
    uint64_t QHat = Top / VTop, RHat = Top % VTop;
    while (QHat >= Base || QHat * VNext > ((RHat << 32) | Un[J + N - 2])) {
      --QHat;
      RHat += VTop;
      if (RHat >= Base)
        break;
    }
    // D4: subtract q-hat times the divisor from the window.
    uint64_t Carry = 0;
    int64_t Borrow = 0;
    for (size_t I = 0; I < N; ++I) {
      uint64_t Product = QHat * Vn[I] + Carry;
      Carry = Product >> 32;
      int64_t Diff = static_cast<int64_t>(Un[I + J]) - Borrow -
                     static_cast<int64_t>(Product & 0xffffffffu);
      Un[I + J] = static_cast<uint32_t>(Diff);
      Borrow = Diff < 0;
    }
    int64_t TopDiff = static_cast<int64_t>(Un[J + N]) - Borrow -
                      static_cast<int64_t>(Carry);
    Un[J + N] = static_cast<uint32_t>(TopDiff);
    // D5/D6: a negative window means q-hat was one too large; add one
    // divisor back (the carry out of the top limb cancels the borrow).
    if (TopDiff < 0) {
      --QHat;
      uint64_t AddCarry = 0;
      for (size_t I = 0; I < N; ++I) {
        uint64_t Sum = static_cast<uint64_t>(Un[I + J]) + Vn[I] + AddCarry;
        Un[I + J] = static_cast<uint32_t>(Sum);
        AddCarry = Sum >> 32;
      }
      Un[J + N] += static_cast<uint32_t>(AddCarry);
    }
    if (Q)
      Q[J] = static_cast<uint32_t>(QHat);
  }
  // D8: unnormalize the remainder, which sits in Un[0..N) (Un[N] is 0).
  for (size_t I = 0; I < N; ++I)
    R[I] = (Un[I] >> Shift) |
           static_cast<uint32_t>(static_cast<uint64_t>(Un[I + 1])
                                 << (32 - Shift));
}

using U128 = unsigned __int128;

unsigned trailingZeros128(U128 X) {
  uint64_t Low = static_cast<uint64_t>(X);
  return Low ? static_cast<unsigned>(std::countr_zero(Low))
             : 64 + static_cast<unsigned>(
                        std::countr_zero(static_cast<uint64_t>(X >> 64)));
}

/// Stein's binary gcd, in 64-bit words when both operands fit.
U128 binaryGcd(U128 A, U128 B) {
  if (A == 0)
    return B;
  if (B == 0)
    return A;
  unsigned Shift = trailingZeros128(A | B);
  A >>= trailingZeros128(A);
  B >>= trailingZeros128(B);
  if (((A | B) >> 64) == 0) {
    uint64_t X = static_cast<uint64_t>(A), Y = static_cast<uint64_t>(B);
    while (X != Y) {
      if (X > Y)
        std::swap(X, Y);
      Y -= X;
      Y >>= std::countr_zero(Y);
    }
    return static_cast<U128>(X) << Shift;
  }
  while (A != B) {
    if (A > B)
      std::swap(A, B);
    B -= A;
    B >>= trailingZeros128(B);
  }
  return A << Shift;
}

U128 limbsTo128(const std::vector<uint32_t> &Limbs) {
  U128 Result = 0;
  for (size_t I = Limbs.size(); I-- > 0;)
    Result = (Result << 32) | Limbs[I];
  return Result;
}

} // namespace

BigInt::BigInt(int64_t Value) {
  Negative = Value < 0;
  // Avoid UB on INT64_MIN by negating in unsigned space.
  uint64_t Magnitude =
      Negative ? ~static_cast<uint64_t>(Value) + 1 : static_cast<uint64_t>(Value);
  if (Magnitude != 0)
    Limbs.push_back(static_cast<uint32_t>(Magnitude));
  if (Magnitude >> 32)
    Limbs.push_back(static_cast<uint32_t>(Magnitude >> 32));
  normalize();
}

void BigInt::normalize() {
  while (!Limbs.empty() && Limbs.back() == 0)
    Limbs.pop_back();
  if (Limbs.empty())
    Negative = false;
}

BigInt BigInt::fromString(std::string_view Text, bool &Ok) {
  Ok = false;
  BigInt Result;
  size_t Index = 0;
  bool Neg = false;
  if (Index < Text.size() && (Text[Index] == '-' || Text[Index] == '+')) {
    Neg = Text[Index] == '-';
    ++Index;
  }
  if (Index >= Text.size())
    return Result;
  for (size_t I = Index; I < Text.size(); ++I)
    if (Text[I] < '0' || Text[I] > '9')
      return Result;
  // Nine decimal digits per step: Result = Result * 10^k + chunk, k <= 9,
  // in place on the limbs.
  static constexpr uint32_t PowersOfTen[] = {
      1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
      1000000000};
  while (Index < Text.size()) {
    size_t Take = std::min<size_t>(9, Text.size() - Index);
    uint64_t Carry = 0;
    for (size_t I = 0; I < Take; ++I)
      Carry = Carry * 10 + static_cast<uint32_t>(Text[Index + I] - '0');
    Index += Take;
    for (uint32_t &Limb : Result.Limbs) {
      uint64_t Current = static_cast<uint64_t>(Limb) * PowersOfTen[Take] + Carry;
      Limb = static_cast<uint32_t>(Current);
      Carry = Current >> 32;
    }
    if (Carry)
      Result.Limbs.push_back(static_cast<uint32_t>(Carry));
  }
  Result.Negative = Neg && !Result.isZero();
  Ok = true;
  return Result;
}

bool BigInt::fitsInt64() const {
  if (Limbs.size() > 2)
    return false;
  uint64_t Magnitude = 0;
  if (!Limbs.empty())
    Magnitude = Limbs[0];
  if (Limbs.size() == 2)
    Magnitude |= static_cast<uint64_t>(Limbs[1]) << 32;
  if (Negative)
    return Magnitude <= static_cast<uint64_t>(1) << 63;
  return Magnitude <= static_cast<uint64_t>(INT64_MAX);
}

int64_t BigInt::toInt64() const {
  assert(fitsInt64() && "BigInt does not fit in int64_t");
  uint64_t Magnitude = 0;
  if (!Limbs.empty())
    Magnitude = Limbs[0];
  if (Limbs.size() == 2)
    Magnitude |= static_cast<uint64_t>(Limbs[1]) << 32;
  if (Negative)
    return static_cast<int64_t>(~Magnitude + 1);
  return static_cast<int64_t>(Magnitude);
}

double BigInt::toDouble() const {
  double Result = 0;
  for (size_t I = Limbs.size(); I-- > 0;)
    Result = Result * 4294967296.0 + Limbs[I];
  return Negative ? -Result : Result;
}

std::string BigInt::toString() const {
  if (isZero())
    return "0";
  // Repeated division by 10^9 to peel off decimal chunks.
  std::vector<uint32_t> Work = Limbs;
  std::string Digits;
  while (!Work.empty()) {
    uint64_t Remainder = 0;
    for (size_t I = Work.size(); I-- > 0;) {
      uint64_t Current = (Remainder << 32) | Work[I];
      Work[I] = static_cast<uint32_t>(Current / 1000000000u);
      Remainder = Current % 1000000000u;
    }
    while (!Work.empty() && Work.back() == 0)
      Work.pop_back();
    for (int I = 0; I < 9; ++I) {
      Digits.push_back(static_cast<char>('0' + Remainder % 10));
      Remainder /= 10;
    }
  }
  while (Digits.size() > 1 && Digits.back() == '0')
    Digits.pop_back();
  if (Negative)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

int BigInt::compareMagnitude(const std::vector<uint32_t> &A,
                             const std::vector<uint32_t> &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

int BigInt::compare(const BigInt &Other) const {
  if (Negative != Other.Negative)
    return Negative ? -1 : 1;
  int MagnitudeOrder = compareMagnitude(Limbs, Other.Limbs);
  return Negative ? -MagnitudeOrder : MagnitudeOrder;
}

std::vector<uint32_t> BigInt::addMagnitude(const std::vector<uint32_t> &A,
                                           const std::vector<uint32_t> &B) {
  std::vector<uint32_t> Result;
  Result.reserve(std::max(A.size(), B.size()) + 1);
  uint64_t Carry = 0;
  for (size_t I = 0; I < std::max(A.size(), B.size()); ++I) {
    uint64_t Sum = Carry;
    if (I < A.size())
      Sum += A[I];
    if (I < B.size())
      Sum += B[I];
    Result.push_back(static_cast<uint32_t>(Sum));
    Carry = Sum >> 32;
  }
  if (Carry)
    Result.push_back(static_cast<uint32_t>(Carry));
  return Result;
}

std::vector<uint32_t> BigInt::subMagnitude(const std::vector<uint32_t> &A,
                                           const std::vector<uint32_t> &B) {
  assert(compareMagnitude(A, B) >= 0 && "subtraction would underflow");
  std::vector<uint32_t> Result;
  Result.reserve(A.size());
  int64_t Borrow = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    int64_t Diff = static_cast<int64_t>(A[I]) - Borrow;
    if (I < B.size())
      Diff -= B[I];
    if (Diff < 0) {
      Diff += static_cast<int64_t>(1) << 32;
      Borrow = 1;
    } else {
      Borrow = 0;
    }
    Result.push_back(static_cast<uint32_t>(Diff));
  }
  while (!Result.empty() && Result.back() == 0)
    Result.pop_back();
  return Result;
}

std::vector<uint32_t> BigInt::mulMagnitude(const std::vector<uint32_t> &A,
                                           const std::vector<uint32_t> &B) {
  if (A.empty() || B.empty())
    return {};
  std::vector<uint32_t> Result(A.size() + B.size(), 0);
  for (size_t I = 0; I < A.size(); ++I) {
    uint64_t Carry = 0;
    for (size_t J = 0; J < B.size(); ++J) {
      uint64_t Current = static_cast<uint64_t>(A[I]) * B[J] + Result[I + J] +
                         Carry;
      Result[I + J] = static_cast<uint32_t>(Current);
      Carry = Current >> 32;
    }
    size_t K = I + B.size();
    while (Carry) {
      uint64_t Current = Result[K] + Carry;
      Result[K] = static_cast<uint32_t>(Current);
      Carry = Current >> 32;
      ++K;
    }
  }
  while (!Result.empty() && Result.back() == 0)
    Result.pop_back();
  return Result;
}

BigInt BigInt::operator-() const {
  BigInt Result = *this;
  if (!Result.isZero())
    Result.Negative = !Result.Negative;
  return Result;
}

BigInt BigInt::operator+(const BigInt &Other) const {
  BigInt Result;
  if (Negative == Other.Negative) {
    Result.Limbs = addMagnitude(Limbs, Other.Limbs);
    Result.Negative = Negative;
  } else if (compareMagnitude(Limbs, Other.Limbs) >= 0) {
    Result.Limbs = subMagnitude(Limbs, Other.Limbs);
    Result.Negative = Negative;
  } else {
    Result.Limbs = subMagnitude(Other.Limbs, Limbs);
    Result.Negative = Other.Negative;
  }
  Result.normalize();
  return Result;
}

BigInt BigInt::operator-(const BigInt &Other) const { return *this + (-Other); }

BigInt BigInt::operator*(const BigInt &Other) const {
  BigInt Result;
  Result.Limbs = mulMagnitude(Limbs, Other.Limbs);
  Result.Negative = Negative != Other.Negative && !Result.Limbs.empty();
  return Result;
}

void BigInt::divmodMagnitude(const std::vector<uint32_t> &U,
                             const std::vector<uint32_t> &V,
                             std::vector<uint32_t> *Q,
                             std::vector<uint32_t> &R) {
  assert(!V.empty() && "division by zero");
  if (compareMagnitude(U, V) < 0) {
    if (Q)
      Q->clear();
    if (&R != &U)
      R = U;
    return;
  }
  size_t M = U.size(), N = V.size();
  std::vector<uint32_t> Quot(Q ? M - N + 1 : 0);
  if (N == 1) {
    uint32_t Rem = divBySingleLimb(U.data(), M, V[0], Q ? Quot.data() : nullptr);
    R.assign(Rem ? 1 : 0, Rem);
  } else {
    if (&R != &U)
      R.resize(N);
    divKnuth(U.data(), M, V.data(), N, Q ? Quot.data() : nullptr, R.data());
    R.resize(N);
    trimLimbs(R);
  }
  if (Q) {
    trimLimbs(Quot);
    *Q = std::move(Quot);
  }
}

void BigInt::divmod(const BigInt &Dividend, const BigInt &Divisor,
                    BigInt &Quotient, BigInt &Remainder) {
  assert(!Divisor.isZero() && "division by zero");
  std::vector<uint32_t> Quot, Rem;
  divmodMagnitude(Dividend.Limbs, Divisor.Limbs, &Quot, Rem);
  // Signs first: the outputs may alias the inputs.
  bool QuotNegative = Dividend.Negative != Divisor.Negative && !Quot.empty();
  bool RemNegative = Dividend.Negative && !Rem.empty();
  Quotient.Limbs = std::move(Quot);
  Quotient.Negative = QuotNegative;
  Remainder.Limbs = std::move(Rem);
  Remainder.Negative = RemNegative;
}

BigInt BigInt::operator/(const BigInt &Other) const {
  BigInt Quotient, Remainder;
  divmod(*this, Other, Quotient, Remainder);
  return Quotient;
}

BigInt BigInt::operator%(const BigInt &Other) const {
  assert(!Other.isZero() && "division by zero");
  BigInt Remainder;
  divmodMagnitude(Limbs, Other.Limbs, nullptr, Remainder.Limbs);
  Remainder.Negative = Negative && !Remainder.Limbs.empty();
  return Remainder;
}

BigInt BigInt::gcd(BigInt A, BigInt B) {
  // Euclid on the magnitudes, reducing the larger operand in place with
  // the remainder-only kernel (no quotient is built), until both fit in
  // 128 bits; Stein's binary gcd finishes in native words.
  std::vector<uint32_t> X = std::move(A.Limbs), Y = std::move(B.Limbs);
  if (compareMagnitude(X, Y) < 0)
    std::swap(X, Y);
  while (X.size() > 4 && !Y.empty()) {
    divmodMagnitude(X, Y, nullptr, X);
    std::swap(X, Y);
  }
  BigInt Result;
  if (Y.empty()) {
    Result.Limbs = std::move(X);
    return Result;
  }
  U128 Gcd = binaryGcd(limbsTo128(X), limbsTo128(Y));
  for (; Gcd != 0; Gcd >>= 32)
    Result.Limbs.push_back(static_cast<uint32_t>(Gcd));
  return Result;
}

BigInt BigInt::pow(uint64_t Exponent) const {
  BigInt Result(1), Base = *this;
  while (Exponent) {
    if (Exponent & 1)
      Result = Result * Base;
    Base = Base * Base;
    Exponent >>= 1;
  }
  return Result;
}

BigInt BigInt::isqrt() const {
  assert(!Negative && "isqrt of a negative value");
  if (isZero())
    return BigInt();
  // Newton's method starting from a power-of-two overestimate.
  unsigned Bits = bitWidth();
  BigInt X = BigInt(1).shiftLeft((Bits + 1) / 2);
  while (true) {
    BigInt Y = (X + *this / X).shiftRight(1);
    if (Y.compare(X) >= 0)
      break;
    X = std::move(Y);
  }
  return X;
}

BigInt BigInt::shiftLeft(unsigned Bits) const {
  if (isZero() || Bits == 0)
    return *this;
  BigInt Result;
  unsigned LimbShift = Bits / 32, BitShift = Bits % 32;
  Result.Limbs.assign(LimbShift, 0);
  uint32_t Carry = 0;
  for (uint32_t Limb : Limbs) {
    if (BitShift == 0) {
      Result.Limbs.push_back(Limb);
    } else {
      Result.Limbs.push_back((Limb << BitShift) | Carry);
      Carry = Limb >> (32 - BitShift);
    }
  }
  if (Carry)
    Result.Limbs.push_back(Carry);
  Result.Negative = Negative;
  Result.normalize();
  return Result;
}

BigInt BigInt::shiftRight(unsigned Bits) const {
  size_t LimbShift = Bits / 32;
  unsigned BitShift = Bits % 32;
  if (LimbShift >= Limbs.size())
    return BigInt();
  BigInt Result;
  Result.Limbs.resize(Limbs.size() - LimbShift);
  for (size_t I = 0; I < Result.Limbs.size(); ++I) {
    uint64_t Low = Limbs[I + LimbShift];
    uint64_t High =
        I + LimbShift + 1 < Limbs.size() ? Limbs[I + LimbShift + 1] : 0;
    Result.Limbs[I] = static_cast<uint32_t>(((High << 32) | Low) >> BitShift);
  }
  Result.Negative = Negative;
  Result.normalize();
  return Result;
}

unsigned BigInt::bitWidth() const {
  if (Limbs.empty())
    return 0;
  return static_cast<unsigned>((Limbs.size() - 1) * 32 +
                               std::bit_width(Limbs.back()));
}

unsigned BigInt::trailingZeros() const {
  for (size_t I = 0; I < Limbs.size(); ++I)
    if (Limbs[I])
      return static_cast<unsigned>(I * 32 + std::countr_zero(Limbs[I]));
  return 0;
}

bool BigInt::isPowerOfTwo() const {
  if (Limbs.empty() || !std::has_single_bit(Limbs.back()))
    return false;
  for (size_t I = 0; I + 1 < Limbs.size(); ++I)
    if (Limbs[I])
      return false;
  return true;
}

size_t BigInt::hash() const {
  size_t Result = Negative ? 0x9e3779b97f4a7c15ull : 0;
  for (uint32_t Limb : Limbs)
    Result = Result * 1099511628211ull + Limb;
  return Result;
}
