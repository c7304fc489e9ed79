//===- support/Random.h - Deterministic pseudo-random numbers ---*- C++ -*-===//
//
// Part of the TWPP reproduction of Zhang & Gupta, PLDI 2001.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, seedable PRNG (SplitMix64) used by the synthetic workload
/// generators. Results are deterministic across platforms and standard
/// library versions, which std::mt19937 + std::*_distribution are not.
///
//===----------------------------------------------------------------------===//

#ifndef TWPP_SUPPORT_RANDOM_H
#define TWPP_SUPPORT_RANDOM_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace twpp {

/// SplitMix64 generator; passes BigCrush, two words of state-free output per
/// step, and trivially seedable.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}

  /// Returns the next 64 uniformly distributed bits.
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }

  /// Returns a uniform integer in [0, Bound). \p Bound must be positive.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound > 0 && "nextBelow requires a positive bound");
    // Multiply-shift rejection-free mapping (Lemire); bias is negligible for
    // the bounds used here and determinism is what matters.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(next()) * Bound) >> 64);
  }

  /// Returns a uniform integer in [Lo, Hi] inclusive.
  int64_t nextInRange(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// Returns a uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Returns true with probability \p P.
  bool nextBool(double P) { return nextDouble() < P; }

  /// Samples an index according to the (unnormalized) weights \p Weights.
  size_t nextWeighted(const std::vector<double> &Weights) {
    assert(!Weights.empty() && "no weights to sample");
    double Total = 0;
    for (double W : Weights)
      Total += W;
    double Target = nextDouble() * Total;
    for (size_t I = 0, E = Weights.size(); I != E; ++I) {
      Target -= Weights[I];
      if (Target <= 0)
        return I;
    }
    return Weights.size() - 1;
  }

private:
  uint64_t State;
};

} // namespace twpp

#endif // TWPP_SUPPORT_RANDOM_H
