// Deterministic pseudo-random number generation for workload generators,
// tests, and the non-deterministic choice operator.
//
// The paper's one-consequence operator gamma is non-deterministic; the
// engine resolves that non-determinism with a seeded Rng so every run is
// reproducible. Generators use the same Rng so benchmarks are stable.
#ifndef GDLOG_COMMON_RNG_H_
#define GDLOG_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gdlog {

/// xoshiro256** — fast, high-quality, 64-bit PRNG with splittable seeding.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedull);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound) with rejection to avoid modulo bias.
  /// bound must be nonzero.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace gdlog

#endif  // GDLOG_COMMON_RNG_H_
