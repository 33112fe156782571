// Deterministic pseudo-random number generation for reproducible
// experiments. All matrix generators and tests seed explicitly so a given
// (seed, shape) pair always produces the same matrix across platforms.
#pragma once

#include <cstdint>

namespace qrgrid {

/// xoshiro256** — fast, high-quality, splittable enough for our use.
/// We avoid std::mt19937 because its stream is implementation-pinned but
/// slow, and we draw billions of values when filling large test matrices.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from a single seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Marsaglia polar method (cached spare value).
  double gaussian();

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n);

  /// The xoshiro words, for configuration digests.
  std::uint64_t word(int i) const { return s_[i]; }

  /// Complete generator state as a snapshot field list
  /// (sched/snapshot.hpp), so service snapshots resume a stream
  /// mid-sequence bit-for-bit (the cached gaussian spare is part of the
  /// stream: dropping it would shift every later draw by one).
  template <class V>
  void visit(V& v) { v(s_, spare_, has_spare_); }

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace qrgrid
