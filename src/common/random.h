// Deterministic pseudo-random utilities. Everything in the simulation draws
// from explicitly seeded generators so whole-cluster runs are reproducible.

#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace socrates {

/// xorshift128+ generator: fast, decent quality, deterministic.
class Random {
 public:
  explicit Random(uint64_t seed = 0xdeadbeefcafef00dULL) {
    // SplitMix64 to expand the seed into two non-zero state words.
    uint64_t z = seed;
    auto next = [&z]() {
      z += 0x9e3779b97f4a7c15ULL;
      uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    s0_ = next();
    s1_ = next();
    if (s0_ == 0 && s1_ == 0) s1_ = 1;
  }

  uint64_t Next() {
    uint64_t x = s0_;
    const uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) {
    assert(n > 0);
    return Next() % n;
  }

  /// Uniform in [lo, hi].
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    assert(lo <= hi);
    return lo + Uniform(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Exponentially distributed with the given mean (> 0).
  double Exponential(double mean) {
    double u = NextDouble();
    if (u <= 0.0) u = 1e-18;
    return -mean * std::log(u);
  }

  /// Standard normal via Box-Muller (no state caching; adequate here).
  double Normal(double mean, double stddev) {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 0.0) u1 = 1e-18;
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    return mean + stddev * z;
  }

  /// Log-normal distribution parameterized by the *target* median and sigma
  /// of the underlying normal. Heavy right tail; a good model for cloud
  /// storage latency.
  double LogNormal(double median, double sigma) {
    return median * std::exp(Normal(0.0, sigma));
  }

 private:
  uint64_t s0_, s1_;
};

/// Zipfian generator over [0, n) with parameter theta (0 < theta < 1),
/// using the Gray et al. method with precomputed zeta. Item 0 is the
/// hottest. Used by the TPC-E-like skewed workload (paper Table 4).
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta, uint64_t seed = 42);

  uint64_t Next();

  uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta);

  Random rng_;
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
};

/// Fisher-Yates shuffle of a vector, deterministic under `rng`.
template <typename T>
void Shuffle(std::vector<T>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; i--) {
    size_t j = rng->Uniform(i);
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

}  // namespace socrates
