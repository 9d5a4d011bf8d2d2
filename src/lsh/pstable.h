// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// p-stable locality-sensitive hashing for the L2 norm [DIIM04], the family
// the paper builds its sublinear Shapley approximation on (Sec 3.2):
//   h(x) = floor((w^T x + b) / r)
// with w ~ N(0, I) (2-stable) and b ~ Uniform[0, r). Two points at L2
// distance c collide with probability f_h(c) (Eq 20), monotonically
// decreasing in c.

#ifndef KNNSHAP_LSH_PSTABLE_H_
#define KNNSHAP_LSH_PSTABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/random.h"

namespace knnshap {

/// Collision probability f_h(c) of one 2-stable hash with projection width
/// `width` for two points at L2 distance `c` (closed form of Eq 20):
///   f_h(c) = 1 - 2 Phi(-width/c) - (2c / (sqrt(2 pi) width)) (1 - e^{-width^2/(2c^2)}).
/// f_h(0) = 1; f_h is monotonically decreasing in c.
double GaussianCollisionProbability(double c, double width);

/// Same quantity via numerical integration of Eq (20) (Simpson's rule);
/// used by tests to validate the closed form.
double NumericalCollisionProbability(double c, double width, int steps = 20000);

/// One h(x) = floor((w^T x + b)/r) hash function.
class PStableHash {
 public:
  /// Draws w (dim Gaussians) and b ~ U[0, width).
  PStableHash(size_t dim, double width, Rng* rng);

  /// Hash value of a feature vector.
  int64_t Hash(std::span<const float> x) const;

 private:
  std::vector<double> w_;
  double b_;
  double width_;
};

}  // namespace knnshap

#endif  // KNNSHAP_LSH_PSTABLE_H_
