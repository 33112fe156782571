#include <cmath>

#include "linalg/blas.hpp"

namespace qrgrid {

double nrm2(Index n, const double* x) {
  // The plain sum of squares is accurate unless it overflowed (inf) or
  // sits so close to the underflow range that squares lost there could
  // matter; only those inputs pay for the scaled pass.
  const double ssq_plain = dot(n, x, x);
  if (ssq_plain >= 0x1p-800 && ssq_plain <= 0x1p+1000) {
    return std::sqrt(ssq_plain);
  }
  // Scaled sum of squares as in LAPACK dlassq: avoids overflow/underflow
  // for entries near the extremes of the double range.
  double scale = 0.0;
  double ssq = 1.0;
  for (Index i = 0; i < n; ++i) {
    const double absxi = std::fabs(x[i]);
    if (absxi == 0.0) continue;
    if (scale < absxi) {
      const double r = scale / absxi;
      ssq = 1.0 + ssq * r * r;
      scale = absxi;
    } else {
      const double r = absxi / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

double dot(Index n, const double* x, const double* y) {
  // Eight independent partial sums, one per residue of i mod 8, so the
  // loop vectorizes without reassociation; they are always combined in
  // the same pairwise order, so the result is the same on every run.
  constexpr Index kLanes = 8;
  double s[kLanes] = {};
  Index i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (Index l = 0; l < kLanes; ++l) s[l] += x[i + l] * y[i + l];
  }
  for (Index l = 0; i < n; ++i, ++l) s[l] += x[i] * y[i];
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

void axpy(Index n, double alpha, const double* x, double* y) {
  if (alpha == 0.0) return;
  for (Index i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(Index n, double alpha, double* x) {
  for (Index i = 0; i < n; ++i) x[i] *= alpha;
}

}  // namespace qrgrid
