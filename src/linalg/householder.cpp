#include "linalg/householder.hpp"

#include <cmath>

#include "linalg/blas.hpp"

namespace qrgrid {

Reflector larfg(double alpha, Index n, double* x) {
  Reflector r;
  const double xnorm = nrm2(n, x);
  if (xnorm == 0.0) {
    // Already in the target form; H = I.
    r.beta = alpha;
    r.tau = 0.0;
    return r;
  }
  // Overflow-safe hypot of alpha against the tail norm.
  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  r.tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  scal(n, inv, x);
  r.beta = beta;
  return r;
}

QRGRID_KERNEL
void larf_left(double tau, const double* v_tail, MatrixView c, double* work) {
  if (tau == 0.0 || c.empty()) return;
  const Index m = c.rows();
  const Index n = c.cols();
  // work := C^T v  (v = [1; v_tail])
  for (Index j = 0; j < n; ++j) {
    work[j] = c(0, j) + dot(m - 1, v_tail, &c(1, j));
  }
  // C -= tau * v * work^T
  for (Index j = 0; j < n; ++j) {
    const double w = tau * work[j];
    c(0, j) -= w;
    axpy(m - 1, -w, v_tail, &c(1, j));
  }
}

}  // namespace qrgrid
