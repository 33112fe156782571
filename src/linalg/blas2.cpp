#include "linalg/blas.hpp"

namespace qrgrid {

QRGRID_KERNEL
void gemv(Trans trans, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y) {
  const Index m = a.rows();
  const Index n = a.cols();
  if (trans == Trans::No) {
    // y (m) := alpha * A x + beta * y, axpy over columns for locality.
    if (beta != 1.0) scal(m, beta, y);
    for (Index j = 0; j < n; ++j) axpy(m, alpha * x[j], &a(0, j), y);
  } else {
    // y (n) := alpha * A^T x + beta * y; each entry is a column dot.
    for (Index j = 0; j < n; ++j) {
      y[j] = beta * y[j] + alpha * dot(m, &a(0, j), x);
    }
  }
}

QRGRID_KERNEL
void ger(double alpha, const double* x, const double* y, MatrixView a) {
  const Index m = a.rows();
  const Index n = a.cols();
  for (Index j = 0; j < n; ++j) axpy(m, alpha * y[j], x, &a(0, j));
}

void trsv(UpLo uplo, Trans trans, Diag diag, ConstMatrixView t, double* x) {
  const Index n = t.rows();
  QRGRID_CHECK(t.cols() == n);
  const bool unit = diag == Diag::Unit;
  // Effective orientation: solving with Upper^T behaves like Lower, etc.
  const bool effective_upper =
      (uplo == UpLo::Upper) == (trans == Trans::No);
  auto elem = [&](Index i, Index j) {
    return trans == Trans::No ? t(i, j) : t(j, i);
  };
  if (effective_upper) {
    for (Index i = n - 1; i >= 0; --i) {
      double acc = x[i];
      for (Index j = i + 1; j < n; ++j) acc -= elem(i, j) * x[j];
      x[i] = unit ? acc : acc / elem(i, i);
    }
  } else {
    for (Index i = 0; i < n; ++i) {
      double acc = x[i];
      for (Index j = 0; j < i; ++j) acc -= elem(i, j) * x[j];
      x[i] = unit ? acc : acc / elem(i, i);
    }
  }
}

}  // namespace qrgrid
