#include "linalg/tpqrt.hpp"

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"

namespace qrgrid {

QRGRID_KERNEL
void tpqrt_tt(MatrixView r1, MatrixView r2, std::vector<double>& tau) {
  const Index n = r1.rows();
  QRGRID_CHECK(r1.cols() == n && r2.rows() == n && r2.cols() == n);
  tau.assign(static_cast<std::size_t>(n), 0.0);
  for (Index j = 0; j < n; ++j) {
    // Build the reflector annihilating R2(0:j+1, j) against pivot R1(j, j).
    // The reflector vector is [1 (at R1 row j); 0...0; v2(0:j+1)].
    const Index len = j + 1;  // nonzero rows of column j of R2
    // Gather x = R2(0:len, j) is already contiguous (column storage).
    double* x = &r2(0, j);
    Reflector refl = larfg(r1(j, j), len, x);
    tau[static_cast<std::size_t>(j)] = refl.tau;
    r1(j, j) = refl.beta;
    if (refl.tau == 0.0) continue;
    // Update trailing columns k > j: only row j of R1 and rows 0..j of R2.
    for (Index k = j + 1; k < n; ++k) {
      double w = r1(j, k) + dot(len, x, &r2(0, k));
      w *= refl.tau;
      r1(j, k) -= w;
      axpy(len, -w, x, &r2(0, k));
    }
  }
}

QRGRID_KERNEL
void tpmqrt_tt(Trans trans, ConstMatrixView v2, const std::vector<double>& tau,
               MatrixView c1, MatrixView c2) {
  const Index n = v2.rows();
  const Index p = c1.cols();
  QRGRID_CHECK(v2.cols() == n && c1.rows() == n && c2.rows() == n &&
               c2.cols() == p);
  // Q = H_0 H_1 ... H_{n-1}. Q^T C applies H_0 first; Q C applies H_{n-1}
  // first. Reflector j: rows {top j} U {bottom 0..j}.
  auto apply_one = [&](Index j) {
    const double tj = tau[static_cast<std::size_t>(j)];
    if (tj == 0.0) return;
    const Index len = j + 1;
    const double* v = &v2(0, j);
    for (Index k = 0; k < p; ++k) {
      double w = c1(j, k) + dot(len, v, &c2(0, k));
      w *= tj;
      c1(j, k) -= w;
      axpy(len, -w, v, &c2(0, k));
    }
  };
  if (trans == Trans::Yes) {
    for (Index j = 0; j < n; ++j) apply_one(j);
  } else {
    for (Index j = n - 1; j >= 0; --j) apply_one(j);
  }
}

void tpqrt_td(MatrixView r1, MatrixView b, std::vector<double>& tau) {
  const Index n = r1.rows();
  const Index m = b.rows();
  QRGRID_CHECK(r1.cols() == n && b.cols() == n);
  tau.assign(static_cast<std::size_t>(n), 0.0);
  for (Index j = 0; j < n; ++j) {
    // Reflector annihilates the whole column j of B against R1(j, j).
    double* x = &b(0, j);
    Reflector refl = larfg(r1(j, j), m, x);
    tau[static_cast<std::size_t>(j)] = refl.tau;
    r1(j, j) = refl.beta;
    if (refl.tau == 0.0) continue;
    for (Index k = j + 1; k < n; ++k) {
      double w = r1(j, k) + dot(m, x, &b(0, k));
      w *= refl.tau;
      r1(j, k) -= w;
      axpy(m, -w, x, &b(0, k));
    }
  }
}

void tpmqrt_td(Trans trans, ConstMatrixView v2, const std::vector<double>& tau,
               MatrixView c1, MatrixView c2) {
  const Index n = v2.cols();
  const Index m = v2.rows();
  const Index p = c1.cols();
  QRGRID_CHECK(c1.rows() == n && c2.rows() == m && c2.cols() == p);
  auto apply_one = [&](Index j) {
    const double tj = tau[static_cast<std::size_t>(j)];
    if (tj == 0.0) return;
    const double* v = &v2(0, j);
    for (Index k = 0; k < p; ++k) {
      double w = c1(j, k) + dot(m, v, &c2(0, k));
      w *= tj;
      c1(j, k) -= w;
      axpy(m, -w, v, &c2(0, k));
    }
  };
  if (trans == Trans::Yes) {
    for (Index j = 0; j < n; ++j) apply_one(j);
  } else {
    for (Index j = n - 1; j >= 0; --j) apply_one(j);
  }
}

}  // namespace qrgrid
