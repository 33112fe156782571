// Householder QR factorization kernels (LAPACK geqr2/geqrf family).
//
// Factored form: A = Q R with Q = H_0 H_1 ... H_{k-1}. After a call, the
// upper triangle of A holds R and the strict lower triangle holds the
// reflector tails V (unit diagonal implicit), exactly as LAPACK stores them.
#pragma once

#include <span>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace qrgrid {

/// Unblocked Householder QR (dgeqr2). `tau` is resized to min(m, n).
void geqr2(MatrixView a, std::vector<double>& tau);

/// Forms the upper triangular block reflector T (k x k) for the compact
/// WY representation Q = I - V T V^T, from the k reflectors stored in the
/// columns of V (m x k, unit lower trapezoidal) with scalars tau (dlarft,
/// forward/columnwise).
void larft(ConstMatrixView v, std::span<const double> tau, MatrixView t);

/// Applies the block reflector to C from the left (dlarfb):
/// C := (I - V T V^T) C   if trans == Trans::No  (apply Q)
/// C := (I - V T^T V^T) C if trans == Trans::Yes (apply Q^T)
/// V is m x k unit lower trapezoidal, T k x k upper triangular.
void larfb_left(Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c);

/// Blocked Householder QR (dgeqrf) with panel width `nb`. Each panel is
/// factored recursively, halving it down to narrow column slivers, so
/// most of its flops also run through larfb_left's gemm.
void geqrf(MatrixView a, std::vector<double>& tau, Index nb = 32);

/// Overwrites the leading n columns of Q (m x n, n <= m) with the
/// orthonormal factor defined by the k = tau.size() reflectors stored in
/// `a` (as left by geqr2/geqrf). Equivalent to dorgqr.
Matrix orgqr(ConstMatrixView a, const std::vector<double>& tau, Index n_cols);

/// Applies Q or Q^T (from reflectors in `a`, scalars tau) to C from the
/// left, one panel of reflectors at a time through larft + larfb_left
/// (dormqr).
void ormqr_left(Trans trans, ConstMatrixView a, const std::vector<double>& tau,
                MatrixView c);

/// Extracts the upper-triangular R factor (k x n) from a factored matrix.
Matrix extract_r(ConstMatrixView a);

}  // namespace qrgrid
