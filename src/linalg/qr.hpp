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
/// most of its flops also run through larfb_left's gemm. A panel's T is
/// formed only to update the columns right of it, and then dropped.
void geqrf(MatrixView a, std::vector<double>& tau, Index nb = 32);

/// geqrf that keeps the block reflector T of every panel it factors, in
/// dgeqrt's layout: `t` becomes min(nb, k) x k (k = min(m, n)), and the
/// panel of reflectors j..j+jb holds its jb x jb T in t(0:jb, j:j+jb), so
/// that panel's block reflector is I - V T V^T. A and tau come out
/// bitwise equal to geqrf's without T; the only new work is the last
/// panel's T, which geqrf alone never forms (on one 4-core Xeon, +27% time
/// at 8192 x 32 and +7% at 8192 x 64).
void geqrf(MatrixView a, std::vector<double>& tau, Matrix& t, Index nb = 32);

/// Overwrites the leading n columns of Q (m x n, n <= m) with the
/// orthonormal factor defined by the k = tau.size() reflectors stored in
/// `a` (as left by geqr2/geqrf). Equivalent to dorgqr.
Matrix orgqr(ConstMatrixView a, const std::vector<double>& tau, Index n_cols);

/// Applies Q or Q^T to C (m x p) from the left (dgemqrt): Q is defined
/// by the k = t.cols() reflectors stored in `a` and the panel T's that
/// geqrf kept in `t`, and is applied one panel of t.rows() reflectors at
/// a time through larfb_left, reusing each stored T.
void ormqr_left(Trans trans, ConstMatrixView a, ConstMatrixView t,
                MatrixView c);

/// Q [C; 0] (m x p) for a k x p block C, with Q defined as in ormqr_left
/// (k = t.cols()): the product of the leading k columns of Q with C,
/// i.e. the explicit thin Q when C = I. The panel T's are joined into the
/// one k x k T of Q = I - V T V^T (dgeqrt3's join, T12 = -T1 V1^T V2 T2
/// over the panels' reflectors V1 and V2), and then, with V_top the unit
/// lower k x k top of V and V_bot its m - k rows below,
///   W = T (V_top^T C),   Q [C; 0] = [C - V_top W; -V_bot W]:
/// one (m - k) x p x k gemm plus k x k triangular products. The zero rows
/// of [C; 0] are never read, so with p = k this costs dorgqr's leading
/// 2 m k^2 flops plus the join, where ormqr_left on the padded block
/// costs 4 m k^2.
Matrix thin_q_times(ConstMatrixView a, ConstMatrixView t, ConstMatrixView c);

/// Extracts the upper-triangular R factor (k x n) from a factored matrix.
Matrix extract_r(ConstMatrixView a);

}  // namespace qrgrid
