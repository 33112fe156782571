// BLAS subset used by the QR kernels: the "GotoBLAS substitute" of the
// reproduction.
//
// Only the operations the factorization algorithms need are provided; all
// operate on column-major views. gemm is one packed, register-tiled kernel
// for all four transpose cases (Goto & van de Geijn, ACM TOMS 2008): blocks
// of op(A) and op(B) are packed into row and column slivers and C is
// accumulated 8 x 4 entries at a time; dot keeps eight independent
// partial sums. Both vectorize at the host's vector width (QRGRID_KERNEL
// below), so the blocked QR kernels built on them run at Level-3 rates.
//
// Determinism: every result is a fixed sequence of floating-point
// operations (fixed block sizes, fixed summation order, no threads), so it
// is bitwise the same from run to run on one build. It is not bitwise equal
// to the loop-order kernels these replaced.
//
// ISA clones: on x86-64 GCC, a definition marked QRGRID_KERNEL is compiled
// three times from its one source, for x86-64-v4 (AVX-512), AVX2 and the
// baseline (SSE2), and the loader picks the widest clone the host runs.
// The build forbids floating-point contraction (-ffp-contract=off), so no
// clone fuses a multiply and an add: every clone runs the same operations
// in the same order, only in wider registers, and its results are bitwise
// the baseline's. tests/linalg_pins_test.cpp pins those bits.
// ThreadSanitizer builds keep the baseline kernels alone: the loader runs
// a clone's resolver before the TSan runtime is up, and GCC instruments
// the resolver, so every binary would crash at load.
#pragma once

#include "linalg/matrix.hpp"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define QRGRID_KERNEL \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define QRGRID_KERNEL
#endif

namespace qrgrid {

enum class Trans { No, Yes };

// ---- Level 1 -------------------------------------------------------------

/// Euclidean norm of the n-vector x (stride 1): the plain sum of squares
/// where it is safe, LAPACK's scaled dlassq pass where it would overflow
/// or underflow.
double nrm2(Index n, const double* x);

/// Dot product of stride-1 n-vectors, summed in eight interleaved partial
/// sums combined pairwise.
double dot(Index n, const double* x, const double* y);

/// y += alpha * x for stride-1 n-vectors.
void axpy(Index n, double alpha, const double* x, double* y);

/// x *= alpha for a stride-1 n-vector.
void scal(Index n, double alpha, double* x);

// ---- Level 2 -------------------------------------------------------------

/// y := alpha * op(A) * x + beta * y.
void gemv(Trans trans, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y);

/// A += alpha * x * y^T (rank-1 update).
void ger(double alpha, const double* x, const double* y, MatrixView a);

/// Solves op(T) * x = b in place for upper or lower triangular T.
enum class UpLo { Upper, Lower };
enum class Diag { NonUnit, Unit };
void trsv(UpLo uplo, Trans trans, Diag diag, ConstMatrixView t, double* x);

// ---- Level 3 -------------------------------------------------------------

/// C := alpha * op(A) * op(B) + beta * C. beta == 0 overwrites C without
/// reading it.
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// B := alpha * op(T) * B (Side::Left) or alpha * B * op(T) (Side::Right)
/// for triangular T.
enum class Side { Left, Right };
void trmm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b);

/// Solves op(T) * X = alpha * B (Left) or X * op(T) = alpha * B (Right),
/// overwriting B with X.
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b);

/// C := alpha * A^T * A + beta * C (upper triangle only), the Gram-matrix
/// kernel used by CholeskyQR. C must be n x n where A is m x n.
void syrk_upper_at_a(double alpha, ConstMatrixView a, double beta,
                     MatrixView c);

}  // namespace qrgrid
