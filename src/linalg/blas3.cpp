#include "linalg/blas.hpp"

#include <algorithm>
#include <vector>

namespace qrgrid {

namespace {

// Goto-style blocking (Goto & van de Geijn, "Anatomy of high-performance
// matrix multiplication", ACM TOMS 2008). A KC x NC slice of op(B) is
// packed once per (jc, pc) step, an MC x KC block of op(A) once per ic
// step, and the micro-kernel accumulates an MR x NR tile of C while it
// streams one MR-row sliver of the A block against one NR-column sliver
// of the B slice. An 8 x 4 tile is sixteen 2-double accumulators, the
// whole register file of the baseline x86-64 (SSE2) build: the compiler
// keeps most of them in registers and the rest in L1, and measured it
// beats the 4 x 4 and 6 x 4 tiles that fit outright. The A block
// (256 KiB) sits in L2 and a B sliver (8 KiB) in L1.
constexpr Index kMR = 8;
constexpr Index kNR = 4;
constexpr Index kMC = 128;
constexpr Index kKC = 256;
constexpr Index kNC = 2048;

/// A matrix operand seen through strides: element (i, p) lives at
/// data[i * rs + p * cs]. op(X) of a column-major view and its transpose
/// are both one of these, so one packing routine serves all four
/// (Trans, Trans) cases.
struct Strided {
  const double* data;
  Index rs;
  Index cs;

  double operator()(Index i, Index p) const { return data[i * rs + p * cs]; }
  Strided at(Index i, Index p) const {
    return {data + i * rs + p * cs, rs, cs};
  }
  Strided transposed() const { return {data, cs, rs}; }
};

Strided op_of(ConstMatrixView x, Trans t) {
  return t == Trans::No ? Strided{x.data(), 1, x.ld()}
                        : Strided{x.data(), x.ld(), 1};
}

Index round_up(Index x, Index r) { return (x + r - 1) / r * r; }

/// Packs rows [0, rows) x depth [0, depth) of `src` into slivers of R
/// rows: sliver s holds, for p = 0..depth-1, the R entries
/// src(s*R .. s*R+R-1, p) contiguously. Rows past `rows` are zero, so the
/// micro-kernel always runs a full tile.
template <Index R>
void pack(Strided src, Index rows, Index depth, double* out) {
  for (Index i0 = 0; i0 < rows; i0 += R) {
    const Index ib = std::min(R, rows - i0);
    for (Index p = 0; p < depth; ++p) {
      for (Index r = 0; r < ib; ++r) out[r] = src(i0 + r, p);
      for (Index r = ib; r < R; ++r) out[r] = 0.0;
      out += R;
    }
  }
}

/// C(0:mr, 0:nr) += alpha * A_s * B_s^T, where A_s is a packed MR-row
/// sliver and B_s a packed NR-column sliver, both kc deep. Every entry of
/// the tile is one chain of products added in p order, so the result does
/// not depend on how the compiler vectorizes the tile.
void micro_kernel(Index kc, const double* a, const double* b, double alpha,
                  double* c, Index ldc, Index mr, Index nr) {
  double acc[kNR][kMR] = {};
  for (Index p = 0; p < kc; ++p) {
    for (Index j = 0; j < kNR; ++j) {
      for (Index i = 0; i < kMR; ++i) acc[j][i] += a[i] * b[j];
    }
    a += kMR;
    b += kNR;
  }
  if (mr == kMR && nr == kNR) {
    for (Index j = 0; j < kNR; ++j) {
      for (Index i = 0; i < kMR; ++i) c[i + j * ldc] += alpha * acc[j][i];
    }
    return;
  }
  for (Index j = 0; j < nr; ++j) {
    for (Index i = 0; i < mr; ++i) c[i + j * ldc] += alpha * acc[j][i];
  }
}

}  // namespace

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  const Index m = c.rows();
  const Index n = c.cols();
  const Index k = (ta == Trans::No) ? a.cols() : a.rows();
  QRGRID_CHECK_MSG(((ta == Trans::No) ? a.rows() : a.cols()) == m &&
                       ((tb == Trans::No) ? b.rows() : b.cols()) == k &&
                       ((tb == Trans::No) ? b.cols() : b.rows()) == n,
                   "gemm shape mismatch: C " << m << "x" << n << ", k=" << k);

  if (beta != 1.0) {
    for (Index j = 0; j < n; ++j) {
      double* cj = &c(0, j);
      if (beta == 0.0) {
        for (Index i = 0; i < m; ++i) cj[i] = 0.0;
      } else {
        scal(m, beta, cj);
      }
    }
  }
  if (alpha == 0.0 || k == 0 || m == 0 || n == 0) return;

  const Strided op_a = op_of(a, ta);
  // op(B) is packed as its transpose, n x k, in NR-row slivers.
  const Strided op_bt = op_of(b, tb).transposed();
  std::vector<double> a_pack(
      static_cast<std::size_t>(round_up(std::min(kMC, m), kMR) *
                               std::min(kKC, k)));
  std::vector<double> b_pack(
      static_cast<std::size_t>(round_up(std::min(kNC, n), kNR) *
                               std::min(kKC, k)));
  for (Index jc = 0; jc < n; jc += kNC) {
    const Index nc = std::min(kNC, n - jc);
    for (Index pc = 0; pc < k; pc += kKC) {
      const Index kc = std::min(kKC, k - pc);
      pack<kNR>(op_bt.at(jc, pc), nc, kc, b_pack.data());
      for (Index ic = 0; ic < m; ic += kMC) {
        const Index mc = std::min(kMC, m - ic);
        pack<kMR>(op_a.at(ic, pc), mc, kc, a_pack.data());
        for (Index jr = 0; jr < nc; jr += kNR) {
          for (Index ir = 0; ir < mc; ir += kMR) {
            micro_kernel(kc, &a_pack[static_cast<std::size_t>(ir * kc)],
                         &b_pack[static_cast<std::size_t>(jr * kc)], alpha,
                         &c(ic + ir, jc + jr), c.ld(),
                         std::min(kMR, mc - ir), std::min(kNR, nc - jr));
          }
        }
      }
    }
  }
}

void trmm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  const Index n = t.rows();
  QRGRID_CHECK(t.cols() == n);
  const bool unit = diag == Diag::Unit;
  auto tij = [&](Index i, Index j) {
    return trans == Trans::No ? t(i, j) : t(j, i);
  };
  const bool effective_upper = (uplo == UpLo::Upper) == (trans == Trans::No);

  if (side == Side::Left) {
    QRGRID_CHECK(b.rows() == n);
    for (Index col = 0; col < b.cols(); ++col) {
      double* x = &b(0, col);
      if (effective_upper) {
        for (Index i = 0; i < n; ++i) {
          double acc = unit ? x[i] : tij(i, i) * x[i];
          for (Index j = i + 1; j < n; ++j) acc += tij(i, j) * x[j];
          x[i] = alpha * acc;
        }
      } else {
        for (Index i = n - 1; i >= 0; --i) {
          double acc = unit ? x[i] : tij(i, i) * x[i];
          for (Index j = 0; j < i; ++j) acc += tij(i, j) * x[j];
          x[i] = alpha * acc;
        }
      }
    }
  } else {
    QRGRID_CHECK(b.cols() == n);
    // Row-side triangular multiply: process result columns in the order
    // that lets us update in place.
    const Index m = b.rows();
    if (effective_upper) {
      for (Index j = n - 1; j >= 0; --j) {
        double* bj = &b(0, j);
        if (!unit) scal(m, tij(j, j), bj);
        for (Index i = 0; i < j; ++i) axpy(m, tij(i, j), &b(0, i), bj);
        if (alpha != 1.0) scal(m, alpha, bj);
      }
    } else {
      for (Index j = 0; j < n; ++j) {
        double* bj = &b(0, j);
        if (!unit) scal(m, tij(j, j), bj);
        for (Index i = j + 1; i < n; ++i) axpy(m, tij(i, j), &b(0, i), bj);
        if (alpha != 1.0) scal(m, alpha, bj);
      }
    }
  }
}

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  const Index n = t.rows();
  QRGRID_CHECK(t.cols() == n);
  if (side == Side::Left) {
    QRGRID_CHECK(b.rows() == n);
    for (Index col = 0; col < b.cols(); ++col) {
      double* x = &b(0, col);
      if (alpha != 1.0) scal(n, alpha, x);
      trsv(uplo, trans, diag, t, x);
    }
    return;
  }
  // Right side: solve X * op(T) = alpha * B column-block-wise. Writing
  // X = B * op(T)^{-1}, column j of X depends on previously solved columns.
  QRGRID_CHECK(b.cols() == n);
  const bool unit = diag == Diag::Unit;
  auto tij = [&](Index i, Index j) {
    return trans == Trans::No ? t(i, j) : t(j, i);
  };
  const bool effective_upper = (uplo == UpLo::Upper) == (trans == Trans::No);
  const Index m = b.rows();
  if (effective_upper) {
    for (Index j = 0; j < n; ++j) {
      double* bj = &b(0, j);
      if (alpha != 1.0) scal(m, alpha, bj);
      for (Index i = 0; i < j; ++i) axpy(m, -tij(i, j), &b(0, i), bj);
      if (!unit) scal(m, 1.0 / tij(j, j), bj);
    }
  } else {
    for (Index j = n - 1; j >= 0; --j) {
      double* bj = &b(0, j);
      if (alpha != 1.0) scal(m, alpha, bj);
      for (Index i = j + 1; i < n; ++i) axpy(m, -tij(i, j), &b(0, i), bj);
      if (!unit) scal(m, 1.0 / tij(j, j), bj);
    }
  }
}

void syrk_upper_at_a(double alpha, ConstMatrixView a, double beta,
                     MatrixView c) {
  const Index n = a.cols();
  const Index m = a.rows();
  QRGRID_CHECK(c.rows() == n && c.cols() == n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) {
      c(i, j) = beta * c(i, j) + alpha * dot(m, &a(0, i), &a(0, j));
    }
  }
}

}  // namespace qrgrid
