#include "linalg/qr.hpp"

#include <algorithm>
#include <span>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"

namespace qrgrid {

namespace {

// Reflectors per block reflector in ormqr_left: deep enough for
// larfb_left's gemms, narrow enough that forming T (~m k^2 flops) stays
// small next to applying it (4 m n k).
constexpr Index kOrmqrPanel = 32;

// Panels up to this wide are factored one column at a time; wider ones
// are split in half (Elmroth & Gustavson's recursive QR), so all but
// narrow slivers of a panel's flops run through larfb_left's gemm.
constexpr Index kRecursionLeaf = 16;

/// Unblocked Householder QR (dgeqr2) of a, writing its min(m, n)
/// reflector scalars to tau.
void factor_columns(MatrixView a, std::span<double> tau) {
  const Index m = a.rows();
  const Index n = a.cols();
  const Index k = std::min(m, n);
  std::vector<double> work(static_cast<std::size_t>(n));
  for (Index j = 0; j < k; ++j) {
    // Generate the reflector for column j from A(j:m, j).
    Reflector r = larfg(a(j, j), m - j - 1, &a(j + 1, j));
    tau[static_cast<std::size_t>(j)] = r.tau;
    a(j, j) = r.beta;
    if (j + 1 < n) {
      // Apply H_j to the trailing columns A(j:m, j+1:n).
      larf_left(r.tau, &a(j + 1, j), a.block(j, j + 1, m - j, n - j - 1),
                work.data());
    }
  }
}

/// Completes T = [T1, T12; 0, T2] for the reflectors in the columns of
/// v (m x k), given T1 (n1 x n1) and T2 in t's diagonal blocks:
/// T12 = -T1 (V1^T V2) T2, as in LAPACK's dgeqrt3.
void join_block_reflectors(ConstMatrixView v, Index n1, MatrixView t) {
  const Index m = v.rows();
  const Index k = v.cols();
  const Index n2 = k - n1;
  // V1^T V2 over the rows where V2 is nonzero: V1's dense rows n1..k
  // against V2's unit lower triangle, then rows k..m through gemm.
  const MatrixView t12 = t.block(0, n1, n1, n2);
  for (Index j = 0; j < n2; ++j) {
    for (Index i = 0; i < n1; ++i) t12(i, j) = v(n1 + j, i);
  }
  trmm(Side::Right, UpLo::Lower, Trans::No, Diag::Unit, 1.0,
       v.block(n1, n1, n2, n2), t12);
  if (m > k) {
    gemm(Trans::Yes, Trans::No, 1.0, v.block(k, 0, m - k, n1),
         v.block(k, n1, m - k, n2), 1.0, t12);
  }
  trmm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, -1.0,
       t.block(0, 0, n1, n1), t12);
  trmm(Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0,
       t.block(n1, n1, n2, n2), t12);
  set_zero(t.block(n1, 0, n2, n1));
}

/// Householder QR of an m x n panel (m >= n), recursively: the left
/// half, its block reflector applied to the right half, then the right
/// half below it. A non-empty t (n x n) receives the panel's block
/// reflector T (Q = I - V T V^T), assembled from the halves'.
void factor_panel(MatrixView a, std::span<double> tau, MatrixView t) {
  const Index m = a.rows();
  const Index n = a.cols();
  if (n <= kRecursionLeaf) {
    factor_columns(a, tau);
    if (!t.empty()) larft(a, tau, t);
    return;
  }
  const Index n1 = n / 2;
  const Index n2 = n - n1;
  const auto split = static_cast<std::size_t>(n1);
  Matrix t1_own(t.empty() ? n1 : 0, t.empty() ? n1 : 0);
  const MatrixView t1 = t.empty() ? t1_own.view() : t.block(0, 0, n1, n1);
  const MatrixView v1 = a.block(0, 0, m, n1);
  factor_panel(v1, tau.first(split), t1);
  larfb_left(Trans::Yes, v1, t1, a.block(0, n1, m, n2));
  const MatrixView v2 = a.block(n1, n1, m - n1, n2);
  if (t.empty()) {
    factor_panel(v2, tau.subspan(split), MatrixView());
    return;
  }
  factor_panel(v2, tau.subspan(split), t.block(n1, n1, n2, n2));
  join_block_reflectors(a, n1, t);
}

}  // namespace

void geqr2(MatrixView a, std::vector<double>& tau) {
  tau.assign(static_cast<std::size_t>(std::min(a.rows(), a.cols())), 0.0);
  factor_columns(a, tau);
}

void larft(ConstMatrixView v, std::span<const double> tau, MatrixView t) {
  const Index m = v.rows();
  const Index k = v.cols();
  QRGRID_CHECK(t.rows() == k && t.cols() == k);
  QRGRID_CHECK(static_cast<Index>(tau.size()) == k);
  if (k > kRecursionLeaf) {
    const Index n1 = k / 2;
    const auto split = static_cast<std::size_t>(n1);
    larft(v.block(0, 0, m, n1), tau.first(split), t.block(0, 0, n1, n1));
    larft(v.block(n1, n1, m - n1, k - n1), tau.subspan(split),
          t.block(n1, n1, k - n1, k - n1));
    join_block_reflectors(v, n1, t);
    return;
  }
  set_zero(t);
  for (Index i = 0; i < k; ++i) {
    const double taui = tau[static_cast<std::size_t>(i)];
    t(i, i) = taui;
    if (i == 0 || taui == 0.0) continue;
    // t(0:i, i) := -tau_i * V(:, 0:i)^T * V(:, i), exploiting the implicit
    // unit diagonal of V: V(j, j) = 1, V(above j, j) = 0.
    for (Index j = 0; j < i; ++j) {
      // Column j of V overlaps column i of V on rows i..m (v(i,i)=1 at row i).
      double acc = v(i, j);  // j-th column times the implicit 1 at row i
      acc += dot(m - i - 1, &v(i + 1, j), &v(i + 1, i));
      t(j, i) = -taui * acc;
    }
    // t(0:i, i) := T(0:i, 0:i) * t(0:i, i)
    trmm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0,
         t.block(0, 0, i, i), t.block(0, i, i, 1));
  }
}

void larfb_left(Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c) {
  const Index m = v.rows();
  const Index k = v.cols();
  const Index n = c.cols();
  QRGRID_CHECK(c.rows() == m);
  if (n == 0 || k == 0) return;

  // W := C^T V  (n x k), exploiting V's unit lower-trapezoidal structure:
  // V = [V1 (k x k, unit lower tri); V2 ((m-k) x k dense)].
  Matrix w(n, k);
  // W := C1^T (top k rows of C), then W := W * V1 (unit lower tri).
  for (Index j = 0; j < k; ++j)
    for (Index i = 0; i < n; ++i) w(i, j) = c(j, i);
  trmm(Side::Right, UpLo::Lower, Trans::No, Diag::Unit, 1.0,
       v.block(0, 0, k, k), w.view());
  if (m > k) {
    gemm(Trans::Yes, Trans::No, 1.0, c.block(k, 0, m - k, n),
         v.block(k, 0, m - k, k), 1.0, w.view());
  }
  // Update is C -= V * (W * T^op)^T. Applying Q (= I - V T V^T) needs
  // V T W^T = V (W T^T)^T, i.e. W := W * T^T; applying Q^T needs W := W*T.
  trmm(Side::Right, UpLo::Upper, trans == Trans::No ? Trans::Yes : Trans::No,
       Diag::NonUnit, 1.0, t, w.view());
  // C := C - V W^T: first the dense part, then the triangular top.
  if (m > k) {
    gemm(Trans::No, Trans::Yes, -1.0, v.block(k, 0, m - k, k), w.view(), 1.0,
         c.block(k, 0, m - k, n));
  }
  // C1 -= V1 * W^T with V1 unit lower triangular: compute U := W * V1^T
  // (n x k), then C1 -= U^T.
  trmm(Side::Right, UpLo::Lower, Trans::Yes, Diag::Unit, 1.0,
       v.block(0, 0, k, k), w.view());
  for (Index j = 0; j < k; ++j)
    for (Index i = 0; i < n; ++i) c(j, i) -= w(i, j);
}

void geqrf(MatrixView a, std::vector<double>& tau, Index nb) {
  const Index m = a.rows();
  const Index n = a.cols();
  const Index k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), 0.0);
  QRGRID_CHECK(nb >= 1);
  for (Index j = 0; j < k; j += nb) {
    const Index jb = std::min(nb, k - j);
    const MatrixView panel = a.block(j, j, m - j, jb);
    // The panel's T is needed only to update columns right of it.
    const Index tb = j + jb < n ? jb : 0;
    Matrix t(tb, tb);
    factor_panel(panel,
                 std::span<double>(tau).subspan(static_cast<std::size_t>(j),
                                                static_cast<std::size_t>(jb)),
                 t.view());
    if (tb > 0) {
      larfb_left(Trans::Yes, panel, t.view(),
                 a.block(j, j + jb, m - j, n - j - jb));
    }
  }
}

Matrix orgqr(ConstMatrixView a, const std::vector<double>& tau, Index n_cols) {
  const Index m = a.rows();
  const Index k = static_cast<Index>(tau.size());
  QRGRID_CHECK(n_cols >= k && n_cols <= m);
  Matrix q(m, n_cols);
  for (Index j = 0; j < n_cols; ++j) q(j, j) = 1.0;
  // Apply H_0 ... H_{k-1} to I from the left in reverse (dorg2r).
  std::vector<double> work(static_cast<std::size_t>(n_cols));
  for (Index i = k - 1; i >= 0; --i) {
    const double taui = tau[static_cast<std::size_t>(i)];
    if (taui == 0.0) continue;
    // Reflector i tail lives in a(i+1:m, i).
    MatrixView c = q.block(i, i, m - i, n_cols - i);
    // larf_left expects the tail contiguous; column of a is contiguous.
    larf_left(taui, &a(i + 1, i), c, work.data());
  }
  return q;
}

void ormqr_left(Trans trans, ConstMatrixView a, const std::vector<double>& tau,
                MatrixView c) {
  const Index m = a.rows();
  const Index k = static_cast<Index>(tau.size());
  QRGRID_CHECK(c.rows() == m && a.cols() >= k);
  // Q = H_0 H_1 ... H_{k-1} = B_0 B_1 ..., one block reflector
  // B = I - V T V^T per panel of kOrmqrPanel reflectors. Q^T C applies
  // B_0^T first; Q C applies the last panel's B first.
  const Index panels = (k + kOrmqrPanel - 1) / kOrmqrPanel;
  for (Index p = 0; p < panels; ++p) {
    const Index j = (trans == Trans::Yes ? p : panels - 1 - p) * kOrmqrPanel;
    const Index jb = std::min(kOrmqrPanel, k - j);
    const ConstMatrixView v = a.block(j, j, m - j, jb);
    Matrix t(jb, jb);
    larft(v,
          std::span<const double>(tau).subspan(static_cast<std::size_t>(j),
                                               static_cast<std::size_t>(jb)),
          t.view());
    larfb_left(trans, v, t.view(), c.block(j, 0, m - j, c.cols()));
  }
}

Matrix extract_r(ConstMatrixView a) {
  const Index k = std::min(a.rows(), a.cols());
  Matrix r(k, a.cols());
  for (Index j = 0; j < a.cols(); ++j)
    for (Index i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
  return r;
}

}  // namespace qrgrid
