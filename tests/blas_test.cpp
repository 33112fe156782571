#include "linalg/blas.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "linalg/generators.hpp"
#include "linalg/norms.hpp"

namespace qrgrid {
namespace {

Matrix naive_gemm(Trans ta, Trans tb, ConstMatrixView a, ConstMatrixView b) {
  const Index m = ta == Trans::No ? a.rows() : a.cols();
  const Index k = ta == Trans::No ? a.cols() : a.rows();
  const Index n = tb == Trans::No ? b.cols() : b.rows();
  Matrix c(m, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      double acc = 0.0;
      for (Index kk = 0; kk < k; ++kk) {
        const double av = ta == Trans::No ? a(i, kk) : a(kk, i);
        const double bv = tb == Trans::No ? b(kk, j) : b(j, kk);
        acc += av * bv;
      }
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(Blas1, Nrm2Basic) {
  const double x[] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(nrm2(2, x), 5.0);
}

TEST(Blas1, Nrm2AvoidsOverflow) {
  const double big = 1e300;
  const double x[] = {big, big};
  EXPECT_NEAR(nrm2(2, x) / (big * std::sqrt(2.0)), 1.0, 1e-14);
}

TEST(Blas1, Nrm2AvoidsUnderflow) {
  const double tiny = 1e-300;
  const double x[] = {tiny, tiny, tiny, tiny};
  EXPECT_NEAR(nrm2(4, x) / (tiny * 2.0), 1.0, 1e-14);
}

TEST(Blas1, DotMatchesLongDoubleSumAtEveryLength) {
  // Every tail length past the kernel's eight partial sums, and n = 0.
  const Matrix x = random_gaussian(40, 1, 3);
  const Matrix y = random_gaussian(40, 1, 4);
  for (Index n = 0; n <= 40; ++n) {
    long double want = 0.0L;
    long double magnitude = 0.0L;
    for (Index i = 0; i < n; ++i) {
      const long double p = static_cast<long double>(x(i, 0)) * y(i, 0);
      want += p;
      magnitude += std::fabs(p);
    }
    const double tol = 4.0 * static_cast<double>(n) *
                       std::numeric_limits<double>::epsilon() *
                       static_cast<double>(magnitude);
    EXPECT_NEAR(dot(n, x.data(), y.data()), static_cast<double>(want), tol)
        << "n = " << n;
  }
}

TEST(Blas1, DotAxpyScal) {
  double x[] = {1.0, 2.0, 3.0};
  double y[] = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(3, x, y), 32.0);
  axpy(3, 2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  scal(3, 0.5, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(Blas2, GemvNoTrans) {
  Matrix a = random_gaussian(5, 3, 1);
  double x[] = {1.0, -2.0, 0.5};
  double y[5] = {1, 1, 1, 1, 1};
  gemv(Trans::No, 2.0, a.view(), x, 3.0, y);
  for (Index i = 0; i < 5; ++i) {
    const double want =
        3.0 + 2.0 * (a(i, 0) * 1.0 + a(i, 1) * -2.0 + a(i, 2) * 0.5);
    EXPECT_NEAR(y[i], want, 1e-12);
  }
}

TEST(Blas2, GemvTrans) {
  Matrix a = random_gaussian(4, 3, 2);
  double x[] = {1.0, 2.0, 3.0, 4.0};
  double y[3] = {0, 0, 0};
  gemv(Trans::Yes, 1.0, a.view(), x, 0.0, y);
  for (Index j = 0; j < 3; ++j) {
    double want = 0.0;
    for (Index i = 0; i < 4; ++i) want += a(i, j) * x[i];
    EXPECT_NEAR(y[j], want, 1e-12);
  }
}

TEST(Blas2, GerRank1Update) {
  Matrix a(3, 2);
  double x[] = {1.0, 2.0, 3.0};
  double y[] = {4.0, 5.0};
  ger(2.0, x, y, a.view());
  EXPECT_DOUBLE_EQ(a(2, 1), 2.0 * 3.0 * 5.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0 * 1.0 * 4.0);
}

class TrsvTest : public ::testing::TestWithParam<std::tuple<UpLo, Trans, Diag>> {};

TEST_P(TrsvTest, SolvesAgainstMultiply) {
  const auto [uplo, trans, diag] = GetParam();
  const Index n = 6;
  Matrix t = random_gaussian(n, n, 7);
  // Make the triangle well conditioned and honor the structure.
  for (Index i = 0; i < n; ++i) t(i, i) = 4.0 + static_cast<double>(i);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      if (uplo == UpLo::Upper && i > j) t(i, j) = 0.0;
      if (uplo == UpLo::Lower && i < j) t(i, j) = 0.0;
    }
  }
  Matrix x_true = random_gaussian(n, 1, 8);
  // b = op(T) x
  double b[6];
  for (Index i = 0; i < n; ++i) {
    double acc = 0.0;
    for (Index j = 0; j < n; ++j) {
      double tij = trans == Trans::No ? t(i, j) : t(j, i);
      if (diag == Diag::Unit && i == j) tij = 1.0;
      acc += tij * x_true(j, 0);
    }
    b[i] = acc;
  }
  trsv(uplo, trans, diag, t.view(), b);
  for (Index i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true(i, 0), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrientations, TrsvTest,
    ::testing::Combine(::testing::Values(UpLo::Upper, UpLo::Lower),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

class GemmTest
    : public ::testing::TestWithParam<std::tuple<Trans, Trans, int, int, int>> {
};

TEST_P(GemmTest, MatchesNaive) {
  const auto [ta, tb, m, n, k] = GetParam();
  Matrix a = ta == Trans::No ? random_gaussian(m, k, 11)
                             : random_gaussian(k, m, 11);
  Matrix b = tb == Trans::No ? random_gaussian(k, n, 12)
                             : random_gaussian(n, k, 12);
  Matrix want = naive_gemm(ta, tb, a.view(), b.view());
  Matrix c(m, n);
  c.fill(1.0);
  gemm(ta, tb, 2.0, a.view(), b.view(), -1.0, c.view());
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      EXPECT_NEAR(c(i, j), 2.0 * want(i, j) - 1.0, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmTest,
    ::testing::Combine(::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(3, 17), ::testing::Values(2, 19),
                       ::testing::Values(1, 23)));

// The packed kernel's register tile (MR x NR = 8 x 4) and cache blocks
// (MC = 128 rows, KC = 256 deep, NC = 2048 columns) in blas3.cpp; the
// sizes below sit on and around each of their edges.
constexpr Index kTileRows = 8;
constexpr Index kTileCols = 4;
constexpr Index kRowBlock = 128;
constexpr Index kDepthBlock = 256;
constexpr Index kColBlock = 2048;

class GemmEdgeTest
    : public ::testing::TestWithParam<std::tuple<Trans, Trans>> {};

TEST_P(GemmEdgeTest, MatchesTripleLoopOnSubViewsAtEveryEdge) {
  const auto [ta, tb] = GetParam();
  struct Shape {
    Index m, n, k;
  };
  std::vector<Shape> shapes;
  for (const Index m : {Index{1}, kTileRows - 1, kTileRows, kTileRows + 1,
                        2 * kRowBlock + 3}) {
    for (const Index n :
         {Index{1}, kTileCols - 1, kTileCols, kTileCols + 1}) {
      for (const Index k : {Index{1}, 2 * kDepthBlock + 3}) {
        shapes.push_back({m, n, k});
      }
    }
  }
  shapes.push_back({kTileRows + 1, 2 * kColBlock + 3, 3});
  std::uint64_t seed = 500;
  for (const Shape& s : shapes) {
    // Every operand and C is an interior block of a larger matrix, so
    // each leading dimension exceeds the block's row count.
    const Index ar = ta == Trans::No ? s.m : s.k;
    const Index ac = ta == Trans::No ? s.k : s.m;
    const Index br = tb == Trans::No ? s.k : s.n;
    const Index bc = tb == Trans::No ? s.n : s.k;
    const Matrix a_store = random_gaussian(ar + 3, ac + 2, seed++);
    const Matrix b_store = random_gaussian(br + 5, bc + 1, seed++);
    const Matrix c_store = random_gaussian(s.m + 3, s.n + 2, seed++);
    const ConstMatrixView a = a_store.block(2, 1, ar, ac);
    const ConstMatrixView b = b_store.block(4, 1, br, bc);
    const Matrix ab = naive_gemm(ta, tb, a, b);
    for (const double alpha : {1.0, -1.0, 0.5, 0.0}) {
      for (const double beta : {0.0, 1.0, -2.0}) {
        Matrix out = c_store;
        const MatrixView c = out.block(2, 1, s.m, s.n);
        // beta == 0 must overwrite C, whatever it held.
        if (beta == 0.0) {
          for (Index j = 0; j < s.n; ++j) {
            for (Index i = 0; i < s.m; ++i) {
              c(i, j) = std::numeric_limits<double>::quiet_NaN();
            }
          }
        }
        gemm(ta, tb, alpha, a, b, beta, c);
        double worst = 0.0;
        for (Index j = 0; j < out.cols(); ++j) {
          for (Index i = 0; i < out.rows(); ++i) {
            const bool inside =
                i >= 2 && i < 2 + s.m && j >= 1 && j < 1 + s.n;
            const double want =
                inside ? alpha * ab(i - 2, j - 1) +
                             (beta == 0.0 ? 0.0 : beta * c_store(i, j))
                       : c_store(i, j);
            const double diff = std::fabs(out(i, j) - want);
            worst = std::isnan(diff) ? diff : std::max(worst, diff);
          }
        }
        EXPECT_LE(worst, 1e-13 * static_cast<double>(s.k) + 1e-14)
            << "m=" << s.m << " n=" << s.n << " k=" << s.k
            << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmEdgeTest,
    ::testing::Combine(::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Trans::No, Trans::Yes)));

TEST(Gemm, LargeBlockedPathMatchesNaive) {
  // Exercise the kMC/kKC tiling with dimensions larger than one tile.
  Matrix a = random_gaussian(200, 150, 21);
  Matrix b = random_gaussian(150, 40, 22);
  Matrix want = naive_gemm(Trans::No, Trans::No, a.view(), b.view());
  Matrix c(200, 40);
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-9);
}

TEST(Trmm, LeftUpperMatchesGemm) {
  const Index n = 8, p = 5;
  Matrix t = random_gaussian(n, n, 31);
  zero_below_diagonal(t.view());
  Matrix b = random_gaussian(n, p, 32);
  Matrix want = naive_gemm(Trans::No, Trans::No, t.view(), b.view());
  trmm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, t.view(),
       b.view());
  EXPECT_LT(max_abs_diff(b.view(), want.view()), 1e-10);
}

TEST(Trmm, RightLowerTransUnitMatchesGemm) {
  const Index n = 7, m = 4;
  Matrix t = random_gaussian(n, n, 33);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < j; ++i) t(i, j) = 0.0;  // lower triangular
  }
  Matrix t_unit = Matrix::copy_of(t.view());
  for (Index i = 0; i < n; ++i) t_unit(i, i) = 1.0;
  Matrix b = random_gaussian(m, n, 34);
  Matrix want = naive_gemm(Trans::No, Trans::Yes, b.view(), t_unit.view());
  trmm(Side::Right, UpLo::Lower, Trans::Yes, Diag::Unit, 1.0, t.view(),
       b.view());
  EXPECT_LT(max_abs_diff(b.view(), want.view()), 1e-10);
}

TEST(Trsm, LeftSolveRoundTrips) {
  const Index n = 6, p = 3;
  Matrix t = random_gaussian(n, n, 41);
  zero_below_diagonal(t.view());
  for (Index i = 0; i < n; ++i) t(i, i) += 5.0;
  Matrix x = random_gaussian(n, p, 42);
  Matrix b = Matrix::copy_of(x.view());
  trmm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, t.view(),
       b.view());
  trsm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, t.view(),
       b.view());
  EXPECT_LT(max_abs_diff(b.view(), x.view()), 1e-10);
}

TEST(Trsm, RightSolveRoundTrips) {
  const Index n = 6, m = 4;
  Matrix t = random_gaussian(n, n, 43);
  zero_below_diagonal(t.view());
  for (Index i = 0; i < n; ++i) t(i, i) += 5.0;
  Matrix x = random_gaussian(m, n, 44);
  Matrix b = Matrix::copy_of(x.view());
  trmm(Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, t.view(),
       b.view());
  trsm(Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, t.view(),
       b.view());
  EXPECT_LT(max_abs_diff(b.view(), x.view()), 1e-10);
}

TEST(Syrk, UpperGramMatchesGemm) {
  Matrix a = random_gaussian(20, 6, 51);
  Matrix want = naive_gemm(Trans::Yes, Trans::No, a.view(), a.view());
  Matrix c(6, 6);
  syrk_upper_at_a(1.0, a.view(), 0.0, c.view());
  for (Index j = 0; j < 6; ++j) {
    for (Index i = 0; i <= j; ++i) EXPECT_NEAR(c(i, j), want(i, j), 1e-10);
  }
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(3, 4);
  Matrix b(5, 2);
  Matrix c(3, 2);
  EXPECT_THROW(
      gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view()),
      Error);
}

}  // namespace
}  // namespace qrgrid
