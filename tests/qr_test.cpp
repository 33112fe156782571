#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/generators.hpp"
#include "linalg/householder.hpp"
#include "linalg/norms.hpp"

namespace qrgrid {
namespace {

constexpr double kTol = 1e-12;

class QrShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(QrShapeTest, FactorizationReconstructsAndIsOrthogonal) {
  const auto [m, n, nb] = GetParam();
  Matrix a = random_gaussian(m, n, 100 + m + n);
  Matrix factored = Matrix::copy_of(a.view());
  std::vector<double> tau;
  geqrf(factored.view(), tau, nb);

  Matrix r = extract_r(factored.view());
  EXPECT_TRUE(is_upper_triangular(r.view()));
  Matrix q = orgqr(factored.view(), tau, std::min<Index>(m, n));

  EXPECT_LT(orthogonality_error(q.view()), kTol * m);
  EXPECT_LT(factorization_residual(a.view(), q.view(), r.view()), kTol * m);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapeTest,
    ::testing::Combine(::testing::Values(8, 37, 120, 400),
                       ::testing::Values(1, 5, 32, 64),
                       ::testing::Values(4, 32)),
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_nb" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Qr, BlockedAndUnblockedAgree) {
  struct Shape {
    Index m, n, nb;
  };
  // A small case with narrow panels, then the tall shapes the TSQR leaves
  // factor (recursive panels, default width): the benchsuite's 8192 x 64
  // rank block, and a width that is no power of two.
  for (const Shape s : {Shape{60, 24, 8}, Shape{8192, 64, 32},
                        Shape{1000, 37, 32}}) {
    Matrix a = random_gaussian(s.m, s.n, 7);
    Matrix a1 = Matrix::copy_of(a.view());
    Matrix a2 = Matrix::copy_of(a.view());
    std::vector<double> tau1, tau2;
    geqr2(a1.view(), tau1);
    geqrf(a2.view(), tau2, s.nb);
    // Same algorithm (Householder with identical sign conventions), so the
    // factored forms must agree to rounding.
    EXPECT_LT(max_abs_diff(a1.view(), a2.view()), 1e-11)
        << s.m << " x " << s.n;
    ASSERT_EQ(tau1.size(), tau2.size());
    for (std::size_t i = 0; i < tau1.size(); ++i) {
      EXPECT_NEAR(tau1[i], tau2[i], 1e-12) << s.m << " x " << s.n;
    }
  }
}

TEST(Qr, SquareMatrixFullQ) {
  const Index n = 20;
  Matrix a = random_gaussian(n, n, 9);
  Matrix f = Matrix::copy_of(a.view());
  std::vector<double> tau;
  geqrf(f.view(), tau);
  Matrix q = orgqr(f.view(), tau, n);
  Matrix r = extract_r(f.view());
  EXPECT_LT(orthogonality_error(q.view()), 1e-13 * n);
  EXPECT_LT(factorization_residual(a.view(), q.view(), r.view()), 1e-13 * n);
}

TEST(Qr, RDiagonalSignNormalizationGivesUniqueR) {
  Matrix a = random_gaussian(50, 10, 13);
  Matrix f1 = Matrix::copy_of(a.view());
  Matrix f2 = Matrix::copy_of(a.view());
  std::vector<double> tau1, tau2;
  geqr2(f1.view(), tau1);
  geqrf(f2.view(), tau2, 3);
  Matrix r1 = extract_r(f1.view());
  Matrix r2 = extract_r(f2.view());
  normalize_r_sign(r1.view());
  normalize_r_sign(r2.view());
  EXPECT_LT(max_abs_diff(r1.view(), r2.view()), 1e-11);
  for (Index i = 0; i < 10; ++i) EXPECT_GE(r1(i, i), 0.0);
}

TEST(Qr, OrmqrAppliesQTranspose) {
  const Index m = 40, n = 12;
  Matrix a = random_gaussian(m, n, 17);
  Matrix f = Matrix::copy_of(a.view());
  std::vector<double> tau;
  geqrf(f.view(), tau);
  // Q^T A should equal [R; 0].
  Matrix c = Matrix::copy_of(a.view());
  ormqr_left(Trans::Yes, f.view(), tau, c.view());
  Matrix r = extract_r(f.view());
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) {
      const double want = i < n ? r(i, j) : 0.0;
      EXPECT_NEAR(c(i, j), want, 1e-11);
    }
  }
}

TEST(Qr, OrmqrQThenQTransposeIsIdentity) {
  const Index m = 30, n = 10, p = 4;
  Matrix a = random_gaussian(m, n, 19);
  std::vector<double> tau;
  geqrf(a.view(), tau);
  Matrix c = random_gaussian(m, p, 20);
  Matrix orig = Matrix::copy_of(c.view());
  ormqr_left(Trans::Yes, a.view(), tau, c.view());
  ormqr_left(Trans::No, a.view(), tau, c.view());
  EXPECT_LT(max_abs_diff(c.view(), orig.view()), 1e-11);
}

/// Q C (Trans::No) or Q^T C one reflector at a time, as LAPACK's dorm2r
/// does: the oracle for the panel-blocked ormqr_left.
void apply_reflectors_one_at_a_time(Trans trans, ConstMatrixView a,
                                    const std::vector<double>& tau,
                                    MatrixView c) {
  const Index m = a.rows();
  const auto k = static_cast<Index>(tau.size());
  std::vector<double> work(static_cast<std::size_t>(c.cols()));
  for (Index s = 0; s < k; ++s) {
    // Q = H_0 ... H_{k-1}: Q^T C applies H_0 first, Q C applies it last.
    const Index i = trans == Trans::Yes ? s : k - 1 - s;
    larf_left(tau[static_cast<std::size_t>(i)], &a(i + 1, i),
              c.block(i, 0, m - i, c.cols()), work.data());
  }
}

TEST(Qr, BlockedOrmqrMatchesOneReflectorAtATime) {
  const Index m = 150;
  // One partial panel, then reflector counts that are no multiple of the
  // panel width.
  for (const Index k : {5, 45, 70}) {
    Matrix f = random_gaussian(m, k, 40 + static_cast<std::uint64_t>(k));
    std::vector<double> tau;
    geqrf(f.view(), tau);
    for (const Trans trans : {Trans::No, Trans::Yes}) {
      for (Index p = 1; p <= 70; ++p) {
        Matrix c = random_gaussian(m, p, 1000 + static_cast<std::uint64_t>(p));
        Matrix want = Matrix::copy_of(c.view());
        apply_reflectors_one_at_a_time(trans, f.view(), tau, want.view());
        ormqr_left(trans, f.view(), tau, c.view());
        EXPECT_LT(max_abs_diff(c.view(), want.view()), 1e-12)
            << "k=" << k << " p=" << p
            << (trans == Trans::Yes ? " Q^T" : " Q");
      }
    }
  }
}

TEST(Qr, LarftLarfbMatchUnblockedApplication) {
  // k = 6 forms T column by column; k = 37 through larft's recursion.
  for (const Index k : {6, 37}) {
    const Index m = 25 + 2 * k, p = 7;
    Matrix a = random_gaussian(m, k, 23);
    std::vector<double> tau;
    geqr2(a.view(), tau);
    Matrix t(k, k);
    larft(a.view(), tau, t.view());

    Matrix c1 = random_gaussian(m, p, 24);
    Matrix c2 = Matrix::copy_of(c1.view());
    larfb_left(Trans::Yes, a.view(), t.view(), c1.view());
    apply_reflectors_one_at_a_time(Trans::Yes, a.view(), tau, c2.view());
    EXPECT_LT(max_abs_diff(c1.view(), c2.view()), 1e-11) << "k=" << k;

    larfb_left(Trans::No, a.view(), t.view(), c1.view());
    apply_reflectors_one_at_a_time(Trans::No, a.view(), tau, c2.view());
    EXPECT_LT(max_abs_diff(c1.view(), c2.view()), 1e-11) << "k=" << k;
  }
}

TEST(Qr, HandlesAlreadyTriangularInput) {
  const Index n = 8;
  Matrix a(n, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) a(i, j) = 1.0 + static_cast<double>(i + j);
  }
  Matrix f = Matrix::copy_of(a.view());
  std::vector<double> tau;
  geqr2(f.view(), tau);
  // All reflectors trivial: column tails are zero.
  for (double t : tau) EXPECT_EQ(t, 0.0);
  EXPECT_LT(max_abs_diff(extract_r(f.view()).view(), a.view()), 1e-14);
}

TEST(Qr, ZeroColumnYieldsZeroTau) {
  Matrix a(10, 2);
  for (Index i = 0; i < 10; ++i) a(i, 1) = 1.0;  // column 0 stays zero
  std::vector<double> tau;
  geqr2(a.view(), tau);
  EXPECT_EQ(tau[0], 0.0);
}

TEST(Qr, TallThinSingleColumn) {
  Matrix a = random_gaussian(1000, 1, 29);
  Matrix orig = Matrix::copy_of(a.view());
  std::vector<double> tau;
  geqr2(a.view(), tau);
  double norm = 0.0;
  for (Index i = 0; i < 1000; ++i) norm += orig(i, 0) * orig(i, 0);
  EXPECT_NEAR(std::abs(a(0, 0)), std::sqrt(norm), 1e-10);
}

}  // namespace
}  // namespace qrgrid
