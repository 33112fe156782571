#include "core/tsqr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "linalg/generators.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"

namespace qrgrid::core {
namespace {

/// Reference R of the global matrix via sequential Householder QR,
/// sign-normalized.
Matrix reference_r(const Matrix& global) {
  Matrix f = Matrix::copy_of(global.view());
  std::vector<double> tau;
  geqrf(f.view(), tau);
  Matrix r = extract_r(f.view());
  normalize_r_sign(r.view());
  return r;
}

struct TsqrCase {
  int procs;
  Index n;
  Index rows_per_proc;
  TreeKind tree;
};

class TsqrTest : public ::testing::TestWithParam<TsqrCase> {};

TEST_P(TsqrTest, RMatchesSequentialReference) {
  const TsqrCase c = GetParam();
  const Index m_global = c.rows_per_proc * c.procs;
  Matrix global = random_gaussian(m_global, c.n, 777);
  Matrix want = reference_r(global);

  msg::Runtime rt(c.procs);
  Matrix got;
  rt.run([&](msg::Comm& comm) {
    Matrix local(c.rows_per_proc, c.n);
    fill_gaussian_rows(local.view(), comm.rank() * c.rows_per_proc, 777);
    TsqrOptions opts;
    opts.tree = c.tree;
    if (c.tree == TreeKind::kGridHierarchical) {
      // Pretend half the ranks sit on another cluster.
      for (int r = 0; r < comm.size(); ++r) {
        opts.rank_cluster.push_back(r < (comm.size() + 1) / 2 ? 0 : 1);
      }
    }
    TsqrFactors f = tsqr_factor(comm, local.view(), opts);
    if (comm.rank() == 0) {
      normalize_r_sign(f.r.view());
      got = std::move(f.r);
    }
  });
  ASSERT_EQ(got.rows(), c.n);
  EXPECT_LT(max_abs_diff(got.view(), want.view()),
            1e-11 * frobenius_norm(want.view()))
      << "procs=" << c.procs << " n=" << c.n;
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, TsqrTest,
    ::testing::Values(TsqrCase{1, 8, 20, TreeKind::kBinary},
                      TsqrCase{2, 8, 16, TreeKind::kBinary},
                      TsqrCase{4, 16, 24, TreeKind::kBinary},
                      TsqrCase{8, 8, 8, TreeKind::kBinary},
                      TsqrCase{7, 6, 9, TreeKind::kBinary},
                      TsqrCase{4, 8, 12, TreeKind::kFlat},
                      TsqrCase{6, 10, 15, TreeKind::kFlat},
                      TsqrCase{8, 12, 16, TreeKind::kGridHierarchical},
                      TsqrCase{5, 4, 6, TreeKind::kGridHierarchical}),
    [](const auto& info) {
      const char* tree = info.param.tree == TreeKind::kFlat ? "flat"
                         : info.param.tree == TreeKind::kBinary
                             ? "binary"
                             : "grid";
      return std::string(tree) + "_p" + std::to_string(info.param.procs) +
             "_n" + std::to_string(info.param.n);
    });

TEST(Tsqr, ExplicitQIsOrthogonalAndReconstructs) {
  const int procs = 4;
  const Index m_loc = 25, n = 10;
  Matrix global = random_gaussian(m_loc * procs, n, 888);

  msg::Runtime rt(procs);
  std::vector<Matrix> q_blocks(procs);
  Matrix r_final;
  rt.run([&](msg::Comm& comm) {
    Matrix local(m_loc, n);
    fill_gaussian_rows(local.view(), comm.rank() * m_loc, 888);
    TsqrFactors f = tsqr_factor(comm, local.view(), TsqrOptions{});
    Matrix q = tsqr_form_explicit_q(comm, f);
    q_blocks[static_cast<std::size_t>(comm.rank())] = std::move(q);
    if (comm.rank() == 0) r_final = std::move(f.r);
  });

  // Assemble the global Q.
  Matrix q_global(m_loc * procs, n);
  for (int r = 0; r < procs; ++r) {
    copy(q_blocks[static_cast<std::size_t>(r)].view(),
         q_global.block(r * m_loc, 0, m_loc, n));
  }
  EXPECT_LT(orthogonality_error(q_global.view()), 1e-12);
  EXPECT_LT(factorization_residual(global.view(), q_global.view(),
                                   r_final.view()),
            1e-12);
}

// The leaf at widths that cross geqrf's recursion leaf (16) and panel
// width (32): one panel, a full one, one column into a second, two, and
// a partial third; on square, one-row-taller and tall local blocks. Each
// case checks the explicit Q, Q^T A = [R; 0], and the apply_qt -> apply_q
// round trip.
struct LeafWidthCase {
  Index n;
  Index rows_per_proc;
  TreeKind tree;
  int procs;
};

std::vector<LeafWidthCase> leaf_width_cases() {
  std::vector<LeafWidthCase> cases;
  for (const Index n : {1, 17, 31, 32, 33, 64, 70}) {
    for (const Index m_loc : {n, n + 1, 4 * n + 3}) {
      for (const TreeKind tree : {TreeKind::kFlat, TreeKind::kBinary,
                                  TreeKind::kGridHierarchical}) {
        for (int procs = 1; procs <= 5; ++procs) {
          cases.push_back(LeafWidthCase{n, m_loc, tree, procs});
        }
      }
    }
  }
  return cases;
}

class TsqrLeafWidthTest : public ::testing::TestWithParam<LeafWidthCase> {};

TEST_P(TsqrLeafWidthTest, ExplicitQAndApplies) {
  const LeafWidthCase c = GetParam();
  const Index n = c.n;
  const Index m_loc = c.rows_per_proc;
  const Index p = 5;  // columns of the block the apply round trip carries
  const Index m_global = m_loc * c.procs;
  Matrix global(m_global, n);
  fill_gaussian_rows(global.view(), 0, 4242);

  msg::Runtime rt(c.procs);
  std::vector<Matrix> q_blocks(static_cast<std::size_t>(c.procs));
  std::vector<double> projection(static_cast<std::size_t>(c.procs), 0.0);
  std::vector<double> round_trip(static_cast<std::size_t>(c.procs), 0.0);
  Matrix r_final;
  rt.run([&](msg::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    Matrix local = Matrix::copy_of(
        global.block(comm.rank() * m_loc, 0, m_loc, n));
    Matrix projected = Matrix::copy_of(local.view());
    TsqrOptions opts;
    opts.tree = c.tree;
    if (c.tree == TreeKind::kGridHierarchical) {
      for (int r = 0; r < comm.size(); ++r) {
        opts.rank_cluster.push_back(r < (comm.size() + 1) / 2 ? 0 : 1);
      }
    }
    TsqrFactors f = tsqr_factor(comm, local.view(), opts);
    q_blocks[me] = tsqr_form_explicit_q(comm, f);
    if (comm.rank() == 0) r_final = f.r;

    // Q^T A is [R; 0]: R in the root's top n rows, zero everywhere else.
    tsqr_apply_qt(comm, f, projected.view());
    if (comm.rank() == 0) {
      projection[me] = max_abs_diff(projected.block(0, 0, n, n), f.r.view());
      set_zero(projected.block(0, 0, n, n));
    }
    projection[me] = std::max(projection[me], max_abs(projected.view()));

    Matrix b(m_loc, p);
    fill_gaussian_rows(b.view(), comm.rank() * m_loc, 4343);
    const Matrix orig = Matrix::copy_of(b.view());
    tsqr_apply_qt(comm, f, b.view());
    tsqr_apply_q(comm, f, b.view());
    round_trip[me] = max_abs_diff(b.view(), orig.view());
  });

  Matrix q_global(m_global, n);
  for (int r = 0; r < c.procs; ++r) {
    copy(q_blocks[static_cast<std::size_t>(r)].view(),
         q_global.block(r * m_loc, 0, m_loc, n));
  }
  EXPECT_LE(orthogonality_error(q_global.view()), 1e-12);
  EXPECT_LE(factorization_residual(global.view(), q_global.view(),
                                   r_final.view()),
            1e-12);
  EXPECT_LE(*std::max_element(projection.begin(), projection.end()), 1e-11);
  EXPECT_LE(*std::max_element(round_trip.begin(), round_trip.end()), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, TsqrLeafWidthTest, ::testing::ValuesIn(leaf_width_cases()),
    [](const auto& info) {
      const LeafWidthCase& c = info.param;
      const char* tree = c.tree == TreeKind::kFlat     ? "flat"
                         : c.tree == TreeKind::kBinary ? "binary"
                                                       : "grid";
      return std::string(tree) + "_p" + std::to_string(c.procs) + "_n" +
             std::to_string(c.n) + "_m" + std::to_string(c.rows_per_proc);
    });

TEST(Tsqr, ReplicateRDeliversEverywhere) {
  const int procs = 3;
  msg::Runtime rt(procs);
  std::vector<Matrix> rs(procs);
  rt.run([&](msg::Comm& comm) {
    Matrix local(12, 5);
    fill_gaussian_rows(local.view(), comm.rank() * 12, 999);
    TsqrOptions opts;
    opts.replicate_r = true;
    TsqrFactors f = tsqr_factor(comm, local.view(), opts);
    rs[static_cast<std::size_t>(comm.rank())] = std::move(f.r);
  });
  for (int r = 1; r < procs; ++r) {
    EXPECT_EQ(max_abs_diff(rs[0].view(), rs[static_cast<std::size_t>(r)].view()),
              0.0);
  }
}

TEST(Tsqr, ApplyQtProjectsOntoBasis) {
  // Q^T A must equal [R; 0].
  const int procs = 4;
  const Index m_loc = 16, n = 6;
  msg::Runtime rt(procs);
  // One slot per rank: the ranks run on their own threads.
  std::vector<double> rank_err(procs, 0.0);
  rt.run([&](msg::Comm& comm) {
    Matrix local(m_loc, n);
    fill_gaussian_rows(local.view(), comm.rank() * m_loc, 1010);
    Matrix a_copy = Matrix::copy_of(local.view());
    TsqrFactors f = tsqr_factor(comm, local.view(), TsqrOptions{});
    tsqr_apply_qt(comm, f, a_copy.view());
    if (comm.rank() == 0) {
      // Top n rows == R (same sign conventions, no normalization needed).
      double err = max_abs_diff(a_copy.block(0, 0, n, n), f.r.view());
      // Remaining rows ~ 0.
      for (Index i = n; i < m_loc; ++i) {
        for (Index j = 0; j < n; ++j) {
          err = std::max(err, std::fabs(a_copy(i, j)));
        }
      }
      rank_err[0] = err;
    } else {
      double err = 0.0;
      for (Index i = 0; i < m_loc; ++i) {
        for (Index j = 0; j < n; ++j) {
          err = std::max(err, std::fabs(a_copy(i, j)));
        }
      }
      rank_err[static_cast<std::size_t>(comm.rank())] = err;
    }
  });
  EXPECT_LT(*std::max_element(rank_err.begin(), rank_err.end()), 1e-11);
}

TEST(Tsqr, ApplyQtThenQRoundTrips) {
  const int procs = 3;
  const Index m_loc = 14, n = 5, p = 4;
  msg::Runtime rt(procs);
  rt.run([&](msg::Comm& comm) {
    Matrix local(m_loc, n);
    fill_gaussian_rows(local.view(), comm.rank() * m_loc, 1111);
    TsqrFactors f = tsqr_factor(comm, local.view(), TsqrOptions{});
    Matrix c(m_loc, p);
    fill_gaussian_rows(c.view(), comm.rank() * m_loc, 1212);
    Matrix orig = Matrix::copy_of(c.view());
    tsqr_apply_qt(comm, f, c.view());
    tsqr_apply_q(comm, f, c.view());
    EXPECT_LT(max_abs_diff(c.view(), orig.view()), 1e-11);
  });
}

TEST(Tsqr, RejectsWideLocalBlocks) {
  msg::Runtime rt(2);
  EXPECT_THROW(rt.run([](msg::Comm& comm) {
                 Matrix local(4, 8);  // m_local < n
                 fill_gaussian_rows(local.view(), comm.rank() * 4, 1);
                 (void)tsqr_factor(comm, local.view(), TsqrOptions{});
               }),
               Error);
}

TEST(Tsqr, PackUnpackRoundTrips) {
  Matrix r = random_gaussian(6, 6, 2020);
  zero_below_diagonal(r.view());
  std::vector<double> packed = pack_upper_triangle(r.view());
  EXPECT_EQ(packed.size(), 21u);
  Matrix back(6, 6);
  unpack_upper_triangle(packed, back.view());
  EXPECT_EQ(max_abs_diff(r.view(), back.view()), 0.0);
}

TEST(Tsqr, PackUnpackEmptyTriangle) {
  Matrix r(0, 0);
  std::vector<double> packed = pack_upper_triangle(r.view());
  EXPECT_EQ(packed.size(), 0u);
  Matrix back(0, 0);
  unpack_upper_triangle(packed, back.view());  // must accept the empty wire
}

TEST(Tsqr, PackUnpackSingleElement) {
  Matrix r(1, 1);
  r(0, 0) = 42.0;
  std::vector<double> packed = pack_upper_triangle(r.view());
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0], 42.0);
  Matrix back(1, 1);
  back(0, 0) = -1.0;
  unpack_upper_triangle(packed, back.view());
  EXPECT_EQ(back(0, 0), 42.0);
}

TEST(Tsqr, PackUnpackLargeTriangleWireSize) {
  // The R-factor wire format carries exactly n(n+1)/2 doubles — the volume
  // the Section-IV cost model charges per reduction message.
  const Index n = 97;
  Matrix r = random_gaussian(n, n, 4040);
  zero_below_diagonal(r.view());
  std::vector<double> packed = pack_upper_triangle(r.view());
  EXPECT_EQ(packed.size(), static_cast<std::size_t>(n * (n + 1) / 2));
  Matrix back(n, n);
  fill_gaussian_rows(back.view(), 0, 5050);  // stale below-diagonal junk
  unpack_upper_triangle(packed, back.view());
  EXPECT_EQ(max_abs_diff(r.view(), back.view()), 0.0);
}

TEST(Tsqr, IllConditionedInputStaysStable) {
  // TSQR must track Householder stability (paper §II-C: "numerically as
  // stable as the Householder QR factorization").
  const int procs = 4;
  const Index m_loc = 30, n = 8;
  Matrix global = random_with_condition(m_loc * procs, n, 1e12, 3030);

  msg::Runtime rt(procs);
  std::vector<Matrix> q_blocks(procs);
  Matrix r_final;
  rt.run([&](msg::Comm& comm) {
    Matrix local = Matrix::copy_of(
        global.block(comm.rank() * m_loc, 0, m_loc, n));
    TsqrFactors f = tsqr_factor(comm, local.view(), TsqrOptions{});
    q_blocks[static_cast<std::size_t>(comm.rank())] =
        tsqr_form_explicit_q(comm, f);
    if (comm.rank() == 0) r_final = std::move(f.r);
  });
  Matrix q_global(m_loc * procs, n);
  for (int r = 0; r < procs; ++r) {
    copy(q_blocks[static_cast<std::size_t>(r)].view(),
         q_global.block(r * m_loc, 0, m_loc, n));
  }
  // Orthogonality independent of conditioning — the TSQR selling point.
  EXPECT_LT(orthogonality_error(q_global.view()), 1e-12);
  EXPECT_LT(factorization_residual(global.view(), q_global.view(),
                                   r_final.view()),
            1e-12);
}

}  // namespace
}  // namespace qrgrid::core
