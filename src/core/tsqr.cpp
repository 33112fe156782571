#include "core/tsqr.hpp"

#include <algorithm>

#include "linalg/flops.hpp"
#include "linalg/qr.hpp"
#include "linalg/tpqrt.hpp"

namespace qrgrid::core {

namespace {

// Tag bases for the three collective phases (well below the runtime's
// reserved collective range). The level index is added so deep trees keep
// distinct matching keys.
constexpr int kTagReduce = 1000;
constexpr int kTagQDown = 2000;
constexpr int kTagApplyUp = 3000;
constexpr int kTagApplyBack = 4000;

}  // namespace

std::vector<double> pack_upper_triangle(ConstMatrixView r) {
  const Index n = r.rows();
  QRGRID_CHECK(r.cols() == n);
  std::vector<double> packed;
  packed.reserve(static_cast<std::size_t>(n * (n + 1) / 2));
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) packed.push_back(r(i, j));
  }
  return packed;
}

void unpack_upper_triangle(const std::vector<double>& packed, MatrixView r) {
  const Index n = r.rows();
  QRGRID_CHECK(r.cols() == n);
  QRGRID_CHECK(static_cast<Index>(packed.size()) == n * (n + 1) / 2);
  set_zero(r);
  std::size_t idx = 0;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) r(i, j) = packed[idx++];
  }
}

TsqrFactors tsqr_factor(msg::Comm& comm, MatrixView a_local,
                        const TsqrOptions& options) {
  const Index m = a_local.rows();
  const Index n = a_local.cols();
  QRGRID_CHECK_MSG(m >= n, "TSQR requires m_local >= n; got " << m << " x "
                                                              << n);
  TsqrFactors f;
  f.n = n;
  f.m_local = m;
  f.leaf = a_local;

  // Leaf factorization: blocked Householder QR of the local block,
  // keeping each panel's T for the Q applications (tau is T's diagonal).
  std::vector<double> tau;
  geqrf(a_local, tau, f.leaf_t);
  comm.compute(flops::geqrf(static_cast<double>(m), static_cast<double>(n)),
               static_cast<int>(n));

  // Working copy of my current R factor (the leaf's upper triangle).
  Matrix r_mine = extract_r(a_local);
  // extract_r returns k x n with k = min(m, n) = n here; make it square.
  QRGRID_CHECK(r_mine.rows() == n && r_mine.cols() == n);

  const ReductionTree tree =
      ReductionTree::make(options.tree, comm.size(), options.rank_cluster);

  const int me = comm.rank();
  for (int level = 0; level < tree.depth(); ++level) {
    for (const Merge& merge :
         tree.levels()[static_cast<std::size_t>(level)].merges) {
      if (merge.child == me) {
        comm.send(merge.parent, kTagReduce + level,
                  pack_upper_triangle(r_mine.view()));
        f.sent_at = std::make_pair(level, merge.parent);
      } else if (merge.parent == me) {
        std::vector<double> packed = comm.recv(merge.child, kTagReduce + level);
        TsqrFactors::CombineNode node;
        node.level = level;
        node.child = merge.child;
        node.v2 = Matrix(n, n);
        unpack_upper_triangle(packed, node.v2.view());
        // Stack [R_mine; R_child] and annihilate the lower triangle; on
        // return v2 holds the reflector tails.
        tpqrt_tt(r_mine.view(), node.v2.view(), node.tau);
        comm.compute(flops::tpqrt_tt(static_cast<double>(n)),
                     static_cast<int>(n));
        f.combines.push_back(std::move(node));
      }
    }
  }

  if (me == tree.root()) {
    f.r = std::move(r_mine);
  }
  if (options.replicate_r) {
    std::vector<double> packed;
    if (me == tree.root()) packed = pack_upper_triangle(f.r.view());
    comm.bcast(packed, tree.root());
    if (me != tree.root()) {
      f.r = Matrix(n, n);
      unpack_upper_triangle(packed, f.r.view());
    }
  }
  return f;
}

Matrix tsqr_form_explicit_q(msg::Comm& comm, const TsqrFactors& factors) {
  const Index n = factors.n;
  const Index m = factors.m_local;
  const int me = comm.rank();

  // Seed: the root's coefficient block is the identity; everyone else
  // receives theirs from their parent on the way down.
  Matrix c(n, n);
  if (!factors.sent_at.has_value() && me == 0) {
    for (Index i = 0; i < n; ++i) c(i, i) = 1.0;
  }

  // Walk the tree top-down (reverse level order). At each merge the parent
  // splits its coefficients into (top, bottom) through the combine Q and
  // ships the bottom half to the child.
  // Collect this rank's events ordered by descending level.
  struct Event {
    int level;
    bool is_parent;
    const TsqrFactors::CombineNode* node;  // when is_parent
    int parent;                            // when !is_parent
  };
  std::vector<Event> events;
  for (const auto& node : factors.combines) {
    events.push_back(Event{node.level, true, &node, -1});
  }
  if (factors.sent_at.has_value()) {
    events.push_back(
        Event{factors.sent_at->first, false, nullptr, factors.sent_at->second});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.level > b.level; });

  for (const Event& ev : events) {
    if (ev.is_parent) {
      Matrix c2(n, n);
      tpmqrt_tt(Trans::No, ev.node->v2.view(), ev.node->tau, c.view(),
                c2.view());
      // Charged at the structured cost (twice the combine, Table II's
      // 4/3 n^3 per merge): the bottom block starts zero, so a tuned
      // kernel touches only the triangular profiles.
      comm.compute(2.0 * flops::tpqrt_tt(static_cast<double>(n)),
                   static_cast<int>(n));
      comm.send(ev.node->child, kTagQDown + ev.level,
                std::span<const double>(c2.data(),
                                        static_cast<std::size_t>(n * n)));
    } else {
      std::vector<double> buf = comm.recv(ev.parent, kTagQDown + ev.level);
      QRGRID_CHECK(static_cast<Index>(buf.size()) == n * n);
      std::copy(buf.begin(), buf.end(), c.data());
    }
  }

  // Leaf: Q_local = Q_leaf * [C; 0], never reading the zero rows: the
  // panel T's are joined into the leaf's one n x n T, and then
  // Q_local = [C - V_top W; -V_bot W] with W = T (V_top^T C), one
  // (m - n) x n x n gemm plus n x n triangular products. Charged at the dorgqr cost
  // (2 m n^2 - 2/3 n^3), that product's leading term; the join adds the
  // off-diagonal blocks of V^T V (m n^2 / 2 at two panels), which the
  // charge leaves out. Forming Q at the cost of R is what makes Q+R cost
  // twice R alone (paper Property 1).
  Matrix q_local =
      thin_q_times(factors.leaf, factors.leaf_t.view(), c.view());
  comm.compute(flops::orgqr(static_cast<double>(m), static_cast<double>(n)),
               static_cast<int>(n));
  return q_local;
}

namespace {

/// Shared implementation of Q^T C (forward) and Q C (backward) on a
/// distributed block.
void tsqr_apply(msg::Comm& comm, const TsqrFactors& factors, MatrixView c,
                Trans trans) {
  const Index n = factors.n;
  const Index p = c.cols();
  QRGRID_CHECK(c.rows() == factors.m_local);
  QRGRID_CHECK_MSG(c.rows() >= n, "apply needs at least n local rows");
  const bool forward = trans == Trans::Yes;  // Q^T: leaf first, then up-tree

  auto leaf_stage = [&] {
    ormqr_left(trans, factors.leaf, factors.leaf_t.view(), c);
    comm.compute(flops::ormqr(static_cast<double>(factors.m_local),
                              static_cast<double>(n),
                              static_cast<double>(p)),
                 static_cast<int>(n));
  };

  // Tree events ordered by level (ascending for Q^T, descending for Q).
  struct Event {
    int level;
    bool is_parent;
    const TsqrFactors::CombineNode* node;
    int parent;
  };
  std::vector<Event> events;
  for (const auto& node : factors.combines) {
    events.push_back(Event{node.level, true, &node, -1});
  }
  if (factors.sent_at.has_value()) {
    events.push_back(
        Event{factors.sent_at->first, false, nullptr, factors.sent_at->second});
  }
  std::sort(events.begin(), events.end(),
            [&](const Event& a, const Event& b) {
              return forward ? a.level < b.level : a.level > b.level;
            });

  auto tree_stage = [&] {
    MatrixView c_top = c.block(0, 0, n, p);
    for (const Event& ev : events) {
      if (ev.is_parent) {
        std::vector<double> buf =
            comm.recv(ev.node->child, kTagApplyUp + ev.level);
        QRGRID_CHECK(static_cast<Index>(buf.size()) == n * p);
        Matrix c_child(n, p);
        std::copy(buf.begin(), buf.end(), c_child.data());
        tpmqrt_tt(trans, ev.node->v2.view(), ev.node->tau, c_top,
                  c_child.view());
        comm.compute(flops::tpmqrt_tt(static_cast<double>(n),
                                      static_cast<double>(p)),
                     static_cast<int>(n));
        comm.send(ev.node->child, kTagApplyBack + ev.level,
                  std::span<const double>(c_child.data(),
                                          static_cast<std::size_t>(n * p)));
      } else {
        // Ship my top rows to the parent, get the updated block back.
        Matrix mine = Matrix::copy_of(c_top);
        comm.send(ev.parent, kTagApplyUp + ev.level,
                  std::span<const double>(mine.data(),
                                          static_cast<std::size_t>(n * p)));
        std::vector<double> buf = comm.recv(ev.parent, kTagApplyBack + ev.level);
        QRGRID_CHECK(static_cast<Index>(buf.size()) == n * p);
        std::copy(buf.begin(), buf.end(), mine.data());
        copy(mine.view(), c_top);
      }
    }
  };

  if (forward) {
    leaf_stage();
    tree_stage();
  } else {
    tree_stage();
    leaf_stage();
  }
}

}  // namespace

void tsqr_apply_qt(msg::Comm& comm, const TsqrFactors& factors,
                   MatrixView c_local) {
  tsqr_apply(comm, factors, c_local, Trans::Yes);
}

void tsqr_apply_q(msg::Comm& comm, const TsqrFactors& factors,
                  MatrixView c_local) {
  tsqr_apply(comm, factors, c_local, Trans::No);
}

}  // namespace qrgrid::core
