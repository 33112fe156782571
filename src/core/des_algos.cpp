#include "core/des_algos.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "linalg/flops.hpp"
#include "model/costs.hpp"

namespace qrgrid::core {

namespace {

constexpr double kDouble = sizeof(double);

/// Distributed Householder column step: local partial norms/updates plus
/// the two per-column reductions of the ScaLAPACK panel kernel.
/// `blacs_combines` selects ScaLAPACK's reduce+broadcast combine
/// (2 log2 P rounds, what DGSUM2D does) versus the ideal butterfly
/// allreduce (log2 P rounds, what the paper's Table I charges and what
/// our own pdgeqr2 implementation uses).
void des_column_step(simgrid::DesEngine& engine, std::span<const int> ranks,
                     double m_active, double trailing_cols, int ncols,
                     bool blacs_combines) {
  const double m_loc = m_active / static_cast<double>(ranks.size());
  auto combine = [&](std::size_t bytes, double flops) {
    if (blacs_combines) {
      engine.reduce_bcast(ranks, bytes, flops, ncols);
    } else {
      engine.allreduce(ranks, bytes, flops, ncols);
    }
  };
  engine.compute(ranks, 2.0 * m_loc, ncols);
  combine(static_cast<std::size_t>(2 * kDouble), 2.0);
  if (trailing_cols > 0.0) {
    // w = v^T A_trail before the reduction, the rank-1 update after —
    // split to mirror the SPMD implementation's clock profile exactly.
    engine.compute(ranks, 2.0 * m_loc * trailing_cols, ncols);
    combine(static_cast<std::size_t>(trailing_cols * kDouble),
            trailing_cols);
    engine.compute(ranks, 2.0 * m_loc * trailing_cols, ncols);
  }
}

}  // namespace

void des_pdgeqr2(simgrid::DesEngine& engine, std::span<const int> ranks,
                 double m, double n, bool form_q) {
  const int ncols = static_cast<int>(n);
  for (double j = 0; j < n; j += 1.0) {
    des_column_step(engine, ranks, m - j, n - j - 1.0, ncols,
                    /*blacs_combines=*/false);
  }
  // R assembly: every non-root rank reports its (usually empty) slice of
  // the leading N rows to rank 0 — the SPMD implementation's final gather.
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    engine.p2p(ranks[r], ranks[0], 0);
  }
  if (form_q) {
    // Distributed dorg2r: one allreduce of width n-i per reflector.
    const double m_loc = m / static_cast<double>(ranks.size());
    for (double i = n; i-- > 0.0;) {
      const double width = n - i;
      engine.compute(ranks, 4.0 * m_loc * width, ncols);
      engine.allreduce(ranks, static_cast<std::size_t>(width * kDouble),
                       width, ncols);
    }
  }
}

void des_pdgeqrf(simgrid::DesEngine& engine, std::span<const int> ranks,
                 double m, double n, int nb, bool form_q) {
  QRGRID_CHECK(nb >= 1);
  const int ncols = static_cast<int>(n);
  const double p = static_cast<double>(ranks.size());
  for (double j0 = 0; j0 < n; j0 += nb) {
    const double jb = std::min<double>(nb, n - j0);
    const double m_active = m - j0;
    // Panel: the per-column PDGEQR2 pattern restricted to jb columns,
    // with ScaLAPACK's reduce+broadcast combines.
    for (double jj = 0; jj < jb; jj += 1.0) {
      des_column_step(engine, ranks, m_active - jj, jb - jj - 1.0, ncols,
                      /*blacs_combines=*/true);
    }
    // Blocked trailing update: W = T^T V^T C assembled with one combine
    // of jb x width, then the local rank-jb update.
    const double width = n - j0 - jb;
    if (width > 0.0) {
      const double m_loc = m_active / p;
      engine.compute(ranks, 4.0 * m_loc * jb * width, ncols);
      engine.reduce_bcast(ranks,
                          static_cast<std::size_t>(jb * width * kDouble),
                          jb * width, ncols);
    }
  }
  if (form_q) {
    // PDORGQR costs the same leading term as the factorization
    // (Property 1); replay the same schedule once more.
    des_pdgeqrf(engine, ranks, m, n, nb, false);
  }
}

void des_tsqr(simgrid::DesEngine& engine,
              const std::vector<std::vector<int>>& domain_groups,
              const std::vector<int>& domain_cluster, double m, double n,
              TreeKind tree_kind, bool form_q) {
  const int d = static_cast<int>(domain_groups.size());
  QRGRID_CHECK(d >= 1);
  const double m_d = m / static_cast<double>(d);
  const int ncols = static_cast<int>(n);

  // Leaves: one ScaLAPACK (or LAPACK, for singleton groups) call per
  // domain — the QCG-TSQR twist of Section III.
  for (const auto& group : domain_groups) {
    if (group.size() == 1) {
      engine.compute(group[0], flops::geqrf(m_d, n), ncols);
    } else {
      des_pdgeqrf(engine, group, m_d, n, 64, false);
    }
  }

  auto root_of = [&](int domain) {
    return domain_groups[static_cast<std::size_t>(domain)][0];
  };

  // Single reduction over R factors. Combine kernels work on n x n
  // triangle pairs whose internal blocking is narrow (dtpqrt-style
  // ib ~ 64), so they run at the narrow-panel roofline rate rather than
  // the wide-panel rate of the leaf factorizations — this is what makes
  // "trading flops for intra-node communication" stop paying off at
  // N = 512 (paper Fig. 7b: 32 domains beat 64).
  const int combine_ncols = std::min(ncols, 128);
  const ReductionTree tree = ReductionTree::make(tree_kind, d, domain_cluster);
  const auto r_bytes = static_cast<std::size_t>(n * (n + 1) / 2 * kDouble);
  for (const auto& level : tree.levels()) {
    for (const Merge& merge : level.merges) {
      engine.p2p(root_of(merge.child), root_of(merge.parent), r_bytes);
      engine.compute(root_of(merge.parent), flops::tpqrt_tt(n),
                     combine_ncols);
    }
  }

  if (form_q) {
    // Top-down sweep: each merge applies its combine Q and ships the
    // child's coefficient block down, then every leaf applies its local Q.
    const auto c_bytes = static_cast<std::size_t>(n * n * kDouble);
    for (std::size_t l = tree.levels().size(); l-- > 0;) {
      for (const Merge& merge : tree.levels()[l].merges) {
        engine.compute(root_of(merge.parent), 2.0 * flops::tpqrt_tt(n),
                       ncols);
        engine.p2p(root_of(merge.parent), root_of(merge.child), c_bytes);
      }
    }
    for (const auto& group : domain_groups) {
      const double share =
          flops::orgqr(m_d, n) / static_cast<double>(group.size());
      engine.compute(group, share, ncols);
      if (group.size() > 1) {
        engine.allreduce(group, c_bytes, 0.0, ncols);
      }
    }
  }
}

DomainLayout make_domain_layout(const simgrid::GridTopology& topology,
                                int domains_per_cluster) {
  QRGRID_CHECK(domains_per_cluster >= 1 ||
               domains_per_cluster == kOneDomainPerProcess);
  DomainLayout layout;
  for (int c = 0; c < topology.num_clusters(); ++c) {
    const int base = topology.cluster_rank_base(c);
    const int procs = topology.cluster(c).procs();
    // One singleton domain per rank: clusters keep their own proc counts.
    const int domains =
        domains_per_cluster == kOneDomainPerProcess ? procs
                                                    : domains_per_cluster;
    QRGRID_CHECK_MSG(domains <= procs,
                     "more domains than processes in cluster " << c);
    const auto blocks = partition_rows(procs, domains);
    for (const auto& blk : blocks) {
      std::vector<int> group;
      for (std::int64_t i = 0; i < blk.count; ++i) {
        group.push_back(base + static_cast<int>(blk.offset + i));
      }
      layout.groups.push_back(std::move(group));
      layout.domain_cluster.push_back(c);
    }
  }
  return layout;
}

DesRunResult run_des_scalapack(const simgrid::GridTopology& topology,
                               const model::Roofline& roofline, double m,
                               double n, int nb, bool form_q) {
  simgrid::DesEngine engine(&topology, roofline);
  std::vector<int> ranks(static_cast<std::size_t>(topology.total_procs()));
  for (int r = 0; r < topology.total_procs(); ++r) {
    ranks[static_cast<std::size_t>(r)] = r;
  }
  des_pdgeqrf(engine, ranks, m, n, nb, form_q);
  DesRunResult res;
  res.seconds = engine.makespan();
  res.gflops = model::useful_flops(m, n) / res.seconds / 1e9;
  res.total_messages = engine.messages();
  res.inter_cluster_messages =
      engine.messages_of(msg::LinkClass::kInterCluster);
  res.compute_utilization = engine.compute_utilization();
  return res;
}

DesRunResult run_des_tsqr(const simgrid::GridTopology& topology,
                          const model::Roofline& roofline,
                          int domains_per_cluster, double m, double n,
                          TreeKind tree_kind, bool form_q) {
  simgrid::DesEngine engine(&topology, roofline);
  DomainLayout layout = make_domain_layout(topology, domains_per_cluster);
  des_tsqr(engine, layout.groups, layout.domain_cluster, m, n, tree_kind,
           form_q);
  DesRunResult res;
  res.seconds = engine.makespan();
  res.gflops = model::useful_flops(m, n) / res.seconds / 1e9;
  res.total_messages = engine.messages();
  res.inter_cluster_messages =
      engine.messages_of(msg::LinkClass::kInterCluster);
  res.compute_utilization = engine.compute_utilization();
  return res;
}

}  // namespace qrgrid::core
