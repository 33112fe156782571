// TSQR — Tall and Skinny QR over a message-passing communicator.
//
// The M x N input is distributed as contiguous row blocks, one *domain*
// per communicator rank. Each rank factors its local block with blocked
// Householder QR, then the R factors are reduced over a configurable tree
// (flat / binary / grid-hierarchical): at every merge the child ships its
// n x n triangle to the parent, which runs the structured stacked-R kernel
// (tpqrt_tt). One reduction — log2(P) messages on the critical path —
// replaces ScaLAPACK's per-column allreduces.
//
// The orthogonal factor is kept implicit (leaf reflectors with the block
// reflector T of each leaf panel, as the leaf's geqrf formed them, +
// per-merge combine reflectors); tsqr_form_explicit_q materializes the
// local M x N block of Q, and tsqr_apply_q / tsqr_apply_qt apply Q or Q^T
// to a distributed block (the building block CAQR uses for trailing
// updates). No leaf Q application forms a T again.
#pragma once

#include <optional>
#include <vector>

#include "core/tree.hpp"
#include "linalg/matrix.hpp"
#include "msg/comm.hpp"

namespace qrgrid::core {

struct TsqrOptions {
  TreeKind tree = TreeKind::kBinary;
  /// Cluster of each communicator rank (for kGridHierarchical). Empty
  /// means "single cluster".
  std::vector<int> rank_cluster;
  /// If true, broadcast the final R from the root to every rank.
  bool replicate_r = false;
};

/// Implicit factored form produced by tsqr_factor. The leaf reflectors
/// live in the caller's matrix (overwritten in place); their block
/// reflectors and the combine reflectors are owned here. Valid only while
/// the factored matrix is alive.
struct TsqrFactors {
  Index n = 0;             ///< column count
  Index m_local = 0;       ///< local row count
  MatrixView leaf;         ///< local block, overwritten with V (and R pre-merge)
  Matrix leaf_t;           ///< the leaf's panel T's, as geqrf keeps them

  /// One entry per merge where this rank was the parent, in level order.
  struct CombineNode {
    int level = 0;
    int child = 0;               ///< comm rank that sent its R
    Matrix v2;                   ///< n x n upper-triangular reflector tails
    std::vector<double> tau;
  };
  std::vector<CombineNode> combines;

  /// The level at which this rank sent its R upward (and stopped merging),
  /// plus the parent it sent to; nullopt for the root.
  std::optional<std::pair<int, int>> sent_at;  ///< (level, parent)

  /// Final R: n x n upper triangular, valid on the root (and everywhere if
  /// TsqrOptions::replicate_r was set).
  Matrix r;
};

/// Factors the distributed tall-skinny matrix. `a_local` (m_local x n,
/// m_local >= n on every rank) is overwritten with the leaf reflectors.
/// Collective over `comm`.
TsqrFactors tsqr_factor(msg::Comm& comm, MatrixView a_local,
                        const TsqrOptions& options);

/// Materializes this rank's m_local x n block of the explicit Q.
/// Collective over the same communicator used to factor.
Matrix tsqr_form_explicit_q(msg::Comm& comm, const TsqrFactors& factors);

/// Applies Q^T to a distributed block C (m_local x p per rank, same row
/// distribution as the factored matrix): on return, the leading n rows of
/// the root's block hold (Q^T C)(0:n, :), i.e. the projection onto the
/// Q basis; remaining rows hold the orthogonal complement part.
void tsqr_apply_qt(msg::Comm& comm, const TsqrFactors& factors,
                   MatrixView c_local);

/// Applies Q to a distributed block laid out like tsqr_apply_qt's output.
void tsqr_apply_q(msg::Comm& comm, const TsqrFactors& factors,
                  MatrixView c_local);

/// Packs/unpacks an n x n upper triangle into n(n+1)/2 doubles (the wire
/// format of the R reduction).
std::vector<double> pack_upper_triangle(ConstMatrixView r);
void unpack_upper_triangle(const std::vector<double>& packed, MatrixView r);

}  // namespace qrgrid::core
