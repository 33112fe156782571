// Per-process compute-rate model (the GotoBLAS substitute's calibration).
//
// The paper's §V-B measures a practical per-process DGEMM rate of about
// 3.67 Gflop/s and observes (Properties 2 and 4) that the QR kernels reach
// only a fraction of it, growing with the column count N because wider
// panels admit more Level-3 BLAS. We model the domanial QR rate with a
// saturating-roofline curve
//
//     rate(N) = peak * (f_min + (f_max - f_min) * N / (N + N_half))
//
// which reproduces the paper's single-site envelope: ~30 Gflop/s at N=64
// and ~70 Gflop/s at N=512 for 64 ScaLAPACK processes (Fig. 4), with TSQR
// leaf kernels following the same curve.
#pragma once

namespace qrgrid::model {

struct Roofline {
  double dgemm_gflops = 3.67;  ///< practical per-process peak (paper §V-B)
  double f_min = 0.045;        ///< efficiency floor as N -> 1
  double f_max = 0.38;         ///< efficiency ceiling as N -> inf
  double n_half = 162.0;       ///< column count at half the f range
  // Calibrated against the paper's single-site ScaLAPACK plateaus:
  // eff(64) ~ 0.14 (32/235 practical Gflop/s) and eff(512) ~ 0.30
  // (70/235), Figs. 4(a)/4(d).

  /// Effective per-process rate in Gflop/s for kernels working on
  /// ncols-column blocks; ncols <= 0 means "peak" (pure DGEMM).
  double rate_gflops(int ncols) const;

  bool operator==(const Roofline&) const = default;
  /// Field list for visitors (the job service's snapshot guard).
  template <class V>
  void visit(V& v) { v(dgemm_gflops, f_min, f_max, n_half); }
};

/// The calibration used by all benches (kept in one place so EXPERIMENTS.md
/// can cite it).
Roofline paper_calibration();

}  // namespace qrgrid::model
