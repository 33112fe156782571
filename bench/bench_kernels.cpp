// Kernel microbenchmarks (google-benchmark): the measured rates of the
// real-execution kernels — DGEMM-analog, blocked Householder QR at the
// paper's panel widths, the kernels of one TSQR leaf (8192 x 64, the
// shape of the benchsuite's tsqr-factor ranks), the TSQR combine, and
// the threaded runtime's allreduce. No rate measured here feeds the
// simulator: the DES and the scheduler price compute with the fixed
// roofline of model::paper_calibration().
#include <benchmark/benchmark.h>

#include <vector>

#include "core/tsqr.hpp"
#include "linalg/blas.hpp"
#include "linalg/flops.hpp"
#include "linalg/generators.hpp"
#include "linalg/qr.hpp"
#include "linalg/tpqrt.hpp"
#include "msg/comm.hpp"

namespace {

using namespace qrgrid;

void BM_Gemm(benchmark::State& state) {
  const Index n = state.range(0);
  Matrix a = random_gaussian(n, n, 1);
  Matrix b = random_gaussian(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * n * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Geqrf(benchmark::State& state) {
  const Index m = 4096;
  const Index n = state.range(0);
  Matrix a = random_gaussian(m, n, 3);
  std::vector<double> tau;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix work = Matrix::copy_of(a.view());
    state.ResumeTiming();
    geqrf(work.view(), tau);
    benchmark::DoNotOptimize(work.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      (2.0 * m * n * n - 2.0 / 3.0 * n * n * n) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Geqrf)->Arg(16)->Arg(64)->Arg(128);

// The TSQR leaf of the benchsuite's tsqr-factor workload: one rank's
// 8192 x 64 block, factored with the default panel width, and its
// explicit Q formed as tsqr_form_explicit_q does (Q_leaf * [C; 0]).
constexpr Index kLeafRows = 8192;
constexpr Index kLeafCols = 64;
// Panel width of the Q formation's block reflectors (larfb_left's k).
constexpr Index kLeafPanel = 32;

// The two gemm calls inside larfb_left as the Q formation runs them on
// the leaf: W(64 x 32) = C(8192 x 64)^T V(8192 x 32) ...
void BM_LeafGemmCtV(benchmark::State& state) {
  Matrix c = random_gaussian(kLeafRows, kLeafCols, 11);
  Matrix v = random_gaussian(kLeafRows, kLeafPanel, 12);
  Matrix w(kLeafCols, kLeafPanel);
  for (auto _ : state) {
    gemm(Trans::Yes, Trans::No, 1.0, c.view(), v.view(), 0.0, w.view());
    benchmark::DoNotOptimize(w.data());
    benchmark::ClobberMemory();
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::gemm(kLeafCols, kLeafPanel, kLeafRows) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LeafGemmCtV);

// ... and C(8192 x 64) -= V(8192 x 32) W(64 x 32)^T.
void BM_LeafGemmVWt(benchmark::State& state) {
  Matrix c = random_gaussian(kLeafRows, kLeafCols, 13);
  Matrix v = random_gaussian(kLeafRows, kLeafPanel, 14);
  Matrix w = random_gaussian(kLeafCols, kLeafPanel, 15);
  for (auto _ : state) {
    gemm(Trans::No, Trans::Yes, -1.0, v.view(), w.view(), 1.0, c.view());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::gemm(kLeafRows, kLeafCols, kLeafPanel) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LeafGemmVWt);

void BM_LeafGeqrf(benchmark::State& state) {
  Matrix a = random_gaussian(kLeafRows, kLeafCols, 16);
  Matrix work(kLeafRows, kLeafCols);
  std::vector<double> tau;
  for (auto _ : state) {
    state.PauseTiming();
    copy(a.view(), work.view());
    state.ResumeTiming();
    geqrf(work.view(), tau);
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::geqrf(kLeafRows, kLeafCols) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LeafGeqrf);

void BM_LeafFormQ(benchmark::State& state) {
  Matrix f = random_gaussian(kLeafRows, kLeafCols, 17);
  std::vector<double> tau;
  geqrf(f.view(), tau);
  // The coefficient block a TSQR rank receives from the tree.
  const Matrix seed = random_gaussian(kLeafCols, kLeafCols, 18);
  Matrix q(kLeafRows, kLeafCols);
  for (auto _ : state) {
    state.PauseTiming();
    set_zero(q.view());
    copy(seed.view(), q.block(0, 0, kLeafCols, kLeafCols));
    state.ResumeTiming();
    ormqr_left(Trans::No, f.view(), tau, q.view());
    benchmark::DoNotOptimize(q.data());
    benchmark::ClobberMemory();
  }
  // Rated at the dorgqr count, as tsqr_form_explicit_q charges it.
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::orgqr(kLeafRows, kLeafCols) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LeafFormQ);

void BM_TpqrtCombine(benchmark::State& state) {
  const Index n = state.range(0);
  Matrix r1 = random_gaussian(n, n, 4);
  Matrix r2 = random_gaussian(n, n, 5);
  zero_below_diagonal(r1.view());
  zero_below_diagonal(r2.view());
  std::vector<double> tau;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix t1 = Matrix::copy_of(r1.view());
    Matrix t2 = Matrix::copy_of(r2.view());
    state.ResumeTiming();
    tpqrt_tt(t1.view(), t2.view(), tau);
    benchmark::DoNotOptimize(t1.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 / 3.0 * n * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TpqrtCombine)->Arg(64)->Arg(128)->Arg(512);

void BM_RuntimeAllreduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  msg::Runtime rt(p);
  for (auto _ : state) {
    rt.run([](msg::Comm& comm) {
      std::vector<double> data(64, 1.0);
      comm.allreduce_sum(data);
      benchmark::DoNotOptimize(data.data());
    });
  }
}
BENCHMARK(BM_RuntimeAllreduce)->Arg(4)->Arg(16);

void BM_ThreadedTsqr(benchmark::State& state) {
  const int p = 8;
  const Index m_loc = 2048, n = static_cast<Index>(state.range(0));
  // Payloads are generated once; each iteration factors fresh copies,
  // made with the timer paused, so only the factorization is measured.
  std::vector<Matrix> payloads;
  std::vector<Matrix> work;
  for (int r = 0; r < p; ++r) {
    payloads.emplace_back(m_loc, n);
    fill_gaussian_rows(payloads.back().view(), r * m_loc, 6363);
    work.emplace_back(m_loc, n);
  }
  msg::Runtime rt(p);
  for (auto _ : state) {
    state.PauseTiming();
    for (int r = 0; r < p; ++r) {
      copy(payloads[static_cast<std::size_t>(r)].view(),
           work[static_cast<std::size_t>(r)].view());
    }
    state.ResumeTiming();
    rt.run([&](msg::Comm& comm) {
      core::TsqrFactors f = core::tsqr_factor(
          comm, work[static_cast<std::size_t>(comm.rank())].view(),
          core::TsqrOptions{});
      benchmark::DoNotOptimize(f.r.data());
    });
  }
  // Useful flops of the whole m x n factorization, as BM_Geqrf counts.
  const double m = static_cast<double>(p) * static_cast<double>(m_loc);
  const double nd = static_cast<double>(n);
  state.counters["Gflop/s"] = benchmark::Counter(
      (2.0 * m * nd * nd - 2.0 / 3.0 * nd * nd * nd) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
// The factorization runs on the runtime's rank threads, so the rate is
// taken against wall time, not the benchmark thread's CPU time.
BENCHMARK(BM_ThreadedTsqr)->Arg(16)->Arg(64)->UseRealTime();

}  // namespace
