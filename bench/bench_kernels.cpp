// Kernel microbenchmarks (google-benchmark): the measured rates of the
// real-execution kernels — DGEMM-analog, blocked Householder QR at the
// paper's panel widths, the kernels of one TSQR leaf (8192 x 64, the
// shape of the benchsuite's tsqr-factor ranks), the TSQR combine, the
// threaded runtime's allreduce, and threaded TSQR with and without its
// explicit Q. No rate measured here feeds the
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
// 8192 x 64 block, factored with the default panel width (two 32-column
// panels), and its explicit Q formed as tsqr_form_explicit_q does
// (thin_q_times: Q_leaf [C; 0]).
constexpr Index kLeafRows = 8192;
constexpr Index kLeafCols = 64;
constexpr Index kLeafPanel = 32;  // geqrf's default panel width

// The two gemm calls of the leaf's Q formation. Joining the panels' T's:
// T12 += V1^T V2 (32 x 32) over the rows below the leaf's 64 x 64 top
// (the 32 rows of V2's unit triangle go through trmm) ...
void BM_LeafGemmJoin(benchmark::State& state) {
  const Index rows = kLeafRows - kLeafCols;
  Matrix v1 = random_gaussian(rows, kLeafPanel, 11);
  Matrix v2 = random_gaussian(rows, kLeafPanel, 12);
  Matrix t12(kLeafPanel, kLeafPanel);
  for (auto _ : state) {
    gemm(Trans::Yes, Trans::No, 1.0, v1.view(), v2.view(), 1.0, t12.view());
    benchmark::DoNotOptimize(t12.data());
    benchmark::ClobberMemory();
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::gemm(kLeafPanel, kLeafPanel, rows) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LeafGemmJoin);

// ... and the product's rows below the top: Q_bot = -V_bot W, with V_bot
// 8128 x 64 and W = T V_top^T C (64 x 64).
void BM_LeafGemmVbotW(benchmark::State& state) {
  const Index rows = kLeafRows - kLeafCols;
  Matrix v = random_gaussian(rows, kLeafCols, 13);
  Matrix w = random_gaussian(kLeafCols, kLeafCols, 14);
  Matrix q(rows, kLeafCols);
  for (auto _ : state) {
    gemm(Trans::No, Trans::No, -1.0, v.view(), w.view(), 0.0, q.view());
    benchmark::DoNotOptimize(q.data());
    benchmark::ClobberMemory();
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::gemm(rows, kLeafCols, kLeafCols) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LeafGemmVbotW);

// The leaf factorization: keep_t:1 keeps every panel's T, as tsqr_factor
// does; keep_t:0 is geqrf for R alone.
void BM_LeafGeqrf(benchmark::State& state) {
  const bool keep_t = state.range(0) != 0;
  Matrix a = random_gaussian(kLeafRows, kLeafCols, 16);
  Matrix work(kLeafRows, kLeafCols);
  std::vector<double> tau;
  Matrix t;
  for (auto _ : state) {
    state.PauseTiming();
    copy(a.view(), work.view());
    state.ResumeTiming();
    if (keep_t) {
      geqrf(work.view(), tau, t);
    } else {
      geqrf(work.view(), tau);
    }
    benchmark::DoNotOptimize(work.data());
    benchmark::ClobberMemory();
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::geqrf(kLeafRows, kLeafCols) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LeafGeqrf)->ArgName("keep_t")->Arg(0)->Arg(1);

// The leaf's explicit Q: the join of its panel T's plus the structured
// product with the coefficient block a TSQR rank receives from the tree.
void BM_LeafFormQ(benchmark::State& state) {
  Matrix f = random_gaussian(kLeafRows, kLeafCols, 17);
  std::vector<double> tau;
  Matrix t;
  geqrf(f.view(), tau, t);
  const Matrix seed = random_gaussian(kLeafCols, kLeafCols, 18);
  for (auto _ : state) {
    Matrix q = thin_q_times(f.view(), t.view(), seed.view());
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

// 8 ranks x 2048 x n through tsqr_factor, and with form_q also through
// tsqr_form_explicit_q: the two rows' ratio is the real kernels' cost of
// Q+R over R alone (paper Property 1 says 2).
void run_threaded_tsqr(benchmark::State& state, bool form_q) {
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
      if (form_q) {
        Matrix q = core::tsqr_form_explicit_q(comm, f);
        benchmark::DoNotOptimize(q.data());
      }
    });
  }
  // Useful flops of the whole m x n factorization, as BM_Geqrf counts,
  // and as much again for the explicit Q (flops::orgqr).
  const double m = static_cast<double>(p) * static_cast<double>(m_loc);
  const double nd = static_cast<double>(n);
  const double useful = form_q ? flops::geqrf(m, nd) + flops::orgqr(m, nd)
                               : flops::geqrf(m, nd);
  state.counters["Gflop/s"] = benchmark::Counter(
      useful * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}

void BM_ThreadedTsqr(benchmark::State& state) {
  run_threaded_tsqr(state, false);
}
void BM_ThreadedTsqrFormQ(benchmark::State& state) {
  run_threaded_tsqr(state, true);
}
// The factorization runs on the runtime's rank threads, so the rate is
// taken against wall time, not the benchmark thread's CPU time.
BENCHMARK(BM_ThreadedTsqr)->Arg(16)->Arg(64)->UseRealTime();
BENCHMARK(BM_ThreadedTsqrFormQ)->Arg(16)->Arg(64)->UseRealTime();

}  // namespace
