// Kernel microbenchmarks (google-benchmark): the building blocks whose
// rates calibrate the roofline model — DGEMM-analog, blocked Householder
// QR at the paper's panel widths, the TSQR combine, and the threaded
// runtime's allreduce.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/tsqr.hpp"
#include "linalg/blas.hpp"
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
