// Kernel bit pins: FNV-1a-64 hashes of the linear-algebra kernels'
// outputs on fixed inputs.
//
// Every kernel is a fixed sequence of floating-point operations
// (blas.hpp, "Determinism"), and each compiled copy of it must keep that
// sequence: the hashes below were recorded from the baseline x86-64
// (SSE2) build before the kernels had wider clones, so on an AVX2 or
// AVX-512 host this test checks the clone the loader picked against the
// SSE2 bits. Inputs are Rng::uniform draws (gaussian() would put libm's
// log and sqrt into every input), so nrm2's sqrt and larfg's hypot are
// the only libm calls behind a hash. Shapes sit on the kernels' ragged
// edges: gemm's 8 x 4 tile and its 128 / 256 / 2048 blocks on padded
// sub-views, dot's eight lanes, the recursive panel's 16-column leaves.
//
// If a pin fails, an operation, an operand order or a summation order
// moved, or the compiler fused a multiply and an add into an FMA. Only a
// deliberate change of the kernels' arithmetic may re-pin; the failure
// message prints the row in the table's format.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/tpqrt.hpp"

namespace qrgrid {
namespace {

/// FNV-1a-64 over the bytes of a sequence of doubles.
class Fnv {
 public:
  Fnv& put(double x) {
    unsigned char bytes[sizeof x];
    std::memcpy(bytes, &x, sizeof x);
    for (const unsigned char b : bytes) {
      h_ ^= b;
      h_ *= 1099511628211ull;
    }
    return *this;
  }
  Fnv& put(ConstMatrixView v) {
    for (Index j = 0; j < v.cols(); ++j) {
      for (Index i = 0; i < v.rows(); ++i) put(v(i, j));
    }
    return *this;
  }
  Fnv& put(const std::vector<double>& v) {
    for (const double x : v) put(x);
    return *this;
  }
  std::uint64_t hash() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

struct Pin {
  std::string name;
  std::uint64_t hash;
};

Matrix uniform(Index m, Index n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(m, n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  return a;
}

std::vector<double> uniform_vector(Index n, std::uint64_t seed) {
  const Matrix a = uniform(n, 1, seed);
  return {a.data(), a.data() + n};
}

/// The upper triangle of a uniform n x n matrix, zero below it.
Matrix upper_uniform(Index n, std::uint64_t seed) {
  Matrix r = uniform(n, n, seed);
  for (Index j = 0; j < n; ++j) {
    for (Index i = j + 1; i < n; ++i) r(i, j) = 0.0;
  }
  return r;
}

const char* letter(Trans t) { return t == Trans::No ? "N" : "T"; }

void level1(std::vector<Pin>& pins) {
  for (const Index n : {Index{7}, Index{1003}}) {
    const std::string size = "/" + std::to_string(n);
    const std::vector<double> x = uniform_vector(n, 11);
    std::vector<double> y = uniform_vector(n, 12);
    pins.push_back(
        {"dot" + size, Fnv().put(dot(n, x.data(), y.data())).hash()});
    pins.push_back({"nrm2" + size, Fnv().put(nrm2(n, x.data())).hash()});
    // Squares below 2^-800: nrm2's scaled (dlassq) pass.
    std::vector<double> tiny = x;
    for (double& v : tiny) v *= 0x1p-600;
    pins.push_back(
        {"nrm2/scaled" + size, Fnv().put(nrm2(n, tiny.data())).hash()});
    axpy(n, 0.7, x.data(), y.data());
    pins.push_back({"axpy" + size, Fnv().put(y).hash()});
    scal(n, -0.3, y.data());
    pins.push_back({"scal" + size, Fnv().put(y).hash()});
  }
}

void level2(std::vector<Pin>& pins) {
  // A 203 x 37 view with a padded leading dimension.
  Matrix a_store = uniform(208, 40, 21);
  const MatrixView a = a_store.block(3, 2, 203, 37);
  for (const Trans t : {Trans::No, Trans::Yes}) {
    const Index nx = t == Trans::No ? 37 : 203;
    const Index ny = t == Trans::No ? 203 : 37;
    const std::vector<double> x = uniform_vector(nx, 22);
    std::vector<double> y = uniform_vector(ny, 23);
    gemv(t, 0.7, a, x.data(), 0.3, y.data());
    pins.push_back({std::string("gemv/") + letter(t), Fnv().put(y).hash()});
  }
  const std::vector<double> x = uniform_vector(203, 24);
  const std::vector<double> y = uniform_vector(37, 25);
  ger(-0.7, x.data(), y.data(), a);
  pins.push_back({"ger", Fnv().put(a_store.view()).hash()});
}

void level3(std::vector<Pin>& pins) {
  // m % 8 = 3 over two 128-row blocks, n % 4 = 3, k over two 256-deep
  // blocks; every operand a padded sub-view. C's whole store is hashed,
  // so a write outside the view fails too.
  constexpr Index m = 203;
  constexpr Index n = 99;
  constexpr Index k = 300;
  for (const Trans ta : {Trans::No, Trans::Yes}) {
    for (const Trans tb : {Trans::No, Trans::Yes}) {
      const Index ar = ta == Trans::No ? m : k;
      const Index ac = ta == Trans::No ? k : m;
      const Index br = tb == Trans::No ? k : n;
      const Index bc = tb == Trans::No ? n : k;
      const Matrix a_store = uniform(ar + 5, ac + 1, 31);
      const Matrix b_store = uniform(br + 3, bc + 2, 32);
      const ConstMatrixView a = a_store.block(2, 1, ar, ac);
      const ConstMatrixView b = b_store.block(1, 0, br, bc);
      for (const double beta : {0.0, 1.0, 0.3}) {
        Matrix c_store = uniform(m + 4, n + 2, 33);
        const double alpha = beta == 1.0 ? -1.0 : 0.7;
        gemm(ta, tb, alpha, a, b, beta, c_store.block(1, 1, m, n));
        std::ostringstream name;
        name << "gemm/" << letter(ta) << letter(tb) << "/beta" << beta;
        pins.push_back({name.str(), Fnv().put(c_store.view()).hash()});
      }
    }
  }
  {
    // Wider than one 2048-column block of op(B).
    const Matrix a = uniform(11, 9, 34);
    const Matrix b = uniform(9, 2053, 35);
    Matrix c = uniform(11, 2053, 36);
    gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 1.0, c.view());
    pins.push_back({"gemm/NN/wide", Fnv().put(c.view()).hash()});
  }

  // Every side / uplo / trans, both diagonals (alpha 1 with a unit
  // diagonal, -0.7 with the stored one).
  constexpr Index nt = 37;
  constexpr Index other = 13;
  const Matrix t = uniform(nt, nt, 41);
  for (const Side side : {Side::Left, Side::Right}) {
    for (const UpLo uplo : {UpLo::Upper, UpLo::Lower}) {
      for (const Trans trans : {Trans::No, Trans::Yes}) {
        for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
          Matrix b = side == Side::Left ? uniform(nt, other, 42)
                                        : uniform(other, nt, 42);
          const double alpha = diag == Diag::Unit ? 1.0 : -0.7;
          trmm(side, uplo, trans, diag, alpha, t.view(), b.view());
          std::ostringstream name;
          name << "trmm/" << (side == Side::Left ? "L" : "R")
               << (uplo == UpLo::Upper ? "U" : "L") << letter(trans)
               << (diag == Diag::Unit ? "U" : "N");
          pins.push_back({name.str(), Fnv().put(b.view()).hash()});
        }
      }
    }
  }
}

void householder_qr(std::vector<Pin>& pins) {
  {
    Matrix a = uniform(300, 37, 51);
    std::vector<double> tau;
    geqr2(a.view(), tau);
    pins.push_back({"geqr2/300x37", Fnv().put(a.view()).put(tau).hash()});
    const Matrix q = orgqr(a.view(), tau, 37);
    pins.push_back({"orgqr/300x37", Fnv().put(q.view()).hash()});
  }
  struct Shape {
    Index m;
    Index n;
  };
  for (const Shape s : {Shape{8192, 64}, Shape{1000, 37}, Shape{40, 12}}) {
    const std::string size =
        "/" + std::to_string(s.m) + "x" + std::to_string(s.n);
    Matrix a = uniform(s.m, s.n, 52);
    std::vector<double> tau;
    geqrf(a.view(), tau);
    pins.push_back({"geqrf" + size, Fnv().put(a.view()).put(tau).hash()});

    Matrix at = uniform(s.m, s.n, 52);
    Matrix t;
    geqrf(at.view(), tau, t);
    pins.push_back({"geqrf+t" + size,
                    Fnv().put(at.view()).put(tau).put(t.view()).hash()});

    Matrix larft_t(s.n, s.n);
    larft(at.view(), tau, larft_t.view());
    pins.push_back({"larft" + size, Fnv().put(larft_t.view()).hash()});

    for (const Trans trans : {Trans::No, Trans::Yes}) {
      Matrix c = uniform(s.m, 23, 53);
      ormqr_left(trans, at.view(), t.view(), c.view());
      pins.push_back({std::string("ormqr_left/") + letter(trans) + size,
                      Fnv().put(c.view()).hash()});
    }
    const Matrix eye = Matrix::identity(s.n);
    const Matrix q = thin_q_times(at.view(), t.view(), eye.view());
    pins.push_back({"thin_q_times/I" + size, Fnv().put(q.view()).hash()});
    const Matrix c = uniform(s.n, 5, 54);
    const Matrix qc = thin_q_times(at.view(), t.view(), c.view());
    pins.push_back({"thin_q_times/C" + size, Fnv().put(qc.view()).hash()});
  }
}

void structured_qr(std::vector<Pin>& pins) {
  constexpr Index n = 40;
  constexpr Index p = 17;
  {
    Matrix r1 = upper_uniform(n, 61);
    Matrix r2 = upper_uniform(n, 62);
    std::vector<double> tau;
    tpqrt_tt(r1.view(), r2.view(), tau);
    pins.push_back(
        {"tpqrt_tt", Fnv().put(r1.view()).put(r2.view()).put(tau).hash()});
    for (const Trans trans : {Trans::No, Trans::Yes}) {
      Matrix c1 = uniform(n, p, 63);
      Matrix c2 = uniform(n, p, 64);
      tpmqrt_tt(trans, r2.view(), tau, c1.view(), c2.view());
      pins.push_back({std::string("tpmqrt_tt/") + letter(trans),
                      Fnv().put(c1.view()).put(c2.view()).hash()});
    }
  }
  {
    Matrix r1 = upper_uniform(n, 65);
    Matrix b = uniform(200, n, 66);
    std::vector<double> tau;
    tpqrt_td(r1.view(), b.view(), tau);
    pins.push_back(
        {"tpqrt_td", Fnv().put(r1.view()).put(b.view()).put(tau).hash()});
    for (const Trans trans : {Trans::No, Trans::Yes}) {
      Matrix c1 = uniform(n, p, 67);
      Matrix c2 = uniform(200, p, 68);
      tpmqrt_td(trans, b.view(), tau, c1.view(), c2.view());
      pins.push_back({std::string("tpmqrt_td/") + letter(trans),
                      Fnv().put(c1.view()).put(c2.view()).hash()});
    }
  }
}

std::string pin_row(const Pin& pin) {
  std::ostringstream os;
  os << "{\"" << pin.name << "\", 0x" << std::hex << pin.hash << "ull},";
  return os.str();
}

TEST(LinalgPins, KernelOutputsKeepTheirBits) {
  const Pin kPinned[] = {
      {"dot/7", 0xc9076ec04346323bull},
      {"nrm2/7", 0x950b508171d19caull},
      {"nrm2/scaled/7", 0x79dd20815abb691ull},
      {"axpy/7", 0xa4d54bedc3173644ull},
      {"scal/7", 0xeacd013b178a21a3ull},
      {"dot/1003", 0x4636920eff5db394ull},
      {"nrm2/1003", 0x7798a61a346e4ff3ull},
      {"nrm2/scaled/1003", 0x463e8237a692917dull},
      {"axpy/1003", 0x56b0f55b49f9db85ull},
      {"scal/1003", 0xef1da3139ea5affbull},
      {"gemv/N", 0x5af3cf49a269d98bull},
      {"gemv/T", 0xfcd6bbb3db4da06dull},
      {"ger", 0x23743d4d09b2df9ull},
      {"gemm/NN/beta0", 0xa53bd94ba49d2adaull},
      {"gemm/NN/beta1", 0x15d6e89bfa503495ull},
      {"gemm/NN/beta0.3", 0x91829da55a9fad62ull},
      {"gemm/NT/beta0", 0x9c3e132041bcb08eull},
      {"gemm/NT/beta1", 0xe35770af2c3c637eull},
      {"gemm/NT/beta0.3", 0xdc81a6e55aaefecbull},
      {"gemm/TN/beta0", 0x62587bda2f71f6ceull},
      {"gemm/TN/beta1", 0x22fc0a182e78d75ull},
      {"gemm/TN/beta0.3", 0xf77e2541f4a4bc1cull},
      {"gemm/TT/beta0", 0xf076f47ee03d7704ull},
      {"gemm/TT/beta1", 0xc8a3303f0d6620afull},
      {"gemm/TT/beta0.3", 0x9618b52165a9c058ull},
      {"gemm/NN/wide", 0x6e3a6fb38c0cbf20ull},
      {"trmm/LUNN", 0x2587e3b32cc0a523ull},
      {"trmm/LUNU", 0x8e391b6025e3aab6ull},
      {"trmm/LUTN", 0xe5c54f8393422cf4ull},
      {"trmm/LUTU", 0x2f3c0ddaabfbc73eull},
      {"trmm/LLNN", 0x259973e6a4000ecbull},
      {"trmm/LLNU", 0xdb9bffe6ef69bba3ull},
      {"trmm/LLTN", 0x8e7665f955956d10ull},
      {"trmm/LLTU", 0xbec15e32dea29393ull},
      {"trmm/RUNN", 0xda8b26a85052034dull},
      {"trmm/RUNU", 0x83015060ff49ef42ull},
      {"trmm/RUTN", 0xee2df8ade19a9ea1ull},
      {"trmm/RUTU", 0x3400bfd9ace14398ull},
      {"trmm/RLNN", 0x4694d82417521fcull},
      {"trmm/RLNU", 0x808464568917f405ull},
      {"trmm/RLTN", 0x99616c11689979daull},
      {"trmm/RLTU", 0x8ea7e6d86b8c8cc1ull},
      {"geqr2/300x37", 0xd03ec445bee7edacull},
      {"orgqr/300x37", 0xe23cb5df382d6165ull},
      {"geqrf/8192x64", 0x4d18dc47d208276full},
      {"geqrf+t/8192x64", 0x2700dfe346ae7290ull},
      {"larft/8192x64", 0xd97f45c52e72366dull},
      {"ormqr_left/N/8192x64", 0xf5dcb590c26193f6ull},
      {"ormqr_left/T/8192x64", 0x11013f5479c45da5ull},
      {"thin_q_times/I/8192x64", 0x5d39924c420ec3deull},
      {"thin_q_times/C/8192x64", 0x9a3ec9a620f2b0ffull},
      {"geqrf/1000x37", 0xf0f6096fd24306a8ull},
      {"geqrf+t/1000x37", 0x37742ce2d1ea0f55ull},
      {"larft/1000x37", 0xbcb35e87b87006fbull},
      {"ormqr_left/N/1000x37", 0xc687bb910e8caeabull},
      {"ormqr_left/T/1000x37", 0x20ae27e9ede9e4bbull},
      {"thin_q_times/I/1000x37", 0xd349e9b4fdd7f956ull},
      {"thin_q_times/C/1000x37", 0x857e70d5bd9f77b5ull},
      {"geqrf/40x12", 0x62cd0dec5359f748ull},
      {"geqrf+t/40x12", 0x4219264076b1ee57ull},
      {"larft/40x12", 0xc175ede4e816acecull},
      {"ormqr_left/N/40x12", 0x32fe397a218db885ull},
      {"ormqr_left/T/40x12", 0x15390426ec66cbb4ull},
      {"thin_q_times/I/40x12", 0x531ffc57781d73c5ull},
      {"thin_q_times/C/40x12", 0xbdd9f151370f34f2ull},
      {"tpqrt_tt", 0x5540fb90cb266938ull},
      {"tpmqrt_tt/N", 0x36dd1c83ce99c678ull},
      {"tpmqrt_tt/T", 0xfa75eb4dc3bc9e37ull},
      {"tpqrt_td", 0x6066500bb6a3abe6ull},
      {"tpmqrt_td/N", 0x82521d335dceb994ull},
      {"tpmqrt_td/T", 0x2c2f2927fcb0ecb0ull},
  };
  std::vector<Pin> pins;
  level1(pins);
  level2(pins);
  level3(pins);
  householder_qr(pins);
  structured_qr(pins);
  std::ostringstream table;
  for (const Pin& pin : pins) table << pin_row(pin) << "\n";
  ASSERT_EQ(pins.size(), std::size(kPinned)) << table.str();
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(pins[i].name, kPinned[i].name);
    EXPECT_EQ(pins[i].hash, kPinned[i].hash) << pin_row(pins[i]);
  }
}

}  // namespace
}  // namespace qrgrid
