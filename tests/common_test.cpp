#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

namespace qrgrid {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool any_diff = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    any_diff |= a2.next_u64() != c.next_u64();
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, Uniform01StaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(9);
  double sum = 0.0, sumsq = 0.0;
  const int count = 200000;
  for (int i = 0; i < count; ++i) {
    const double v = rng.gaussian();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / count, 0.0, 0.02);
  EXPECT_NEAR(sumsq / count, 1.0, 0.02);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(10);
  std::vector<int> counts(7, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) {
    const auto idx = rng.uniform_index(7);
    ASSERT_LT(idx, 7u);
    counts[static_cast<std::size_t>(idx)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, draws / 7.0 * 0.08);
  }
}

TEST(Check, ThrowsWithContext) {
  try {
    QRGRID_CHECK_MSG(1 == 2, "context " << 42);
    FAIL();
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  QRGRID_CHECK(2 + 2 == 4);
  QRGRID_CHECK_MSG(true, "never evaluated");
  SUCCEED();
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GT(w.seconds(), 0.0);
  const double before_reset = w.seconds();
  w.reset();
  EXPECT_LT(w.seconds(), before_reset + 1.0);
}

TEST(TextTable, AlignsColumnsAndRightAlignsNumbers) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "200"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  // Numeric cells are right-aligned: "200" ends at the same column as
  // "1.5" — both lines have equal length.
  std::istringstream lines(out);
  std::string header, rule, r1, r2;
  std::getline(lines, header);
  std::getline(lines, rule);
  std::getline(lines, r1);
  std::getline(lines, r2);
  EXPECT_EQ(r1.size(), r2.size());
}

TEST(TextTable, SetHeaderResetsRows) {
  TextTable t;
  t.set_header({"a"});
  t.add_row({"1"});
  EXPECT_EQ(t.row_count(), 1u);
  t.set_header({"b"});
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(FormatNumber, IntegersPrintWithoutDecimals) {
  EXPECT_EQ(format_number(256.0), "256");
  EXPECT_EQ(format_number(33554432.0), "33554432");
}

TEST(FormatNumber, FractionsKeepPrecision) {
  EXPECT_EQ(format_number(3.14159, 3), "3.14");
  EXPECT_EQ(format_number(0.25), "0.25");
}

}  // namespace
}  // namespace qrgrid
