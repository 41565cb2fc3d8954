// Unit tests for the util substrate: stopwatch, RNG, CRC, Morton codes,
// histograms.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "util/crc32.h"
#include "util/histogram.h"
#include "util/morton.h"
#include "util/rng.h"
#include "util/timer.h"

namespace crkhacc {
namespace {

// --- stopwatch ---------------------------------------------------------------

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(watch.seconds(), 0.015);
  watch.reset();
  EXPECT_LT(watch.seconds(), 0.015);
}

// --- rng --------------------------------------------------------------------

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  SplitMix64 a2(7);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(SplitMix64, UniformInUnitInterval) {
  SplitMix64 rng(123);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(SplitMix64, GaussianMoments) {
  SplitMix64 rng(99);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(SplitMix64, BoundedHasNoObviousBias) {
  SplitMix64 rng(5);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.next_bounded(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 / 5);
}

TEST(CounterRng, OrderIndependent) {
  CounterRng rng(42, 3);
  const double a = rng.uniform(100);
  const double b = rng.uniform(5);
  EXPECT_EQ(a, rng.uniform(100));  // re-query identical
  EXPECT_EQ(b, rng.uniform(5));
  EXPECT_NE(a, b);
}

TEST(CounterRng, StreamsDiffer) {
  CounterRng s0(42, 0), s1(42, 1);
  EXPECT_NE(s0.u64(7), s1.u64(7));
}

TEST(CounterRng, UniformMean) {
  CounterRng rng(77, 0);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(i);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

// --- crc32 -------------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // CRC32 of "123456789" is the canonical check value 0xCBF43926.
  const char* data = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<unsigned char> data(256);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<unsigned char>(i);
  const auto original = crc32(data.data(), data.size());
  data[100] ^= 0x01;
  EXPECT_NE(crc32(data.data(), data.size()), original);
}

// --- morton -------------------------------------------------------------------

TEST(Morton, RoundTripsRandomCoordinates) {
  SplitMix64 rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto x = static_cast<std::uint32_t>(rng.next_bounded(1u << 21));
    const auto y = static_cast<std::uint32_t>(rng.next_bounded(1u << 21));
    const auto z = static_cast<std::uint32_t>(rng.next_bounded(1u << 21));
    std::uint32_t rx, ry, rz;
    morton3d_decode(morton3d(x, y, z), rx, ry, rz);
    ASSERT_EQ(rx, x);
    ASSERT_EQ(ry, y);
    ASSERT_EQ(rz, z);
  }
}

TEST(Morton, PreservesLocalityOrdering) {
  // A point and its +1 neighbor differ by less than points far apart.
  const auto near_a = morton3d(100, 100, 100);
  const auto near_b = morton3d(101, 100, 100);
  const auto far_c = morton3d(100000, 100000, 100000);
  EXPECT_LT(near_b - near_a, far_c - near_a);
}

TEST(Morton, Quantize21WrapsPeriodically) {
  EXPECT_EQ(quantize21(0.0, 1.0), 0u);
  EXPECT_EQ(quantize21(1.0, 1.0), 0u);   // periodic wrap
  EXPECT_EQ(quantize21(-0.25, 1.0), quantize21(0.75, 1.0));
  EXPECT_EQ(quantize21(0.5, 1.0), (1u << 20));
}

// --- histogram -------------------------------------------------------------------

TEST(Histogram, CountsAndMoments) {
  Histogram hist(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) hist.add(i + 0.5);
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_DOUBLE_EQ(hist.mean(), 5.0);
  for (std::size_t b = 0; b < 10; ++b) EXPECT_EQ(hist.bin_count(b), 1u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram hist(0.0, 1.0, 4);
  hist.add(-5.0);
  hist.add(5.0);
  EXPECT_EQ(hist.bin_count(0), 1u);
  EXPECT_EQ(hist.bin_count(3), 1u);
  EXPECT_DOUBLE_EQ(hist.min(), -5.0);
  EXPECT_DOUBLE_EQ(hist.max(), 5.0);
}

TEST(Histogram, PercentileInterpolates) {
  Histogram hist(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) hist.add(i + 0.5);
  EXPECT_NEAR(hist.percentile(0.5), 50.0, 1.5);
  EXPECT_NEAR(hist.percentile(0.9), 90.0, 1.5);
}

TEST(Histogram, AsciiRenderHasOneRowPerBin) {
  Histogram hist(0.0, 1.0, 5);
  hist.add(0.1);
  const auto text = hist.ascii();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
}

}  // namespace
}  // namespace crkhacc
