// Tests for common/: RNG, strings, timers, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace hyscale {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.bounded(bound), bound);
  }
}

TEST(Rng, BoundedOneIsAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespected) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Xoshiro256 rng(17);
  constexpr int kN = 20000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.08);
}

TEST(Rng, JumpDecorrelatesStreams) {
  Xoshiro256 a(5);
  Xoshiro256 b(5);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Strutil, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
  EXPECT_EQ(format_double(-2.5, 1), "-2.5");
}

TEST(Strutil, FormatBytes) {
  EXPECT_EQ(format_bytes(512.0), "512.0 B");
  EXPECT_EQ(format_bytes(2048.0), "2.0 KB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.5 MB");
}

TEST(Strutil, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1615685872ULL), "1,615,685,872");
}

TEST(Strutil, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");
}

TEST(Strutil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(Timer, AccumulatorSumsIntervals) {
  Accumulator acc;
  acc.add(1.5);
  acc.add(2.5);
  EXPECT_DOUBLE_EQ(acc.total(), 4.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_EQ(acc.count(), 2);
  acc.reset();
  EXPECT_DOUBLE_EQ(acc.total(), 0.0);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadPoolStillRuns) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    counter += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelForSumMatchesSerial) {
  std::vector<long> values(10000);
  std::iota(values.begin(), values.end(), 0L);
  std::atomic<long> sum{0};
  parallel_for(0, values.size(), [&](std::size_t lo, std::size_t hi) {
    long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += values[i];
    sum += local;
  });
  EXPECT_EQ(sum.load(), 10000L * 9999L / 2);
}

TEST(ThreadPool, ConcurrentParallelForCallersShareOnePool) {
  // Regression: parallel_for's completion latch lives on the caller's
  // stack.  A pool thread that signalled it after unlocking could touch
  // it after the caller had returned and reused that stack, which
  // crashed or hung callers that share a pool under load.
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kCallsPerCaller = 2000;
  std::atomic<long> covered{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        pool.parallel_for(0, 16, [&](std::size_t lo, std::size_t hi) {
          covered.fetch_add(static_cast<long>(hi - lo), std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(covered.load(), 16L * kCallers * kCallsPerCaller);
}

}  // namespace
}  // namespace hyscale
