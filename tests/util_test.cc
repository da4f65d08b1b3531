// Tests for util/: Status, Rng determinism and distributions, ThreadPool and
// ParallelFor correctness, env parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/batching_queue.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace usp {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
}

TEST(StatusTest, AllConstructorsSetMatchingCode) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValueWhenOk) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
}

TEST(StatusOrTest, HoldsStatusWhenFailed) {
  StatusOr<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<uint32_t> values(100);
  std::iota(values.begin(), values.end(), 0u);
  rng.Shuffle(&values);
  std::vector<uint32_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(5);
  const auto sample = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (uint32_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleFullRangeIsPermutation) {
  Rng rng(6);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(17);
  Rng child = parent.Fork();
  // The child should not replay the parent's stream.
  Rng parent_copy(17);
  parent_copy.Next();  // advance as Fork did
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.Next() == parent_copy.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> touched(1000);
  ParallelFor(1000, 16, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(0, 1, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SmallCountRunsInline) {
  std::vector<int> touched(3, 0);
  ParallelFor(3, 100, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) touched[i] += 1;
  });
  EXPECT_EQ(touched, (std::vector<int>{1, 1, 1}));
}

TEST(BatchingQueueTest, PopBatchTakesWhatIsQueuedInFifoOrder) {
  BatchingQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.Push(i));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 3), 3u);  // stops at width
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  // Width 10 with 2 queued returns the 2 at once instead of waiting for more.
  EXPECT_EQ(queue.PopBatch(out, 10), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));  // appended
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BatchingQueueTest, CloseDeliversRemainingThenReturnsZero) {
  BatchingQueue<int> queue(8);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(queue.Push(i));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.Push(9));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 2), 2u);
  EXPECT_EQ(queue.PopBatch(out, 2), 1u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.PopBatch(out, 2), 0u);
  queue.Close();  // idempotent
  EXPECT_EQ(queue.PopBatch(out, 2), 0u);
}

TEST(BatchingQueueTest, TryPushFailsWhenFullOrClosed) {
  BatchingQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(0));
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_FALSE(queue.TryPush(2));  // full
  std::vector<int> out;
  ASSERT_EQ(queue.PopBatch(out, 1), 1u);
  EXPECT_TRUE(queue.TryPush(3));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(4));  // closed, though there is room
  out.clear();
  EXPECT_EQ(queue.PopBatch(out, 8), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 3}));
}

TEST(BatchingQueueTest, BlockedPushResumesAfterPop) {
  BatchingQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(0));
  std::atomic<bool> returned{false};
  bool pushed = false;
  std::thread producer([&] {
    pushed = queue.Push(1);  // full: blocks until the pop below
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 1), 1u);
  producer.join();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(queue.PopBatch(out, 1), 1u);
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
}

TEST(BatchingQueueTest, BlockedPushFailsWhenClosedFirst) {
  BatchingQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(0));
  std::atomic<bool> returned{false};
  bool pushed = true;
  std::thread producer([&] {
    pushed = queue.Push(1);  // full: blocks until Close
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  queue.Close();
  producer.join();
  EXPECT_FALSE(pushed);
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(out, 4), 1u);  // the item queued before Close
  EXPECT_EQ(out, (std::vector<int>{0}));
  EXPECT_EQ(queue.PopBatch(out, 4), 0u);
}

TEST(EnvTest, IntParsesAndDefaults) {
  ::setenv("USP_TEST_INT", "123", 1);
  EXPECT_EQ(EnvInt("USP_TEST_INT", 0), 123);
  EXPECT_EQ(EnvInt("USP_TEST_MISSING_INT", 77), 77);
  ::setenv("USP_TEST_BAD_INT", "abc", 1);
  EXPECT_EQ(EnvInt("USP_TEST_BAD_INT", 5), 5);
}

TEST(EnvTest, DoubleParsesAndDefaults) {
  ::setenv("USP_TEST_DOUBLE", "2.5", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("USP_TEST_DOUBLE", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(EnvDouble("USP_TEST_MISSING_DOUBLE", 1.5), 1.5);
}

TEST(EnvTest, StringDefaults) {
  ::setenv("USP_TEST_STR", "hello", 1);
  EXPECT_EQ(EnvString("USP_TEST_STR", "x"), "hello");
  EXPECT_EQ(EnvString("USP_TEST_MISSING_STR", "fallback"), "fallback");
}

TEST(EnvTest, EmptyValueFallsBackToDefault) {
  // Empty strings are treated as unset across all three parsers (common with
  // `VAR= ./binary` launcher lines).
  ::setenv("USP_TEST_EMPTY", "", 1);
  EXPECT_EQ(EnvInt("USP_TEST_EMPTY", 42), 42);
  EXPECT_DOUBLE_EQ(EnvDouble("USP_TEST_EMPTY", 2.5), 2.5);
  EXPECT_EQ(EnvString("USP_TEST_EMPTY", "dflt"), "dflt");
}

TEST(EnvTest, UnparsableDoubleFallsBackToDefault) {
  ::setenv("USP_TEST_BAD_DOUBLE", "not-a-number", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("USP_TEST_BAD_DOUBLE", 3.25), 3.25);
}

TEST(EnvTest, PartialParseTakesLeadingNumber) {
  // strtoll/strtod semantics: the numeric prefix wins. This is the behavior
  // benchmark launch scripts rely on for values like "8 # nprobe".
  ::setenv("USP_TEST_PARTIAL_INT", "8 # comment", 1);
  EXPECT_EQ(EnvInt("USP_TEST_PARTIAL_INT", 0), 8);
  ::setenv("USP_TEST_PARTIAL_DOUBLE", "1.5x", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("USP_TEST_PARTIAL_DOUBLE", 0.0), 1.5);
}

TEST(EnvTest, NegativeValuesParse) {
  ::setenv("USP_TEST_NEG_INT", "-17", 1);
  EXPECT_EQ(EnvInt("USP_TEST_NEG_INT", 0), -17);
  ::setenv("USP_TEST_NEG_DOUBLE", "-0.125", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("USP_TEST_NEG_DOUBLE", 0.0), -0.125);
}

}  // namespace
}  // namespace usp
