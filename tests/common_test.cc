// Copyright 2026 The SemTree Authors
//
// Unit tests for src/common: Status/Result, Rng, string utilities,
// Mutex wrappers, ThreadPool, Stopwatch.

#include <atomic>
#include <future>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace semtree {
namespace {

// ---------------------------------------------------------------------
// Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_FALSE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
}

Status FailsWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnNotOk(int x) {
  SEMTREE_RETURN_NOT_OK(FailsWhenNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(UsesReturnNotOk(1).ok());
  EXPECT_TRUE(UsesReturnNotOk(-1).IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Result

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 41);
  EXPECT_EQ(r.value_or(7), 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  SEMTREE_ASSIGN_OR_RETURN(int half, HalfOf(x));
  return HalfOf(half);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = QuarterOf(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(QuarterOf(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(QuarterOf(7).ok());
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------------
// Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(29);
  const int n = 20000;
  int rank0 = 0, rank9 = 0;
  for (int i = 0; i < n; ++i) {
    uint64_t r = rng.Zipf(10, 1.0);
    EXPECT_LT(r, 10u);
    rank0 += (r == 0);
    rank9 += (r == 9);
  }
  EXPECT_GT(rank0, 4 * rank9);
}

TEST(RngTest, IdentifierLengthAndAlphabet) {
  Rng rng(31);
  std::string id = rng.Identifier(12);
  EXPECT_EQ(id.size(), 12u);
  for (char c : id) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

// ---------------------------------------------------------------------
// String utilities

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  alpha\t beta\n gamma  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "alpha");
  EXPECT_EQ(parts[2], "gamma");
}

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, CaseAndAffixes) {
  EXPECT_EQ(ToLower("AbC-1"), "abc-1");
  EXPECT_TRUE(StartsWith("semtree", "sem"));
  EXPECT_FALSE(StartsWith("sem", "semtree"));
  EXPECT_TRUE(EndsWith("semtree", "tree"));
  EXPECT_FALSE(EndsWith("tree", "semtree"));
}

TEST(StringUtilTest, StringPrintfFormats) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024ull * 1024ull), "3.0 MiB");
}

TEST(StringUtilTest, HumanCount) {
  EXPECT_EQ(HumanCount(7), "7");
  EXPECT_EQ(HumanCount(1234), "1,234");
  EXPECT_EQ(HumanCount(1234567), "1,234,567");
}

// ---------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, FuturesCarryResults) {
  ThreadPool pool(2);
  auto f1 = pool.Submit([]() { return 6 * 7; });
  auto f2 = pool.Submit([]() { return std::string("done"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "done");
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  auto f = pool.Submit([]() { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPoolTest, SubmitAfterShutdownReturnsBrokenFuture) {
  // Regression: Submit used to enqueue unconditionally, so a task
  // submitted after shutdown would never run and its future would
  // block forever. Now the task is dropped and the future reports
  // broken_promise instead of deadlocking.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 16);  // Shutdown drains the queue first.
  auto late = pool.Submit([&counter]() {
    counter.fetch_add(1);
    return 99;
  });
  EXPECT_EQ(counter.load(), 16);  // The late task never ran.
  try {
    (void)late.get();
    FAIL() << "expected broken_promise from a post-shutdown Submit";
  } catch (const std::future_error& e) {
    EXPECT_EQ(e.code(), std::future_errc::broken_promise);
  }
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(3);
  pool.Submit([]() {}).get();
  pool.Shutdown();
  pool.Shutdown();  // Second call must be a no-op, not a double join.
  auto f = pool.Submit([]() { return 1; });
  EXPECT_THROW((void)f.get(), std::future_error);
}

TEST(ThreadPoolTest, WaitIsIdempotentAndReusable) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  pool.Submit([&]() { counter.fetch_add(1); });
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&]() { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter]() { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, TryRunOneStealsQueuedWork) {
  // A pool whose single worker is parked on a long task still makes
  // progress when the caller steals from the queue directly.
  ThreadPool pool(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([&started, gate]() {
    started.set_value();
    gate.wait();
  });
  // Only enqueue stealable work once the worker is provably parked on
  // the gate — otherwise this thread could steal the gate task itself
  // and wait on a release that never comes.
  started.get_future().wait();
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  while (pool.TryRunOne()) {
  }
  EXPECT_EQ(counter.load(), 8);
  EXPECT_FALSE(pool.TryRunOne());  // Queue is empty now.
  release.set_value();
  pool.Wait();
}

TEST(ThreadPoolTest, TrySubmitRefusedAfterShutdown) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  EXPECT_TRUE(pool.TrySubmit([&counter]() { counter.fetch_add(1); }));
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 1);
  EXPECT_FALSE(pool.TrySubmit([&counter]() { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 1);
}

// ---------------------------------------------------------------------
// TaskGroup

TEST(TaskGroupTest, RunsInlineWithoutPool) {
  TaskGroup group(nullptr);
  int ran = 0;
  group.Run([&ran]() { ++ran; });
  EXPECT_EQ(ran, 1);  // Inline: done before Wait.
  group.Wait();
  EXPECT_EQ(ran, 1);
}

TEST(TaskGroupTest, NestedSubmissionOnSaturatedPoolCannotDeadlock) {
  // Regression for the parallel bulk builders: tasks recursively
  // submit subtasks from pool threads. With ONE worker, the root task
  // occupies it while its children sit in the queue — without the
  // stealing Wait this deadlocks. The group's Wait must drain the
  // queue itself.
  ThreadPool pool(1);
  TaskGroup group(&pool);
  std::atomic<int> leaves{0};
  // Recursive fan-out: each level spawns two children through the
  // same group; ~2^6 leaves in total.
  std::function<void(int)> spawn = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    group.Run([&spawn, depth]() { spawn(depth - 1); });
    group.Run([&spawn, depth]() { spawn(depth - 1); });
  };
  group.Run([&spawn]() { spawn(6); });
  group.Wait();
  EXPECT_EQ(leaves.load(), 64);
}

TEST(TaskGroupTest, WaitFromInsidePoolTaskDrainsByStealing) {
  // Even the root Run may come from a pool thread (nested build
  // inside a cluster handler). The waiter then IS the only worker.
  ThreadPool pool(1);
  std::atomic<int> done{0};
  auto outer = pool.Submit([&pool, &done]() {
    TaskGroup group(&pool);
    for (int i = 0; i < 16; ++i) {
      group.Run([&done]() { done.fetch_add(1); });
    }
    group.Wait();  // Must steal: the sole worker is this frame.
    return done.load();
  });
  EXPECT_EQ(outer.get(), 16);
}

TEST(TaskGroupTest, GroupMayBeDestroyedAsSoonAsWaitReturns) {
  // Regression: a finished task used to notify the group's condition
  // variable after releasing the group's mutex. A Wait woken by an
  // earlier completion could then return, and the next round's group
  // be built at the same address, under that notify: a crash or a
  // hang. FastMap training builds one group per pivot row.
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 20000; ++round) {
    TaskGroup group(&pool);
    for (int t = 0; t < 4; ++t) {
      group.Run([&sum]() {
        volatile long work = 0;  // Keeps the busy loop from folding.
        for (int i = 0; i < 5000; ++i) work = work + i;
        sum.fetch_add(work, std::memory_order_relaxed);
      });
    }
    // Let the workers take every task, so Wait sleeps and is woken by
    // a completion while the others are still finishing.
    std::this_thread::yield();
    group.Wait();
  }
  EXPECT_EQ(sum.load(), 20000L * 4 * (4999L * 5000 / 2));
}

TEST(TaskGroupTest, FallsBackInlineWhenPoolShutDown) {
  ThreadPool pool(2);
  pool.Shutdown();
  TaskGroup group(&pool);
  int ran = 0;
  group.Run([&ran]() { ++ran; });
  group.Wait();
  EXPECT_EQ(ran, 1);
}

// ---------------------------------------------------------------------
// Logging

TEST(LoggingTest, LevelGateIsHonoured) {
  LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages are swallowed; at-threshold emitted.
  // (No output capture here — the assertions cover the level state and
  // that emission does not crash from concurrent threads.)
  SEMTREE_LOG(Debug) << "suppressed " << 1;
  SEMTREE_LOG(Error) << "emitted " << 2;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([]() {
      for (int i = 0; i < 50; ++i) SEMTREE_LOG(Warning) << "w" << i;
    });
  }
  for (auto& th : threads) th.join();
  SetLogLevel(original);
}

// ---------------------------------------------------------------------
// Stopwatch

// ---------------------------------------------------------------------
// Mutex wrappers (common/mutex.h)
//
// These pin the RAII semantics the thread-safety annotations encode:
// MutexLock holds exclusively for its scope, SharedReaderLock admits
// other readers but no writer, and both release on destruction. The
// try-lock probes run on a *separate* thread because try-locking a
// mutex the calling thread already holds is undefined behavior.

namespace {
// Runs `fn` on a fresh thread and returns its result; the join makes
// the probe's answer visible before the expectation runs.
template <typename Fn>
auto OnOtherThread(Fn fn) -> decltype(fn()) {
  decltype(fn()) result{};
  std::thread t([&result, &fn]() { result = fn(); });
  t.join();
  return result;
}
}  // namespace

TEST(MutexTest, MutexLockHoldsExclusivelyForScope) {
  Mutex mu;
  {
    MutexLock lock(mu);
    EXPECT_FALSE(OnOtherThread([&mu]() NO_THREAD_SAFETY_ANALYSIS {
      if (!mu.TryLock()) return false;
      mu.Unlock();
      return true;
    }));
  }
  // Destroyed lock released the mutex.
  EXPECT_TRUE(OnOtherThread([&mu]() NO_THREAD_SAFETY_ANALYSIS {
    if (!mu.TryLock()) return false;
    mu.Unlock();
    return true;
  }));
}

TEST(MutexTest, SharedReaderLockAdmitsReadersExcludesWriters) {
  SharedMutex mu;
  {
    SharedReaderLock reader(mu);
    // A second reader gets in...
    EXPECT_TRUE(OnOtherThread([&mu]() NO_THREAD_SAFETY_ANALYSIS {
      if (!mu.TryLockShared()) return false;
      mu.UnlockShared();
      return true;
    }));
    // ...but a writer does not.
    EXPECT_FALSE(OnOtherThread([&mu]() NO_THREAD_SAFETY_ANALYSIS {
      if (!mu.TryLock()) return false;
      mu.Unlock();
      return true;
    }));
  }
  EXPECT_TRUE(OnOtherThread([&mu]() NO_THREAD_SAFETY_ANALYSIS {
    if (!mu.TryLock()) return false;
    mu.Unlock();
    return true;
  }));
}

TEST(MutexTest, SharedMutexLockExcludesReadersAndWriters) {
  SharedMutex mu;
  {
    SharedMutexLock writer(mu);
    EXPECT_FALSE(OnOtherThread([&mu]() NO_THREAD_SAFETY_ANALYSIS {
      if (!mu.TryLockShared()) return false;
      mu.UnlockShared();
      return true;
    }));
    EXPECT_FALSE(OnOtherThread([&mu]() NO_THREAD_SAFETY_ANALYSIS {
      if (!mu.TryLock()) return false;
      mu.Unlock();
      return true;
    }));
  }
  EXPECT_TRUE(OnOtherThread([&mu]() NO_THREAD_SAFETY_ANALYSIS {
    if (!mu.TryLockShared()) return false;
    mu.UnlockShared();
    return true;
  }));
}

TEST(MutexTest, MutexLockSerializesCriticalSections) {
  // Under TSan this is the canonical mutual-exclusion check: an
  // unguarded counter incremented by many threads through MutexLock
  // must come out exact (and race-free).
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 8, kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter]() NO_THREAD_SAFETY_ANALYSIS {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexTest, CondVarWaitReleasesAndReacquires) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&]() NO_THREAD_SAFETY_ANALYSIS {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
  });
  {
    // If Wait failed to release mu, this lock would deadlock.
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
}

// Negative-compile documentation: each of these bodies is a contract
// violation the clang CI leg (-Wthread-safety -Werror) rejects. They
// stay commented because the point of the annotations is that such
// code CANNOT build:
//
//   Mutex mu;
//   int value GUARDED_BY(mu);
//
//   void Bad1() { value = 1; }           // writing without the lock:
//       // error: writing variable 'value' requires holding mutex 'mu'
//       // exclusively [-Werror,-Wthread-safety-analysis]
//
//   void Bad2() { mu.Lock(); }           // return while still holding:
//       // error: mutex 'mu' is still held at the end of function
//
//   void Bad3() {
//     SharedReaderLock lock(shared_mu);
//     guarded_by_shared_mu = 1;          // writing under a READER lock:
//       // error: writing variable requires holding mutex exclusively
//   }

// ---------------------------------------------------------------------
// ThreadPool shutdown discipline (lock-discipline regression tests)

TEST(ThreadPoolTest, ConcurrentShutdownJoinsEachWorkerOnce) {
  // Regression: Shutdown used to join workers_ in place, so two
  // concurrent Shutdown calls could both join the same std::thread
  // (terminate) or race the vector. Now the vector is swapped out
  // under the lock and each caller reaps a disjoint set.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 16; ++i) {
      pool.TrySubmit([&done]() { done.fetch_add(1); });
    }
    std::vector<std::thread> closers;
    for (int t = 0; t < 3; ++t) {
      closers.emplace_back([&pool]() { pool.Shutdown(); });
    }
    for (std::thread& t : closers) t.join();
    EXPECT_EQ(done.load(), 16);  // Shutdown drains the queue.
    EXPECT_EQ(pool.num_threads(), 0u);
  }
}

TEST(ThreadPoolTest, NumThreadsIsSafeDuringShutdown) {
  // Regression: num_threads() used to read workers_.size() unlocked
  // while Shutdown cleared the vector on another thread.
  ThreadPool pool(4);
  ASSERT_EQ(pool.num_threads(), 4u);
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    while (!stop.load()) {
      size_t n = pool.num_threads();
      EXPECT_TRUE(n == 0 || n == 4) << n;
    }
  });
  pool.Shutdown();
  stop.store(true);
  reader.join();
  EXPECT_EQ(pool.num_threads(), 0u);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  double t0 = sw.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  // Busy-wait a hair so elapsed strictly grows.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  EXPECT_GE(sw.ElapsedSeconds(), t0);
  EXPECT_GE(sw.ElapsedNanos(), 0u);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  double before = sw.ElapsedSeconds();
  sw.Restart();
  EXPECT_LE(sw.ElapsedSeconds(), before + 1.0);
}

TEST(StopwatchTest, UnitConversionsConsistent) {
  Stopwatch sw;
  double s = sw.ElapsedSeconds();
  double ms = sw.ElapsedMillis();
  EXPECT_GE(ms, s * 1e3 * 0.5);  // Same order of magnitude.
}

}  // namespace
}  // namespace semtree
