// Thread-pool tests (single- and multi-thread paths), including exception
// propagation and misuse detection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <new>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

#include "bgp/threadpool.hpp"
#include "obs/registry.hpp"

namespace {

TEST(ThreadPoolTest, RunsOnExactlyTheRequestedThreadCount) {
  // ThreadPool(4) spawns three workers; the calling thread is the fourth.
  // Bodies wait until four distinct threads have entered, so the batch
  // only fills every slot if the pool runs four threads (the timeout turns
  // a smaller pool into a failure instead of a hang).
  bgp::ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 4u);
  std::mutex mutex;
  std::condition_variable all_in;
  std::set<std::thread::id> threads;
  std::set<unsigned> slots;
  pool.parallel_for_worker(4, [&](unsigned slot, std::size_t) {
    std::unique_lock lock(mutex);
    EXPECT_LT(slot, pool.size());
    threads.insert(std::this_thread::get_id());
    slots.insert(slot);
    all_in.notify_all();
    all_in.wait_for(lock, std::chrono::seconds(10),
                    [&] { return threads.size() >= 4; });
  });
  EXPECT_EQ(threads.size(), 4u);
  EXPECT_EQ(slots, (std::set<unsigned>{0, 1, 2, 3}));
  EXPECT_TRUE(threads.count(std::this_thread::get_id()));

  // Across many batches, no fifth thread or slot ever shows up.
  pool.parallel_for_worker(1000, [&](unsigned slot, std::size_t) {
    std::lock_guard lock(mutex);
    EXPECT_LT(slot, pool.size());
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(threads.size(), 4u);
}

TEST(ThreadPoolTest, SingleThreadPoolHasOneSlot) {
  bgp::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for_worker(3, [&](unsigned slot, std::size_t) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  bgp::ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, AllIndicesProcessedExactlyOnce) {
  bgp::ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  bgp::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  bgp::ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<long>(i); });
  }
  EXPECT_EQ(sum.load(), 10 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, DefaultSizeAtLeastOne) {
  bgp::ThreadPool pool;
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, BodyExceptionPropagatesToCaller) {
  bgp::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionMessageIsPreserved) {
  bgp::ThreadPool pool(2);
  try {
    pool.parallel_for(10, [&](std::size_t i) {
      if (i == 3) throw std::runtime_error("index 3 failed");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3 failed");
  }
}

TEST(ThreadPoolTest, SingleThreadExceptionPropagates) {
  // The inline (no workers) path must behave the same as the pooled one.
  bgp::ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   5, [&](std::size_t i) {
                     if (i == 2) throw std::runtime_error("inline boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PoolReusableAfterException) {
  bgp::ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.parallel_for(50,
                          [&](std::size_t i) {
                            if (i % 7 == 3) throw std::runtime_error("again");
                          }),
        std::runtime_error);
    std::atomic<int> count{0};
    pool.parallel_for(50, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPoolTest, AllBodiesThrowingYieldsOneException) {
  bgp::ThreadPool pool(4);
  std::atomic<int> thrown{0};
  int caught = 0;
  try {
    pool.parallel_for(64, [&](std::size_t) {
      thrown++;
      throw std::runtime_error("every index throws");
    });
  } catch (const std::runtime_error&) {
    caught++;
  }
  EXPECT_EQ(caught, 1);
  // The failing batch is abandoned after the first error, so not every
  // index need run -- but at least one did.
  EXPECT_GE(thrown.load(), 1);
  EXPECT_LE(thrown.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForOnSamePoolIsRejected) {
  bgp::ThreadPool pool(2);
  std::atomic<int> misuse{0};
  pool.parallel_for(4, [&](std::size_t) {
    try {
      pool.parallel_for(2, [](std::size_t) {});
    } catch (const std::logic_error&) {
      misuse++;
    }
  });
  EXPECT_EQ(misuse.load(), 4);
}

TEST(ThreadPoolTest, NestedParallelForOnOtherPoolIsAllowed) {
  bgp::ThreadPool outer(2);
  bgp::ThreadPool inner(1);  // inline execution, safe to call from workers
  std::atomic<int> count{0};
  outer.parallel_for(4, [&](std::size_t) {
    inner.parallel_for(8, [&](std::size_t) { count++; });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesFromParallelForWorker) {
  bgp::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for_worker(100,
                               [&](unsigned, std::size_t i) {
                                 if (i == 41)
                                   throw std::runtime_error("worker boom");
                               }),
      std::runtime_error);
  // The pool is not poisoned: the next worker batch runs to completion.
  std::atomic<int> count{0};
  pool.parallel_for_worker(64, [&](unsigned, std::size_t) { count++; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, WorkerExceptionDoesNotDeadlockShardMerge) {
  // The refine sweep's shape: per-worker metric shards merged by ShardGroup
  // after the batch barrier.  A body throwing mid-batch must neither
  // deadlock the barrier nor corrupt the merge of the work that did finish.
  bgp::ThreadPool pool(4);
  obs::Registry registry;
  const obs::CounterId done = registry.counter("test.done");
  std::atomic<std::uint64_t> completed{0};
  try {
    obs::ShardGroup shards(registry, pool.size());
    pool.parallel_for_worker(200, [&](unsigned worker, std::size_t i) {
      if (i == 97) throw std::runtime_error("mid-sweep fault");
      shards.shard(worker).add(done, 1);
      completed++;
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "mid-sweep fault");
  }
  // ~ShardGroup ran inside the try: every increment a worker completed
  // before the fault was merged exactly once.
  EXPECT_EQ(registry.value(done), completed.load());

  // And the pool + a fresh ShardGroup still work for the next sweep.
  {
    obs::ShardGroup shards(registry, pool.size());
    pool.parallel_for_worker(50, [&](unsigned worker, std::size_t) {
      shards.shard(worker).add(done, 1);
    });
  }
  EXPECT_EQ(registry.value(done), completed.load() + 50);
}

TEST(ThreadPoolTest, BadAllocPropagatesLikeAnyException) {
  bgp::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::bad_alloc();
                                 }),
               std::bad_alloc);
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ContentionStress) {
  // Many small batches back to back; primarily a TSan target for the
  // batch-handoff and completion-signalling paths.
  bgp::ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(16, [&](std::size_t i) { sum += static_cast<long>(i); });
  }
  EXPECT_EQ(sum.load(), 200L * (15 * 16 / 2));
}

}  // namespace
