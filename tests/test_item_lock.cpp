#include "rt/item_lock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "support/thread_pool.hpp"

namespace optipar {
namespace {

TEST(LockManager, StartsAllFree) {
  LockManager lm(8);
  EXPECT_EQ(lm.size(), 8u);
  EXPECT_TRUE(lm.all_free());
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(lm.owner(i), LockManager::kFree);
  }
}

TEST(LockManager, AcquireReleaseCycle) {
  LockManager lm(4);
  EXPECT_TRUE(lm.try_acquire(2, 7));
  EXPECT_EQ(lm.owner(2), 7u);
  EXPECT_FALSE(lm.all_free());
  lm.release(2, 7);
  EXPECT_TRUE(lm.all_free());
}

TEST(LockManager, ConflictingAcquireFails) {
  LockManager lm(4);
  EXPECT_TRUE(lm.try_acquire(1, 10));
  EXPECT_FALSE(lm.try_acquire(1, 11));
  EXPECT_EQ(lm.owner(1), 10u);
}

TEST(LockManager, ReentrantAcquireSucceeds) {
  LockManager lm(4);
  EXPECT_TRUE(lm.try_acquire(1, 10));
  EXPECT_TRUE(lm.try_acquire(1, 10));
  lm.release(1, 10);
  EXPECT_TRUE(lm.all_free());
}

TEST(LockManager, OutOfRangeThrows) {
  LockManager lm(4);
  EXPECT_THROW((void)lm.try_acquire(4, 0), std::out_of_range);
  EXPECT_THROW((void)lm.owner(9), std::out_of_range);
  EXPECT_THROW((void)lm.release(9, 0), std::out_of_range);
}

TEST(LockManager, GrowPreservesOwnersAndFreesNewSlots) {
  LockManager lm(2);
  ASSERT_TRUE(lm.try_acquire(0, 5));
  lm.grow(10);
  EXPECT_EQ(lm.size(), 10u);
  EXPECT_EQ(lm.owner(0), 5u);
  for (std::uint32_t i = 2; i < 10; ++i) {
    EXPECT_EQ(lm.owner(i), LockManager::kFree);
  }
  lm.grow(3);  // shrink request is a no-op
  EXPECT_EQ(lm.size(), 10u);
}

TEST(LockManager, SingleItemGrowsKeepOwnersAndReallocateLogarithmically) {
  // DMR grows the table by a few items before every round; each grow must
  // not copy the whole table.
  constexpr std::uint32_t kN = 10000;
  LockManager lm(0);
  std::size_t reallocations = 0;
  std::size_t last_capacity = lm.capacity();
  for (std::uint32_t item = 0; item < kN; ++item) {
    lm.grow(item + 1);
    ASSERT_EQ(lm.size(), item + 1u);
    ASSERT_GE(lm.capacity(), lm.size());
    if (lm.capacity() != last_capacity) {
      ++reallocations;
      last_capacity = lm.capacity();
    }
    ASSERT_TRUE(lm.try_acquire(item, item));
  }
  // ceil(log2(1e4)) + 1 = 15.
  EXPECT_LE(reallocations, 15u);
  for (std::uint32_t item = 0; item < kN; ++item) {
    ASSERT_EQ(lm.owner(item), item) << "item " << item;
  }
  EXPECT_EQ(lm.owned_count(), kN);
}

TEST(LockManager, SlotsPastSizeStayOutOfRange) {
  LockManager lm(0);
  lm.grow(5);
  lm.grow(6);  // reallocates to capacity 10
  ASSERT_EQ(lm.size(), 6u);
  ASSERT_GT(lm.capacity(), lm.size());
  const auto past = static_cast<std::uint32_t>(lm.size());
  const auto last = static_cast<std::uint32_t>(lm.capacity() - 1);
  for (const std::uint32_t item : {past, last}) {
    EXPECT_THROW((void)lm.try_acquire(item, 0), std::out_of_range);
    EXPECT_THROW((void)lm.try_acquire_relaxed(item, 0), std::out_of_range);
    EXPECT_THROW((void)lm.owner(item), std::out_of_range);
    EXPECT_THROW(lm.release(item, 0), std::out_of_range);
    EXPECT_THROW(lm.release_relaxed(item, 0), std::out_of_range);
  }
  lm.grow(past + 1);  // no reallocation: the slot comes into range free
  EXPECT_EQ(lm.owner(past), LockManager::kFree);
  EXPECT_TRUE(lm.all_free());
}

TEST(LockManager, ExactlyOneWinnerUnderContention) {
  LockManager lm(1);
  ThreadPool pool(4);
  std::atomic<int> winners{0};
  pool.run_on_workers(4, [&](std::size_t lane) {
    if (lm.try_acquire(0, static_cast<std::uint32_t>(lane))) {
      winners.fetch_add(1);
    }
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_NE(lm.owner(0), LockManager::kFree);
}

TEST(LockManager, ManyItemsManyThreadsDisjointAcquires) {
  constexpr std::size_t kItems = 256;
  LockManager lm(kItems);
  ThreadPool pool(4);
  pool.parallel_for(kItems, [&](std::size_t i) {
    ASSERT_TRUE(lm.try_acquire(static_cast<std::uint32_t>(i),
                               static_cast<std::uint32_t>(i * 2 + 1)));
  });
  EXPECT_FALSE(lm.all_free());
  pool.parallel_for(kItems, [&](std::size_t i) {
    lm.release(static_cast<std::uint32_t>(i),
               static_cast<std::uint32_t>(i * 2 + 1));
  });
  EXPECT_TRUE(lm.all_free());
}

}  // namespace
}  // namespace optipar
