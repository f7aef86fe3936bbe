#include "rt/item_lock.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace optipar {

LockManager::LockManager(std::size_t items) { grow(items); }

void LockManager::grow(std::size_t items) {
  if (items <= size_) return;
  if (items > capacity_) {
    const std::size_t cap = std::max(items, 2 * capacity_);
    auto fresh = std::make_unique<std::atomic<std::uint32_t>[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      fresh[i].store(owners_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    for (std::size_t i = size_; i < cap; ++i) {
      fresh[i].store(kFree, std::memory_order_relaxed);
    }
    owners_ = std::move(fresh);
    capacity_ = cap;
  }
  size_ = items;
}

bool LockManager::try_acquire(std::uint32_t item, std::uint32_t iter) {
  if (item >= size_) {
    throw std::out_of_range("LockManager::try_acquire: unknown item");
  }
  auto& owner = owners_[item];
  std::uint32_t expected = kFree;
  if (owner.compare_exchange_strong(expected, iter,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
    return true;
  }
  if (expected == iter) return true;  // re-entrant acquire
  if (contention_ != nullptr) {
    contention_->fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

std::uint32_t LockManager::owner(std::uint32_t item) const {
  if (item >= size_) {
    throw std::out_of_range("LockManager::owner: unknown item");
  }
  return owners_[item].load(std::memory_order_acquire);
}

void LockManager::release(std::uint32_t item, std::uint32_t iter) {
  if (item >= size_) {
    throw std::out_of_range("LockManager::release: unknown item");
  }
  auto& owner = owners_[item];
  assert(owner.load(std::memory_order_relaxed) == iter &&
         "releasing an item not owned by this iteration");
  (void)iter;
  owner.store(kFree, std::memory_order_release);
}

std::size_t LockManager::owned_count() const {
  std::size_t owned = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (owners_[i].load(std::memory_order_acquire) != kFree) ++owned;
  }
  return owned;
}

bool LockManager::all_free() const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (owners_[i].load(std::memory_order_acquire) != kFree) {
      return false;
    }
  }
  return true;
}

}  // namespace optipar
