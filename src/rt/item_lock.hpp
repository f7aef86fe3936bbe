// Abstract item locks — the conflict-detection mechanism of optimistic
// parallelization (Galois-style). Every shared datum an iteration touches
// is registered under an item id; the first iteration to acquire an item
// owns it for the round, and any later iteration that needs it aborts
// itself (abort-self arbitration: deadlock-free because no task ever
// waits). Owners are packed 4 bytes apiece (DESIGN.md §7, "Lock table"):
// padding each to its own cache line measured no faster end to end and
// made every table 16x larger.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace optipar {

class LockManager {
 public:
  static constexpr std::uint32_t kFree = UINT32_MAX;

  explicit LockManager(std::size_t items);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Allocated slots (>= size()). Growth reallocates only past this, to
  /// at least double it, so N single-item grows cost O(N) in total.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Grow to cover at least `items` items. NOT safe concurrently with
  /// acquire/release; the executor only grows between rounds.
  void grow(std::size_t items);

  /// Try to take `item` for iteration `iter`. Succeeds if free or already
  /// owned by `iter` (re-entrant). Returns false on conflict.
  [[nodiscard]] bool try_acquire(std::uint32_t item, std::uint32_t iter);

  /// Current owner (kFree if unowned). For assertions and tests.
  [[nodiscard]] std::uint32_t owner(std::uint32_t item) const;

  /// Release one item owned by `iter` (asserts ownership in debug builds).
  void release(std::uint32_t item, std::uint32_t iter);

  // --- single-lane fast-path variants (DESIGN.md §12) ---------------------
  // Same ownership semantics and bounds checks as try_acquire/release, but
  // relaxed loads/plain stores instead of a CAS and a release fence. Legal
  // ONLY while exactly one thread touches the table (the executor's serial
  // round path); mixing them with concurrent acquires is a data race by
  // construction. Inline: the serial round calls these per held item.

  [[nodiscard]] bool try_acquire_relaxed(std::uint32_t item,
                                         std::uint32_t iter) {
    if (item >= size_) {
      throw std::out_of_range("LockManager::try_acquire: unknown item");
    }
    auto& owner = owners_[item];
    const std::uint32_t cur = owner.load(std::memory_order_relaxed);
    if (cur == kFree) {
      owner.store(iter, std::memory_order_relaxed);
      return true;
    }
    if (cur == iter) return true;  // re-entrant acquire
    if (contention_ != nullptr) {
      contention_->fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  void release_relaxed(std::uint32_t item, std::uint32_t iter) {
    if (item >= size_) {
      throw std::out_of_range("LockManager::release: unknown item");
    }
    auto& owner = owners_[item];
    assert(owner.load(std::memory_order_relaxed) == iter &&
           "releasing an item not owned by this iteration");
    (void)iter;
    owner.store(kFree, std::memory_order_relaxed);
  }

  /// True iff no item is owned — the executor checks this between rounds.
  [[nodiscard]] bool all_free() const;

  /// Number of currently owned items — failure-path diagnostic (a leaked
  /// lock after a salvaged round shows up here before all_free() trips an
  /// assert in release builds where asserts are compiled out).
  [[nodiscard]] std::size_t owned_count() const;

  /// Telemetry hook (DESIGN.md §10): count every failed (conflicting)
  /// try_acquire into `counter`. nullptr (the default) detaches — the
  /// fast path then pays one predictable branch on the FAILED acquire
  /// only, never on the success path. Not safe to swap mid-round.
  void set_contention_counter(std::atomic<std::uint64_t>* counter) noexcept {
    contention_ = counter;
  }

 private:
  // Atomics are neither copyable nor movable, so reallocation re-creates
  // the array and copies the raw values — safe because grow() is only legal
  // between rounds, when no acquire/release is in flight. Slots in
  // [size_, capacity_) are kFree from allocation on and never touched until
  // a grow() brings them into range.
  std::unique_ptr<std::atomic<std::uint32_t>[]> owners_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::atomic<std::uint64_t>* contention_ = nullptr;  // non-owning
};

}  // namespace optipar
