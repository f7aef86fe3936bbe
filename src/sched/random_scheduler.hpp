// The paper's scheduler, extracted behind the Scheduler interface: per-lane
// sharded worklists with a uniform random draw (kRandom), plus the
// kFifo/kLifo ablation policies and the centralized OBIM-style soft
// priority heap (kPriority). The draw/requeue byte sequence at one lane is
// identical to the pre-extraction executor — the determinism contract the
// golden-trace tests pin.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <queue>
#include <utility>

#include "sched/scheduler.hpp"
#include "support/padded.hpp"

namespace optipar::sched {

class RandomScheduler final : public Scheduler {
 public:
  RandomScheduler(WorklistPolicy policy, std::size_t shard_count);

  [[nodiscard]] Backend backend() const noexcept override {
    return Backend::kRandom;
  }
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] bool centralized() const noexcept override {
    return policy_ == WorklistPolicy::kPriority;
  }

  void push(std::span<const TaskId> tasks) override;
  void requeue(std::span<const TaskId> tasks) override;
  void splice(std::size_t lane, std::span<const TaskId> tasks) override;

  std::size_t begin_round(std::size_t m, std::vector<TaskId>& active,
                          Rng& rng) override;
  void draw_span(std::size_t lane, Rng& rng, TaskId* out,
                 std::size_t n) override;

  void save_state(snapshot::Writer& out) const override;
  void load_state(snapshot::Reader& in) override;

 private:
  /// One per-lane slice of the work-set. Shard 0 with a single lane
  /// replays the centralized worklist exactly: the FIFO cursor (head),
  /// LIFO tail, and random swap-remove all operate per shard.
  struct alignas(kCacheLine) Shard {
    mutable std::mutex mutex;
    std::vector<TaskId> tasks;
    std::size_t head = 0;  // consumed FIFO prefix, compacted periodically
  };

  /// Pop one task from shard `s` per the draw policy (shard mutex held).
  TaskId pop_from(Shard& s, Rng& rng);
  /// Steal one task, scanning shards round-robin from `lane`'s own.
  TaskId steal_one(std::size_t lane, Rng& rng);

  WorklistPolicy policy_;
  std::size_t shard_count_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::size_t> push_cursor_{0};  // round-robin initial placement

  // Centralized priority scheduler (kPriority only), CP.50-guarded.
  mutable std::mutex worklist_mutex_;
  using PrioritizedTask = std::pair<std::uint64_t, TaskId>;
  std::priority_queue<PrioritizedTask, std::vector<PrioritizedTask>,
                      std::greater<>>
      priority_heap_;
};

}  // namespace optipar::sched
