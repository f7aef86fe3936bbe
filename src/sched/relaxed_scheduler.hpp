// MultiQueue-style k-relaxed priority draw (Alistarh et al., PAPERS.md):
// c·lanes sequential min-heaps; pushes land on a PRF-chosen heap, each pop
// compares the tops of two randomly chosen heaps and takes the better one.
// The draw is near-priority-ordered with a probabilistically bounded rank
// error (O(queues) in expectation), which is enough for the ordered apps
// (sssp, boruvka) to keep their work-efficiency without a global heap's
// contention — and without kPriority's single-mutex draw.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "sched/scheduler.hpp"
#include "support/padded.hpp"

namespace optipar::sched {

class RelaxedScheduler final : public Scheduler {
 public:
  RelaxedScheduler(std::uint64_t seed, std::size_t shard_count,
                   std::size_t queues_per_lane);

  [[nodiscard]] Backend backend() const noexcept override {
    return Backend::kRelaxed;
  }
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] bool centralized() const noexcept override { return true; }
  [[nodiscard]] std::size_t queue_count() const noexcept { return nqueues_; }

  void push(std::span<const TaskId> tasks) override;
  void requeue(std::span<const TaskId> tasks) override;
  void splice(std::size_t lane, std::span<const TaskId> tasks) override;

  std::size_t begin_round(std::size_t m, std::vector<TaskId>& active,
                          Rng& rng) override;

  void save_state(snapshot::Writer& out) const override;
  void load_state(snapshot::Reader& in) override;

 private:
  using Item = std::pair<std::uint64_t, TaskId>;  // (priority, task)

  /// One sequential min-heap. The backing vector is kept in std heap
  /// layout so snapshots can store/restore the raw array order verbatim.
  struct alignas(kCacheLine) Queue {
    mutable std::mutex mutex;
    std::vector<Item> heap;
  };

  /// PRF over the global push counter: which heap the next push lands on.
  /// Counter-keyed (not rng-keyed) so single-lane placement is a pure
  /// function of the push sequence and replays across kill-and-resume.
  [[nodiscard]] std::size_t place(std::uint64_t ticket) const;
  void push_one(Queue& q, std::uint64_t prio, TaskId task);
  /// Pop the better top of heaps i and j (either may be empty).
  [[nodiscard]] TaskId pop_best(std::size_t i, std::size_t j);

  std::uint64_t seed_;
  std::size_t nqueues_;
  std::unique_ptr<Queue[]> queues_;
  std::atomic<std::uint64_t> push_counter_{0};
};

}  // namespace optipar::sched
