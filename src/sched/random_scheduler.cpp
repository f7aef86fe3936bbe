#include "sched/random_scheduler.hpp"

#include <cassert>
#include <stdexcept>
#include <thread>

#include "support/snapshot/snapshot.hpp"

namespace optipar::sched {

RandomScheduler::RandomScheduler(WorklistPolicy policy,
                                 std::size_t shard_count)
    : policy_(policy),
      shard_count_(std::max<std::size_t>(1, shard_count)),
      shards_(std::make_unique<Shard[]>(shard_count_)) {}

std::size_t RandomScheduler::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::lock_guard guard(shards_[s].mutex);
    total += shards_[s].tasks.size() - shards_[s].head;
  }
  const std::lock_guard lock(worklist_mutex_);
  return total + priority_heap_.size();
}

void RandomScheduler::push(std::span<const TaskId> tasks) {
  if (policy_ == WorklistPolicy::kPriority) {
    const std::lock_guard lock(worklist_mutex_);
    if (!priority_fn_) {
      throw std::logic_error(
          "SpeculativeExecutor: kPriority requires set_priority_function");
    }
    for (const TaskId t : tasks) priority_heap_.emplace(priority_fn_(t), t);
    return;
  }
  if (shard_count_ == 1) {
    Shard& s = shards_[0];
    const std::lock_guard guard(s.mutex);
    s.tasks.insert(s.tasks.end(), tasks.begin(), tasks.end());
    return;
  }
  // Deal round-robin across shards, continuing where the last push left off
  // so repeated small pushes stay balanced.
  const std::size_t start =
      push_cursor_.fetch_add(tasks.size(), std::memory_order_relaxed) %
      shard_count_;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard guard(shard.mutex);
    for (std::size_t i = (s + shard_count_ - start) % shard_count_;
         i < tasks.size(); i += shard_count_) {
      shard.tasks.push_back(tasks[i]);
    }
  }
}

void RandomScheduler::requeue(std::span<const TaskId> tasks) {
  if (tasks.empty()) return;
  if (policy_ == WorklistPolicy::kPriority) {
    const std::lock_guard lock(worklist_mutex_);
    for (const TaskId t : tasks) {
      std::uint64_t prio = t;
      try {
        prio = priority_fn_(t);
      } catch (...) {
        // Degrade to id-priority, never drop a task; the error surfaces
        // through the executor's round-error channel.
        if (error_sink_) error_sink_();
      }
      priority_heap_.emplace(prio, t);
    }
    return;
  }
  Shard& s = shards_[0];
  const std::lock_guard guard(s.mutex);
  s.tasks.insert(s.tasks.end(), tasks.begin(), tasks.end());
}

void RandomScheduler::splice(std::size_t lane,
                             std::span<const TaskId> tasks) {
  if (tasks.empty()) return;
  if (policy_ == WorklistPolicy::kPriority) {
    // Re-evaluate priorities at (re)insertion time: the state a task's
    // priority derives from may have changed while it ran or waited. A
    // throwing priority function propagates (the epilogue records it as a
    // pool fault and the serial tail re-splices the buffer).
    const std::lock_guard lock(worklist_mutex_);
    for (const TaskId t : tasks) priority_heap_.emplace(priority_fn_(t), t);
    return;
  }
  Shard& s = shards_[lane % shard_count_];
  const std::lock_guard guard(s.mutex);
  s.tasks.insert(s.tasks.end(), tasks.begin(), tasks.end());
}

std::size_t RandomScheduler::begin_round(std::size_t m,
                                         std::vector<TaskId>& active,
                                         Rng& /*rng*/) {
  // kPriority stays on the centralized path: the heap IS the policy (the m
  // globally-smallest tasks run), so the draw happens up front.
  assert(policy_ == WorklistPolicy::kPriority);
  const std::lock_guard lock(worklist_mutex_);
  const std::size_t take = std::min(m, priority_heap_.size());
  active.resize(take);
  for (std::size_t i = 0; i < take; ++i) {
    active[i] = priority_heap_.top().second;
    priority_heap_.pop();
  }
  return take;
}

TaskId RandomScheduler::pop_from(Shard& s, Rng& rng) {
  switch (policy_) {
    case WorklistPolicy::kRandom: {
      const std::size_t j = s.head + rng.below(s.tasks.size() - s.head);
      const TaskId t = s.tasks[j];
      s.tasks[j] = s.tasks.back();
      s.tasks.pop_back();
      return t;
    }
    case WorklistPolicy::kFifo: {
      const TaskId t = s.tasks[s.head++];
      // Compact the consumed prefix once it dominates the buffer.
      if (s.head > 1024 && s.head * 2 > s.tasks.size()) {
        s.tasks.erase(s.tasks.begin(),
                      s.tasks.begin() + static_cast<std::ptrdiff_t>(s.head));
        s.head = 0;
      }
      return t;
    }
    case WorklistPolicy::kLifo: {
      const TaskId t = s.tasks.back();
      s.tasks.pop_back();
      return t;
    }
    case WorklistPolicy::kPriority:
      break;  // centralized path never reaches the shards
  }
  assert(false && "pop_from: unreachable policy");
  return 0;
}

void RandomScheduler::draw_span(std::size_t lane, Rng& rng, TaskId* out,
                                std::size_t n) {
  // Draw the chunk: own shard under one lock, then steal one-by-one.
  std::size_t i = 0;
  {
    Shard& own = shards_[lane % shard_count_];
    const std::lock_guard guard(own.mutex);
    while (i < n && own.head < own.tasks.size()) {
      out[i++] = pop_from(own, rng);
    }
  }
  while (i < n) out[i++] = steal_one(lane, rng);
}

TaskId RandomScheduler::steal_one(std::size_t lane, Rng& rng) {
  // Own shard first, then steal round-robin. Because every ticket maps to a
  // task that was present at round start and requeues are buffered until
  // round end, shards only shrink during a round — a full scan observing
  // every shard empty would mean more pops than tickets, which cannot
  // happen. The outer loop is defensive only.
  for (;;) {
    for (std::size_t k = 0; k < shard_count_; ++k) {
      Shard& s = shards_[(lane + k) % shard_count_];
      const std::lock_guard guard(s.mutex);
      if (s.head < s.tasks.size()) return pop_from(s, rng);
    }
    std::this_thread::yield();
  }
}

void RandomScheduler::save_state(snapshot::Writer& out) const {
  // Shard task vectors are stored live-suffix-only (tasks[head..end], in
  // order) and restored with head = 0. That compaction is draw-stream
  // safe: kRandom indexes relative to head, kFifo consumes from head, and
  // kLifo pops the back — none observe the consumed prefix.
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    const std::lock_guard guard(shard.mutex);
    out.u64_vec(std::span<const TaskId>(shard.tasks.data() + shard.head,
                                        shard.tasks.size() - shard.head));
  }
  out.u64(push_cursor_.load(std::memory_order_relaxed));

  // The priority heap's pop order is a pure function of its contents (the
  // (priority, task) pair comparison is total), so draining a copy and
  // re-pushing on load reproduces the schedule exactly.
  const std::lock_guard lock(worklist_mutex_);
  auto heap = priority_heap_;  // drain a copy; pop order == schedule order
  out.u64(heap.size());
  while (!heap.empty()) {
    out.u64(heap.top().first);
    out.u64(heap.top().second);
    heap.pop();
  }
}

void RandomScheduler::load_state(snapshot::Reader& in) {
  for (std::size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    const std::lock_guard guard(shard.mutex);
    shard.tasks = in.u64_vec();
    shard.head = 0;
  }
  push_cursor_.store(in.u64(), std::memory_order_relaxed);

  const std::lock_guard lock(worklist_mutex_);
  priority_heap_ = {};
  const std::uint64_t heap_size = in.u64();
  for (std::uint64_t i = 0; i < heap_size; ++i) {
    const std::uint64_t prio = in.u64();
    const TaskId task = in.u64();
    priority_heap_.emplace(prio, task);
  }
}

}  // namespace optipar::sched
