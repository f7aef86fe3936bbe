#include "sched/relaxed_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>

#include "support/snapshot/snapshot.hpp"

namespace optipar::sched {

namespace {

[[noreturn]] void relaxed_mismatch(const std::string& what) {
  throw snapshot::SnapshotError(snapshot::SnapshotError::Kind::kMismatch,
                                "relaxed scheduler state: " + what);
}

}  // namespace

RelaxedScheduler::RelaxedScheduler(std::uint64_t seed,
                                   std::size_t shard_count,
                                   std::size_t queues_per_lane)
    : seed_(seed),
      nqueues_(std::max<std::size_t>(
          2, std::max<std::size_t>(1, queues_per_lane) *
                 std::max<std::size_t>(1, shard_count))),
      queues_(std::make_unique<Queue[]>(nqueues_)) {}

std::size_t RelaxedScheduler::size() const {
  std::size_t total = 0;
  for (std::size_t q = 0; q < nqueues_; ++q) {
    const std::lock_guard guard(queues_[q].mutex);
    total += queues_[q].heap.size();
  }
  return total;
}

std::size_t RelaxedScheduler::place(std::uint64_t ticket) const {
  return SplitMix64(seed_ ^ (ticket * 0x9e3779b97f4a7c15ULL)).next() %
         nqueues_;
}

void RelaxedScheduler::push_one(Queue& q, std::uint64_t prio, TaskId task) {
  q.heap.emplace_back(prio, task);
  std::push_heap(q.heap.begin(), q.heap.end(), std::greater<>{});
}

void RelaxedScheduler::push(std::span<const TaskId> tasks) {
  if (!priority_fn_) {
    throw std::logic_error(
        "SpeculativeExecutor: relaxed scheduler requires "
        "set_priority_function");
  }
  for (const TaskId t : tasks) {
    const std::uint64_t ticket =
        push_counter_.fetch_add(1, std::memory_order_relaxed);
    Queue& q = queues_[place(ticket)];
    const std::lock_guard guard(q.mutex);
    push_one(q, priority_fn_(t), t);
  }
}

void RelaxedScheduler::requeue(std::span<const TaskId> tasks) {
  for (const TaskId t : tasks) {
    std::uint64_t prio = t;
    try {
      prio = priority_fn_(t);
    } catch (...) {
      // Degrade to id-priority, never drop a task; the error surfaces
      // through the executor's round-error channel.
      if (error_sink_) error_sink_();
    }
    const std::uint64_t ticket =
        push_counter_.fetch_add(1, std::memory_order_relaxed);
    Queue& q = queues_[place(ticket)];
    const std::lock_guard guard(q.mutex);
    push_one(q, prio, t);
  }
}

void RelaxedScheduler::splice(std::size_t /*lane*/,
                              std::span<const TaskId> tasks) {
  // Priorities are evaluated at insertion time, like the kPriority heap's
  // epilogue splice; a throwing priority function propagates into the
  // executor's pool-fault channel.
  for (const TaskId t : tasks) {
    const std::uint64_t prio = priority_fn_(t);
    const std::uint64_t ticket =
        push_counter_.fetch_add(1, std::memory_order_relaxed);
    Queue& q = queues_[place(ticket)];
    const std::lock_guard guard(q.mutex);
    push_one(q, prio, t);
  }
}

TaskId RelaxedScheduler::pop_best(std::size_t i, std::size_t j) {
  Queue& a = queues_[i];
  Queue& b = queues_[j];
  auto top_of = [](Queue& q) -> const Item* {
    return q.heap.empty() ? nullptr : &q.heap.front();
  };
  Queue* pick = nullptr;
  if (i == j) {
    pick = top_of(a) ? &a : nullptr;
  } else {
    const Item* ta = top_of(a);
    const Item* tb = top_of(b);
    if (ta && tb) {
      pick = (*ta <= *tb) ? &a : &b;
    } else if (ta) {
      pick = &a;
    } else if (tb) {
      pick = &b;
    }
  }
  if (pick == nullptr) {
    // Both sampled heaps empty: fall back to a linear scan so a draw never
    // spuriously ends a round while work remains.
    for (std::size_t q = 0; q < nqueues_; ++q) {
      if (!queues_[q].heap.empty()) {
        pick = &queues_[q];
        break;
      }
    }
  }
  assert(pick != nullptr);
  std::pop_heap(pick->heap.begin(), pick->heap.end(), std::greater<>{});
  const TaskId task = pick->heap.back().second;
  pick->heap.pop_back();
  return task;
}

std::size_t RelaxedScheduler::begin_round(std::size_t m,
                                          std::vector<TaskId>& active,
                                          Rng& rng) {
  // Serial draw: no queue mutexes needed (begin_round runs between
  // rounds), and `rng` is the executor's serialized lane-0 stream so the
  // sampled heap pairs replay across kill-and-resume.
  const std::size_t take = std::min(m, size());
  active.resize(take);
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t a = rng.below(nqueues_);
    const std::size_t b = rng.below(nqueues_);
    active[i] = pop_best(a, b);
  }
  return take;
}

void RelaxedScheduler::save_state(snapshot::Writer& out) const {
  out.u64(nqueues_);
  out.u64(push_counter_.load(std::memory_order_relaxed));
  // Raw heap-layout array order, restored verbatim: a valid std heap stays
  // a valid std heap, so no make_heap on load — and save/load/save is
  // byte-identical.
  for (std::size_t q = 0; q < nqueues_; ++q) {
    const std::lock_guard guard(queues_[q].mutex);
    out.u64(queues_[q].heap.size());
    for (const Item& item : queues_[q].heap) {
      out.u64(item.first);
      out.u64(item.second);
    }
  }
}

void RelaxedScheduler::load_state(snapshot::Reader& in) {
  if (in.u64() != nqueues_) relaxed_mismatch("queue count differs");
  push_counter_.store(in.u64(), std::memory_order_relaxed);
  for (std::size_t q = 0; q < nqueues_; ++q) {
    const std::lock_guard guard(queues_[q].mutex);
    auto& heap = queues_[q].heap;
    heap.clear();
    const std::uint64_t count = in.u64();
    heap.reserve(std::min<std::uint64_t>(count, in.remaining() / 16));
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t prio = in.u64();
      const TaskId task = in.u64();
      heap.emplace_back(prio, task);
    }
  }
}

}  // namespace optipar::sched
