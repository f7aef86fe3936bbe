#include "support/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace optipar {

namespace {

// Which pool (if any) owns the current thread, and whether the thread is
// already inside a fork-join region (as dispatcher or lane). Both gate the
// serial-inline fallback for nested fork-join calls.
thread_local const ThreadPool* tl_worker_pool = nullptr;
thread_local int tl_fork_depth = 0;

struct ForkDepthGuard {
  ForkDepthGuard() noexcept { ++tl_fork_depth; }
  ~ForkDepthGuard() noexcept { --tl_fork_depth; }
};

std::atomic<detail::PoolObserveHook> g_observe_hook{nullptr};

}  // namespace

void detail::set_pool_observe_hook(PoolObserveHook hook) noexcept {
  g_observe_hook.store(hook, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                      kMaxWorkers);
  }
  if (threads > kMaxWorkers) {
    throw std::invalid_argument("ThreadPool: more than kMaxWorkers workers");
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(wake_mutex_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_worker_context() const noexcept {
  return tl_worker_pool == this || tl_fork_depth > 0;
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const std::lock_guard lock(wake_mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    tasks_.push(std::move(packaged));
  }
  wake_cv_.notify_one();
  return future;
}

void ThreadPool::record_error() noexcept {
  lane_errors_.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard lock(error_mutex_);
  if (!job_error_) job_error_ = std::current_exception();
}

void ThreadPool::worker_loop(std::size_t id) {
  tl_worker_pool = this;
  std::uint64_t seen_word = 0;
  for (;;) {
    // 1) A fork-join job published since we last looked? The acquire load
    //    pairs with the dispatcher's release store and publishes job_fn_.
    //    The lane count comes from the same word, so whether this worker
    //    takes part is decided for exactly the job it observed.
    const std::uint64_t word = job_word_.load(std::memory_order_acquire);
    if (word != seen_word) {
      seen_word = word;
      if (const auto hook = g_observe_hook.load(std::memory_order_relaxed)) {
        hook(id);
      }
      if (id < (word & kLaneMask)) {
        {
          const ForkDepthGuard nested;
          try {
            (*job_fn_)(id + 1);
          } catch (...) {
            record_error();
          }
        }
        const std::size_t remaining =
            job_remaining_.fetch_sub(1, std::memory_order_acq_rel);
        assert(remaining > 0 && "fork-join lane arrived after the join");
        if (remaining == 1) {
          // Last lane out: wake the dispatcher. Taking the mutex (empty
          // critical section) closes the race with a dispatcher that is
          // between its predicate check and its wait.
          { const std::lock_guard lock(wake_mutex_); }
          done_cv_.notify_all();
        }
      }
      continue;
    }
    // 2) A queued one-off task?
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(wake_mutex_);
      wake_cv_.wait(lock, [&] {
        return stopping_ || !tasks_.empty() ||
               job_word_.load(std::memory_order_relaxed) != seen_word;
      });
      if (job_word_.load(std::memory_order_relaxed) != seen_word) {
        continue;  // re-read with acquire at the top of the loop
      }
      if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop();
      } else {
        return;  // stopping and drained
      }
    }
    task();
  }
}

void ThreadPool::fork_join(std::size_t participants, const WorkFnRef& fn) {
  if (participants == 0) return;
  if (participants == 1 || in_worker_context()) {
    // Single lane, or nested inside a worker/fork-join region: the resident
    // workers are either unnecessary or already occupied, so run every lane
    // inline. Exception semantics match the concurrent path: the first
    // throwing lane stops, later lanes still run, first error is rethrown.
    std::exception_ptr error;
    for (std::size_t lane = 0; lane < participants; ++lane) {
      try {
        fn(lane);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  const std::lock_guard fork_lock(fork_mutex_);
  const ForkDepthGuard nested;
  job_error_ = nullptr;
  const std::size_t worker_lanes = participants - 1;  // caller is lane 0
  job_remaining_.store(worker_lanes, std::memory_order_relaxed);
  {
    const std::lock_guard lock(wake_mutex_);
    job_fn_ = &fn;
    const std::uint64_t epoch =
        (job_word_.load(std::memory_order_relaxed) >> kLaneBits) + 1;
    job_word_.store((epoch << kLaneBits) | worker_lanes,
                    std::memory_order_release);
  }
  wake_cv_.notify_all();

  try {
    fn(0);
  } catch (...) {
    record_error();
  }

  // Join: spin briefly (rounds are short), then block on done_cv_.
  int spins = 0;
  while (job_remaining_.load(std::memory_order_acquire) != 0) {
    if (++spins > 1024) {
      std::unique_lock lock(wake_mutex_);
      done_cv_.wait(lock, [&] {
        return job_remaining_.load(std::memory_order_acquire) == 0;
      });
      break;
    }
    std::this_thread::yield();
  }

  if (job_error_) {
    std::exception_ptr error = job_error_;
    job_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::parallel_for(std::size_t n, WorkFnRef fn, std::size_t grain) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t blocks = (n + grain - 1) / grain;
  const std::size_t participants =
      std::max<std::size_t>(1, std::min(workers_.size(), blocks));

  std::atomic<std::size_t> cursor{0};
  const auto body = [&](std::size_t) {
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(n, begin + grain);
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  };
  fork_join(participants, WorkFnRef(body));
}

void ThreadPool::run_on_workers(std::size_t k, WorkFnRef fn) {
  k = std::min(k, workers_.size() + 1);  // caller participates as lane 0
  fork_join(k, fn);
}

}  // namespace optipar
