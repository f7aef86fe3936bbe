#include "sched/chromatic_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "support/snapshot/snapshot.hpp"

namespace optipar::sched {

namespace {

[[noreturn]] void chromatic_mismatch(const std::string& what) {
  throw snapshot::SnapshotError(snapshot::SnapshotError::Kind::kMismatch,
                                "chromatic scheduler state: " + what);
}

}  // namespace

ChromaticScheduler::ChromaticScheduler(std::uint64_t seed) : seed_(seed) {}

void ChromaticScheduler::set_footprint_function(FootprintFn fn) {
  footprint_fn_ = std::move(fn);
}

std::size_t ChromaticScheduler::size() const {
  std::size_t total = 0;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    total += classes_[c].size() - heads_[c];
  }
  const std::lock_guard lock(spliced_mutex_);
  return total + spliced_.size();
}

std::uint64_t ChromaticScheduler::jp_key(TaskId task) const {
  return SplitMix64(seed_ ^ (task * 0x9e3779b97f4a7c15ULL)).next();
}

void ChromaticScheduler::index_insert(const Entry& entry,
                                      std::uint32_t color) {
  for (const std::uint32_t item : entry.fp) index_[item].push_back(color);
}

void ChromaticScheduler::index_remove(const Entry& entry,
                                      std::uint32_t color) {
  for (const std::uint32_t item : entry.fp) {
    const auto row = index_.find(item);
    assert(row != index_.end());
    auto& colors = row->second;
    const auto it = std::find(colors.begin(), colors.end(), color);
    assert(it != colors.end());
    *it = colors.back();
    colors.pop_back();
    if (colors.empty()) index_.erase(row);
  }
}

void ChromaticScheduler::color_entry(Entry entry, bool fresh_class) {
  std::uint32_t color;
  if (fresh_class) {
    color = static_cast<std::uint32_t>(classes_.size());
  } else {
    // Smallest color absent from every index row the footprint touches.
    // With k standing neighbors at most k colors are forbidden, so a
    // (k+1)-slot bitmap always has a free slot.
    forbidden_.assign(classes_.size() + 1, 0);
    for (const std::uint32_t item : entry.fp) {
      const auto row = index_.find(item);
      if (row == index_.end()) continue;
      for (const std::uint32_t c : row->second) {
        if (c < forbidden_.size()) forbidden_[c] = 1;
      }
    }
    color = 0;
    while (forbidden_[color]) ++color;
  }
  if (color >= classes_.size()) {
    classes_.resize(color + 1);
    heads_.resize(color + 1, 0);
  }
  index_insert(entry, color);
  classes_[color].push_back(std::move(entry));
}

void ChromaticScheduler::color_batch(std::span<const TaskId> tasks) {
  if (tasks.empty()) return;
  if (!footprint_fn_) {
    throw std::logic_error(
        "SpeculativeExecutor: chromatic scheduler requires "
        "set_footprint_function before tasks are pushed");
  }
  std::vector<Entry> batch;
  batch.reserve(tasks.size());
  for (const TaskId t : tasks) {
    Entry e{t, {}};
    footprint_fn_(t, e.fp);
    batch.push_back(std::move(e));
  }
  // Deterministic Jones–Plassmann order: PRF key, arrival position ties.
  // Greedy smallest-absent-color in this order equals the parallel JP
  // fixpoint for the same priority assignment.
  std::stable_sort(batch.begin(), batch.end(),
                   [this](const Entry& a, const Entry& b) {
                     return jp_key(a.task) < jp_key(b.task);
                   });
  for (Entry& e : batch) color_entry(std::move(e), /*fresh_class=*/false);
}

void ChromaticScheduler::absorb_spliced() {
  std::vector<TaskId> pending;
  {
    const std::lock_guard lock(spliced_mutex_);
    pending.swap(spliced_);
  }
  color_batch(pending);
}

void ChromaticScheduler::invalidate_pending() {
  absorb_spliced();
  std::vector<TaskId> tasks;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    for (std::size_t i = heads_[c]; i < classes_[c].size(); ++i) {
      tasks.push_back(classes_[c][i].task);
    }
  }
  classes_.clear();
  heads_.clear();
  index_.clear();
  color_cursor_ = 0;
  color_batch(tasks);
}

void ChromaticScheduler::push(std::span<const TaskId> tasks) {
  color_batch(tasks);
}

void ChromaticScheduler::requeue(std::span<const TaskId> tasks) {
  // Salvage path — may never drop a task. A footprint failure degrades to
  // a brand-new singleton class (trivially disjoint from everything) and
  // surfaces through the executor's round-error channel.
  for (const TaskId t : tasks) {
    Entry e{t, {}};
    try {
      if (!footprint_fn_) {
        throw std::logic_error("chromatic requeue without footprint fn");
      }
      footprint_fn_(t, e.fp);
      color_entry(std::move(e), /*fresh_class=*/false);
    } catch (...) {
      if (error_sink_) error_sink_();
      color_entry(Entry{t, {}}, /*fresh_class=*/true);
    }
  }
}

void ChromaticScheduler::splice(std::size_t /*lane*/,
                                std::span<const TaskId> tasks) {
  if (tasks.empty()) return;
  const std::lock_guard lock(spliced_mutex_);
  spliced_.insert(spliced_.end(), tasks.begin(), tasks.end());
}

std::size_t ChromaticScheduler::begin_round(std::size_t m,
                                            std::vector<TaskId>& active,
                                            Rng& /*rng*/) {
  absorb_spliced();
  // Find the next non-empty class, wrapping once (new arrivals may have
  // been colored into classes behind the cursor).
  std::size_t scanned = 0;
  while (scanned < std::max<std::size_t>(1, classes_.size())) {
    if (color_cursor_ >= classes_.size()) color_cursor_ = 0;
    if (classes_.empty()) break;
    if (heads_[color_cursor_] < classes_[color_cursor_].size()) break;
    // Drained class: reclaim its storage before moving on.
    classes_[color_cursor_].clear();
    classes_[color_cursor_].shrink_to_fit();
    heads_[color_cursor_] = 0;
    ++color_cursor_;
    ++scanned;
  }
  if (classes_.empty() || scanned >= classes_.size()) {
    active.clear();
    return 0;
  }

  auto& cls = classes_[color_cursor_];
  std::size_t& head = heads_[color_cursor_];
  // Never mix classes within a round — the zero-abort argument is
  // same-color pairwise disjointness, nothing weaker.
  const std::size_t take = std::min(m, cls.size() - head);
  active.resize(take);
  for (std::size_t i = 0; i < take; ++i) {
    Entry& e = cls[head + i];
    active[i] = e.task;
    index_remove(e, static_cast<std::uint32_t>(color_cursor_));
  }
  head += take;
  return take;
}

void ChromaticScheduler::save_state(snapshot::Writer& out) const {
  {
    const std::lock_guard lock(spliced_mutex_);
    out.u64_vec(std::span<const TaskId>(spliced_));
  }
  out.u32(static_cast<std::uint32_t>(classes_.size()));
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    std::vector<TaskId> live;
    live.reserve(classes_[c].size() - heads_[c]);
    for (std::size_t i = heads_[c]; i < classes_[c].size(); ++i) {
      live.push_back(classes_[c][i].task);
    }
    out.u64_vec(std::span<const TaskId>(live));
  }
  out.u32(static_cast<std::uint32_t>(color_cursor_));
}

void ChromaticScheduler::load_state(snapshot::Reader& in) {
  classes_.clear();
  heads_.clear();
  index_.clear();
  color_cursor_ = 0;
  {
    const std::lock_guard lock(spliced_mutex_);
    spliced_ = in.u64_vec();
  }
  const std::uint32_t class_count = in.u32();
  // Footprints are recomputed at load time (they are derived state, not
  // durable state); colors are restored as saved. For static-footprint
  // apps this reproduces the saved index exactly; dynamic apps recolor
  // via invalidate_pending() each round anyway.
  std::vector<std::vector<TaskId>> loaded(class_count);
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < class_count; ++c) {
    loaded[c] = in.u64_vec();
    total += loaded[c].size();
  }
  if (total > 0 && !footprint_fn_) {
    throw std::logic_error(
        "ChromaticScheduler: install the footprint function before "
        "load_state");
  }
  classes_.resize(class_count);
  heads_.assign(class_count, 0);
  for (std::uint32_t c = 0; c < class_count; ++c) {
    classes_[c].reserve(loaded[c].size());
    for (const TaskId t : loaded[c]) {
      Entry e{t, {}};
      footprint_fn_(t, e.fp);
      index_insert(e, c);
      classes_[c].push_back(std::move(e));
    }
  }
  const std::uint32_t cursor = in.u32();
  if (class_count == 0 ? cursor != 0 : cursor >= class_count) {
    chromatic_mismatch("color cursor out of range");
  }
  color_cursor_ = cursor;
}

}  // namespace optipar::sched
