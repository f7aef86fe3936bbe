// Round-executor determinism (DESIGN.md §12). Three contracts:
//  * the single-lane fast path (plain cursors, no barrier, relaxed lock
//    ops) replays the generic barriered path byte-for-byte — same round
//    stats, same shared state, same snapshot bytes (rng streams, shard
//    contents, totals);
//  * forcing max_lanes = 1 makes an oversubscribed pool fully
//    deterministic (the lane auto-cap is the paper's processor-allocation
//    argument applied to the runtime itself);
//  * two-lane rounds keep the exactly-once commit oracle.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "rt/spec_executor.hpp"
#include "support/snapshot/snapshot.hpp"
#include "support/thread_pool.hpp"

namespace optipar {
namespace {

constexpr std::uint32_t kCells = 32;
constexpr std::uint32_t kTasks = 160;

struct RoundRecord {
  std::uint32_t launched = 0;
  std::uint32_t committed = 0;
  bool operator==(const RoundRecord&) const = default;
};

struct GoldenRun {
  std::vector<RoundRecord> rounds;
  std::vector<std::int64_t> cells;
  std::vector<std::byte> state;  // full executor snapshot at quiescence
};

/// Each task touches two cells (one shared with a neighbor), so rounds
/// mix commits and aborts; aborted tasks requeue until they commit.
GoldenRun run_workload(std::size_t pool_threads,
                       const PipelineConfig& pipeline) {
  GoldenRun out;
  out.cells.assign(kCells, 0);
  ThreadPool pool(pool_threads);
  SpeculativeExecutor ex(
      pool, kCells,
      [&out](TaskId t, IterationContext& ctx) {
        const auto a = static_cast<std::uint32_t>(t % kCells);
        const auto b = static_cast<std::uint32_t>((t * 7 + 3) % kCells);
        ctx.acquire(a);
        out.cells[a] += 1;
        ctx.on_abort([&out, a] { out.cells[a] -= 1; });
        ctx.acquire(b);
        out.cells[b] -= 2;
        ctx.on_abort([&out, b] { out.cells[b] += 2; });
      },
      1234);
  ex.set_pipeline(pipeline);
  std::vector<TaskId> tasks(kTasks);
  std::iota(tasks.begin(), tasks.end(), TaskId{0});
  ex.push_initial(tasks);
  int guard = 0;
  while (!ex.done() && guard++ < 10000) {
    const RoundStats s = ex.run_round(24);
    out.rounds.push_back({s.launched, s.committed});
  }
  EXPECT_TRUE(ex.done());
  EXPECT_EQ(ex.totals().committed, kTasks);
  EXPECT_TRUE(ex.locks().all_free());
  snapshot::Writer w;
  ex.save_state(w);
  out.state = w.bytes();
  return out;
}

std::vector<std::int64_t> oracle_cells() {
  std::vector<std::int64_t> cells(kCells, 0);
  for (TaskId t = 0; t < kTasks; ++t) {
    cells[t % kCells] += 1;
    cells[(t * 7 + 3) % kCells] -= 2;
  }
  return cells;
}

TEST(PipelineGolden, FastPathReplaysGenericSingleLaneByteIdentically) {
  const GoldenRun fast = run_workload(
      1, {.max_lanes = 1, .single_lane_fast_path = true});
  const GoldenRun generic = run_workload(
      1, {.max_lanes = 1, .single_lane_fast_path = false});
  EXPECT_EQ(fast.rounds, generic.rounds);
  EXPECT_EQ(fast.cells, generic.cells);
  EXPECT_EQ(fast.state, generic.state);
  EXPECT_EQ(fast.cells, oracle_cells());
}

TEST(PipelineGolden, LaneCapPinsOversubscribedPoolToTheGoldenTrace) {
  // Same pool shape (shard count is part of the snapshot header), three
  // schedules that must coincide once lanes are capped at one.
  const GoldenRun fast = run_workload(
      4, {.max_lanes = 1, .single_lane_fast_path = true});
  const GoldenRun generic = run_workload(
      4, {.max_lanes = 1, .single_lane_fast_path = false});
  const GoldenRun replay = run_workload(
      4, {.max_lanes = 1, .single_lane_fast_path = true});
  EXPECT_EQ(fast.rounds, generic.rounds);
  EXPECT_EQ(fast.state, generic.state);
  EXPECT_EQ(fast.rounds, replay.rounds);
  EXPECT_EQ(fast.state, replay.state);
  EXPECT_EQ(fast.cells, oracle_cells());
}

TEST(PipelineGolden, TwoLaneRoundsKeepExactlyOnceCommits) {
  const GoldenRun two_lane = run_workload(2, {.max_lanes = 2});
  EXPECT_EQ(two_lane.cells, oracle_cells());
}

}  // namespace
}  // namespace optipar
