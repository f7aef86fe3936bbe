// Multi-lane round stress (DESIGN.md §12) — a TSan target. Every lane
// draws from the sharded work-set, executes, and then commits and splices
// its requeues in the epilogue while the other lanes do the same, so a
// missing fence in the draw, the barrier or the lock release is a data
// race TSan can see. Functionally every run must keep the exactly-once
// oracle and leave no abstract lock owned between rounds.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "apps/coloring/coloring.hpp"
#include "control/hybrid.hpp"
#include "graph/generators.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/spec_executor.hpp"
#include "support/thread_pool.hpp"
#include "verify/app_certs.hpp"
#include "verify/executor_cert.hpp"

namespace optipar {
namespace {

constexpr std::uint32_t kCells = 64;
constexpr std::uint32_t kTasks = 400;

struct Effect {
  std::uint32_t first;
  std::uint32_t count;
  std::int64_t delta;
};

std::vector<Effect> make_effects(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Effect> effects(kTasks);
  for (auto& e : effects) {
    e.first = static_cast<std::uint32_t>(rng.below(kCells));
    e.count = 1 + static_cast<std::uint32_t>(rng.below(4));
    e.delta = rng.between(-5, 5);
  }
  return effects;
}

TEST(PipelineStress, FourLanesKeepOracleAcrossManyRounds) {
  const auto effects = make_effects(31);
  std::vector<std::int64_t> oracle(kCells, 0);
  for (const auto& e : effects) {
    for (std::uint32_t i = 0; i < e.count; ++i) {
      oracle[(e.first + i) % kCells] += e.delta;
    }
  }
  for (const std::uint32_t m : {4u, 16u, 64u}) {
    std::vector<std::int64_t> cells(kCells, 0);
    ThreadPool pool(4);
    SpeculativeExecutor ex(
        pool, kCells,
        [&](TaskId t, IterationContext& ctx) {
          const Effect& e = effects[t];
          for (std::uint32_t i = 0; i < e.count; ++i) {
            const std::uint32_t cell = (e.first + i) % kCells;
            ctx.acquire(cell);
            cells[cell] += e.delta;
            ctx.on_abort([&cells, cell, d = e.delta] { cells[cell] -= d; });
          }
        },
        m * 131 + 7);
    ex.set_pipeline({.max_lanes = 4});
    std::vector<TaskId> tasks(kTasks);
    std::iota(tasks.begin(), tasks.end(), TaskId{0});
    ex.push_initial(tasks);
    int rounds = 0;
    while (!ex.done() && rounds++ < 100000) (void)ex.run_round(m);
    ASSERT_TRUE(ex.done()) << "m=" << m;
    EXPECT_EQ(ex.totals().committed, kTasks) << "m=" << m;
    EXPECT_TRUE(ex.locks().all_free());
    EXPECT_EQ(cells, oracle) << "m=" << m;
  }
}

TEST(PipelineStress, FourLaneHybridColoringCertifiesWithNoLockLeak) {
  // First-fit coloring on a skewed graph under the paper's controller:
  // hub conflicts keep rounds mixing commits and aborts at every m the
  // controller visits, which is where a lock left owned by a lane would
  // surface.
  for (const std::uint64_t seed : {3u, 17u, 29u, 41u, 53u}) {
    Rng rng(seed);
    const CsrGraph g = gen::rmat(2000, 8000, 0.55, 0.15, 0.15, rng);
    coloring::ColoringState state(g.num_nodes());
    ThreadPool pool(4);
    SpeculativeExecutor ex(pool, g.num_nodes(),
                           coloring::make_coloring_operator(g, state), seed);
    ex.set_pipeline({.max_lanes = 4});
    std::vector<TaskId> tasks(g.num_nodes());
    std::iota(tasks.begin(), tasks.end(), TaskId{0});
    ex.push_initial(tasks);
    HybridController controller(ControllerParams{});
    AdaptiveRun run(ex, controller, AdaptiveRunConfig{});
    while (run.step()) {
      ASSERT_TRUE(ex.locks().all_free())
          << "seed=" << seed << " owned=" << ex.locks().owned_count();
    }
    const verify::Certificate drained =
        verify::certify_drained_run(ex, g.num_nodes());
    EXPECT_TRUE(drained.ok()) << "seed=" << seed << " " << drained.describe();
    const verify::Certificate colored = verify::certify_coloring(g, state);
    EXPECT_TRUE(colored.ok()) << "seed=" << seed << " " << colored.describe();
  }
}

}  // namespace
}  // namespace optipar
