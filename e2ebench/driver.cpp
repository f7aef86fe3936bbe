// End-to-end benchmark driver: time to a certified answer for one
// workload, under three configurations of each instance —
//   solve   the program's defaults (hybrid controller, random backend)
//           on a pool of two lanes (kWideLanes),
//   solve1  the same defaults on a pool of one lane,
//   drain1  a fixed m = 1 drain on one lane.
// Repetitions cycle through a family of instances generated from --seed
// until --seconds have passed; each metric is a median over repetitions,
// scaled to a nominal host speed (kReferenceSeconds). Every answer is
// certified by the program's own verify:: certifier and by the
// independent checks in checks.hpp.
//
// With --trace 1 the run instead times calls into each layer from the
// outside (operator, controller, round, lock-table growth, certifier,
// generators) on traced solves under the defaults, interleaved with
// untraced ones so the tracing overhead is reported next to the figures.
//
//   e2e_driver --workload <mis-rmat|coloring-rmat|dmr-mesh> --seed <n>
//              --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/coloring/coloring.hpp"
#include "apps/dmr/delaunay.hpp"
#include "apps/dmr/refine.hpp"
#include "apps/mis/mis.hpp"
#include "checks.hpp"
#include "control/factory.hpp"
#include "graph/generators.hpp"
#include "rt/adaptive_executor.hpp"
#include "rt/spec_executor.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "verify/app_certs.hpp"
#include "verify/executor_cert.hpp"

namespace {

using namespace optipar;
using Clock = std::chrono::steady_clock;

// Initialised before main runs: the set-up clock starts with the process.
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t h = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[h] : 0.5 * (xs[h - 1] + xs[h]);
}

// Lanes of the multi-lane pool. A pool wider than two lets a worker sit
// out rounds that launch fewer tasks than the pool has workers, and on such
// pools solves under the defaults intermittently hang or end in a
// LivelockError with abstract locks still owned (see README.md). With two
// workers a round runs either on the caller alone or on both workers.
constexpr std::size_t kWideLanes = 2;

// ---------------------------------------------------------------- inputs

// Workload shapes: RMAT graphs with quadrant probabilities (.55, .15, .15)
// and average degree 8; a jittered kMeshSide^2 lattice on [0, 100]^2.
// Sized so one solve's data stays near a core's L2: at 10x the size, memory
// contention from other tenants of a shared host dominated the spread.
constexpr NodeId kRmatNodes = 20000;
constexpr std::uint32_t kRmatDegree = 8;
constexpr std::uint32_t kMeshSide = 45;
constexpr double kMeshMinEdge = 0.8;
constexpr double kMeshMinAngle = 25.0;
constexpr double kMeshCapacity = 16.0;

/// One app instance: its generated input plus the shared state one solve
/// mutates. prepare() rebuilds that state so each solve starts fresh.
class App {
 public:
  virtual ~App() = default;
  virtual void prepare() = 0;
  /// Items the lock table must cover now (grows during refinement).
  [[nodiscard]] virtual std::size_t items() const = 0;
  [[nodiscard]] virtual std::vector<TaskId> initial_tasks() const = 0;
  [[nodiscard]] virtual TaskOperator make_operator() = 0;
  /// The program's certificate of the answer (runs inside the timed solve).
  [[nodiscard]] virtual verify::Certificate certify(
      SpeculativeExecutor& ex) = 0;
  /// The benchmark's own checks; empty when the answer holds.
  [[nodiscard]] virtual std::string check() const = 0;
  /// Wall time of a serial reference solve of the same input.
  [[nodiscard]] virtual double serial_s() = 0;
  /// Problem size; the controller's allocation cap (as `run --app` sets it).
  [[nodiscard]] virtual std::uint32_t size() const = 0;
};

class GraphApp : public App {
 public:
  explicit GraphApp(CsrGraph graph) : graph_(std::move(graph)) {}
  [[nodiscard]] std::size_t items() const override {
    return graph_.num_nodes();
  }
  [[nodiscard]] std::vector<TaskId> initial_tasks() const override {
    std::vector<TaskId> tasks(graph_.num_nodes());
    std::iota(tasks.begin(), tasks.end(), TaskId{0});
    return tasks;
  }
  [[nodiscard]] std::uint32_t size() const override {
    return graph_.num_nodes();
  }

 protected:
  CsrGraph graph_;
};

class MisApp final : public GraphApp {
 public:
  using GraphApp::GraphApp;
  void prepare() override {
    state_ = std::make_unique<mis::MisState>(graph_.num_nodes());
  }
  [[nodiscard]] TaskOperator make_operator() override {
    return mis::make_mis_operator(graph_, *state_);
  }
  [[nodiscard]] verify::Certificate certify(
      SpeculativeExecutor& ex) override {
    verify::Certificate drained =
        verify::certify_drained_run(ex, graph_.num_nodes());
    if (!drained.ok()) return drained;
    return verify::certify_mis(graph_, *state_);
  }
  [[nodiscard]] std::string check() const override {
    std::vector<std::uint8_t> in(graph_.num_nodes());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      in[v] = state_->get(v) == mis::NodeState::kIn ? 1 : 0;
    }
    return e2e::check_mis(graph_, in);
  }
  [[nodiscard]] double serial_s() override {
    std::vector<NodeId> order(graph_.num_nodes());
    std::iota(order.begin(), order.end(), NodeId{0});
    const auto t0 = Clock::now();
    const std::vector<NodeId> set = mis::greedy_sweep(graph_, order);
    const double s = seconds_since(t0);
    if (set.empty()) throw std::logic_error("greedy_sweep: empty set");
    return s;
  }

 private:
  std::unique_ptr<mis::MisState> state_;
};

class ColoringApp final : public GraphApp {
 public:
  using GraphApp::GraphApp;
  void prepare() override {
    state_ = std::make_unique<coloring::ColoringState>(graph_.num_nodes());
  }
  [[nodiscard]] TaskOperator make_operator() override {
    return coloring::make_coloring_operator(graph_, *state_);
  }
  [[nodiscard]] verify::Certificate certify(
      SpeculativeExecutor& ex) override {
    verify::Certificate drained =
        verify::certify_drained_run(ex, graph_.num_nodes());
    if (!drained.ok()) return drained;
    return verify::certify_coloring(graph_, *state_);
  }
  [[nodiscard]] std::string check() const override {
    std::vector<std::uint32_t> color(graph_.num_nodes());
    for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
      color[v] = state_->color(v);
    }
    return e2e::check_coloring(graph_, color);
  }
  /// The program has no serial coloring kernel; this is a plain
  /// first-fit sweep in node order, the serial work the operator repeats.
  [[nodiscard]] double serial_s() override {
    const NodeId n = graph_.num_nodes();
    std::vector<std::uint32_t> color(n, e2e::kNoColor);
    std::vector<NodeId> seen_by(graph_.max_degree() + 2, n);
    const auto t0 = Clock::now();
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId w : graph_.neighbors(v)) {
        if (color[w] < seen_by.size()) seen_by[color[w]] = v;
      }
      std::uint32_t c = 0;
      while (seen_by[c] == v) ++c;
      color[v] = c;
    }
    const double s = seconds_since(t0);
    if (!e2e::check_coloring(graph_, color).empty()) {
      throw std::logic_error("serial first-fit coloring is wrong");
    }
    return s;
  }

 private:
  std::unique_ptr<coloring::ColoringState> state_;
};

class DmrApp final : public App {
 public:
  DmrApp(std::vector<dmr::Point2> points, std::uint64_t cert_seed)
      : points_(std::move(points)), cert_seed_(cert_seed) {
    dmr::Point2 lo = points_.front();
    dmr::Point2 hi = lo;
    for (const dmr::Point2& p : points_) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
    }
    quality_.min_angle_deg = kMeshMinAngle;
    quality_.min_edge = kMeshMinEdge;
    quality_.domain_lo_x = lo.x;
    quality_.domain_lo_y = lo.y;
    quality_.domain_hi_x = hi.x;
    quality_.domain_hi_y = hi.y;
    check_quality_ = {kMeshMinAngle, kMeshMinEdge, lo, hi};
  }
  void prepare() override { mesh_ = build(); }
  [[nodiscard]] std::size_t items() const override {
    return mesh_->num_triangle_slots();
  }
  [[nodiscard]] std::vector<TaskId> initial_tasks() const override {
    const std::vector<dmr::TriId> bad = dmr::bad_triangles(*mesh_, quality_);
    return {bad.begin(), bad.end()};
  }
  [[nodiscard]] TaskOperator make_operator() override {
    return dmr::make_refine_operator(*mesh_, quality_);
  }
  [[nodiscard]] verify::Certificate certify(SpeculativeExecutor&) override {
    return verify::certify_mesh(*mesh_, quality_, dmr::kNumSuperVertices,
                                /*spot_checks=*/64, cert_seed_);
  }
  [[nodiscard]] std::string check() const override {
    e2e::MeshView view;
    view.super_vertices = dmr::kNumSuperVertices;
    for (std::size_t i = 0; i < mesh_->num_points(); ++i) {
      view.points.push_back(mesh_->point(static_cast<dmr::PointId>(i)));
    }
    for (std::size_t t = 0; t < mesh_->num_triangle_slots(); ++t) {
      const auto id = static_cast<dmr::TriId>(t);
      if (mesh_->is_alive(id)) view.tris.push_back(mesh_->tri(id).v);
    }
    for (std::string why :
         {e2e::check_euler(view), e2e::check_area(view),
          e2e::check_local_delaunay(view),
          e2e::check_no_bad_triangle(view, check_quality_)}) {
      if (!why.empty()) return why;
    }
    return {};
  }
  [[nodiscard]] double serial_s() override {
    const std::unique_ptr<dmr::Mesh> mesh = build();
    const auto t0 = Clock::now();
    const std::size_t inserted = dmr::refine_sequential(*mesh, quality_);
    const double s = seconds_since(t0);
    if (inserted == 0) throw std::logic_error("refine_sequential: no work");
    return s;
  }
  [[nodiscard]] std::uint32_t size() const override {
    return static_cast<std::uint32_t>(points_.size());
  }

 private:
  [[nodiscard]] std::unique_ptr<dmr::Mesh> build() const {
    auto mesh = std::make_unique<dmr::Mesh>();
    dmr::build_delaunay(*mesh, points_, kMeshCapacity);
    return mesh;
  }

  std::vector<dmr::Point2> points_;
  std::uint64_t cert_seed_;
  dmr::RefineQuality quality_;
  e2e::MeshQuality check_quality_;
  std::unique_ptr<dmr::Mesh> mesh_;
};

/// Generate one instance of the workload from `seed`; `generate_s`
/// receives the generator's wall time.
std::unique_ptr<App> make_app(const std::string& workload, std::uint64_t seed,
                              double& generate_s) {
  Rng rng(seed);
  const auto t0 = Clock::now();
  if (workload == "mis-rmat" || workload == "coloring-rmat") {
    CsrGraph g = gen::rmat(kRmatNodes, std::uint64_t{kRmatNodes} * kRmatDegree / 2,
                           0.55, 0.15, 0.15, rng);
    generate_s = seconds_since(t0);
    if (workload == "mis-rmat") return std::make_unique<MisApp>(std::move(g));
    return std::make_unique<ColoringApp>(std::move(g));
  }
  if (workload == "dmr-mesh") {
    // A jittered lattice: each point uniform in the middle 70% of its cell.
    std::vector<dmr::Point2> pts;
    const double cell = 100.0 / kMeshSide;
    for (std::uint32_t i = 0; i < kMeshSide; ++i) {
      for (std::uint32_t j = 0; j < kMeshSide; ++j) {
        const double x = (i + 0.15 + 0.7 * rng.uniform()) * cell;
        const double y = (j + 0.15 + 0.7 * rng.uniform()) * cell;
        pts.push_back({x, y});
      }
    }
    generate_s = seconds_since(t0);
    return std::make_unique<DmrApp>(std::move(pts), seed ^ 0x5eedULL);
  }
  throw std::invalid_argument("unknown workload: " + workload);
}

/// The run's inputs: kInstances instances generated from --seed, each made
/// on first use. Repetition r solves instance r mod kInstances, so a
/// median averages over the family instead of riding on one instance:
/// refinement work alone varies by 1.7x between single meshes.
class Family {
 public:
  static constexpr std::size_t kInstances = 16;

  Family(std::string workload, std::uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  App& instance(std::size_t rep) {
    std::unique_ptr<App>& app = apps_[rep % kInstances];
    if (app == nullptr) {
      double generate_s = 0.0;
      app = make_app(workload_, instance_seed(rep), generate_s);
      if (rep == 0) generate_s_ = generate_s;
    }
    return *app;
  }
  [[nodiscard]] std::uint64_t exec_seed(std::size_t rep) const {
    return instance_seed(rep) * 11 + 3;
  }
  /// Generator time of the first instance (part of the cold set-up).
  [[nodiscard]] double generate_s() const { return generate_s_; }

 private:
  [[nodiscard]] std::uint64_t instance_seed(std::size_t rep) const {
    return seed_ * kInstances + rep % kInstances;
  }

  std::string workload_;
  std::uint64_t seed_;
  std::unique_ptr<App> apps_[kInstances];
  double generate_s_ = 0.0;
};

// --------------------------------------------------------------- tracing

/// Operator time of one thread, written only by that thread and read by
/// the driver between rounds (after the round's join).
struct alignas(64) LaneTime {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> commit_ns{0};
  std::atomic<std::uint64_t> abort_ns{0};

  static void add(std::atomic<std::uint64_t>& x, std::uint64_t d) {
    x.store(x.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t busy() const {
    return commit_ns.load(std::memory_order_relaxed) +
           abort_ns.load(std::memory_order_relaxed);
  }
};

constexpr std::size_t kMaxThreads = 1024;
LaneTime g_lanes[kMaxThreads];
std::atomic<std::size_t> g_lane_count{0};

LaneTime& my_lane() {
  thread_local LaneTime* mine = nullptr;
  if (mine == nullptr) {
    const std::size_t id = g_lane_count.fetch_add(1);
    if (id >= kMaxThreads) throw std::runtime_error("too many threads");
    mine = &g_lanes[id];
  }
  return *mine;
}

/// Outside-in timing of one solve: wraps the operator and the controller,
/// times lock-table growth and the certifier, and records each round's
/// wall time next to its busiest lane's operator time.
class Tracer {
 public:
  Tracer()
      : base_calls_(sum(&LaneTime::calls)),
        base_commit_(sum(&LaneTime::commit_ns)),
        base_abort_(sum(&LaneTime::abort_ns)) {}

  static TaskOperator wrap(TaskOperator op) {
    return [op = std::move(op)](TaskId task, IterationContext& ctx) {
      LaneTime& lane = my_lane();
      const auto t0 = Clock::now();
      try {
        op(task, ctx);
      } catch (...) {
        LaneTime::add(lane.abort_ns, ns_since(t0));
        LaneTime::add(lane.calls, 1);
        throw;
      }
      LaneTime::add(lane.commit_ns, ns_since(t0));
      LaneTime::add(lane.calls, 1);
    };
  }

  /// Times the lock-table growth, then marks the start of the round.
  void before_round(SpeculativeExecutor& ex, std::size_t items) {
    const auto t0 = Clock::now();
    ex.grow_items(items);
    grow_ns_ += ns_since(t0);
    const std::size_t lanes = g_lane_count.load();
    lane_mark_.resize(lanes);
    for (std::size_t i = 0; i < lanes; ++i) lane_mark_[i] = g_lanes[i].busy();
    round_start_ = Clock::now();
  }

  void round_end() {
    round_ns_.push_back(ns_since(round_start_));
    std::uint64_t busiest = 0;
    const std::size_t lanes = g_lane_count.load();
    for (std::size_t i = 0; i < lanes; ++i) {
      const std::uint64_t mark = i < lane_mark_.size() ? lane_mark_[i] : 0;
      busiest = std::max(busiest, g_lanes[i].busy() - mark);
    }
    busiest_ns_.push_back(busiest);
  }

  [[nodiscard]] std::uint64_t calls() const {
    return sum(&LaneTime::calls) - base_calls_;
  }
  [[nodiscard]] std::uint64_t commit_ns() const {
    return sum(&LaneTime::commit_ns) - base_commit_;
  }
  [[nodiscard]] std::uint64_t abort_ns() const {
    return sum(&LaneTime::abort_ns) - base_abort_;
  }

  std::uint64_t grow_ns_ = 0;
  std::uint64_t observe_ns_ = 0;
  std::uint64_t certify_ns_ = 0;
  std::vector<std::uint64_t> round_ns_;
  std::vector<std::uint64_t> busiest_ns_;

 private:
  static std::uint64_t sum(std::atomic<std::uint64_t> LaneTime::*field) {
    std::uint64_t total = 0;
    const std::size_t lanes = g_lane_count.load();
    for (std::size_t i = 0; i < lanes; ++i) {
      total += (g_lanes[i].*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  std::uint64_t base_calls_ = 0;
  std::uint64_t base_commit_ = 0;
  std::uint64_t base_abort_ = 0;
  std::vector<std::uint64_t> lane_mark_;
  Clock::time_point round_start_;
};

/// Forwards to the real controller; its observe() marks the end of the
/// round that produced the observation and times the controller.
class TimedController final : public Controller {
 public:
  TimedController(Controller& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] std::uint32_t initial_m() const override {
    return inner_.initial_m();
  }
  std::uint32_t observe(const RoundStats& round) override {
    tracer_.round_end();
    const auto t0 = Clock::now();
    const std::uint32_t m = inner_.observe(round);
    tracer_.observe_ns_ += ns_since(t0);
    return m;
  }
  void reset() override { inner_.reset(); }
  void clamp_max(std::uint32_t m_cap) override { inner_.clamp_max(m_cap); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::string decision_note() const override {
    return inner_.decision_note();
  }

 private:
  Controller& inner_;
  Tracer& tracer_;
};

// ----------------------------------------------------------------- solve

/// Thrown between rounds of a sweep solve that can no longer beat the
/// best time found so far.
struct SweepCut {};

struct Solve {
  double wall_s = 0.0;     ///< first round to certified answer
  double prepare_s = 0.0;  ///< the app's shared-state build
  bool failed = false;
  bool wrong = false;      ///< a certificate or check refuted the answer
  bool cut = false;
  std::string why;
  ExecutorTotals totals;
  Trace trace;
};

struct SolveConfig {
  ThreadPool* pool = nullptr;
  std::string controller;  ///< make_controller name
  bool m1_drain = false;
  Tracer* tracer = nullptr;
  double cut_after_s = 0.0;  ///< 0 = never cut
  double* setup_s = nullptr;  ///< receives the process's set-up time
};

Solve solve(App& app, const SolveConfig& cfg, std::uint64_t exec_seed) {
  Solve out;
  const auto p0 = Clock::now();
  app.prepare();
  out.prepare_s = seconds_since(p0);
  TaskOperator op = app.make_operator();
  if (cfg.tracer != nullptr) op = Tracer::wrap(std::move(op));
  SpeculativeExecutor ex(*cfg.pool, app.items(), std::move(op), exec_seed);
  const std::vector<TaskId> tasks = app.initial_tasks();
  ex.push_initial(tasks);
  if (cfg.setup_s != nullptr) *cfg.setup_s = seconds_since(g_process_start);

  ControllerParams params;
  params.m_max = std::max<std::uint32_t>(2, app.size());
  const std::unique_ptr<Controller> base =
      make_controller(cfg.controller, params);
  if (base == nullptr) throw std::logic_error("no controller " + cfg.controller);
  std::optional<TimedController> timed;
  Controller* controller = base.get();
  if (cfg.tracer != nullptr) controller = &timed.emplace(*base, *cfg.tracer);

  const auto t0 = Clock::now();
  AdaptiveRunConfig run_cfg;
  run_cfg.before_round = [&](SpeculativeExecutor& e) {
    if (cfg.cut_after_s > 0.0 && seconds_since(t0) > cfg.cut_after_s) {
      throw SweepCut{};
    }
    if (cfg.tracer != nullptr) {
      cfg.tracer->before_round(e, app.items());
    } else {
      e.grow_items(app.items());
    }
  };
  run_cfg.certifier = [&] {
    const auto c0 = Clock::now();
    verify::Certificate cert = app.certify(ex);
    if (cfg.tracer != nullptr) cfg.tracer->certify_ns_ += ns_since(c0);
    return cert;
  };
  std::optional<verify::Certificate> cert;
  try {
    AdaptiveRun run(ex, *controller, run_cfg);
    while (run.step()) {
    }
    run.ensure_certified();
    out.wall_s = seconds_since(t0);
    cert = run.certificate();
    out.trace = run.take_trace();
  } catch (const SweepCut&) {
    out.cut = true;
    return out;
  } catch (const std::exception& e) {
    out.wall_s = seconds_since(t0);
    out.failed = true;
    out.why = std::string(e.what()) + " (abstract locks owned: " +
              std::to_string(ex.locks().owned_count()) + ")";
    return out;
  }
  out.totals = ex.totals();
  std::optional<std::uint64_t> calls;
  if (cfg.tracer != nullptr) calls = cfg.tracer->calls();
  const std::string exec_why =
      e2e::check_executor(out.totals, ex.done(), ex.locks().owned_count(),
                          cfg.m1_drain, calls);
  std::string check_why;
  if (!cert.has_value() || !cert->ok()) {
    check_why = "certificate refuted: " +
                (cert.has_value() ? cert->describe() : std::string("none"));
  } else {
    check_why = app.check();
  }
  if (!check_why.empty()) {
    out.failed = out.wrong = true;
    out.why = check_why;
  } else if (!exec_why.empty()) {
    out.failed = true;
    out.why = exec_why;
  }
  return out;
}

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  /// Count one solve; returns true when its time may be reported.
  bool count(const Solve& s, const char* label) {
    ++attempted;
    if (!s.failed) return true;
    ++failed;
    if (s.wrong) correct = false;
    std::cerr << "FAIL " << label << ": " << s.why << "\n";
    return false;
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Median of the reported (unfailed) samples; when every attempt failed,
/// the median time to failure, so the metric never silently reads 0.
struct Samples {
  std::vector<double> ok;
  std::vector<double> all;
  void add(double seconds, bool reportable) {
    all.push_back(seconds);
    if (reportable) ok.push_back(seconds);
  }
  [[nodiscard]] double value() const {
    return median(ok.empty() ? all : ok);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

// Host-speed reference. On a shared VM the speed of the host drifts by
// 30-50% within minutes (measured: the same one-lane solve's CPU time rose
// from 0.023 s to 0.036 s within one minute), and every solve drifts with
// it. Each repetition therefore also times a fixed kernel that does not
// touch the program, between its solves, and each solve time is
// scaled by kReferenceSeconds / (the mean of the kernel times around it):
// seconds at a nominal host speed. Host drift cancels; a change to the
// program does not. The raw times go to stderr.
constexpr double kReferenceSeconds = 0.015;

/// The reference kernel: sort 2^17 seeded keys, then 2^19 dependent loads
/// from a 1 MiB table. It mixes branchy compute with cache-latency-bound
/// loads, like the solves. Returns its wall time.
double reference_s() {
  std::vector<std::uint32_t> keys(std::size_t{1} << 17);
  std::vector<std::uint32_t> table(std::size_t{1} << 18);
  const std::uint32_t mask = static_cast<std::uint32_t>(table.size() - 1);
  Rng rng(0x5eed);
  for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(rng());
  for (std::uint32_t& t : table) t = static_cast<std::uint32_t>(rng()) & mask;
  const auto t0 = Clock::now();
  std::sort(keys.begin(), keys.end());
  std::uint32_t j = 0;
  for (std::size_t i = 0; i < (std::size_t{1} << 19); ++i) {
    j = table[j] ^ (keys[i & (keys.size() - 1)] & mask);
  }
  const double elapsed = seconds_since(t0);
  if (j > mask) throw std::logic_error("reference kernel out of range");
  return elapsed;
}

/// Untraced run: the three configurations in turn until the time is up.
void run_end_to_end(Family& family, const Args& args) {
  ThreadPool wide(kWideLanes);
  ThreadPool narrow(1);
  const SolveConfig defaults{&wide, "hybrid"};
  const SolveConfig one_lane{&narrow, "hybrid"};
  const SolveConfig drain{&narrow, "fixed-1", /*m1_drain=*/true};

  // The first solve is the m = 1 drain: it closes the cold set-up, and the
  // memory high-water mark after it follows one schedule that does not
  // depend on timing. peak_rss_mb is the peak of set-up plus that solve;
  // later repetitions re-use memory the allocator already holds.
  double setup_s = 0.0;
  double rss_mb = 0.0;
  SolveConfig first = drain;
  first.setup_s = &setup_s;
  Tally tally;
  Samples solve_s, solve1_s, drain1_s;
  std::vector<double> reference;
  std::size_t rounds = 0;
  do {
    App& app = family.instance(rounds);
    const std::uint64_t exec_seed = family.exec_seed(rounds);
    const Solve c = solve(app, rounds == 0 ? first : drain, exec_seed);
    if (rounds == 0) rss_mb = peak_rss_mb();
    const Solve a = solve(app, defaults, exec_seed);
    const Solve b = solve(app, one_lane, exec_seed);
    // The host speed of this repetition: the kernel timed after it and
    // after the one before (the first has no kernel before it: set-up).
    reference.push_back(reference_s());
    const double scale =
        2.0 * kReferenceSeconds /
        (reference[rounds == 0 ? 0 : rounds - 1] + reference[rounds]);
    drain1_s.add(c.wall_s * scale, tally.count(c, "drain1"));
    solve_s.add(a.wall_s * scale, tally.count(a, "solve"));
    solve1_s.add(b.wall_s * scale, tally.count(b, "solve1"));
    std::cerr << "rep " << rounds << " solve " << a.wall_s << " solve1 "
              << b.wall_s << " drain1 " << c.wall_s << " scale " << scale
              << "\n";
    ++rounds;
  } while (seconds_since(g_process_start) < args.seconds);

  const double setup_scale = kReferenceSeconds / median(reference);
  std::cerr << "e2e " << args.workload << " seed=" << args.seed
            << " lanes=" << wide.size() << " repetitions=" << rounds
            << " solve_s=" << solve_s.value()
            << " solve1_s=" << solve1_s.value()
            << " drain1_s=" << drain1_s.value() << " setup_s=" << setup_s
            << " (raw) reference_s=" << median(reference) << "\n";
  print_result(tally, {{"solve_s", solve_s.value(), "s"},
                       {"solve1_s", solve1_s.value(), "s"},
                       {"drain1_s", drain1_s.value(), "s"},
                       {"setup_s", setup_s * setup_scale, "s"},
                       {"peak_rss_mb", rss_mb, "MB"}});
}

/// One traced solve's per-layer figures, keyed by metric name.
std::map<std::string, double> layer_figures(const Solve& s,
                                            const Tracer& tracer) {
  const ExecutorTotals& t = s.totals;
  const double launched = std::max(1.0, static_cast<double>(t.launched));
  double wall = 0.0;
  double self = 0.0;
  std::vector<double> round_us;
  for (std::size_t r = 0; r < tracer.round_ns_.size(); ++r) {
    const std::uint64_t ns = tracer.round_ns_[r];
    wall += static_cast<double>(ns) * 1e-9;
    self += static_cast<double>(ns - std::min(ns, tracer.busiest_ns_[r])) * 1e-9;
    round_us.push_back(static_cast<double>(ns) * 1e-3);
  }
  double m_sum = 0.0;
  double r_sum = 0.0;
  for (const StepRecord& step : s.trace.steps) {
    m_sum += step.m;
    r_sum += step.conflict_ratio();
  }
  const double steps =
      std::max(1.0, static_cast<double>(s.trace.steps.size()));
  const auto sec = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; };
  return {
      {"apps.mesh_build_s", s.prepare_s},
      {"apps.op_commit_s", sec(tracer.commit_ns())},
      {"apps.op_abort_s", sec(tracer.abort_ns())},
      {"rt.rounds", static_cast<double>(t.rounds)},
      {"rt.launched", static_cast<double>(t.launched)},
      {"rt.committed", static_cast<double>(t.committed)},
      {"rt.commit_ratio", static_cast<double>(t.committed) / launched},
      {"rt.round_wall_s", wall},
      {"rt.round_p50_us", median(round_us)},
      {"rt.self_s", self},
      {"rt.ns_per_task", wall * 1e9 / launched},
      {"rt.grow_items_s", sec(tracer.grow_ns_)},
      {"control.observe_s", sec(tracer.observe_ns_)},
      {"control.m_mean", m_sum / steps},
      {"control.r_mean", r_sum / steps},
      {"verify.certify_s", sec(tracer.certify_ns_)},
      {"trace.solve_s", s.wall_s},
  };
}

/// Traced run: traced and untraced solves under the defaults in turn,
/// the serial reference, then a fixed-m sweep for the hindsight best.
void run_traced(Family& family, const Args& args) {
  ThreadPool wide(kWideLanes);
  const SolveConfig untraced{&wide, "hybrid"};
  Tally tally;
  Samples plain;
  std::map<std::string, std::vector<double>> layer;
  std::size_t rounds = 0;
  do {
    App& app = family.instance(rounds);
    const std::uint64_t exec_seed = family.exec_seed(rounds);
    const Solve u = solve(app, untraced, exec_seed);
    plain.add(u.wall_s, tally.count(u, "untraced"));

    Tracer tracer;
    SolveConfig traced = untraced;
    traced.tracer = &tracer;
    const Solve s = solve(app, traced, exec_seed);
    if (tally.count(s, "traced")) {
      for (const auto& [name, value] : layer_figures(s, tracer)) {
        layer[name].push_back(value);
      }
    }
    layer["apps.serial_s"].push_back(app.serial_s());
    ++rounds;
  } while (seconds_since(g_process_start) < args.seconds);

  // Hindsight reference on the first instance: the fastest fixed-m solve
  // over powers of 4, each cut as soon as it can no longer beat the best.
  App& app = family.instance(0);
  double best = 0.0;
  std::uint32_t best_m = 0;
  for (std::uint64_t m = 1; m <= std::max<std::uint32_t>(2, app.size());
       m *= 4) {
    SolveConfig fixed{&wide, "fixed-" + std::to_string(m), /*m1_drain=*/m == 1};
    fixed.cut_after_s = best;
    const Solve s = solve(app, fixed, family.exec_seed(0));
    if (s.cut) continue;
    if (tally.count(s, "sweep") && (best_m == 0 || s.wall_s < best)) {
      best = s.wall_s;
      best_m = static_cast<std::uint32_t>(m);
    }
  }

  std::map<std::string, double> value;
  for (const auto& [name, xs] : layer) value[name] = median(xs);
  value["graph.generate_s"] = family.generate_s();
  value["control.best_fixed_s"] = best;
  value["control.best_fixed_m"] = best_m;
  value["trace.untraced_solve_s"] = plain.value();
  value["trace.overhead"] = value["trace.solve_s"] / plain.value() - 1.0;

  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      {"graph.generate_s", "s"},    {"apps.mesh_build_s", "s"},
      {"apps.op_commit_s", "s"},    {"apps.op_abort_s", "s"},
      {"apps.serial_s", "s"},       {"rt.rounds", "count"},
      {"rt.launched", "count"},     {"rt.committed", "count"},
      {"rt.commit_ratio", "ratio"}, {"rt.round_wall_s", "s"},
      {"rt.round_p50_us", "us"},    {"rt.self_s", "s"},
      {"rt.ns_per_task", "ns"},     {"rt.grow_items_s", "s"},
      {"control.observe_s", "s"},   {"control.m_mean", "tasks"},
      {"control.r_mean", "ratio"},  {"control.best_fixed_s", "s"},
      {"control.best_fixed_m", "tasks"}, {"verify.certify_s", "s"},
      {"trace.solve_s", "s"},       {"trace.untraced_solve_s", "s"},
      {"trace.overhead", "ratio"},
  };
  std::vector<Metric> metrics;
  std::cerr << "e2e-trace " << args.workload << " seed=" << args.seed
            << " lanes=" << wide.size() << " repetitions=" << rounds << "\n";
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics.push_back({name, value[name], unit});
    std::cerr << "  " << name << " = " << value[name] << " " << unit << "\n";
  }
  print_result(tally, metrics);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_driver: " << e.what() << "\n"
              << "usage: e2e_driver --workload <mis-rmat|coloring-rmat|"
                 "dmr-mesh> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  try {
    Family family(args.workload, args.seed);
    family.instance(0);  // reject an unknown workload before any pool starts
    if (args.trace) {
      run_traced(family, args);
    } else {
      run_end_to_end(family, args);
    }
  } catch (const std::exception& e) {
    std::cerr << "e2e_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
