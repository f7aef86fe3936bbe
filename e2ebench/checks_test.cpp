// Every benchmark check accepts a known-good output and rejects a
// corrupted one. Exits non-zero on the first unexpected verdict count.
//
//   <build-dir>/e2e_checks_test      (or: python3 e2ebench/run.py --selftest)
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "apps/dmr/delaunay.hpp"
#include "apps/dmr/refine.hpp"
#include "apps/mis/mis.hpp"
#include "checks.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace {

using namespace optipar;
using namespace optipar::e2e;

int g_failures = 0;

void expect_ok(const std::string& why, const char* what) {
  if (!why.empty()) {
    std::printf("FAIL %s: rejected a good output (%s)\n", what, why.c_str());
    ++g_failures;
  }
}

void expect_reject(const std::string& why, const char* what) {
  if (why.empty()) {
    std::printf("FAIL %s: accepted a corrupted output\n", what);
    ++g_failures;
  } else {
    std::printf("ok   %s: %s\n", what, why.c_str());
  }
}

void test_mis() {
  const CsrGraph path =
      CsrGraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  std::vector<std::uint8_t> in{1, 0, 1, 0, 1};
  expect_ok(check_mis(path, in), "mis path");
  in[1] = 1;
  expect_reject(check_mis(path, in), "mis independence");
  in = {1, 0, 0, 0, 1};
  expect_reject(check_mis(path, in), "mis maximality");

  Rng rng(7);
  const CsrGraph g = gen::rmat(2000, 8000, 0.55, 0.15, 0.15, rng);
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::vector<std::uint8_t> flags(g.num_nodes(), 0);
  for (const NodeId v : mis::greedy_sweep(g, order)) flags[v] = 1;
  expect_ok(check_mis(g, flags), "mis rmat greedy");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (flags[v] == 1 && g.degree(v) > 0) {
      flags[v] = 0;  // its neighbours may now lack an IN neighbour
      break;
    }
  }
  expect_reject(check_mis(g, flags), "mis rmat dropped node");
}

void test_coloring() {
  // Triangle 0-1-2 with pendant 3 on node 2, first-fit in node order.
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  std::vector<std::uint32_t> color{0, 1, 2, 0};
  expect_ok(check_coloring(g, color), "coloring first-fit");
  color = {0, 0, 2, 0};
  expect_reject(check_coloring(g, color), "coloring monochromatic edge");
  color = {0, 1, 2, kNoColor};
  expect_reject(check_coloring(g, color), "coloring uncoloured node");
  color = {0, 1, 2, 1};  // proper, but colour 0 was free at node 3
  expect_reject(check_coloring(g, color), "coloring not first-fit");
}

MeshView view_of(const dmr::Mesh& mesh) {
  MeshView view;
  for (std::size_t i = 0; i < mesh.num_points(); ++i) {
    view.points.push_back(mesh.point(static_cast<dmr::PointId>(i)));
  }
  for (std::size_t t = 0; t < mesh.num_triangle_slots(); ++t) {
    const auto id = static_cast<dmr::TriId>(t);
    if (mesh.is_alive(id)) view.tris.push_back(mesh.tri(id).v);
  }
  return view;
}

void test_mesh() {
  Rng rng(11);
  std::vector<dmr::Point2> pts(300);
  for (auto& p : pts) p = {rng.uniform() * 10.0, rng.uniform() * 10.0};
  dmr::Mesh mesh;
  dmr::build_delaunay(mesh, pts, 16.0);
  MeshQuality q{25.0, 0.1, {0.0, 0.0}, {0.0, 0.0}};
  q.lo = q.hi = pts.front();
  for (const auto& p : pts) {
    q.lo = {std::min(q.lo.x, p.x), std::min(q.lo.y, p.y)};
    q.hi = {std::max(q.hi.x, p.x), std::max(q.hi.y, p.y)};
  }
  dmr::RefineQuality rq;
  rq.min_angle_deg = q.min_angle_deg;
  rq.min_edge = q.min_edge;
  rq.domain_lo_x = q.lo.x;
  rq.domain_lo_y = q.lo.y;
  rq.domain_hi_x = q.hi.x;
  rq.domain_hi_y = q.hi.y;

  const MeshView unrefined = view_of(mesh);
  expect_reject(check_no_bad_triangle(unrefined, q), "mesh unrefined");
  if (dmr::refine_sequential(mesh, rq) == 0) {
    std::printf("FAIL mesh: refinement inserted nothing\n");
    ++g_failures;
  }
  const MeshView good = view_of(mesh);
  expect_ok(check_euler(good), "mesh euler");
  expect_ok(check_area(good), "mesh area");
  expect_ok(check_local_delaunay(good), "mesh delaunay");
  expect_ok(check_no_bad_triangle(good, q), "mesh quality");

  MeshView dropped = good;
  dropped.tris.pop_back();
  expect_reject(check_euler(dropped), "mesh euler dropped triangle");
  expect_reject(check_area(dropped), "mesh area dropped triangle");

  MeshView duplicated = good;
  duplicated.tris.push_back(good.tris.back());
  expect_reject(check_euler(duplicated), "mesh euler duplicated triangle");
  expect_reject(check_local_delaunay(duplicated),
                "mesh delaunay triple edge");

  MeshView flipped = good;
  std::swap(flipped.tris.back()[0], flipped.tris.back()[1]);
  expect_reject(check_area(flipped), "mesh area clockwise triangle");

  // A thin rhombus split along its long diagonal is not Delaunay; the
  // short diagonal is.
  MeshView rhombus;
  rhombus.points = {{-1.0, 0.0}, {0.0, -0.3}, {1.0, 0.0}, {0.0, 0.3}};
  rhombus.tris = {{1, 2, 3}, {0, 1, 3}};
  expect_ok(check_local_delaunay(rhombus), "rhombus short diagonal");
  rhombus.tris = {{0, 1, 2}, {0, 2, 3}};
  expect_reject(check_local_delaunay(rhombus), "rhombus long diagonal");
}

void test_executor() {
  ExecutorTotals t;
  t.rounds = 3;
  t.launched = 10;
  t.committed = 8;
  t.aborted = 2;
  expect_ok(check_executor(t, true, 0, false, 10), "executor good");
  ExecutorTotals lost = t;
  lost.committed = 7;
  expect_reject(check_executor(lost, true, 0, false, std::nullopt),
                "executor launched != committed + aborted");
  expect_reject(check_executor(t, false, 0, false, std::nullopt),
                "executor not drained");
  expect_reject(check_executor(t, true, 3, false, std::nullopt),
                "executor leaked locks");
  expect_reject(check_executor(t, true, 0, true, std::nullopt),
                "executor aborts in m = 1 drain");
  expect_reject(check_executor(t, true, 0, false, 9),
                "executor wrapper calls != launched");
}

}  // namespace

int main() {
  test_mis();
  test_coloring();
  test_mesh();
  test_executor();
  if (g_failures != 0) {
    std::printf("%d check test(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all check tests passed\n");
  return 0;
}
