#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <tuple>

namespace optipar::e2e {

namespace {

using dmr::Point2;

std::string node_reason(const char* what, NodeId v) {
  return std::string(what) + " at node " + std::to_string(v);
}

long double cross(const Point2& o, const Point2& a, const Point2& b) {
  return (static_cast<long double>(a.x) - o.x) *
             (static_cast<long double>(b.y) - o.y) -
         (static_cast<long double>(a.y) - o.y) *
             (static_cast<long double>(b.x) - o.x);
}

/// True when d lies strictly inside the circumcircle of the CCW triangle
/// (a, b, c), beyond a rounding margin relative to the predicate's terms.
bool strictly_inside(const Point2& a, const Point2& b, const Point2& c,
                     const Point2& d) {
  const long double adx = static_cast<long double>(a.x) - d.x;
  const long double ady = static_cast<long double>(a.y) - d.y;
  const long double bdx = static_cast<long double>(b.x) - d.x;
  const long double bdy = static_cast<long double>(b.y) - d.y;
  const long double cdx = static_cast<long double>(c.x) - d.x;
  const long double cdy = static_cast<long double>(c.y) - d.y;
  const long double alift = adx * adx + ady * ady;
  const long double blift = bdx * bdx + bdy * bdy;
  const long double clift = cdx * cdx + cdy * cdy;
  const long double det = alift * (bdx * cdy - cdx * bdy) +
                          blift * (cdx * ady - adx * cdy) +
                          clift * (adx * bdy - bdx * ady);
  const long double scale =
      alift * (std::fabs(bdx * cdy) + std::fabs(cdx * bdy)) +
      blift * (std::fabs(cdx * ady) + std::fabs(adx * cdy)) +
      clift * (std::fabs(adx * bdy) + std::fabs(bdx * ady));
  return det > 1e-12L * scale;
}

double length(const Point2& a, const Point2& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// Interior angle at `o` between rays o->a and o->b, in radians.
double angle_at(const Point2& o, const Point2& a, const Point2& b) {
  const double ux = a.x - o.x;
  const double uy = a.y - o.y;
  const double vx = b.x - o.x;
  const double vy = b.y - o.y;
  return std::atan2(std::fabs(ux * vy - uy * vx), ux * vx + uy * vy);
}

std::string tri_reason(const char* what, std::size_t i) {
  return std::string(what) + " at triangle " + std::to_string(i);
}

}  // namespace

std::string check_mis(const CsrGraph& graph,
                      std::span<const std::uint8_t> in) {
  if (in.size() != graph.num_nodes()) return "MIS output has wrong size";
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    bool has_in_neighbour = false;
    for (const NodeId w : graph.neighbors(v)) {
      if (in[w] != 0) has_in_neighbour = true;
    }
    if (in[v] != 0 && has_in_neighbour) {
      return node_reason("MIS not independent", v);
    }
    if (in[v] == 0 && !has_in_neighbour) {
      return node_reason("MIS not maximal", v);
    }
  }
  return {};
}

std::string check_coloring(const CsrGraph& graph,
                           std::span<const std::uint32_t> color) {
  if (color.size() != graph.num_nodes()) return "coloring has wrong size";
  std::vector<std::uint32_t> below;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::uint32_t c = color[v];
    if (c == kNoColor) return node_reason("uncoloured node", v);
    below.clear();
    for (const NodeId w : graph.neighbors(v)) {
      if (color[w] == c) return node_reason("monochromatic edge", v);
      if (color[w] < c) below.push_back(color[w]);
    }
    std::sort(below.begin(), below.end());
    below.erase(std::unique(below.begin(), below.end()), below.end());
    if (below.size() != c) return node_reason("not first-fit", v);
  }
  return {};
}

std::string check_euler(const MeshView& mesh) {
  std::vector<std::uint8_t> used(mesh.points.size(), 0);
  for (const auto& t : mesh.tris) {
    for (const std::uint32_t v : t) {
      if (v >= used.size()) return "triangle references a missing point";
      used[v] = 1;
    }
  }
  const auto vertices = static_cast<std::int64_t>(
      std::count(used.begin(), used.end(), std::uint8_t{1}));
  const auto triangles = static_cast<std::int64_t>(mesh.tris.size());
  if (triangles != 2 * vertices - 5) {
    return "Euler relation broken: T=" + std::to_string(triangles) +
           " V=" + std::to_string(vertices);
  }
  return {};
}

std::string check_area(const MeshView& mesh) {
  if (mesh.points.size() < 3) return "mesh has no super-triangle";
  long double total = 0.0L;
  for (std::size_t i = 0; i < mesh.tris.size(); ++i) {
    const auto& t = mesh.tris[i];
    const long double a2 =
        cross(mesh.points[t[0]], mesh.points[t[1]], mesh.points[t[2]]);
    if (!(a2 > 0.0L)) return tri_reason("triangle not counter-clockwise", i);
    total += a2;
  }
  const long double super2 =
      std::fabs(cross(mesh.points[0], mesh.points[1], mesh.points[2]));
  if (std::fabs(total - super2) > 1e-9L * super2) {
    return "alive area differs from the super-triangle's";
  }
  return {};
}

std::string check_local_delaunay(const MeshView& mesh) {
  // (edge key, triangle, opposite vertex) for every triangle side.
  std::vector<std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>> sides;
  sides.reserve(3 * mesh.tris.size());
  for (std::uint32_t i = 0; i < mesh.tris.size(); ++i) {
    const auto& t = mesh.tris[i];
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t a = t[(k + 1) % 3];
      const std::uint64_t b = t[(k + 2) % 3];
      sides.emplace_back(std::min(a, b) << 32 | std::max(a, b), i, t[k]);
    }
  }
  std::sort(sides.begin(), sides.end());
  for (std::size_t s = 0; s < sides.size();) {
    std::size_t e = s;
    while (e < sides.size() && std::get<0>(sides[e]) == std::get<0>(sides[s])) {
      ++e;
    }
    if (e - s > 2) return "edge shared by more than two triangles";
    if (e - s == 2) {
      for (int k = 0; k < 2; ++k) {
        const auto& t = mesh.tris[std::get<1>(sides[s + k])];
        const Point2& d = mesh.points[std::get<2>(sides[s + 1 - k])];
        if (strictly_inside(mesh.points[t[0]], mesh.points[t[1]],
                            mesh.points[t[2]], d)) {
          return tri_reason("not locally Delaunay",
                            std::get<1>(sides[s + k]));
        }
      }
    }
    s = e;
  }
  return {};
}

std::string check_no_bad_triangle(const MeshView& mesh,
                                  const MeshQuality& q) {
  const double floor = q.min_edge * (1.0 + 1e-9);
  const double target =
      q.min_angle_deg * std::numbers::pi / 180.0 * (1.0 - 1e-9);
  for (std::size_t i = 0; i < mesh.tris.size(); ++i) {
    const auto& t = mesh.tris[i];
    bool refinable = true;
    for (const std::uint32_t v : t) {
      const Point2& p = mesh.points[v];
      if (v < mesh.super_vertices || p.x < q.lo.x || p.x > q.hi.x ||
          p.y < q.lo.y || p.y > q.hi.y) {
        refinable = false;
      }
    }
    if (!refinable) continue;
    const Point2& a = mesh.points[t[0]];
    const Point2& b = mesh.points[t[1]];
    const Point2& c = mesh.points[t[2]];
    if (std::min({length(a, b), length(b, c), length(c, a)}) < floor) continue;
    const double smallest = std::min(
        {angle_at(a, b, c), angle_at(b, c, a), angle_at(c, a, b)});
    if (smallest < target) return tri_reason("bad triangle remains", i);
  }
  return {};
}

std::string check_executor(const ExecutorTotals& totals, bool drained,
                           std::size_t owned_locks, bool m1_drain,
                           std::optional<std::uint64_t> wrapper_calls) {
  if (totals.launched != totals.committed + totals.aborted) {
    return "launched " + std::to_string(totals.launched) +
           " != committed " + std::to_string(totals.committed) +
           " + aborted " + std::to_string(totals.aborted);
  }
  if (!drained) return "work-set not drained";
  if (owned_locks != 0) {
    return std::to_string(owned_locks) + " abstract locks still owned";
  }
  if (m1_drain && totals.aborted != 0) {
    return std::to_string(totals.aborted) + " aborts in an m = 1 drain";
  }
  if (wrapper_calls.has_value() && *wrapper_calls != totals.launched) {
    return "operator called " + std::to_string(*wrapper_calls) +
           " times for " + std::to_string(totals.launched) + " launches";
  }
  return {};
}

}  // namespace optipar::e2e
