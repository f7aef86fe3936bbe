// Independent output checks for the end-to-end benchmark. Each check
// re-derives a property of the answer from the raw output with its own
// code (no call into the kernel or certifier it judges) and returns an
// empty string when the property holds, or a one-line reason when it
// does not. checks_test.cpp feeds every check a corrupted output.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/dmr/geometry.hpp"
#include "graph/csr_graph.hpp"
#include "rt/spec_executor.hpp"

namespace optipar::e2e {

/// MIS: no edge joins two IN nodes, and every OUT node has an IN
/// neighbour. `in[v]` is 1 when node v is in the set.
[[nodiscard]] std::string check_mis(const CsrGraph& graph,
                                    std::span<const std::uint8_t> in);

inline constexpr std::uint32_t kNoColor = UINT32_MAX;

/// Coloring: every node coloured, no monochromatic edge, and first-fit
/// complete — a node of colour c has neighbours of every colour below c
/// (hence colour(v) <= deg(v)).
[[nodiscard]] std::string check_coloring(const CsrGraph& graph,
                                         std::span<const std::uint32_t> color);

/// The alive triangles of a mesh as plain vertex triples over `points`.
/// The first `super_vertices` points are the bounding super-triangle.
struct MeshView {
  std::vector<dmr::Point2> points;
  std::vector<std::array<std::uint32_t, 3>> tris;
  std::uint32_t super_vertices = 3;
};

/// Refinement target of the mesh checks (the domain box is inclusive).
struct MeshQuality {
  double min_angle_deg = 25.0;
  double min_edge = 0.0;
  dmr::Point2 lo;
  dmr::Point2 hi;
};

/// Euler's relation for a triangulated triangle: T = 2V - 5, where V
/// counts the vertices that alive triangles reference.
[[nodiscard]] std::string check_euler(const MeshView& mesh);

/// Every triangle is counter-clockwise and their areas sum to the
/// super-triangle's area (relative tolerance 1e-9).
[[nodiscard]] std::string check_area(const MeshView& mesh);

/// Every edge borders at most two triangles, and across every interior
/// edge neither opposite vertex lies strictly inside the other
/// triangle's circumcircle (relative tolerance 1e-12 on the predicate).
[[nodiscard]] std::string check_local_delaunay(const MeshView& mesh);

/// No refinable bad triangle remains: none that avoids the super-triangle,
/// lies in the domain, has its shortest edge at or above the size floor
/// and a minimum angle below the target (1e-9 relative slack at both
/// thresholds, in the program's favour).
[[nodiscard]] std::string check_no_bad_triangle(const MeshView& mesh,
                                                const MeshQuality& quality);

/// Executor bookkeeping of one drained solve: launched = committed +
/// aborted, the work-set is empty, no abstract lock is still owned, an
/// m = 1 drain aborted nothing, and (traced solves) the operator wrapper
/// saw exactly `launched` calls.
[[nodiscard]] std::string check_executor(
    const ExecutorTotals& totals, bool drained, std::size_t owned_locks,
    bool m1_drain, std::optional<std::uint64_t> wrapper_calls);

}  // namespace optipar::e2e
