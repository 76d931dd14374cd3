// Red/Black Successive Over-Relaxation — the paper's application (§6).
//
// Computes the steady-state temperature over a square plate (Laplace's
// equation, Dirichlet boundary) by red/black SOR. The Amber decomposition
// follows Figure 1 exactly:
//
//   * the grid is split into column-strip Section objects, one per strip,
//     placed round-robin across nodes;
//   * each section has a set of *compute threads* updating its points in
//     parallel, two *edge threads* exchanging boundary columns with the
//     neighbouring sections (by remote invocation of PutEdge — one network
//     transaction per edge per color), and one *convergence thread*
//     reporting the section's residual to a single Master object;
//   * edge transfer of one color is overlapped with computation of the
//     other color when Params::overlap is set (the paper's key structuring
//     technique; the 8Nx4P overlap-on/off pair in Figure 2).
//
// The sequential baseline (RunSequential) performs bitwise-identical
// arithmetic, so correctness tests can require exact grid equality.

#ifndef AMBER_SRC_APPS_SOR_SOR_H_
#define AMBER_SRC_APPS_SOR_SOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/time.h"
#include "src/core/runtime.h"

namespace sor {

using amber::Duration;
using amber::Time;

struct Params {
  int rows = 122;  // the paper's grid: 122 × 842
  int cols = 842;
  int sections = 8;             // column strips (paper: 8; 6 for 3/6-node runs)
  int threads_per_section = 0;  // 0 = auto: max(1, total processors / sections)
  bool overlap = true;          // overlap edge exchange with computation
  double omega = 1.5;           // over-relaxation factor
  double boundary_top = 100.0;  // fixed temperature along the top edge
  double tolerance = 0.0;       // 0 disables convergence (run max_iterations)
  int max_iterations = 50;
  Duration point_cost = amber::Micros(30);  // CVAX-era cost of one update (~7 FLOPs at ~0.25 MFLOPS)
};

struct Result {
  int iterations = 0;
  double final_delta = 0.0;
  Time solve_time = 0;     // virtual time of the solve phase
  uint64_t grid_hash = 0;  // FNV-1a over the full grid's bit patterns
  std::vector<double> grid;  // row-major rows × cols (filled if keep_grid)
  int64_t net_messages = 0;
  int64_t net_bytes = 0;
  int64_t thread_migrations = 0;
};

// The SOR update — shared verbatim by the sequential and parallel versions
// so their arithmetic is bitwise identical.
inline double Relax(double v, double up, double down, double left, double right, double omega) {
  return (1.0 - omega) * v + omega * 0.25 * (up + down + left + right);
}

// The row kernel both solvers sweep with. `row` points at local column 0 of
// grid row r in a strip whose local column c is global column col0 + c of a
// grid `cols` wide; `up` and `down` point at the same column of rows r - 1
// and r + 1, and row[c - 1], row[c + 1] must be readable. Relaxes, in
// ascending column order, the points of `color` ((r + global column) % 2)
// among local columns [c_lo, c_hi] that are interior to the grid, folds each
// |next - old| into *max_delta and returns how many points it updated. The
// first such column is found once and the sweep strides by two, so no
// column of the other colour is visited.
inline int SweepRow(double* row, const double* up, const double* down, int r, int col0, int cols,
                    int c_lo, int c_hi, int color, double omega, double* max_delta) {
  const int lo = std::max(c_lo, 1 - col0);
  const int hi = std::min(c_hi, cols - 2 - col0);
  double delta = *max_delta;
  int updated = 0;
  for (int c = lo + ((r + col0 + lo - color) & 1); c <= hi; c += 2) {
    const double old = row[c];
    const double next = Relax(old, up[c], down[c], row[c - 1], row[c + 1], omega);
    row[c] = next;
    delta = std::max(delta, std::fabs(next - old));
    ++updated;
  }
  *max_delta = delta;
  return updated;
}

// Runs the sequential C++ baseline inside `rt` (typically a 1-node/1-CPU
// runtime) and returns timing + the converged grid.
Result RunSequential(amber::Runtime& rt, const Params& params, bool keep_grid = false);

// Runs the Amber-parallel program inside `rt`, distributing sections across
// all of rt's nodes.
Result RunAmber(amber::Runtime& rt, const Params& params, bool keep_grid = false);

// Convenience: builds a Runtime for `nodes` × `procs` with the given cost
// model and runs the Amber program in it.
Result RunAmberOn(int nodes, int procs, const Params& params, const sim::CostModel& cost,
                  bool keep_grid = false);

// The sequential baseline on a 1×1 machine with the same cost model.
Result RunSequentialOn(const Params& params, const sim::CostModel& cost, bool keep_grid = false);

}  // namespace sor

#endif  // AMBER_SRC_APPS_SOR_SOR_H_
