// Tests for the Red/Black SOR application: the shared row kernel against a
// per-column reference sweep, the paper-size grid pinned to its known hash,
// numerical correctness against the sequential baseline (bitwise),
// convergence behaviour, overlap equivalence, and parallel speedup shape.

#include "src/apps/sor/sor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

namespace sor {
namespace {

using amber::Millis;

// A small, fast problem for correctness tests.
Params SmallProblem() {
  Params p;
  p.rows = 18;
  p.cols = 40;
  p.sections = 4;
  p.max_iterations = 12;
  p.tolerance = 0.0;
  p.point_cost = amber::Micros(10);
  return p;
}

sim::CostModel DefaultCost() { return sim::CostModel{}; }

// The per-column sweep the solvers used before SweepRow: visit every column
// of [c_lo, c_hi] and skip the exterior and the other colour's points. Kept
// verbatim as the reference the strided kernel must reproduce bit for bit.
int ReferenceRow(double* row, const double* up, const double* down, int r, int col0, int cols,
                 int c_lo, int c_hi, int color, double omega, double* max_delta) {
  int updated = 0;
  for (int c = c_lo; c <= c_hi; ++c) {
    const int gc = col0 + c;
    const bool interior = gc >= 1 && gc <= cols - 2;
    if (!interior || (r + gc) % 2 != color) {
      continue;
    }
    const double old = row[c];
    const double next = Relax(old, up[c], down[c], row[c - 1], row[c + 1], omega);
    row[c] = next;
    *max_delta = std::max(*max_delta, std::fabs(next - old));
    ++updated;
  }
  return updated;
}

// A strip of `rows` rows and width + 2 columns (one ghost each side), laid
// out as Section stores it, filled with fixed-seed noise.
std::vector<double> NoisyStrip(int rows, int width, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> value(-50.0, 150.0);
  std::vector<double> strip(static_cast<size_t>(rows) * static_cast<size_t>(width + 2));
  for (double& v : strip) {
    v = value(rng);
  }
  return strip;
}

TEST(SorSweepRowTest, MatchesPerColumnReferenceBitwise) {
  constexpr int kRows = 7;
  constexpr int kCols = 20;  // global grid width; strips below sit inside it
  int cases = 0;
  for (int width = 1; width <= 6; ++width) {
    // Both col0 parities, strips touching the left (col0 = 0) and right
    // (col0 + width = kCols) global boundaries, and strips in between.
    for (int col0 : {0, 1, 2, 3, kCols - width - 1, kCols - width}) {
      for (int c_lo = 0; c_lo < width; ++c_lo) {
        for (int c_hi = c_lo; c_hi < width; ++c_hi) {  // includes c_lo == c_hi
          for (int color = 0; color < 2; ++color) {
            const uint64_t seed = static_cast<uint64_t>(cases) * 7919 + 1;
            std::vector<double> want = NoisyStrip(kRows, width, seed);
            std::vector<double> got = want;
            const size_t stride = static_cast<size_t>(width + 2);
            for (int r = 1; r < kRows - 1; ++r) {
              auto row_of = [&](std::vector<double>& d, int rr) { return &d[rr * stride + 1]; };
              double want_delta = 0.25;  // a running max carried in, as UpdateRows does
              double got_delta = 0.25;
              const int want_n =
                  ReferenceRow(row_of(want, r), row_of(want, r - 1), row_of(want, r + 1), r, col0,
                               kCols, c_lo, c_hi, color, 1.5, &want_delta);
              const int got_n = SweepRow(row_of(got, r), row_of(got, r - 1), row_of(got, r + 1), r,
                                         col0, kCols, c_lo, c_hi, color, 1.5, &got_delta);
              SCOPED_TRACE(::testing::Message() << "width=" << width << " col0=" << col0
                                                << " c=[" << c_lo << "," << c_hi << "] color="
                                                << color << " r=" << r);
              ASSERT_EQ(got_n, want_n);
              ASSERT_EQ(std::memcmp(&got_delta, &want_delta, sizeof(double)), 0);
            }
            ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
                << "width=" << width << " col0=" << col0 << " c=[" << c_lo << "," << c_hi
                << "] color=" << color;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 6 * 2 * (1 + 3 + 6 + 10 + 15 + 21));
}

// The paper-size problem (122 x 842, 8 sections, 100 iterations) has one
// known answer; both solvers must keep producing it.
TEST(SorSweepRowTest, PaperGridHashIsPinned) {
  constexpr uint64_t kPaperGridHash = 9964609207633576934ULL;
  Params p;
  p.max_iterations = 100;
  p.tolerance = 0.0;
  EXPECT_EQ(RunSequentialOn(p, DefaultCost()).grid_hash, kPaperGridHash);
  EXPECT_EQ(RunAmberOn(8, 4, p, DefaultCost()).grid_hash, kPaperGridHash);
}

TEST(SorSequentialTest, ConvergesOnSmallGrid) {
  Params p = SmallProblem();
  p.tolerance = 1e-4;
  p.max_iterations = 10000;
  Result r = RunSequentialOn(p, DefaultCost(), /*keep_grid=*/true);
  EXPECT_LT(r.final_delta, 1e-4);
  EXPECT_GT(r.iterations, 10);
  // Physics sanity: temperature decreases monotonically away from the hot
  // top edge along the centre column.
  const int c = p.cols / 2;
  double prev = r.grid[static_cast<size_t>(c)];
  EXPECT_EQ(prev, 100.0);
  for (int row = 1; row < p.rows; ++row) {
    const double v = r.grid[static_cast<size_t>(row) * p.cols + c];
    EXPECT_LE(v, prev + 1e-12) << "row " << row;
    prev = v;
  }
}

TEST(SorSequentialTest, WorkScalesWithGridSize) {
  Params small = SmallProblem();
  Params big = SmallProblem();
  big.rows *= 2;
  big.cols *= 2;
  const Result rs = RunSequentialOn(small, DefaultCost());
  const Result rb = RunSequentialOn(big, DefaultCost());
  // 4× the points → ~4× the time (same iteration count).
  ASSERT_EQ(rs.iterations, rb.iterations);
  const double ratio = static_cast<double>(rb.solve_time) / static_cast<double>(rs.solve_time);
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 4.6);
}

class SorEquivalence : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SorEquivalence, AmberMatchesSequentialBitwise) {
  const auto [nodes, procs, overlap] = GetParam();
  Params p = SmallProblem();
  p.overlap = overlap;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(nodes, procs, p, DefaultCost());
  EXPECT_EQ(par.iterations, seq.iterations);
  EXPECT_EQ(par.grid_hash, seq.grid_hash)
      << "parallel grid diverged from sequential (nodes=" << nodes << " procs=" << procs
      << " overlap=" << overlap << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SorEquivalence,
    ::testing::Values(std::make_tuple(1, 1, true), std::make_tuple(1, 4, true),
                      std::make_tuple(2, 2, true), std::make_tuple(4, 1, true),
                      std::make_tuple(4, 4, true), std::make_tuple(1, 4, false),
                      std::make_tuple(4, 2, false), std::make_tuple(4, 4, false)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "N" +
             std::to_string(std::get<1>(info.param)) + "P" +
             (std::get<2>(info.param) ? "ov" : "seq");
    });

TEST(SorConvergenceTest, ParallelStopsAtSameIterationAsSequential) {
  Params p = SmallProblem();
  p.tolerance = 1e-3;
  p.max_iterations = 5000;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(2, 2, p, DefaultCost());
  EXPECT_EQ(par.iterations, seq.iterations);
  EXPECT_EQ(par.grid_hash, seq.grid_hash);
  EXPECT_LT(par.final_delta, 1e-3);
}

TEST(SorSpeedupTest, MoreProcessorsFasterSameNode) {
  Params p = SmallProblem();
  p.rows = 34;
  p.cols = 160;
  p.max_iterations = 20;
  const Result r1 = RunAmberOn(1, 1, p, DefaultCost());
  const Result r4 = RunAmberOn(1, 4, p, DefaultCost());
  EXPECT_EQ(r1.grid_hash, r4.grid_hash);
  const double speedup = static_cast<double>(r1.solve_time) / static_cast<double>(r4.solve_time);
  EXPECT_GT(speedup, 2.0) << "4 CPUs should be much faster than 1";
}

TEST(SorSpeedupTest, MultiNodeBeatsSingleNodeOnLargeGrid) {
  Params p;
  p.rows = 62;
  p.cols = 422;  // half the paper grid
  p.sections = 4;
  p.max_iterations = 10;
  const Result r1 = RunAmberOn(1, 1, p, DefaultCost());
  const Result r4 = RunAmberOn(4, 4, p, DefaultCost());
  EXPECT_EQ(r1.grid_hash, r4.grid_hash);
  // A half-size grid over 10 iterations pays relatively more barrier and
  // startup overhead than the paper's full problem (the Figure 2/3 benches
  // measure that shape); still, 16 CPUs must clearly beat 1.
  const double speedup = static_cast<double>(r1.solve_time) / static_cast<double>(r4.solve_time);
  EXPECT_GT(speedup, 4.0) << "16 processors over 4 nodes should give real speedup";
}

TEST(SorOverlapTest, OverlapBeatsNoOverlapAcrossNodes) {
  // The Figure 2 pair: same configuration, overlap on vs off. Overlap hides
  // edge-exchange latency behind interior computation.
  Params p;
  p.rows = 62;
  p.cols = 422;
  p.sections = 4;
  p.max_iterations = 10;
  p.overlap = true;
  const Result on = RunAmberOn(4, 2, p, DefaultCost());
  p.overlap = false;
  const Result off = RunAmberOn(4, 2, p, DefaultCost());
  EXPECT_EQ(on.grid_hash, off.grid_hash) << "overlap must not change the numerics";
  EXPECT_LT(on.solve_time, off.solve_time) << "overlap should hide communication";
}

TEST(SorTrafficTest, EdgeExchangeUsesOneMessagePerEdgePerPhase) {
  Params p = SmallProblem();
  p.sections = 4;
  p.max_iterations = 8;
  const Result r = RunAmberOn(4, 1, p, DefaultCost());
  // 3 interior boundaries × 2 directions × 2 phases × 8 iterations ≈ 96
  // edge transfers; each is one thread migration out and one back, plus
  // convergence traffic. The point: messages scale with edges, not points.
  EXPECT_GT(r.net_messages, 100);
  EXPECT_LT(r.net_messages, 600);
  EXPECT_LT(r.net_bytes, 2'000'000);
}

TEST(SorDeterminismTest, IdenticalRunsProduceIdenticalResults) {
  Params p = SmallProblem();
  const Result a = RunAmberOn(4, 2, p, DefaultCost());
  const Result b = RunAmberOn(4, 2, p, DefaultCost());
  EXPECT_EQ(a.solve_time, b.solve_time);
  EXPECT_EQ(a.grid_hash, b.grid_hash);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
}

TEST(SorConfigTest, SixSectionsOnThreeNodes) {
  // The paper's 3-node/6-node runs used 6 sections.
  Params p = SmallProblem();
  p.cols = 42;
  p.sections = 6;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(3, 2, p, DefaultCost());
  EXPECT_EQ(par.grid_hash, seq.grid_hash);
}

TEST(SorConfigTest, ExplicitThreadsPerSection) {
  Params p = SmallProblem();
  p.threads_per_section = 3;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(2, 2, p, DefaultCost());
  EXPECT_EQ(par.grid_hash, seq.grid_hash);
}

TEST(SorConfigTest, SingleSectionDegeneratesGracefully) {
  Params p = SmallProblem();
  p.sections = 1;
  const Result seq = RunSequentialOn(p, DefaultCost());
  const Result par = RunAmberOn(1, 2, p, DefaultCost());
  EXPECT_EQ(par.grid_hash, seq.grid_hash);
  EXPECT_EQ(par.net_messages, 0) << "one section on one node: no network traffic";
}

}  // namespace
}  // namespace sor
