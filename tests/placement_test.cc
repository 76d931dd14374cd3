// Tests for the placement policies and the cluster report.

#include "src/core/placement.h"

#include <gtest/gtest.h>

#include "src/core/cluster_report.h"

namespace amber {
namespace {

class Widget : public Object {
 public:
  int Spin(int ms) {
    Work(Millis(ms));
    return ms;
  }
};

Runtime::Config TestConfig(int nodes = 4, int procs = 2) {
  Runtime::Config c;
  c.nodes = nodes;
  c.procs_per_node = procs;
  c.arena_bytes = size_t{256} << 20;
  return c;
}

TEST(PlacementTest, RoundRobinCyclesNodes) {
  Runtime rt(TestConfig(4));
  rt.Run([&] {
    RoundRobinPlacer placer;
    std::vector<NodeId> where;
    for (int i = 0; i < 8; ++i) {
      auto w = placer.Place<Widget>();
      where.push_back(rt.OwnerOf(w.object()));
    }
    EXPECT_EQ(where, (std::vector<NodeId>{0, 1, 2, 3, 0, 1, 2, 3}));
  });
}

TEST(PlacementTest, RoundRobinCustomStart) {
  Runtime rt(TestConfig(3));
  rt.Run([&] {
    RoundRobinPlacer placer(2);
    EXPECT_EQ(placer.NextNode(), 2);
    EXPECT_EQ(placer.NextNode(), 0);
    EXPECT_EQ(placer.NextNode(), 1);
  });
}

TEST(ClusterReportTest, ReportsUtilizationAndMigrations) {
  Runtime rt(TestConfig(2, 2));
  const Time end = rt.Run([&] {
    auto w = NewOn<Widget>(1);
    auto t = StartThread(w, &Widget::Spin, 10);  // migrates 0 -> 1
    t.Join();
  });
  const std::string report = ClusterReport(rt, end);
  EXPECT_NE(report.find("cluster report (2 nodes x 2 CPUs"), std::string::npos);
  EXPECT_NE(report.find("thread-migration matrix"), std::string::npos);
  EXPECT_NE(report.find("network:"), std::string::npos);
  // The spin thread migrated 0 -> 1 at least once.
  EXPECT_GE(rt.MigrationCount(0, 1), 1);
  // Node 1 did the 10 ms of work: nonzero utilization there.
  EXPECT_GT(rt.sim().NodeBusyTime(1), Millis(10));
}

TEST(ClusterReportTest, BalancedPlacementBalancesUtilization) {
  Runtime rt(TestConfig(4, 1));
  const Time end = rt.Run([&] {
    RoundRobinPlacer placer;
    std::vector<ThreadRef<int>> ts;
    for (int i = 0; i < 8; ++i) {
      auto w = placer.Place<Widget>();
      ts.push_back(StartThread(w, &Widget::Spin, 20));
    }
    for (auto& t : ts) {
      t.Join();
    }
  });
  // Every node got 2 of the 8 jobs (40 ms of Spin work each); the main
  // thread's orchestration (creation, moves, join chasing) lands unevenly
  // on top, so require rough balance, not equality.
  Duration lo = rt.sim().NodeBusyTime(0);
  Duration hi = lo;
  for (NodeId n = 1; n < 4; ++n) {
    lo = std::min(lo, rt.sim().NodeBusyTime(n));
    hi = std::max(hi, rt.sim().NodeBusyTime(n));
  }
  EXPECT_GE(lo, Millis(40));  // every node did its two jobs
  EXPECT_LT(static_cast<double>(hi), 2.0 * static_cast<double>(lo));
  (void)end;
}

TEST(LoadIntrospectionTest, BusyProcessorsAndQueueLength) {
  Runtime rt(TestConfig(1, 2));
  rt.Run([&] {
    auto w = New<Widget>();
    // Main occupies one CPU; two spinners fill the other and the queue.
    auto t1 = StartThread(w, &Widget::Spin, 5);
    auto t2 = StartThread(w, &Widget::Spin, 5);
    Work(Millis(1));
    rt.sim().Sync();  // let the spawn/dispatch events at this time settle
    EXPECT_EQ(rt.sim().BusyProcessors(0), 2);     // main + one spinner
    EXPECT_GE(rt.sim().RunQueueLength(0), 1);     // the other spinner waits
    t1.Join();
    t2.Join();
  });
}

}  // namespace
}  // namespace amber
