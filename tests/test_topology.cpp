// Tests for the torus topology (src/topology).
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "topology/placement.hpp"
#include "topology/torus.hpp"

namespace {

using bgq::topo::Coord;
using bgq::topo::map_grid;
using bgq::topo::neighbor_hops;
using bgq::topo::NodeId;
using bgq::topo::Placement;
using bgq::topo::Torus;

TEST(Torus, RankCoordRoundTrip) {
  Torus t({4, 3, 2});
  EXPECT_EQ(t.node_count(), 24u);
  std::set<NodeId> seen;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 3; ++b) {
      for (int c = 0; c < 2; ++c) {
        Coord coord{};
        coord[0] = a; coord[1] = b; coord[2] = c;
        const NodeId r = t.rank_of(coord);
        EXPECT_LT(r, t.node_count());
        seen.insert(r);
        EXPECT_EQ(t.coord_of(r), coord);
      }
    }
  }
  EXPECT_EQ(seen.size(), 24u) << "rank_of must be a bijection";
}

TEST(Torus, DeltaIsMinimalWraparound) {
  Torus t({8});
  EXPECT_EQ(t.delta(0, 0, 3), 3);
  EXPECT_EQ(t.delta(0, 0, 5), -3);  // wrap backwards is shorter
  EXPECT_EQ(t.delta(0, 7, 0), 1);
  EXPECT_EQ(t.delta(0, 2, 2), 0);
  // Tie (distance 4 both ways on extent 8): either direction, magnitude 4.
  EXPECT_EQ(std::abs(t.delta(0, 0, 4)), 4);
}

TEST(Torus, HopsIsSymmetricAndTriangleBounded) {
  Torus t = Torus::bgq_partition(64);
  for (NodeId a = 0; a < 64; a += 7) {
    for (NodeId b = 0; b < 64; b += 5) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
      EXPECT_LE(t.hops(a, b), t.diameter());
      for (NodeId c = 0; c < 64; c += 13) {
        EXPECT_LE(t.hops(a, b), t.hops(a, c) + t.hops(c, b));
      }
    }
  }
}

TEST(Torus, HopsZeroIffSameNode) {
  Torus t({2, 2, 2});
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = 0; b < 8; ++b) {
      EXPECT_EQ(t.hops(a, b) == 0, a == b);
    }
  }
}

TEST(Torus, RouteLengthEqualsHopsAndEndsAtDestination) {
  Torus t = Torus::bgq_partition(128);
  for (NodeId a = 0; a < 128; a += 11) {
    for (NodeId b = 0; b < 128; b += 17) {
      const auto path = t.route(a, b);
      EXPECT_EQ(static_cast<int>(path.size()), t.hops(a, b));
      if (a == b) {
        EXPECT_TRUE(path.empty());
      } else {
        EXPECT_EQ(path.back(), b);
      }
      // Each consecutive pair is one hop apart.
      NodeId prev = a;
      for (NodeId n : path) {
        EXPECT_EQ(t.hops(prev, n), 1);
        prev = n;
      }
    }
  }
}

TEST(Torus, NeighborIsOneHop) {
  Torus t({4, 4, 4});
  for (NodeId r = 0; r < t.node_count(); r += 9) {
    for (int d = 0; d < t.ndims(); ++d) {
      for (int dir : {-1, +1}) {
        const NodeId n = t.neighbor(r, d, dir);
        EXPECT_EQ(t.hops(r, n), 1);
        // Stepping back returns home.
        EXPECT_EQ(t.neighbor(n, d, -dir), r);
      }
    }
  }
}

TEST(Torus, DiameterMatchesBruteForceOnSmallTorus) {
  Torus t({4, 3, 2});
  int max_h = 0;
  for (NodeId a = 0; a < t.node_count(); ++a) {
    for (NodeId b = 0; b < t.node_count(); ++b) {
      max_h = std::max(max_h, t.hops(a, b));
    }
  }
  EXPECT_EQ(max_h, t.diameter());
}

TEST(Torus, AverageHopsMatchesBruteForce) {
  Torus t({4, 4, 2});
  double total = 0;
  for (NodeId b = 0; b < t.node_count(); ++b) total += t.hops(0, b);
  EXPECT_NEAR(t.average_hops(), total / t.node_count(), 1e-12);
}

class BgqPartitions : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BgqPartitions, ShapeHasRightCountAndEEqualsTwo) {
  const std::size_t n = GetParam();
  Torus t = Torus::bgq_partition(n);
  EXPECT_EQ(t.node_count(), n);
  EXPECT_EQ(t.ndims(), 5);
  EXPECT_EQ(t.dims().back(), 2) << "BG/Q E dimension is always 2";
}

INSTANTIATE_TEST_SUITE_P(StandardSizes, BgqPartitions,
                         ::testing::Values(32, 64, 128, 256, 512, 1024,
                                           2048, 4096, 8192, 16384));

class BgpPartitions : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BgpPartitions, ShapeIs3DWithRightCount) {
  const std::size_t n = GetParam();
  Torus t = Torus::bgp_partition(n);
  EXPECT_EQ(t.node_count(), n);
  EXPECT_EQ(t.ndims(), 3);
}

INSTANTIATE_TEST_SUITE_P(StandardSizes, BgpPartitions,
                         ::testing::Values(32, 64, 128, 256, 512, 1024,
                                           2048, 4096));

TEST(Torus, FiveDTorusHasLowerDiameterThan3DAtEqualSize) {
  // The architectural argument of §II-A: 5D lowers max distance.
  Torus q = Torus::bgq_partition(4096);
  Torus p = Torus::bgp_partition(4096);
  EXPECT_LT(q.diameter(), p.diameter());
  EXPECT_LT(q.average_hops(), p.average_hops());
}

TEST(Torus, BisectionGrowsWithNodeCount) {
  EXPECT_GT(Torus::bgq_partition(1024).bisection_links(),
            Torus::bgq_partition(128).bisection_links());
}

TEST(Torus, NonStandardCountFactorizes) {
  Torus t = Torus::bgq_partition(96);
  EXPECT_EQ(t.node_count(), 96u);
}

TEST(Torus, InvalidDimensionsThrow) {
  EXPECT_THROW(Torus({}), std::invalid_argument);
  EXPECT_THROW(Torus({2, 0}), std::invalid_argument);
  EXPECT_THROW(Torus({2, 2, 2, 2, 2, 2, 2}), std::invalid_argument);
}

TEST(Torus, TotalLinksCountsDirections) {
  // 4-ring: every node has 2 unidirectional links per direction... extent 4
  // gives 2 dirs/node; extent 2 gives 1 (the +1 and -1 neighbours
  // coincide); extent 1 gives none.
  EXPECT_EQ(Torus({4}).total_links(), 8u);
  EXPECT_EQ(Torus({2}).total_links(), 2u);
  EXPECT_EQ(Torus({1, 4}).total_links(), 8u);
}

TEST(Placement, LinearMapIsIdentity) {
  Torus t = Torus::bgq_partition(64);
  const auto map = map_grid(t, 8, 8, Placement::kLinear);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(map[i], i);
}

TEST(Placement, FoldedMapIsAPermutation) {
  Torus t = Torus::bgq_partition(512);
  const auto map = map_grid(t, 16, 32, Placement::kFolded);
  std::set<NodeId> seen(map.begin(), map.end());
  EXPECT_EQ(seen.size(), map.size()) << "mapping must not collide";
  for (NodeId n : map) EXPECT_LT(n, t.node_count());
}

class PlacementSizes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(PlacementSizes, FoldedReducesNeighborHops) {
  // The paper's future-work claim: topological placement reduces the
  // distance between communicating partners.  For pencil grids on BG/Q
  // partitions the folded embedding must beat oblivious linear order.
  const auto [nodes, g1] = GetParam();
  const std::size_t g2 = nodes / g1;
  Torus t = Torus::bgq_partition(nodes);
  const auto lin = neighbor_hops(t, map_grid(t, g1, g2,
                                             Placement::kLinear),
                                 g1, g2);
  const auto fold = neighbor_hops(t, map_grid(t, g1, g2,
                                              Placement::kFolded),
                                  g1, g2);
  EXPECT_LE(fold.overall(), lin.overall() + 1e-12)
      << "folded " << fold.overall() << " vs linear " << lin.overall();
}

INSTANTIATE_TEST_SUITE_P(
    Grids, PlacementSizes,
    ::testing::Values(std::make_pair(std::size_t{64}, std::size_t{8}),
                      std::make_pair(std::size_t{256}, std::size_t{16}),
                      std::make_pair(std::size_t{512}, std::size_t{16}),
                      std::make_pair(std::size_t{1024}, std::size_t{32})),
    [](const auto& info) {
      return "n" + std::to_string(info.param.first) + "g" +
             std::to_string(info.param.second);
    });

TEST(Placement, RejectsOversizedGrid) {
  Torus t = Torus::bgq_partition(64);
  EXPECT_THROW(map_grid(t, 16, 16, Placement::kLinear),
               std::invalid_argument);
}

}  // namespace
