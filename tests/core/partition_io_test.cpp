#include "core/partition_io.h"

#include <gtest/gtest.h>

#include "core/solver.h"
#include "gen/suite.h"
#include "metrics/partition_metrics.h"

namespace sfqpart {
namespace {

TEST(PartitionIo, SaveLoadRoundTrip) {
  const Netlist netlist = build_mapped("ksa4");
  SolverConfig options;
  options.num_planes = 4;
  const Partition original = Solver(options).run(netlist).value().partition;

  const std::string path = ::testing::TempDir() + "/sfqpart_partition.csv";
  ASSERT_TRUE(save_partition_csv(path, netlist, original).is_ok());
  auto loaded = load_partition_csv(path, netlist);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().message();
  EXPECT_EQ(loaded->plane_of, original.plane_of);
  EXPECT_EQ(loaded->num_planes, original.num_planes);

  const PartitionMetrics a = compute_metrics(netlist, original);
  const PartitionMetrics b = compute_metrics(netlist, *loaded);
  EXPECT_EQ(a.distance_histogram, b.distance_histogram);
}

TEST(PartitionIo, RejectsUnknownGate) {
  const Netlist netlist = build_mapped("ksa4");
  const auto result = parse_partition_csv(
      "gate,cell,plane\nnot_a_gate,DFFT,0\n", netlist);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("unknown gate"), std::string::npos);
}

TEST(PartitionIo, RejectsCellMismatch) {
  Netlist netlist(&default_sfq_library(), "n");
  const GateId in = netlist.add_gate_of_kind("pin:a", CellKind::kInput);
  const GateId d = netlist.add_gate_of_kind("d0", CellKind::kDff);
  netlist.connect(in, 0, d, 0);
  const auto result = parse_partition_csv("gate,cell,plane\nd0,AND2T,0\n", netlist);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("DFFT"), std::string::npos);
}

TEST(PartitionIo, RejectsIncompleteAssignment) {
  Netlist netlist(&default_sfq_library(), "n");
  netlist.add_gate_of_kind("d0", CellKind::kDff);
  netlist.add_gate_of_kind("d1", CellKind::kDff);
  const auto result = parse_partition_csv("gate,cell,plane\nd0,DFFT,0\n", netlist);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("d1"), std::string::npos);
}

TEST(PartitionIo, RejectsDuplicateAndBadPlanes) {
  Netlist netlist(&default_sfq_library(), "n");
  netlist.add_gate_of_kind("d0", CellKind::kDff);
  EXPECT_FALSE(parse_partition_csv(
                   "gate,cell,plane\nd0,DFFT,0\nd0,DFFT,1\n", netlist)
                   .is_ok());
  EXPECT_FALSE(parse_partition_csv("gate,cell,plane\nd0,DFFT,-1\n", netlist).is_ok());
  EXPECT_FALSE(parse_partition_csv("gate,cell,plane\nd0,DFFT,abc\n", netlist).is_ok());
  EXPECT_FALSE(parse_partition_csv("wrong,header,here\nd0,DFFT,0\n", netlist).is_ok());
}

// The warm-start loader skips rows of removed gates, but a gate listed
// twice is as ambiguous there as in a full partition.
TEST(PartitionIo, WarmStartRejectsDuplicateRows) {
  Netlist netlist(&default_sfq_library(), "n");
  netlist.add_gate_of_kind("s0", CellKind::kDff);
  netlist.add_gate_of_kind("s1", CellKind::kDff);
  const auto twice = parse_warm_start_csv(
      "gate,cell,plane\ns0,DFFT,1\ns0,DFFT,3\n", netlist);
  ASSERT_FALSE(twice.is_ok());
  EXPECT_NE(twice.status().message().find("gate 's0' assigned twice"),
            std::string::npos)
      << twice.status().message();
  // A removed gate's rows, repeated or not, are still skipped.
  const auto stale = parse_warm_start_csv(
      "gate,cell,plane\ngone,DFFT,0\ngone,DFFT,2\ns0,DFFT,1\n", netlist);
  ASSERT_TRUE(stale.is_ok()) << stale.status().message();
  EXPECT_EQ(stale->plane(0), 1);
  EXPECT_EQ(stale->plane(1), kUnassignedPlane);
}

TEST(PartitionIo, RejectsWrongColumnCount) {
  Netlist netlist(&default_sfq_library(), "n");
  netlist.add_gate_of_kind("d0", CellKind::kDff);
  // A row with too few fields fails in the CSV layer, not with a crash on
  // row[2]; too many fields likewise.
  const auto missing = parse_partition_csv("gate,cell,plane\nd0,DFFT\n", netlist);
  ASSERT_FALSE(missing.is_ok());
  EXPECT_NE(missing.status().message().find("fields"), std::string::npos);
  EXPECT_FALSE(
      parse_partition_csv("gate,cell,plane\nd0,DFFT,0,extra\n", netlist).is_ok());
}

TEST(PartitionIo, RejectsOutOfRangePlane) {
  Netlist netlist(&default_sfq_library(), "n");
  netlist.add_gate_of_kind("d0", CellKind::kDff);
  // 5000000000 parses as a long long but would wrap negative when narrowed
  // to the Partition's int planes.
  const auto result =
      parse_partition_csv("gate,cell,plane\nd0,DFFT,5000000000\n", netlist);
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("bad plane"), std::string::npos);
}

TEST(PartitionIo, NumPlanesFromMaxLabel) {
  Netlist netlist(&default_sfq_library(), "n");
  netlist.add_gate_of_kind("d0", CellKind::kDff);
  netlist.add_gate_of_kind("d1", CellKind::kDff);
  auto result = parse_partition_csv("gate,cell,plane\nd0,DFFT,0\nd1,DFFT,6\n", netlist);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result->num_planes, 7);
}

}  // namespace
}  // namespace sfqpart
