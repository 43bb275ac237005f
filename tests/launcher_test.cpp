// Tests of the dataflow launcher layer: host->PE column extraction, the
// result bookkeeping (per-color traffic, memory, events), and an
// iteration-count sweep against the serial reference.
#include <gtest/gtest.h>

#include "baseline/baseline.hpp"
#include "core/launcher.hpp"
#include "physics/problem.hpp"
#include "physics/residual.hpp"

namespace fvf::core {

using namespace dataflow;
namespace {

physics::FlowProblem make_problem(i32 nx, i32 ny, i32 nz, u64 seed = 42) {
  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = seed;
  return physics::FlowProblem(spec);
}

// --- ColumnExtractor ----------------------------------------------------------

TEST(ExtractColumnTest, PressureAndTransmissibilityColumns) {
  const physics::FlowProblem problem = make_problem(4, 3, 5);
  const PeColumnData data = ColumnExtractor(problem)(2, 1);
  ASSERT_EQ(data.pressure.size(), 5u);
  for (i32 z = 0; z < 5; ++z) {
    EXPECT_EQ(data.pressure[static_cast<usize>(z)],
              problem.initial_pressure()(2, 1, z));
    for (const mesh::Face f : mesh::kAllFaces) {
      EXPECT_EQ(data.trans[static_cast<usize>(f)][static_cast<usize>(z)],
                problem.transmissibility().at(2, 1, z, f));
    }
  }
}

TEST(ExtractColumnTest, ElevationIncludesTopography) {
  const physics::FlowProblem problem = make_problem(5, 5, 3);
  const PeColumnData data = ColumnExtractor(problem)(2, 2);
  for (i32 z = 0; z < 3; ++z) {
    EXPECT_FLOAT_EQ(data.elevation[static_cast<usize>(z)],
                    static_cast<f32>(problem.mesh().elevation(2, 2, z)));
  }
  // Centre column sits on the dome crest: higher than a corner column.
  const PeColumnData corner = ColumnExtractor(problem)(0, 0);
  EXPECT_GT(data.elevation[0], corner.elevation[0]);
}

TEST(ExtractColumnTest, NeighborElevationColumnsMatchNeighbors) {
  const physics::FlowProblem problem = make_problem(4, 4, 3);
  const PeColumnData data = ColumnExtractor(problem)(1, 1);
  for (const wse::Color c : kCardinalColors) {
    const mesh::Face face = cardinal_face(c);
    const Coord3 off = mesh::face_offset(face);
    const auto& col = data.elevation_cardinal[cardinal_index(c)];
    ASSERT_EQ(col.size(), 3u);
    for (i32 z = 0; z < 3; ++z) {
      EXPECT_FLOAT_EQ(col[static_cast<usize>(z)],
                      static_cast<f32>(problem.mesh().elevation(
                          1 + off.x, 1 + off.y, z)));
    }
  }
}

TEST(ExtractColumnTest, RowAtATimeExtractorMatchesDirectReadsInAnyOrder) {
  const physics::FlowProblem problem = make_problem(5, 4, 7);
  const auto expect_direct = [&](const PeColumnData& data, i32 x, i32 y) {
    for (i32 z = 0; z < 7; ++z) {
      const usize k = static_cast<usize>(z);
      EXPECT_EQ(wse::pack_f32(data.pressure[k]),
                wse::pack_f32(problem.initial_pressure()(x, y, z)));
      for (const mesh::Face f : mesh::kAllFaces) {
        EXPECT_EQ(wse::pack_f32(data.trans[static_cast<usize>(f)][k]),
                  wse::pack_f32(problem.transmissibility().at(x, y, z, f)))
            << "PE(" << x << ',' << y << ") z " << z;
      }
    }
  };
  ColumnExtractor raster(problem);
  for (i32 y = 0; y < 4; ++y) {
    for (i32 x = 0; x < 5; ++x) {
      expect_direct(raster(x, y), x, y);
    }
  }
  // Out of raster order every row change rereads the row.
  ColumnExtractor scattered(problem);
  for (const Coord2 pe : {Coord2{4, 3}, Coord2{0, 0}, Coord2{2, 3},
                          Coord2{1, 1}, Coord2{3, 0}}) {
    expect_direct(scattered(pe.x, pe.y), pe.x, pe.y);
  }
}

TEST(ExtractColumnTest, OutOfRangeRejected) {
  const physics::FlowProblem problem = make_problem(3, 3, 2);
  EXPECT_THROW((void)ColumnExtractor(problem)(3, 0), ContractViolation);
  EXPECT_THROW((void)ColumnExtractor(problem)(0, -1), ContractViolation);
}

// --- result bookkeeping ----------------------------------------------------------

TEST(LauncherTest, ColorTrafficSplitsCardinalAndDiagonal) {
  const physics::FlowProblem problem = make_problem(5, 5, 4);
  DataflowOptions options;
  options.iterations = 2;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok());
  u64 cardinal = 0, diagonal = 0;
  for (u8 c = 0; c < 4; ++c) {
    cardinal += result.color_traffic[c];
  }
  for (u8 c = 4; c < 8; ++c) {
    diagonal += result.color_traffic[c];
  }
  EXPECT_GT(cardinal, 0u);
  EXPECT_GT(diagonal, 0u);
  // Cardinal colors carry data + control wavelets; diagonal forwards
  // carry data only, and only where the corner exists.
  EXPECT_GT(cardinal, diagonal);
  // Symmetry of the 5x5 fabric: opposite directions carry equal loads.
  EXPECT_EQ(result.color_traffic[0], result.color_traffic[1]);
  EXPECT_EQ(result.color_traffic[2], result.color_traffic[3]);
  EXPECT_EQ(result.color_traffic[4], result.color_traffic[5]);
}

TEST(LauncherTest, DiagonalColorsSilentWhenDisabled) {
  const physics::FlowProblem problem = make_problem(4, 4, 3);
  DataflowOptions options;
  options.iterations = 1;
  options.kernel.diagonals_enabled = false;
  const DataflowResult result = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(result.ok());
  for (u8 c = 4; c < 8; ++c) {
    EXPECT_EQ(result.color_traffic[c], 0u);
  }
}

TEST(LauncherTest, EventCountScalesWithIterations) {
  const physics::FlowProblem problem = make_problem(4, 4, 3);
  DataflowOptions one;
  one.iterations = 1;
  DataflowOptions three;
  three.iterations = 3;
  const DataflowResult a = run_dataflow_tpfa(problem, one);
  const DataflowResult b = run_dataflow_tpfa(problem, three);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(b.events_processed, 2 * a.events_processed);
  EXPECT_LT(b.events_processed, 4 * a.events_processed);
}

// --- iteration sweep ---------------------------------------------------------------

class IterationSweepTest : public ::testing::TestWithParam<i32> {};

TEST_P(IterationSweepTest, MatchesSerialAtEveryIterationCount) {
  const i32 iterations = GetParam();
  const physics::FlowProblem problem = make_problem(4, 4, 3, 77);
  DataflowOptions options;
  options.iterations = iterations;
  const DataflowResult dataflow = run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(dataflow.ok()) << dataflow.errors[0];

  baseline::BaselineOptions serial_options;
  serial_options.iterations = iterations;
  const auto serial = baseline::run_serial_baseline(problem, serial_options);
  for (i64 i = 0; i < serial.residual.size(); ++i) {
    ASSERT_EQ(dataflow.residual[i], serial.residual[i])
        << "iterations=" << iterations << " at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, IterationSweepTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace fvf::core
