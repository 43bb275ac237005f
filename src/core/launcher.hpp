/// \file launcher.hpp
/// \brief Builds a simulated wafer-scale fabric from a FlowProblem, loads
///        the TPFA dataflow program onto every PE, runs it, and gathers
///        the results back to host arrays.
#pragma once

#include <memory>
#include <vector>

#include "common/array3d.hpp"
#include "core/tpfa_program.hpp"
#include "dataflow/fabric_harness.hpp"
#include "physics/problem.hpp"

namespace fvf::core {

/// Launch configuration for a dataflow TPFA run.
struct DataflowOptions : dataflow::HarnessOptions {
  i32 iterations = 1;
  TpfaKernelOptions kernel{};
};

/// Result of a dataflow TPFA run: full fabric accounting plus the
/// gathered fields.
struct DataflowResult : dataflow::RunInfo {
  /// Flux residual gathered from all PEs after the final iteration.
  Array3<f32> residual;
  /// Final pressure (after iterations-1 advance steps).
  Array3<f32> pressure;
};

/// Reads per-PE z-columns of same-extents 3-D arrays one fabric row at a
/// time. A z-column is strided by a whole x-y plane, so reading the
/// arrays column by column thrashes cache sets and the TLB. Instead the
/// first column asked for in row y copies that row's segment of every
/// z-plane (contiguous reads) into a scratch buffer laid out column by
/// column; every column of the row is then a contiguous copy from it.
/// Loads build programs in raster order, so each row is read once. The
/// scratch holds one row (arrays × nx × nz values), not the fabric.
class RowColumns {
 public:
  explicit RowColumns(std::vector<const Array3<f32>*> arrays);

  /// A copy of column (x, y) of array `a`.
  [[nodiscard]] std::vector<f32> column(usize a, i32 x, i32 y);

 private:
  std::vector<const Array3<f32>*> arrays_;
  Extents3 ext_;
  i32 row_ = -1;
  std::vector<f32> scratch_;
};

/// Extracts the per-PE column data (the "host memcpy" phase: initial
/// pressure, static geometry, and transmissibility columns) from the
/// global problem, reading it a fabric row at a time (RowColumns).
class ColumnExtractor {
 public:
  explicit ColumnExtractor(const physics::FlowProblem& problem);

  /// The column data of PE (x, y). Each new row y reads that row of
  /// every array, so a load calls this in raster order.
  [[nodiscard]] PeColumnData operator()(i32 x, i32 y);

 private:
  const physics::FlowProblem& problem_;
  /// Initial pressure, then the transmissibility faces in stencil order.
  RowColumns rows_;
};

/// A loaded-but-not-run TPFA launch: the harness (for static lint or an
/// actual run) plus the typed program grid for gathering results. Every
/// program copies its columns at load time, and lint reads the loaded
/// programs, so the FlowProblem need not outlive the load call.
struct TpfaLoad {
  std::unique_ptr<dataflow::FabricHarness> harness;
  dataflow::ProgramGrid<TpfaPeProgram> grid;
};

/// Claims the TPFA colors and loads the per-PE programs without running
/// the event engine — the fvf_lint entry point, and the first half of
/// run_dataflow_tpfa.
[[nodiscard]] TpfaLoad load_dataflow_tpfa(const physics::FlowProblem& problem,
                                          const DataflowOptions& options);

/// Runs `options.iterations` applications of Algorithm 1 on the simulated
/// fabric (one PE per mesh column) and gathers residual + pressure.
[[nodiscard]] DataflowResult run_dataflow_tpfa(
    const physics::FlowProblem& problem, const DataflowOptions& options);

}  // namespace fvf::core
