#include "core/launcher.hpp"

#include <memory>

#include "common/assert.hpp"
#include "physics/residual.hpp"
#include "spec/launch.hpp"

namespace fvf::core {

using namespace dataflow;

PeColumnData extract_column(const physics::FlowProblem& problem, i32 x,
                            i32 y) {
  const Extents3 ext = problem.extents();
  FVF_REQUIRE(x >= 0 && x < ext.nx && y >= 0 && y < ext.ny);
  const mesh::CartesianMesh& m = problem.mesh();
  const Array3<f32>& p0 = problem.initial_pressure();
  const mesh::TransmissibilityField& trans = problem.transmissibility();
  const usize n = static_cast<usize>(ext.nz);

  PeColumnData data;
  data.pressure.resize(n);
  data.elevation.resize(n);
  for (i32 z = 0; z < ext.nz; ++z) {
    data.pressure[static_cast<usize>(z)] = p0(x, y, z);
    data.elevation[static_cast<usize>(z)] =
        static_cast<f32>(m.elevation(x, y, z));
  }

  for (const mesh::Face f : mesh::kAllFaces) {
    auto& col = data.trans[static_cast<usize>(f)];
    col.resize(n);
    for (i32 z = 0; z < ext.nz; ++z) {
      col[static_cast<usize>(z)] = trans.at(x, y, z, f);
    }
  }

  // Static neighbor geometry (elevation columns), exchanged once at setup.
  const auto fill_neighbor_elevation = [&](std::vector<f32>& out, i32 nx_,
                                           i32 ny_) {
    out.resize(n);
    for (i32 z = 0; z < ext.nz; ++z) {
      out[static_cast<usize>(z)] = static_cast<f32>(m.elevation(nx_, ny_, z));
    }
  };
  for (const wse::Color c : kCardinalColors) {
    const mesh::Face face = cardinal_face(c);
    const Coord3 off = mesh::face_offset(face);
    const i32 nx_ = x + off.x;
    const i32 ny_ = y + off.y;
    if (nx_ >= 0 && nx_ < ext.nx && ny_ >= 0 && ny_ < ext.ny) {
      fill_neighbor_elevation(data.elevation_cardinal[cardinal_index(c)], nx_,
                              ny_);
    } else {
      data.elevation_cardinal[cardinal_index(c)].assign(n, 0.0f);
    }
  }
  for (const wse::Color c : kDiagonalColors) {
    const mesh::Face face = diagonal_face(c);
    const Coord3 off = mesh::face_offset(face);
    const i32 nx_ = x + off.x;
    const i32 ny_ = y + off.y;
    if (nx_ >= 0 && nx_ < ext.nx && ny_ >= 0 && ny_ < ext.ny) {
      fill_neighbor_elevation(data.elevation_diagonal[diagonal_index(c)], nx_,
                              ny_);
    } else {
      data.elevation_diagonal[diagonal_index(c)].assign(n, 0.0f);
    }
  }
  return data;
}

TpfaLoad load_dataflow_tpfa(const physics::FlowProblem& problem,
                            const DataflowOptions& options) {
  const Extents3 ext = problem.extents();
  FVF_REQUIRE(options.iterations >= 1);

  TpfaKernelOptions kernel = options.kernel;
  kernel.iterations = options.iterations;
  const physics::FluidProperties fluid = problem.fluid();
  return spec::launch<TpfaLoad>(
      make_tpfa_spec(kernel), ext, options, /*reliability=*/{},
      [&](Coord2 coord, Coord2 fabric_size,
          const spec::LaunchBindings& bindings) {
        return std::make_unique<TpfaPeProgram>(
            coord, fabric_size, ext, kernel, fluid,
            extract_column(problem, coord.x, coord.y), bindings.compiled);
      });
}

DataflowResult run_dataflow_tpfa(const physics::FlowProblem& problem,
                                 const DataflowOptions& options) {
  const TpfaLoad load = load_dataflow_tpfa(problem, options);

  DataflowResult result;
  static_cast<RunInfo&>(result) = load.harness->run();
  const Extents3 ext = problem.extents();
  result.residual = Array3<f32>(ext);
  result.pressure = Array3<f32>(ext);
  load.grid.gather(result.residual,
                   [](const TpfaPeProgram& p) { return p.residual(); });
  load.grid.gather(result.pressure,
                   [](const TpfaPeProgram& p) { return p.pressure(); });
  return result;
}

}  // namespace fvf::core
