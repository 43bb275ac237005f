#include "core/launcher.hpp"

#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "physics/residual.hpp"
#include "spec/launch.hpp"

namespace fvf::core {

using namespace dataflow;

RowColumns::RowColumns(std::vector<const Array3<f32>*> arrays)
    : arrays_(std::move(arrays)) {
  FVF_REQUIRE(!arrays_.empty());
  ext_ = arrays_.front()->extents();
  for (const Array3<f32>* array : arrays_) {
    FVF_REQUIRE(array->extents() == ext_);
  }
}

std::vector<f32> RowColumns::column(usize a, i32 x, i32 y) {
  FVF_REQUIRE(a < arrays_.size());
  FVF_REQUIRE(x >= 0 && x < ext_.nx && y >= 0 && y < ext_.ny);
  const usize nx = static_cast<usize>(ext_.nx);
  const usize nz = static_cast<usize>(ext_.nz);
  if (y != row_) {
    scratch_.resize(arrays_.size() * nx * nz);
    for (usize k = 0; k < arrays_.size(); ++k) {
      f32* const columns = scratch_.data() + k * nx * nz;
      for (i32 z = 0; z < ext_.nz; ++z) {
        const f32* const segment = &(*arrays_[k])(0, y, z);
        for (usize i = 0; i < nx; ++i) {
          columns[i * nz + static_cast<usize>(z)] = segment[i];
        }
      }
    }
    row_ = y;
  }
  const f32* const column =
      scratch_.data() + (a * nx + static_cast<usize>(x)) * nz;
  return {column, column + nz};
}

namespace {

std::vector<const Array3<f32>*> pressure_and_faces(
    const physics::FlowProblem& problem) {
  std::vector<const Array3<f32>*> arrays{&problem.initial_pressure()};
  for (const mesh::Face f : mesh::kAllFaces) {
    arrays.push_back(&problem.transmissibility().face_array(f));
  }
  return arrays;
}

}  // namespace

ColumnExtractor::ColumnExtractor(const physics::FlowProblem& problem)
    : problem_(problem), rows_(pressure_and_faces(problem)) {}

PeColumnData ColumnExtractor::operator()(i32 x, i32 y) {
  const Extents3 ext = problem_.extents();
  FVF_REQUIRE(x >= 0 && x < ext.nx && y >= 0 && y < ext.ny);
  const mesh::CartesianMesh& m = problem_.mesh();
  const usize n = static_cast<usize>(ext.nz);

  PeColumnData data;
  data.pressure = rows_.column(0, x, y);
  data.elevation.resize(n);
  for (i32 z = 0; z < ext.nz; ++z) {
    data.elevation[static_cast<usize>(z)] =
        static_cast<f32>(m.elevation(x, y, z));
  }
  for (const mesh::Face f : mesh::kAllFaces) {
    data.trans[static_cast<usize>(f)] =
        rows_.column(1 + static_cast<usize>(f), x, y);
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
  ColumnExtractor columns(problem);
  return spec::launch<TpfaLoad>(
      make_tpfa_spec(kernel), ext, options, /*reliability=*/{},
      [&](Coord2 coord, Coord2 fabric_size,
          const spec::LaunchBindings& bindings) {
        return std::make_unique<TpfaPeProgram>(
            coord, fabric_size, ext, kernel, fluid,
            columns(coord.x, coord.y), bindings.compiled);
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
