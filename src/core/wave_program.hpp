/// \file wave_program.hpp
/// \brief Second dataflow application: explicit acoustic wave propagation
///        on the simulated wafer-scale engine.
///
/// The paper's Discussion (Section 8) argues its diagonal communication
/// pattern "enables the implementation of other types of applications,
/// such as solving the acoustic wave equation on tilted transversely
/// isotropic media, that also require fetching data from diagonal
/// neighbors". This program demonstrates exactly that: a second-order
/// leapfrog scheme
///
///   u^{t+1} = 2 u^t - u^{t-1} - kappa * (A u^t)
///
/// whose spatial operator A is any 11-point LinearStencil (including the
/// four X-Y diagonal couplings), applied each step through a ten-neighbor
/// static halo exchange as a compiled `fvf::spec` program
/// (`make_wave_spec`).
#pragma once

#include <memory>
#include <vector>

#include "common/array3d.hpp"
#include "core/linear_stencil.hpp"
#include "dataflow/fabric_harness.hpp"
#include "spec/program.hpp"

namespace fvf::core {

/// Wave-kernel options shared by every PE.
struct WaveKernelOptions {
  i32 timesteps = 1;
  f32 kappa = 1.0f;  ///< dt^2 c^2 scaling of the spatial operator
};

/// The declarative description of the wave program: the [u] static-halo
/// exchange (no reduction) and the complete ordered per-PE memory layout.
/// The leapfrog arrives as the (file-local) WaveKernel, whose u_prev /
/// u_cur swap is kernel state.
[[nodiscard]] spec::StencilSpec make_wave_spec(
    const WaveKernelOptions& options);

class WaveKernel;

/// The per-PE leapfrog program: the compiled wave spec running its
/// (file-local) kernel.
using WavePeProgram = spec::KernelProgram<WaveKernel>;

/// Launch options.
struct DataflowWaveOptions : dataflow::HarnessOptions {
  WaveKernelOptions kernel{};
  /// Halo ack/retransmit layer. Auto-enabled by the launch (spec::launch)
  /// when the fault scenario can drop blocks (bit_flip_rate > 0).
  dataflow::HaloReliabilityOptions reliability{};
};

/// Result of a fabric wave run: full fabric accounting plus the field.
struct DataflowWaveResult : dataflow::RunInfo {
  Array3<f32> field;  ///< u at the final timestep
};

/// A loaded-but-not-run wave launch (see core/launcher.hpp::TpfaLoad).
struct WaveLoad {
  std::unique_ptr<dataflow::FabricHarness> harness;
  dataflow::ProgramGrid<WavePeProgram> grid;
};

/// Claims the wave colors and loads the per-PE programs without running
/// the event engine — the fvf_lint entry point, and the first half of
/// run_dataflow_wave.
[[nodiscard]] WaveLoad load_dataflow_wave(const LinearStencil& stencil,
                                          const Array3<f32>& initial,
                                          const DataflowWaveOptions& options);

/// Runs `options.kernel.timesteps` leapfrog steps on the fabric.
[[nodiscard]] DataflowWaveResult run_dataflow_wave(
    const LinearStencil& stencil, const Array3<f32>& initial,
    const DataflowWaveOptions& options);

/// Host f64 reference of the same leapfrog iteration.
[[nodiscard]] Array3<f32> wave_reference_host(const LinearStencil& stencil,
                                              const Array3<f32>& initial,
                                              f32 kappa, i32 timesteps);

/// A centred Gaussian pulse initial condition.
[[nodiscard]] Array3<f32> gaussian_pulse(Extents3 extents, f64 amplitude,
                                         f64 sigma_cells);

}  // namespace fvf::core
