/// \file tpfa_program.hpp
/// \brief The per-PE TPFA flux kernel — the paper's primary contribution
///        (Section 5) — now expressed as a `fvf::spec` stencil program:
///        the Figure 5/6 communication machinery is generated by
///        `spec::compile` from `make_tpfa_spec`, and this module
///        contributes only the physics callbacks.
///
/// Mapping (Section 5.1): mesh cell (x, y, z) lives on PE (x, y); the
/// whole Z column resides in the PE's private memory. Each application of
/// Algorithm 1 on a PE:
///
///   1. advances its pressure column and evaluates the EOS densities,
///   2. computes the two vertical faces locally (no communication),
///   3. exchanges (pressure, density) columns with its four cardinal
///      neighbors using the two-step switch protocol of Figure 6,
///   4. forwards each received cardinal block to the rotated diagonal
///      target (Figure 5) while computing the cardinal partial flux,
///   5. computes the four diagonal partial fluxes as forwarded blocks
///      arrive, and
///   6. advances to the next iteration once all ten faces are assembled.
///
/// Communication/computation overlap is intrinsic: partial fluxes are
/// computed in the kernel's process_block hook as blocks arrive
/// (Section 5.3.2), and vertical faces are computed while cardinal data
/// is in flight.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/array3d.hpp"
#include "mesh/stencil.hpp"
#include "physics/fluid.hpp"
#include "spec/program.hpp"
#include "wse/fabric.hpp"

namespace fvf::core {

/// Kernel options (the Section 5.3 optimization toggles + run modes).
struct TpfaKernelOptions {
  i32 iterations = 1;
  /// false = communication-only variant used for Table 3: all flux
  /// computations removed, data movement untouched.
  bool compute_enabled = true;
  /// Buffer-reuse optimization (Section 5.3.1): true = 4 shared scratch
  /// columns scheduled like hand-allocated registers; false = one fresh
  /// scratch column per intermediate value (13 columns).
  bool reuse_buffers = true;
  /// false = cardinal-only ablation (no diagonal exchange or fluxes).
  bool diagonals_enabled = true;
};

/// Host-side per-PE column data extracted from the global problem.
struct PeColumnData {
  std::vector<f32> pressure;        ///< initial p, length Nz
  std::vector<f32> elevation;       ///< own cell-centre elevations, Nz
  /// Neighbor elevation columns, static geometry loaded at setup.
  /// Cardinal slots indexed by cardinal_index(color), diagonal slots by
  /// diagonal_index(color); empty when the neighbor does not exist.
  std::array<std::vector<f32>, 4> elevation_cardinal;
  std::array<std::vector<f32>, 4> elevation_diagonal;
  /// Per-face transmissibility columns (zero where no neighbor).
  std::array<std::vector<f32>, mesh::kFaceCount> trans;
};

/// The declarative description of the TPFA program: the Figure 6
/// switch-protocol exchange of [p | rho] blocks, the 9-point shape
/// (5-point in the cardinal-only ablation), and the complete ordered
/// per-PE memory layout. `spec::compile` lowers it; the physics arrives
/// as the (file-local) TpfaKernel.
[[nodiscard]] spec::StencilSpec make_tpfa_spec(
    const TpfaKernelOptions& options);

class TpfaKernel;

/// The per-PE program. Instantiated once per PE by the launcher — a thin
/// facade over the compiled-spec engine that keeps the historical
/// accessors (tests and benches construct it directly). `compiled` is
/// compile(make_tpfa_spec(options)), built once per load and shared by
/// every PE.
class TpfaPeProgram final : public spec::SpecPeProgram {
 public:
  TpfaPeProgram(Coord2 coord, Coord2 fabric_size, Extents3 mesh_extents,
                TpfaKernelOptions options, physics::FluidProperties fluid,
                PeColumnData data,
                std::shared_ptr<const spec::CompiledSpec> compiled);

  /// Residual column after the final completed iteration.
  [[nodiscard]] std::span<const f32> residual() const noexcept;
  /// Pressure column after the final completed iteration.
  [[nodiscard]] std::span<const f32> pressure() const noexcept;
  [[nodiscard]] i32 completed_iterations() const noexcept {
    return completed_rounds();
  }

  /// Accounting-only footprint of the program's data in PE memory (bytes)
  /// for a given depth and buffer-reuse mode, excluding the fixed code
  /// footprint. Equals compile(make_tpfa_spec(...)).data_footprint_bytes.
  [[nodiscard]] static usize data_footprint_bytes(i32 nz, bool reuse_buffers);

  /// Reserved bytes modeling program code + runtime structures. Sized so
  /// that, with buffer reuse enabled, the deepest column fitting in the
  /// default 48 KiB PE memory is Nz = 246 — the paper's maximum.
  static constexpr usize kCodeFootprintBytes = 6800;

 private:
  TpfaKernel* physics_;  ///< borrowed from the engine-owned kernel
};

}  // namespace fvf::core
