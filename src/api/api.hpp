/// \file api.hpp
/// \brief The scenario-level field-equation entry point: one call runs
///        any registered kernel on either backend and returns a
///        backend-tagged result with the shared timing surface.
///
/// Each kernel has one KernelRecord here, the only kernel inventory: its
/// name and summary, default work count and timestep, the canonical
/// problem it builds, its compiled spec (null for the IMPES driver), one
/// runner per backend and one lint runner. `fvf_spec`, `fvf_lint`, serve
/// and the benches all read these records. `run_field_equation` is the
/// only place a scenario is built and dispatched; fvf::serve calls it for
/// every request, lending its caches, lint level and IMPES window hook
/// through a RunContext. `lint_field_equation` loads the same scenario
/// without running it and returns the static verifier's report. Both
/// backends consume identical inputs and share the physics
/// (core::transport_face, spec::heat_face_weight,
/// core::build_impes_pressure_system), so their results agree bitwise
/// for the order-insensitive kernels (tpfa, transport, heat) and to
/// reduction tolerance for the f32-sum kernels (cg, wave, impes).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "common/array3d.hpp"
#include "core/linear_stencil.hpp"
#include "dataflow/run_info.hpp"
#include "gpusim/kernels.hpp"
#include "lint/lint.hpp"
#include "physics/problem.hpp"
#include "spec/compile.hpp"
#include "wse/memory.hpp"

namespace fvf::core {
class FabricImpesSimulator;
}

namespace fvf::api {

/// One field-equation scenario: a kernel name plus the content fields
/// that determine its result bit-for-bit. The 0 sentinels resolve to the
/// kernel record's defaults, so a defaulted spec and an explicit one are
/// the same scenario.
struct FieldEquationSpec {
  std::string kernel = "tpfa";  ///< resolved against kernel_records()
  i32 nx = 6;
  i32 ny = 6;
  i32 nz = 4;
  u64 seed = 42;       ///< geomodel / initial-field seed
  /// Work count: TPFA iterations, CG max iterations, transport windows,
  /// wave/heat steps, IMPES windows; 0 = the kernel's default.
  i32 iterations = 0;
  /// Timestep / window seconds: CG+wave stencil dt, transport/IMPES
  /// window length; 0 = the kernel's default.
  f64 dt = 0.0;
  f64 tol = 1e-5;  ///< CG relative tolerance
  /// Fault scenario (wse::FaultConfig::uniform(fault_seed, fault_rate),
  /// bit flips restricted to the retransmit-protected halo colors).
  /// The gpusim backend has no fault injection and ignores these.
  u64 fault_seed = 1;
  f64 fault_rate = 0.0;
  /// WSE event-engine host threads. Results are bit-identical for every
  /// value; ignored by the gpusim backend.
  i32 threads = 1;
};

/// A backend-tagged field-equation result with the shared RunInfo/timing
/// surface both backends report into.
struct FieldEquationResult {
  Backend backend = Backend::Wse;
  std::string kernel;
  /// Simulated device time: fabric clock (wse) or the analytic GPU
  /// timeline of kernels + PCIe copies (gpusim).
  f64 device_seconds = 0.0;
  /// Wall-clock of the functional execution on this host.
  f64 host_seconds = 0.0;
  /// Work performed: iterations (tpfa/cg), substeps (transport), steps
  /// (wave/heat), windows (impes).
  i32 work = 0;
  bool converged = true;  ///< CG/IMPES solves; always true otherwise
  /// Why the run failed: the first fabric error, or CG non-convergence.
  /// Empty on success.
  std::string error;
  /// The kernel's primary field: residual (tpfa), solution (cg),
  /// saturation (transport/impes), wave field, temperature (heat).
  Array3<f32> field;
  /// FNV-1a digest over the result fields' bit patterns — the digest
  /// fvf::serve publishes, so cross-backend and cross-layer results are
  /// comparable by one number.
  u64 result_digest = 0;
  /// Kernel-specific scalars (iterations, residual norms, substeps...);
  /// gpusim runs add work, gpu_kernels_launched and gpu_occupancy.
  std::vector<std::pair<std::string, f64>> summary;
  /// Full fabric accounting (populated when backend == Wse).
  dataflow::RunInfo fabric{};
  /// Full GPU accounting (populated when backend == Gpusim).
  gpusim::GpuRunInfo gpu{};
};

// --- run context -----------------------------------------------------------

/// A memo of built inputs by content key: returns the value cached under
/// `key`, building and caching it with `build` on a miss.
template <typename T>
using Memo = std::function<std::shared_ptr<const T>(
    u64 key, const std::function<T()>& build)>;

/// The Jacobi-scaled linear system the CG and wave scenarios share: a
/// deterministic function of (problem, dt).
struct LinearSetup {
  core::ScaledSystem scaled;
  Array3<f32> scaled_rhs;
};

/// Running totals of the wse IMPES window loop, shared with its hook.
struct ImpesProgress {
  i32 windows_done = 0;
  dataflow::RunInfo fabric;  ///< accumulated over every window done
  i64 cg_iterations = 0;
  i64 transport_substeps = 0;
};

/// Callbacks on the wse IMPES window loop (fvf::serve's deadlines and
/// checkpoints). The defaults do nothing.
class ImpesHook {
 public:
  ImpesHook() = default;
  ImpesHook(const ImpesHook&) = delete;
  ImpesHook& operator=(const ImpesHook&) = delete;
  virtual ~ImpesHook() = default;
  /// Before the first window: may restore saved state into `sim` and
  /// `progress`; the loop then continues from progress.windows_done.
  virtual void resume(core::FabricImpesSimulator& /*sim*/,
                      ImpesProgress& /*progress*/) {}
  /// Between windows, never before the first one this run executes; a
  /// launch is never interrupted. Returning true ends the run early.
  virtual bool stop(const ImpesProgress& /*progress*/) { return false; }
  /// After each window.
  virtual void window_done(const core::FabricImpesSimulator& /*sim*/,
                           const ImpesProgress& /*progress*/) {}
};

/// What a long-lived caller lends one run. The default context builds
/// every input fresh, lints nothing, and runs IMPES to completion.
struct RunContext {
  Memo<physics::FlowProblem> problems;  ///< null = build fresh
  Memo<LinearSetup> setups;             ///< null = build fresh
  lint::Level lint = lint::Level::Off;  ///< wse load verification level
  ImpesHook* impes = nullptr;           ///< wse IMPES hook; null = none
};

// --- kernel records --------------------------------------------------------

/// The canonical problem a kernel's scenario builds.
enum class ProblemKind : u8 {
  None,       ///< no FlowProblem: heat's field derives from extents+seed
  Benchmark,  ///< physics::make_benchmark_problem (log-normal geomodel)
  Injection,  ///< the homogeneous injection geomodel of the IMPES demos
};

/// One run being executed: the resolved spec, the kernel's problem kind
/// and the caller's context (defined in api.cpp).
class Scenario;

using KernelRunner = void (*)(const Scenario&, FieldEquationResult&);

/// Loads the scenario's wse programs without running them (halo
/// reliability on or off) and returns the full static lint report.
using KernelLinter = lint::Report (*)(const Scenario&, bool reliability);

/// Everything the api knows about one kernel. Adding a kernel means
/// adding its record (and its runners) in api.cpp.
struct KernelRecord {
  std::string_view name;
  /// One line for `fvf_spec --list-kernels`.
  std::string_view summary;
  i32 default_iterations;
  /// Seconds. Set even for kernels that ignore dt (tpfa, heat), so the
  /// resolved spec, and serve's scenario hash, never holds a 0 sentinel.
  f64 default_dt;
  ProblemKind problem;
  /// Builds the default-options CompiledSpec, so the plan can be dumped
  /// and linted from the spec alone. Null for a driver that runs other
  /// kernels' launches and has no single spec (IMPES).
  spec::CompiledSpec (*compile)();
  KernelRunner wse;
  KernelRunner gpusim;
  KernelLinter lint;
};

/// Every kernel, in inventory order.
[[nodiscard]] std::span<const KernelRecord> kernel_records() noexcept;

/// The record named `name`. Throws ContractViolation naming the value
/// and listing every kernel on an unknown name.
[[nodiscard]] const KernelRecord& find_kernel(std::string_view name);

/// Upper bounds resolve_spec enforces. nx and ny are the paper's
/// 750x994 fabric, one PE per mesh column. nz is the deepest column a PE
/// could hold: one f32 per cell in the default PE memory budget. threads
/// bounds the engine's host thread pool.
inline constexpr i32 kMaxNx = 750;
inline constexpr i32 kMaxNy = 994;
inline constexpr i32 kMaxNz =
    static_cast<i32>(wse::PeMemory::kDefaultBudget / sizeof(f32));
inline constexpr i32 kMaxThreads = 256;

/// Returns `spec` with the 0 sentinels replaced by the kernel record's
/// defaults, after validating every field (named errors, since serve
/// passes untrusted request fields straight through).
[[nodiscard]] FieldEquationSpec resolve_spec(const FieldEquationSpec& spec);

/// Runs the named kernel's canonical scenario on `backend`. Throws
/// ContractViolation on an invalid spec; a fabric error or CG
/// non-convergence comes back in FieldEquationResult::error.
[[nodiscard]] FieldEquationResult run_field_equation(
    const FieldEquationSpec& spec, Backend backend,
    const RunContext& context = {});

/// Loads the named kernel's canonical wse scenario without running it
/// and returns its lint report; IMPES reports its cg and transport
/// loads together. Throws ContractViolation on an invalid spec.
[[nodiscard]] lint::Report lint_field_equation(const FieldEquationSpec& spec,
                                               bool reliability);

// --- canonical scenario inputs and digests ---------------------------------

/// The transport scenario's initial saturation patch (centre cells).
[[nodiscard]] Array3<f32> transport_initial_saturation(Extents3 extents);

/// The transport scenario's centre injector (1e-4 at the top centre).
[[nodiscard]] Array3<f32> transport_well_rate(Extents3 extents);

/// The FNV-1a 64 offset basis every scenario digest starts from.
inline constexpr u64 kDigestSeed = 0xcbf29ce484222325ULL;

/// Mixes the 8 little-endian bytes of `value` into an FNV-1a state.
[[nodiscard]] constexpr u64 fnv1a_mix(u64 hash, u64 value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffULL;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// FNV-1a 64 over a field's extents and payload bit patterns, chained
/// onto `hash`.
[[nodiscard]] u64 digest_field(u64 hash, const Array3<f32>& field) noexcept;

}  // namespace fvf::api
