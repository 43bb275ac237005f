#include "api/api.hpp"

#include <bit>
#include <cmath>
#include <iterator>
#include <sstream>

#include "baseline/baseline.hpp"
#include "common/assert.hpp"
#include "common/timer.hpp"
#include "core/fabric_impes.hpp"
#include "core/launcher.hpp"
#include "core/wave_program.hpp"
#include "gpusim/occupancy.hpp"
#include "spec/heat.hpp"
#include "wse/fault.hpp"

namespace fvf::api {

/// One run being executed: the resolved spec, the kernel's problem kind
/// and the caller's context, with the input builders every runner shares.
class Scenario {
 public:
  Scenario(const FieldEquationSpec& resolved, ProblemKind kind,
           const RunContext& lent)
      : spec(resolved), context(lent), kind_(kind) {}

  /// The canonical problem, from the context's memo when it has one.
  [[nodiscard]] std::shared_ptr<const physics::FlowProblem> problem() const {
    return memo(context.problems, problem_key(), [this] {
      const Extents3 ext{spec.nx, spec.ny, spec.nz};
      if (kind_ == ProblemKind::Injection) {
        physics::ProblemSpec problem_spec;
        problem_spec.extents = ext;
        problem_spec.spacing = mesh::Spacing3{10.0, 10.0, 2.0};
        problem_spec.geomodel = physics::GeomodelKind::Homogeneous;
        problem_spec.seed = spec.seed;
        return physics::FlowProblem(problem_spec);
      }
      return physics::make_benchmark_problem(ext, spec.seed);
    });
  }

  /// The Jacobi-scaled system of the problem at spec.dt. The problem is
  /// fetched only when the setup itself has to be built.
  [[nodiscard]] std::shared_ptr<const LinearSetup> setup() const {
    const u64 key = fnv1a_mix(problem_key(), std::bit_cast<u64>(spec.dt));
    return memo(context.setups, key, [this] {
      const core::LinearStencil stencil =
          core::build_linear_stencil(*problem(), spec.dt);
      const core::ManufacturedSystem manufactured =
          core::manufacture_solution(stencil);
      LinearSetup setup;
      setup.scaled = core::jacobi_scale(stencil);
      setup.scaled_rhs = core::scale_rhs(setup.scaled, manufactured.rhs);
      return setup;
    });
  }

  /// Applies the spec's threads and fault scenario plus the context's
  /// lint level to a fabric launch.
  void configure(wse::ExecutionOptions& execution, lint::Level& lint) const {
    execution.threads = spec.threads;
    execution.fault = wse::FaultConfig::uniform(spec.fault_seed, spec.fault_rate);
    execution.fault.flip_color_mask = 0x00FFu;
    lint = context.lint;
  }

  const FieldEquationSpec& spec;
  const RunContext& context;

 private:
  template <typename T, typename Build>
  static std::shared_ptr<const T> memo(const Memo<T>& cache, u64 key,
                                       Build build) {
    if (!cache) {
      return std::make_shared<const T>(build());
    }
    return cache(key, build);
  }

  [[nodiscard]] u64 problem_key() const {
    u64 key = fnv1a_mix(kDigestSeed, static_cast<u64>(kind_));
    key = fnv1a_mix(key, static_cast<u64>(spec.nx));
    key = fnv1a_mix(key, static_cast<u64>(spec.ny));
    key = fnv1a_mix(key, static_cast<u64>(spec.nz));
    return fnv1a_mix(key, spec.seed);
  }

  ProblemKind kind_;
};

namespace {

u64 digest_pair(const Array3<f32>& first, const Array3<f32>& second) {
  return digest_field(digest_field(kDigestSeed, first), second);
}

void tag_gpu(FieldEquationResult& result, const gpusim::GpuRunInfo& info) {
  result.gpu = info;
  result.device_seconds = info.device_seconds;
  result.host_seconds = info.host_seconds;
}

void tag_fabric(FieldEquationResult& result, const dataflow::RunInfo& info,
                f64 host_seconds) {
  result.fabric = info;
  result.device_seconds = info.device_seconds;
  result.host_seconds = host_seconds;
  if (!info.errors.empty()) {
    result.error = info.errors.front();
  }
}

// ---------------------------------------------------------------- tpfa --

core::DataflowOptions tpfa_options(const Scenario& s) {
  core::DataflowOptions options;
  options.iterations = s.spec.iterations;
  s.configure(options.execution, options.lint);
  return options;
}

void tpfa_wse(const Scenario& s, FieldEquationResult& result) {
  const auto problem = s.problem();
  WallTimer timer;
  const core::DataflowResult run =
      core::run_dataflow_tpfa(*problem, tpfa_options(s));
  tag_fabric(result, run, timer.seconds());
  result.field = run.residual;
  result.result_digest = digest_pair(run.residual, run.pressure);
  result.work = s.spec.iterations;
}

/// The switch-protocol exchange has no halo reliability layer.
lint::Report tpfa_lint(const Scenario& s, bool /*reliability*/) {
  return core::load_dataflow_tpfa(*s.problem(), tpfa_options(s))
      .harness->lint_report();
}

void tpfa_gpusim(const Scenario& s, FieldEquationResult& result) {
  // TPFA on the GPU is the paper's hand-written CUDA baseline, which
  // shares its per-cell flux arithmetic with the serial oracle.
  baseline::BaselineOptions options;
  options.iterations = s.spec.iterations;
  const baseline::BaselineResult run =
      baseline::run_cuda_baseline(*s.problem(), options);
  gpusim::GpuRunInfo info;
  info.device_seconds = run.device_seconds;
  info.host_seconds = run.host_seconds;
  info.kernels_launched = run.kernels_launched;
  info.cells_processed = run.cells_processed;
  info.occupancy =
      gpusim::estimate_occupancy(gpusim::BlockDim{}).theoretical_occupancy;
  tag_gpu(result, info);
  result.field = run.residual;
  result.result_digest = digest_pair(run.residual, run.pressure);
  result.work = s.spec.iterations;
}

// ------------------------------------------------------------------ cg --

core::DataflowCgOptions cg_options(const Scenario& s) {
  core::DataflowCgOptions options;
  options.kernel.max_iterations = s.spec.iterations;
  options.kernel.relative_tolerance = static_cast<f32>(s.spec.tol);
  s.configure(options.execution, options.lint);
  return options;
}

void cg_wse(const Scenario& s, FieldEquationResult& result) {
  const auto setup = s.setup();
  WallTimer timer;
  const core::DataflowCgResult run = core::run_dataflow_cg(
      setup->scaled.stencil, setup->scaled_rhs, cg_options(s));
  tag_fabric(result, run, timer.seconds());
  result.field = core::unscale_solution(setup->scaled, run.solution);
  result.result_digest = digest_field(kDigestSeed, result.field);
  result.work = run.iterations;
  result.converged = run.converged;
  result.summary = {{"iterations", static_cast<f64>(run.iterations)},
                    {"converged", run.converged ? 1.0 : 0.0},
                    {"initial_residual_norm", run.initial_residual_norm},
                    {"final_residual_norm", run.final_residual_norm}};
  if (result.error.empty() && !run.converged) {
    std::ostringstream os;
    os << "CG did not converge within " << s.spec.iterations
       << " iterations (||r||/||r0|| = "
       << run.final_residual_norm / run.initial_residual_norm << ")";
    result.error = os.str();
  }
}

lint::Report cg_lint(const Scenario& s, bool reliability) {
  const auto setup = s.setup();
  core::DataflowCgOptions options = cg_options(s);
  options.reliability.enabled = reliability;
  return core::load_dataflow_cg(setup->scaled.stencil, setup->scaled_rhs,
                                options)
      .harness->lint_report();
}

void cg_gpusim(const Scenario& s, FieldEquationResult& result) {
  const auto setup = s.setup();
  gpusim::GpuCgOptions options;
  options.kernel.max_iterations = s.spec.iterations;
  options.kernel.relative_tolerance = static_cast<f32>(s.spec.tol);
  const gpusim::GpuCgResult run =
      gpusim::run_gpu_cg(setup->scaled.stencil, setup->scaled_rhs, options);
  tag_gpu(result, run.info);
  result.field = core::unscale_solution(setup->scaled, run.solution);
  result.result_digest = digest_field(kDigestSeed, result.field);
  result.work = run.iterations;
  result.converged = run.converged;
  result.summary = {{"initial_residual_norm", run.initial_residual_norm},
                    {"final_residual_norm", run.final_residual_norm}};
  if (!run.converged) {
    std::ostringstream os;
    os << "CG did not converge within " << s.spec.iterations
       << " iterations on the gpusim backend";
    result.error = os.str();
  }
}

// ----------------------------------------------------------- transport --

/// The canonical transport inputs: an initial saturation patch and a
/// centre injector over the problem's own initial pressure field.
struct TransportInputs {
  std::shared_ptr<const physics::FlowProblem> problem;
  Array3<f32> saturation;
  Array3<f32> wells;
  f32 pore_volume;
};

TransportInputs transport_inputs(const Scenario& s) {
  TransportInputs in{s.problem(), {}, {}, 0.0f};
  in.saturation = transport_initial_saturation(in.problem->extents());
  in.wells = transport_well_rate(in.problem->extents());
  in.pore_volume = static_cast<f32>(in.problem->mesh().cell_volume() * 0.2);
  return in;
}

core::DataflowTransportOptions transport_options(const Scenario& s,
                                                 const TransportInputs& in) {
  core::DataflowTransportOptions options;
  options.kernel.window_seconds = s.spec.dt;
  options.kernel.pore_volume = in.pore_volume;
  s.configure(options.execution, options.lint);
  return options;
}

void transport_wse(const Scenario& s, FieldEquationResult& result) {
  const TransportInputs in = transport_inputs(s);
  WallTimer timer;
  const core::DataflowTransportResult run = core::run_dataflow_transport(
      *in.problem, in.saturation, in.problem->initial_pressure(), in.wells,
      transport_options(s, in));
  tag_fabric(result, run, timer.seconds());
  result.field = run.saturation;
  result.result_digest = digest_field(kDigestSeed, result.field);
  result.work = run.substeps;
  result.summary = {{"substeps", static_cast<f64>(run.substeps)},
                    {"advanced_seconds", run.advanced_seconds}};
}

lint::Report transport_lint(const Scenario& s, bool reliability) {
  const TransportInputs in = transport_inputs(s);
  core::DataflowTransportOptions options = transport_options(s, in);
  options.reliability.enabled = reliability;
  return core::load_dataflow_transport(*in.problem, in.saturation,
                                       in.problem->initial_pressure(),
                                       in.wells, options)
      .harness->lint_report();
}

void transport_gpusim(const Scenario& s, FieldEquationResult& result) {
  const TransportInputs in = transport_inputs(s);
  gpusim::GpuTransportOptions options;
  options.kernel.window_seconds = s.spec.dt;
  options.kernel.pore_volume = in.pore_volume;
  const gpusim::GpuTransportResult run = gpusim::run_gpu_transport(
      *in.problem, in.saturation, in.problem->initial_pressure(), in.wells,
      options);
  tag_gpu(result, run.info);
  result.field = run.saturation;
  result.result_digest = digest_field(kDigestSeed, result.field);
  result.work = run.substeps;
  result.summary = {{"advanced_seconds", run.advanced_seconds}};
}

// ---------------------------------------------------------------- wave --

constexpr f32 kWaveKappa = 0.4f;

Array3<f32> wave_pulse(const FieldEquationSpec& spec) {
  return core::gaussian_pulse(Extents3{spec.nx, spec.ny, spec.nz}, 1.0, 2.0);
}

core::DataflowWaveOptions wave_options(const Scenario& s) {
  core::DataflowWaveOptions options;
  options.kernel.timesteps = s.spec.iterations;
  options.kernel.kappa = kWaveKappa;
  s.configure(options.execution, options.lint);
  return options;
}

void wave_wse(const Scenario& s, FieldEquationResult& result) {
  const auto setup = s.setup();
  WallTimer timer;
  const core::DataflowWaveResult run = core::run_dataflow_wave(
      setup->scaled.stencil, wave_pulse(s.spec), wave_options(s));
  tag_fabric(result, run, timer.seconds());
  result.field = run.field;
  result.result_digest = digest_field(kDigestSeed, result.field);
  result.work = s.spec.iterations;
}

lint::Report wave_lint(const Scenario& s, bool reliability) {
  const auto setup = s.setup();
  core::DataflowWaveOptions options = wave_options(s);
  options.reliability.enabled = reliability;
  return core::load_dataflow_wave(setup->scaled.stencil, wave_pulse(s.spec),
                                  options)
      .harness->lint_report();
}

void wave_gpusim(const Scenario& s, FieldEquationResult& result) {
  const auto setup = s.setup();
  gpusim::GpuWaveOptions options;
  options.kernel.timesteps = s.spec.iterations;
  options.kernel.kappa = kWaveKappa;
  const gpusim::GpuWaveResult run =
      gpusim::run_gpu_wave(setup->scaled.stencil, wave_pulse(s.spec), options);
  tag_gpu(result, run.info);
  result.field = run.field;
  result.result_digest = digest_field(kDigestSeed, result.field);
  result.work = s.spec.iterations;
}

// --------------------------------------------------------------- impes --

constexpr f64 kImpesWellRate = 2e-4;

Coord3 impes_well(const FieldEquationSpec& spec) {
  return Coord3{spec.nx / 2, spec.ny / 2, 0};
}

void impes_wse(const Scenario& s, FieldEquationResult& result) {
  const auto problem = s.problem();
  core::FabricImpesOptions options;
  s.configure(options.execution, options.lint);
  WallTimer timer;
  core::FabricImpesSimulator sim(*problem, options);
  sim.add_well(impes_well(s.spec), kImpesWellRate);

  ImpesHook no_hook;
  ImpesHook& hook = s.context.impes != nullptr ? *s.context.impes : no_hook;
  ImpesProgress progress;
  hook.resume(sim, progress);
  const i32 first = progress.windows_done;
  while (progress.windows_done < s.spec.iterations) {
    if (progress.windows_done > first && hook.stop(progress)) {
      break;
    }
    const core::FabricImpesWindow report = sim.advance_window(s.spec.dt);
    dataflow::accumulate(progress.fabric, report.fabric);
    progress.cg_iterations += report.cg_iterations;
    progress.transport_substeps += report.transport_substeps;
    result.converged = result.converged && report.cg_converged;
    ++progress.windows_done;
    hook.window_done(sim, progress);
  }
  tag_fabric(result, progress.fabric, timer.seconds());
  result.field = sim.saturation();
  result.result_digest = digest_pair(sim.saturation(), sim.pressure());
  result.work = progress.windows_done;
  result.summary = {
      {"windows", static_cast<f64>(s.spec.iterations)},
      {"cg_iterations", static_cast<f64>(progress.cg_iterations)},
      {"transport_substeps", static_cast<f64>(progress.transport_substeps)},
      {"co2_in_place", sim.co2_in_place()}};
}

void impes_gpusim(const Scenario& s, FieldEquationResult& result) {
  const auto problem = s.problem();
  Array3<f32> wells(problem->extents(), 0.0f);
  const Coord3 well = impes_well(s.spec);
  wells(well.x, well.y, well.z) = static_cast<f32>(kImpesWellRate);
  const gpusim::GpuImpesResult run = gpusim::run_gpu_impes(
      *problem, wells, s.spec.dt, s.spec.iterations, gpusim::GpuImpesOptions{});
  tag_gpu(result, run.info);
  f64 cg_iterations = 0.0;
  f64 substeps = 0.0;
  for (const gpusim::GpuImpesWindow& window : run.windows) {
    cg_iterations += window.cg_iterations;
    substeps += window.transport_substeps;
    result.converged = result.converged && window.cg_converged;
  }
  result.field = run.saturation;
  result.result_digest = digest_pair(run.saturation, run.pressure);
  result.work = s.spec.iterations;
  result.summary = {{"cg_iterations", cg_iterations},
                    {"transport_substeps", substeps}};
}

/// Each IMPES window is a cg launch plus a transport launch on the same
/// fabric; its report is the union of both loads on the injection problem.
lint::Report impes_lint(const Scenario& s, bool reliability) {
  lint::Report combined = cg_lint(s, reliability);
  lint::Report transport = transport_lint(s, reliability);
  combined.diagnostics.insert(
      combined.diagnostics.end(),
      std::make_move_iterator(transport.diagnostics.begin()),
      std::make_move_iterator(transport.diagnostics.end()));
  return combined;
}

// ---------------------------------------------------------------- heat --

Array3<f32> heat_initial(const FieldEquationSpec& spec) {
  return spec::heat_initial_field(Extents3{spec.nx, spec.ny, spec.nz},
                                  spec.seed);
}

spec::DataflowHeatOptions heat_options(const Scenario& s) {
  spec::DataflowHeatOptions options;
  options.kernel.steps = s.spec.iterations;
  s.configure(options.execution, options.lint);
  return options;
}

void heat_wse(const Scenario& s, FieldEquationResult& result) {
  WallTimer timer;
  const spec::DataflowHeatResult run =
      spec::run_dataflow_heat(heat_initial(s.spec), heat_options(s));
  tag_fabric(result, run, timer.seconds());
  result.field = run.field;
  result.result_digest = digest_field(kDigestSeed, result.field);
  result.work = run.steps_completed;
  result.summary = {{"steps", static_cast<f64>(run.steps_completed)}};
}

lint::Report heat_lint(const Scenario& s, bool reliability) {
  spec::DataflowHeatOptions options = heat_options(s);
  options.reliability.enabled = reliability;
  return spec::load_dataflow_heat(heat_initial(s.spec), options)
      .harness->lint_report();
}

void heat_gpusim(const Scenario& s, FieldEquationResult& result) {
  gpusim::GpuHeatOptions options;
  options.kernel.steps = s.spec.iterations;
  const gpusim::GpuHeatResult run =
      gpusim::run_gpu_heat(heat_initial(s.spec), options);
  tag_gpu(result, run.info);
  result.field = run.field;
  result.result_digest = digest_field(kDigestSeed, result.field);
  result.work = run.steps_completed;
}

// -------------------------------------------------------------- records --

constexpr KernelRecord kKernels[] = {
    {"tpfa", "two-point flux pressure iteration (switch-protocol exchange)",
     2, 3600.0, ProblemKind::Benchmark,
     [] { return spec::compile(core::make_tpfa_spec({})); }, tpfa_wse,
     tpfa_gpusim, tpfa_lint},
    {"cg", "conjugate-gradient pressure solve with dot-product all-reduce",
     200, 3600.0, ProblemKind::Benchmark,
     [] { return spec::compile(core::make_cg_spec({})); }, cg_wse, cg_gpusim,
     cg_lint},
    {"transport", "explicit saturation transport with CFL dt min-reduce", 1,
     900.0, ProblemKind::Benchmark,
     [] { return spec::compile(core::make_transport_spec({})); },
     transport_wse, transport_gpusim, transport_lint},
    {"wave", "second-order acoustic wave kernel (leapfrog)", 8, 3600.0,
     ProblemKind::Benchmark,
     [] { return spec::compile(core::make_wave_spec({})); }, wave_wse,
     wave_gpusim, wave_lint},
    {"impes", "IMPES pressure/transport loop; runs cg + transport launches",
     3, 900.0, ProblemKind::Injection, nullptr, impes_wse, impes_gpusim,
     impes_lint},
    {"heat", "2D heat diffusion, 9-point stencil", 10, 3600.0,
     ProblemKind::None, [] { return spec::compile(spec::make_heat_spec({})); },
     heat_wse, heat_gpusim, heat_lint},
};

}  // namespace

std::span<const KernelRecord> kernel_records() noexcept { return kKernels; }

const KernelRecord& find_kernel(std::string_view name) {
  for (const KernelRecord& record : kKernels) {
    if (record.name == name) {
      return record;
    }
  }
  std::ostringstream inventory;
  for (const KernelRecord& record : kKernels) {
    inventory << (&record == kKernels ? "" : "|") << record.name;
  }
  FVF_REQUIRE_MSG(false, "unknown kernel '" << name << "' (registered kernels: "
                                            << inventory.str() << ")");
  return kKernels[0];  // unreachable
}

FieldEquationSpec resolve_spec(const FieldEquationSpec& spec) {
  const KernelRecord& record = find_kernel(spec.kernel);
  FieldEquationSpec resolved = spec;
  if (resolved.iterations == 0) {
    resolved.iterations = record.default_iterations;
  }
  if (resolved.dt == 0.0) {
    resolved.dt = record.default_dt;
  }
  FVF_REQUIRE_MSG(resolved.nx > 0 && resolved.ny > 0 && resolved.nz > 0,
                  "request extents must be positive ("
                      << resolved.nx << 'x' << resolved.ny << 'x'
                      << resolved.nz << ')');
  FVF_REQUIRE_MSG(resolved.nx <= kMaxNx, "request field 'nx' = "
                                             << resolved.nx << " exceeds "
                                             << kMaxNx);
  FVF_REQUIRE_MSG(resolved.ny <= kMaxNy, "request field 'ny' = "
                                             << resolved.ny << " exceeds "
                                             << kMaxNy);
  FVF_REQUIRE_MSG(resolved.nz <= kMaxNz, "request field 'nz' = "
                                             << resolved.nz << " exceeds "
                                             << kMaxNz);
  FVF_REQUIRE_MSG(resolved.iterations > 0, "request field 'iterations' = "
                                               << resolved.iterations
                                               << " must be positive");
  FVF_REQUIRE_MSG(std::isfinite(resolved.dt) && resolved.dt > 0.0,
                  "request field 'dt' = " << resolved.dt
                                          << " must be positive and finite");
  FVF_REQUIRE_MSG(std::isfinite(resolved.tol) && resolved.tol > 0.0,
                  "request field 'tol' = " << resolved.tol
                                           << " must be positive and finite");
  FVF_REQUIRE_MSG(resolved.fault_rate >= 0.0 && resolved.fault_rate <= 1.0,
                  "request field 'fault_rate' = " << resolved.fault_rate
                                                  << " must be in [0, 1]");
  FVF_REQUIRE_MSG(resolved.threads >= 1 && resolved.threads <= kMaxThreads,
                  "request field 'threads' = " << resolved.threads
                                               << " must be in [1, "
                                               << kMaxThreads << ']');
  return resolved;
}

FieldEquationResult run_field_equation(const FieldEquationSpec& raw,
                                       Backend backend,
                                       const RunContext& context) {
  const FieldEquationSpec spec = resolve_spec(raw);
  const KernelRecord& record = find_kernel(spec.kernel);
  const Scenario scenario(spec, record.problem, context);
  FieldEquationResult result;
  result.backend = backend;
  result.kernel = spec.kernel;
  if (backend == Backend::Wse) {
    record.wse(scenario, result);
  } else {
    record.gpusim(scenario, result);
    result.summary.emplace_back("work", static_cast<f64>(result.work));
    result.summary.emplace_back(
        "gpu_kernels_launched", static_cast<f64>(result.gpu.kernels_launched));
    result.summary.emplace_back("gpu_occupancy", result.gpu.occupancy);
  }
  return result;
}

lint::Report lint_field_equation(const FieldEquationSpec& raw,
                                 bool reliability) {
  const FieldEquationSpec spec = resolve_spec(raw);
  const KernelRecord& record = find_kernel(spec.kernel);
  const RunContext context;
  return record.lint(Scenario(spec, record.problem, context), reliability);
}

Array3<f32> transport_initial_saturation(Extents3 ext) {
  Array3<f32> saturation(ext, 0.0f);
  saturation(ext.nx / 2, ext.ny / 2, 0) = 0.6f;
  if (ext.ny / 2 > 0) {
    saturation(ext.nx / 2, ext.ny / 2 - 1, ext.nz > 1 ? 1 : 0) = 0.3f;
  }
  return saturation;
}

Array3<f32> transport_well_rate(Extents3 ext) {
  Array3<f32> wells(ext, 0.0f);
  wells(ext.nx / 2, ext.ny / 2, 0) = 1e-4f;
  return wells;
}

u64 digest_field(u64 hash, const Array3<f32>& field) noexcept {
  const Extents3 ext = field.extents();
  hash = fnv1a_mix(hash, static_cast<u64>(ext.nx));
  hash = fnv1a_mix(hash, static_cast<u64>(ext.ny));
  hash = fnv1a_mix(hash, static_cast<u64>(ext.nz));
  for (const f32 value : field.flat()) {
    hash = fnv1a_mix(hash, std::bit_cast<u32>(value));
  }
  return hash;
}

}  // namespace fvf::api
