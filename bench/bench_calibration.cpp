// Methodology check: validates the affine cycles-per-iteration model
// (cycles = a + b*Nz) used to extrapolate the event simulator's measured
// makespans to the paper's 750x994x246 mesh, and reports the fabric
// utilization the simulator sees at bench scale.
#include <sstream>

#include "bench/bench_common.hpp"
#include "wse/stats.hpp"

namespace fvf::bench {
namespace {

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  const BenchScale scale = BenchScale::from_cli(cli);

  // --- affine model fit quality -----------------------------------------------
  print_header("Cycle-model validation: fit at two depths, test at others");
  core::DataflowOptions base;
  const core::CycleModel model =
      core::calibrate_cycle_model(scale.calibration(false), base);
  std::cout << "Fitted: cycles/iter = " << format_fixed(model.base_cycles, 1)
            << " + " << format_fixed(model.cycles_per_layer, 2) << " * Nz  "
            << "(from Nz = " << scale.nz_low << " and " << scale.nz_high
            << ")\n";

  TextTable table({"Nz", "measured cycles/iter", "predicted", "error"});
  f64 worst = 0.0;
  for (const i32 nz : {8, 16, 20, 28, 44, 64}) {
    core::DataflowOptions options;
    options.iterations = scale.iterations;
    const physics::FlowProblem problem = physics::make_benchmark_problem(
        Extents3{scale.fabric, scale.fabric, nz}, scale.seed);
    const f64 measured =
        core::measure_cycles_per_iteration(problem, options);
    const f64 predicted = model.cycles_per_iteration(nz);
    const f64 error = std::abs(predicted - measured) / measured;
    worst = std::max(worst, error);
    table.add_row({std::to_string(nz), format_fixed(measured, 0),
                   format_fixed(predicted, 0),
                   format_fixed(100.0 * error, 2) + "%"});
  }
  std::cout << table.render();
  std::cout << "Worst extrapolation error: " << format_fixed(100.0 * worst, 2)
            << "% (the paper-scale estimate at Nz = 246 extrapolates the "
               "same line)\n";

  // --- fabric utilization --------------------------------------------------------
  print_header("Fabric utilization at bench scale");
  const Extents3 ext{scale.fabric, scale.fabric, scale.nz_high};
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(ext, scale.seed);

  wse::Fabric fabric(ext.nx, ext.ny, base.timings);
  core::TpfaKernelOptions kernel;
  kernel.iterations = scale.iterations;
  const auto compiled = std::make_shared<const spec::CompiledSpec>(
      spec::compile(core::make_tpfa_spec(kernel)));
  core::ColumnExtractor columns(problem);
  fabric.load([&](Coord2 coord, Coord2 fabric_size) {
    return std::make_unique<core::TpfaPeProgram>(
        coord, fabric_size, ext, kernel, problem.fluid(),
        columns(coord.x, coord.y), compiled);
  });
  const wse::RunReport report = fabric.run();
  if (!report.ok()) {
    std::cerr << "run failed: " << report.errors[0] << '\n';
    return 1;
  }
  const wse::FabricUtilization util =
      wse::analyze_utilization(fabric, report);
  TextTable util_table({"metric", "value"}, {Align::Left, Align::Right});
  util_table.add_row({"makespan [cycles]",
                      format_fixed(util.makespan_cycles, 0)});
  util_table.add_row({"mean PE busy [cycles]",
                      format_fixed(util.mean_pe_cycles, 0)});
  util_table.add_row({"PE busy min/max",
                      format_fixed(util.min_pe_cycles, 0) + " / " +
                          format_fixed(util.max_pe_cycles, 0)});
  util_table.add_row({"load imbalance (max/mean)",
                      format_fixed(util.imbalance, 3)});
  util_table.add_row({"mean utilization",
                      format_fixed(100.0 * util.mean_utilization, 1) + "%"});
  util_table.add_row({"link wavelets total",
                      format_count(static_cast<i64>(
                          util.total_link_wavelets))});
  std::ostringstream busiest;
  busiest << '(' << util.busiest_router.x << ',' << util.busiest_router.y
          << ") with "
          << format_count(static_cast<i64>(util.max_router_wavelets))
          << " wavelets";
  util_table.add_row({"busiest router", busiest.str()});
  std::cout << util_table.render();
  std::cout << "\nPer-PE busy-cycle load map (interior PEs carry the full "
               "10-face stencil; edges less):\n"
            << wse::render_load_map(fabric);
  return worst < 0.05 ? 0 : 1;
}

}  // namespace
}  // namespace fvf::bench

int main(int argc, const char** argv) { return fvf::bench::run(argc, argv); }
