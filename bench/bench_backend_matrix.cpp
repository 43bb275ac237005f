// Cross-backend comparison matrix: every kernel in the spec::registry
// runs end-to-end on both backends through the fvf::api field-equation
// entry point — the per-program generalization of bench_table1's
// TPFA-only WSE-vs-GPU row.
//
// For each program the sidecar records one `<kernel>_wse` and one
// `<kernel>_gpusim` case (simulated device seconds, work counts) plus
// the cross-backend parity metrics: the order-insensitive kernels
// (tpfa, transport, heat) must agree bitwise, the f32-sum-reduction
// kernels (cg, wave, impes) to reduction tolerance. Both simulators are
// deterministic, so the bench_compare gate holds these numbers tight.
#include <cmath>

#include "api/api.hpp"
#include "bench/bench_common.hpp"

namespace fvf::bench {
namespace {

/// Max |a - b| over max |a| of the two result fields.
f64 max_rel_diff(const Array3<f32>& a, const Array3<f32>& b) {
  f64 scale = 0.0;
  for (i64 i = 0; i < a.size(); ++i) {
    scale = std::max(scale, std::abs(static_cast<f64>(a[i])));
  }
  f64 max_diff = 0.0;
  for (i64 i = 0; i < a.size(); ++i) {
    const f64 diff =
        std::abs(static_cast<f64>(a[i]) - static_cast<f64>(b[i]));
    max_diff = std::max(max_diff, scale > 0.0 ? diff / scale : diff);
  }
  return max_diff;
}

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  BenchJsonWriter json("backend_matrix", cli);

  print_header("Cross-backend matrix: registry kernels on wse vs gpusim");
  TextTable table({"kernel", "wse dev [s]", "gpusim dev [s]", "gpu kernels",
                   "max rel diff", "parity"});

  int failures = 0;
  for (const api::KernelRecord& kernel : api::kernel_records()) {
    api::FieldEquationSpec spec;
    spec.kernel = kernel.name;
    spec.nx = static_cast<i32>(cli.get_int("nx", 8));
    spec.ny = static_cast<i32>(cli.get_int("ny", 8));
    spec.nz = static_cast<i32>(cli.get_int("nz", 6));
    spec.seed = static_cast<u64>(cli.get_int("seed", 42));
    // The kernel defaults, but 2 IMPES windows instead of 3 to keep the
    // 12-run matrix CI-affordable.
    spec.iterations = kernel.name == "impes" ? 2 : 0;

    const api::FieldEquationResult wse =
        api::run_field_equation(spec, api::Backend::Wse);
    const api::FieldEquationResult gpu =
        api::run_field_equation(spec, api::Backend::Gpusim);

    const f64 rel = max_rel_diff(wse.field, gpu.field);
    const bool bitwise = wse.result_digest == gpu.result_digest;
    // The fabric accumulates per-face fmacs in arrival order and reduces
    // dots over trees; the gpusim backend applies faces in a fixed order
    // and reduces in raster order. Order-insensitive kernels match
    // exactly, the rest to f32 reduction tolerance.
    const bool ok = bitwise || rel < 1e-3;
    failures += ok ? 0 : 1;

    const std::string name(kernel.name);
    table.add_row({name, format_fixed(wse.device_seconds, 6),
                   format_fixed(gpu.device_seconds, 6),
                   std::to_string(gpu.gpu.kernels_launched),
                   format_fixed(rel, 9),
                   bitwise ? "bitwise" : (ok ? "tolerance" : "FAIL")});

    json.add_case(name + "_wse", wse.fabric);
    json.add_metric("work", static_cast<f64>(wse.work));
    BenchJsonCase& gpu_case = json.add_case(name + "_gpusim");
    gpu_case.device_seconds = gpu.device_seconds;
    json.add_metric("work", static_cast<f64>(gpu.work));
    json.add_metric("gpu_kernels_launched",
                    static_cast<f64>(gpu.gpu.kernels_launched));
    json.add_metric("gpu_occupancy", gpu.gpu.occupancy);
    json.add_metric("max_rel_diff", rel);
    json.add_metric("bitwise_parity", bitwise ? 1.0 : 0.0);
  }
  std::cout << table.render();
  if (failures > 0) {
    std::cerr << failures << " kernel(s) exceeded the parity tolerance\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fvf::bench

int main(int argc, const char** argv) { return fvf::bench::run(argc, argv); }
