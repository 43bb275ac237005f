// field_equation — the cross-backend field-equation API in one CLI.
//
// Runs any kernel from the registry on either backend through
// fvf::api::run_field_equation and prints the shared timing surface, or
// runs it on BOTH backends and reports the parity of the results:
//
//   ./field_equation --kernel heat --backend gpusim [--nx 8 --ny 8 --nz 4]
//   ./field_equation --kernel cg --backend both [--iterations 200]
//
// --kernel resolves against the spec::registry and --backend against the
// api backend inventory; unknown values fail loudly with the real lists.
#include <cmath>
#include <iostream>

#include "api/api.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/kernel_registry.hpp"
#include "spec/registry.hpp"

namespace {

using namespace fvf;

api::FieldEquationResult run_one(const api::FieldEquationSpec& spec,
                                 api::Backend backend) {
  const api::FieldEquationResult result =
      api::run_field_equation(spec, backend);
  std::cout << "  [" << api::backend_name(result.backend) << "] work="
            << result.work << (result.converged ? "" : " (NOT converged)")
            << "  device " << result.device_seconds * 1e3 << " ms"
            << "  digest " << std::hex << result.result_digest << std::dec
            << "\n";
  if (!result.error.empty()) {
    std::cout << "        error: " << result.error << "\n";
  }
  for (const auto& [name, value] : result.summary) {
    std::cout << "        " << name << " = " << value << "\n";
  }
  return result;
}

}  // namespace

int main(int argc, const char** argv) {
  try {
    const CliParser cli(argc, argv);
    core::register_builtin_kernels();

    api::FieldEquationSpec spec;
    spec.kernel = cli.get_string("kernel", "tpfa");
    spec.nx = static_cast<i32>(cli.get_int("nx", 6));
    spec.ny = static_cast<i32>(cli.get_int("ny", 6));
    spec.nz = static_cast<i32>(cli.get_int("nz", 4));
    spec.seed = static_cast<u64>(cli.get_int("seed", 42));
    spec.iterations = static_cast<i32>(cli.get_int("iterations", 0));
    spec.dt = cli.get_double("dt", 0.0);
    spec.tol = cli.get_double("tol", 1e-5);
    spec.threads = static_cast<i32>(cli.get_int("threads", 1));

    const std::string backend_flag = cli.get_string("backend", "both");
    std::cout << "kernel '" << spec.kernel << "' (registry: "
              << spec::kernel_name_list() << ")\n";

    if (backend_flag != "both") {
      // Unknown values throw here, listing the registered backends.
      (void)run_one(spec, api::parse_backend(backend_flag));
      return 0;
    }

    const api::FieldEquationResult wse =
        run_one(spec, api::Backend::Wse);
    const api::FieldEquationResult gpu =
        run_one(spec, api::Backend::Gpusim);
    FVF_REQUIRE(wse.field.extents() == gpu.field.extents());
    f64 max_rel = 0.0;
    f64 scale = 0.0;
    for (i64 i = 0; i < wse.field.size(); ++i) {
      scale = std::max(scale, std::abs(static_cast<f64>(wse.field[i])));
    }
    for (i64 i = 0; i < wse.field.size(); ++i) {
      const f64 diff = std::abs(static_cast<f64>(wse.field[i]) -
                                static_cast<f64>(gpu.field[i]));
      max_rel = std::max(max_rel, scale > 0.0 ? diff / scale : diff);
    }
    std::cout << "\ncross-backend parity: max |wse - gpusim| / max|wse| = "
              << max_rel
              << (wse.result_digest == gpu.result_digest ? "  (bitwise)"
                                                         : "")
              << "\n";
    // The order-insensitive kernels agree bitwise; the f32-sum kernels
    // (cg/wave/impes) to reduction tolerance.
    FVF_REQUIRE_MSG(max_rel < 1e-3, "backends disagree: " << max_rel);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "field_equation: " << e.what() << "\n";
    return 2;
  }
}
