#include "core/kernel_registry.hpp"

#include "core/cg_program.hpp"
#include "core/tpfa_program.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "spec/heat.hpp"
#include "spec/registry.hpp"

namespace fvf::core {

void register_builtin_kernels() {
  spec::register_kernel(
      {"tpfa", "two-point flux pressure iteration (switch-protocol exchange)",
       [] { return spec::compile(make_tpfa_spec({})); }});
  spec::register_kernel(
      {"cg", "conjugate-gradient pressure solve with dot-product all-reduce",
       [] { return spec::compile(make_cg_spec({})); }});
  spec::register_kernel(
      {"transport", "explicit saturation transport with CFL dt min-reduce",
       [] { return spec::compile(make_transport_spec({})); }});
  spec::register_kernel(
      {"wave", "second-order acoustic wave kernel (leapfrog)",
       [] { return spec::compile(make_wave_spec({})); }});
  spec::register_kernel(
      {"impes", "IMPES pressure/transport loop; runs cg + transport launches",
       nullptr});
  spec::register_kernel(
      {"heat", "2D heat diffusion, 9-point stencil",
       [] { return spec::compile(spec::make_heat_spec({})); }});
}

}  // namespace fvf::core
