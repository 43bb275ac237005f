/// \file launch.hpp
/// \brief The one launch path for compiled programs: every
///        `load_dataflow_*` goes through `spec::launch`.
///
/// A launch (1) turns halo reliability on when bit flips can drop blocks,
/// which the implicit-FIFO static-halo protocol cannot survive; (2)
/// compiles the spec once; (3) raises lint to Strict unless this program
/// shape already passed strict lint in this process; (4) builds the
/// FabricHarness; (5) claims the spec's colors; (6) loads one program per
/// PE through the caller's factory, every program sharing the one
/// CompiledSpec (LaunchBindings::compiled); and (7) records the strict
/// pass.
///
/// Passes are memoized by the spec's structural digest + fabric extents +
/// column depth + memory budget + reliability: two launches with equal
/// keys lower to identical colors, routes, handlers, and memory
/// reservations, so one strict pass proves both. The memo is private to
/// launch.cpp, so no launcher can skip the gate.
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "dataflow/fabric_harness.hpp"
#include "spec/program.hpp"

namespace fvf::spec {

/// Loads the programs onto the harness; called once with the bindings
/// of the launch (its compiled spec and claimed colors).
using LoadFn =
    std::function<void(dataflow::FabricHarness&, const LaunchBindings&)>;

/// Steps 1-7 above. `reliability` applies to static-halo specs only.
/// Returns the loaded, not yet run, harness.
[[nodiscard]] std::unique_ptr<dataflow::FabricHarness> launch_harness(
    StencilSpec spec, Extents3 extents, const dataflow::HarnessOptions& options,
    dataflow::HaloReliabilityOptions reliability, const LoadFn& load);

/// Typed front end of launch_harness. `make(coord, fabric_size, bindings)`
/// returns the per-PE program; it runs only during the load. `Load` is a
/// `{harness, grid}` aggregate (TpfaLoad, CgLoad, ...).
template <typename Load, typename MakeFn>
[[nodiscard]] Load launch(StencilSpec spec, Extents3 extents,
                          const dataflow::HarnessOptions& options,
                          dataflow::HaloReliabilityOptions reliability,
                          const MakeFn& make) {
  using Program = typename std::invoke_result_t<
      MakeFn, Coord2, Coord2, const LaunchBindings&>::element_type;
  Load load;
  load.harness = launch_harness(
      std::move(spec), extents, options, reliability,
      [&](dataflow::FabricHarness& harness, const LaunchBindings& bindings) {
        load.grid = harness.load<Program>(
            [&](Coord2 coord, Coord2 fabric_size) {
              return make(coord, fabric_size, bindings);
            });
      });
  return load;
}

}  // namespace fvf::spec
