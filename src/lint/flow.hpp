/// \file flow.hpp
/// \brief fvf::lint flow analysis — buffer bounds, cross-color deadlock,
///        and reduction-order determinism, decided before launch.
///
/// Three failure modes of a constructed fabric program are only
/// observable mid-run through the event engine, which dynamic testing
/// cannot cover at wafer scale:
///
///   buffer-overflow-possible  the worst-case router input-buffer
///                             occupancy (blocks parked waiting for a
///                             switch advance) can exceed
///                             ExecutionOptions::router_buffer_depth, so
///                             the run would drop blocks and record a
///                             runtime error
///   cross-color-deadlock      the declared send orderings
///                             (PeProgram::channel_dependencies) plus the
///                             routing plan form a wait cycle: every send
///                             on the cycle waits for a delivery that
///                             transitively waits on that send
///   order-sensitive-reduction (warning) an f32 accumulation declared to
///                             fold in arrival order
///                             (PeProgram::reduction_declarations) can be
///                             reached by two or more senders, so the
///                             result depends on delivery interleaving
///
/// All three are decided on the union-over-switch-positions routing
/// graph (see docs/ARCHITECTURE.md "Static flow analysis" for the
/// lattice and its precision limits) and run at launch time only — zero
/// hot-path cost. lint::run() runs them under Options::check_flow, in its
/// one pass over the per-color tables (lint/color_graph.hpp);
/// analyze_buffer_occupancy() is exposed separately so tests can
/// differentially validate the computed bound against the executing
/// fabric.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "lint/lint.hpp"
#include "wse/fabric.hpp"

namespace fvf::lint {

/// One parkable flow into a PE's router input buffer, as accounted by the
/// buffer-bound analyzer: up to `blocks` blocks of `color` entering
/// through `input` can be waiting for a switch-position advance at once.
struct ParkContribution {
  wse::Color color{};
  wse::Dir input{};
  u64 blocks = 0;
};

/// Worst-case router input-buffer occupancy of one PE: the sum of its
/// parkable contributions. The runtime drops a block (and records a run
/// error) when a park would start with `blocks` already waiting and
/// ExecutionOptions::router_buffer_depth <= that count, so `blocks` is
/// exactly the minimal sufficient depth for this PE.
struct PeOccupancy {
  Coord2 pe{};
  u64 blocks = 0;
  std::vector<ParkContribution> contributions;
};

/// Result of the buffer-bound analysis over a loaded fabric.
struct BufferAnalysis {
  /// Minimal ExecutionOptions::router_buffer_depth at which no declared
  /// traffic pattern can overflow any router input buffer: the maximum
  /// per-PE occupancy. Zero when nothing can park anywhere.
  u64 minimal_depth = 0;
  /// PEs with nonzero worst-case occupancy, in raster order.
  std::vector<PeOccupancy> per_pe;
};

/// Computes the worst-case router input-buffer occupancy of every PE from
/// declared sends (SendDeclaration::in_flight), routing fan-in, and
/// switch-position unions. `skip_colors` excludes colors (cyclic routing
/// graphs make the bound meaningless); pass {} to analyze everything.
[[nodiscard]] BufferAnalysis analyze_buffer_occupancy(
    const wse::Fabric& fabric,
    const std::array<bool, wse::Color::kMaxColors>& skip_colors = {});

}  // namespace fvf::lint
