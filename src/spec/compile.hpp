/// \file compile.hpp
/// \brief `spec::compile` — validates a StencilSpec and lowers it to the
///        launchable form: color-plan claims, the per-PE memory layout,
///        and the inputs of the generated SpecPeProgram.
///
/// Compilation is pure validation + canonicalization; the heavy lowering
/// (routes, handlers, send declarations) happens inside SpecPeProgram
/// from the compiled description. Every compile error names the spec and
/// the offending field or phase — never a bare index.
#pragma once

#include <string>

#include "dataflow/color_plan.hpp"
#include "spec/stencil_spec.hpp"

namespace fvf::spec {

/// A validated, launch-ready spec. `spec::launch` compiles one per launch
/// and every PE program of that launch reads it through one shared,
/// immutable instance (LaunchBindings::compiled); the launch helpers hash
/// it to memoize strict-lint passes.
class CompiledSpec {
 public:
  /// Colors handed back to the launcher after claiming.
  struct Claims {
    std::optional<wse::AllReduceColors> reduce;
  };

  [[nodiscard]] const StencilSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& name() const noexcept {
    return spec_.name;
  }
  [[nodiscard]] bool nine_point() const noexcept {
    return spec_.shape == StencilShape::NinePoint;
  }
  [[nodiscard]] i32 block_words() const noexcept {
    return spec_.block_words_per_cell;
  }

  /// Claims this program's colors on the harness plan, in the canonical
  /// order (cardinal, diagonal, reduction tree, NACK), using the spec's
  /// owner labels. `reliability` adds the NACK claim.
  Claims claim_colors(dataflow::ColorPlan& plan, bool reliability) const;

  /// Accounting-only data footprint (all non-Code fields) for depth `nz`.
  [[nodiscard]] usize data_footprint_bytes(i32 nz) const noexcept;
  /// Sum of the Code fields (zero or one by validation).
  [[nodiscard]] usize code_footprint_bytes() const noexcept;

  /// Structural digest (name, exchange, shape, block, fields): two
  /// launches with equal digests lower to identical colors, routes,
  /// handlers, and memory, so one strict-lint pass covers both.
  [[nodiscard]] u64 shape_digest() const noexcept { return digest_; }

  /// Human-readable lowering summary (`fvf_spec --dump-plan`).
  [[nodiscard]] std::string describe() const;

 private:
  friend CompiledSpec compile(StencilSpec spec);
  CompiledSpec() = default;

  StencilSpec spec_;
  u64 digest_ = 0;
};

/// Validates and lowers `spec`. Throws ContractViolation with a message
/// naming the spec and the offending field/phase on any inconsistency.
[[nodiscard]] CompiledSpec compile(StencilSpec spec);

}  // namespace fvf::spec
