/// \file registry.hpp
/// \brief The kernel registry — the process-wide inventory of launchable
///        fabric programs: the compiled specs plus the IMPES driver.
///
/// Tools (`fvf_spec`, `fvf_lint`, harness CLIs) resolve `--program`
/// against this registry instead of hard-coding name lists, so an
/// unknown value is rejected with the real inventory and a newly added
/// spec kernel shows up everywhere at once. The registry is mechanism
/// only: it stores what callers register. `fvf::core` registers the
/// shipped inventory via `core::register_builtin_kernels()`; the
/// spec-owned heat kernel registers from this library.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "spec/compile.hpp"

namespace fvf::spec {

/// One launchable program, by canonical CLI name.
struct KernelInfo {
  std::string name;
  std::string summary;
  /// Builds the default-options CompiledSpec, so the plan can be dumped
  /// and linted from the spec alone. Null for a driver that runs other
  /// kernels' launches and has no single spec (IMPES).
  std::function<CompiledSpec()> compile_spec;
};

/// Registers (or, by name, replaces) a kernel. Thread-safe.
void register_kernel(KernelInfo info);

/// Every registered kernel, in registration order.
[[nodiscard]] std::vector<KernelInfo> registered_kernels();

/// The registered kernel named `name`, or an empty optional-like copy —
/// callers test `found.name.empty()`.
[[nodiscard]] KernelInfo find_kernel(std::string_view name);

/// "tpfa|cg|transport|..." — for usage strings and error messages.
[[nodiscard]] std::string kernel_name_list(std::string_view separator = "|");

}  // namespace fvf::spec
