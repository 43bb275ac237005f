/// \file harness_cli.hpp
/// \brief Shared CLI plumbing for the verification flags every
///        fabric-facing binary exposes.
///
/// All demos and benches accept the same two switches:
///
///   --lint off|warn|strict   static fabric-program verification level
///                            applied at load (fvf::lint); default off
///   --hazard-check           dynamic simulated-memory hazard detector
///                            (receive-into-live-buffer, overlapping
///                            DSD read/write); off by default and
///                            bit-identical to a run without it
///
/// Parsing them once here keeps the flag names, defaults, and error
/// text identical across binaries. `--program` is parsed here too, for
/// the tools (fvf_lint, fvf_spec) that select a kernel record by name.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "dataflow/run_info.hpp"

namespace fvf {
class CliParser;
}  // namespace fvf

namespace fvf::dataflow {

/// Applies `--lint` and `--hazard-check` to `options`. Throws
/// ContractViolation when `--lint` names an unknown level.
void apply_verification_flags(HarnessOptions& options, const CliParser& cli);

/// Reads `--program` (using `fallback` when the flag is absent) and
/// validates it against `known`, the kernel names the tool takes from
/// api::kernel_records() (this layer sits below the api, so the caller
/// passes them in). Throws ContractViolation "unknown --program '<x>'
/// (registered kernels: ...)" listing every name in `known` — never
/// silently defaults. `extra` admits tool-specific pseudo-programs
/// ("all").
[[nodiscard]] std::string parse_program_flag(
    const CliParser& cli, std::string_view fallback,
    std::span<const std::string> known,
    std::span<const std::string_view> extra = {});

/// Prints the run's hazard findings to `out`: one line per recorded
/// hazard plus a suppression note, or a "clean" line when the detector
/// flagged nothing. No-op when `enabled` is false (detector off).
void print_hazard_summary(const RunInfo& info, bool enabled,
                          std::ostream& out);

}  // namespace fvf::dataflow
