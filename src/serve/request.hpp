/// \file request.hpp
/// \brief Scenario requests of the fvf::serve front-end: the parsed
///        schema, field canonicalization, and the content hash that keys
///        every cache layer.
///
/// A scenario request names one of the kernels of api::kernel_records()
/// plus the inputs that determine its result bit-for-bit: the content
/// fields of api::FieldEquationSpec (mesh extents, geomodel seed,
/// iteration/window counts, timestep, tolerance, and the fault scenario)
/// and the resolved backend. Because the simulator is deterministic (and
/// bit-identical for every --threads value), that tuple is a perfect
/// memoization key — scenario_hash() is computed over the *canonical*
/// form of exactly those fields, so spelling variants ("fault-rate" vs
/// "fault_rate", field order, "1e-05" vs "0.00001") hash identically,
/// while scheduling metadata (threads, priority, deadline) never pollutes
/// the key.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "common/types.hpp"
#include "lint/lint.hpp"

namespace fvf::serve {

/// Admission priority class. Lower enum value = more important. When the
/// bounded queue overflows the service sheds from the lowest class first
/// (and within a class, the youngest request).
enum class Priority : u8 { Interactive = 0, Batch = 1, Background = 2 };

[[nodiscard]] std::string_view priority_name(Priority priority) noexcept;

/// Which execution backend runs the scenario. Auto resolves by priority
/// at resolve_defaults time: Background requests route to the executing
/// gpusim backend (freeing the fabric for interactive work), everything
/// else to the wse fabric. The *resolved* backend is a content field —
/// it joins canonical_content()/scenario_hash(), so a memoized fabric
/// result can never answer a gpusim request or vice versa.
enum class BackendChoice : u8 { Auto = 0, Wse = 1, Gpusim = 2 };

[[nodiscard]] std::string_view backend_choice_name(
    BackendChoice backend) noexcept;

/// A parsed scenario request: the api's content fields plus the resolved
/// backend and how the service schedules the run.
///
/// Content fields (hashed): kernel (spelled `program=`), backend
/// (resolved), nx, ny, nz, seed, iterations, dt, tol, fault_seed,
/// fault_rate. Scheduling fields (not hashed): threads, lint, priority,
/// deadline_ms, checkpoint_every.
struct ScenarioRequest : api::FieldEquationSpec {
  /// Execution backend. Auto resolves by priority (see BackendChoice);
  /// the resolved value is hashed as content.
  BackendChoice backend = BackendChoice::Auto;

  // --- scheduling: how the service runs it (never hashed) ------------------
  /// Static verification level applied at load. Lint findings are a
  /// property of the program structure, not the data, so successful
  /// verification is cached per (kernel, extents, level) and skipped on
  /// later requests.
  lint::Level lint = lint::Level::Off;
  Priority priority = Priority::Batch;
  /// Wall-clock deadline in milliseconds from submission; 0 = none. An
  /// expired deadline cancels the request cleanly (at dequeue, or between
  /// IMPES windows mid-run) with a recorded error.
  u64 deadline_ms = 0;
  /// IMPES only: checkpoint the job state every N windows (0 = off) so an
  /// interrupted job resumes instead of recomputing. Requires the
  /// service's checkpoint_dir.
  i32 checkpoint_every = 0;
};

/// Parses a `key=value ...` request line (whitespace- or comma-separated
/// tokens, `#` starts a comment). Keys are case-sensitive but
/// spelling-normalized: dashes become underscores and the documented
/// aliases (steps/windows -> iterations, tolerance -> tol, window ->
/// dt, fault-seed/fault-rate spellings) map to the canonical field.
/// Throws ContractViolation on an unknown key, a malformed value, or an
/// out-of-range field.
[[nodiscard]] ScenarioRequest parse_request(std::string_view line);

/// Returns the request with the kernel's iteration/dt defaults and the
/// backend resolved, after validating every field. The
/// executor and the canonical hash both operate on resolved requests so
/// an explicit "iterations=200" and a defaulted CG request are the same
/// scenario.
[[nodiscard]] ScenarioRequest resolve_defaults(const ScenarioRequest& request);

/// The canonical content string the scenario hash is computed over:
/// the content fields only, canonically spelled, canonically formatted,
/// in one fixed order. Two requests with equal canonical_content are the
/// same scenario by construction.
[[nodiscard]] std::string canonical_content(const ScenarioRequest& request);

/// FNV-1a 64-bit over canonical_content().
[[nodiscard]] u64 scenario_hash(const ScenarioRequest& request);

/// FNV-1a 64-bit over arbitrary bytes (the hash every serve cache key
/// derives from).
[[nodiscard]] u64 fnv1a(std::string_view bytes) noexcept;

/// Mixes `value` into an existing FNV-1a state (for composite keys).
using api::fnv1a_mix;

}  // namespace fvf::serve
