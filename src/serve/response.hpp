/// \file response.hpp
/// \brief Scenario responses and their canonical serialization.
///
/// The serialized form covers exactly the *deterministic* content of a
/// response — the scenario hash, status, fabric accounting (RunInfo with
/// f64s as exact bit patterns), the result-field digest, and the summary
/// scalars. Host-side timings and cache provenance are deliberately
/// excluded, so a memoized response serializes byte-identically to the
/// cold run that produced it, for every `--threads` value. The same text
/// format doubles as the checkpoint-meta encoding of a long job's
/// accumulated accounting.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dataflow/run_info.hpp"

namespace fvf::serve {

/// Terminal state of a scenario request.
enum class RequestStatus : u8 {
  Ok = 0,
  /// Rejected by admission control (queue overflow or service shutdown).
  Shed,
  /// Deadline expired before or during execution; recorded, never thrown.
  DeadlineExpired,
  /// The execution raised an error (lint strict failure, fabric error,
  /// non-convergence, ...).
  Failed,
};

[[nodiscard]] std::string_view status_name(RequestStatus status) noexcept;

/// The service's answer to one scenario request.
struct ScenarioResponse {
  u64 scenario_hash = 0;
  RequestStatus status = RequestStatus::Ok;
  /// Human-readable reason for any non-Ok status.
  std::string error;
  /// Full fabric accounting (for IMPES: accumulated over every window of
  /// the job, including windows executed before a checkpoint/restore).
  dataflow::RunInfo info;
  /// FNV-1a 64 over the raw f32 bit patterns of every gathered result
  /// field, in a fixed field order (the cheap stand-in for shipping the
  /// arrays back over a wire).
  u64 result_digest = 0;
  /// Deterministic per-program scalars (iterations, converged, substeps,
  /// co2_in_place, ...), name-sorted. f64 values serialize as bits.
  std::vector<std::pair<std::string, f64>> summary;

  // --- host-side provenance; excluded from serialize_response ---------------
  /// Served from the full-result memo without running.
  bool cache_hit = false;
  /// Joined an in-flight identical request (one simulation, N responses).
  bool coalesced = false;
  /// Execution resumed from an on-disk checkpoint.
  bool resumed = false;
  f64 queue_ms = 0.0;
  f64 run_ms = 0.0;

  [[nodiscard]] bool ok() const noexcept {
    return status == RequestStatus::Ok;
  }
};

/// Canonical deterministic serialization (see file comment). Two
/// responses to the same scenario are byte-identical here regardless of
/// thread count, cache path, or checkpoint/restore history.
[[nodiscard]] std::string serialize_response(const ScenarioResponse& response);

/// Canonical key=value serialization of a RunInfo: every f64 as its
/// exact bit pattern, per-PE phase attribution compressed to a digest.
[[nodiscard]] std::string serialize_run_info(const dataflow::RunInfo& info);

/// Inverse of serialize_run_info for checkpoint metadata. Requires the
/// per-PE attribution to have been empty at serialization time (the
/// accumulated accounting of a multi-launch job, which drops it); throws
/// ContractViolation otherwise or on malformed text.
[[nodiscard]] dataflow::RunInfo parse_run_info(const std::string& text);

}  // namespace fvf::serve
