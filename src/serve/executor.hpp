/// \file executor.hpp
/// \brief Runs a parsed scenario request through api::run_field_equation
///        on either backend, sharing the expensive setup across requests.
///
/// The executor lends a wse run what only serve owns: its caches, the
/// request's lint level, and an IMPES window hook for deadlines and
/// checkpoints. Two content-hash cache layers sit between a request and
/// the fabric kernels:
///
///   - **problem cache** — geomodel + mesh + transmissibility
///     construction (physics::FlowProblem), keyed by extents/seed/kind;
///   - **setup cache** — the linearized pressure system (api::LinearSetup)
///     shared by the CG and wave scenarios, keyed by problem + dt.
///
/// A request's `lint` level goes to the run as asked. `spec::launch`
/// strict-lints the first load of every program shape in the process and
/// remembers the pass (keyed by shape digest, extents, column depth,
/// memory budget and reliability), so a request with `lint=off` pays for
/// lint only on a new shape, and an explicit `lint=warn|strict` lints
/// every time.
///
/// Full-result memoization lives above this layer, in ScenarioService.
/// The executor also implements checkpoint/restore of long IMPES jobs
/// via the src/io/checkpoint field format plus a small meta file.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "physics/problem.hpp"
#include "serve/cache.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"

namespace fvf::serve {

/// Cancellation/checkpoint context the service passes per execution.
struct ExecutionContext {
  /// Returns true once the request's deadline has expired. Consulted
  /// between fabric launches (IMPES window boundaries) — a launch is
  /// never interrupted mid-flight, so cancellation leaves no partial
  /// state. Null = no deadline.
  std::function<bool()> expired;
  /// Directory for long-job checkpoints; empty disables checkpointing.
  std::string checkpoint_dir;
};

/// Monotonic accounting of one executor.
struct ExecutorStats {
  CacheStats problems;
  CacheStats setups;
  /// Scenario executions that reached a fabric launch (cold runs).
  u64 simulations = 0;
  u64 checkpoints_saved = 0;
  u64 resumes = 0;
};

class ScenarioExecutor {
 public:
  /// Default LRU capacity of each cache layer (entries). Generous: a
  /// replay workload rarely touches more than a few dozen shapes.
  static constexpr usize kDefaultCacheEntries = 1024;

  ScenarioExecutor();
  /// `cache_entries` bounds each cache layer (0 = unbounded).
  explicit ScenarioExecutor(usize cache_entries);

  ScenarioExecutor(const ScenarioExecutor&) = delete;
  ScenarioExecutor& operator=(const ScenarioExecutor&) = delete;

  /// Runs the scenario and returns the response. Failures (lint strict,
  /// fabric errors, non-convergence) come back as status Failed with the
  /// reason recorded — execute never throws on a bad scenario. A
  /// mid-run deadline expiry returns DeadlineExpired with the
  /// accounting accumulated so far.
  [[nodiscard]] ScenarioResponse execute(const ScenarioRequest& request,
                                         const ExecutionContext& context);

  [[nodiscard]] ExecutorStats stats() const;

 private:
  HashCache<physics::FlowProblem> problems_;
  HashCache<api::LinearSetup> setups_;
  std::atomic<u64> simulations_{0};
  std::atomic<u64> checkpoints_saved_{0};
  std::atomic<u64> resumes_{0};
};

}  // namespace fvf::serve
