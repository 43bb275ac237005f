#include "serve/executor.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "core/fabric_impes.hpp"
#include "io/checkpoint.hpp"

namespace fvf::serve {

namespace {

u64 lint_key(const ScenarioRequest& request) {
  u64 key = fnv1a("lint");
  key = fnv1a_mix(key, fnv1a(request.kernel));
  key = fnv1a_mix(key, static_cast<u64>(request.nx));
  key = fnv1a_mix(key, static_cast<u64>(request.ny));
  key = fnv1a_mix(key, static_cast<u64>(request.nz));
  key = fnv1a_mix(key, static_cast<u64>(request.lint));
  return key;
}

/// Checkpoint file paths of a long job, named by the scenario hash.
struct CheckpointPaths {
  std::string meta;
  std::string saturation;
  std::string pressure;
};

CheckpointPaths checkpoint_paths(const std::string& dir, u64 hash) {
  char stem[32];
  std::snprintf(stem, sizeof(stem), "scn_%016llx",
                static_cast<unsigned long long>(hash));
  const std::string base = dir + "/" + stem;
  return CheckpointPaths{base + ".meta", base + "_saturation.fvf",
                         base + "_pressure.fvf"};
}

/// Serve's hook on the api's IMPES window loop: resumes from a
/// checkpoint of this exact scenario, writes one every checkpoint_every
/// windows, removes it once the job completes, and stops the loop at an
/// expired deadline.
class ImpesJob final : public api::ImpesHook {
 public:
  ImpesJob(const ScenarioRequest& request, const ExecutionContext& context,
           ScenarioResponse& response, std::atomic<u64>& checkpoints_saved,
           std::atomic<u64>& resumes)
      : request_(request),
        context_(context),
        response_(response),
        checkpoints_saved_(checkpoints_saved),
        resumes_(resumes),
        checkpointing_(request.checkpoint_every > 0 &&
                       !context.checkpoint_dir.empty()),
        paths_(checkpoint_paths(context.checkpoint_dir,
                                response.scenario_hash)),
        // The meta file embeds the canonical content so a hash collision
        // (or a stale directory) can never resume the wrong scenario.
        canonical_line_(checkpointing_ ? "canonical=" +
                                             canonical_content(request) + "\n"
                                       : "") {}

  void resume(core::FabricImpesSimulator& sim,
              api::ImpesProgress& progress) override {
    if (!checkpointing_) {
      return;
    }
    std::ifstream meta_in(paths_.meta);
    if (!meta_in.good()) {
      return;
    }
    std::ostringstream text;
    text << meta_in.rdbuf();
    const std::string meta = text.str();
    if (meta.find(canonical_line_) == std::string::npos) {
      return;
    }
    const dataflow::RunInfo done = parse_run_info(meta);
    sim.restore_state(io::load_field(paths_.saturation),
                      io::load_field(paths_.pressure));
    progress.fabric = done;
    std::istringstream scalars(meta);
    std::string line;
    while (std::getline(scalars, line)) {
      if (line.rfind("windows_done=", 0) == 0) {
        progress.windows_done = static_cast<i32>(std::stol(line.substr(13)));
      } else if (line.rfind("cg_iterations_total=", 0) == 0) {
        progress.cg_iterations = std::stol(line.substr(20));
      } else if (line.rfind("transport_substeps_total=", 0) == 0) {
        progress.transport_substeps = std::stol(line.substr(25));
      }
    }
    response_.resumed = true;
    resumes_.fetch_add(1);
  }

  bool stop(const api::ImpesProgress& progress) override {
    if (!context_.expired || !context_.expired()) {
      return false;
    }
    const i32 window = progress.windows_done;
    std::ostringstream os;
    os << "deadline exceeded after " << window << "/" << request_.iterations
       << " windows";
    if (checkpointing_) {
      os << " (checkpoint covers the first "
         << (window / request_.checkpoint_every) * request_.checkpoint_every
         << ")";
    }
    deadline_error_ = os.str();
    return true;
  }

  void window_done(const core::FabricImpesSimulator& sim,
                   const api::ImpesProgress& progress) override {
    if (!checkpointing_) {
      return;
    }
    const i32 done = progress.windows_done;
    if (done == request_.iterations) {
      // The job is complete; a finished scenario must not leave a stale
      // resume point behind.
      std::remove(paths_.meta.c_str());
      std::remove(paths_.saturation.c_str());
      std::remove(paths_.pressure.c_str());
      return;
    }
    if (done % request_.checkpoint_every != 0) {
      return;
    }
    std::filesystem::create_directories(context_.checkpoint_dir);
    io::save_field(paths_.saturation, sim.saturation());
    io::save_field(paths_.pressure, sim.pressure());
    // Meta goes last: a checkpoint without its meta file is invisible to
    // resume, so a crash mid-save can never resume partial state.
    std::ofstream meta_out(paths_.meta, std::ios::binary | std::ios::trunc);
    meta_out << canonical_line_ << "windows_done=" << done << '\n'
             << "cg_iterations_total=" << progress.cg_iterations << '\n'
             << "transport_substeps_total=" << progress.transport_substeps
             << '\n'
             << serialize_run_info(progress.fabric);
    checkpoints_saved_.fetch_add(1);
  }

  /// Why the loop stopped early; empty when it ran to completion.
  [[nodiscard]] const std::string& deadline_error() const noexcept {
    return deadline_error_;
  }

 private:
  const ScenarioRequest& request_;
  const ExecutionContext& context_;
  ScenarioResponse& response_;
  std::atomic<u64>& checkpoints_saved_;
  std::atomic<u64>& resumes_;
  bool checkpointing_;
  CheckpointPaths paths_;
  std::string canonical_line_;
  std::string deadline_error_;
};

}  // namespace

ScenarioExecutor::ScenarioExecutor()
    : ScenarioExecutor(kDefaultCacheEntries) {}

ScenarioExecutor::ScenarioExecutor(usize cache_entries)
    : problems_(cache_entries),
      setups_(cache_entries),
      lint_passes_(cache_entries) {}

ExecutorStats ScenarioExecutor::stats() const {
  ExecutorStats stats;
  stats.problems = problems_.stats();
  stats.setups = setups_.stats();
  stats.lint = lint_passes_.stats();
  stats.simulations = simulations_.load();
  stats.checkpoints_saved = checkpoints_saved_.load();
  stats.resumes = resumes_.load();
  return stats;
}

lint::Level ScenarioExecutor::effective_lint(const ScenarioRequest& request) {
  if (request.lint == lint::Level::Off) {
    return lint::Level::Off;
  }
  // A clean verification is a property of the program shape; once one
  // request verified it, identical shapes skip the verifier entirely.
  if (lint_passes_.lookup(lint_key(request)) != nullptr) {
    return lint::Level::Off;
  }
  return request.lint;
}

void ScenarioExecutor::record_lint_pass(const ScenarioRequest& request) {
  if (request.lint != lint::Level::Off) {
    lint_passes_.insert(lint_key(request), true);
  }
}

ScenarioResponse ScenarioExecutor::execute(const ScenarioRequest& raw,
                                           const ExecutionContext& context) {
  ScenarioResponse response;
  try {
    const ScenarioRequest request = resolve_defaults(raw);
    response.scenario_hash = scenario_hash(request);
    simulations_.fetch_add(1);
    const bool wse = request.backend == BackendChoice::Wse;
    ImpesJob impes(request, context, response, checkpoints_saved_, resumes_);
    api::RunContext run;
    if (wse) {
      // Everything serve lends is for fabric runs: lint verifies fabric
      // programs, the hook drives fabric IMPES, and the caches amortize
      // fabric setup. gpusim runs build their inputs fresh rather than
      // hold every gpusim problem in the caches for the service's life.
      run.problems = [this](
                         u64 key,
                         const std::function<physics::FlowProblem()>& build) {
        return problems_.get_or_build(key, build);
      };
      run.setups = [this](u64 key,
                          const std::function<api::LinearSetup()>& build) {
        return setups_.get_or_build(key, build);
      };
      run.lint = effective_lint(request);
      run.impes = &impes;
    }
    const api::FieldEquationResult result = api::run_field_equation(
        request, wse ? api::Backend::Wse : api::Backend::Gpusim, run);
    if (!impes.deadline_error().empty()) {
      response.status = RequestStatus::DeadlineExpired;
      response.error = impes.deadline_error();
      response.info = result.fabric;
      return response;
    }
    if (wse) {
      response.info = result.fabric;
    } else {
      // The shared timing surface: the analytic GPU timeline stands in
      // for the fabric clock in the response's RunInfo.
      response.info.device_seconds = result.device_seconds;
    }
    response.result_digest = result.result_digest;
    response.summary = result.summary;
    if (!result.error.empty()) {
      response.status = RequestStatus::Failed;
      response.error = result.error;
    } else if (wse) {
      // A gpusim run proves nothing about the fabric shape, so only wse
      // runs record a lint pass.
      record_lint_pass(request);
    }
  } catch (const std::exception& error) {
    response.status = RequestStatus::Failed;
    response.error = error.what();
  }
  return response;
}

}  // namespace fvf::serve
