// The three fabric workloads: one TPFA launch configuration each, timed
// layer by layer from outside through the library's public calls.
//
//   setup     physics::make_benchmark_problem + the first (strict-lint)
//             core::load_dataflow_tpfa, repeated and reported as a median
//   scenario  warm load -> FabricHarness::run -> ProgramGrid::gather ->
//             api::digest_field, repeated for --seconds
//
// spec::verified_options memoizes strict lint per program shape for the
// life of the process, so only the first load of a shape pays lint. The
// setup repetitions ask for lint=strict explicitly (a stricter base level
// is never lowered), which makes every repetition pay it; the warm
// scenarios ask for lint=off and hit the memo.
#include <memory>
#include <optional>
#include <stdexcept>

#include "api/api.hpp"
#include "baseline/baseline.hpp"
#include "core/launcher.hpp"
#include "perfbench.hpp"
#include "physics/problem.hpp"
#include "spec/compile.hpp"

namespace perfbench {
namespace {

using fvf::Array3;
using fvf::Extents3;
using fvf::f32;

struct FabricConfig {
  Extents3 extents;
  i32 iterations;
  i32 threads;
};

FabricConfig config_for(const RunOptions& options) {
  const std::string& w = options.workload;
  const bool s = options.small;
  FabricConfig config{};
  if (w == "tpfa_wide") {
    config = s ? FabricConfig{{16, 16, 4}, 2, 4} : FabricConfig{{128, 128, 12}, 5, 4};
  } else if (w == "tpfa_deep") {
    config = s ? FabricConfig{{8, 8, 64}, 2, 1} : FabricConfig{{64, 64, 246}, 5, 1};
  } else if (w == "wafer_setup") {
    config = s ? FabricConfig{{24, 24, 4}, 1, 1} : FabricConfig{{256, 256, 4}, 1, 1};
  } else {
    throw std::invalid_argument("unknown workload '" + w + "'");
  }
  if (options.threads > 0) {
    config.threads = options.threads;
  }
  return config;
}

/// Exact non-timing outputs of one scenario.
struct ScenarioOutputs {
  u64 digest = 0;
  fvf::dataflow::RunInfo info;
};

std::map<std::string, std::string> exact_outputs(const ScenarioOutputs& out) {
  const fvf::wse::PeCounters& c = out.info.counters;
  return {
      {"digest", hex(out.digest)},
      {"sim_cycles", exact(out.info.makespan_cycles)},
      {"device_s", exact(out.info.device_seconds)},
      {"events", std::to_string(out.info.events_processed)},
      {"run_errors", std::to_string(out.info.errors_total)},
      {"counters.fmul", std::to_string(c.fmul)},
      {"counters.fsub", std::to_string(c.fsub)},
      {"counters.fneg", std::to_string(c.fneg)},
      {"counters.fadd", std::to_string(c.fadd)},
      {"counters.fma", std::to_string(c.fma)},
      {"counters.fmov", std::to_string(c.fmov)},
      {"counters.scalar_misc", std::to_string(c.scalar_misc)},
      {"counters.mem_loads", std::to_string(c.mem_loads)},
      {"counters.mem_stores", std::to_string(c.mem_stores)},
      {"counters.wavelets_sent", std::to_string(c.wavelets_sent)},
      {"counters.wavelets_received", std::to_string(c.wavelets_received)},
      {"counters.controls_sent", std::to_string(c.controls_sent)},
      {"counters.tasks_executed", std::to_string(c.tasks_executed)},
  };
}

u64 digest_of(const Array3<f32>& residual, const Array3<f32>& pressure) {
  return fvf::api::digest_field(fvf::api::digest_field(fvf::api::kDigestSeed, residual),
                                pressure);
}

/// One setup: its duration and the resident set before the problem
/// build, after it, and after the first load (MiB).
struct SetupSample {
  f64 seconds = 0.0;
  f64 rss_before = 0.0;
  f64 rss_problem = 0.0;
  f64 rss_load = 0.0;
};

/// Timings of one warm scenario (seconds).
struct ScenarioTimes {
  f64 total = 0.0;
  f64 run = 0.0;
};

class FabricWorkload {
 public:
  FabricWorkload(const RunOptions& options, Tracer& tracer)
      : options_(options), config_(config_for(options)), tracer_(tracer) {
    dataflow_.iterations = config_.iterations;
    dataflow_.execution.threads = config_.threads;
  }

  [[nodiscard]] const FabricConfig& config() const noexcept { return config_; }
  [[nodiscard]] f64 pe_count() const noexcept {
    return static_cast<f64>(config_.extents.nx) *
           static_cast<f64>(config_.extents.ny);
  }

  /// Problem build plus a strict-lint load. Returns the load so the
  /// traced run can ask it for lint_report(); the problem it refers to
  /// stays owned here.
  fvf::core::TpfaLoad setup(u64 group, SetupSample& sample) {
    problem_.reset();
    const f64 t0 = now_s();
    ScopedSpan span(tracer_, "setup", group);
    sample.rss_before = current_rss_mib();
    {
      ScopedSpan s(tracer_, "physics.problem", 0);
      problem_.emplace(
          fvf::physics::make_benchmark_problem(config_.extents, options_.seed));
    }
    sample.rss_problem = current_rss_mib();
    fvf::core::DataflowOptions strict = dataflow_;
    strict.lint = fvf::lint::Level::Strict;
    fvf::core::TpfaLoad load;
    {
      ScopedSpan s(tracer_, "dataflow.first_load", 0);
      load = fvf::core::load_dataflow_tpfa(*problem_, strict);
    }
    sample.rss_load = current_rss_mib();
    sample.seconds = now_s() - t0;
    return load;
  }

  /// One warm scenario: load -> run -> gather -> digest, then free.
  ScenarioOutputs scenario(Tracer& tracer, u64 group, ScenarioTimes& times) {
    ScenarioOutputs out;
    const f64 t0 = now_s();
    {
      ScopedSpan span(tracer, "scenario", group);
      std::optional<fvf::core::TpfaLoad> load;
      {
        ScopedSpan s(tracer, "dataflow.load", 0);
        load.emplace(fvf::core::load_dataflow_tpfa(*problem_, dataflow_));
      }
      {
        ScopedSpan s(tracer, "wse.run", 0);
        const f64 r0 = now_s();
        out.info = load->harness->run();
        times.run = now_s() - r0;
      }
      Array3<f32> residual(config_.extents);
      Array3<f32> pressure(config_.extents);
      {
        ScopedSpan s(tracer, "dataflow.gather", 0);
        load->grid.gather(residual, [](const fvf::core::TpfaPeProgram& p) {
          return p.residual();
        });
        load->grid.gather(pressure, [](const fvf::core::TpfaPeProgram& p) {
          return p.pressure();
        });
      }
      {
        ScopedSpan s(tracer, "api.digest", 0);
        out.digest = digest_of(residual, pressure);
      }
      {
        ScopedSpan s(tracer, "dataflow.free", 0);
        load.reset();
      }
    }
    times.total = now_s() - t0;
    out.info.pe_phase_cycles.clear();
    return out;
  }

  /// Digest of the serial reference implementation on the same problem.
  [[nodiscard]] u64 reference_digest() const {
    fvf::baseline::BaselineOptions serial;
    serial.iterations = config_.iterations;
    const fvf::baseline::BaselineResult r =
        fvf::baseline::run_serial_baseline(*problem_, serial);
    return digest_of(r.residual, r.pressure);
  }

 private:
  const RunOptions& options_;
  FabricConfig config_;
  Tracer& tracer_;
  fvf::core::DataflowOptions dataflow_;
  std::optional<fvf::physics::FlowProblem> problem_;
};

/// Recorded outputs for this workload and size, or null.
const fvf::obs::JsonValue* recorded(const RunOptions& options) {
  const fvf::obs::JsonValue* w = options.expected.find(options.workload);
  return w == nullptr ? nullptr : w->find(options.small ? "small" : "full");
}

}  // namespace

f64 compile_us(Tracer& tracer) {
  constexpr int kBatches = 5;
  constexpr int kCalls = 400;
  std::vector<f64> per_call_us;
  for (int batch = 0; batch < kBatches; ++batch) {
    const f64 t0 = now_s();
    ScopedSpan span(tracer, "spec.compile", 2000 + static_cast<u64>(batch));
    for (int i = 0; i < kCalls; ++i) {
      const fvf::spec::CompiledSpec compiled =
          fvf::spec::compile(fvf::core::make_tpfa_spec({}));
      if (compiled.shape_digest() == 0) {
        throw std::logic_error("compiled TPFA spec has no shape digest");
      }
    }
    per_call_us.push_back(1e6 * (now_s() - t0) / kCalls);
  }
  return median(per_call_us);
}

RunResult run_fabric_workload(const RunOptions& options) {
  Tracer tracer(options.trace);
  Tracer untraced(false);
  FabricWorkload w(options, tracer);
  const FabricConfig& config = w.config();
  RunResult result;

  // --- setup ---------------------------------------------------------------
  const int setup_reps = options.trace ? 1 : 3;
  std::vector<f64> setup_s;
  SetupSample first_setup;
  f64 first_load_s = 0.0;
  fvf::lint::Report lint_report;
  for (int rep = 0; rep < setup_reps; ++rep) {
    SetupSample sample;
    fvf::core::TpfaLoad load = w.setup(1000 + static_cast<u64>(rep), sample);
    setup_s.push_back(sample.seconds);
    if (rep == 0) {
      first_setup = sample;
    }
    if (options.trace) {
      first_load_s = tracer.self_seconds("dataflow.first_load").front();
      ScopedSpan span(tracer, "lint.report", 1000);
      lint_report = load.harness->lint_report();
    }
  }

  // --- warm scenarios --------------------------------------------------------
  // The traced run alternates traced and untraced repetitions so the
  // tracing overhead is measured in one process.
  constexpr int kMinReps = 3;
  std::vector<f64> total_s;
  std::vector<f64> run_s;
  std::vector<f64> traced_total_s;
  std::vector<f64> untraced_total_s;
  std::vector<ScenarioOutputs> outs;
  const f64 started = now_s();
  for (int rep = 0; rep < kMinReps || now_s() - started < options.seconds;
       ++rep) {
    const bool traced = options.trace && rep % 2 == 0;
    ScenarioTimes times;
    outs.push_back(
        w.scenario(traced ? tracer : untraced, 1 + static_cast<u64>(rep), times));
    total_s.push_back(times.total);
    run_s.push_back(times.run);
    (traced ? traced_total_s : untraced_total_s).push_back(times.total);
  }

  // --- checks ----------------------------------------------------------------
  // Every repetition must reproduce the serial reference digest bit for
  // bit, and its simulated cycles and counters must equal the recorded
  // values (and each other): the simulator is deterministic for every
  // --threads value, so these are checks, not measurements.
  const u64 reference = w.reference_digest();
  const fvf::obs::JsonValue* record = recorded(options);
  const std::map<std::string, std::string> first = exact_outputs(outs.front());
  for (const ScenarioOutputs& out : outs) {
    const std::map<std::string, std::string> got = exact_outputs(out);
    bool ok = out.digest == reference && out.info.ok() && got == first;
    if (record != nullptr) {
      for (const auto& [key, value] : record->object) {
        const auto it = got.find(key);
        ok = ok && it != got.end() && value.is_string() &&
             it->second == value.string;
      }
    }
    result.check(ok);
  }
  result.outputs = first;
  result.output("workload.threads", std::to_string(config.threads));

  const Extents3 e = config.extents;
  const f64 cell_iters = static_cast<f64>(e.nx) * e.ny * e.nz * config.iterations;
  if (!options.trace) {
    f64 total = 0.0;
    for (const f64 t : total_s) {
      total += t;
    }
    result.metric("setup_s", median(setup_s), "s");
    result.metric("scenario_s", median(total_s), "s");
    result.metric("cell_iters_per_s", cell_iters / median(run_s), "1/s");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    // No service on a fabric workload: the serve_* metrics describe its
    // closed loop of warm scenarios (one client, one scenario in flight).
    // A percentile is reported only with at least ten samples beyond it;
    // about ten scenarios support none above the median, so the tail
    // metric is the median too.
    result.metric("serve_p50_ms", 1e3 * median(total_s), "ms");
    result.metric("serve_p90_ms", 1e3 * median(total_s), "ms");
    result.metric("serve_rps", static_cast<f64>(total_s.size()) / total, "1/s");
    return result;
  }

  const auto self = [&](const char* name) { return median(tracer.self_seconds(name)); };
  const fvf::dataflow::RunInfo& info = outs.front().info;
  const f64 load_s = self("dataflow.load");
  const f64 run = self("wse.run");
  const f64 report_s = tracer.durations("lint.report").front();
  result.metric("physics.problem_s", self("physics.problem"), "s");
  result.metric("spec.compile_us", compile_us(tracer), "us");
  result.metric("dataflow.load_s", load_s, "s");
  result.metric("dataflow.load_us_per_pe", 1e6 * load_s / w.pe_count(), "us");
  result.metric("dataflow.gather_s", self("dataflow.gather"), "s");
  result.metric("dataflow.free_s", self("dataflow.free"), "s");
  result.metric("api.digest_s", self("api.digest"), "s");
  result.metric("lint.first_load_s", first_load_s - load_s, "s");
  result.metric("lint.report_s", report_s, "s");
  result.metric("lint.us_per_pe", 1e6 * report_s / w.pe_count(), "us");
  result.metric("lint.errors", static_cast<f64>(lint_report.error_count()), "count");
  result.metric("wse.run_s", run, "s");
  result.metric("wse.events", static_cast<f64>(info.events_processed), "count");
  result.metric("wse.tasks", static_cast<f64>(info.counters.tasks_executed), "count");
  result.metric("wse.wavelets", static_cast<f64>(info.counters.wavelets_sent), "count");
  result.metric("wse.flops", static_cast<f64>(info.counters.flops()), "count");
  result.metric("wse.ns_per_event", 1e9 * run / static_cast<f64>(info.events_processed), "ns");
  result.metric("wse.ns_per_flop", 1e9 * run / static_cast<f64>(info.counters.flops()), "ns");
  result.metric("wse.sim_cycles", info.makespan_cycles, "cycles");
  result.metric("wse.device_s", info.device_seconds, "s");
  const SetupSample& m = first_setup;
  result.metric("mem.rss_problem_mib", m.rss_problem - m.rss_before, "MiB");
  result.metric("mem.rss_load_mib", m.rss_load - m.rss_problem, "MiB");
  result.metric("mem.kib_per_pe", 1024.0 * (m.rss_load - m.rss_problem) / w.pe_count(), "KiB");
  result.metric("trace.overhead_pct",
                100.0 * (median(traced_total_s) / median(untraced_total_s) - 1.0), "%");
  result.metric("trace.spans", static_cast<f64>(tracer.size()), "count");
  if (!options.spans_path.empty()) {
    tracer.write(options.spans_path);
  }
  return result;
}

}  // namespace perfbench
