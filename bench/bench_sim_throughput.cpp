// Host-throughput bench for the event engine itself: simulated cycles
// and processed events per host wall-clock second of the engine run
// alone (FabricHarness::run; problem build, program load and lint stay
// outside the timer). Two TPFA shapes:
//
//   tpfa_<F>x<F>  the Table 2 configuration (default 128x128, nz=12):
//                 many small events, so the engine core dominates;
//   tpfa_64x64    the paper's column depth nz=246 on 64x64 PEs: few
//                 events carrying 246-long DSD ops, so DSD emulation
//                 dominates.
//
// The solver output is already covered by the golden tests; this bench
// makes *simulator speed* a tracked regression surface, so an engine
// change that slows the hot path shows up in bench_compare even when
// every answer stays correct.
//
// The Table 2 case also reports the host cost of the per-PE setup
// around the run: loading the programs (max_load_us_per_pe) and tearing
// the loaded fabric down (max_free_us_per_pe), per PE.
//
// Host-seconds metrics are machine-sensitive, so the JSON sidecar marks
// them with a `min_` (higher is better) or `max_` (lower is better)
// prefix: bench_compare gates them one-direction only (current may be
// faster than baseline, never much slower).
#include <algorithm>
#include <chrono>
#include <memory>

#include "bench/bench_common.hpp"

namespace fvf::bench {
namespace {

/// The DSD-bound case: the paper's column depth (Section 5.3.3).
constexpr i32 kDeepFabric = 64;
constexpr i32 kDeepNz = 246;

f64 seconds_between(std::chrono::steady_clock::time_point t0,
                    std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::duration<f64>>(t1 - t0)
      .count();
}

/// Loads the TPFA program on `extents`, times the engine run, then frees
/// the load. One untimed warm-up rep (page-faults the slabs, warms the
/// allocator, and takes the launch's one strict lint pass), then `reps`
/// timed reps keeping the fastest of each timing: the minimum is the
/// noise-robust statistic on a shared box, and the right one for the
/// one-direction bench_compare gate. `setup_metrics` adds the per-PE
/// load and free times to the sidecar. Returns false on a failed run.
bool measure(Extents3 extents, const BenchScale& scale, i64 reps,
             bool setup_metrics, TextTable& table, BenchJsonWriter& json) {
  core::DataflowOptions options;
  options.iterations = scale.iterations;
  options.execution = scale.execution();
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(extents, scale.seed);

  dataflow::RunInfo result;
  f64 host_seconds = 0.0;
  f64 load_seconds = 0.0;
  f64 free_seconds = 0.0;
  for (i64 rep = -1; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto load = std::make_unique<core::TpfaLoad>(
        core::load_dataflow_tpfa(problem, options));
    const auto t1 = std::chrono::steady_clock::now();
    dataflow::RunInfo attempt = load->harness->run();
    const auto t2 = std::chrono::steady_clock::now();
    if (!attempt.ok()) {
      std::cerr << "run failed: " << attempt.errors[0] << '\n';
      return false;
    }
    load.reset();
    const auto t3 = std::chrono::steady_clock::now();
    if (rep < 0) {
      continue;  // the warm-up
    }
    const f64 seconds = seconds_between(t1, t2);
    if (rep == 0 || seconds < host_seconds) {
      host_seconds = seconds;
      result = std::move(attempt);
    }
    const f64 loading = seconds_between(t0, t1);
    const f64 freeing = seconds_between(t2, t3);
    load_seconds = rep == 0 ? loading : std::min(load_seconds, loading);
    free_seconds = rep == 0 ? freeing : std::min(free_seconds, freeing);
  }

  const std::string fabric =
      std::to_string(extents.nx) + "x" + std::to_string(extents.ny);
  const f64 events_per_s =
      static_cast<f64>(result.events_processed) / host_seconds;
  const f64 cycles_per_s = result.makespan_cycles / host_seconds;
  table.add_row({fabric, std::to_string(extents.nz),
                 format_count(static_cast<i64>(result.events_processed)),
                 format_fixed(result.makespan_cycles, 0),
                 format_fixed(host_seconds, 3),
                 format_fixed(events_per_s / 1e6, 2),
                 format_fixed(cycles_per_s / 1e6, 2)});

  BenchJsonCase& c = json.add_case("tpfa_" + fabric);
  c.cycles = result.makespan_cycles;
  c.device_seconds = result.device_seconds;
  c.counters = result.counters;
  json.add_metric("events_processed",
                  static_cast<f64>(result.events_processed));
  json.add_metric("min_sim_cycles_per_host_second", cycles_per_s);
  json.add_metric("min_events_per_host_second", events_per_s);
  if (setup_metrics) {
    const f64 us_per_pe = 1e6 / static_cast<f64>(extents.nx * extents.ny);
    json.add_metric("max_load_us_per_pe", load_seconds * us_per_pe);
    json.add_metric("max_free_us_per_pe", free_seconds * us_per_pe);
  }
  return true;
}

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  BenchScale scale = BenchScale::from_cli(cli);
  if (!cli.has("fabric")) {
    scale.fabric = 128;  // the Table 2 point this bench tracks
  }
  const i64 reps = cli.get_int("reps", 3);
  BenchJsonWriter json("sim_throughput", cli);

  print_header("Event-engine host throughput (TPFA engine run only)");
  TextTable table({"fabric", "nz", "events", "sim cycles", "host [s]",
                   "Mevents/s", "Mcycles/s"});
  if (!measure(Extents3{scale.fabric, scale.fabric, scale.nz_low}, scale,
               reps, /*setup_metrics=*/true, table, json) ||
      !measure(Extents3{kDeepFabric, kDeepFabric, kDeepNz}, scale, reps,
               /*setup_metrics=*/false, table, json)) {
    return 1;
  }
  std::cout << table.render();
  std::cout << "(host-seconds metrics are gated one-direction only: a "
               "faster machine never fails the bench_compare gate)\n";
  return 0;
}

}  // namespace
}  // namespace fvf::bench

int main(int argc, const char** argv) { return fvf::bench::run(argc, argv); }
