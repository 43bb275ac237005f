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
// Host-seconds metrics are machine-sensitive, so the JSON sidecar marks
// them with the `min_` prefix: bench_compare gates them one-direction
// only (current may be faster than baseline, never much slower).
#include <chrono>

#include "bench/bench_common.hpp"

namespace fvf::bench {
namespace {

/// The DSD-bound case: the paper's column depth (Section 5.3.3).
constexpr i32 kDeepFabric = 64;
constexpr i32 kDeepNz = 246;

/// Loads the TPFA program on `extents` (untimed), then times the engine
/// run. One untimed warm-up run (page-faults the slabs, warms the
/// allocator), then `reps` timed runs keeping the fastest: the minimum
/// is the noise-robust statistic on a shared box, and the right one for
/// the one-direction bench_compare gate. Returns false on a failed run.
bool measure(Extents3 extents, const BenchScale& scale, i64 reps,
             TextTable& table, BenchJsonWriter& json) {
  core::DataflowOptions options;
  options.iterations = scale.iterations;
  options.execution = scale.execution();
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(extents, scale.seed);

  dataflow::RunInfo result;
  f64 host_seconds = 0.0;
  for (i64 rep = -1; rep < reps; ++rep) {
    const core::TpfaLoad load = core::load_dataflow_tpfa(problem, options);
    const auto t0 = std::chrono::steady_clock::now();
    dataflow::RunInfo attempt = load.harness->run();
    const auto t1 = std::chrono::steady_clock::now();
    if (!attempt.ok()) {
      std::cerr << "run failed: " << attempt.errors[0] << '\n';
      return false;
    }
    if (rep < 0) {
      continue;  // the warm-up
    }
    const f64 seconds =
        std::chrono::duration_cast<std::chrono::duration<f64>>(t1 - t0)
            .count();
    if (rep == 0 || seconds < host_seconds) {
      host_seconds = seconds;
      result = std::move(attempt);
    }
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
               reps, table, json) ||
      !measure(Extents3{kDeepFabric, kDeepFabric, kDeepNz}, scale, reps,
               table, json)) {
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
