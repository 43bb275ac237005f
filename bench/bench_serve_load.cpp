// Replay load test of the scenario service (src/serve): ~2k seeded
// requests drawn from a fixed scenario pool — repeats that should hit
// the full-result memo, cache-hostile unique variants (different seeds,
// extents, work counts), and fault-injection configs — pushed through a
// live ScenarioService, plus a deterministic manual-mode admission
// phase (queue overflow shedding, deadline expiry under an injected
// clock).
//
// Emits BENCH_serve_load.json. Every cache/admission counter in the
// sidecar is exact and deterministic (the memo key is a content hash
// and each unique scenario executes exactly once, regardless of worker
// interleaving), so the regression gate holds them to equality. Host
// latency percentiles and throughput are machine-sensitive and use the
// one-direction `max_` / `min_` metric prefixes.
//
//   bench_serve_load [--requests 2000] [--threads 2] [--json-dir .]
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "serve/service.hpp"

namespace {

using namespace fvf;

/// The fixed scenario pool. Mixed spellings and field orders on purpose:
/// canonicalization must make them irrelevant to the memo key.
std::vector<std::string> scenario_pool() {
  return {
      // tpfa: cheap flux iterations, two geomodel seeds + a fault config.
      "program=tpfa nx=4 ny=4 nz=3 seed=7 iterations=2",
      "program=tpfa nx=4 ny=4 nz=3 seed=8 iterations=2",
      "program=tpfa seed=7 iterations=2 nx=6 ny=5 nz=3",
      "program=tpfa nx=4 ny=4 nz=3 seed=7 iterations=2 "
      "fault-seed=3 fault-rate=1e-6",
      // cg: two seeds; the third entry shares problem+setup caches with
      // the first (same extents/seed/dt, different work count).
      "program=cg nx=5 ny=5 nz=4 seed=7 iterations=120 tol=1e-4",
      "program=cg nx=5 ny=5 nz=4 seed=8 iterations=120 tol=1e-4",
      "program=cg nx=5 ny=5 nz=4 seed=7 max-iterations=80 tolerance=1e-3",
      "program=cg nx=5 ny=5 nz=4 seed=7 iterations=120 tol=1e-4 "
      "fault_seed=3 fault_rate=1e-6",
      "program=cg nx=5 ny=5 nz=4 seed=7 iterations=120 tol=1e-4 "
      "fault_seed=4 fault_rate=1e-6",
      // wave: shares the (problem, dt) setup cache with the cg entries.
      "program=wave nx=5 ny=5 nz=4 seed=7 steps=4",
      "program=wave nx=5 ny=5 nz=4 seed=7 steps=6",
      // transport: one explicit window.
      "program=transport nx=5 ny=5 nz=4 seed=7 window=600",
      "program=transport nx=5 ny=5 nz=4 seed=8 window=600",
      // impes: multi-window jobs sharing one geomodel.
      "program=impes nx=5 ny=5 nz=3 seed=7 windows=2 dt=900",
      "program=impes nx=5 ny=5 nz=3 seed=7 windows=3 dt=900",
  };
}

}  // namespace

int main(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  const usize total_requests =
      static_cast<usize>(cli.get_int("requests", 2000));
  const i32 threads = static_cast<i32>(cli.get_int("threads", 2));
  bench::BenchJsonWriter json("serve_load", cli);
  bench::print_header("scenario-service replay load test");

  // --- phase 1: replay ------------------------------------------------------
  const std::vector<std::string> pool = scenario_pool();
  serve::ServiceOptions options;
  options.workers = threads;
  options.queue_capacity = total_requests + pool.size();  // never shed here
  serve::ScenarioService service(options);

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::shared_future<serve::ScenarioResponse>> futures;
  futures.reserve(total_requests);
  // First pass: every unique scenario once (the cold runs). Wait for
  // them before replaying so the repeat phase is deterministically
  // composed of memo hits — the sidecar's latency sample mix (15 cold
  // latencies + N instant hits) must not depend on host timing.
  for (const std::string& line : pool) {
    futures.push_back(service.submit_line(line));
  }
  for (const auto& future : futures) {
    future.wait();
  }
  // Seeded repeats with varied scheduling fields. Threads and priority
  // never enter the scenario hash, but priority=background alone would
  // route the request to gpusim, a different scenario; pinning
  // backend=wse keeps every repeat a memo hit of a phase-1 cold run.
  Xoshiro256 rng(20260809);
  static constexpr const char* kScheduling[] = {
      "", " threads=2", " threads=4 priority=interactive",
      " priority=background backend=wse", " threads=2 priority=batch"};
  while (futures.size() < total_requests) {
    const std::string& line = pool[rng.below(pool.size())];
    futures.push_back(
        service.submit_line(line + kScheduling[rng.below(5)]));
  }

  f64 total_device_seconds = 0.0;
  f64 total_cycles = 0.0;
  usize ok = 0;
  for (const auto& future : futures) {
    const serve::ScenarioResponse& response = future.get();
    if (response.ok()) {
      ++ok;
    }
    total_device_seconds += response.info.device_seconds;
    total_cycles += response.info.makespan_cycles;
  }
  const f64 wall_seconds =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - started)
          .count();
  const serve::ServiceStats stats = service.stats();

  std::cout << "replayed " << futures.size() << " requests over "
            << pool.size() << " unique scenarios in " << wall_seconds
            << " s\n  cache hit rate " << stats.memo.hit_rate()
            << ", cold simulations " << stats.executor.simulations
            << ", p50 " << stats.latency_p50_ms << " ms, p99 "
            << stats.latency_p99_ms << " ms, cold p99 "
            << stats.cold_latency_p99_ms << " ms\n";

  bench::BenchJsonCase& replay = json.add_case("replay");
  replay.cycles = total_cycles;
  replay.device_seconds = total_device_seconds;
  json.add_metric("requests", static_cast<f64>(futures.size()));
  json.add_metric("responses_ok", static_cast<f64>(ok));
  json.add_metric("unique_scenarios", static_cast<f64>(pool.size()));
  json.add_metric("cache_hits", static_cast<f64>(stats.memo.hits));
  json.add_metric("cache_misses", static_cast<f64>(stats.memo.misses));
  json.add_metric("cache_hit_rate", stats.memo.hit_rate());
  json.add_metric("coalesced", static_cast<f64>(stats.coalesced));
  json.add_metric("shed", static_cast<f64>(stats.shed));
  json.add_metric("cold_simulations",
                  static_cast<f64>(stats.executor.simulations));
  json.add_metric("problem_cache_hits",
                  static_cast<f64>(stats.executor.problems.hits));
  json.add_metric("problem_cache_misses",
                  static_cast<f64>(stats.executor.problems.misses));
  json.add_metric("setup_cache_hits",
                  static_cast<f64>(stats.executor.setups.hits));
  json.add_metric("setup_cache_misses",
                  static_cast<f64>(stats.executor.setups.misses));
  // Host-time metrics: one-direction gates only (machine-sensitive).
  // The all-request percentiles are memo-dominated (deterministically 0
  // at this hit rate); the cold percentiles track real execution cost.
  json.add_metric("max_p50_latency_ms", stats.latency_p50_ms);
  json.add_metric("max_p99_latency_ms", stats.latency_p99_ms);
  json.add_metric("max_cold_p50_latency_ms", stats.cold_latency_p50_ms);
  json.add_metric("max_cold_p99_latency_ms", stats.cold_latency_p99_ms);
  json.add_metric("min_requests_per_second",
                  static_cast<f64>(futures.size()) / wall_seconds);

  // --- phase 2: admission control (deterministic, manual mode) --------------
  // An injected clock that jumps 10 ms per observation makes queue-time
  // deadline expiry exact, and workers=0 + drain() makes the shed order
  // a pure function of the submission sequence.
  auto fake_now = std::make_shared<f64>(0.0);
  serve::ServiceOptions manual;
  manual.workers = 0;
  manual.queue_capacity = 6;
  manual.now_ms = [fake_now] { return *fake_now += 10.0; };
  serve::ScenarioService admission(manual);

  std::vector<std::shared_future<serve::ScenarioResponse>> queued;
  const auto tiny = [](u64 seed, const char* extra) {
    std::ostringstream os;
    os << "program=tpfa nx=4 ny=3 nz=2 iterations=1 seed=" << seed << extra;
    return os.str();
  };
  for (u64 seed = 100; seed < 106; ++seed) {  // fill the queue (batch)
    queued.push_back(admission.submit_line(tiny(seed, "")));
  }
  for (u64 seed = 110; seed < 114; ++seed) {  // background: shed on arrival
    queued.push_back(
        admission.submit_line(tiny(seed, " priority=background")));
  }
  for (u64 seed = 120; seed < 122; ++seed) {  // interactive: evict batch
    queued.push_back(admission.submit_line(
        tiny(seed, " priority=interactive deadline-ms=5")));
  }
  admission.drain();

  usize shed = 0;
  usize expired = 0;
  usize drained_ok = 0;
  for (const auto& future : queued) {
    switch (future.get().status) {
      case serve::RequestStatus::Shed: ++shed; break;
      case serve::RequestStatus::DeadlineExpired: ++expired; break;
      case serve::RequestStatus::Ok: ++drained_ok; break;
      case serve::RequestStatus::Failed: break;
    }
  }
  std::cout << "admission phase: " << shed << " shed, " << expired
            << " deadline-expired, " << drained_ok << " completed\n";

  bench::BenchJsonCase& admit = json.add_case("admission");
  admit.cycles = 0.0;
  admit.device_seconds = 0.0;
  json.add_metric("shed_count", static_cast<f64>(shed));
  json.add_metric("deadline_expired", static_cast<f64>(expired));
  json.add_metric("drained_ok", static_cast<f64>(drained_ok));
  json.add_metric("max_queue_depth",
                  static_cast<f64>(admission.stats().max_queue_depth));
  return 0;
}
