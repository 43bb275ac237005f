// The serve_mix workload: a seeded trace of request lines over every
// registry kernel on both backends, pushed through a live
// serve::ScenarioService twice:
//
//   open loop   requests sent on a fixed schedule (kRate per second) to a
//               two-worker service for --seconds, each timed from its due
//               time to its response
//   saturation  the same trace on a fresh one-worker service, submitted
//               as fast as admission allows (never more outstanding
//               requests than the queue holds, so nothing is shed by the
//               generator); kSaturationPasses passes, the rate over all
//               of them reported
//
// One generator thread submits and polls for completions, so the
// workload uses at most three of four cores. Every response digest is
// checked afterwards against api::run_field_equation on the same
// scenario and backend.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "api/api.hpp"
#include "common/rng.hpp"
#include "dataflow/run_info.hpp"
#include "perfbench.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

using fvf::serve::RequestStatus;
using fvf::serve::ScenarioResponse;
using fvf::serve::ScenarioService;
using Future = std::shared_future<ScenarioResponse>;

/// Open-loop send rate: about an eighth of the two-worker service's
/// saturation rate on a 4-core host (330-460 requests per second), so
/// requests rarely queue even when the host runs twice as slow. At 120
/// and 80 per second, queueing behind heavy CG and IMPES launches grew
/// faster than a host slowdown and made the latency percentiles swing
/// between runs.
constexpr f64 kRate = 50.0;
constexpr i32 kOpenLoopWorkers = 2;
/// Saturation keeps one worker busy, not two: on a shared 4-core host two
/// workers running flat out swung the rate by 16% between runs of one
/// trace, against 7% for one.
constexpr i32 kSaturationWorkers = 1;
constexpr int kSaturationPasses = 3;
constexpr const char* kKernels[] = {"tpfa", "cg", "transport", "wave", "impes", "heat"};
constexpr const char* kBackends[] = {"wse", "gpusim"};

/// One generated request. Every line pins its backend, so memo hits and
/// simulation counts do not depend on priority routing.
struct Request {
  std::string line;
  std::string kernel;
  std::string backend;
  i32 nx = 0;
  i32 ny = 0;
  i32 nz = 4;
  u64 seed = 0;
  i32 iterations = 0;  ///< 0 = the kernel's default
  /// Index of the first request with the same line (itself if new).
  usize scenario = 0;
};

/// The (nx, ny) shapes in the order trace units use them: all 25 of
/// 6..10 x 6..10, interleaving small and large so every prefix has a
/// similar mean size.
constexpr std::pair<i32, i32> kShapes[] = {
    {8, 8}, {6, 10}, {10, 6}, {7, 9}, {9, 7}, {6, 6}, {10, 10}, {8, 6}, {6, 8},
    {9, 9}, {7, 7}, {10, 8}, {8, 10}, {7, 10}, {10, 7}, {6, 9}, {9, 6}, {6, 7},
    {7, 6}, {8, 9}, {9, 8}, {7, 8}, {8, 7}, {10, 9}, {9, 10}};
constexpr std::pair<i32, i32> kSmallShape{4, 4};
/// IMPES runs one window instead of its default three: at three, one
/// IMPES launch costs as much as fifty light ones, and bursts of them
/// keep both workers busy long enough to make open-loop tail latency
/// swing by 2x between runs of one trace.
constexpr i32 kImpesWindows = 1;
constexpr usize kScenariosPerShape = 5;
constexpr usize kRepeatsPerShape = 1;
constexpr usize kRequestsPerUnit =
    6 * 2 * (kScenariosPerShape + kRepeatsPerShape);

/// The seeded trace, built in units. Each unit gives every (kernel,
/// backend) pair one new shape, run with kScenariosPerShape geomodel
/// seeds, plus kRepeatsPerShape exact repeats of those scenarios. In
/// arrival order the first request of a shape is a new shape (pays
/// lint), later distinct seeds share lint but miss the problem cache,
/// and repeats hit the memo or coalesce. The mix of kernels, shapes and
/// kinds is the same for every seed; the seed picks the geomodel seeds,
/// which scenarios repeat, and the order.
std::vector<Request> make_trace(u64 seed, usize units, bool small) {
  fvf::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 0x5e7e);
  std::vector<Request> trace;
  for (usize unit = 0; unit < units; ++unit) {
    const auto [nx, ny] = small ? kSmallShape : kShapes[unit % std::size(kShapes)];
    for (const char* kernel : kKernels) {
      for (const char* backend : kBackends) {
        const usize first = trace.size();
        for (usize k = 0; k < kScenariosPerShape; ++k) {
          Request r;
          r.kernel = kernel;
          r.backend = backend;
          r.nx = nx;
          r.ny = ny;
          r.iterations = std::string_view(kernel) == "impes" ? kImpesWindows : 0;
          r.seed = 1 + rng.below(1'000'000'000);
          r.line = "program=" + r.kernel + " backend=" + r.backend +
                   " nx=" + std::to_string(r.nx) + " ny=" + std::to_string(r.ny) +
                   " nz=" + std::to_string(r.nz) + " seed=" + std::to_string(r.seed);
          if (r.iterations > 0) {
            r.line += " iterations=" + std::to_string(r.iterations);
          }
          trace.push_back(std::move(r));
        }
        for (usize k = 0; k < kRepeatsPerShape; ++k) {
          trace.push_back(trace[first + rng.below(kScenariosPerShape)]);
        }
      }
    }
  }
  for (usize i = trace.size(); i > 1; --i) {
    std::swap(trace[i - 1], trace[rng.below(i)]);
  }
  std::unordered_map<std::string, usize> first_seen;
  for (usize i = 0; i < trace.size(); ++i) {
    trace[i].scenario = first_seen.emplace(trace[i].line, i).first->second;
  }
  return trace;
}

/// What the generator saw of one request.
struct Observed {
  f64 due_s = 0.0;
  f64 sent_s = 0.0;
  f64 done_s = 0.0;
  Future future;
};

struct PhaseResult {
  std::vector<Observed> requests;
  f64 wall_s = 0.0;
  fvf::serve::ServiceStats stats;
};

class Generator {
 public:
  Generator(Tracer& tracer, const std::vector<Request>& trace)
      : tracer_(tracer), trace_(trace) {}

  /// Sends request i (traced: parse, hash and submit spans under the
  /// request's span).
  void send(ScenarioService& service, usize i, Observed& o) {
    const std::string& line = trace_[i].line;
    o.sent_s = now_s();
    if (!tracer_.enabled()) {
      o.future = service.submit_line(line);
      return;
    }
    const u64 group = group_base_ + i + 1;
    request_span_[i] = tracer_.add("serve.request", group, 0, o.due_s, o.due_s);
    const u64 parent = request_span_[i];
    f64 t = now_s();
    const fvf::serve::ScenarioRequest parsed = fvf::serve::parse_request(line);
    f64 t2 = now_s();
    tracer_.add("serve.parse", group, parent, t, t2);
    t = now_s();
    static_cast<void>(
        fvf::serve::scenario_hash(fvf::serve::resolve_defaults(parsed)));
    t2 = now_s();
    tracer_.add("serve.hash", group, parent, t, t2);
    t = now_s();
    o.future = service.submit_line(line);
    tracer_.add("serve.submit", group, parent, t, now_s());
  }

  /// Records completions of pending requests and drops them from `pending`.
  void poll(std::vector<usize>& pending, std::vector<Observed>& obs) {
    usize kept = 0;
    for (const usize i : pending) {
      Observed& o = obs[i];
      if (o.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        pending[kept++] = i;
        continue;
      }
      o.done_s = now_s();
      if (tracer_.enabled()) {
        tracer_.close(request_span_[i], o.done_s);
        const ScenarioResponse& r = o.future.get();
        if (!r.cache_hit && !r.coalesced) {
          const f64 start = o.sent_s + r.queue_ms * 1e-3;
          const u64 group = group_base_ + i + 1;
          tracer_.add("serve.queue", group, request_span_[i], o.sent_s, start);
          tracer_.add("serve.run", group, request_span_[i], start,
                      start + r.run_ms * 1e-3);
        }
      }
    }
    pending.resize(kept);
  }

  /// Sends every request at its due time (rate kRate).
  PhaseResult open_loop(ScenarioService& service) {
    PhaseResult phase = start_phase();
    std::vector<usize> pending;
    const f64 t0 = now_s() + 0.01;
    for (usize i = 0; i < trace_.size(); ++i) {
      phase.requests[i].due_s = t0 + static_cast<f64>(i) / kRate;
    }
    usize next = 0;
    while (next < trace_.size() || !pending.empty()) {
      if (next < trace_.size() && now_s() >= phase.requests[next].due_s) {
        send(service, next, phase.requests[next]);
        pending.push_back(next++);
        continue;
      }
      poll(pending, phase.requests);
      nap(next < trace_.size() ? phase.requests[next].due_s : 0.0);
    }
    phase.wall_s = now_s() - t0;
    finish(service, phase);
    return phase;
  }

  /// Submits the trace as fast as admission allows.
  PhaseResult saturate(ScenarioService& service, usize capacity) {
    PhaseResult phase = start_phase();
    std::vector<usize> pending;
    const f64 t0 = now_s();
    usize next = 0;
    while (next < trace_.size() || !pending.empty()) {
      if (next < trace_.size() && pending.size() < capacity) {
        phase.requests[next].due_s = now_s();
        send(service, next, phase.requests[next]);
        pending.push_back(next++);
        continue;
      }
      poll(pending, phase.requests);
      nap(0.0);
    }
    phase.wall_s = now_s() - t0;
    finish(service, phase);
    return phase;
  }

 private:
  PhaseResult start_phase() {
    PhaseResult phase;
    phase.requests.resize(trace_.size());
    request_span_.assign(trace_.size(), 0);
    group_base_ += trace_.size();
    return phase;
  }

  /// Sleeps briefly, but never past `until` (0 = no limit).
  static void nap(f64 until) {
    f64 pause = 100e-6;
    if (until > 0.0) {
      pause = std::min(pause, std::max(0.0, until - now_s()));
    }
    if (pause > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<f64>(pause));
    }
  }

  void finish(ScenarioService& service, PhaseResult& phase) {
    ScopedSpan span(tracer_, "serve.stats", 0);
    phase.stats = service.stats();
  }

  Tracer& tracer_;
  const std::vector<Request>& trace_;
  std::vector<u64> request_span_;
  /// Span group of request 0 in the current phase: every request of every
  /// phase gets its own group.
  u64 group_base_ = 0;
};

fvf::serve::ServiceOptions service_options(i32 workers) {
  fvf::serve::ServiceOptions options;
  options.workers = workers;
  return options;
}

/// Expected outcome of one scenario from the api entry point.
struct Expected {
  bool ok = false;
  u64 digest = 0;
};

std::vector<Expected> expected_outcomes(const std::vector<Request>& trace) {
  std::vector<usize> scenarios;
  for (usize i = 0; i < trace.size(); ++i) {
    if (trace[i].scenario == i) {
      scenarios.push_back(i);
    }
  }
  std::vector<Expected> expected(trace.size());
  std::atomic<usize> next{0};
  const auto work = [&] {
    for (usize k = next++; k < scenarios.size(); k = next++) {
      const Request& r = trace[scenarios[k]];
      fvf::api::FieldEquationSpec spec;
      spec.kernel = r.kernel;
      spec.nx = r.nx;
      spec.ny = r.ny;
      spec.nz = r.nz;
      spec.seed = r.seed;
      spec.iterations = r.iterations;
      Expected& e = expected[scenarios[k]];
      try {
        const fvf::api::FieldEquationResult result = fvf::api::run_field_equation(
            spec, r.backend == "wse" ? fvf::api::Backend::Wse
                                     : fvf::api::Backend::Gpusim);
        e.ok = result.converged;
        e.digest = result.result_digest;
      } catch (const std::exception&) {
        e.ok = false;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 3; ++t) {
    pool.emplace_back(work);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return expected;
}

i64 cell_iterations(const Request& r) {
  const fvf::serve::ScenarioRequest resolved =
      fvf::serve::resolve_defaults(fvf::serve::parse_request(r.line));
  return static_cast<i64>(resolved.nx) * resolved.ny * resolved.nz *
         resolved.iterations;
}

}  // namespace

RunResult run_serve_workload(const RunOptions& options) {
  if (options.workload != "serve_mix") {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  Tracer tracer(options.trace);
  RunResult result;
  // The open loop takes about --seconds.
  const usize units = options.small
                          ? 1
                          : std::max<usize>(1, static_cast<usize>(std::llround(
                                options.seconds * kRate /
                                static_cast<f64>(kRequestsPerUnit))));

  // --- setup: service construction plus trace generation -------------------
  constexpr int kSetupReps = 51;
  std::vector<f64> setup_s;
  std::unique_ptr<ScenarioService> service;
  std::vector<Request> trace;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    service.reset();
    const f64 t0 = now_s();
    service = std::make_unique<ScenarioService>(service_options(kOpenLoopWorkers));
    trace = make_trace(options.seed, units, options.small);
    setup_s.push_back(now_s() - t0);
  }

  // --- timed phases ----------------------------------------------------------
  // Saturation runs kSaturationPasses times, each on a fresh service, and
  // reports completions per second over all passes: one pass lasts a few
  // seconds, and the host's speed drifts by 10-20% on that scale. The
  // traced run leaves its middle pass untraced, which gives the tracing
  // overhead.
  Generator generator(tracer, trace);
  Tracer off(false);
  Generator plain(off, trace);
  std::vector<PhaseResult> phases;
  phases.push_back(generator.open_loop(*service));
  const fvf::serve::ServiceOptions saturation = service_options(kSaturationWorkers);
  for (int pass = 0; pass < kSaturationPasses; ++pass) {
    service = std::make_unique<ScenarioService>(saturation);
    phases.push_back((options.trace && pass == 1 ? plain : generator)
                         .saturate(*service, saturation.queue_capacity));
  }
  service.reset();
  const PhaseResult& open = phases.front();

  // --- checks ----------------------------------------------------------------
  const std::vector<Expected> expected = expected_outcomes(trace);
  u64 ok_count = 0;
  u64 saturated_ok = 0;
  f64 saturated_s = 0.0;
  std::vector<f64> latency_ms;
  std::vector<f64> late_ms;
  std::vector<f64> queue_ms;
  std::vector<f64> run_ms;
  std::map<std::string, std::vector<f64>> run_ms_by_kernel;
  f64 cell_iters = 0.0;
  fvf::dataflow::RunInfo wse_total;
  std::vector<f64> wse_run_ms;
  f64 wse_run_s = 0.0;
  u64 chain = fvf::api::kDigestSeed;
  for (const PhaseResult& phase : phases) {
    u64 phase_ok = 0;
    for (usize i = 0; i < trace.size(); ++i) {
      const Observed& o = phase.requests[i];
      const ScenarioResponse& r = o.future.get();
      const Expected& e = expected[trace[i].scenario];
      const bool ok = r.ok() && e.ok && r.result_digest == e.digest;
      // A status that disagrees with the api path, or an Ok response with
      // another digest, is a wrong output; a shed or a failure both paths
      // agree on (a CG that does not converge) only counts as failed.
      const bool wrong = (r.ok() || r.status == RequestStatus::Failed) &&
                         (r.ok() != e.ok || (r.ok() && !ok));
      result.check(ok, wrong);
      if (!ok) {
        std::cerr << "perfbench: request " << i << " (" << trace[i].line << ") "
                  << fvf::serve::status_name(r.status) << ": " << r.error
                  << (wrong ? " [wrong output]" : "") << '\n';
      }
      chain = fvf::serve::fnv1a_mix(chain, r.result_digest);
      chain = fvf::serve::fnv1a_mix(chain, static_cast<u64>(r.status));
      phase_ok += ok ? 1 : 0;
      if (&phase != &open) {
        continue;
      }
      // A failed or shed request counts as missing: it is charged the whole
      // phase, longer than any completed request, so percentiles stay finite.
      latency_ms.push_back(1e3 * (ok ? o.done_s - o.due_s : phase.wall_s));
      late_ms.push_back(1e3 * (o.sent_s - o.due_s));
      if (!r.cache_hit && !r.coalesced && r.ok()) {
        queue_ms.push_back(r.queue_ms);
        run_ms.push_back(r.run_ms);
        run_ms_by_kernel[trace[i].kernel + "." + trace[i].backend].push_back(r.run_ms);
        if (trace[i].backend == "wse") {
          fvf::dataflow::accumulate(wse_total, r.info);
          wse_run_ms.push_back(r.run_ms);
          wse_run_s += r.run_ms * 1e-3;
          cell_iters += static_cast<f64>(cell_iterations(trace[i]));
        }
      }
    }
    if (&phase == &open) {
      ok_count = phase_ok;
    } else {
      saturated_ok += phase_ok;
      saturated_s += phase.wall_s;
    }
  }
  const fvf::serve::ServiceStats& s = open.stats;
  result.output("requests", std::to_string(trace.size()));
  result.output("responses_ok", std::to_string(ok_count));
  result.output("saturation_ok", std::to_string(saturated_ok));
  result.output("response_chain", hex(chain));
  result.output("memo.hits", std::to_string(s.memo.hits));
  result.output("memo.misses", std::to_string(s.memo.misses));
  result.output("saturation.memo.hits", std::to_string(phases[1].stats.memo.hits));

  if (!options.trace) {
    result.metric("setup_s", median(setup_s), "s");
    // Fabric scenarios executed by the service: median scenario-to-digest
    // time, and cell-iterations per second of that time.
    result.metric("scenario_s", 1e-3 * median(wse_run_ms), "s");
    result.metric("cell_iters_per_s", cell_iters / wse_run_s, "1/s");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    result.metric("serve_p50_ms", quantile(latency_ms, 0.5), "ms");
    result.metric("serve_p90_ms", quantile(latency_ms, 0.9), "ms");
    result.metric("serve_rps", static_cast<f64>(saturated_ok) / saturated_s, "1/s");
    return result;
  }

  result.metric("spec.compile_us", compile_us(tracer), "us");
  result.metric("serve.parse_us", 1e6 * median(tracer.durations("serve.parse")), "us");
  result.metric("serve.hash_us", 1e6 * median(tracer.durations("serve.hash")), "us");
  result.metric("serve.submit_us", 1e6 * median(tracer.durations("serve.submit")), "us");
  result.metric("serve.queue_ms_p50", quantile(queue_ms, 0.5), "ms");
  result.metric("serve.queue_ms_p99", quantile(queue_ms, 0.99), "ms");
  result.metric("serve.run_ms_p50", quantile(run_ms, 0.5), "ms");
  result.metric("serve.run_ms_p99", quantile(run_ms, 0.99), "ms");
  result.metric("serve.late_ms_p99", quantile(late_ms, 0.99), "ms");
  result.metric("serve.latency_ms_p99", quantile(latency_ms, 0.99), "ms");
  result.metric("serve.memo_hit_frac",
                static_cast<f64>(s.memo.hits) / static_cast<f64>(s.submitted), "ratio");
  result.metric("serve.coalesced", static_cast<f64>(s.coalesced), "count");
  result.metric("serve.simulations", static_cast<f64>(s.executor.simulations), "count");
  result.metric("serve.problem_hit_frac", s.executor.problems.hit_rate(), "ratio");
  result.metric("serve.setup_hit_frac", s.executor.setups.hit_rate(), "ratio");
  result.metric("serve.max_queue_depth", static_cast<f64>(s.max_queue_depth), "count");
  for (const char* kernel : kKernels) {
    for (const char* backend : kBackends) {
      const std::string key = std::string(kernel) + "." + backend;
      result.metric("serve.run_ms_p50." + key, quantile(run_ms_by_kernel[key], 0.5), "ms");
    }
  }
  const f64 events = static_cast<f64>(wse_total.events_processed);
  const f64 flops = static_cast<f64>(wse_total.counters.flops());
  result.metric("wse.run_s", wse_run_s, "s");
  result.metric("wse.events", events, "count");
  result.metric("wse.tasks", static_cast<f64>(wse_total.counters.tasks_executed), "count");
  result.metric("wse.wavelets", static_cast<f64>(wse_total.counters.wavelets_sent), "count");
  result.metric("wse.flops", flops, "count");
  result.metric("wse.ns_per_event", 1e9 * wse_run_s / events, "ns");
  result.metric("wse.ns_per_flop", 1e9 * wse_run_s / flops, "ns");
  result.metric("wse.sim_cycles", wse_total.makespan_cycles, "cycles");
  result.metric("wse.device_s", wse_total.device_seconds, "s");
  // Passes 0 and 2 traced, pass 1 not (see the timed phases).
  result.metric("trace.overhead_pct",
                100.0 * ((phases[1].wall_s + phases[3].wall_s) / (2.0 * phases[2].wall_s) - 1.0),
                "%");
  result.metric("trace.spans", static_cast<f64>(tracer.size()), "count");
  if (!options.spans_path.empty()) {
    tracer.write(options.spans_path);
  }
  return result;
}

}  // namespace perfbench
