// Shared pieces of the host benchmark driver: run options, the result
// record every workload fills, the in-memory span tracer, and small
// statistics / memory helpers. See perfbench/README.md for the metric
// definitions.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "obs/json.hpp"

namespace perfbench {

using fvf::f64;
using fvf::i32;
using fvf::i64;
using fvf::u64;
using fvf::usize;

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  u64 seed = 1;
  /// Measured duration of the timed phase.
  f64 seconds = 10.0;
  /// Record spans and report per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Shrunken inputs for the benchmark's own determinism test.
  bool small = false;
  /// Overrides the workload's event-engine thread count when > 0.
  i32 threads = 0;
  /// Where the traced run writes its spans (Chrome trace_event JSON).
  std::string spans_path;
  /// Recorded exact outputs (perfbench/expected.json), Null if not given.
  fvf::obs::JsonValue expected;
};

/// What a workload reports. `outputs` holds every non-timing output as
/// exact text, so two runs with one seed can be compared byte for byte.
struct RunResult {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::pair<std::string, std::pair<f64, std::string>>> metrics;
  std::map<std::string, std::string> outputs;

  void metric(std::string name, f64 value, std::string unit) {
    metrics.emplace_back(std::move(name),
                         std::make_pair(value, std::move(unit)));
  }
  void output(const std::string& name, std::string value) {
    outputs[name] = std::move(value);
  }
  /// Records one checked operation; a failed check also marks the run
  /// incorrect when `wrong_output` (a mismatch, as opposed to a refusal).
  void check(bool ok, bool wrong_output = true) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (wrong_output) {
        correct = false;
      }
    }
  }
};

[[nodiscard]] inline f64 now_s() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One traced call: name, interval, causing span, and the scenario or
/// request it belongs to.
struct Span {
  std::string name;
  u64 id = 0;
  u64 parent = 0;  ///< 0 = root
  u64 group = 0;   ///< scenario / request id shared by its spans
  f64 start_s = 0.0;
  f64 end_s = 0.0;
};

/// Single-threaded in-memory span recorder. Disabled, every call is a
/// branch and nothing is stored.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (0 when
  /// disabled).
  u64 begin(std::string_view name, u64 group);
  void end(u64 id);
  /// Records a span whose interval was measured elsewhere; returns its
  /// id (0 when disabled).
  u64 add(std::string_view name, u64 group, u64 parent, f64 start_s,
          f64 end_s);
  /// Moves the end of a span recorded by add().
  void close(u64 id, f64 end_s);

  /// Self time of every span called `name`: its duration minus the part
  /// of it covered by its children.
  [[nodiscard]] std::vector<f64> self_seconds(std::string_view name) const;
  /// Total duration of every span called `name`.
  [[nodiscard]] std::vector<f64> durations(std::string_view name) const;

  [[nodiscard]] usize size() const noexcept { return spans_.size(); }

  /// Writes every span as a Chrome trace_event "X" slice.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<usize> open_;  ///< indices into spans_
};

/// RAII span; `group` defaults to the enclosing span's group.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, u64 group)
      : tracer_(tracer), id_(tracer.begin(name, group)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  u64 id_;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] f64 quantile(std::vector<f64> values, f64 q);
[[nodiscard]] inline f64 median(std::vector<f64> values) {
  return quantile(std::move(values), 0.5);
}

/// Current resident set size and the process's peak (getrusage), MiB.
[[nodiscard]] f64 current_rss_mib();
[[nodiscard]] f64 peak_rss_mib();

/// Exact text of a double (round-trips bit for bit).
[[nodiscard]] std::string exact(f64 value);
/// 16 hex digits (digests).
[[nodiscard]] std::string hex(u64 value);

/// Median host time of one spec::compile(core::make_tpfa_spec(..)) call,
/// in microseconds, measured over a batch under one "spec.compile" span.
[[nodiscard]] f64 compile_us(Tracer& tracer);

RunResult run_fabric_workload(const RunOptions& options);
RunResult run_serve_workload(const RunOptions& options);

}  // namespace perfbench
