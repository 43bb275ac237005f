#include "dataflow/fabric_harness.hpp"

#include <iostream>
#include <sstream>

#include "obs/perfetto.hpp"

namespace fvf::dataflow {

HarnessOptions FabricHarness::effective(HarnessOptions options) {
  if (!options.trace_json_path.empty()) {
    // Exporting a timeline needs spans: phase attribution alone only
    // accumulates totals. Leave explicit capacities alone.
    if (options.execution.phase_span_capacity == 0) {
      options.execution.phase_span_capacity = 1u << 14;
    }
  }
  return options;
}

FabricHarness::FabricHarness(Coord2 extents, const HarnessOptions& options)
    : extents_(extents),
      options_(effective(options)),
      fabric_(extents.x, extents.y, options_.timings, options_.pe_memory_budget,
              options_.execution) {
  if (options_.trace == nullptr && !options_.trace_json_path.empty()) {
    // Keep-latest so a long run still shows its final iterations in the
    // exported timeline rather than an empty tail.
    owned_trace_ = std::make_unique<wse::TraceRecorder>(
        usize{1} << 20, wse::TraceRecorder::Mode::KeepLatest);
    options_.trace = owned_trace_.get();
  }
  if (options_.trace != nullptr) {
    fabric_.set_tracer(*options_.trace);
  }
}

lint::Options FabricHarness::lint_options(bool full) const {
  lint::Options options;
  options.check_routing = full;
  options.check_memory = full;
  options.check_reconfiguration = full;
  // Flow analyses (buffer bounds, cross-color deadlock, determinism)
  // compare against the loaded fabric's own router_buffer_depth
  // (router_buffer_depth = 0 in lint::Options).
  options.check_flow = full;
  options.memory_budget = options_.pe_memory_budget;
  options.color_claimed = [this](wse::Color c) { return colors_.claimed(c); };
  options.color_map = [this] { return colors_.describe(); };
  options.color_label = [this](wse::Color c) {
    std::ostringstream os;
    os << "color " << static_cast<int>(c.id());
    const std::string_view owner = colors_.owner_of(c);
    if (!owner.empty()) {
      os << " ('" << owner << "')";
    }
    return os.str();
  };
  return options;
}

void FabricHarness::verify_load() {
  // Drop the previous load's gate report first: this load may throw
  // below, and lint_report() must then lint the programs loaded now.
  gate_report_.reset();
  const bool full = options_.lint != lint::Level::Off;
  lint::Report report = lint::run(fabric_, lint_options(full));
  // A configured-but-unclaimed color fails the load at every lint level:
  // that fail-fast contract predates the linter, and a silently
  // misrouted color is never survivable.
  for (const lint::Diagnostic& d : report.diagnostics) {
    if (d.check == lint::Check::UnclaimedColor) {
      throw ContractViolation(d.message);
    }
  }
  // An Off load ran only the claim audit, which is not a full report. A
  // Warn or Strict gate ran the full analysis: keep it for lint_report(),
  // so a load lints once.
  if (!full) {
    return;
  }
  const lint::Report& gate = gate_report_.emplace(std::move(report));
  if (gate.clean()) {
    return;
  }
  if (options_.lint == lint::Level::Strict && gate.error_count() > 0) {
    throw ContractViolation(
        "fabric program failed static verification (--lint=strict):\n" +
        gate.describe());
  }
  std::cerr << "fvf::lint: " << gate.error_count() << " error(s), "
            << gate.warning_count() << " warning(s)\n"
            << gate.describe();
}

lint::Report FabricHarness::lint_report() const {
  FVF_REQUIRE_MSG(fabric_.pe(0, 0).program() != nullptr,
                  "FabricHarness::lint_report requires a prior load()");
  if (gate_report_.has_value()) {
    return *gate_report_;
  }
  return lint::run(fabric_, lint_options(/*full=*/true));
}

RunInfo FabricHarness::run(u64 max_events) {
  const wse::RunReport report = fabric_.run(max_events);

  RunInfo info;
  info.makespan_cycles = report.makespan_cycles;
  info.device_seconds = options_.timings.seconds(report.makespan_cycles);
  info.counters = fabric_.total_counters();
  for (u8 c = 0; c < ColorPlan::kManagedColors; ++c) {
    info.color_traffic[c] = fabric_.color_traffic(wse::Color{c});
  }
  info.max_pe_memory = fabric_.max_memory_used();
  info.events_processed = report.events_processed;
  if (options_.execution.phase_profiling) {
    info.phase_cycles = fabric_.total_phase_cycles();
    info.pe_phase_cycles.reserve(static_cast<usize>(fabric_.pe_count()));
    for (i32 y = 0; y < extents_.y; ++y) {
      for (i32 x = 0; x < extents_.x; ++x) {
        info.pe_phase_cycles.push_back(fabric_.pe(x, y).phase_cycles());
      }
    }
  }
  info.faults = report.faults;
  info.trace_events_emitted = report.trace_events_emitted;
  info.trace_records_dropped = report.trace_records_dropped;
  info.errors_total = report.errors_total;
  info.errors_suppressed = report.errors_suppressed;
  info.errors = report.errors;
  info.hazards = report.hazards;
  info.hazards_total = report.hazards_total;
  info.hazards_suppressed = report.hazards_suppressed;
  if (!options_.trace_json_path.empty()) {
    if (!obs::write_perfetto_json(options_.trace_json_path, fabric_,
                                  options_.trace)) {
      std::cerr << "warning: could not write trace timeline to "
                << options_.trace_json_path << "\n";
    }
  }
  return info;
}

}  // namespace fvf::dataflow
