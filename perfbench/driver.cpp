// In-process host benchmark driver. Runs one workload on inputs made
// from --seed, checks every output, and prints one JSON object on its
// last stdout line:
//
//   perfbench_driver --workload tpfa_wide|tpfa_deep|wafer_setup|serve_mix
//                    --seed N --seconds S --trace 0|1
//                    [--small 1] [--spans PATH] [--expected PATH]
//
// perfbench/run.py builds this binary and is the supported entry point.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "perfbench.hpp"

namespace perfbench {

u64 Tracer::begin(std::string_view name, u64 group) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.name = std::string(name);
  span.id = spans_.size() + 1;
  if (!open_.empty()) {
    const Span& outer = spans_[open_.back()];
    span.parent = outer.id;
    span.group = group != 0 ? group : outer.group;
  } else {
    span.group = group;
  }
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.back().id;
}

void Tracer::end(u64 id) {
  if (!enabled_) {
    return;
  }
  if (open_.empty() || spans_[open_.back()].id != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  spans_[open_.back()].end_s = now_s();
  open_.pop_back();
}

u64 Tracer::add(std::string_view name, u64 group, u64 parent, f64 start_s,
                f64 end_s) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.name = std::string(name);
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.group = group;
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::close(u64 id, f64 end_s) {
  if (enabled_) {
    spans_.at(id - 1).end_s = end_s;
  }
}

std::vector<f64> Tracer::durations(std::string_view name) const {
  std::vector<f64> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(s.end_s - s.start_s);
    }
  }
  return out;
}

std::vector<f64> Tracer::self_seconds(std::string_view name) const {
  std::vector<std::vector<usize>> children(spans_.size() + 1);
  for (usize i = 0; i < spans_.size(); ++i) {
    children[spans_[i].parent].push_back(i);
  }
  std::vector<f64> out;
  for (const Span& s : spans_) {
    if (s.name != name) {
      continue;
    }
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<f64, f64>> covered;
    for (const usize c : children[s.id]) {
      const f64 lo = std::max(spans_[c].start_s, s.start_s);
      const f64 hi = std::min(spans_[c].end_s, s.end_s);
      if (hi > lo) {
        covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    f64 busy = 0.0;
    f64 reach = s.start_s;
    for (const auto& [lo, hi] : covered) {
      if (hi > reach) {
        busy += hi - std::max(lo, reach);
        reach = hi;
      }
    }
    out.push_back(s.end_s - s.start_s - busy);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("perfbench: cannot write spans to " + path);
  }
  const f64 origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  os << "{\"traceEvents\":[";
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << exact((s.start_s - origin) * 1e6)
       << ",\"dur\":" << exact((s.end_s - s.start_s) * 1e6)
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"group\":" << s.group << "}}";
  }
  os << "\n]}\n";
}

f64 quantile(std::vector<f64> values, f64 q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const f64 pos = q * static_cast<f64>(values.size() - 1);
  const usize lo = static_cast<usize>(std::floor(pos));
  const usize hi = std::min(lo + 1, values.size() - 1);
  const f64 frac = pos - static_cast<f64>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

f64 current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  u64 pages = 0;
  u64 resident = 0;
  statm >> pages >> resident;
  return static_cast<f64>(resident) *
         static_cast<f64>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

f64 peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string exact(f64 value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string hex(u64 value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

namespace {

RunOptions parse_args(int argc, char** argv) {
  RunOptions options;
  std::string expected_path;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value != "0";
    } else if (key == "--threads") {
      options.threads = std::stoi(value);
    } else if (key == "--small") {
      options.small = value != "0";
    } else if (key == "--spans") {
      options.spans_path = value;
    } else if (key == "--expected") {
      expected_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  if (!expected_path.empty()) {
    std::ifstream in(expected_path);
    if (!in) {
      throw std::runtime_error("cannot read " + expected_path);
    }
    std::stringstream text;
    text << in.rdbuf();
    options.expected = fvf::obs::parse_json(text.str());
  }
  return options;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

void print_result(const RunResult& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (usize i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, metric] = result.metrics[i];
    if (!std::isfinite(metric.first)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    os << (i == 0 ? "" : ", ") << json_string(name)
       << ": {\"value\": " << exact(metric.first)
       << ", \"unit\": " << json_string(metric.second) << "}";
  }
  os << "}, \"outputs\": {";
  bool first = true;
  for (const auto& [name, value] : result.outputs) {
    os << (first ? "" : ", ") << json_string(name) << ": "
       << json_string(value);
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const RunOptions options = parse_args(argc, argv);
    RunResult result;
    if (options.workload == "serve_mix") {
      result = run_serve_workload(options);
    } else {
      result = run_fabric_workload(options);
    }
    print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 2;
  }
}
