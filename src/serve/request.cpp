#include "serve/request.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/assert.hpp"

namespace fvf::serve {

std::string_view backend_choice_name(BackendChoice backend) noexcept {
  switch (backend) {
    case BackendChoice::Auto:
      return "auto";
    case BackendChoice::Wse:
      return api::backend_name(api::Backend::Wse);
    case BackendChoice::Gpusim:
      return api::backend_name(api::Backend::Gpusim);
  }
  return "?";
}

std::string_view priority_name(Priority priority) noexcept {
  switch (priority) {
    case Priority::Interactive:
      return "interactive";
    case Priority::Batch:
      return "batch";
    case Priority::Background:
      return "background";
  }
  return "?";
}

namespace {

/// Spelling normalization: dashes to underscores, then the documented
/// aliases onto the canonical field name.
std::string normalize_key(std::string_view raw) {
  std::string key(raw);
  for (char& c : key) {
    if (c == '-') {
      c = '_';
    }
  }
  if (key == "steps" || key == "windows" || key == "max_iterations") {
    return "iterations";
  }
  if (key == "tolerance") {
    return "tol";
  }
  if (key == "window" || key == "window_seconds" || key == "timestep") {
    return "dt";
  }
  if (key == "deadline") {
    return "deadline_ms";
  }
  return key;
}

i64 parse_i64(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  FVF_REQUIRE_MSG(end != value.c_str() && *end == '\0' && errno == 0,
                  "request field '" << key << "' has non-integer value '"
                                    << value << "'");
  return static_cast<i64>(parsed);
}

f64 parse_f64(const std::string& key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const f64 parsed = std::strtod(value.c_str(), &end);
  FVF_REQUIRE_MSG(end != value.c_str() && *end == '\0' && errno == 0,
                  "request field '" << key << "' has non-numeric value '"
                                    << value << "'");
  return parsed;
}

Priority parse_priority(const std::string& value) {
  if (value == "interactive" || value == "high") {
    return Priority::Interactive;
  }
  if (value == "batch" || value == "normal") {
    return Priority::Batch;
  }
  if (value == "background" || value == "low") {
    return Priority::Background;
  }
  FVF_REQUIRE_MSG(false, "unknown priority '"
                             << value
                             << "' (expected interactive|batch|background)");
  return Priority::Batch;  // unreachable
}

BackendChoice parse_backend_choice(const std::string& value) {
  if (value == "auto") {
    return BackendChoice::Auto;
  }
  if (value == api::backend_name(api::Backend::Wse)) {
    return BackendChoice::Wse;
  }
  if (value == api::backend_name(api::Backend::Gpusim)) {
    return BackendChoice::Gpusim;
  }
  FVF_REQUIRE_MSG(false, "unknown backend '" << value << "' (expected auto|"
                                             << api::backend_name_list()
                                             << ")");
  return BackendChoice::Auto;  // unreachable
}

lint::Level parse_lint(const std::string& value) {
  if (value == "off") {
    return lint::Level::Off;
  }
  if (value == "warn") {
    return lint::Level::Warn;
  }
  if (value == "strict") {
    return lint::Level::Strict;
  }
  FVF_REQUIRE_MSG(false, "unknown lint level '" << value
                                                << "' (expected off|warn|strict)");
  return lint::Level::Off;  // unreachable
}

/// Canonical float spelling: shortest round-trippable decimal via %.17g
/// (the hash must not distinguish "1e-05" from "0.00001", so both are
/// parsed and re-printed the same way).
std::string canonical_f64(f64 value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

ScenarioRequest parse_request(std::string_view line) {
  ScenarioRequest request;
  std::string text(line);
  for (char& c : text) {
    if (c == ',') {
      c = ' ';
    }
  }
  std::istringstream tokens(text);
  std::string token;
  while (tokens >> token) {
    if (token[0] == '#') {
      break;  // rest of the line is a comment
    }
    const usize eq = token.find('=');
    FVF_REQUIRE_MSG(eq != std::string::npos && eq > 0 && eq + 1 < token.size(),
                    "malformed request token '" << token
                                                << "' (expected key=value)");
    const std::string key = normalize_key(token.substr(0, eq));
    const std::string value = token.substr(eq + 1);

    if (key == "program") {
      request.kernel = api::find_kernel(value).name;
    } else if (key == "backend") {
      request.backend = parse_backend_choice(value);
    } else if (key == "nx") {
      request.nx = static_cast<i32>(parse_i64(key, value));
    } else if (key == "ny") {
      request.ny = static_cast<i32>(parse_i64(key, value));
    } else if (key == "nz") {
      request.nz = static_cast<i32>(parse_i64(key, value));
    } else if (key == "seed") {
      request.seed = static_cast<u64>(parse_i64(key, value));
    } else if (key == "iterations") {
      request.iterations = static_cast<i32>(parse_i64(key, value));
    } else if (key == "dt") {
      request.dt = parse_f64(key, value);
    } else if (key == "tol") {
      request.tol = parse_f64(key, value);
    } else if (key == "fault_seed") {
      request.fault_seed = static_cast<u64>(parse_i64(key, value));
    } else if (key == "fault_rate") {
      request.fault_rate = parse_f64(key, value);
    } else if (key == "threads") {
      request.threads = static_cast<i32>(parse_i64(key, value));
    } else if (key == "lint") {
      request.lint = parse_lint(value);
    } else if (key == "priority") {
      request.priority = parse_priority(value);
    } else if (key == "deadline_ms") {
      request.deadline_ms = static_cast<u64>(parse_i64(key, value));
    } else if (key == "checkpoint_every") {
      request.checkpoint_every = static_cast<i32>(parse_i64(key, value));
    } else {
      FVF_REQUIRE_MSG(false, "unknown request field '" << key << "'");
    }
  }
  // Defaults resolve only once parsing is complete: the program token
  // may come before or after the fields it defaults, and order must not
  // matter.
  return resolve_defaults(request);
}

ScenarioRequest resolve_defaults(const ScenarioRequest& request) {
  ScenarioRequest resolved = request;
  static_cast<api::FieldEquationSpec&>(resolved) = api::resolve_spec(request);
  if (resolved.backend == BackendChoice::Auto) {
    // Deterministic routing: background work runs on the executing GPU
    // backend, keeping the fabric free for interactive/batch requests.
    resolved.backend = resolved.priority == Priority::Background
                           ? BackendChoice::Gpusim
                           : BackendChoice::Wse;
  }
  FVF_REQUIRE_MSG(resolved.checkpoint_every >= 0,
                  "request field 'checkpoint_every' = "
                      << resolved.checkpoint_every << " must be >= 0");
  return resolved;
}

std::string canonical_content(const ScenarioRequest& request) {
  const ScenarioRequest defaulted = resolve_defaults(request);
  std::ostringstream os;
  os << "backend=" << backend_choice_name(defaulted.backend)
     << " dt=" << canonical_f64(defaulted.dt)
     << " fault_rate=" << canonical_f64(defaulted.fault_rate)
     << " fault_seed=" << defaulted.fault_seed
     << " iterations=" << defaulted.iterations << " nx=" << defaulted.nx
     << " ny=" << defaulted.ny << " nz=" << defaulted.nz
     << " program=" << defaulted.kernel
     << " seed=" << defaulted.seed << " tol=" << canonical_f64(defaulted.tol);
  return os.str();
}

u64 fnv1a(std::string_view bytes) noexcept {
  u64 hash = api::kDigestSeed;
  for (const char c : bytes) {
    hash ^= static_cast<u8>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

u64 scenario_hash(const ScenarioRequest& request) {
  return fnv1a(canonical_content(request));
}

}  // namespace fvf::serve
