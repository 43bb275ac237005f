/// \file json.hpp
/// \brief Minimal JSON value + recursive-descent parser.
///
/// Just enough JSON for the observability tooling: tools/bench_compare
/// reads the BENCH_<name>.json sidecars, and the tests round-trip the
/// Perfetto export through it. Hand-rolled on purpose — the toolchain
/// image carries no JSON library, and the two producers are ours, so a
/// strict little parser (no comments, no trailing commas) is all that is
/// needed.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace fvf::obs {

class JsonValue {
 public:
  enum class Kind : u8 { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  f64 number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Key/value pairs in document order (duplicate keys keep the first).
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::Object;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::Array; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::String;
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

/// Deepest array/object nesting parse_json accepts. The parser recurses
/// once per level, so the bound keeps untrusted input (uploaded BENCH
/// sidecars) from exhausting the stack.
inline constexpr usize kJsonMaxDepth = 256;

/// Parses one JSON document (throws std::runtime_error with a position
/// diagnostic on malformed input, trailing garbage, or nesting deeper
/// than kJsonMaxDepth).
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace fvf::obs
