/// \file route.hpp
/// \brief Per-color router configuration with switch positions.
///
/// A color's configuration on a router is a small set of *switch
/// positions*; exactly one position is current at any time. Each position
/// holds routing rules mapping an input link to a fan-out set of output
/// links. A control wavelet traversing the router advances the switch to
/// the next position — this is the mechanism Figure 6 of the paper uses to
/// alternate PEs between *Sending* and *Receiving* roles.
///
/// Everything here is a fixed-size value: a layout stamps the same few
/// configurations on every PE, so building one allocates nothing, and the
/// fabric stores each distinct configuration once (RouteConfigTable).
#pragma once

#include <algorithm>
#include <array>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "wse/fabric_types.hpp"

namespace fvf::wse {

/// The output links of one routing rule, in configuration order (the
/// order a fanned-out block is forwarded in), stored inline.
class DirList {
 public:
  DirList() = default;
  DirList(std::initializer_list<Dir> dirs) {
    for (const Dir d : dirs) {
      push_back(d);
    }
  }

  void push_back(Dir d) {
    FVF_REQUIRE_MSG(size_ < kLinkCount, "route rule fans out to more than "
                                            << kLinkCount << " output links");
    dirs_[size_++] = d;
  }

  [[nodiscard]] usize size() const noexcept { return size_; }
  [[nodiscard]] const Dir* begin() const noexcept { return dirs_.data(); }
  [[nodiscard]] const Dir* end() const noexcept { return dirs_.data() + size_; }

  friend bool operator==(const DirList& a, const DirList& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<Dir, kLinkCount> dirs_{};
  u8 size_ = 0;
};

/// A single routing rule: wavelets entering through `input` leave through
/// every link in `outputs` (fan-out / local broadcast).
struct RouteRule {
  Dir input = Dir::Ramp;
  DirList outputs;

  friend bool operator==(const RouteRule&, const RouteRule&) = default;
};

/// One switch position: a set of routing rules active simultaneously,
/// with distinct inputs (so at most kLinkCount of them).
class SwitchPosition {
 public:
  SwitchPosition() = default;
  SwitchPosition(std::initializer_list<RouteRule> rules) {
    for (const RouteRule& rule : rules) {
      add(rule);
    }
  }

  void add(const RouteRule& rule) {
    FVF_REQUIRE_MSG(find(rule.input) == nullptr,
                    "duplicate input link " << dir_name(rule.input)
                                            << " in switch position");
    rules_[count_++] = rule;
  }

  [[nodiscard]] std::span<const RouteRule> rules() const noexcept {
    return {rules_.data(), count_};
  }

  [[nodiscard]] const RouteRule* find(Dir input) const noexcept {
    for (const RouteRule& rule : rules()) {
      if (rule.input == input) {
        return &rule;
      }
    }
    return nullptr;
  }

 private:
  std::array<RouteRule, kLinkCount> rules_{};
  u8 count_ = 0;
};

/// Packed route word, one per (switch position, input link):
///   bit 0        rule exists (0 means "no rule for this input")
///   bits 1..3    output fan-out count
///   bits 4..18   outputs, 3 bits per Dir, in configuration order
///   bit 19       the color has more than one switch position
inline constexpr u32 kRouteExistsBit = 1u;
inline constexpr u32 kRouteMultiPositionBit = 1u << 19;

[[nodiscard]] constexpr usize route_output_count(u32 word) noexcept {
  return (word >> 1) & 0x7u;
}
[[nodiscard]] constexpr Dir route_output(u32 word, usize i) noexcept {
  return static_cast<Dir>((word >> (4 + 3 * i)) & 0x7u);
}

/// Full per-color configuration: up to kMaxPositions switch positions,
/// held only as their packed route words. The rules are decoded when
/// asked for (position(), positions()). Which position is current is
/// router state, not part of the configuration (Router::position).
class ColorConfig {
 public:
  static constexpr usize kMaxPositions = 4;

  /// The unconfigured color: no positions, every route word 0.
  ColorConfig() = default;

  explicit ColorConfig(std::initializer_list<SwitchPosition> positions)
      : ColorConfig(std::span<const SwitchPosition>(positions.begin(),
                                                    positions.size())) {}

  explicit ColorConfig(std::span<const SwitchPosition> positions) {
    FVF_REQUIRE_MSG(!positions.empty(),
                    "color configuration has no switch positions");
    FVF_REQUIRE_MSG(positions.size() <= kMaxPositions,
                    "color configuration has "
                        << positions.size() << " switch positions, more than "
                        << kMaxPositions);
    count_ = static_cast<u32>(positions.size());
    const u32 multi = count_ > 1 ? kRouteMultiPositionBit : 0u;
    for (usize p = 0; p < positions.size(); ++p) {
      for (const RouteRule& rule : positions[p].rules()) {
        u32 word = kRouteExistsBit |
                   (static_cast<u32>(rule.outputs.size()) << 1) | multi;
        u32 shift = 4;
        for (const Dir out : rule.outputs) {
          word |= static_cast<u32>(out) << shift;
          shift += 3;
        }
        words_[p * kLinkCount + static_cast<usize>(rule.input)] = word;
      }
    }
  }

  [[nodiscard]] bool configured() const noexcept { return count_ != 0; }
  [[nodiscard]] usize position_count() const noexcept { return count_; }

  /// The packed route word for `input` under switch position `position`
  /// (0 when that position has no rule for the input).
  [[nodiscard]] u32 word(usize position, Dir input) const noexcept {
    return words_[position * kLinkCount + static_cast<usize>(input)];
  }

  /// Decodes one switch position; its rules come out in Dir order.
  [[nodiscard]] SwitchPosition position(usize p) const {
    FVF_REQUIRE(p < count_);
    SwitchPosition pos;
    for (usize in = 0; in < kLinkCount; ++in) {
      const u32 w = word(p, static_cast<Dir>(in));
      if ((w & kRouteExistsBit) == 0) {
        continue;
      }
      RouteRule rule{static_cast<Dir>(in), {}};
      for (usize i = 0; i < route_output_count(w); ++i) {
        rule.outputs.push_back(route_output(w, i));
      }
      pos.add(rule);
    }
    return pos;
  }

  /// Every switch position, decoded (for inspection and tests; the
  /// engine and fvf::lint read the words directly).
  [[nodiscard]] std::vector<SwitchPosition> positions() const {
    std::vector<SwitchPosition> out;
    for (usize p = 0; p < count_; ++p) {
      out.push_back(position(p));
    }
    return out;
  }

  friend bool operator==(const ColorConfig&, const ColorConfig&) = default;

 private:
  friend class RouteConfigTable;

  [[nodiscard]] u64 hash() const noexcept {
    u64 h = count_;
    for (const u32 w : words_) {
      h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    }
    return h ^ (h >> 32);
  }

  std::array<u32, kMaxPositions * kLinkCount> words_{};
  u32 count_ = 0;
};

/// Builders for switch positions; the braced lists stay on the stack.
[[nodiscard]] inline SwitchPosition position(
    Dir input, std::initializer_list<Dir> outputs) {
  return SwitchPosition{RouteRule{input, DirList(outputs)}};
}

[[nodiscard]] inline SwitchPosition position(
    std::initializer_list<RouteRule> rules) {
  return SwitchPosition(rules);
}

/// The distinct color configurations of one fabric, each stored once and
/// named by a 32-bit id. Id 0 is the unconfigured color. Routers keep an
/// id per color, so the few patterns a layout stamps across the fabric
/// cost one table entry each instead of one copy per PE.
class RouteConfigTable {
 public:
  static constexpr u32 kUnconfigured = 0;

  RouteConfigTable() : configs_(1), slots_(16, 0) {}

  /// The id of `config`, adding it on first sight. Ids of earlier
  /// configurations never change, but references from operator[] are
  /// invalidated by an intern that adds one.
  [[nodiscard]] u32 intern(const ColorConfig& config) {
    if (!config.configured()) {
      return kUnconfigured;
    }
    if (2 * configs_.size() >= slots_.size()) {
      rehash(2 * slots_.size());
    }
    usize slot = static_cast<usize>(config.hash()) & (slots_.size() - 1);
    for (; slots_[slot] != 0; slot = (slot + 1) & (slots_.size() - 1)) {
      if (configs_[slots_[slot]] == config) {
        return slots_[slot];
      }
    }
    const u32 id = static_cast<u32>(configs_.size());
    configs_.push_back(config);
    slots_[slot] = id;
    return id;
  }

  [[nodiscard]] const ColorConfig& operator[](u32 id) const noexcept {
    return configs_[id];
  }
  /// Number of ids handed out, the unconfigured one included.
  [[nodiscard]] usize size() const noexcept { return configs_.size(); }

 private:
  void rehash(usize slot_count) {
    slots_.assign(slot_count, 0);
    for (u32 id = 1; id < configs_.size(); ++id) {
      usize slot = static_cast<usize>(configs_[id].hash()) & (slot_count - 1);
      while (slots_[slot] != 0) {
        slot = (slot + 1) & (slot_count - 1);
      }
      slots_[slot] = id;
    }
  }

  std::vector<ColorConfig> configs_;
  /// Open addressing over configs_ (0 = empty slot), at most half full.
  std::vector<u32> slots_;
};

}  // namespace fvf::wse
