/// \file router.hpp
/// \brief A fabric router: per-color switch-position configurations plus
///        traversal statistics.
#pragma once

#include <array>

#include "wse/route.hpp"

namespace fvf::wse {

/// Router attached to one PE. Holds, per color, the id of its
/// configuration in the fabric's RouteConfigTable and the current switch
/// position, and counts traffic through each link.
class Router {
 public:
  explicit Router(RouteConfigTable& table) noexcept : table_(&table) {}

  /// Installs (replaces) the configuration of a color and resets its
  /// switch to position 0.
  void configure(Color color, const ColorConfig& config) {
    ColorSlot& slot = slots_[color.id()];
    slot.config = table_->intern(config);
    slot.position = 0;
    ++configure_count_[color.id()];
  }

  /// How many times configure() installed a config for `color`. More than
  /// once means a later component silently replaced an earlier one's
  /// switch positions — traffic planned against the old position table
  /// would be routed by the new one. fvf::lint reports this as a
  /// switch-reconfiguration hazard.
  [[nodiscard]] u32 configure_count(Color color) const noexcept {
    return configure_count_[color.id()];
  }

  /// The color's configuration (the unconfigured one if none was
  /// installed). The reference lives in the shared table: a later
  /// configure() of a new configuration on any router may move it.
  [[nodiscard]] const ColorConfig& config(Color color) const noexcept {
    return (*table_)[slots_[color.id()].config];
  }
  /// The color's configuration id in the fabric's RouteConfigTable.
  [[nodiscard]] u32 config_id(Color color) const noexcept {
    return slots_[color.id()].config;
  }
  /// The color's current switch position.
  [[nodiscard]] u32 position(Color color) const noexcept {
    return slots_[color.id()].position;
  }

  /// The packed route word (route.hpp) for a wavelet of `color` entering
  /// through `input` under the color's current switch position; 0 when
  /// that position has no rule for the input.
  [[nodiscard]] u32 route_word(Color color, Dir input) const noexcept {
    const ColorSlot& slot = slots_[color.id()];
    return (*table_)[slot.config].word(slot.position, input);
  }

  /// Advances the switch position of a color (control wavelet semantics);
  /// wraps after the last position.
  void advance_switch(Color color) noexcept {
    ColorSlot& slot = slots_[color.id()];
    const usize count = (*table_)[slot.config].position_count();
    slot.position = slot.position + 1 < count ? slot.position + 1 : 0;
  }

  /// Starts loading the lines process_event reads for `color`.
  void prefetch(Color color) const noexcept {
    __builtin_prefetch(&traffic_out_);
    __builtin_prefetch(&slots_[color.id()]);
  }

  /// Traffic counters (wavelets through each output link / per color).
  void count_output(Dir d, u64 wavelets) noexcept {
    traffic_out_[static_cast<usize>(d)] += wavelets;
  }
  /// Next value of this location's event birth-sequence counter. Lives
  /// here (not in a side array) so stamping a birth key touches the same
  /// cache line as the traffic counters the push site just bumped.
  [[nodiscard]] u64 next_birth_seq() noexcept { return birth_seq_++; }

  /// A block failed the per-wavelet parity check at this router's Ramp
  /// and was dropped (fault detection; see wse/fault.hpp).
  void count_dropped() noexcept { ++blocks_dropped_; }
  [[nodiscard]] u64 blocks_dropped() const noexcept { return blocks_dropped_; }
  void count_color(Color color, u64 wavelets) noexcept {
    slots_[color.id()].traffic += wavelets;
  }
  [[nodiscard]] u64 traffic_of_color(Color color) const noexcept {
    return slots_[color.id()].traffic;
  }
  [[nodiscard]] u64 traffic_out(Dir d) const noexcept {
    return traffic_out_[static_cast<usize>(d)];
  }
  [[nodiscard]] u64 total_fabric_traffic() const noexcept {
    u64 total = 0;
    for (const Dir d : kFabricDirs) {
      total += traffic_out(static_cast<Dir>(d));
    }
    return total;
  }

 private:
  /// Everything the event hot path touches for one color, in 16 bytes:
  /// resolving a route and counting its traffic read one line.
  struct ColorSlot {
    u64 traffic = 0;
    u32 config = RouteConfigTable::kUnconfigured;
    u32 position = 0;
  };

  // The per-link counters, the birth counter and the table pointer fill
  // the first cache line; every routed block touches it and its color's
  // slot.
  std::array<u64, kLinkCount> traffic_out_{};
  u64 blocks_dropped_ = 0;
  u64 birth_seq_ = 0;
  RouteConfigTable* table_;
  std::array<ColorSlot, Color::kMaxColors> slots_{};
  std::array<u32, Color::kMaxColors> configure_count_{};
};

}  // namespace fvf::wse
