/// \file color_graph.hpp
/// \brief The flat tables every fvf::lint check reads: one declaration
///        sweep over the loaded programs, and one routing table per color.
///
/// lint::run makes one linear pass. A single sweep (Declarations) asks
/// each loaded program for its sends, channel dependencies and reduction
/// declarations once, and stores them in CSR tables in raster order. The
/// sweep also yields the active colors. Each active color's routing table
/// (ColorGraph) is then built once from the routers, into buffers reused
/// from the previous color, so lint's memory stays O(PEs) whatever the
/// number of colors.
///
/// Nodes are (PE, input link) pairs; edges follow the *union* of the
/// routing rules over all switch positions of the color. The switch state
/// at an arbitrary run point is dynamic (control wavelets advance it), so
/// every reachability-style property must be decided conservatively on
/// this union — see docs/ARCHITECTURE.md "Static flow analysis" for what
/// is and is not decidable on it. Shared by the classic routing checks
/// (lint.cpp) and the flow analyzers (flow.cpp); internal to fvf::lint.
#pragma once

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "lint/flow.hpp"
#include "lint/lint.hpp"
#include "wse/fabric.hpp"
#include "wse/program.hpp"

namespace fvf::lint::detail {

using ColorSet = std::array<bool, wse::Color::kMaxColors>;

inline constexpr usize kLinks = wse::kLinkCount;

/// Colors some router installed a configuration for.
[[nodiscard]] ColorSet configured_colors(const wse::Fabric& fabric);

/// Every loaded program's declarations, gathered by one sweep that calls
/// send_declarations(), channel_dependencies() and
/// reduction_declarations() exactly once per PE.
class Declarations {
 public:
  explicit Declarations(const wse::Fabric& fabric);

  [[nodiscard]] std::span<const wse::SendDeclaration> sends(
      usize pe) const noexcept {
    return slice(sends_, send_begin_, pe);
  }
  [[nodiscard]] std::span<const wse::ChannelDependency> dependencies(
      usize pe) const noexcept {
    return slice(deps_, dep_begin_, pe);
  }
  [[nodiscard]] std::span<const wse::ReductionDeclaration> reductions(
      usize pe) const noexcept {
    return slice(reductions_, reduction_begin_, pe);
  }

  /// The colors any check can find something on: those some router
  /// configured or some program declares. Any other color has no
  /// configured router and no declaration, so it has no routing edges,
  /// accepts nothing and has no senders, dependencies or folds; every
  /// check (claims, reconfiguration, dead ends, cycles, sends,
  /// deliveries, buffers, wait-for, determinism) is empty on it.
  [[nodiscard]] const ColorSet& active() const noexcept { return active_; }

 private:
  template <typename T>
  [[nodiscard]] static std::span<const T> slice(const std::vector<T>& items,
                                                const std::vector<u32>& begin,
                                                usize pe) noexcept {
    return std::span<const T>(items.data() + begin[pe],
                              begin[pe + 1] - begin[pe]);
  }

  std::vector<u32> send_begin_;
  std::vector<wse::SendDeclaration> sends_;
  std::vector<u32> dep_begin_;
  std::vector<wse::ChannelDependency> deps_;
  std::vector<u32> reduction_begin_;
  std::vector<wse::ReductionDeclaration> reductions_;
  ColorSet active_{};
};

/// One color's routing table, flattened from the routers' packed route
/// words (wse/route.hpp). Per PE it holds a configured bit and, per input link,
/// accept, parkable and delivers-to-Ramp bits; per node it holds the
/// union over all switch positions of the rules' outputs that lead to an
/// on-fabric neighbour, in first-occurrence order. Ramp outputs become
/// the delivers-to-Ramp bit, and off-fabric outputs are dropped: the
/// wafer edge absorbs them by design, and no check follows them.
class ColorGraph {
 public:
  /// Rebuilds the table for `color`, reusing the previous build's
  /// buffers.
  void build(const wse::Fabric& fabric, wse::Color color);

  [[nodiscard]] wse::Color color() const noexcept { return color_; }
  [[nodiscard]] bool on_fabric(Coord2 pe) const noexcept {
    return pe.x >= 0 && pe.x < width_ && pe.y >= 0 && pe.y < height_;
  }
  [[nodiscard]] usize pe_count() const noexcept { return flags_.size(); }
  [[nodiscard]] usize node_count() const noexcept { return links_.size(); }
  [[nodiscard]] usize pe_index(Coord2 pe) const noexcept {
    return static_cast<usize>(pe.y) * static_cast<usize>(width_) +
           static_cast<usize>(pe.x);
  }
  [[nodiscard]] Coord2 coord(usize pe) const noexcept {
    return Coord2{static_cast<i32>(pe % static_cast<usize>(width_)),
                  static_cast<i32>(pe / static_cast<usize>(width_))};
  }
  [[nodiscard]] static usize node(usize pe, wse::Dir input) noexcept {
    return pe * kLinks + static_cast<usize>(input);
  }
  [[nodiscard]] static usize pe_of(usize n) noexcept { return n / kLinks; }
  [[nodiscard]] static wse::Dir input_of(usize n) noexcept {
    return static_cast<wse::Dir>(n % kLinks);
  }

  [[nodiscard]] bool configured(usize pe) const noexcept {
    return (flags_[pe] & kConfigured) != 0;
  }
  /// Whether any switch position of `pe` has a rule for `input`.
  [[nodiscard]] bool accepts(usize pe, wse::Dir input) const noexcept {
    return bit(pe, kAcceptShift, input);
  }
  /// Whether a block entering `pe` through `input` can *park*: the color
  /// has more than one switch position there, at least one position
  /// accepts the input (otherwise the dead-end check owns the finding),
  /// and at least one position does not — so depending on the dynamic
  /// switch state the block may wait in the router's input buffer for a
  /// control-wavelet advance.
  [[nodiscard]] bool parkable(usize n) const noexcept {
    return bit(pe_of(n), kParkShift, input_of(n));
  }
  /// Whether some switch position of the node's PE delivers the input to
  /// the Ramp.
  [[nodiscard]] bool delivers_to_ramp(usize n) const noexcept {
    return bit(pe_of(n), kRampShift, input_of(n));
  }
  [[nodiscard]] bool any_parkable() const noexcept { return any_parkable_; }

  /// Number of on-fabric output links of node `n`.
  [[nodiscard]] usize link_count(usize n) const noexcept {
    return links_[n] & 0x7u;
  }
  /// The `i`-th output link of node `n`, in first-occurrence order.
  [[nodiscard]] wse::Dir link(usize n, usize i) const noexcept {
    return static_cast<wse::Dir>((links_[n] >> (3 + 2 * i)) & 0x3u);
  }
  /// The output links of node `n` as a mask, bit d for wse::Dir d.
  [[nodiscard]] u32 link_mask(usize n) const noexcept {
    return (links_[n] >> kMaskShift) & 0xFu;
  }
  /// The node a block leaving node `n` through output link `out` enters.
  [[nodiscard]] usize target(usize n, wse::Dir out) const noexcept {
    usize pe = pe_of(n);
    switch (out) {
      case wse::Dir::North: pe += static_cast<usize>(width_); break;
      case wse::Dir::South: pe -= static_cast<usize>(width_); break;
      case wse::Dir::East: ++pe; break;
      case wse::Dir::West: --pe; break;
      case wse::Dir::Ramp: break;
    }
    return node(pe, wse::opposite(out));
  }

 private:
  /// One distinct configuration's contribution, before the wafer edge
  /// trims it: the PE flags, and per input link the union of its
  /// fabric outputs in the links_ encoding.
  struct Decoded {
    u32 flags = 0;  ///< 0 until decoded (a decoded one has kConfigured)
    std::array<u32, kLinks> links{};
  };
  [[nodiscard]] static Decoded decode(const wse::ColorConfig& config);
  /// Appends fabric output `out` to a links_ entry unless already there.
  [[nodiscard]] static u32 append_link(u32 links, wse::Dir out) noexcept;

  static constexpr u16 kConfigured = 1u;
  static constexpr u32 kAcceptShift = 1;
  static constexpr u32 kParkShift = 6;
  static constexpr u32 kRampShift = 11;
  static constexpr u32 kMaskShift = 11;

  [[nodiscard]] bool bit(usize pe, u32 shift, wse::Dir input) const noexcept {
    return (flags_[pe] & (1u << (shift + static_cast<u32>(input)))) != 0;
  }

  wse::Color color_{};
  i32 width_ = 0;
  i32 height_ = 0;
  bool any_parkable_ = false;
  /// Per PE: configured, then accept, parkable and delivers-to-Ramp
  /// bits, five each (one per input link).
  std::vector<u16> flags_;
  /// Per node: bits 0-2 the link count, then two bits per link in
  /// first-occurrence order, then a four-bit mask of the links.
  std::vector<u16> links_;
  /// Per configuration id of the fabric's RouteConfigTable (scratch).
  std::vector<Decoded> decoded_;
};

/// Reusable scratch for union-graph walks. Marks are epoch stamps, so
/// starting a walk costs O(1) rather than O(fabric), and a walk costs
/// only what it reaches.
class Walker {
 public:
  /// Starts a new walk (or mark set) over `graph`.
  void begin(const ColorGraph& graph);
  /// Marks node `n`; returns whether it was unmarked in this walk.
  bool mark_node(usize n) noexcept { return mark(node_mark_, n); }
  /// Marks PE `pe`; returns whether it was unmarked in this walk.
  bool mark_pe(usize pe) noexcept { return mark(pe_mark_, pe); }
  [[nodiscard]] bool pe_marked(usize pe) const noexcept {
    return pe_mark_[pe] == epoch_;
  }

  /// Multi-source walk over the union graph from the `starts` nodes.
  /// Invokes `visit(node)` once for every reachable node, the starts
  /// included (blocks park at an injection node whose active position
  /// has no Ramp rule), and `deliver(pe)` once per PE whose Ramp the
  /// traffic can reach.
  template <typename VisitFn, typename DeliverFn>
  void walk(const ColorGraph& graph, std::span<const usize> starts,
            VisitFn&& visit, DeliverFn&& deliver) {
    begin(graph);
    frontier_.clear();
    for (const usize s : starts) {
      if (mark_node(s)) {
        visit(s);
        frontier_.push_back(s);
      }
    }
    while (!frontier_.empty()) {
      const usize n = frontier_.back();
      frontier_.pop_back();
      if (graph.delivers_to_ramp(n) && mark_pe(ColorGraph::pe_of(n))) {
        deliver(ColorGraph::pe_of(n));
      }
      for (usize i = 0; i < graph.link_count(n); ++i) {
        const usize t = graph.target(n, graph.link(n, i));
        if (mark_node(t)) {
          visit(t);
          frontier_.push_back(t);
        }
      }
    }
  }

 private:
  bool mark(std::vector<u32>& marks, usize i) noexcept {
    if (marks[i] == epoch_) {
      return false;
    }
    marks[i] = epoch_;
    return true;
  }

  u32 epoch_ = 0;
  std::vector<u32> node_mark_;
  std::vector<u32> pe_mark_;
  std::vector<usize> frontier_;
};

/// The flow analyses (lint/flow.hpp), fed one color table at a time by
/// lint::run's pass, so that each table is built once.
class FlowPass {
 public:
  FlowPass(const wse::Fabric& fabric, const Declarations& declarations,
           const Options& options);

  /// Folds one color's table into the analyses. Callers pass only colors
  /// whose routing graph is acyclic: occupancy bounds and wait-for
  /// reachability are meaningless on a cyclic one.
  void add(const ColorGraph& graph, Walker& walker);

  /// The worst-case router input-buffer occupancy over the added colors.
  [[nodiscard]] BufferAnalysis buffer_analysis();

  /// Appends the buffer-bound, cross-color-deadlock and determinism
  /// findings, in that order. `cyclic` colors are excluded throughout.
  void finish(const ColorSet& cyclic, std::vector<Diagnostic>& out);

 private:
  static constexpr usize kSampleSenders = 2;

  void add_buffers(const ColorGraph& graph, Walker& walker);
  void add_reach(const ColorGraph& graph, Walker& walker);
  void check_buffer_bounds(std::vector<Diagnostic>& out);
  void check_deadlock(const ColorSet& cyclic, std::vector<Diagnostic>& out);
  void check_determinism(const ColorSet& cyclic,
                         std::vector<Diagnostic>& out);

  const wse::Fabric& fabric_;
  const Declarations& declarations_;
  const Options& options_;
  /// Colors named by a channel dependency, or folded in arrival order.
  ColorSet dependency_colors_{};
  ColorSet fold_colors_{};

  /// Buffer bounds: blocks per node of the color being added (scratch),
  /// per-PE totals, and every (PE, contribution) in color-major order.
  std::vector<u64> node_blocks_;
  std::vector<u64> total_;
  std::vector<std::pair<usize, ParkContribution>> parked_;

  /// Determinism: per fold color, how many declared data senders can
  /// reach each PE's Ramp, with the first two recorded for the message.
  std::array<std::vector<u32>, wse::Color::kMaxColors> sources_;
  std::array<std::vector<std::array<Coord2, kSampleSenders>>,
             wse::Color::kMaxColors>
      samples_;

  /// Wait-for: what the search reads of each dependency color's table,
  /// one byte per node — the output-link mask (bits 0-3) and the
  /// delivers-to-Ramp bit (bit 4).
  std::vector<std::pair<wse::Color, std::vector<u8>>> wait_tables_;
};

}  // namespace fvf::lint::detail
