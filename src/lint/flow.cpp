#include "lint/flow.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "lint/color_graph.hpp"
#include "wse/program.hpp"
#include "wse/route.hpp"
#include "wse/router.hpp"

namespace fvf::lint {

namespace {

using detail::ColorGraph;
using wse::Color;
using wse::Dir;

[[nodiscard]] std::string_view long_dir_name(Dir d) noexcept {
  switch (d) {
    case Dir::North: return "North";
    case Dir::East: return "East";
    case Dir::South: return "South";
    case Dir::West: return "West";
    case Dir::Ramp: return "Ramp";
  }
  return "?";
}

[[nodiscard]] usize pe_index(const wse::Fabric& fabric, Coord2 pe) noexcept {
  return static_cast<usize>(pe.y) * static_cast<usize>(fabric.width()) +
         static_cast<usize>(pe.x);
}

[[nodiscard]] std::string default_label(Color color) {
  std::ostringstream os;
  os << "color " << static_cast<int>(color.id());
  return os.str();
}

/// Whether some switch position of `pe` delivers `input` to the Ramp.
[[nodiscard]] bool delivers_to_ramp(const ColorGraph& graph, Coord2 pe,
                                    Dir input) {
  bool delivers = false;
  graph.each_output(pe, input, [&](Dir out) {
    if (out == Dir::Ramp) {
      delivers = true;
    }
  });
  return delivers;
}

/// Union-graph BFS from one sender's Ramp injection point. Invokes
/// `visit(node)` for every reachable routing node — including the
/// injection node itself, where blocks park when the active position has
/// no Ramp rule — and `deliver(pe)` once per PE whose Ramp the traffic
/// can reach.
template <typename VisitFn, typename DeliverFn>
void walk_from_sender(const ColorGraph& graph, Coord2 sender, VisitFn&& visit,
                      DeliverFn&& deliver) {
  std::vector<usize> frontier;
  std::vector<bool> visited(graph.node_count(), false);
  std::vector<bool> delivered(
      static_cast<usize>(graph.width()) * static_cast<usize>(graph.height()),
      false);
  const usize start = graph.node(sender, Dir::Ramp);
  visited[start] = true;
  visit(start);
  frontier.push_back(start);
  while (!frontier.empty()) {
    const usize n = frontier.back();
    frontier.pop_back();
    const Coord2 pe = graph.pe_of(n);
    graph.each_output(pe, graph.input_of(n), [&](Dir out) {
      if (out == Dir::Ramp) {
        const usize p =
            static_cast<usize>(pe.y) * static_cast<usize>(graph.width()) +
            static_cast<usize>(pe.x);
        if (!delivered[p]) {
          delivered[p] = true;
          deliver(pe);
        }
        return;
      }
      const Coord2 off = wse::dir_offset(out);
      const Coord2 target{pe.x + off.x, pe.y + off.y};
      if (!graph.on_fabric(target)) {
        return;
      }
      const usize t = graph.node(target, wse::opposite(out));
      if (!visited[t]) {
        visited[t] = true;
        visit(t);
        frontier.push_back(t);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Buffer-bound analysis
// ---------------------------------------------------------------------------

/// Sum of declared in-flight block bounds this program carries on `color`
/// (data and control declarations both park in the same per-PE buffer).
[[nodiscard]] u64 declared_in_flight(const wse::PeProgram& program,
                                     Color color) {
  u64 blocks = 0;
  for (const wse::SendDeclaration& send : program.send_declarations()) {
    if (send.color == color) {
      blocks += send.in_flight;
    }
  }
  return blocks;
}

// ---------------------------------------------------------------------------
// Cross-color wait-for analysis
// ---------------------------------------------------------------------------

/// The wait-for graph the deadlock check runs a cycle search on. Two node
/// kinds, both restricted to the colors that appear in some declared
/// ChannelDependency:
///
///   routing node (color, PE, input)  a block of `color` occupying that
///                                    link; it waits on whatever produces
///                                    the block upstream (reverse-flow
///                                    edges, or the sender's obligation
///                                    at the Ramp)
///   obligation node (PE, color)      the declared send of `color` at
///                                    `PE`; it waits on the deliveries of
///                                    every declared prerequisite color
///
/// A cycle therefore means: some send transitively waits on a delivery
/// that only happens after that same send — a protocol deadlock no
/// schedule can escape.
class WaitForGraph {
 public:
  WaitForGraph(const wse::Fabric& fabric, std::vector<Color> colors)
      : fabric_(fabric), colors_(std::move(colors)) {
    graphs_.reserve(colors_.size());
    slot_of_.fill(kNoSlot);
    for (usize slot = 0; slot < colors_.size(); ++slot) {
      graphs_.emplace_back(fabric_, colors_[slot]);
      slot_of_[colors_[slot].id()] = slot;
    }
    pe_count_ = static_cast<usize>(fabric_.pe_count());
    routing_nodes_ = pe_count_ * wse::kLinkCount;
    deps_at_.resize(pe_count_);
    sends_at_.resize(pe_count_, 0);
    for (i32 y = 0; y < fabric_.height(); ++y) {
      for (i32 x = 0; x < fabric_.width(); ++x) {
        const wse::PeProgram* program = fabric_.pe(x, y).program();
        if (program == nullptr) {
          continue;
        }
        const usize p = pe_index(fabric_, Coord2{x, y});
        for (const wse::ChannelDependency& dep :
             program->channel_dependencies()) {
          if (slot_of_[dep.prerequisite.id()] != kNoSlot &&
              slot_of_[dep.dependent.id()] != kNoSlot) {
            deps_at_[p].push_back(dep);
          }
        }
        for (const wse::SendDeclaration& send : program->send_declarations()) {
          const usize slot = slot_of_[send.color.id()];
          if (slot != kNoSlot) {
            sends_at_[p] |= u32{1} << slot;
          }
        }
      }
    }
  }

  [[nodiscard]] usize node_total() const noexcept {
    return colors_.size() * (routing_nodes_ + pe_count_);
  }

  [[nodiscard]] bool is_obligation(usize n) const noexcept {
    return n >= colors_.size() * routing_nodes_;
  }
  [[nodiscard]] Coord2 pe_of(usize n) const {
    if (is_obligation(n)) {
      const usize local = (n - colors_.size() * routing_nodes_) % pe_count_;
      return Coord2{static_cast<i32>(local % static_cast<usize>(
                                                 fabric_.width())),
                    static_cast<i32>(local / static_cast<usize>(
                                                 fabric_.width()))};
    }
    return graphs_[n / routing_nodes_].pe_of(n % routing_nodes_);
  }
  [[nodiscard]] Color color_of(usize n) const {
    if (is_obligation(n)) {
      return colors_[(n - colors_.size() * routing_nodes_) / pe_count_];
    }
    return colors_[n / routing_nodes_];
  }

  [[nodiscard]] usize obligation_node(usize slot, usize pe) const noexcept {
    return colors_.size() * routing_nodes_ + slot * pe_count_ + pe;
  }
  [[nodiscard]] usize routing_node(usize slot, Coord2 pe, Dir input) const {
    return slot * routing_nodes_ + graphs_[slot].node(pe, input);
  }

  [[nodiscard]] std::vector<usize> successors(usize n) const {
    std::vector<usize> out;
    if (is_obligation(n)) {
      const Coord2 pe = pe_of(n);
      const Color color = color_of(n);
      const usize p = pe_index(fabric_, pe);
      for (const wse::ChannelDependency& dep : deps_at_[p]) {
        if (dep.dependent != color) {
          continue;
        }
        const usize slot = slot_of_[dep.prerequisite.id()];
        const ColorGraph& graph = graphs_[slot];
        // The send waits for deliveries of the prerequisite, which can
        // only arrive through a link input some position delivers to the
        // Ramp (a PE never waits on its own injection).
        for (usize in = 0; in < wse::kLinkCount; ++in) {
          const Dir input = static_cast<Dir>(in);
          if (input != Dir::Ramp && delivers_to_ramp(graph, pe, input)) {
            out.push_back(routing_node(slot, pe, input));
          }
        }
      }
      return out;
    }
    const usize slot = n / routing_nodes_;
    const ColorGraph& graph = graphs_[slot];
    const Coord2 pe = graph.pe_of(n % routing_nodes_);
    const Dir input = graph.input_of(n % routing_nodes_);
    if (input == Dir::Ramp) {
      // Injected here: the block exists once the PE's own send runs.
      const usize p = pe_index(fabric_, pe);
      if ((sends_at_[p] & (u32{1} << slot)) != 0) {
        out.push_back(obligation_node(slot, p));
      }
      return out;
    }
    // Arrived over a link: the block was forwarded by the upstream
    // neighbour, through any of its inputs whose rules output toward us.
    const Coord2 off = wse::dir_offset(input);
    const Coord2 src{pe.x + off.x, pe.y + off.y};
    if (!graph.on_fabric(src)) {
      return out;
    }
    const Dir toward_us = wse::opposite(input);
    for (usize in = 0; in < wse::kLinkCount; ++in) {
      const Dir src_in = static_cast<Dir>(in);
      bool forwards = false;
      graph.each_output(src, src_in, [&](Dir o) {
        if (o == toward_us) {
          forwards = true;
        }
      });
      if (forwards) {
        out.push_back(routing_node(slot, src, src_in));
      }
    }
    return out;
  }

  [[nodiscard]] const std::vector<Color>& colors() const noexcept {
    return colors_;
  }
  [[nodiscard]] const std::vector<wse::ChannelDependency>& deps_at(
      usize pe) const noexcept {
    return deps_at_[pe];
  }
  [[nodiscard]] bool any_dependency() const noexcept {
    return std::any_of(deps_at_.begin(), deps_at_.end(),
                       [](const auto& d) { return !d.empty(); });
  }
  [[nodiscard]] usize pe_count() const noexcept { return pe_count_; }

 private:
  static constexpr usize kNoSlot = static_cast<usize>(-1);

  const wse::Fabric& fabric_;
  std::vector<Color> colors_;
  std::vector<ColorGraph> graphs_;
  std::array<usize, Color::kMaxColors> slot_of_{};
  usize pe_count_ = 0;
  usize routing_nodes_ = 0;
  std::vector<std::vector<wse::ChannelDependency>> deps_at_;
  std::vector<u32> sends_at_;
};

class FlowLinter {
 public:
  FlowLinter(const wse::Fabric& fabric, const FlowOptions& options,
             std::vector<Diagnostic>& out)
      : fabric_(fabric), options_(options), out_(out) {}

  void run() {
    check_buffer_bounds();
    check_deadlock();
    check_determinism();
  }

 private:
  [[nodiscard]] std::string label(Color color) const {
    return options_.color_label != nullptr ? options_.color_label(color)
                                           : default_label(color);
  }

  /// Lifts a finding to the layer that generated the traffic: programs
  /// built from a higher-level description (spec::SpecPeProgram) map the
  /// color back to the declaration field via describe_channel, so the
  /// diagnostic names what to fix rather than the lowered artifact.
  void push(Diagnostic d) {
    if (d.color.has_value()) {
      const wse::PeProgram* program = fabric_.pe(d.pe.x, d.pe.y).program();
      if (program != nullptr) {
        const std::string note = program->describe_channel(*d.color);
        if (!note.empty()) {
          d.message += "; ";
          d.message += note;
        }
      }
    }
    out_.push_back(std::move(d));
  }

  void check_buffer_bounds() {
    const BufferAnalysis analysis =
        analyze_buffer_occupancy(fabric_, options_.skip_colors);
    const u32 depth = options_.router_buffer_depth != 0
                          ? options_.router_buffer_depth
                          : fabric_.execution().router_buffer_depth;
    if (analysis.minimal_depth <= depth) {
      return;
    }
    // One finding localizes the problem: report the worst PE (first in
    // raster order) and count the others, so a wafer-scale program does
    // not emit a diagnostic per PE.
    const PeOccupancy* worst = nullptr;
    usize exceeding = 0;
    for (const PeOccupancy& pe : analysis.per_pe) {
      if (pe.blocks > depth) {
        ++exceeding;
        if (worst == nullptr || pe.blocks > worst->blocks) {
          worst = &pe;
        }
      }
    }
    std::ostringstream os;
    os << "worst-case router input-buffer occupancy at PE(" << worst->pe.x
       << ',' << worst->pe.y << ") reaches " << worst->blocks << " blocks (";
    bool first = true;
    std::optional<Color> single_color;
    bool one_color = true;
    for (const ParkContribution& c : worst->contributions) {
      os << (first ? "" : ", ") << label(c.color) << " via "
         << long_dir_name(c.input) << ": " << c.blocks;
      first = false;
      if (single_color.has_value() && *single_color != c.color) {
        one_color = false;
      }
      single_color = c.color;
    }
    os << "), exceeding router_buffer_depth " << depth
       << ": the run would drop blocks; router_buffer_depth >= "
       << analysis.minimal_depth << " is sufficient";
    if (exceeding > 1) {
      os << " (" << exceeding << " PEs exceed the configured depth)";
    }
    push(Diagnostic{Check::BufferOverflowPossible, Severity::Error,
                    worst->pe, one_color ? single_color : std::nullopt,
                    os.str(), analysis.minimal_depth});
  }

  void check_deadlock() {
    // Colors that appear in some declared ordering; everything else
    // cannot sit on a wait cycle (single-color routing cycles are the
    // routing-cycle check's finding, and are skipped here).
    std::array<bool, Color::kMaxColors> interesting{};
    for (i32 y = 0; y < fabric_.height(); ++y) {
      for (i32 x = 0; x < fabric_.width(); ++x) {
        const wse::PeProgram* program = fabric_.pe(x, y).program();
        if (program == nullptr) {
          continue;
        }
        for (const wse::ChannelDependency& dep :
             program->channel_dependencies()) {
          if (!options_.skip_colors[dep.prerequisite.id()] &&
              !options_.skip_colors[dep.dependent.id()]) {
            interesting[dep.prerequisite.id()] = true;
            interesting[dep.dependent.id()] = true;
          }
        }
      }
    }
    std::vector<Color> colors;
    for (u8 c = 0; c < Color::kMaxColors; ++c) {
      if (interesting[c]) {
        colors.push_back(Color{c});
      }
    }
    if (colors.empty()) {
      return;
    }
    const WaitForGraph wait(fabric_, std::move(colors));

    enum class Mark : u8 { White, Gray, Black };
    std::vector<Mark> mark(wait.node_total(), Mark::White);
    struct Frame {
      usize node = 0;
      std::vector<usize> succ;
      usize next = 0;
    };
    std::vector<Frame> stack;
    for (usize slot = 0; slot < wait.colors().size(); ++slot) {
      for (usize p = 0; p < wait.pe_count(); ++p) {
        const usize root = wait.obligation_node(slot, p);
        if (mark[root] != Mark::White) {
          continue;
        }
        mark[root] = Mark::Gray;
        stack.push_back(Frame{root, wait.successors(root)});
        while (!stack.empty()) {
          Frame& frame = stack.back();
          if (frame.next >= frame.succ.size()) {
            mark[frame.node] = Mark::Black;
            stack.pop_back();
            continue;
          }
          const usize target = frame.succ[frame.next++];
          if (mark[target] == Mark::Gray) {
            report_deadlock(wait, stack, target);
            return;  // one cycle is enough to localize the knot
          }
          if (mark[target] == Mark::White) {
            mark[target] = Mark::Gray;
            stack.push_back(Frame{target, wait.successors(target)});
          }
        }
      }
    }
  }

  template <typename Frames>
  void report_deadlock(const WaitForGraph& wait, const Frames& stack,
                       usize back_to) {
    usize start = 0;
    for (usize i = 0; i < stack.size(); ++i) {
      if (stack[i].node == back_to) {
        start = i;
        break;
      }
    }
    // The cycle alternates obligation nodes (a send waiting) with the
    // routing nodes of the prerequisite it waits on; render the sends in
    // cycle order, each naming the prerequisite and its producer (the
    // next obligation on the cycle).
    struct Obligation {
      Coord2 pe;
      Color color;
    };
    std::vector<Obligation> sends;
    std::vector<Coord2> relays;
    for (usize i = start; i < stack.size(); ++i) {
      const usize n = stack[i].node;
      if (wait.is_obligation(n)) {
        sends.push_back(Obligation{wait.pe_of(n), wait.color_of(n)});
      } else {
        relays.push_back(wait.pe_of(n));
      }
    }
    std::ostringstream os;
    os << "cross-color send ordering can deadlock: ";
    for (usize i = 0; i < sends.size(); ++i) {
      const Obligation& s = sends[i];
      const Obligation& producer = sends[(i + 1) % sends.size()];
      os << (i == 0 ? "" : "; ") << "PE(" << s.pe.x << ',' << s.pe.y
         << ") sends " << label(s.color) << " only after "
         << label(producer.color) << " arrives from PE(" << producer.pe.x
         << ',' << producer.pe.y << ')';
    }
    os << "; the wait cycle closes and none of these sends can happen";
    // Routing PEs on the cycle beyond the senders themselves (multi-hop
    // relays) are part of the knot too.
    std::vector<Coord2> extra;
    for (const Coord2 pe : relays) {
      const bool is_sender =
          std::any_of(sends.begin(), sends.end(),
                      [&](const Obligation& s) { return s.pe == pe; });
      if (!is_sender &&
          std::find(extra.begin(), extra.end(), pe) == extra.end()) {
        extra.push_back(pe);
      }
    }
    if (!extra.empty()) {
      os << " (traffic relayed through ";
      for (usize i = 0; i < extra.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "PE(" << extra[i].x << ','
           << extra[i].y << ')';
      }
      os << ')';
    }
    FVF_ASSERT(!sends.empty());
    push(Diagnostic{Check::CrossColorDeadlock, Severity::Error,
                    sends.front().pe, sends.front().color, os.str(),
                    std::nullopt});
  }

  void check_determinism() {
    // Gather the arrival-order accumulations and the colors they fold.
    struct Fold {
      Coord2 pe;
      std::string fold_label;
      std::vector<Color> colors;
    };
    std::vector<Fold> folds;
    std::array<bool, Color::kMaxColors> fold_colors{};
    for (i32 y = 0; y < fabric_.height(); ++y) {
      for (i32 x = 0; x < fabric_.width(); ++x) {
        const wse::PeProgram* program = fabric_.pe(x, y).program();
        if (program == nullptr) {
          continue;
        }
        for (const wse::ReductionDeclaration& red :
             program->reduction_declarations()) {
          if (!red.folds_in_arrival_order) {
            continue;
          }
          Fold fold{Coord2{x, y}, red.label, {}};
          for (const Color c : red.colors) {
            if (!options_.skip_colors[c.id()]) {
              fold.colors.push_back(c);
              fold_colors[c.id()] = true;
            }
          }
          if (!fold.colors.empty()) {
            folds.push_back(std::move(fold));
          }
        }
      }
    }
    if (folds.empty()) {
      return;
    }

    // Per color: how many declared data senders can reach each PE's Ramp
    // over the union graph, with the first two recorded for the message.
    const usize pe_count = static_cast<usize>(fabric_.pe_count());
    constexpr usize kSampleSenders = 2;
    struct Reach {
      std::vector<u32> sources;
      std::vector<std::array<Coord2, kSampleSenders>> sample;
    };
    std::array<Reach, Color::kMaxColors> reach_by_color;
    for (u8 c = 0; c < Color::kMaxColors; ++c) {
      if (!fold_colors[c]) {
        continue;
      }
      const Color color{c};
      Reach& reach = reach_by_color[c];
      reach.sources.assign(pe_count, 0);
      reach.sample.assign(pe_count, {});
      const ColorGraph graph(fabric_, color);
      for (i32 y = 0; y < fabric_.height(); ++y) {
        for (i32 x = 0; x < fabric_.width(); ++x) {
          const wse::PeProgram* program = fabric_.pe(x, y).program();
          if (program == nullptr) {
            continue;
          }
          const std::vector<wse::SendDeclaration> sends =
              program->send_declarations();
          const bool sends_data =
              std::any_of(sends.begin(), sends.end(),
                          [&](const wse::SendDeclaration& s) {
                            return s.color == color && !s.control;
                          });
          if (!sends_data) {
            continue;
          }
          const Coord2 sender{x, y};
          walk_from_sender(graph, sender, [](usize) {}, [&](Coord2 pe) {
            const usize p = pe_index(fabric_, pe);
            if (reach.sources[p] < kSampleSenders) {
              reach.sample[p][reach.sources[p]] = sender;
            }
            ++reach.sources[p];
          });
        }
      }
    }

    for (const Fold& fold : folds) {
      const usize p = pe_index(fabric_, fold.pe);
      u64 sources = 0;
      std::vector<Coord2> samples;
      for (const Color c : fold.colors) {
        const Reach& reach = reach_by_color[c.id()];
        sources += reach.sources[p];
        for (usize i = 0;
             i < std::min<usize>(reach.sources[p], kSampleSenders); ++i) {
          if (samples.size() < 2 * kSampleSenders) {
            samples.push_back(reach.sample[p][i]);
          }
        }
      }
      if (sources < 2) {
        continue;  // at most one producer: delivery order is pinned
      }
      std::ostringstream os;
      os << "PE(" << fold.pe.x << ',' << fold.pe.y << ") folds '"
         << fold.fold_label << "' in arrival order over ";
      for (usize i = 0; i < fold.colors.size(); ++i) {
        os << (i == 0 ? "" : ", ") << label(fold.colors[i]);
      }
      os << ", and the routing plan lets " << sources
         << " senders reach its Ramp (";
      for (usize i = 0; i < samples.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "PE(" << samples[i].x << ','
           << samples[i].y << ')';
      }
      if (sources > samples.size()) {
        os << ", ...";
      }
      os << "): the f32 result depends on delivery interleaving";
      push(Diagnostic{Check::OrderSensitiveReduction, Severity::Warning,
                      fold.pe,
                      fold.colors.size() == 1
                          ? std::optional<Color>{fold.colors[0]}
                          : std::nullopt,
                      os.str(), std::nullopt});
    }
  }

  const wse::Fabric& fabric_;
  const FlowOptions& options_;
  std::vector<Diagnostic>& out_;
};

}  // namespace

BufferAnalysis analyze_buffer_occupancy(
    const wse::Fabric& fabric,
    const std::array<bool, Color::kMaxColors>& skip_colors) {
  const usize pe_count = static_cast<usize>(fabric.pe_count());
  std::vector<u64> total(pe_count, 0);
  std::vector<std::vector<ParkContribution>> contributions(pe_count);
  // Scratch accumulator over routing nodes, reused across colors.
  std::vector<u64> node_blocks;
  for (u8 c = 0; c < Color::kMaxColors; ++c) {
    if (skip_colors[c]) {
      continue;
    }
    const Color color{c};
    const ColorGraph graph(fabric, color);
    // Fast path: a color with no parkable (PE, input) node can never
    // occupy a router input buffer, whatever its traffic.
    std::vector<bool> parkable(graph.node_count(), false);
    bool any_parkable = false;
    for (i32 y = 0; y < fabric.height(); ++y) {
      for (i32 x = 0; x < fabric.width(); ++x) {
        const Coord2 pe{x, y};
        if (!graph.config(pe).configured()) {
          continue;
        }
        for (usize in = 0; in < wse::kLinkCount; ++in) {
          if (graph.parkable(pe, static_cast<Dir>(in))) {
            parkable[graph.node(pe, static_cast<Dir>(in))] = true;
            any_parkable = true;
          }
        }
      }
    }
    if (!any_parkable) {
      continue;
    }
    node_blocks.assign(graph.node_count(), 0);
    bool any_blocks = false;
    for (i32 y = 0; y < fabric.height(); ++y) {
      for (i32 x = 0; x < fabric.width(); ++x) {
        const wse::PeProgram* program = fabric.pe(x, y).program();
        if (program == nullptr) {
          continue;
        }
        const u64 in_flight = declared_in_flight(*program, color);
        if (in_flight == 0) {
          continue;
        }
        // Every parkable node this sender's traffic can occupy may hold
        // its whole in-flight window at once in the worst case.
        walk_from_sender(
            graph, Coord2{x, y},
            [&](usize n) {
              if (parkable[n]) {
                node_blocks[n] += in_flight;
                any_blocks = true;
              }
            },
            [](Coord2) {});
      }
    }
    if (!any_blocks) {
      continue;
    }
    for (usize n = 0; n < node_blocks.size(); ++n) {
      if (node_blocks[n] == 0) {
        continue;
      }
      const Coord2 pe = graph.pe_of(n);
      const usize p = pe_index(fabric, pe);
      total[p] += node_blocks[n];
      contributions[p].push_back(
          ParkContribution{color, graph.input_of(n), node_blocks[n]});
    }
  }
  BufferAnalysis analysis;
  for (usize p = 0; p < pe_count; ++p) {
    if (total[p] == 0) {
      continue;
    }
    analysis.minimal_depth = std::max(analysis.minimal_depth, total[p]);
    analysis.per_pe.push_back(
        PeOccupancy{Coord2{static_cast<i32>(p % static_cast<usize>(
                               fabric.width())),
                           static_cast<i32>(p / static_cast<usize>(
                               fabric.width()))},
                    total[p], std::move(contributions[p])});
  }
  return analysis;
}

void run_flow_checks(const wse::Fabric& fabric, const FlowOptions& options,
                     std::vector<Diagnostic>& out) {
  FlowLinter linter(fabric, options, out);
  linter.run();
}

}  // namespace fvf::lint
