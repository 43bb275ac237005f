#include "lint/flow.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "lint/color_graph.hpp"
#include "wse/program.hpp"

namespace fvf::lint {

namespace {

using detail::ColorGraph;
using detail::Declarations;
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

[[nodiscard]] Coord2 coord(const wse::Fabric& fabric, usize pe) noexcept {
  return Coord2{static_cast<i32>(pe % static_cast<usize>(fabric.width())),
                static_cast<i32>(pe / static_cast<usize>(fabric.width()))};
}

[[nodiscard]] std::string default_label(Color color) {
  std::ostringstream os;
  os << "color " << static_cast<int>(color.id());
  return os.str();
}

// ---------------------------------------------------------------------------
// Cross-color wait-for analysis
// ---------------------------------------------------------------------------

/// The delivers-to-Ramp bit of a wait table node; bits 0-3 are the
/// node's output-link mask.
constexpr u8 kWaitRamp = 1u << 4;

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
  /// `tables` holds the wait table (FlowPass::wait_tables_) of each color
  /// in `colors`, in that order.
  WaitForGraph(const wse::Fabric& fabric, const Declarations& declarations,
               std::vector<Color> colors,
               std::vector<const std::vector<u8>*> tables)
      : fabric_(fabric),
        declarations_(declarations),
        colors_(std::move(colors)),
        tables_(std::move(tables)) {
    slot_of_.fill(kNoSlot);
    for (usize slot = 0; slot < colors_.size(); ++slot) {
      slot_of_[colors_[slot].id()] = slot;
    }
    pe_count_ = static_cast<usize>(fabric.pe_count());
    routing_nodes_ = pe_count_ * detail::kLinks;
    sends_at_.assign(pe_count_, 0);
    for (usize p = 0; p < pe_count_; ++p) {
      for (const wse::SendDeclaration& send : declarations_.sends(p)) {
        const usize slot = slot_of_[send.color.id()];
        if (slot != kNoSlot) {
          sends_at_[p] |= u32{1} << slot;
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
  [[nodiscard]] usize pe_of(usize n) const noexcept {
    return is_obligation(n)
               ? (n - colors_.size() * routing_nodes_) % pe_count_
               : ColorGraph::pe_of(n % routing_nodes_);
  }
  [[nodiscard]] Color color_of(usize n) const {
    if (is_obligation(n)) {
      return colors_[(n - colors_.size() * routing_nodes_) / pe_count_];
    }
    return colors_[n / routing_nodes_];
  }
  [[nodiscard]] Coord2 coord(usize pe) const noexcept {
    return lint::coord(fabric_, pe);
  }

  [[nodiscard]] usize obligation_node(usize slot, usize pe) const noexcept {
    return colors_.size() * routing_nodes_ + slot * pe_count_ + pe;
  }

  /// Appends the successors of `n` to `out`.
  void successors(usize n, std::vector<usize>& out) const {
    if (is_obligation(n)) {
      const usize p = pe_of(n);
      const Color color = color_of(n);
      for (const wse::ChannelDependency& dep : declarations_.dependencies(p)) {
        const usize slot = slot_of_[dep.prerequisite.id()];
        if (dep.dependent != color || slot == kNoSlot) {
          continue;
        }
        // The send waits for deliveries of the prerequisite, which can
        // only arrive through a link input some position delivers to the
        // Ramp (a PE never waits on its own injection).
        for (usize in = 0; in < detail::kLinks; ++in) {
          const usize node = ColorGraph::node(p, static_cast<Dir>(in));
          if (static_cast<Dir>(in) != Dir::Ramp &&
              ((*tables_[slot])[node] & kWaitRamp) != 0) {
            out.push_back(slot * routing_nodes_ + node);
          }
        }
      }
      return;
    }
    const usize slot = n / routing_nodes_;
    const std::vector<u8>& table = *tables_[slot];
    const usize local = n % routing_nodes_;
    const Dir input = ColorGraph::input_of(local);
    if (input == Dir::Ramp) {
      // Injected here: the block exists once the PE's own send runs.
      const usize p = ColorGraph::pe_of(local);
      if ((sends_at_[p] & (u32{1} << slot)) != 0) {
        out.push_back(obligation_node(slot, p));
      }
      return;
    }
    // Arrived over a link: the block was forwarded by the upstream
    // neighbour, through any of its inputs whose rules output toward us.
    const Coord2 pe = coord(ColorGraph::pe_of(local));
    const Coord2 off = wse::dir_offset(input);
    const Coord2 src{pe.x + off.x, pe.y + off.y};
    if (src.x < 0 || src.x >= fabric_.width() || src.y < 0 ||
        src.y >= fabric_.height()) {
      return;
    }
    const usize src_pe =
        static_cast<usize>(src.y) * static_cast<usize>(fabric_.width()) +
        static_cast<usize>(src.x);
    const u32 toward_us = 1u << static_cast<u32>(wse::opposite(input));
    for (usize in = 0; in < detail::kLinks; ++in) {
      const usize node = ColorGraph::node(src_pe, static_cast<Dir>(in));
      if ((table[node] & toward_us) != 0) {
        out.push_back(slot * routing_nodes_ + node);
      }
    }
  }

  [[nodiscard]] const std::vector<Color>& colors() const noexcept {
    return colors_;
  }
  [[nodiscard]] usize pe_count() const noexcept { return pe_count_; }

 private:
  static constexpr usize kNoSlot = static_cast<usize>(-1);

  const wse::Fabric& fabric_;
  const Declarations& declarations_;
  std::vector<Color> colors_;
  std::vector<const std::vector<u8>*> tables_;
  std::array<usize, Color::kMaxColors> slot_of_{};
  usize pe_count_ = 0;
  usize routing_nodes_ = 0;
  std::vector<u32> sends_at_;
};

/// Sum of declared in-flight block bounds `sends` carry on `color` (data
/// and control declarations both park in the same per-PE buffer).
[[nodiscard]] u64 declared_in_flight(
    std::span<const wse::SendDeclaration> sends, Color color) {
  u64 blocks = 0;
  for (const wse::SendDeclaration& send : sends) {
    if (send.color == color) {
      blocks += send.in_flight;
    }
  }
  return blocks;
}

[[nodiscard]] std::string color_label(const Options& options, Color color) {
  return options.color_label != nullptr ? options.color_label(color)
                                        : default_label(color);
}

/// Lifts a finding to the layer that generated the traffic: programs
/// built from a higher-level description (spec::SpecPeProgram) map the
/// color back to the declaration field via describe_channel, so the
/// diagnostic names what to fix rather than the lowered artifact.
void push(const wse::Fabric& fabric, Diagnostic d,
          std::vector<Diagnostic>& out) {
  if (d.color.has_value()) {
    const wse::PeProgram* program = fabric.pe(d.pe.x, d.pe.y).program();
    if (program != nullptr) {
      const std::string note = program->describe_channel(*d.color);
      if (!note.empty()) {
        d.message += "; ";
        d.message += note;
      }
    }
  }
  out.push_back(std::move(d));
}

template <typename Frames>
void report_deadlock(const wse::Fabric& fabric, const Options& options,
                     const WaitForGraph& wait, const Frames& stack,
                     usize back_to, std::vector<Diagnostic>& out) {
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
      sends.push_back(Obligation{wait.coord(wait.pe_of(n)), wait.color_of(n)});
    } else {
      relays.push_back(wait.coord(wait.pe_of(n)));
    }
  }
  std::ostringstream os;
  os << "cross-color send ordering can deadlock: ";
  for (usize i = 0; i < sends.size(); ++i) {
    const Obligation& s = sends[i];
    const Obligation& producer = sends[(i + 1) % sends.size()];
    os << (i == 0 ? "" : "; ") << "PE(" << s.pe.x << ',' << s.pe.y
       << ") sends " << color_label(options, s.color) << " only after "
       << color_label(options, producer.color) << " arrives from PE("
       << producer.pe.x << ',' << producer.pe.y << ')';
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
  push(fabric,
       Diagnostic{Check::CrossColorDeadlock, Severity::Error,
                  sends.front().pe, sends.front().color, os.str(),
                  std::nullopt},
       out);
}

}  // namespace

namespace detail {

FlowPass::FlowPass(const wse::Fabric& fabric,
                   const Declarations& declarations, const Options& options)
    : fabric_(fabric), declarations_(declarations), options_(options) {
  const usize pe_count = static_cast<usize>(fabric.pe_count());
  for (usize p = 0; p < pe_count; ++p) {
    for (const wse::ChannelDependency& dep : declarations.dependencies(p)) {
      dependency_colors_[dep.prerequisite.id()] = true;
      dependency_colors_[dep.dependent.id()] = true;
    }
    for (const wse::ReductionDeclaration& red : declarations.reductions(p)) {
      if (red.folds_in_arrival_order) {
        for (const Color c : red.colors) {
          fold_colors_[c.id()] = true;
        }
      }
    }
  }
  total_.assign(pe_count, 0);
}

void FlowPass::add(const ColorGraph& graph, Walker& walker) {
  add_buffers(graph, walker);
  if (fold_colors_[graph.color().id()]) {
    add_reach(graph, walker);
  }
  if (dependency_colors_[graph.color().id()]) {
    std::vector<u8> table(graph.node_count());
    for (usize n = 0; n < table.size(); ++n) {
      table[n] = static_cast<u8>(graph.link_mask(n) |
                                 (graph.delivers_to_ramp(n) ? kWaitRamp : 0));
    }
    wait_tables_.emplace_back(graph.color(), std::move(table));
  }
}

void FlowPass::add_buffers(const ColorGraph& graph, Walker& walker) {
  // Fast path: a color with no parkable (PE, input) node can never
  // occupy a router input buffer, whatever its traffic.
  if (!graph.any_parkable()) {
    return;
  }
  node_blocks_.assign(graph.node_count(), 0);
  bool any_blocks = false;
  for (usize p = 0; p < graph.pe_count(); ++p) {
    const u64 in_flight =
        declared_in_flight(declarations_.sends(p), graph.color());
    if (in_flight == 0) {
      continue;
    }
    // Every parkable node this sender's traffic can occupy may hold its
    // whole in-flight window at once in the worst case.
    const usize start = ColorGraph::node(p, Dir::Ramp);
    walker.walk(
        graph, std::span<const usize>(&start, 1),
        [&](usize n) {
          if (graph.parkable(n)) {
            node_blocks_[n] += in_flight;
            any_blocks = true;
          }
        },
        [](usize) {});
  }
  if (!any_blocks) {
    return;
  }
  for (usize n = 0; n < node_blocks_.size(); ++n) {
    if (node_blocks_[n] == 0) {
      continue;
    }
    const usize p = ColorGraph::pe_of(n);
    total_[p] += node_blocks_[n];
    parked_.emplace_back(
        p, ParkContribution{graph.color(), ColorGraph::input_of(n),
                            node_blocks_[n]});
  }
}

void FlowPass::add_reach(const ColorGraph& graph, Walker& walker) {
  const Color color = graph.color();
  std::vector<u32>& sources = sources_[color.id()];
  std::vector<std::array<Coord2, kSampleSenders>>& sample =
      samples_[color.id()];
  sources.assign(graph.pe_count(), 0);
  sample.assign(graph.pe_count(), {});
  for (usize s = 0; s < graph.pe_count(); ++s) {
    const std::span<const wse::SendDeclaration> sends =
        declarations_.sends(s);
    if (std::none_of(sends.begin(), sends.end(),
                     [&](const wse::SendDeclaration& send) {
                       return send.color == color && !send.control;
                     })) {
      continue;
    }
    const Coord2 sender = graph.coord(s);
    const usize start = ColorGraph::node(s, Dir::Ramp);
    walker.walk(
        graph, std::span<const usize>(&start, 1), [](usize) {},
        [&](usize p) {
          if (sources[p] < kSampleSenders) {
            sample[p][sources[p]] = sender;
          }
          ++sources[p];
        });
  }
}

BufferAnalysis FlowPass::buffer_analysis() {
  // Contributions were collected color by color; a stable sort by PE
  // keeps each PE's list in color order, then input order.
  std::stable_sort(parked_.begin(), parked_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  BufferAnalysis analysis;
  auto next = parked_.begin();
  for (usize p = 0; p < total_.size(); ++p) {
    if (total_[p] == 0) {
      continue;
    }
    analysis.minimal_depth = std::max(analysis.minimal_depth, total_[p]);
    PeOccupancy pe{coord(fabric_, p), total_[p], {}};
    while (next != parked_.end() && next->first < p) {
      ++next;
    }
    for (; next != parked_.end() && next->first == p; ++next) {
      pe.contributions.push_back(next->second);
    }
    analysis.per_pe.push_back(std::move(pe));
  }
  return analysis;
}

void FlowPass::finish(const ColorSet& cyclic, std::vector<Diagnostic>& out) {
  check_buffer_bounds(out);
  check_deadlock(cyclic, out);
  check_determinism(cyclic, out);
}

void FlowPass::check_buffer_bounds(std::vector<Diagnostic>& out) {
  const u64 minimal_depth =
      total_.empty() ? 0 : *std::max_element(total_.begin(), total_.end());
  const u32 depth = options_.router_buffer_depth != 0
                        ? options_.router_buffer_depth
                        : fabric_.execution().router_buffer_depth;
  if (minimal_depth <= depth) {
    return;
  }
  // One finding localizes the problem: report the worst PE (first in
  // raster order) and count the others, so a wafer-scale program does
  // not emit a diagnostic per PE.
  const usize worst_pe = static_cast<usize>(
      std::find(total_.begin(), total_.end(), minimal_depth) -
      total_.begin());
  const usize exceeding = static_cast<usize>(
      std::count_if(total_.begin(), total_.end(),
                    [&](u64 blocks) { return blocks > depth; }));
  PeOccupancy worst{coord(fabric_, worst_pe), minimal_depth, {}};
  for (const auto& [pe, contribution] : parked_) {
    if (pe == worst_pe) {
      worst.contributions.push_back(contribution);
    }
  }
  std::ostringstream os;
  os << "worst-case router input-buffer occupancy at PE(" << worst.pe.x
     << ',' << worst.pe.y << ") reaches " << worst.blocks << " blocks (";
  bool first = true;
  std::optional<Color> single_color;
  bool one_color = true;
  for (const ParkContribution& c : worst.contributions) {
    os << (first ? "" : ", ") << color_label(options_, c.color) << " via "
       << long_dir_name(c.input) << ": " << c.blocks;
    first = false;
    if (single_color.has_value() && *single_color != c.color) {
      one_color = false;
    }
    single_color = c.color;
  }
  os << "), exceeding router_buffer_depth " << depth
     << ": the run would drop blocks; router_buffer_depth >= "
     << minimal_depth << " is sufficient";
  if (exceeding > 1) {
    os << " (" << exceeding << " PEs exceed the configured depth)";
  }
  push(fabric_,
       Diagnostic{Check::BufferOverflowPossible, Severity::Error, worst.pe,
                  one_color ? single_color : std::nullopt, os.str(),
                  minimal_depth},
       out);
}

void FlowPass::check_deadlock(const ColorSet& cyclic,
                              std::vector<Diagnostic>& out) {
  // Colors that appear in some declared ordering; everything else
  // cannot sit on a wait cycle (single-color routing cycles are the
  // routing-cycle check's finding, and are skipped here).
  ColorSet interesting{};
  for (usize p = 0; p < total_.size(); ++p) {
    for (const wse::ChannelDependency& dep : declarations_.dependencies(p)) {
      if (!cyclic[dep.prerequisite.id()] && !cyclic[dep.dependent.id()]) {
        interesting[dep.prerequisite.id()] = true;
        interesting[dep.dependent.id()] = true;
      }
    }
  }
  std::vector<Color> colors;
  std::vector<const std::vector<u8>*> tables;
  for (const auto& [color, table] : wait_tables_) {
    if (interesting[color.id()]) {
      colors.push_back(color);
      tables.push_back(&table);
    }
  }
  if (colors.empty()) {
    return;
  }
  const WaitForGraph wait(fabric_, declarations_, std::move(colors),
                          std::move(tables));

  // Iterative DFS. Each frame's successors are a range of one shared
  // pool, so the search allocates nothing per node.
  enum class Mark : u8 { White, Gray, Black };
  std::vector<Mark> mark(wait.node_total(), Mark::White);
  struct Frame {
    usize node = 0;
    usize begin = 0;  ///< this frame's successors start in `pool`
    usize next = 0;   ///< next successor to explore
  };
  std::vector<Frame> stack;
  std::vector<usize> pool;
  const auto enter = [&](usize node) {
    mark[node] = Mark::Gray;
    const usize begin = pool.size();
    wait.successors(node, pool);
    stack.push_back(Frame{node, begin, begin});
  };
  for (usize slot = 0; slot < wait.colors().size(); ++slot) {
    for (usize p = 0; p < wait.pe_count(); ++p) {
      const usize root = wait.obligation_node(slot, p);
      if (mark[root] != Mark::White) {
        continue;
      }
      enter(root);
      while (!stack.empty()) {
        Frame& frame = stack.back();
        if (frame.next >= pool.size()) {
          mark[frame.node] = Mark::Black;
          pool.resize(frame.begin);
          stack.pop_back();
          continue;
        }
        const usize target = pool[frame.next++];
        if (mark[target] == Mark::Gray) {
          report_deadlock(fabric_, options_, wait, stack, target, out);
          return;  // one cycle is enough to localize the knot
        }
        if (mark[target] == Mark::White) {
          enter(target);
        }
      }
    }
  }
}

void FlowPass::check_determinism(const ColorSet& cyclic,
                                 std::vector<Diagnostic>& out) {
  // The arrival-order accumulations and the colors they fold.
  struct Fold {
    usize pe;
    const std::string* fold_label;
    std::vector<Color> colors;
  };
  std::vector<Fold> folds;
  for (usize p = 0; p < total_.size(); ++p) {
    for (const wse::ReductionDeclaration& red : declarations_.reductions(p)) {
      if (!red.folds_in_arrival_order) {
        continue;
      }
      Fold fold{p, &red.label, {}};
      for (const Color c : red.colors) {
        if (!cyclic[c.id()]) {
          fold.colors.push_back(c);
        }
      }
      if (!fold.colors.empty()) {
        folds.push_back(std::move(fold));
      }
    }
  }

  for (const Fold& fold : folds) {
    u64 sources = 0;
    std::vector<Coord2> samples;
    for (const Color c : fold.colors) {
      const u32 reach = sources_[c.id()][fold.pe];
      sources += reach;
      for (usize i = 0; i < std::min<usize>(reach, kSampleSenders); ++i) {
        if (samples.size() < 2 * kSampleSenders) {
          samples.push_back(samples_[c.id()][fold.pe][i]);
        }
      }
    }
    if (sources < 2) {
      continue;  // at most one producer: delivery order is pinned
    }
    const Coord2 pe = coord(fabric_, fold.pe);
    std::ostringstream os;
    os << "PE(" << pe.x << ',' << pe.y << ") folds '" << *fold.fold_label
       << "' in arrival order over ";
    for (usize i = 0; i < fold.colors.size(); ++i) {
      os << (i == 0 ? "" : ", ") << color_label(options_, fold.colors[i]);
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
    push(fabric_,
         Diagnostic{Check::OrderSensitiveReduction, Severity::Warning, pe,
                    fold.colors.size() == 1
                        ? std::optional<Color>{fold.colors[0]}
                        : std::nullopt,
                    os.str(), std::nullopt},
         out);
  }
}

}  // namespace detail

BufferAnalysis analyze_buffer_occupancy(
    const wse::Fabric& fabric,
    const std::array<bool, Color::kMaxColors>& skip_colors) {
  const detail::Declarations declarations(fabric);
  const Options options;
  detail::FlowPass pass(fabric, declarations, options);
  detail::ColorGraph graph;
  detail::Walker walker;
  for (u8 c = 0; c < Color::kMaxColors; ++c) {
    if (declarations.active()[c] && !skip_colors[c]) {
      graph.build(fabric, Color{c});
      pass.add(graph, walker);
    }
  }
  return pass.buffer_analysis();
}

}  // namespace fvf::lint
