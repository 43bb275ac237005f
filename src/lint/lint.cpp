#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "lint/color_graph.hpp"
#include "wse/memory.hpp"
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

class Linter {
 public:
  Linter(const wse::Fabric& fabric, const Options& options)
      : fabric_(fabric), options_(options) {}

  [[nodiscard]] Report run() {
    audit_claims();
    const bool tables = options_.check_routing || options_.check_flow;
    if (tables || options_.check_reconfiguration) {
      lint_colors(tables);
    }
    if (options_.check_memory) {
      lint_memory();
    }
    return std::move(report_);
  }

 private:
  [[nodiscard]] std::string label(Color color) const {
    if (options_.color_label != nullptr) {
      return options_.color_label(color);
    }
    std::ostringstream os;
    os << "color " << static_cast<int>(color.id());
    return os.str();
  }

  void add(Check check, Severity severity, Coord2 pe,
           std::optional<Color> color, std::string message) {
    report_.diagnostics.push_back(
        Diagnostic{check, severity, pe, color, std::move(message),
                   std::nullopt});
  }

  /// The historic load-time route audit: every configured color must be
  /// claimed in the ColorPlan. Iteration order and message text are kept
  /// verbatim so FabricHarness can preserve its fail-fast contract. The
  /// claim oracle is asked once per color.
  void audit_claims() {
    if (options_.color_claimed == nullptr) {
      return;
    }
    detail::ColorSet claimed{};
    for (u8 c = 0; c < Color::kMaxColors; ++c) {
      claimed[c] = options_.color_claimed(Color{c});
    }
    for (i32 y = 0; y < fabric_.height(); ++y) {
      for (i32 x = 0; x < fabric_.width(); ++x) {
        const wse::Router& router = fabric_.router(x, y);
        for (u8 c = 0; c < Color::kMaxColors; ++c) {
          const Color color{c};
          if (claimed[c] || !router.config(color).configured()) {
            continue;
          }
          std::ostringstream os;
          os << "router at PE(" << x << ',' << y << ") configures color "
             << static_cast<int>(c)
             << " which no component claimed in the ColorPlan";
          if (options_.color_map != nullptr) {
            os << '\n' << options_.color_map();
          }
          add(Check::UnclaimedColor, Severity::Error, Coord2{x, y}, color,
              os.str());
        }
      }
    }
  }

  /// The one pass over the colors: a declaration sweep, then per active
  /// color one table build that every routing and flow check reads.
  /// Colors are visited in id order, so the findings keep their order.
  void lint_colors(bool tables) {
    std::optional<detail::Declarations> declarations;
    std::optional<detail::FlowPass> flow;
    if (tables) {
      declarations.emplace(fabric_);
      if (options_.check_flow) {
        flow.emplace(fabric_, *declarations, options_);
      }
    }
    const detail::ColorSet active = declarations.has_value()
                                        ? declarations->active()
                                        : detail::configured_colors(fabric_);
    ColorGraph graph;
    detail::Walker walker;
    for (u8 c = 0; c < Color::kMaxColors; ++c) {
      if (!active[c]) {
        continue;
      }
      const Color color{c};
      if (options_.check_reconfiguration) {
        check_reconfiguration(color);
      }
      if (!tables) {
        continue;
      }
      graph.build(fabric_, color);
      if (options_.check_routing) {
        check_dead_ends(graph, walker);
      }
      // The flow analyses need to know which colors are cyclic even when
      // the routing findings are not reported.
      check_cycles(graph, /*report=*/options_.check_routing);
      if (options_.check_routing) {
        check_sends(graph, *declarations, walker);
      }
      if (flow.has_value() && !cyclic_colors_[c]) {
        flow->add(graph, walker);
      }
    }
    if (flow.has_value()) {
      flow->finish(cyclic_colors_, report_.diagnostics);
    }
  }

  void check_reconfiguration(Color color) {
    for (i32 y = 0; y < fabric_.height(); ++y) {
      for (i32 x = 0; x < fabric_.width(); ++x) {
        const u32 count = fabric_.router(x, y).configure_count(color);
        if (count <= 1) {
          continue;
        }
        std::ostringstream os;
        os << "router at PE(" << x << ',' << y << ") installed "
           << label(color) << ' ' << count
           << " times during load: a later component silently replaced the "
              "switch positions an earlier one planned its traffic on";
        add(Check::SwitchReconfigured, Severity::Error, Coord2{x, y}, color,
            os.str());
      }
    }
  }

  /// Flags traffic routed into a router input that no switch position of
  /// the receiving PE accepts: such blocks wait in the input buffer
  /// forever (or fail the run outright when the color is unconfigured
  /// there). Off-fabric outputs are absorbed at the wafer edge by design
  /// and are never findings.
  void check_dead_ends(const ColorGraph& graph, detail::Walker& reported) {
    const Color color = graph.color();
    reported.begin(graph);
    for (usize n = 0; n < graph.node_count(); ++n) {
      for (usize i = 0; i < graph.link_count(n); ++i) {
        const usize target = graph.target(n, graph.link(n, i));
        const usize target_pe = ColorGraph::pe_of(target);
        const Dir arrival = ColorGraph::input_of(target);
        if (graph.accepts(target_pe, arrival) || !reported.mark_node(target)) {
          continue;
        }
        const Coord2 from = graph.coord(ColorGraph::pe_of(n));
        const Coord2 to = graph.coord(target_pe);
        std::ostringstream os;
        os << label(color) << " is routed from PE(" << from.x << ','
           << from.y << ") into the " << long_dir_name(arrival)
           << " input of PE(" << to.x << ',' << to.y << "), ";
        if (graph.configured(target_pe)) {
          os << "which no switch position there accepts: blocks would "
                "wait in that router's input buffer forever";
        } else {
          os << "where the color is not configured at all: the run "
                "would fail at the first wavelet";
        }
        add(Check::DeadEnd, Severity::Error, to, color, os.str());
      }
    }
  }

  /// Depth-first search over the union routing graph; finds the first
  /// cycle per color (one finding is enough to localize the knot), and
  /// reports it when `report` is set. Each frame walks its node's links
  /// in place, so the search allocates nothing per node.
  void check_cycles(const ColorGraph& graph, bool report) {
    std::vector<Mark>& mark = marks_;
    mark.assign(graph.node_count(), Mark::White);
    std::vector<CycleFrame>& stack = frames_;
    for (usize root = 0; root < graph.node_count(); ++root) {
      if (mark[root] != Mark::White) {
        continue;
      }
      stack.clear();
      stack.push_back(CycleFrame{root});
      mark[root] = Mark::Gray;
      while (!stack.empty()) {
        CycleFrame& frame = stack.back();
        if (frame.next >= graph.link_count(frame.node)) {
          mark[frame.node] = Mark::Black;
          stack.pop_back();
          continue;
        }
        const usize target =
            graph.target(frame.node, graph.link(frame.node, frame.next++));
        if (mark[target] == Mark::Gray) {
          cyclic_colors_[graph.color().id()] = true;
          if (report) {
            report_cycle(graph, stack, target);
          }
          return;  // one cycle per color
        }
        if (mark[target] == Mark::White) {
          mark[target] = Mark::Gray;
          stack.push_back(CycleFrame{target});
        }
      }
    }
  }

  template <typename Frames>
  void report_cycle(const ColorGraph& graph, const Frames& stack,
                    usize back_to) {
    // The cycle is the stack suffix starting at `back_to`.
    usize start = 0;
    for (usize i = 0; i < stack.size(); ++i) {
      if (stack[i].node == back_to) {
        start = i;
        break;
      }
    }
    std::ostringstream os;
    os << label(graph.color()) << " routing forms a cycle: ";
    for (usize i = start; i < stack.size(); ++i) {
      const Coord2 pe = graph.coord(ColorGraph::pe_of(stack[i].node));
      os << "PE(" << pe.x << ',' << pe.y << ") -> ";
    }
    const Coord2 first = graph.coord(ColorGraph::pe_of(back_to));
    os << "PE(" << first.x << ',' << first.y
       << "); wavelets entering it would circulate forever (deadlock)";
    add(Check::RoutingCycle, Severity::Error, first, graph.color(), os.str());
  }

  /// Send-centric checks: every declared send must have a Ramp-accepting
  /// switch position at the sender (unrouted-send), and every PE whose
  /// Ramp the traffic can reach must handle the color
  /// (unhandled-delivery). Reachability runs over the union graph from
  /// all declared senders of each kind (data / control).
  void check_sends(const ColorGraph& graph,
                   const detail::Declarations& declarations,
                   detail::Walker& walker) {
    const Color color = graph.color();
    std::vector<usize> data_starts;
    std::vector<usize> control_starts;
    for (usize p = 0; p < graph.pe_count(); ++p) {
      bool data = false;
      bool control = false;
      for (const wse::SendDeclaration& send : declarations.sends(p)) {
        if (send.color == color) {
          (send.control ? control : data) = true;
        }
      }
      if (!data && !control) {
        continue;
      }
      const usize start = ColorGraph::node(p, Dir::Ramp);
      if (data) {
        data_starts.push_back(start);
      }
      if (control) {
        control_starts.push_back(start);
      }
      if (!graph.accepts(p, Dir::Ramp)) {
        const Coord2 pe = graph.coord(p);
        std::ostringstream os;
        os << "PE(" << pe.x << ',' << pe.y << ") declares a send on "
           << label(color);
        if (graph.configured(p)) {
          os << " but no switch position of that color accepts the Ramp: "
                "injected wavelets would never leave the PE";
        } else {
          os << " but the color is not configured on its router";
        }
        add(Check::UnroutedSend, Severity::Error, pe, color, os.str());
      }
    }
    check_deliveries(graph, walker, data_starts, /*control=*/false);
    check_deliveries(graph, walker, control_starts, /*control=*/true);
  }

  void check_deliveries(const ColorGraph& graph, detail::Walker& walker,
                        const std::vector<usize>& starts, bool control) {
    if (starts.empty()) {
      return;
    }
    // Multi-source walk from every sender's Ramp injection point.
    walker.walk(graph, starts, [](usize) {}, [](usize) {});
    for (usize p = 0; p < graph.pe_count(); ++p) {
      if (!walker.pe_marked(p)) {
        continue;
      }
      const Coord2 pe = graph.coord(p);
      const wse::PeProgram* program = fabric_.pe(pe.x, pe.y).program();
      if (program == nullptr ||
          program->handles_color(graph.color(), control)) {
        continue;
      }
      std::ostringstream os;
      os << label(graph.color()) << ' '
         << (control ? "control wavelets" : "data blocks")
         << " can reach the Ramp of PE(" << pe.x << ',' << pe.y
         << "), whose program does not handle that color";
      add(Check::UnhandledDelivery, Severity::Error, pe, graph.color(),
          os.str());
    }
  }

  void lint_memory() {
    for (i32 y = 0; y < fabric_.height(); ++y) {
      for (i32 x = 0; x < fabric_.width(); ++x) {
        const wse::PeProgram* program = fabric_.pe(x, y).program();
        if (program == nullptr) {
          continue;
        }
        // Scratch arena with an effectively unlimited budget: the point
        // is to *measure* the declaration, not to fail at the first
        // excess reserve (PeMemory throws on its own budget), and the
        // PE's own arena stays untouched until the program starts.
        wse::PeMemory probe(usize{1} << 40);
        program->reserve_memory(probe);
        const usize used = probe.used();
        const usize budget = options_.memory_budget != 0
                                 ? options_.memory_budget
                                 : fabric_.pe(x, y).memory().budget();
        if (used > budget) {
          std::ostringstream os;
          os << "PE(" << x << ',' << y << ") declares " << used
             << " bytes of static PE memory, exceeding the " << budget
             << "-byte budget by " << used - budget << " bytes (";
          bool first = true;
          for (const wse::AllocationRecord& record : probe.records()) {
            os << (first ? "" : ", ") << '\'' << record.tag << "' "
               << record.bytes;
            first = false;
          }
          os << ')';
          add(Check::MemoryOverBudget, Severity::Error, Coord2{x, y},
              std::nullopt, os.str());
        } else if (static_cast<f64>(used) >=
                   options_.memory_warn_fraction * static_cast<f64>(budget)) {
          std::ostringstream os;
          os << "PE(" << x << ',' << y << ") declares " << used
             << " bytes of static PE memory, "
             << static_cast<int>(100.0 * static_cast<f64>(used) /
                                 static_cast<f64>(budget))
             << "% of the " << budget << "-byte budget";
          add(Check::MemoryNearLimit, Severity::Warning, Coord2{x, y},
              std::nullopt, os.str());
        }
      }
    }
  }

  const wse::Fabric& fabric_;
  const Options& options_;
  Report report_;
  detail::ColorSet cyclic_colors_{};
  /// Cycle-search scratch, reused across colors.
  enum class Mark : u8 { White, Gray, Black };
  struct CycleFrame {
    usize node = 0;
    usize next = 0;  ///< next link of `node` to follow
  };
  std::vector<Mark> marks_;
  std::vector<CycleFrame> frames_;
};

}  // namespace

std::string_view check_name(Check check) noexcept {
  switch (check) {
    case Check::UnclaimedColor: return "unclaimed-color";
    case Check::SwitchReconfigured: return "switch-reconfigured";
    case Check::RoutingCycle: return "routing-cycle";
    case Check::DeadEnd: return "dead-end";
    case Check::UnroutedSend: return "unrouted-send";
    case Check::UnhandledDelivery: return "unhandled-delivery";
    case Check::MemoryOverBudget: return "memory-over-budget";
    case Check::MemoryNearLimit: return "memory-near-limit";
    case Check::BufferOverflowPossible: return "buffer-overflow-possible";
    case Check::CrossColorDeadlock: return "cross-color-deadlock";
    case Check::OrderSensitiveReduction: return "order-sensitive-reduction";
  }
  return "unknown";
}

usize Report::error_count() const noexcept {
  return static_cast<usize>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::Error;
                    }));
}

usize Report::warning_count() const noexcept {
  return diagnostics.size() - error_count();
}

std::string Report::describe() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics) {
    os << (d.severity == Severity::Error ? "error" : "warning") << '['
       << check_name(d.check) << "] " << d.message << '\n';
  }
  return os.str();
}

Report run(const wse::Fabric& fabric, const Options& options) {
  Linter linter(fabric, options);
  return linter.run();
}

}  // namespace fvf::lint
