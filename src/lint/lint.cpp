#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "common/assert.hpp"
#include "lint/color_graph.hpp"
#include "lint/flow.hpp"
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
    for (u8 c = 0; c < Color::kMaxColors; ++c) {
      lint_color(Color{c});
    }
    if (options_.check_flow) {
      FlowOptions flow;
      flow.router_buffer_depth = options_.router_buffer_depth;
      flow.color_label = options_.color_label;
      // Occupancy bounds and wait-for reachability are meaningless on a
      // cyclic routing graph; the routing-cycle finding owns those
      // colors.
      flow.skip_colors = cyclic_colors_;
      run_flow_checks(fabric_, flow, report_.diagnostics);
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
  /// verbatim so FabricHarness can preserve its fail-fast contract.
  void audit_claims() {
    if (options_.color_claimed == nullptr) {
      return;
    }
    for (i32 y = 0; y < fabric_.height(); ++y) {
      for (i32 x = 0; x < fabric_.width(); ++x) {
        const wse::Router& router = fabric_.router(x, y);
        for (u8 c = 0; c < Color::kMaxColors; ++c) {
          const Color color{c};
          if (!router.config(color).configured() ||
              options_.color_claimed(color)) {
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

  void lint_color(Color color) {
    if (options_.check_reconfiguration) {
      check_reconfiguration(color);
    }
    if (!options_.check_routing) {
      return;
    }
    const ColorGraph graph(fabric_, color);
    check_dead_ends(graph, color);
    check_cycles(graph, color);
    check_sends(graph, color);
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
  void check_dead_ends(const ColorGraph& graph, Color color) {
    std::vector<bool> reported(graph.node_count(), false);
    for (i32 y = 0; y < graph.height(); ++y) {
      for (i32 x = 0; x < graph.width(); ++x) {
        const Coord2 pe{x, y};
        if (!graph.config(pe).configured()) {
          continue;
        }
        for (usize in = 0; in < wse::kLinkCount; ++in) {
          const Dir input = static_cast<Dir>(in);
          graph.each_output(pe, input, [&](Dir out) {
            if (out == Dir::Ramp) {
              return;
            }
            const Coord2 off = wse::dir_offset(out);
            const Coord2 target{pe.x + off.x, pe.y + off.y};
            if (!graph.on_fabric(target)) {
              return;  // absorbed at the wafer edge
            }
            const Dir arrival = wse::opposite(out);
            if (graph.accepts(target, arrival)) {
              return;
            }
            const usize node = graph.node(target, arrival);
            if (reported[node]) {
              return;
            }
            reported[node] = true;
            std::ostringstream os;
            os << label(color) << " is routed from PE(" << pe.x << ','
               << pe.y << ") into the " << long_dir_name(arrival)
               << " input of PE(" << target.x << ',' << target.y << "), ";
            if (graph.config(target).configured()) {
              os << "which no switch position there accepts: blocks would "
                    "wait in that router's input buffer forever";
            } else {
              os << "where the color is not configured at all: the run "
                    "would fail at the first wavelet";
            }
            add(Check::DeadEnd, Severity::Error, target, color, os.str());
          });
        }
      }
    }
  }

  /// Depth-first search over the union routing graph; reports the first
  /// cycle found per color (one finding is enough to localize the knot).
  void check_cycles(const ColorGraph& graph, Color color) {
    enum class Mark : u8 { White, Gray, Black };
    std::vector<Mark> mark(graph.node_count(), Mark::White);
    std::vector<std::vector<usize>> succ(graph.node_count());
    const auto successors = [&](usize n) -> const std::vector<usize>& {
      std::vector<usize>& out = succ[n];
      if (!out.empty()) {
        return out;
      }
      const Coord2 pe = graph.pe_of(n);
      if (graph.config(pe).configured()) {
        graph.each_output(pe, graph.input_of(n), [&](Dir o) {
          if (o == Dir::Ramp) {
            return;
          }
          const Coord2 off = wse::dir_offset(o);
          const Coord2 target{pe.x + off.x, pe.y + off.y};
          if (graph.on_fabric(target)) {
            out.push_back(graph.node(target, wse::opposite(o)));
          }
        });
      }
      return out;
    };

    struct Frame {
      usize node = 0;
      usize next = 0;
    };
    std::vector<Frame> stack;
    for (usize root = 0; root < graph.node_count(); ++root) {
      if (mark[root] != Mark::White) {
        continue;
      }
      stack.push_back(Frame{root});
      mark[root] = Mark::Gray;
      while (!stack.empty()) {
        Frame& frame = stack.back();
        const std::vector<usize>& next = successors(frame.node);
        if (frame.next >= next.size()) {
          mark[frame.node] = Mark::Black;
          stack.pop_back();
          continue;
        }
        const usize target = next[frame.next++];
        if (mark[target] == Mark::Gray) {
          cyclic_colors_[color.id()] = true;
          report_cycle(graph, color, stack, target);
          return;  // one cycle per color
        }
        if (mark[target] == Mark::White) {
          mark[target] = Mark::Gray;
          stack.push_back(Frame{target});
        }
      }
    }
  }

  template <typename Frames>
  void report_cycle(const ColorGraph& graph, Color color,
                    const Frames& stack, usize back_to) {
    // The cycle is the stack suffix starting at `back_to`.
    usize start = 0;
    for (usize i = 0; i < stack.size(); ++i) {
      if (stack[i].node == back_to) {
        start = i;
        break;
      }
    }
    std::ostringstream os;
    os << label(color) << " routing forms a cycle: ";
    for (usize i = start; i < stack.size(); ++i) {
      const Coord2 pe = graph.pe_of(stack[i].node);
      os << "PE(" << pe.x << ',' << pe.y << ") -> ";
    }
    const Coord2 first = graph.pe_of(back_to);
    os << "PE(" << first.x << ',' << first.y
       << "); wavelets entering it would circulate forever (deadlock)";
    add(Check::RoutingCycle, Severity::Error, first, color, os.str());
  }

  /// Send-centric checks: every declared send must have a Ramp-accepting
  /// switch position at the sender (unrouted-send), and every PE whose
  /// Ramp the traffic can reach must handle the color
  /// (unhandled-delivery). Reachability runs over the union graph from
  /// all declared senders of each kind (data / control).
  void check_sends(const ColorGraph& graph, Color color) {
    std::vector<Coord2> data_senders;
    std::vector<Coord2> control_senders;
    for (i32 y = 0; y < graph.height(); ++y) {
      for (i32 x = 0; x < graph.width(); ++x) {
        const wse::PeProgram* program = fabric_.pe(x, y).program();
        if (program == nullptr) {
          continue;
        }
        bool data = false;
        bool control = false;
        for (const wse::SendDeclaration& send : program->send_declarations()) {
          if (send.color != color) {
            continue;
          }
          (send.control ? control : data) = true;
        }
        if (!data && !control) {
          continue;
        }
        const Coord2 pe{x, y};
        if (data) {
          data_senders.push_back(pe);
        }
        if (control) {
          control_senders.push_back(pe);
        }
        if (!graph.accepts(pe, Dir::Ramp)) {
          std::ostringstream os;
          os << "PE(" << x << ',' << y << ") declares a send on "
             << label(color);
          if (graph.config(pe).configured()) {
            os << " but no switch position of that color accepts the Ramp: "
                  "injected wavelets would never leave the PE";
          } else {
            os << " but the color is not configured on its router";
          }
          add(Check::UnroutedSend, Severity::Error, pe, color, os.str());
        }
      }
    }
    check_deliveries(graph, color, data_senders, /*control=*/false);
    check_deliveries(graph, color, control_senders, /*control=*/true);
  }

  void check_deliveries(const ColorGraph& graph, Color color,
                        const std::vector<Coord2>& senders, bool control) {
    if (senders.empty()) {
      return;
    }
    // Multi-source BFS from every sender's Ramp injection point.
    std::vector<bool> visited(graph.node_count(), false);
    std::vector<usize> frontier;
    for (const Coord2 pe : senders) {
      const usize n = graph.node(pe, Dir::Ramp);
      if (graph.accepts(pe, Dir::Ramp) && !visited[n]) {
        visited[n] = true;
        frontier.push_back(n);
      }
    }
    std::vector<bool> delivered(static_cast<usize>(fabric_.pe_count()),
                                false);
    while (!frontier.empty()) {
      const usize n = frontier.back();
      frontier.pop_back();
      const Coord2 pe = graph.pe_of(n);
      graph.each_output(pe, graph.input_of(n), [&](Dir out) {
        if (out == Dir::Ramp) {
          delivered[static_cast<usize>(pe.y) *
                        static_cast<usize>(graph.width()) +
                    static_cast<usize>(pe.x)] = true;
          return;
        }
        const Coord2 off = wse::dir_offset(out);
        const Coord2 target{pe.x + off.x, pe.y + off.y};
        if (!graph.on_fabric(target)) {
          return;
        }
        const usize t = graph.node(target, wse::opposite(out));
        if (!visited[t] && graph.accepts(target, wse::opposite(out))) {
          visited[t] = true;
          frontier.push_back(t);
        }
      });
    }
    for (i32 y = 0; y < graph.height(); ++y) {
      for (i32 x = 0; x < graph.width(); ++x) {
        if (!delivered[static_cast<usize>(y) *
                           static_cast<usize>(graph.width()) +
                       static_cast<usize>(x)]) {
          continue;
        }
        const wse::PeProgram* program = fabric_.pe(x, y).program();
        if (program == nullptr || program->handles_color(color, control)) {
          continue;
        }
        std::ostringstream os;
        os << label(color) << ' '
           << (control ? "control wavelets" : "data blocks")
           << " can reach the Ramp of PE(" << x << ',' << y
           << "), whose program does not handle that color";
        add(Check::UnhandledDelivery, Severity::Error, Coord2{x, y}, color,
            os.str());
      }
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
  std::array<bool, Color::kMaxColors> cyclic_colors_{};
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
