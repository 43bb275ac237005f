#include "lint/color_graph.hpp"

#include <algorithm>

#include "wse/route.hpp"
#include "wse/router.hpp"

namespace fvf::lint::detail {

ColorSet configured_colors(const wse::Fabric& fabric) {
  ColorSet configured{};
  for (i32 y = 0; y < fabric.height(); ++y) {
    for (i32 x = 0; x < fabric.width(); ++x) {
      const wse::Router& router = fabric.router(x, y);
      for (u8 c = 0; c < wse::Color::kMaxColors; ++c) {
        configured[c] =
            configured[c] || router.configure_count(wse::Color{c}) > 0;
      }
    }
  }
  return configured;
}

Declarations::Declarations(const wse::Fabric& fabric)
    : active_(configured_colors(fabric)) {
  const usize pe_count = static_cast<usize>(fabric.pe_count());
  send_begin_.reserve(pe_count + 1);
  dep_begin_.reserve(pe_count + 1);
  reduction_begin_.reserve(pe_count + 1);
  for (i32 y = 0; y < fabric.height(); ++y) {
    for (i32 x = 0; x < fabric.width(); ++x) {
      send_begin_.push_back(static_cast<u32>(sends_.size()));
      dep_begin_.push_back(static_cast<u32>(deps_.size()));
      reduction_begin_.push_back(static_cast<u32>(reductions_.size()));
      const wse::PeProgram* program = fabric.pe(x, y).program();
      if (program == nullptr) {
        continue;
      }
      for (const wse::SendDeclaration& send : program->send_declarations()) {
        active_[send.color.id()] = true;
        sends_.push_back(send);
      }
      for (const wse::ChannelDependency& dep :
           program->channel_dependencies()) {
        active_[dep.prerequisite.id()] = true;
        active_[dep.dependent.id()] = true;
        deps_.push_back(dep);
      }
      for (wse::ReductionDeclaration& red :
           program->reduction_declarations()) {
        for (const wse::Color c : red.colors) {
          active_[c.id()] = true;
        }
        reductions_.push_back(std::move(red));
      }
    }
  }
  send_begin_.push_back(static_cast<u32>(sends_.size()));
  dep_begin_.push_back(static_cast<u32>(deps_.size()));
  reduction_begin_.push_back(static_cast<u32>(reductions_.size()));
}

ColorGraph::Decoded ColorGraph::decode(const wse::ColorConfig& config) {
  Decoded d;
  d.flags = kConfigured;
  const usize positions = config.position_count();
  for (usize in = 0; in < kLinks; ++in) {
    const wse::Dir input = static_cast<wse::Dir>(in);
    usize accepting = 0;
    u32 links = 0;
    for (usize p = 0; p < positions; ++p) {
      const u32 word = config.word(p, input);
      if ((word & wse::kRouteExistsBit) == 0) {
        continue;
      }
      ++accepting;
      for (usize i = 0; i < wse::route_output_count(word); ++i) {
        const wse::Dir out = wse::route_output(word, i);
        if (out == wse::Dir::Ramp) {
          d.flags |= 1u << (kRampShift + in);
          continue;
        }
        links = append_link(links, out);
      }
    }
    if (accepting > 0) {
      d.flags |= 1u << (kAcceptShift + in);
      if (positions >= 2 && accepting < positions) {
        d.flags |= 1u << (kParkShift + in);
      }
    }
    d.links[in] = links;
  }
  return d;
}

u32 ColorGraph::append_link(u32 links, wse::Dir out) noexcept {
  const u32 mask = 1u << (kMaskShift + static_cast<u32>(out));
  if ((links & mask) != 0) {
    return links;  // already linked
  }
  const u32 count = links & 0x7u;
  return ((links & ~0x7u) | (count + 1) | mask) |
         (static_cast<u32>(out) << (3 + 2 * count));
}

void ColorGraph::build(const wse::Fabric& fabric, wse::Color color) {
  color_ = color;
  width_ = fabric.width();
  height_ = fabric.height();
  any_parkable_ = false;
  flags_.assign(static_cast<usize>(fabric.pe_count()), 0);
  links_.assign(flags_.size() * kLinks, 0);
  // A layout stamps a few configurations across the whole fabric, so
  // each distinct one is decoded once, on first use, and PEs copy it.
  const wse::RouteConfigTable& table = fabric.route_configs();
  decoded_.assign(table.size(), Decoded{});
  constexpr u32 kParkMask = ((1u << kLinks) - 1) << kParkShift;
  for (i32 y = 0; y < height_; ++y) {
    for (i32 x = 0; x < width_; ++x) {
      const u32 id = fabric.router(x, y).config_id(color);
      if (id == wse::RouteConfigTable::kUnconfigured) {
        continue;
      }
      Decoded& d = decoded_[id];
      if (d.flags == 0) {
        d = decode(table[id]);
      }
      const usize pe = pe_index(Coord2{x, y});
      flags_[pe] = static_cast<u16>(d.flags);
      any_parkable_ = any_parkable_ || (d.flags & kParkMask) != 0;
      for (usize in = 0; in < kLinks; ++in) {
        // Off-fabric outputs are absorbed at the wafer edge: keep the
        // on-fabric ones, in their first-occurrence order.
        u32 links = 0;
        for (usize i = 0; i < (d.links[in] & 0x7u); ++i) {
          const wse::Dir out =
              static_cast<wse::Dir>((d.links[in] >> (3 + 2 * i)) & 0x3u);
          const Coord2 off = wse::dir_offset(out);
          if (on_fabric(Coord2{x + off.x, y + off.y})) {
            links = append_link(links, out);
          }
        }
        links_[node(pe, static_cast<wse::Dir>(in))] = static_cast<u16>(links);
      }
    }
  }
}

void Walker::begin(const ColorGraph& graph) {
  if (node_mark_.size() != graph.node_count()) {
    node_mark_.assign(graph.node_count(), 0);
    pe_mark_.assign(graph.pe_count(), 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // the stamps wrapped: clear them once
    std::fill(node_mark_.begin(), node_mark_.end(), 0);
    std::fill(pe_mark_.begin(), pe_mark_.end(), 0);
    epoch_ = 1;
  }
}

}  // namespace fvf::lint::detail
