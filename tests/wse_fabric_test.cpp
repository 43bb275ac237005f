// Tests of the wafer-scale-engine simulator itself: routing, switch
// positions, control wavelets, backpressure, DSD ops, memory accounting,
// and the timing model.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "wse/fabric.hpp"

namespace fvf::wse {
namespace {

constexpr Color kC0{0};
constexpr Color kC1{1};

/// A tiny configurable program for exercising the fabric.
class ScriptProgram : public PeProgram {
 public:
  std::function<void(Router&, Coord2)> configure;
  std::function<void(PeApi&)> start;
  std::function<void(PeApi&, Color, Dir, std::span<const u32>)> data;
  std::function<void(PeApi&, Color, Dir)> control;
  Coord2 coord{};

  void configure_router(Router& router) override {
    if (configure) {
      configure(router, coord);
    }
  }
  void on_start(PeApi& api) override {
    if (start) {
      start(api);
    } else {
      api.signal_done();
    }
  }
  void on_data(PeApi& api, Color c, Dir from,
               std::span<const u32> payload) override {
    if (data) {
      data(api, c, from, payload);
    }
  }
  void on_control(PeApi& api, Color c, Dir from) override {
    if (control) {
      control(api, c, from);
    }
  }
};

TEST(FabricTypesTest, OppositeDirs) {
  EXPECT_EQ(opposite(Dir::North), Dir::South);
  EXPECT_EQ(opposite(Dir::East), Dir::West);
  EXPECT_EQ(opposite(opposite(Dir::West)), Dir::West);
  EXPECT_EQ(opposite(Dir::Ramp), Dir::Ramp);
}

TEST(FabricTypesTest, PackUnpackF32RoundTrip) {
  for (const f32 v : {0.0f, -1.5f, 3.14159f, 1e-30f, -2.5e7f}) {
    EXPECT_EQ(unpack_f32(pack_f32(v)), v);
  }
}

TEST(ColorConfigTest, AdvanceWrapsAround) {
  RouteConfigTable table;
  Router router(table);
  router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East}),
                                     position(Dir::West, {Dir::Ramp})}));
  EXPECT_EQ(router.position(kC0), 0u);
  router.advance_switch(kC0);
  EXPECT_EQ(router.position(kC0), 1u);
  router.advance_switch(kC0);
  EXPECT_EQ(router.position(kC0), 0u);
}

TEST(ColorConfigTest, RouteResolvesCurrentPositionOnly) {
  RouteConfigTable table;
  Router router(table);
  router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East}),
                                     position(Dir::West, {Dir::Ramp})}));
  EXPECT_NE(router.route_word(kC0, Dir::Ramp), 0u);
  EXPECT_EQ(router.route_word(kC0, Dir::West), 0u);
  router.advance_switch(kC0);
  EXPECT_EQ(router.route_word(kC0, Dir::Ramp), 0u);
  EXPECT_NE(router.route_word(kC0, Dir::West), 0u);
}

/// Expects `make` to throw a ContractViolation whose message names
/// `what`.
template <typename Fn>
void expect_violation(const Fn& make, std::string_view what) {
  try {
    make();
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string_view(e.what()).find(what), std::string_view::npos)
        << e.what();
    return;
  }
  ADD_FAILURE() << "no ContractViolation naming '" << what << "'";
}

TEST(ColorConfigTest, RejectsDuplicateInputs) {
  expect_violation(
      [] {
        (void)ColorConfig({position({RouteRule{Dir::Ramp, {Dir::East}},
                                     RouteRule{Dir::Ramp, {Dir::West}}})});
      },
      "duplicate input link R in switch position");
  // Built rule by rule, the duplicate is caught the same way.
  SwitchPosition pos;
  pos.add(RouteRule{Dir::West, {Dir::Ramp}});
  EXPECT_THROW(pos.add(RouteRule{Dir::West, {Dir::East}}), ContractViolation);
}

TEST(ColorConfigTest, RejectsTooManyPositions) {
  expect_violation(
      [] {
        (void)ColorConfig({position(Dir::Ramp, {Dir::North}),
                           position(Dir::Ramp, {Dir::East}),
                           position(Dir::Ramp, {Dir::South}),
                           position(Dir::Ramp, {Dir::West}),
                           position(Dir::Ramp, {Dir::Ramp})});
      },
      "5 switch positions, more than 4");
  expect_violation(
      [] { (void)ColorConfig(std::span<const SwitchPosition>{}); },
      "no switch positions");
}

TEST(ColorConfigTest, RejectsTooManyOutputs) {
  expect_violation(
      [] {
        (void)position(Dir::Ramp, {Dir::North, Dir::East, Dir::South,
                                   Dir::West, Dir::Ramp, Dir::North});
      },
      "fans out to more than 5 output links");
  RouteRule rule{Dir::West, {Dir::North, Dir::East, Dir::South, Dir::West,
                             Dir::Ramp}};
  EXPECT_THROW(rule.outputs.push_back(Dir::Ramp), ContractViolation);
}

TEST(ColorConfigTest, PositionsDecodeThePackedWords) {
  const ColorConfig config(
      {position({RouteRule{Dir::West, {Dir::Ramp, Dir::East}},
                 RouteRule{Dir::Ramp, {Dir::North}}}),
       position(Dir::South, {})});
  const std::vector<SwitchPosition> positions = config.positions();
  ASSERT_EQ(positions.size(), 2u);
  // Rules come back in Dir order, outputs in configuration order.
  ASSERT_EQ(positions[0].rules().size(), 2u);
  EXPECT_EQ(positions[0].rules()[0], (RouteRule{Dir::West, {Dir::Ramp,
                                                            Dir::East}}));
  EXPECT_EQ(positions[0].rules()[1], (RouteRule{Dir::Ramp, {Dir::North}}));
  ASSERT_NE(positions[1].find(Dir::South), nullptr);
  EXPECT_EQ(positions[1].find(Dir::South)->outputs.size(), 0u);
  EXPECT_EQ(ColorConfig(positions), config);
}

TEST(ColorConfigTest, EqualConfigurationsShareOneTableEntry) {
  Fabric fabric(3, 1);
  fabric.load([](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 at) {
      router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East}),
                                         position(Dir::West, {Dir::Ramp})}));
      if (at.x == 1) {
        router.configure(kC1, ColorConfig({position(Dir::West, {Dir::Ramp})}));
      }
    };
    return prog;
  });
  const RouteConfigTable& table = fabric.route_configs();
  ASSERT_EQ(table.size(), 3u);  // unconfigured + two distinct
  const u32 shared = fabric.router(0, 0).config_id(kC0);
  EXPECT_NE(shared, RouteConfigTable::kUnconfigured);
  EXPECT_EQ(fabric.router(1, 0).config_id(kC0), shared);
  EXPECT_EQ(fabric.router(2, 0).config_id(kC0), shared);
  EXPECT_EQ(fabric.router(0, 0).config_id(kC1),
            RouteConfigTable::kUnconfigured);
  EXPECT_FALSE(fabric.router(0, 0).config(kC1).configured());
  EXPECT_EQ(fabric.router(1, 0).config(kC1).position_count(), 1u);
}

TEST(ColorConfigTest, ReconfigureCountsAndResetsThePosition) {
  RouteConfigTable table;
  Router router(table);
  const ColorConfig two({position(Dir::Ramp, {Dir::East}),
                         position(Dir::West, {Dir::Ramp})});
  router.configure(kC0, two);
  router.advance_switch(kC0);
  ASSERT_EQ(router.position(kC0), 1u);
  router.configure(kC0, two);
  EXPECT_EQ(router.configure_count(kC0), 2u);
  EXPECT_EQ(router.position(kC0), 0u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(router.configure_count(kC1), 0u);
}

TEST(PeMemoryTest, BudgetEnforced) {
  PeMemory mem(1024);
  mem.reserve(512, "half");
  EXPECT_EQ(mem.used(), 512u);
  EXPECT_EQ(mem.available(), 512u);
  EXPECT_THROW(mem.reserve(1024, "too much"), ContractViolation);
  mem.reserve(512, "rest");
  EXPECT_EQ(mem.available(), 0u);
}

TEST(PeMemoryTest, RecordsTaggedAllocations) {
  PeMemory mem(4096);
  mem.reserve(64, "a");
  mem.reserve(100, "b");
  ASSERT_EQ(mem.records().size(), 2u);
  EXPECT_EQ(mem.records()[0].tag, "a");
  EXPECT_EQ(mem.records()[1].bytes, 100u);
}

TEST(PeMemoryTest, RecordCapacityIsAContract) {
  PeMemory mem(4096);
  for (usize i = 0; i < PeMemory::kMaxRecords; ++i) {
    mem.reserve(1, "field");
  }
  EXPECT_THROW(mem.reserve(1, "one too many"), ContractViolation);
  EXPECT_EQ(mem.records().size(), PeMemory::kMaxRecords);
  EXPECT_EQ(mem.used(), PeMemory::kMaxRecords);
}

TEST(PeMemoryTest, EachRunStartsFromAnEmptyArena) {
  // Programs declare their buffers at start, so a rerun of the loaded
  // fabric must not count them twice.
  Fabric fabric(1, 1);
  fabric.load([](Coord2, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->start = [](PeApi& api) {
      api.memory().reserve(100, "buffer");
      api.signal_done();
    };
    return prog;
  });
  for (usize run = 0; run <= PeMemory::kMaxRecords; ++run) {
    ASSERT_TRUE(fabric.run().ok());
    EXPECT_EQ(fabric.pe(0, 0).memory().used(), 100u);
    EXPECT_EQ(fabric.pe(0, 0).memory().records().size(), 1u);
  }
}

// --- point-to-point data delivery ------------------------------------------

TEST(FabricTest, EastwardSendDelivers) {
  Fabric fabric(2, 1);
  std::vector<f32> received;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East})}));
      } else {
        router.configure(kC0, ColorConfig({position(Dir::West, {Dir::Ramp})}));
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        const std::vector<f32> block{1.0f, 2.0f, 3.0f};
        api.send(kC0, block);
        api.signal_done();
      };
    } else {
      prog->data = [&received](PeApi& api, Color c, Dir from,
                               std::span<const u32> payload) {
        EXPECT_EQ(c, kC0);
        EXPECT_EQ(from, Dir::West);
        for (const u32 w : payload) {
          received.push_back(unpack_f32(w));
        }
        api.signal_done();
      };
    }
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[0], 1.0f);
  EXPECT_EQ(received[2], 3.0f);
}

TEST(FabricTest, MulticastFanOut) {
  // Centre PE of a 3x3 broadcasts to all four neighbors at once.
  Fabric fabric(3, 3);
  int deliveries = 0;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 1 && c.y == 1) {
        router.configure(
            kC0, ColorConfig({position(Dir::Ramp, {Dir::North, Dir::East,
                                                   Dir::South, Dir::West})}));
      } else {
        // Accept from whichever side faces the centre.
        SwitchPosition pos;
        for (const Dir d : kFabricDirs) {
          pos.add(RouteRule{d, {Dir::Ramp}});
        }
        router.configure(kC0, ColorConfig({pos}));
      }
    };
    if (coord.x == 1 && coord.y == 1) {
      prog->start = [](PeApi& api) {
        const std::vector<f32> block{42.0f};
        api.send(kC0, block);
        api.signal_done();
      };
    } else {
      prog->data = [&deliveries](PeApi& api, Color, Dir,
                                 std::span<const u32> payload) {
        EXPECT_EQ(unpack_f32(payload[0]), 42.0f);
        ++deliveries;
        api.signal_done();
      };
      prog->start = [coord](PeApi& api) {
        // Corner PEs receive nothing; they finish immediately.
        if ((coord.x != 1) && (coord.y != 1)) {
          api.signal_done();
        }
      };
    }
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  EXPECT_EQ(deliveries, 4);
}

TEST(FabricTest, EdgeTrafficIsAbsorbed) {
  // A PE on the west edge sends west: the wavelets leave the simulated
  // region without error (the wafer's reserved boundary layer).
  Fabric fabric(1, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2) {
      router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::West})}));
    };
    prog->start = [](PeApi& api) {
      const std::vector<f32> block{1.0f, 2.0f};
      api.send(kC0, block);
      api.signal_done();
    };
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(FabricTest, UnconfiguredColorIsAnError) {
  Fabric fabric(2, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::East})}));
      }
      // PE 1 leaves the color unconfigured.
    };
    prog->start = [c = coord](PeApi& api) {
      if (c.x == 0) {
        const std::vector<f32> block{1.0f};
        api.send(kC0, block);
      }
      api.signal_done();
    };
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.errors[0].find("unconfigured"), std::string::npos);
}

// --- control wavelets & switch protocol --------------------------------------

TEST(FabricTest, ControlAdvancesTraversedRouters) {
  // Figure 6 protocol on a 1x2 pair: PE0 sends data + control; PE1's
  // router flips from receive to send; PE1 answers with its own data.
  Fabric fabric(2, 1);
  std::vector<f32> pe0_got, pe1_got;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0,
                         ColorConfig({position(Dir::Ramp, {Dir::East}),
                                      position(Dir::East, {Dir::Ramp})}));
      } else {
        router.configure(kC0,
                         ColorConfig({position(Dir::West, {Dir::Ramp}),
                                      position(Dir::Ramp, {Dir::West})}));
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        const std::vector<f32> block{10.0f};
        api.send(kC0, block);
        api.send_control(kC0);
      };
      prog->data = [&pe0_got](PeApi& api, Color, Dir from,
                              std::span<const u32> payload) {
        EXPECT_EQ(from, Dir::East);
        pe0_got.push_back(unpack_f32(payload[0]));
        api.signal_done();
      };
    } else {
      prog->data = [&pe1_got](PeApi&, Color, Dir from,
                              std::span<const u32> payload) {
        EXPECT_EQ(from, Dir::West);
        pe1_got.push_back(unpack_f32(payload[0]));
      };
      prog->control = [](PeApi& api, Color c, Dir) {
        // Switch has flipped: now this PE is the sender.
        const std::vector<f32> block{20.0f};
        api.send(c, block);
        api.signal_done();
      };
    }
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
  ASSERT_EQ(pe1_got.size(), 1u);
  EXPECT_EQ(pe1_got[0], 10.0f);
  ASSERT_EQ(pe0_got.size(), 1u);
  EXPECT_EQ(pe0_got[0], 20.0f);
  // Both routers advanced twice (their own control + none) -> the test's
  // protocol flips each router exactly once per control traversal.
  EXPECT_EQ(fabric.router(0, 0).position(kC0), 1u);
  EXPECT_EQ(fabric.router(1, 0).position(kC0), 1u);
}

TEST(FabricTest, BackpressureHoldsDataUntilSwitchAdvances) {
  // PE1 sends to PE0 while PE0's switch is in the "sending" position;
  // the block must wait in the router buffer until PE0's own control
  // flips the switch, then be delivered (not lost, not misrouted).
  Fabric fabric(2, 1);
  bool pe0_received = false;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->configure = [](Router& router, Coord2 c) {
      if (c.x == 0) {
        router.configure(kC0,
                         ColorConfig({position(Dir::Ramp, {Dir::East}),
                                      position(Dir::East, {Dir::Ramp})}));
      } else {
        router.configure(kC0, ColorConfig({position(Dir::Ramp, {Dir::West})}));
      }
    };
    if (coord.x == 0) {
      prog->start = [](PeApi& api) {
        // Burn cycles before sending the control: PE1's data arrives
        // while our switch still points Ramp->East.
        api.add_cycles(10000.0);
        const std::vector<f32> block{1.0f};
        api.send(kC0, block);
        api.send_control(kC0);
      };
      prog->data = [&pe0_received](PeApi& api, Color, Dir,
                                   std::span<const u32> payload) {
        EXPECT_EQ(unpack_f32(payload[0]), 99.0f);
        pe0_received = true;
        api.signal_done();
      };
    } else {
      prog->start = [](PeApi& api) {
        const std::vector<f32> block{99.0f};
        api.send(kC0, block);
        api.signal_done();
      };
      // PE1 ignores PE0's data and control: its single position routes
      // Ramp->West only... so PE0's eastward block would strand. Give it
      // a sink rule instead via on_data being unreachable: PE0's block is
      // absorbed at PE1? No: PE1 has no West-input rule, so PE0's block
      // backpressures forever at PE1 and strands. Avoid that by not
      // letting PE0's data reach PE1: PE0 sends control only... but the
      // test sends data. Accept the stranded-block report below.
    }
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_TRUE(pe0_received) << "backpressured block must be delivered";
  // PE0's own eastward data (and control) strand at PE1 by construction;
  // the fabric must report them rather than silently dropping.
  bool stranded_reported = false;
  for (const std::string& e : report.errors) {
    stranded_reported |= e.find("stranded") != std::string::npos;
  }
  EXPECT_TRUE(stranded_reported);
}

// --- DSD ops, counters, timing ------------------------------------------------

class DsdProbeProgram : public ScriptProgram {};

TEST(DsdTest, VectorOpsComputeAndCount) {
  Fabric fabric(1, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [](PeApi& api) {
      std::vector<f32> a{1.0f, 2.0f, 3.0f};
      std::vector<f32> b{4.0f, 5.0f, 6.0f};
      std::vector<f32> out(3);
      api.fmuls(Dsd::of(out), Dsd::of(a), Dsd::of(b));
      EXPECT_EQ(out[0], 4.0f);
      EXPECT_EQ(out[2], 18.0f);
      api.fadds(Dsd::of(out), Dsd::of(a), Dsd::of(b));
      EXPECT_EQ(out[1], 7.0f);
      api.fsubs(Dsd::of(out), Dsd::of(b), Dsd::of(a));
      EXPECT_EQ(out[2], 3.0f);
      api.fnegs(Dsd::of(out), Dsd::of(a));
      EXPECT_EQ(out[0], -1.0f);
      api.fmacs(Dsd::of(out), Dsd::of(a), Dsd::of(b), Dsd::of(a));
      EXPECT_EQ(out[1], 12.0f);  // 2*5+2
      std::vector<f32> pred{1.0f, -1.0f, 0.0f};
      api.selects(Dsd::of(out), Dsd::of(pred), Dsd::of(a), Dsd::of(b));
      EXPECT_EQ(out[0], 1.0f);
      EXPECT_EQ(out[1], 5.0f);
      EXPECT_EQ(out[2], 6.0f);  // pred == 0 picks b
      api.signal_done();
    };
    return prog;
  });
  const RunReport report = fabric.run();
  ASSERT_TRUE(report.ok());
  const PeCounters& counters = fabric.pe(0, 0).counters();
  EXPECT_EQ(counters.fmul, 3u);
  EXPECT_EQ(counters.fadd, 3u);
  EXPECT_EQ(counters.fsub, 3u);
  EXPECT_EQ(counters.fneg, 3u);
  EXPECT_EQ(counters.fma, 3u);
  // Table 4 memory model: fmul 2 loads/elem, fma 3 loads/elem, etc.
  EXPECT_EQ(counters.mem_loads, (2u + 2u + 2u + 1u + 3u) * 3u);
  EXPECT_EQ(counters.mem_stores, 5u * 3u);
}

TEST(DsdTest, WindowIsAContiguousSubview) {
  std::vector<f32> data{0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  const Dsd whole = Dsd::of(data);
  const Dsd mid = whole.window(2, 3);
  EXPECT_EQ(mid.base, data.data() + 2);
  EXPECT_EQ(mid.length, 3);
  EXPECT_EQ(mid.at(0), 2.0f);
  EXPECT_EQ(mid.at(2), 4.0f);
}

// --- DSD semantics, bit for bit -------------------------------------------
//
// Every DSD op must give exactly what a sequential element loop gives —
// dest[i] = f(a[i], b[i], c[i]) for i = 0, 1, ... — at every length
// (around the host's vector width and its remainders), for exact
// in-place aliases, and for partial overlaps in both directions, where
// later elements read values the same op already wrote.

/// Runs `body` inside the start task of a one-PE fabric.
void run_on_pe(const std::function<void(PeApi&)>& body) {
  Fabric fabric(1, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [&](PeApi& api) {
      body(api);
      api.signal_done();
    };
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
}

constexpr f32 kDsdScalar = -1.75f;
constexpr i32 kDsdLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 246};

/// One DSD op over up to three sources, and its element function.
struct DsdOpCase {
  const char* name;
  void (*run)(PeApi&, Dsd dest, Dsd a, Dsd b, Dsd c);
  f32 (*element)(f32 a, f32 b, f32 c);
};

const DsdOpCase kDsdOps[] = {
    {"fmuls", [](PeApi& api, Dsd d, Dsd a, Dsd b, Dsd) { api.fmuls(d, a, b); },
     [](f32 a, f32 b, f32) { return a * b; }},
    {"fmuls scalar",
     [](PeApi& api, Dsd d, Dsd a, Dsd, Dsd) { api.fmuls(d, a, kDsdScalar); },
     [](f32 a, f32, f32) { return a * kDsdScalar; }},
    {"fadds", [](PeApi& api, Dsd d, Dsd a, Dsd b, Dsd) { api.fadds(d, a, b); },
     [](f32 a, f32 b, f32) { return a + b; }},
    {"fsubs", [](PeApi& api, Dsd d, Dsd a, Dsd b, Dsd) { api.fsubs(d, a, b); },
     [](f32 a, f32 b, f32) { return a - b; }},
    {"fsubs scalar",
     [](PeApi& api, Dsd d, Dsd a, Dsd, Dsd) { api.fsubs(d, a, kDsdScalar); },
     [](f32 a, f32, f32) { return a - kDsdScalar; }},
    {"fnegs", [](PeApi& api, Dsd d, Dsd a, Dsd, Dsd) { api.fnegs(d, a); },
     [](f32 a, f32, f32) { return -a; }},
    {"fmacs",
     [](PeApi& api, Dsd d, Dsd a, Dsd b, Dsd c) { api.fmacs(d, a, b, c); },
     [](f32 a, f32 b, f32 c) { return a * b + c; }},
    {"fmacs scalar",
     [](PeApi& api, Dsd d, Dsd a, Dsd, Dsd c) {
       api.fmacs(d, a, kDsdScalar, c);
     },
     [](f32 a, f32, f32 c) { return a * kDsdScalar + c; }},
    {"selects",
     [](PeApi& api, Dsd d, Dsd a, Dsd b, Dsd c) { api.selects(d, a, b, c); },
     [](f32 a, f32 b, f32 c) { return a > 0.0f ? b : c; }},
    {"zeros", [](PeApi& api, Dsd d, Dsd, Dsd, Dsd) { api.zeros(d); },
     [](f32, f32, f32) { return 0.0f; }},
};

/// Deterministic operands: mixed signs and magnitudes, signed zeros.
std::vector<f32> dsd_operands(usize count) {
  std::vector<f32> values(count);
  u32 state = 12345u;
  for (usize i = 0; i < count; ++i) {
    state = state * 1664525u + 1013904223u;
    values[i] = static_cast<f32>(static_cast<i32>(state >> 8) - (1 << 23)) /
                static_cast<f32>(1 << 21);
  }
  for (usize i = 0; i < count; i += 11) {
    values[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  }
  return values;
}

/// The sequential element loop over the same (possibly overlapping)
/// memory. The element function is called through a pointer, so this
/// loop runs one element at a time.
void dsd_reference(const DsdOpCase& op, f32* dest, const f32* a,
                   const f32* b, const f32* c, i32 length) {
  for (i32 i = 0; i < length; ++i) {
    dest[i] = op.element(a[i], b[i], c[i]);
  }
}

void expect_same_bits(const std::vector<f32>& got,
                      const std::vector<f32>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (usize i = 0; i < got.size(); ++i) {
    ASSERT_EQ(pack_f32(got[i]), pack_f32(want[i]))
        << what << ": element " << i << " is " << got[i] << ", want "
        << want[i];
  }
}

/// Runs `op` on the PE and the reference loop on an identical copy of
/// `memory`, with operands at the given element offsets, and compares
/// every word of the memory.
void check_dsd_op(PeApi& api, const DsdOpCase& op, std::vector<f32> memory,
                  i32 length, usize dest, usize a, usize b, usize c,
                  const std::string& what) {
  std::vector<f32> want = memory;
  const auto view = [&](std::vector<f32>& m, usize offset) {
    return Dsd{m.data() + offset, length};
  };
  op.run(api, view(memory, dest), view(memory, a), view(memory, b),
         view(memory, c));
  dsd_reference(op, want.data() + dest, want.data() + a, want.data() + b,
                want.data() + c, length);
  expect_same_bits(memory, want, std::string(op.name) + ", " + what +
                                     ", length " + std::to_string(length));
}

TEST(DsdTest, EveryOpMatchesTheSequentialLoopBitForBit) {
  run_on_pe([](PeApi& api) {
    for (const i32 length : kDsdLengths) {
      const usize n = static_cast<usize>(length);
      // Four disjoint operand slots with a gap, and room for overlaps.
      const usize slot = n + 8;
      const std::vector<f32> memory = dsd_operands(5 * slot);
      for (const DsdOpCase& op : kDsdOps) {
        check_dsd_op(api, op, memory, length, 0, slot, 2 * slot, 3 * slot,
                     "disjoint");
        // Exact in-place aliases: dest is the same view as one source.
        check_dsd_op(api, op, memory, length, slot, slot, 2 * slot,
                     3 * slot, "dest == a");
        check_dsd_op(api, op, memory, length, 2 * slot, slot, 2 * slot,
                     3 * slot, "dest == b");
        check_dsd_op(api, op, memory, length, 3 * slot, slot, 2 * slot,
                     3 * slot, "dest == c");
        // Partial overlaps with every source, dest ahead and behind.
        for (usize shift = 1; shift <= 5; ++shift) {
          const usize base = 2 * slot;
          const std::string ahead = "dest ahead by " + std::to_string(shift);
          const std::string behind =
              "dest behind by " + std::to_string(shift);
          check_dsd_op(api, op, memory, length, base + shift, base, 0,
                       4 * slot, ahead + " of a");
          check_dsd_op(api, op, memory, length, base - shift, base, 0,
                       4 * slot, behind + " of a");
          check_dsd_op(api, op, memory, length, base + shift, 0, base,
                       4 * slot, ahead + " of b");
          check_dsd_op(api, op, memory, length, base - shift, 0, base,
                       4 * slot, behind + " of b");
          check_dsd_op(api, op, memory, length, base + shift, 0, 4 * slot,
                       base, ahead + " of c");
          check_dsd_op(api, op, memory, length, base - shift, 0, 4 * slot,
                       base, behind + " of c");
        }
      }
    }
  });
}

TEST(DsdTest, FmovsMatchesTheSequentialLoopBitForBit) {
  run_on_pe([](PeApi& api) {
    for (const i32 length : kDsdLengths) {
      const std::vector<f32> values = dsd_operands(static_cast<usize>(length));
      std::vector<u32> wavelets;
      for (const f32 v : values) {
        wavelets.push_back(pack_f32(v));
      }
      std::vector<f32> out(values.size(), 99.0f);
      api.fmovs(Dsd::of(out), FabricDsd::of(wavelets));
      expect_same_bits(out, values, "fmovs, length " + std::to_string(length));
    }
  });
}

TEST(DsdTest, SelectsPicksTheFirstSourceOnlyForPositivePredicates) {
  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const f32 denormal = std::numeric_limits<f32>::denorm_min();
  const f32 inf = std::numeric_limits<f32>::infinity();
  // Nine elements: two full 4-wide vectors and one remainder element.
  std::vector<f32> pred{nan,  -0.0f, 0.0f, denormal, -2.5f,
                        -nan, -denormal, inf, -inf};
  const std::vector<bool> picks_a{false, false, false, true, false,
                                  false, false, true,  false};
  std::vector<f32> a(pred.size()), b(pred.size()), out(pred.size());
  for (usize i = 0; i < pred.size(); ++i) {
    a[i] = static_cast<f32>(i) + 1.0f;
    b[i] = -static_cast<f32>(i) - 100.0f;
  }
  run_on_pe([&](PeApi& api) {
    api.selects(Dsd::of(out), Dsd::of(pred), Dsd::of(a), Dsd::of(b));
  });
  for (usize i = 0; i < pred.size(); ++i) {
    EXPECT_EQ(pack_f32(out[i]), pack_f32(picks_a[i] ? a[i] : b[i]))
        << "predicate " << pred[i] << " at element " << i;
  }
}

TEST(TimingTest, VectorOpsAdvanceClock) {
  Fabric fabric(1, 1);
  f64 t_before = -1.0, t_after = -1.0;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [&](PeApi& api) {
      std::vector<f32> a(100, 1.0f), out(100);
      t_before = api.now();
      api.fmuls(Dsd::of(out), Dsd::of(a), 2.0f);
      t_after = api.now();
      api.signal_done();
    };
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  const FabricTimings& t = fabric.timings();
  EXPECT_NEAR(t_after - t_before,
              t.vector_op_issue_cycles + 100.0 * t.cycles_per_vector_element,
              1e-9);
}

TEST(TimingTest, ScalarModeChargesIssuePerElement) {
  ExecutionOptions exec;
  exec.vectorized = false;
  Fabric fabric(1, 1, FabricTimings{}, PeMemory::kDefaultBudget, exec);
  f64 elapsed = 0.0;
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [&](PeApi& api) {
      std::vector<f32> a(50, 1.0f), out(50);
      const f64 t0 = api.now();
      api.fmuls(Dsd::of(out), Dsd::of(a), 2.0f);
      elapsed = api.now() - t0;
      api.signal_done();
    };
    return prog;
  });
  ASSERT_TRUE(fabric.run().ok());
  const FabricTimings& t = fabric.timings();
  EXPECT_NEAR(elapsed,
              50.0 * t.vector_op_issue_cycles +
                  50.0 * t.cycles_per_vector_element,
              1e-9);
}

TEST(TimingTest, SecondsConversionUsesClock) {
  FabricTimings t;
  t.clock_hz = 850e6;
  EXPECT_NEAR(t.seconds(850e6), 1.0, 1e-12);
  EXPECT_NEAR(t.seconds(70e3), 70e3 / 850e6, 1e-18);
}

TEST(FabricTest, QuiescenceWithoutDoneIsReported) {
  Fabric fabric(1, 1);
  fabric.load([&](Coord2 coord, Coord2) {
    auto prog = std::make_unique<ScriptProgram>();
    prog->coord = coord;
    prog->start = [](PeApi&) { /* never signals done */ };
    return prog;
  });
  const RunReport report = fabric.run();
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.errors[0].find("signaled done"), std::string::npos);
}

TEST(FabricTest, DeterministicAcrossRuns) {
  const auto run_once = [] {
    Fabric fabric(3, 3);
    fabric.load([&](Coord2 coord, Coord2) {
      auto prog = std::make_unique<ScriptProgram>();
      prog->coord = coord;
      prog->configure = [](Router& router, Coord2) {
        router.configure(kC1, ColorConfig({position(
                                  {RouteRule{Dir::Ramp, {Dir::East}},
                                   RouteRule{Dir::West, {Dir::Ramp}}})}));
      };
      prog->start = [coord](PeApi& api) {
        const std::vector<f32> block{static_cast<f32>(coord.x * 10 + coord.y)};
        api.send(kC1, block);
        api.signal_done();
      };
      prog->data = [](PeApi&, Color, Dir, std::span<const u32>) {};
      return prog;
    });
    const RunReport report = fabric.run();
    return std::make_pair(report.makespan_cycles, report.events_processed);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace fvf::wse
