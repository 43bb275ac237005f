// Heap-allocation budget of the per-PE state src/wse owns, counted by a
// replacement global operator new: installing every router
// configuration and declaring every PE's memory allocate nothing per
// PE, and a TPFA run stays under one block per PE. Also checks the
// interned route table on the shipped kernels: every router's
// configuration decodes and re-packs to itself, and a layout stamps only
// a few distinct configurations whatever the fabric size.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/array3d.hpp"
#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "dataflow/fabric_harness.hpp"
#include "physics/problem.hpp"
#include "spec/heat.hpp"
#include "wse/fabric.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<unsigned long long> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fvf {
namespace {

/// Heap blocks `fn` allocates on this process.
template <typename Fn>
u64 allocations_of(const Fn& fn) {
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

physics::FlowProblem tpfa_problem(i32 nx, i32 ny, i32 nz) {
  physics::ProblemSpec spec;
  spec.extents = Extents3{nx, ny, nz};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = 7;
  return physics::FlowProblem(spec);
}

/// Heap blocks of the per-PE setup over a whole fabric, and the number
/// of distinct route configurations it installed.
struct PerPeAllocations {
  u64 configure = 0;
  u64 reserve = 0;
  usize distinct = 0;
};

/// Re-runs every loaded program's configure_router against a fresh
/// fabric of the same size (an empty route table, as at a real load)
/// and its reserve_memory against a fresh arena, the way both the
/// program start and lint's memory probe call it.
PerPeAllocations count_per_pe_setup(wse::Fabric& loaded) {
  PerPeAllocations out;
  wse::Fabric fresh(loaded.width(), loaded.height());
  out.configure = allocations_of([&] {
    for (i32 y = 0; y < loaded.height(); ++y) {
      for (i32 x = 0; x < loaded.width(); ++x) {
        loaded.pe(x, y).program()->configure_router(fresh.router(x, y));
      }
    }
  });
  out.reserve = allocations_of([&] {
    for (i32 y = 0; y < loaded.height(); ++y) {
      for (i32 x = 0; x < loaded.width(); ++x) {
        wse::PeMemory probe(usize{1} << 40);
        loaded.pe(x, y).program()->reserve_memory(probe);
      }
    }
  });
  out.distinct = fresh.route_configs().size();
  return out;
}

/// Growth of the route table's two vectors: a handful of doublings.
constexpr u64 kTableGrowth = 16;

TEST(HeapFreeTest, TpfaSetupAllocatesNothingPerPe) {
  const physics::FlowProblem problem = tpfa_problem(16, 16, 4);
  const core::TpfaLoad load =
      core::load_dataflow_tpfa(problem, core::DataflowOptions{});
  const PerPeAllocations counts =
      count_per_pe_setup(load.harness->fabric());
  EXPECT_LE(counts.configure, counts.distinct + kTableGrowth);
  EXPECT_EQ(counts.reserve, 0u);
  // The TPFA layout is a few switch patterns stamped everywhere.
  EXPECT_LE(counts.distinct, 64u);
}

TEST(HeapFreeTest, StaticHaloSetupAllocatesNothingPerPe) {
  const physics::FlowProblem problem = tpfa_problem(16, 16, 4);
  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 86400.0);
  Array3<f32> rhs(problem.extents());
  rhs.fill(1.0f);
  const core::CgLoad load =
      core::load_dataflow_cg(stencil, rhs, core::DataflowCgOptions{});
  const PerPeAllocations counts =
      count_per_pe_setup(load.harness->fabric());
  EXPECT_LE(counts.configure, counts.distinct + kTableGrowth);
  EXPECT_EQ(counts.reserve, 0u);
  EXPECT_LE(counts.distinct, 64u);
}

TEST(HeapFreeTest, TpfaRunAllocatesUnderOneBlockPerPe) {
  const physics::FlowProblem problem = tpfa_problem(16, 16, 4);
  const core::TpfaLoad load =
      core::load_dataflow_tpfa(problem, core::DataflowOptions{});
  const u64 pes = static_cast<u64>(load.harness->fabric().pe_count());
  dataflow::RunInfo info;
  const u64 run = allocations_of([&] { info = load.harness->run(); });
  EXPECT_TRUE(info.errors.empty()) << info.errors.front();
  EXPECT_LT(run, pes) << run << " blocks for " << pes << " PEs";
}

TEST(HeapFreeTest, DistinctConfigurationsDoNotGrowWithTheFabric) {
  usize distinct[2] = {};
  for (const i32 n : {8, 16}) {
    const core::TpfaLoad load = core::load_dataflow_tpfa(
        tpfa_problem(n, n, 2), core::DataflowOptions{});
    distinct[n == 16] = load.harness->fabric().route_configs().size();
  }
  EXPECT_EQ(distinct[0], distinct[1]);
}

/// Every configured color of every router decodes to switch positions
/// that re-pack to the identical configuration.
void expect_positions_round_trip(const wse::Fabric& fabric) {
  usize configured = 0;
  for (i32 y = 0; y < fabric.height(); ++y) {
    for (i32 x = 0; x < fabric.width(); ++x) {
      for (u8 c = 0; c < wse::Color::kMaxColors; ++c) {
        const wse::ColorConfig& config = fabric.router(x, y).config(
            wse::Color{c});
        if (!config.configured()) {
          continue;
        }
        ++configured;
        EXPECT_EQ(wse::ColorConfig(config.positions()), config)
            << "PE(" << x << ',' << y << ") color " << int{c};
      }
    }
  }
  EXPECT_GT(configured, 0u);
}

TEST(HeapFreeTest, ShippedRoutesRoundTripThroughPositions) {
  const physics::FlowProblem problem = tpfa_problem(5, 4, 3);
  const Extents3 ext = problem.extents();
  expect_positions_round_trip(
      core::load_dataflow_tpfa(problem, core::DataflowOptions{})
          .harness->fabric());

  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 86400.0);
  Array3<f32> ones(ext);
  ones.fill(1.0f);
  for (const bool reliability : {false, true}) {
    core::DataflowCgOptions options;
    options.reliability.enabled = reliability;
    expect_positions_round_trip(
        core::load_dataflow_cg(stencil, ones, options).harness->fabric());
  }
  expect_positions_round_trip(
      core::load_dataflow_wave(stencil, ones, core::DataflowWaveOptions{})
          .harness->fabric());

  Array3<f32> zeros(ext);
  zeros.fill(0.0f);
  core::DataflowTransportOptions transport;
  transport.kernel.window_seconds = 60.0;
  transport.kernel.pore_volume = 1.0f;
  expect_positions_round_trip(
      core::load_dataflow_transport(problem, zeros,
                                    problem.initial_pressure(), zeros,
                                    transport)
          .harness->fabric());

  expect_positions_round_trip(
      spec::load_dataflow_heat(ones, spec::DataflowHeatOptions{})
          .harness->fabric());
}

}  // namespace
}  // namespace fvf
