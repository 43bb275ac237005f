// Tests of the fvf::spec layer: compile-time validation and error
// wording, structural digests, the footprint parity between the facade
// accounting and the compiled spec, bit-identity of the migrated
// programs across event-engine thread counts, one shared CompiledSpec
// per launch, the static-halo hooks
// (reductions from start and chained through on_reduced), the heat
// kernel's serial-oracle differential, strict-lint rejection of defective
// compiled programs, the bounded LRU executor caches, and the fvf_spec
// CLI (in-process).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/assert.hpp"
#include "core/cg_program.hpp"
#include "core/launcher.hpp"
#include "core/linear_stencil.hpp"
#include "core/tpfa_program.hpp"
#include "core/transport_program.hpp"
#include "core/wave_program.hpp"
#include "dataflow/fabric_harness.hpp"
#include "physics/problem.hpp"
#include "serve/cache.hpp"
#include "spec/compile.hpp"
#include "spec/heat.hpp"
#include "spec/launch.hpp"
#include "spec/program.hpp"
#include "tools/fvf_spec_cli.hpp"
#include "wse/memory.hpp"

namespace fvf {
namespace {

// --- spec::compile validation ------------------------------------------------

/// A minimal well-formed switch-protocol spec the negative tests mutate.
spec::StencilSpec valid_switch_spec() {
  spec::StencilSpec s;
  s.name = "unit";
  s.exchange = spec::ExchangeKind::SwitchProtocol;
  s.shape = spec::StencilShape::FivePoint;
  s.block_words_per_cell = 2;
  s.rounds = 1;
  s.claims.cardinal = "unit cardinal";
  s.claims.diagonal = "unit diagonal";
  s.fields = {
      {"cardinal recv buffers", spec::FieldRole::CardinalRecv, 8, 0},
      {"diagonal recv buffers", spec::FieldRole::DiagonalRecv, 8, 0},
  };
  return s;
}

std::string compile_error(spec::StencilSpec s) {
  try {
    (void)spec::compile(std::move(s));
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(SpecCompileTest, AcceptsTheValidSpec) {
  EXPECT_NO_THROW((void)spec::compile(valid_switch_spec()));
}

TEST(SpecCompileTest, NamelessSpecIsRejected) {
  spec::StencilSpec s = valid_switch_spec();
  s.name.clear();
  EXPECT_NE(compile_error(std::move(s)).find("spec has no name"),
            std::string::npos);
}

TEST(SpecCompileTest, ErrorsNameTheSpecAndTheField) {
  // Wrong receive-buffer size: the message must carry the spec name and
  // the offending field's name, never a bare index.
  spec::StencilSpec s = valid_switch_spec();
  s.fields[0].words_per_cell = 4;
  const std::string what = compile_error(std::move(s));
  EXPECT_NE(what.find("spec 'unit'"), std::string::npos) << what;
  EXPECT_NE(what.find("'cardinal recv buffers'"), std::string::npos) << what;

  // Missing receive field: named by its role.
  spec::StencilSpec missing = valid_switch_spec();
  missing.fields.erase(missing.fields.begin());
  const std::string what2 = compile_error(std::move(missing));
  EXPECT_NE(what2.find("cardinal"), std::string::npos) << what2;

  // Duplicate field name: named.
  spec::StencilSpec dup = valid_switch_spec();
  dup.fields.push_back({"cardinal recv buffers", spec::FieldRole::State, 1, 0});
  const std::string what3 = compile_error(std::move(dup));
  EXPECT_NE(what3.find("'cardinal recv buffers'"), std::string::npos) << what3;

  // More fields than a PE records reservations: named with the limit.
  spec::StencilSpec wide = valid_switch_spec();
  while (wide.fields.size() <= wse::PeMemory::kMaxRecords) {
    wide.fields.push_back({"state " + std::to_string(wide.fields.size()),
                           spec::FieldRole::State, 1, 0});
  }
  const std::string what4 = compile_error(std::move(wide));
  EXPECT_NE(what4.find("at most " +
                       std::to_string(wse::PeMemory::kMaxRecords) +
                       " tagged memory reservations"),
            std::string::npos)
      << what4;
}

TEST(SpecCompileTest, DigestIsStructuralAndExcludesRounds) {
  const u64 base = spec::compile(valid_switch_spec()).shape_digest();
  EXPECT_EQ(spec::compile(valid_switch_spec()).shape_digest(), base);

  // Rounds steer the engine, not the lowering: same shape, same digest.
  spec::StencilSpec more_rounds = valid_switch_spec();
  more_rounds.rounds = 7;
  EXPECT_EQ(spec::compile(std::move(more_rounds)).shape_digest(), base);

  // A renamed field is a different memory layout: different digest.
  spec::StencilSpec renamed = valid_switch_spec();
  renamed.fields.push_back({"extra", spec::FieldRole::State, 1, 0});
  EXPECT_NE(spec::compile(std::move(renamed)).shape_digest(), base);
}

TEST(SpecCompileTest, TpfaFootprintMatchesFacadeAccounting) {
  for (const bool reuse : {false, true}) {
    core::TpfaKernelOptions options;
    options.reuse_buffers = reuse;
    const spec::CompiledSpec compiled =
        spec::compile(core::make_tpfa_spec(options));
    for (const i32 nz : {1, 4, 246}) {
      EXPECT_EQ(core::TpfaPeProgram::data_footprint_bytes(nz, reuse),
                compiled.data_footprint_bytes(nz))
          << "nz=" << nz << " reuse=" << reuse;
    }
    EXPECT_EQ(core::TpfaPeProgram::kCodeFootprintBytes,
              compiled.code_footprint_bytes());
  }
}

// --- migrated programs: bit-identity across event-engine threads -------------

void expect_bitwise_equal(const Array3<f32>& a, const Array3<f32>& b,
                          const char* label) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.span().data(), b.span().data(),
                        static_cast<usize>(a.size()) * sizeof(f32)),
            0)
      << label;
}

TEST(SpecThreadIdentityTest, CompiledTpfaBitIdenticalAcrossThreads) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{6, 5, 4}, 42);
  core::DataflowOptions options;
  options.iterations = 3;

  options.execution.threads = 1;
  const core::DataflowResult serial = core::run_dataflow_tpfa(problem, options);
  ASSERT_TRUE(serial.ok());
  for (const i32 threads : {2, 4}) {
    options.execution.threads = threads;
    const core::DataflowResult tiled =
        core::run_dataflow_tpfa(problem, options);
    ASSERT_TRUE(tiled.ok());
    expect_bitwise_equal(serial.pressure, tiled.pressure, "pressure");
    expect_bitwise_equal(serial.residual, tiled.residual, "residual");
  }
}

TEST(SpecThreadIdentityTest, CompiledTransportBitIdenticalAcrossThreads) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{5, 4, 3}, 7);
  const Extents3 ext = problem.extents();
  Array3<f32> saturation(ext);
  saturation.fill(0.2f);
  Array3<f32> well_rate(ext);
  well_rate.fill(0.0f);
  well_rate(0, 0, 0) = 1e-4f;

  core::DataflowTransportOptions options;
  options.kernel.window_seconds = 120.0;
  options.kernel.pore_volume = 1.0f;

  options.execution.threads = 1;
  const core::DataflowTransportResult serial = core::run_dataflow_transport(
      problem, saturation, problem.initial_pressure(), well_rate, options);
  ASSERT_TRUE(serial.ok());
  for (const i32 threads : {2, 4}) {
    options.execution.threads = threads;
    const core::DataflowTransportResult tiled = core::run_dataflow_transport(
        problem, saturation, problem.initial_pressure(), well_rate, options);
    ASSERT_TRUE(tiled.ok());
    EXPECT_EQ(serial.substeps, tiled.substeps);
    expect_bitwise_equal(serial.saturation, tiled.saturation, "saturation");
  }
}

// --- one compiled spec per launch --------------------------------------------

/// Every PE program of the load reads the launch's one CompiledSpec.
template <typename Load>
void expect_one_compiled_spec(const Load& load, const char* kernel) {
  const Coord2 ext = load.harness->extents();
  const spec::CompiledSpec* shared = &load.grid.at(0, 0).compiled();
  for (i32 y = 0; y < ext.y; ++y) {
    for (i32 x = 0; x < ext.x; ++x) {
      EXPECT_EQ(&load.grid.at(x, y).compiled(), shared)
          << kernel << " PE(" << x << ',' << y << ')';
    }
  }
}

TEST(SpecLaunchTest, EveryPeOfALaunchSharesOneCompiledSpec) {
  const physics::FlowProblem problem =
      physics::make_benchmark_problem(Extents3{4, 3, 2}, 7);
  const Extents3 ext = problem.extents();

  expect_one_compiled_spec(
      core::load_dataflow_tpfa(problem, core::DataflowOptions{}), "tpfa");

  const core::LinearStencil implicit =
      core::build_linear_stencil(problem, 86400.0);
  Array3<f32> rhs(ext);
  rhs.fill(1.0f);
  expect_one_compiled_spec(
      core::load_dataflow_cg(implicit, rhs, core::DataflowCgOptions{}), "cg");

  Array3<f32> saturation(ext);
  saturation.fill(0.2f);
  Array3<f32> well_rate(ext);
  well_rate.fill(0.0f);
  core::DataflowTransportOptions transport;
  transport.kernel.window_seconds = 60.0;
  transport.kernel.pore_volume = 1.0f;
  expect_one_compiled_spec(
      core::load_dataflow_transport(problem, saturation,
                                    problem.initial_pressure(), well_rate,
                                    transport),
      "transport");

  const core::LinearStencil explicit_stencil =
      core::build_linear_stencil(problem, 3600.0);
  expect_one_compiled_spec(
      core::load_dataflow_wave(explicit_stencil,
                               core::gaussian_pulse(ext, 1.0, 2.0),
                               core::DataflowWaveOptions{}),
      "wave");

  expect_one_compiled_spec(
      spec::load_dataflow_heat(spec::heat_initial_field(ext, 1),
                               spec::DataflowHeatOptions{}),
      "heat");
}

// --- static-halo hooks: reductions from start and chained ------------------

/// One-word halo, optional SUM reduction; everything else minimal.
spec::StencilSpec probe_spec(bool with_reduction) {
  spec::StencilSpec s;
  s.name = with_reduction ? "probe" : "probe-no-reduction";
  s.exchange = spec::ExchangeKind::StaticHalo;
  s.shape = spec::StencilShape::NinePoint;
  s.block_words_per_cell = 1;
  s.claims.cardinal = "probe halo exchange";
  s.claims.diagonal = "probe halo diagonal forwards";
  s.claims.allreduce = "probe all-reduce";
  s.claims.nack = "probe halo retransmit";
  if (with_reduction) {
    s.reduction = spec::ReductionSpec{wse::ReduceOp::Sum, 1};
  }
  s.fields = {
      {"column", spec::FieldRole::State, 1, 0},
      {"halo buffers", spec::FieldRole::HaloRecv, 8, 0},
      {"code+runtime", spec::FieldRole::Code, 0, 1024},
  };
  return s;
}

/// Where a probe kernel first asks for a reduction.
enum class FirstReduce : u8 { FromStart, FromRound };

/// Reduces a small integer per PE (exact in f32 under any fold order)
/// three times: once from `start` (or from the round, see FirstReduce),
/// then twice more chained through on_reduced, recording every global.
class ProbeKernel final : public spec::StencilKernel {
 public:
  ProbeKernel(Coord2 coord, FirstReduce first)
      : base_(static_cast<f32>(1 + coord.x + 10 * coord.y)), first_(first) {}

  [[nodiscard]] const std::vector<f32>& seen() const noexcept {
    return seen_;
  }
  [[nodiscard]] i32 blocks() const noexcept { return blocks_; }

  [[nodiscard]] spec::RoundOutcome start(wse::PeApi&) override {
    if (first_ == FirstReduce::FromRound) {
      return {spec::RoundAction::Continue, 0.0f};
    }
    return {spec::RoundAction::Reduce, base_};
  }
  [[nodiscard]] std::span<const f32> begin_round(wse::PeApi&) override {
    return column_;
  }
  void on_block(wse::PeApi&, mesh::Face, wse::Dsd) override { ++blocks_; }
  [[nodiscard]] spec::RoundOutcome on_round_complete(wse::PeApi&) override {
    return {spec::RoundAction::Reduce, 2.0f * base_};
  }
  [[nodiscard]] spec::RoundOutcome on_reduced(wse::PeApi&,
                                              f32 value) override {
    seen_.push_back(value);
    switch (seen_.size()) {
      case 1:
        return first_ == FirstReduce::FromStart
                   ? spec::RoundOutcome{spec::RoundAction::Continue, 0.0f}
                   : spec::RoundOutcome{spec::RoundAction::Reduce, 3.0f * base_};
      case 2:
        return {spec::RoundAction::Reduce, 3.0f * base_};
      default:
        return {spec::RoundAction::Done, 0.0f};
    }
  }

 private:
  f32 base_;
  FirstReduce first_;
  std::array<f32, 1> column_{0.0f};
  std::vector<f32> seen_;
  i32 blocks_ = 0;
};

/// The generated program with its probe kernel exposed to the test.
class ProbeProgram final : public spec::SpecPeProgram {
 public:
  ProbeProgram(Coord2 coord, Coord2 fabric_size,
               const spec::LaunchBindings& bindings, FirstReduce first)
      : SpecPeProgram(coord, fabric_size, 1, bindings,
                      std::make_unique<ProbeKernel>(coord, first)) {}

  [[nodiscard]] const ProbeKernel& probe() const noexcept {
    return static_cast<const ProbeKernel&>(*kernel());
  }
};

struct ProbeLoad {
  std::unique_ptr<dataflow::FabricHarness> harness;
  dataflow::ProgramGrid<ProbeProgram> grid;
};

ProbeLoad load_probe(bool with_reduction, FirstReduce first, i32 threads) {
  dataflow::HarnessOptions options;
  options.execution.threads = threads;
  return spec::launch<ProbeLoad>(
      probe_spec(with_reduction), Extents3{3, 2, 1}, options, {},
      [first](Coord2 coord, Coord2 fabric_size,
              const spec::LaunchBindings& bindings) {
        return std::make_unique<ProbeProgram>(coord, fabric_size, bindings,
                                              first);
      });
}

TEST(SpecHookTest, ReducesFromStartAndChainsThroughOnReduced) {
  // PE bases 1 + x + 10y on a 3x2 fabric: 6 * 1 + 2 * (0 + 1 + 2) + 3 * 10.
  constexpr f32 kSum = 42.0f;
  for (const FirstReduce first :
       {FirstReduce::FromStart, FirstReduce::FromRound}) {
    const std::vector<f32> expected =
        first == FirstReduce::FromStart
            ? std::vector<f32>{kSum, 2.0f * kSum, 3.0f * kSum}
            : std::vector<f32>{2.0f * kSum, 3.0f * kSum, 3.0f * kSum};
    for (const i32 threads : {1, 2, 4}) {
      const ProbeLoad load = load_probe(true, first, threads);
      const dataflow::RunInfo info = load.harness->run();
      ASSERT_TRUE(info.ok()) << "threads=" << threads;
      for (i32 y = 0; y < 2; ++y) {
        for (i32 x = 0; x < 3; ++x) {
          const ProbeProgram& program = load.grid.at(x, y);
          EXPECT_EQ(program.probe().seen(), expected)
              << "PE(" << x << ',' << y << ") threads=" << threads;
          EXPECT_EQ(program.completed_rounds(), 1);
          EXPECT_GT(program.probe().blocks(), 0);
        }
      }
    }
  }
}

TEST(SpecHookTest, ReduceWithoutAReductionPhaseNamesTheSpec) {
  for (const FirstReduce first :
       {FirstReduce::FromStart, FirstReduce::FromRound}) {
    const ProbeLoad load = load_probe(false, first, 1);
    try {
      (void)load.harness->run();
      ADD_FAILURE() << "a Reduce on a spec without a reduction must fail";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "spec 'probe-no-reduction': kernel requested a "
                    "reduction but the spec declares no reduction phase"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- heat: the spec-only kernel vs its serial oracle -------------------------

TEST(HeatSpecTest, MatchesHostMirrorBitwiseAcrossThreads) {
  const Extents3 extents{7, 6, 3};
  const Array3<f32> initial = spec::heat_initial_field(extents, 42);
  spec::DataflowHeatOptions options;
  options.kernel.steps = 6;
  const Array3<f32> host = spec::heat_reference_host(initial, options.kernel);

  for (const i32 threads : {1, 2, 4}) {
    options.execution.threads = threads;
    const spec::DataflowHeatResult result =
        spec::run_dataflow_heat(initial, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.steps_completed, options.kernel.steps);
    expect_bitwise_equal(host, result.field, "heat field");
  }
}

TEST(HeatSpecTest, StrictLintPassesOnTheGeneratedProgram) {
  const Array3<f32> initial = spec::heat_initial_field(Extents3{4, 3, 2}, 1);
  spec::DataflowHeatOptions options;
  options.lint = lint::Level::Strict;  // the launch gate raises it anyway
  const spec::HeatLoad load = spec::load_dataflow_heat(initial, options);
  EXPECT_TRUE(load.harness->lint_report().clean());
}

// --- the mandatory strict-lint gate on compiled programs ---------------------

TEST(SpecLintGateTest, DefectiveCompiledProgramFailsStrictLoad) {
  spec::StencilSpec broken = valid_switch_spec();
  broken.name = "defective";
  broken.defects.drop_east_data_handler = true;
  const spec::LaunchBindings bindings{
      std::make_shared<const spec::CompiledSpec>(
          spec::compile(std::move(broken)))};

  dataflow::HarnessOptions options;
  options.lint = lint::Level::Strict;
  dataflow::FabricHarness harness(Coord2{2, 1}, options);
  bindings.compiled->claim_colors(harness.colors(), /*reliability=*/false);
  const auto factory = [&bindings](Coord2 coord, Coord2 fabric_size) {
    return std::make_unique<spec::SpecPeProgram>(coord, fabric_size, 1,
                                                 bindings, nullptr);
  };
  EXPECT_THROW((void)harness.load<spec::SpecPeProgram>(factory),
               ContractViolation);
}

// --- serve executor: bounded LRU caches --------------------------------------

TEST(ServeCacheTest, EvictsLeastRecentlyUsedDeterministically) {
  serve::HashCache<int> cache(2);
  (void)cache.get_or_build(1, [] { return 10; });
  (void)cache.get_or_build(2, [] { return 20; });
  // Touch key 1: key 2 becomes the LRU victim.
  ASSERT_NE(cache.lookup(1), nullptr);
  (void)cache.get_or_build(3, [] { return 30; });

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(2), nullptr) << "LRU entry must be the one evicted";
  ASSERT_NE(cache.lookup(1), nullptr);
  ASSERT_NE(cache.lookup(3), nullptr);
  EXPECT_EQ(*cache.lookup(1), 10);
  EXPECT_EQ(*cache.lookup(3), 30);
}

TEST(ServeCacheTest, RebindingCapacityEvictsDownToTheNewBound) {
  serve::HashCache<int> cache;  // default: unbounded
  for (int k = 0; k < 5; ++k) {
    (void)cache.get_or_build(static_cast<u64>(k), [k] { return k; });
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.set_capacity(1);
  EXPECT_EQ(cache.stats().evictions, 4u);
  ASSERT_NE(cache.lookup(4), nullptr) << "the MRU entry must survive";
  EXPECT_EQ(cache.lookup(0), nullptr);
}

TEST(ServeCacheTest, ZeroCapacityMeansUnbounded) {
  serve::HashCache<int> cache(0);
  for (int k = 0; k < 100; ++k) {
    (void)cache.get_or_build(static_cast<u64>(k), [k] { return k; });
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_NE(cache.lookup(0), nullptr);
}

// --- the fvf_spec CLI (in-process) -------------------------------------------

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run_spec_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "fvf_spec");
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.code = tools::fvf_spec_cli(static_cast<int>(args.size()), args.data(),
                                 out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

TEST(SpecCliTest, ListKernelsShowsTheFullInventory) {
  const CliRun run = run_spec_cli({"--list-kernels"});
  EXPECT_EQ(run.code, 0) << run.err;
  // One line per kernel record: its name, its tag and its summary.
  for (const api::KernelRecord& record : api::kernel_records()) {
    const usize at = run.out.find("  " + std::string(record.name) + " ");
    ASSERT_NE(at, std::string::npos) << run.out;
    const std::string line = run.out.substr(at, run.out.find('\n', at) - at);
    EXPECT_NE(line.find(record.compile != nullptr ? "[spec]" : "[driver]"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find(record.summary), std::string::npos) << line;
  }
  EXPECT_NE(run.out.find("[spec]"), std::string::npos);
  EXPECT_NE(run.out.find("[driver]"), std::string::npos);
  EXPECT_EQ(run.out.find("[legacy]"), std::string::npos) << run.out;
}

TEST(SpecCliTest, DumpPlanPrintsTheLoweringSummary) {
  const CliRun run = run_spec_cli({"--dump-plan", "--program", "tpfa"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("spec 'tpfa'"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("tpfa cardinal exchange"), std::string::npos);
  EXPECT_NE(run.out.find("shape digest"), std::string::npos);
}

TEST(SpecCliTest, LintExitsZeroOnEverySpecKernel) {
  for (const api::KernelRecord& record : api::kernel_records()) {
    if (record.compile == nullptr) {
      continue;
    }
    const std::string name(record.name);
    for (const bool reliability : {false, true}) {
      std::vector<const char*> args = {"--lint", "--program", name.c_str()};
      if (reliability) {
        args.push_back("--reliability");
      }
      const CliRun run = run_spec_cli(args);
      EXPECT_EQ(run.code, 0) << name << ": " << run.out << run.err;
      EXPECT_NE(run.out.find("clean"), std::string::npos) << run.out;
    }
  }
}

TEST(SpecCliTest, UnknownProgramIsRejectedWithTheInventory) {
  const CliRun run = run_spec_cli({"--dump-plan", "--program", "bogus"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("unknown --program 'bogus'"), std::string::npos)
      << run.err;
  EXPECT_NE(run.err.find("heat"), std::string::npos)
      << "rejection must list the registered kernels: " << run.err;
}

TEST(SpecCliTest, DriverKernelHasNoPlanToDump) {
  const CliRun run = run_spec_cli({"--dump-plan", "--program", "impes"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("'impes' is a driver"), std::string::npos)
      << run.err;
  EXPECT_NE(run.err.find("runs cg + transport launches"), std::string::npos)
      << run.err;
}

}  // namespace
}  // namespace fvf
