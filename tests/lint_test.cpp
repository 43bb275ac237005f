// fvf::lint regression suite: golden messages for every diagnostic class
// in the seeded defect corpus, the legacy unclaimed-color contract the
// linter absorbed from the old load-time route audit, clean bills of
// health for the shipped programs, the memory check on a real launch,
// and the fvf_lint CLI (arguments, output, exit codes) driven in-process.
//
// Regenerate the golden messages after an *intentional* wording change
// with
//   FVF_UPDATE_GOLDEN=1 ./build/tests/lint_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
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
#include "lint/defects.hpp"
#include "lint/flow.hpp"
#include "lint/lint.hpp"
#include "physics/problem.hpp"
#include "spec/compile.hpp"
#include "tools/fvf_lint_cli.hpp"
#include "wse/program.hpp"
#include "wse/route.hpp"
#include "wse/router.hpp"

namespace fvf::lint {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Compares `actual` to the golden file, or rewrites the golden when
/// FVF_UPDATE_GOLDEN is set. Returns true in update mode so the caller
/// can GTEST_SKIP once after refreshing every file.
bool check_against_golden(const std::string& path, const std::string& actual) {
  if (std::getenv("FVF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    EXPECT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return true;
  }
  const std::string expected = read_file(path);
  EXPECT_FALSE(expected.empty())
      << "missing golden file " << path
      << " — run with FVF_UPDATE_GOLDEN=1 to create it";
  EXPECT_EQ(actual, expected) << "diagnostic text diverges from " << path;
  return false;
}

// --- defect corpus ----------------------------------------------------------

TEST(LintCorpusTest, GoldenMessagePerDiagnosticClass) {
  // Every diagnostic class has one seeded fixture; its rendered report is
  // pinned verbatim so message regressions (coordinates, color labels,
  // severities, explanations) show up as diffs.
  bool updated = false;
  for (const Defect& defect : defect_corpus()) {
    const Report report = defect.lint();
    const std::string path = std::string(FVF_TEST_DATA_DIR "/lint/") +
                             std::string(defect.name) + ".golden";
    updated = check_against_golden(path, report.describe()) || updated;
  }
  if (updated) {
    GTEST_SKIP() << "golden lint messages regenerated";
  }
}

TEST(LintCorpusTest, EveryFixtureTripsExactlyItsClass) {
  for (const Defect& defect : defect_corpus()) {
    const Report report = defect.lint();
    ASSERT_EQ(report.diagnostics.size(), 1u)
        << defect.name << ":\n" << report.describe();
    const Diagnostic& d = report.diagnostics.front();
    EXPECT_EQ(d.check, defect.expected) << defect.name;
    EXPECT_EQ(check_name(d.check), defect.name);
    // memory-near-limit and order-sensitive-reduction are the advisory
    // (warning) classes; everything else is a hard error.
    const bool advisory =
        defect.expected == Check::MemoryNearLimit ||
        defect.expected == Check::OrderSensitiveReduction;
    EXPECT_EQ(d.severity,
              advisory ? Severity::Warning : Severity::Error)
        << defect.name;
  }
}

// --- legacy route-audit contract --------------------------------------------

constexpr const char* kLegacyAuditText =
    "router at PE(0,0) configures color 0 which no component claimed in "
    "the ColorPlan";

/// Configures color 0 without any ColorPlan claim — the exact condition
/// the pre-lint FabricHarness::audit_routes caught at load time.
class UnclaimedConfigProgram final : public wse::PeProgram {
 public:
  void configure_router(wse::Router& router) override {
    router.configure(wse::Color{0},
                     wse::ColorConfig({wse::position(wse::Dir::Ramp,
                                                     {wse::Dir::East})}));
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}
};

TEST(LintHarnessTest, UnclaimedColorFailsLoadAtEveryLevelWithLegacyText) {
  // The load-time route audit moved into fvf::lint; its fail-fast
  // behaviour and its exact message are load-bearing (tests and users
  // grep for it), so both survive at every lint level — including Off.
  for (const Level level : {Level::Off, Level::Warn, Level::Strict}) {
    dataflow::HarnessOptions options;
    options.lint = level;
    dataflow::FabricHarness harness(Coord2{1, 1}, options);
    try {
      harness.load<UnclaimedConfigProgram>([](Coord2, Coord2) {
        return std::make_unique<UnclaimedConfigProgram>();
      });
      FAIL() << "load must throw on an unclaimed color (level "
             << static_cast<int>(level) << ")";
    } catch (const ContractViolation& e) {
      const std::string message = e.what();
      EXPECT_EQ(message.substr(0, std::string(kLegacyAuditText).size()),
                kLegacyAuditText);
      // The diagnostic still appends the full color map, as the legacy
      // audit did.
      EXPECT_NE(message.find("color map"), std::string::npos) << message;
    }
  }
}

/// Declares a send on a claimed color whose config never accepts the
/// Ramp: a static unrouted-send error, but not an unclaimed color.
class UnroutedSendProgram final : public wse::PeProgram {
 public:
  void configure_router(wse::Router& router) override {
    router.configure(wse::Color{0},
                     wse::ColorConfig({wse::position(wse::Dir::West,
                                                     {wse::Dir::Ramp})}));
  }
  [[nodiscard]] std::vector<wse::SendDeclaration> send_declarations()
      const override {
    return {{wse::Color{0}, false}};
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}
};

TEST(LintHarnessTest, StrictFailsLoadOnErrorFinding) {
  dataflow::HarnessOptions options;
  options.lint = Level::Strict;
  dataflow::FabricHarness harness(Coord2{1, 1}, options);
  harness.colors().claim("lint test color", 0, 1);
  try {
    harness.load<UnroutedSendProgram>([](Coord2, Coord2) {
      return std::make_unique<UnroutedSendProgram>();
    });
    FAIL() << "strict lint must reject the unrouted send";
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("failed static verification"), std::string::npos)
        << message;
    EXPECT_NE(message.find("[unrouted-send]"), std::string::npos) << message;
  }
}

TEST(LintHarnessTest, WarnReportsButLoadsAndOffSkipsChecks) {
  for (const Level level : {Level::Off, Level::Warn}) {
    dataflow::HarnessOptions options;
    options.lint = level;
    dataflow::FabricHarness harness(Coord2{1, 1}, options);
    harness.colors().claim("lint test color", 0, 1);
    // Must not throw: Warn only reports, Off audits claims alone.
    harness.load<UnroutedSendProgram>([](Coord2, Coord2) {
      return std::make_unique<UnroutedSendProgram>();
    });
    // The full report remains available on demand either way.
    const Report report = harness.lint_report();
    EXPECT_EQ(report.error_count(), 1u) << report.describe();
    EXPECT_EQ(report.diagnostics.front().check, Check::UnroutedSend);
  }
}

/// Configures no router and declares nothing: lints clean everywhere.
class IdleProgram final : public wse::PeProgram {
 public:
  void configure_router(wse::Router&) override {}
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}
};

TEST(LintHarnessTest, FailedReloadDropsThePreviousGateReport) {
  for (const Level level : {Level::Warn, Level::Strict}) {
    dataflow::HarnessOptions options;
    options.lint = level;
    dataflow::FabricHarness harness(Coord2{1, 1}, options);
    harness.load<IdleProgram>(
        [](Coord2, Coord2) { return std::make_unique<IdleProgram>(); });
    EXPECT_TRUE(harness.lint_report().clean());
    EXPECT_THROW(harness.load<UnclaimedConfigProgram>([](Coord2, Coord2) {
      return std::make_unique<UnclaimedConfigProgram>();
    }),
                 ContractViolation);
    // The report describes the programs loaded now, not the first gate.
    const Report report = harness.lint_report();
    ASSERT_FALSE(report.diagnostics.empty());
    EXPECT_EQ(report.diagnostics.front().check, Check::UnclaimedColor)
        << report.describe();
  }
}

/// Counts how often lint asks it for each kind of declaration.
struct DeclarationCalls {
  usize sends = 0;
  usize dependencies = 0;
  usize reductions = 0;
};

/// Sends on a claimed color eastward and delivers what arrives from the
/// west: lints clean at every level, and counts its declaration calls.
class CountingProgram final : public wse::PeProgram {
 public:
  explicit CountingProgram(DeclarationCalls& calls) : calls_(calls) {}
  void configure_router(wse::Router& router) override {
    router.configure(
        wse::Color{0},
        wse::ColorConfig({wse::position(
            {wse::RouteRule{wse::Dir::Ramp, {wse::Dir::East}},
             wse::RouteRule{wse::Dir::West, {wse::Dir::Ramp}}})}));
  }
  [[nodiscard]] std::vector<wse::SendDeclaration> send_declarations()
      const override {
    ++calls_.sends;
    return {{wse::Color{0}, false}};
  }
  [[nodiscard]] std::vector<wse::ChannelDependency> channel_dependencies()
      const override {
    ++calls_.dependencies;
    return {};
  }
  [[nodiscard]] std::vector<wse::ReductionDeclaration>
  reduction_declarations() const override {
    ++calls_.reductions;
    return {};
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}

 private:
  DeclarationCalls& calls_;
};

/// Loads CountingProgram on a 3x2 fabric at `level`, then asks for the
/// report `reports` times; returns the declaration calls.
DeclarationCalls count_declaration_calls(Level level, int reports) {
  DeclarationCalls calls;
  dataflow::HarnessOptions options;
  options.lint = level;
  dataflow::FabricHarness harness(Coord2{3, 2}, options);
  harness.colors().claim("lint test color", 0, 1);
  harness.load<CountingProgram>([&](Coord2, Coord2) {
    return std::make_unique<CountingProgram>(calls);
  });
  for (int i = 0; i < reports; ++i) {
    EXPECT_TRUE(harness.lint_report().clean());
  }
  return calls;
}

TEST(LintHarnessTest, OneDeclarationSweepPerLoad) {
  constexpr usize kPes = 6;
  // A Strict gate lints once; lint_report() returns the gate's report.
  const DeclarationCalls strict = count_declaration_calls(Level::Strict, 1);
  EXPECT_EQ(strict.sends, kPes);
  EXPECT_EQ(strict.dependencies, kPes);
  EXPECT_EQ(strict.reductions, kPes);
  // An Off load runs the claim audit alone; lint_report() lints afresh.
  const DeclarationCalls off = count_declaration_calls(Level::Off, 1);
  EXPECT_EQ(off.sends, kPes);
  EXPECT_EQ(off.dependencies, kPes);
  EXPECT_EQ(off.reductions, kPes);
  // An Off load that nobody asks for a report sweeps nothing.
  const DeclarationCalls audit_only = count_declaration_calls(Level::Off, 0);
  EXPECT_EQ(audit_only.sends, 0u);
  EXPECT_EQ(audit_only.dependencies, 0u);
  EXPECT_EQ(audit_only.reductions, 0u);
}

// --- shipped programs lint clean --------------------------------------------

physics::FlowProblem small_problem() {
  physics::ProblemSpec spec;
  spec.extents = Extents3{4, 3, 2};
  spec.spacing = mesh::Spacing3{25.0, 25.0, 4.0};
  spec.geomodel = physics::GeomodelKind::Lognormal;
  spec.seed = 7;
  return physics::FlowProblem(spec);
}

TEST(LintShippedProgramsTest, TpfaLintsClean) {
  const physics::FlowProblem problem = small_problem();
  const core::TpfaLoad load =
      core::load_dataflow_tpfa(problem, core::DataflowOptions{});
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
}

TEST(LintShippedProgramsTest, CgLintsCleanWithAndWithoutReliability) {
  const physics::FlowProblem problem = small_problem();
  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 86400.0);
  Array3<f32> rhs(problem.extents());
  rhs.fill(1.0f);
  for (const bool reliability : {false, true}) {
    core::DataflowCgOptions options;
    options.reliability.enabled = reliability;
    const core::CgLoad load = core::load_dataflow_cg(stencil, rhs, options);
    const Report report = load.harness->lint_report();
    EXPECT_TRUE(report.clean())
        << "reliability=" << reliability << "\n" << report.describe();
  }
}

TEST(LintShippedProgramsTest, TransportLintsClean) {
  const physics::FlowProblem problem = small_problem();
  const Extents3 ext = problem.extents();
  Array3<f32> saturation(ext);
  saturation.fill(0.0f);
  Array3<f32> well_rate(ext);
  well_rate.fill(0.0f);
  core::DataflowTransportOptions options;
  options.kernel.window_seconds = 60.0;
  options.kernel.pore_volume = 1.0f;
  const core::TransportLoad load = core::load_dataflow_transport(
      problem, saturation, problem.initial_pressure(), well_rate, options);
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
}

TEST(LintShippedProgramsTest, WaveLintsClean) {
  const physics::FlowProblem problem = small_problem();
  const core::LinearStencil stencil =
      core::build_linear_stencil(problem, 3600.0);
  const Array3<f32> pulse =
      core::gaussian_pulse(problem.extents(), 1.0, 2.0);
  const core::WaveLoad load =
      core::load_dataflow_wave(stencil, pulse, core::DataflowWaveOptions{});
  const Report report = load.harness->lint_report();
  EXPECT_TRUE(report.clean()) << report.describe();
}

// --- memory lint on a real launch --------------------------------------------

// With buffer reuse, Nz = 246 is the deepest TPFA column that fits the
// default 48 KiB PE memory (the paper's maximum); one cell more must be
// caught by lint before a single event runs.
constexpr i32 kMaxTpfaNz = 246;

physics::FlowProblem tpfa_column_problem(i32 nz) {
  return physics::make_benchmark_problem(Extents3{3, 2, nz}, 7);
}

/// The memory-over-budget messages of `report`.
std::vector<std::string> memory_findings(const Report& report) {
  std::vector<std::string> messages;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.check == Check::MemoryOverBudget) {
      messages.push_back(d.message);
    }
  }
  return messages;
}

TEST(LintMemoryTest, StrictTpfaLoadRejectsAColumnPastTheBudget) {
  core::DataflowOptions options;
  options.lint = Level::Strict;
  const physics::FlowProblem fits = tpfa_column_problem(kMaxTpfaNz);
  const core::TpfaLoad load = core::load_dataflow_tpfa(fits, options);
  const Report report = load.harness->lint_report();
  EXPECT_EQ(report.error_count(), 0u) << report.describe();

  const physics::FlowProblem deep = tpfa_column_problem(kMaxTpfaNz + 1);
  try {
    (void)core::load_dataflow_tpfa(deep, options);
    FAIL() << "strict lint must reject nz=" << kMaxTpfaNz + 1;
  } catch (const ContractViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("[memory-over-budget]"), std::string::npos)
        << message;
    EXPECT_NE(message.find("'scratch columns'"), std::string::npos)
        << message;
  }
}

TEST(LintMemoryTest, LintReportReadsTheLoadedPrograms) {
  const physics::FlowProblem deep = tpfa_column_problem(kMaxTpfaNz + 1);
  core::TpfaKernelOptions kernel;
  const spec::LaunchBindings bindings{
      std::make_shared<const spec::CompiledSpec>(
          spec::compile(core::make_tpfa_spec(kernel)))};
  dataflow::HarnessOptions options;
  options.lint = Level::Off;
  auto harness =
      std::make_unique<dataflow::FabricHarness>(Coord2{3, 2}, options);
  bindings.compiled->claim_colors(harness->colors(), /*reliability=*/false);
  {
    // The factory and everything it captures die before the report.
    const physics::FluidProperties fluid = deep.fluid();
    core::ColumnExtractor columns(deep);
    (void)harness->load<core::TpfaPeProgram>(
        [&](Coord2 coord, Coord2 fabric_size) {
          return std::make_unique<core::TpfaPeProgram>(
              coord, fabric_size, deep.extents(), kernel, fluid,
              columns(coord.x, coord.y),
              bindings.compiled);
        });
  }
  const std::vector<std::string> findings =
      memory_findings(harness->lint_report());
  ASSERT_EQ(findings.size(), 6u) << "one finding per PE";

  // The strict launch of the same problem reports the same finding.
  core::DataflowOptions strict;
  strict.lint = Level::Strict;
  try {
    (void)core::load_dataflow_tpfa(deep, strict);
    FAIL() << "strict lint must reject nz=" << kMaxTpfaNz + 1;
  } catch (const ContractViolation& e) {
    for (const std::string& finding : findings) {
      EXPECT_NE(std::string(e.what()).find(finding), std::string::npos)
          << finding;
    }
  }
}

// --- the fvf_lint CLI, in-process -------------------------------------------

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "fvf_lint");
  std::ostringstream out;
  std::ostringstream err;
  CliRun run;
  run.code = tools::fvf_lint_cli(static_cast<int>(args.size()), args.data(),
                                 out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

TEST(LintCliTest, DefectCorpusExitsZeroWhenAllFixturesFlagged) {
  const CliRun run = run_cli({"--defect-corpus"});
  EXPECT_EQ(run.code, 0) << run.out << run.err;
  EXPECT_NE(run.out.find("defect corpus: all fixtures flagged"),
            std::string::npos)
      << run.out;
}

TEST(LintCliTest, BrokenFixtureExitsOne) {
  // The negative leg CI relies on: a corpus fixture is broken by
  // construction, so linting it must fail.
  const CliRun run = run_cli({"--defect", "dead-end"});
  EXPECT_EQ(run.code, 1) << run.out << run.err;
  EXPECT_NE(run.out.find("[dead-end]"), std::string::npos) << run.out;
}

TEST(LintCliTest, UnknownDefectExitsTwoAndListsCorpus) {
  const CliRun run = run_cli({"--defect", "no-such-defect"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("unknown defect"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("routing-cycle"), std::string::npos) << run.err;
}

TEST(LintCliTest, UnknownProgramOrLevelExitsTwo) {
  EXPECT_EQ(run_cli({"--program", "bogus"}).code, 2);
  EXPECT_EQ(run_cli({"--program", "tpfa", "--lint", "pedantic"}).code, 2);
}

TEST(LintCliTest, JsonDefectCarriesTypedFields) {
  const CliRun run = run_cli({"--defect", "buffer-overflow-possible",
                              "--json"});
  EXPECT_EQ(run.code, 1) << run.out << run.err;
  EXPECT_NE(run.out.find("\"defect\": \"buffer-overflow-possible\""),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("\"check\": \"buffer-overflow-possible\""),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("\"severity\": \"error\""), std::string::npos)
      << run.out;
  // The fixture parks at PE(1,0) on color 0; the declared 96 in-flight
  // blocks are the minimal sufficient depth the analyzer computes.
  EXPECT_NE(run.out.find("\"pe\": {\"x\": 1, \"y\": 0}"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("\"color\": 0"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("\"bound\": 96"), std::string::npos) << run.out;
}

TEST(LintCliTest, JsonProgramModeListsCleanPrograms) {
  const CliRun run = run_cli({"--program", "tpfa", "--nx", "3", "--ny", "3",
                              "--nz", "2", "--json"});
  EXPECT_EQ(run.code, 0) << run.out << run.err;
  EXPECT_NE(run.out.find("{\"programs\": ["), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("\"name\": \"tpfa\", \"errors\": 0, "
                         "\"warnings\": 0, \"diagnostics\": []"),
            std::string::npos)
      << run.out;
}

TEST(LintCliTest, ProgramAllLintsEveryKernelRecord) {
  // fvf_lint takes its inventory from the kernel records: --program all
  // lints exactly the records, in record order, and each is clean.
  std::string expected = "{\"programs\": [";
  for (const api::KernelRecord& record : api::kernel_records()) {
    expected += &record == api::kernel_records().data() ? "\n" : ",\n";
    expected += "  {\"name\": \"" + std::string(record.name) +
                "\", \"errors\": 0, \"warnings\": 0, \"diagnostics\": []}";
  }
  expected += "\n]}\n";
  for (const bool reliability : {false, true}) {
    std::vector<const char*> args = {"--program", "all", "--json"};
    if (reliability) {
      args.push_back("--reliability");
    }
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, expected) << "reliability=" << reliability;
  }
}

TEST(LintCliTest, ShippedProgramsExitZero) {
  const CliRun run = run_cli({"--program", "all", "--nx", "3", "--ny", "3",
                              "--nz", "2"});
  EXPECT_EQ(run.code, 0) << run.out << run.err;
  // All six registry kernels must lint clean under the default strict
  // level — including the flow analyses (buffer bounds, wait-for,
  // determinism), which run as part of the full report.
  for (const char* name :
       {"tpfa", "cg", "transport", "wave", "impes", "heat"}) {
    EXPECT_NE(run.out.find(std::string("program ") + name +
                           " (3x3x2): clean"),
              std::string::npos)
      << name << "\n" << run.out;
  }
}


// --- random-routing differential corpus --------------------------------------

/// SplitMix64: a portable seeded stream. The corpus is pinned byte for
/// byte, and the standard distributions differ between libraries.
class CorpusRng {
 public:
  explicit CorpusRng(u64 seed) : state_(seed) {}
  u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  u32 below(u32 n) { return static_cast<u32>(next() % n); }
  bool chance(u32 percent) { return below(100) < percent; }

 private:
  u64 state_;
};

constexpr wse::Dir kCorpusDirs[] = {wse::Dir::North, wse::Dir::East,
                                    wse::Dir::South, wse::Dir::West,
                                    wse::Dir::Ramp};

/// Everything one PE of a corpus fabric declares.
struct CorpusPe {
  /// Installed in order; a color may appear twice (switch-reconfigured).
  std::vector<std::pair<wse::Color, wse::ColorConfig>> configs;
  std::vector<wse::SendDeclaration> sends;
  std::vector<wse::ChannelDependency> deps;
  std::vector<wse::ReductionDeclaration> reductions;
  u32 unhandled_data = 0;     ///< color bits handles_color(c, false) rejects
  u32 unhandled_control = 0;  ///< color bits handles_color(c, true) rejects
  u32 noted = 0;              ///< color bits describe_channel annotates
  usize memory = 0;
};

class CorpusProgram final : public wse::PeProgram {
 public:
  explicit CorpusProgram(const CorpusPe& pe) : pe_(pe) {}
  void configure_router(wse::Router& router) override {
    for (const auto& [color, config] : pe_.configs) {
      router.configure(color, config);
    }
  }
  void reserve_memory(wse::PeMemory& mem) const override {
    if (pe_.memory != 0) {
      mem.reserve(pe_.memory / 2, "corpus state");
      mem.reserve(pe_.memory - pe_.memory / 2, "corpus scratch");
    }
  }
  [[nodiscard]] bool handles_color(wse::Color color,
                                   bool control) const override {
    const u32 mask = control ? pe_.unhandled_control : pe_.unhandled_data;
    return (mask & (u32{1} << color.id())) == 0;
  }
  [[nodiscard]] std::vector<wse::SendDeclaration> send_declarations()
      const override {
    return pe_.sends;
  }
  [[nodiscard]] std::vector<wse::ChannelDependency> channel_dependencies()
      const override {
    return pe_.deps;
  }
  [[nodiscard]] std::vector<wse::ReductionDeclaration>
  reduction_declarations() const override {
    return pe_.reductions;
  }
  [[nodiscard]] std::string describe_channel(
      wse::Color color) const override {
    if ((pe_.noted & (u32{1} << color.id())) == 0) {
      return {};
    }
    return "declared by corpus field c" + std::to_string(color.id());
  }
  void on_start(wse::PeApi&) override {}
  void on_data(wse::PeApi&, wse::Color, wse::Dir,
               std::span<const u32>) override {}

 private:
  CorpusPe pe_;
};

/// A random switch position. Most rules relay along `bias`: inject from
/// the Ramp, forward what arrives from upstream and deliver it. With
/// `noise` percent, inputs and outputs are arbitrary instead, so cycles,
/// dead ends and parked inputs all occur.
wse::SwitchPosition random_position(CorpusRng& rng, wse::Dir bias,
                                    u32 noise) {
  const wse::Dir upstream = wse::opposite(bias);
  wse::SwitchPosition pos;
  for (const wse::Dir input : kCorpusDirs) {
    const bool relay = input == wse::Dir::Ramp || input == upstream;
    if (!rng.chance(relay ? 92 : noise / 2)) {
      continue;
    }
    wse::RouteRule rule{input, {}};
    const u32 fanout = 1 + rng.below(3);
    for (u32 i = 0; i < fanout; ++i) {
      wse::Dir out = kCorpusDirs[rng.below(5)];
      if (relay && !rng.chance(noise)) {
        out = i == 0 && input == wse::Dir::Ramp ? bias
              : i == 0                          ? wse::Dir::Ramp
                                                : bias;
      }
      if (std::find(rule.outputs.begin(), rule.outputs.end(), out) ==
          rule.outputs.end()) {
        rule.outputs.push_back(out);
      }
    }
    pos.add(rule);
  }
  return pos;
}

wse::ColorConfig random_config(CorpusRng& rng, wse::Dir bias, u32 noise) {
  std::vector<wse::SwitchPosition> positions;
  const u32 count = 1 + rng.below(3);
  for (u32 i = 0; i < count; ++i) {
    positions.push_back(random_position(rng, bias, noise));
  }
  return wse::ColorConfig(positions);
}

struct CorpusCase {
  Coord2 extents{};
  std::vector<CorpusPe> pes;  ///< raster order
  Options options;
};

CorpusCase random_case(u64 seed) {
  CorpusRng rng(seed);
  CorpusCase c;
  c.extents = Coord2{static_cast<i32>(1 + rng.below(7)),
                     static_cast<i32>(1 + rng.below(7))};
  const usize pe_count =
      static_cast<usize>(c.extents.x) * static_cast<usize>(c.extents.y);
  c.pes.resize(pe_count);

  // 1-4 distinct colors anywhere in the id space.
  std::vector<wse::Color> colors;
  const u32 color_count = 1 + rng.below(4);
  while (colors.size() < color_count) {
    const wse::Color color{
        static_cast<u8>(rng.below(wse::Color::kMaxColors))};
    if (std::find(colors.begin(), colors.end(), color) == colors.end()) {
      colors.push_back(color);
    }
  }
  const auto random_color = [&] {
    return colors[rng.below(static_cast<u32>(colors.size()))];
  };
  // A color nothing configures, for sends into the void.
  const auto stray_color = [&] {
    for (;;) {
      const wse::Color color{
          static_cast<u8>(rng.below(wse::Color::kMaxColors))};
      if (std::find(colors.begin(), colors.end(), color) == colors.end()) {
        return color;
      }
    }
  };

  wse::Dir first_bias = wse::Dir::Ramp;
  for (const wse::Color color : colors) {
    // The last color often runs against the first, so that the ordered
    // pair below can form a two-way exchange.
    wse::Dir bias = kCorpusDirs[rng.below(4)];
    if (color == colors.front()) {
      first_bias = bias;
    } else if (color == colors.back() && rng.chance(60)) {
      bias = wse::opposite(first_bias);
    }
    // Most colors install one table everywhere, like the shipped
    // stencils; the rest draw a table per PE. Some leave PEs out.
    const bool uniform = rng.chance(70);
    const u32 noise = rng.chance(65) ? 0 : 25;
    const wse::ColorConfig shared = random_config(rng, bias, noise);
    const u32 coverage = rng.chance(70) ? 100 : 75 + rng.below(25);
    for (CorpusPe& pe : c.pes) {
      if (!rng.chance(coverage)) {
        continue;
      }
      pe.configs.emplace_back(color,
                              uniform ? shared
                                      : random_config(rng, bias, noise));
      if (rng.chance(4)) {
        pe.configs.emplace_back(color, random_config(rng, bias, noise));
      }
    }
  }

  for (CorpusPe& pe : c.pes) {
    if (rng.chance(60)) {
      const u32 sends = 1 + rng.below(3);
      for (u32 i = 0; i < sends; ++i) {
        wse::SendDeclaration send;
        send.color = rng.chance(8) ? stray_color() : random_color();
        send.control = rng.chance(30);
        if (rng.chance(60)) {
          send.in_flight = 1 + rng.below(4);
        }
        pe.sends.push_back(send);
      }
    }
    if (rng.chance(45)) {
      // Mostly one ordered pair of colors, either way round, so that
      // some orderings close a wait cycle. An ordered send is usually
      // also declared.
      const u32 deps = 1 + rng.below(2);
      for (u32 i = 0; i < deps; ++i) {
        const u32 pick = rng.below(5);
        const wse::ChannelDependency dep =
            pick < 2   ? wse::ChannelDependency{colors.front(), colors.back()}
            : pick < 4 ? wse::ChannelDependency{colors.back(), colors.front()}
                       : wse::ChannelDependency{random_color(),
                                                random_color()};
        pe.deps.push_back(dep);
        if (rng.chance(80)) {
          pe.sends.push_back(wse::SendDeclaration{dep.dependent});
        }
      }
    }
    if (rng.chance(25)) {
      wse::ReductionDeclaration red;
      red.colors.push_back(random_color());
      if (rng.chance(40)) {
        red.colors.push_back(random_color());
      }
      red.folds_in_arrival_order = rng.chance(70);
      red.label = "acc" + std::to_string(rng.below(10));
      pe.reductions.push_back(std::move(red));
    }
    if (rng.chance(10)) {
      pe.unhandled_data |= u32{1} << random_color().id();
    }
    if (rng.chance(10)) {
      pe.unhandled_control |= u32{1} << random_color().id();
    }
    if (rng.chance(30)) {
      pe.noted |= u32{1} << random_color().id();
    }
    constexpr usize kSizes[] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 400, 950, 1200};
    pe.memory = kSizes[rng.below(12)];
  }

  Options& options = c.options;
  if (rng.chance(15)) {
    options.check_routing = rng.chance(50);
    options.check_memory = rng.chance(50);
    options.check_reconfiguration = rng.chance(50);
    options.check_flow = rng.chance(50);
  }
  options.router_buffer_depth = rng.chance(30) ? 0 : 1 + rng.below(6);
  options.memory_budget = 1000;
  const u32 unclaimed =
      rng.chance(5) ? u32{1} << random_color().id() : u32{0};
  options.color_claimed = [unclaimed](wse::Color color) {
    return (unclaimed & (u32{1} << color.id())) == 0;
  };
  options.color_map = [] { return std::string("corpus color map"); };
  if (rng.chance(50)) {
    options.color_label = [](wse::Color color) {
      return "color " + std::to_string(color.id()) + " ('corpus')";
    };
  }
  return c;
}

std::string render_corpus_case(u64 seed) {
  const CorpusCase c = random_case(seed);
  wse::Fabric fabric(c.extents.x, c.extents.y);
  fabric.load([&](Coord2 coord, Coord2) {
    return std::make_unique<CorpusProgram>(
        c.pes[static_cast<usize>(coord.y) * static_cast<usize>(c.extents.x) +
              static_cast<usize>(coord.x)]);
  });
  const Report report = run(fabric, c.options);
  std::ostringstream os;
  os << "case " << seed << " (" << c.extents.x << 'x' << c.extents.y
     << ")\n"
     << report.describe();
  for (usize i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    os << "  #" << i << " PE(" << d.pe.x << ',' << d.pe.y << ") color ";
    if (d.color.has_value()) {
      os << static_cast<int>(d.color->id());
    } else {
      os << '-';
    }
    os << " bound ";
    if (d.bound.has_value()) {
      os << *d.bound;
    } else {
      os << '-';
    }
    os << '\n';
  }
  const BufferAnalysis buffers = analyze_buffer_occupancy(fabric);
  os << "  buffers: minimal depth " << buffers.minimal_depth << '\n';
  for (const PeOccupancy& pe : buffers.per_pe) {
    os << "    PE(" << pe.pe.x << ',' << pe.pe.y << ") " << pe.blocks << ':';
    for (const ParkContribution& part : pe.contributions) {
      os << " c" << static_cast<int>(part.color.id()) << '/'
         << static_cast<int>(part.input) << '=' << part.blocks;
    }
    os << '\n';
  }
  return os.str();
}

TEST(LintDifferentialTest, RandomRoutingCorpusMatchesGolden) {
  // Seeded random fabrics: random per-color switch tables (Ramp rules,
  // off-edge outputs, colors installed twice), random data and control
  // sends (some on colors no router configures), channel dependencies
  // and reduction declarations. The rendered verdicts were pinned before
  // the linter was last rewritten; any change in diagnostics, order,
  // text, typed fields or bounds shows up as a diff.
  constexpr u64 kCases = 120;
  std::string actual;
  for (u64 seed = 1; seed <= kCases; ++seed) {
    actual += render_corpus_case(seed);
  }
  if (check_against_golden(FVF_TEST_DATA_DIR "/lint/random_corpus.golden",
                           actual)) {
    GTEST_SKIP() << "random corpus golden regenerated";
  }
}

}  // namespace
}  // namespace fvf::lint
