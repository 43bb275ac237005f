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
    (void)harness->load<core::TpfaPeProgram>(
        [&](Coord2 coord, Coord2 fabric_size) {
          return std::make_unique<core::TpfaPeProgram>(
              coord, fabric_size, deep.extents(), kernel, fluid,
              core::extract_column(deep, coord.x, coord.y),
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

}  // namespace
}  // namespace fvf::lint
