// Fault-path tests of the fvf::serve scenario service: deterministic
// admission-control shedding, clean deadline cancellation (in queue and
// mid-run), checkpoint/restore of interrupted IMPES jobs, and a golden
// file pinning the serialized response of a fixed request corpus.
//
// Every test runs the service in manual mode (workers = 0) with an
// injected clock that advances 10 ms per observation, so queue times,
// deadline expiry points, and shed victims are exact — no sleeps, no
// racing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "serve/request.hpp"
#include "serve/response.hpp"
#include "serve/service.hpp"

namespace fvf::serve {
namespace {

/// A manual-mode service with a deterministic clock: now() jumps 10 ms
/// every time anyone looks at it.
ServiceOptions manual_options() {
  ServiceOptions options;
  options.workers = 0;
  auto fake_now = std::make_shared<f64>(0.0);
  options.now_ms = [fake_now] { return *fake_now += 10.0; };
  return options;
}

std::string tiny(u64 seed, const char* extra = "") {
  return "program=tpfa nx=4 ny=3 nz=2 iterations=1 seed=" +
         std::to_string(seed) + extra;
}

// --- admission control -----------------------------------------------------

TEST(ServeAdmissionTest, OverflowShedsTheIncomingEqualPriorityRequest) {
  ServiceOptions options = manual_options();
  options.queue_capacity = 2;
  ScenarioService service(options);
  const auto first = service.submit_line(tiny(1));
  const auto second = service.submit_line(tiny(2));
  // Same class as everything queued and strictly younger: the incoming
  // request itself is the victim, and the overflow is a recorded
  // response, not an exception.
  const ScenarioResponse shed = service.submit_line(tiny(3)).get();
  EXPECT_EQ(shed.status, RequestStatus::Shed);
  EXPECT_EQ(shed.error, "shed: queue overflow (capacity 2)");

  service.drain();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServeAdmissionTest, InteractiveEvictsTheYoungestBatchJob) {
  ServiceOptions options = manual_options();
  options.queue_capacity = 2;
  ScenarioService service(options);
  const auto old_batch = service.submit_line(tiny(1));
  const auto young_batch = service.submit_line(tiny(2));
  const auto interactive =
      service.submit_line(tiny(3, " priority=interactive"));

  // The eviction resolves the victim's future immediately, before any
  // job runs: youngest of the least-important class loses.
  const ScenarioResponse evicted = young_batch.get();
  EXPECT_EQ(evicted.status, RequestStatus::Shed);
  EXPECT_EQ(evicted.error, "shed: queue overflow (capacity 2)");

  service.drain();
  EXPECT_TRUE(old_batch.get().ok());
  EXPECT_TRUE(interactive.get().ok());
  EXPECT_EQ(service.stats().shed, 1u);
}

TEST(ServeAdmissionTest, BackgroundNeverEvictsBatch) {
  ServiceOptions options = manual_options();
  options.queue_capacity = 1;
  ScenarioService service(options);
  const auto batch = service.submit_line(tiny(1));
  const ScenarioResponse shed =
      service.submit_line(tiny(2, " priority=background")).get();
  EXPECT_EQ(shed.status, RequestStatus::Shed);
  service.drain();
  EXPECT_TRUE(batch.get().ok());
}

TEST(ServeAdmissionTest, InteractiveRunsBeforeOlderBatchAndBackground) {
  ScenarioService service(manual_options());
  const auto background = service.submit_line(tiny(1, " priority=background"));
  const auto batch = service.submit_line(tiny(2));
  const auto interactive =
      service.submit_line(tiny(3, " priority=interactive"));
  service.drain();
  // All three complete; dispatch order shows up in the queue-time the
  // responses report under the +10 ms/observation clock.
  const ScenarioResponse i = interactive.get();
  const ScenarioResponse b = batch.get();
  const ScenarioResponse g = background.get();
  ASSERT_TRUE(i.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(g.ok());
  EXPECT_LT(i.queue_ms, b.queue_ms);
  EXPECT_LT(b.queue_ms, g.queue_ms);
}

TEST(ServeAdmissionTest, ShutdownShedsTheQueueWithARecordedError) {
  ScenarioService service(manual_options());
  const auto queued = service.submit_line(tiny(1));
  service.shutdown();
  const ScenarioResponse response = queued.get();
  EXPECT_EQ(response.status, RequestStatus::Shed);
  EXPECT_EQ(response.error, "service shutdown");
}

// --- deadlines -------------------------------------------------------------

TEST(ServeDeadlineTest, ExpiresInQueueWithRecordedError) {
  // Clock: submit observes t=10 (deadline at 15); dequeue observes t=20,
  // so the job is cancelled before execution with the queue time named.
  ScenarioService service(manual_options());
  const auto future = service.submit_line(tiny(1, " deadline-ms=5"));
  service.drain();
  const ScenarioResponse response = future.get();
  EXPECT_EQ(response.status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(response.error, "deadline (5 ms) expired after 10 ms in queue");
  EXPECT_EQ(response.queue_ms, 10.0);
  EXPECT_EQ(service.stats().deadline_expired, 1u);
  // The deadline must not have reached the executor.
  EXPECT_EQ(service.stats().executor.simulations, 0u);
}

TEST(ServeDeadlineTest, CancelsImpesCleanlyBetweenWindows) {
  // Clock walk: submit t=10 (deadline at 35), dequeue t=20 (< 35, so
  // execution starts), window-1 check t=30 (< 35, keep going), window-2
  // check t=40 (expired). The job must stop at the window boundary with
  // the progress recorded — never an exception, never partial state.
  ScenarioService service(manual_options());
  const auto future = service.submit_line(
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=3 dt=900 deadline-ms=25");
  service.drain();
  const ScenarioResponse response = future.get();
  EXPECT_EQ(response.status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(response.error, "deadline exceeded after 2/3 windows");
  // The two completed windows' fabric accounting is preserved.
  EXPECT_GT(response.info.events_processed, 0u);
  EXPECT_EQ(service.stats().deadline_expired, 1u);
  EXPECT_EQ(service.stats().executor.simulations, 1u);
}

// --- checkpoint/restore ----------------------------------------------------

class ServeCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test, so parallel ctest processes never share
    // checkpoint files.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("fluxwse_serve_ckpt_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] usize checkpoint_files() const {
    usize count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      (void)entry;
      ++count;
    }
    return count;
  }

  std::filesystem::path dir_;
};

TEST_F(ServeCheckpointTest, InterruptedJobResumesToTheIdenticalResult) {
  const std::string scenario =
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=4 dt=900";

  // Reference: the same scenario run cold, uninterrupted, on a fresh
  // service with no checkpointing at all.
  std::string uninterrupted;
  {
    ScenarioService service(manual_options());
    const auto future = service.submit_line(scenario);
    service.drain();
    const ScenarioResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.error;
    uninterrupted = serialize_response(response);
  }

  ServiceOptions options = manual_options();
  options.checkpoint_dir = dir_.string();
  ScenarioService service(options);

  // First attempt: deadline at t=35 expires at the window-2 boundary
  // (same clock walk as CancelsImpesCleanlyBetweenWindows), after the
  // checkpoint at windows_done=2 was written.
  const auto interrupted_future =
      service.submit_line(scenario + " checkpoint-every=2 deadline-ms=25");
  service.drain();
  const ScenarioResponse interrupted = interrupted_future.get();
  EXPECT_EQ(interrupted.status, RequestStatus::DeadlineExpired);
  EXPECT_EQ(interrupted.error,
            "deadline exceeded after 2/4 windows (checkpoint covers the "
            "first 2)");
  EXPECT_EQ(checkpoint_files(), 3u)
      << "meta + saturation + pressure checkpoint files";
  EXPECT_EQ(service.stats().executor.checkpoints_saved, 1u);

  // Second attempt, no deadline: resumes from the checkpoint (2 of 4
  // windows already done), completes, and cleans the checkpoint up.
  const auto resumed_future =
      service.submit_line(scenario + " checkpoint-every=2");
  service.drain();
  const ScenarioResponse resumed = resumed_future.get();
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(service.stats().executor.resumes, 1u);
  EXPECT_EQ(checkpoint_files(), 0u)
      << "a completed job must not leave a stale resume point";

  // The acceptance bar: a restored job's response is byte-identical to
  // the uninterrupted cold run.
  EXPECT_EQ(serialize_response(resumed), uninterrupted);
}

TEST_F(ServeCheckpointTest, CheckpointOfADifferentScenarioIsNeverResumed) {
  // Run scenario A to its window-2 checkpoint, then craft the meta to
  // claim a different canonical content. A resubmit of A must detect the
  // mismatch and start from scratch rather than restore foreign state.
  const std::string scenario =
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=4 dt=900 "
      "checkpoint-every=2";
  ServiceOptions options = manual_options();
  options.checkpoint_dir = dir_.string();
  ScenarioService service(options);
  const auto seeded = service.submit_line(scenario + " deadline-ms=25");
  service.drain();
  EXPECT_EQ(seeded.get().status, RequestStatus::DeadlineExpired);
  ASSERT_EQ(service.stats().executor.checkpoints_saved, 1u);

  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (entry.path().extension() == ".meta") {
      std::ofstream meta(entry.path(), std::ios::binary | std::ios::trunc);
      meta << "canonical=dt=900 fault_rate=0 fault_seed=1 iterations=9 "
              "nx=4 ny=4 nz=3 program=impes seed=7 tol=1.0000000000000001e-05"
           << '\n'
           << "windows_done=2\n";
    }
  }

  const auto retry = service.submit_line(scenario);
  service.drain();
  const ScenarioResponse response = retry.get();
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_FALSE(response.resumed);
  EXPECT_EQ(service.stats().executor.resumes, 0u);
}

TEST_F(ServeCheckpointTest, CorruptMetaCounterFailsNamingItAndIsNotMemoized) {
  // A checkpoint of this exact scenario whose counters were tampered
  // with must not resume: the job fails naming the meta file, the field
  // and the value, and nothing is memoized under the scenario's hash.
  const std::string scenario =
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=4 dt=900 "
      "checkpoint-every=2";
  const std::vector<std::pair<std::string, std::string>> corruptions = {
      {"windows_done=", "-2"},
      {"windows_done=", "4"},
      {"windows_done=", "two"},
      {"cg_iterations_total=", "-1"},
      {"transport_substeps_total=", "-7"},
  };
  for (const auto& [field, value] : corruptions) {
    std::filesystem::remove_all(dir_);
    ServiceOptions options = manual_options();
    options.checkpoint_dir = dir_.string();
    ScenarioService service(options);
    const auto seeded = service.submit_line(scenario + " deadline-ms=25");
    service.drain();
    ASSERT_EQ(seeded.get().status, RequestStatus::DeadlineExpired);

    std::string meta_path;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".meta") {
        meta_path = entry.path().string();
      }
    }
    ASSERT_FALSE(meta_path.empty());
    std::ostringstream rewritten;
    {
      std::ifstream in(meta_path);
      std::string line;
      while (std::getline(in, line)) {
        rewritten << (line.rfind(field, 0) == 0 ? field + value : line)
                  << '\n';
      }
    }
    std::ofstream(meta_path, std::ios::binary | std::ios::trunc)
        << rewritten.str();

    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto retry = service.submit_line(scenario);
      service.drain();
      const ScenarioResponse response = retry.get();
      EXPECT_EQ(response.status, RequestStatus::Failed) << field << value;
      EXPECT_NE(response.error.find("checkpoint meta " + meta_path),
                std::string::npos)
          << response.error;
      const std::string named = field.substr(0, field.size() - 1) + "='" +
                                value + "'";
      EXPECT_NE(response.error.find(named), std::string::npos)
          << response.error;
      EXPECT_FALSE(response.resumed);
    }
    EXPECT_EQ(service.stats().completed, 0u) << field << value;
    EXPECT_EQ(service.stats().memo.hits, 0u) << field << value;
    EXPECT_EQ(service.stats().executor.resumes, 0u) << field << value;
  }
}

// --- response golden -------------------------------------------------------

/// Every kernel on both backends, plus the response paths that carry
/// error text: a fault scenario, strict lint, CG non-convergence, and a
/// fabric failure. Each line runs cold on a fresh manual-mode service.
constexpr const char* kGoldenCorpus[] = {
    "program=tpfa nx=4 ny=4 nz=3 seed=7 iterations=2 backend=wse",
    "program=tpfa nx=4 ny=4 nz=3 seed=7 iterations=2 backend=gpusim",
    "program=cg nx=5 ny=5 nz=4 seed=7 max-iterations=120 tol=1e-4 "
    "backend=wse",
    "program=cg nx=5 ny=5 nz=4 seed=7 max-iterations=120 tol=1e-4 "
    "backend=gpusim",
    "program=transport nx=5 ny=5 nz=4 seed=7 window=600 backend=wse",
    "program=transport nx=5 ny=5 nz=4 seed=7 window=600 backend=gpusim",
    "program=wave nx=5 ny=5 nz=4 seed=7 steps=4 backend=wse",
    "program=wave nx=5 ny=5 nz=4 seed=7 steps=4 backend=gpusim",
    "program=impes nx=4 ny=4 nz=3 seed=7 windows=2 dt=900 backend=wse",
    "program=impes nx=4 ny=4 nz=3 seed=7 windows=2 dt=900 backend=gpusim",
    "program=heat nx=6 ny=5 nz=2 seed=7 backend=wse",
    "program=heat nx=6 ny=5 nz=2 seed=7 backend=gpusim",
    // Defaulted iterations and dt, auto-routed to gpusim.
    "program=transport nx=5 ny=4 nz=3 seed=9 priority=background",
    "program=cg nx=5 ny=5 nz=4 seed=7 iterations=120 tol=1e-4 "
    "fault-seed=3 fault-rate=1e-3",
    // Enough faults to strand blocks: Failed with the fabric's error.
    "program=tpfa nx=4 ny=4 nz=3 seed=7 fault-seed=3 fault-rate=5e-2",
    "program=transport nx=5 ny=5 nz=4 seed=8 window=600 lint=strict",
    "program=cg nx=5 ny=5 nz=4 seed=7 max-iterations=2 backend=wse",
    "program=cg nx=5 ny=5 nz=4 seed=7 max-iterations=2 backend=gpusim",
    // Deadline at t=35 under the manual clock: stops after 2 of 3 windows.
    "program=impes nx=4 ny=4 nz=3 seed=7 windows=3 dt=900 deadline-ms=25",
};

constexpr const char* kResponsesGolden =
    FVF_TEST_DATA_DIR "/serve_responses.golden";

void append_response(std::ostringstream& os, const std::string& line,
                     const ScenarioResponse& response) {
  os << "# " << line << '\n' << serialize_response(response) << '\n';
}

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// --- untrusted numeric fields ----------------------------------------------

/// The message parse_request throws for `line`, or "" if it parses.
std::string rejection(const std::string& line) {
  try {
    (void)parse_request(line);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(ServeInputTest, OutOfRangeFieldsAreRejectedBeforeAnyLaunch) {
  // Each probe used to run: the integers wrapped into a different,
  // valid scenario, and the infinities were accepted. Parsing resolves
  // and validates the request, so a rejection here happens before any
  // fabric or thread exists.
  struct Probe {
    const char* field;
    const char* value;
  };
  for (const Probe& probe : {Probe{"nx", "4294967300"},
                             Probe{"iterations", "4294967298"},
                             Probe{"threads", "1000000"},
                             Probe{"threads", "4294967297"},
                             Probe{"checkpoint_every", "-4294967295"},
                             Probe{"nx", "751"},
                             Probe{"ny", "995"},
                             Probe{"nz", "12289"}}) {
    const std::string message = rejection(
        std::string("program=tpfa nx=4 ny=4 nz=3 ") + probe.field + "=" +
        probe.value);
    EXPECT_NE(message.find(std::string("'") + probe.field + "'"),
              std::string::npos)
        << probe.field << "=" << probe.value << ": " << message;
    EXPECT_NE(message.find(probe.value), std::string::npos)
        << probe.field << "=" << probe.value << ": " << message;
  }
  for (const char* line : {"program=cg nx=4 ny=4 nz=3 dt=inf",
                           "program=wave nx=4 ny=4 nz=3 dt=inf",
                           "program=heat nx=4 ny=4 nz=3 tol=inf",
                           "program=cg nx=4 ny=4 nz=3 tol=nan"}) {
    const std::string message = rejection(line);
    EXPECT_NE(message.find("must be positive and finite"), std::string::npos)
        << line << ": " << message;
  }
  // The largest accepted values still parse.
  EXPECT_EQ(rejection("program=tpfa nx=750 ny=994 nz=12288 threads=256"), "");
}

/// Uses the checkpoint fixture's scratch directory for the resumed job.
class ServeGoldenTest : public ServeCheckpointTest {};

TEST_F(ServeGoldenTest, ResponsesMatchGolden) {
  std::ostringstream actual;
  for (const char* line : kGoldenCorpus) {
    ScenarioService service(manual_options());
    const auto future = service.submit_line(line);
    service.drain();
    append_response(actual, line, future.get());
  }

  // An IMPES job interrupted after its window-2 checkpoint, then resumed.
  const std::string resumable =
      "program=impes nx=4 ny=4 nz=3 seed=7 windows=4 dt=900 "
      "checkpoint-every=2";
  ServiceOptions options = manual_options();
  options.checkpoint_dir = dir_.string();
  ScenarioService service(options);
  for (const std::string& line :
       {resumable + " deadline-ms=25", resumable}) {
    const auto future = service.submit_line(line);
    service.drain();
    append_response(actual, line, future.get());
  }
  ASSERT_EQ(service.stats().executor.resumes, 1u);

  if (std::getenv("FVF_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kResponsesGolden, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kResponsesGolden;
    out << actual.str();
    GTEST_SKIP() << "golden regenerated at " << kResponsesGolden;
  }
  const std::string expected = read_file(kResponsesGolden);
  ASSERT_FALSE(expected.empty())
      << "missing " << kResponsesGolden
      << " — run with FVF_UPDATE_GOLDEN=1 to create it";
  std::istringstream want(expected);
  std::istringstream got(actual.str());
  std::string want_line;
  std::string got_line;
  for (usize n = 1;; ++n) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) {
      break;
    }
    ASSERT_TRUE(more_want == more_got && want_line == got_line)
        << "responses diverge from the golden at line " << n
        << "\n  golden: " << (more_want ? want_line : "<end of file>")
        << "\n  actual: " << (more_got ? got_line : "<end of file>");
  }
}

}  // namespace
}  // namespace fvf::serve
