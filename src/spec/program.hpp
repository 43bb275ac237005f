/// \file program.hpp
/// \brief SpecPeProgram — the one PE program: the engine `spec::compile`
///        generates, parameterized by the launch's shared CompiledSpec
///        (the physics arrives as a StencilKernel).
///
/// Every delivery is dispatched straight from the compiled exchange kind:
///
///   - SwitchProtocol: cardinal data and control colors, and the diagonal
///     forwards of a nine-point shape, go to handle_cardinal /
///     handle_control / handle_diagonal — an operation-for-operation port
///     of the hand-written TPFA exchange (Figure 6 roles and routes,
///     Figure 5 diagonal forwarding, the <=1-iteration-ahead receive
///     buffers, the control-triggered phase-2 sends, and the completion
///     gating on the send obligation); the golden traces prove the
///     lowering is faithful;
///   - StaticHalo: the reduction tree's colors go to the AllReduceSum, and
///     halo blocks, NACK retransmit requests and watchdog timers go to the
///     shared HaloExchange, whose round hooks drive the kernel's start /
///     round / reduced hooks (see StencilKernel);
///   - anything else raises a contract violation naming the PE and color.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/halo_exchange.hpp"
#include "spec/compile.hpp"
#include "wse/collectives.hpp"
#include "wse/fabric.hpp"
#include "wse/program.hpp"

namespace fvf::spec {

class SpecPeProgram : public wse::PeProgram {
 public:
  /// Launch-time inputs: the launch's one compiled spec, shared by every
  /// PE program it loads, plus what the ColorPlan handed back after
  /// claiming.
  struct LaunchBindings {
    std::shared_ptr<const CompiledSpec> compiled;
    std::optional<wse::AllReduceColors> reduce{};
    dataflow::HaloReliabilityOptions reliability{};
  };

  /// `kernel` may be null only for programs that are linted but never
  /// run (the defect corpus fixtures).
  SpecPeProgram(Coord2 coord, Coord2 fabric_size, i32 nz,
                const LaunchBindings& bindings,
                std::unique_ptr<StencilKernel> kernel);
  // The halo exchange and reduction callbacks hold `this`.
  SpecPeProgram(const SpecPeProgram&) = delete;
  SpecPeProgram& operator=(const SpecPeProgram&) = delete;

  [[nodiscard]] const CompiledSpec& compiled() const noexcept {
    return *compiled_;
  }
  /// Rounds completed so far (every exchange kind).
  [[nodiscard]] i32 completed_rounds() const noexcept { return round_; }

  /// One-line diagnostic of the engine's communication state (per-color
  /// send/receive/control counters); used by deadlock reports and tests.
  [[nodiscard]] std::string debug_state() const;

  // --- wse::PeProgram ----------------------------------------------------
  void configure_router(wse::Router& router) final;
  /// Reserves the spec's fields in declaration order (Code fields by
  /// bytes, the rest as words_per_cell * Nz floats).
  void reserve_memory(wse::PeMemory& mem) const final;
  /// Reserves the declared footprint, then starts the first phase.
  void on_start(wse::PeApi& api) final;
  void on_data(wse::PeApi& api, wse::Color color, wse::Dir from,
               std::span<const u32> data) final;
  void on_control(wse::PeApi& api, wse::Color color, wse::Dir from) final;
  void on_timer(wse::PeApi& api, u32 tag) final;

  /// Phase classification for the per-phase cycle profiler, mirroring the
  /// dispatch precedence of on_data: switch-protocol colors are Halo,
  /// AllReduce colors are AllReduce, halo-exchange colors are Halo, NACK
  /// blocks and watchdog timers are Reliability.
  [[nodiscard]] obs::Phase task_phase(wse::Color color, bool control,
                                      bool timer) const noexcept final;
  /// Static handler coverage for fvf::lint, mirroring the dispatch
  /// precedence of on_data / on_control exactly.
  [[nodiscard]] bool handles_color(wse::Color color, bool control) const final;
  /// Switch-protocol sends, then the halo exchange's, then the
  /// AllReduce's.
  [[nodiscard]] std::vector<wse::SendDeclaration> send_declarations()
      const final;
  /// Switch-protocol orderings, then the halo exchange's and the
  /// AllReduce's, plus the phase-structure bridge: with both attached,
  /// every all-reduce send waits for the halo round (contribute runs from
  /// the round-complete hook or later).
  [[nodiscard]] std::vector<wse::ChannelDependency> channel_dependencies()
      const final;
  /// Arrival-order folds of the AllReduce, if the spec has a reduction.
  [[nodiscard]] std::vector<wse::ReductionDeclaration>
  reduction_declarations() const final;
  /// Origin note for fvf::lint flow diagnostics: maps a color back to the
  /// StencilSpec field that generates its traffic (exchange, shape,
  /// reduction, reliability binding), so a finding points at the spec
  /// declaration to fix rather than the lowered routing artifact.
  [[nodiscard]] std::string describe_channel(wse::Color color) const final;

 protected:
  [[nodiscard]] StencilKernel* kernel() const noexcept {
    return kernel_.get();
  }

 private:
  struct CardinalState {
    bool phase1_sender = false;  ///< sends at round start
    bool has_upstream = false;   ///< expects data (+control) arrivals
    i32 received = 0;            ///< total data blocks delivered
    i32 processed = 0;           ///< total blocks consumed by the kernel
    i32 controls = 0;            ///< total control wavelets delivered
    i32 sends = 0;               ///< total blocks sent
    bool buffered = false;       ///< unconsumed block in the recv buffer
  };
  struct DiagonalState {
    bool expected = false;  ///< the corner neighbor exists
    i32 received = 0;
    i32 processed = 0;
    bool buffered = false;
  };

  /// Whether the switch-protocol handlers take this delivery: control
  /// and data on the cardinal colors (minus the East data handler the
  /// drop_east_data_handler defect removes), data on the diagonal
  /// forwards of a nine-point shape.
  [[nodiscard]] bool switch_handles(wse::Color color,
                                    bool control) const noexcept;

  // Switch-protocol machinery (Figure 6 port).
  void handle_cardinal(wse::PeApi& api, wse::Color color, wse::Dir from,
                       std::span<const u32> data);
  void handle_diagonal(wse::PeApi& api, wse::Color color, wse::Dir from,
                       std::span<const u32> data);
  void handle_control(wse::PeApi& api, wse::Color color);
  void begin_iteration(wse::PeApi& api);
  void send_block(wse::PeApi& api, wse::Color color);
  void process_cardinal(wse::PeApi& api, wse::Color color);
  void process_diagonal(wse::PeApi& api, wse::Color color);
  void check_completion(wse::PeApi& api);
  void finalize_round(wse::PeApi& api);

  // Static-halo machinery (HaloExchange + reduction driver).
  void start_round(wse::PeApi& api);
  void on_halo_complete(wse::PeApi& api);
  void apply_outcome(wse::PeApi& api, RoundOutcome outcome);

  [[nodiscard]] StencilKernel& require_kernel() const;

  Coord2 coord_;
  std::shared_ptr<const CompiledSpec> compiled_;
  std::unique_ptr<StencilKernel> kernel_;
  i32 nz_ = 0;
  i32 block_len_ = 0;  ///< block_words_per_cell * nz
  bool nine_point_ = false;

  // Static-halo components (StaticHalo specs only).
  std::optional<dataflow::HaloExchange> exchange_;
  std::optional<wse::AllReduceSum> allreduce_;

  // Switch-protocol receive buffers and per-color state.
  std::array<std::vector<f32>, 4> card_buf_;
  std::array<std::vector<f32>, 4> diag_buf_;
  i32 round_ = 0;
  i32 cards_processed_this_round_ = 0;
  i32 diags_processed_this_round_ = 0;
  i32 expected_cards_ = 0;
  i32 expected_diags_ = 0;
  std::array<CardinalState, 4> card_;
  std::array<DiagonalState, 4> diag_;
};

using LaunchBindings = SpecPeProgram::LaunchBindings;

/// The generated program running a kernel of known type, so the launcher
/// can read the kernel's results after the run. Kernel types stay
/// file-local: headers name `KernelProgram<XKernel>` with XKernel
/// forward-declared.
template <typename Kernel>
class KernelProgram final : public SpecPeProgram {
 public:
  KernelProgram(Coord2 coord, Coord2 fabric_size, i32 nz,
                const LaunchBindings& bindings,
                std::unique_ptr<Kernel> kernel)
      : SpecPeProgram(coord, fabric_size, nz, bindings, std::move(kernel)) {}

  [[nodiscard]] const Kernel& physics() const noexcept {
    return static_cast<const Kernel&>(*this->kernel());
  }
};

}  // namespace fvf::spec
