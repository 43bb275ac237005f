#include "core/cg_program.hpp"

#include <cmath>
#include <memory>

#include "common/assert.hpp"
#include "spec/launch.hpp"

namespace fvf::core {

namespace {

using spec::RoundAction;
using spec::RoundOutcome;
using wse::Dsd;
using wse::PeApi;

RoundOutcome reduce(f32 contribution) {
  return RoundOutcome{RoundAction::Reduce, contribution};
}

}  // namespace

/// The physics half of the CG program. Three sum-reductions drive it:
/// the initial r'r from start(), then per iteration d'q (the alpha step)
/// chained to the new r'r (the beta step, which continues or stops).
class CgKernel final : public spec::StencilKernel {
 public:
  CgKernel(i32 nz, CgKernelOptions options, std::vector<f32> rhs,
           StencilColumns stencil)
      : nz_(nz),
        options_(options),
        b_(std::move(rhs)),
        stencil_(std::move(stencil)) {
    FVF_REQUIRE(nz > 0);
    FVF_REQUIRE(static_cast<i32>(b_.size()) == nz);
    FVF_REQUIRE(static_cast<i32>(stencil_.diag.size()) == nz);
    const usize n = static_cast<usize>(nz);
    x_.assign(n, 0.0f);
    r_.assign(n, 0.0f);
    d_.assign(n, 0.0f);
    q_.assign(n, 0.0f);
    scratch_.assign(n, 0.0f);
  }

  [[nodiscard]] std::span<const f32> solution() const noexcept { return x_; }
  [[nodiscard]] i32 iterations() const noexcept { return iterations_; }
  [[nodiscard]] bool converged() const noexcept { return converged_; }
  [[nodiscard]] f64 initial_residual_norm2() const noexcept { return rho0_; }
  [[nodiscard]] f64 final_residual_norm2() const noexcept { return rho_last_; }

  [[nodiscard]] RoundOutcome start(PeApi& api) override {
    // x = 0, r = b, d = r.
    r_ = b_;
    d_ = r_;
    api.scalar_ops(2 * static_cast<usize>(nz_));
    awaiting_ = Awaiting::InitialRho;
    return reduce(local_dot(api, r_, r_));
  }

  [[nodiscard]] std::span<const f32> begin_round(PeApi& api) override {
    // q = diag .* d plus the vertical terms; the halo round broadcasts d
    // and on_block adds the neighbor terms.
    stencil_.apply_local(api, d_, q_);
    return d_;
  }

  void on_block(PeApi& api, mesh::Face face, Dsd d_nb) override {
    stencil_.apply_face(api, face, d_nb, q_);
  }

  [[nodiscard]] RoundOutcome on_round_complete(PeApi& api) override {
    awaiting_ = Awaiting::DotDq;
    return reduce(local_dot(api, d_, q_));
  }

  [[nodiscard]] RoundOutcome on_reduced(PeApi& api, f32 global) override {
    switch (awaiting_) {
      case Awaiting::InitialRho:
        return initial_rho(global);
      case Awaiting::DotDq:
        return alpha_step(api, global);
      case Awaiting::Rho:
        return beta_step(api, global);
    }
    return RoundOutcome{RoundAction::Done, 0.0f};
  }

 private:
  /// Which reduction result on_reduced receives next.
  enum class Awaiting : u8 { InitialRho, DotDq, Rho };

  [[nodiscard]] static f32 local_dot(PeApi& api, std::span<const f32> a,
                                     std::span<const f32> b) {
    FVF_REQUIRE(a.size() == b.size());
    f32 sum = 0.0f;
    for (usize i = 0; i < a.size(); ++i) {
      sum += a[i] * b[i];
    }
    api.scalar_ops(2 * a.size());
    return sum;
  }

  RoundOutcome initial_rho(f32 global) {
    rho_ = global;
    rho0_ = global;
    rho_last_ = global;
    if (rho0_ <= 0.0 || options_.max_iterations == 0) {
      converged_ = rho0_ <= 0.0;
      return RoundOutcome{RoundAction::Done, 0.0f};
    }
    return RoundOutcome{RoundAction::Continue, 0.0f};
  }

  RoundOutcome alpha_step(PeApi& api, f32 dot_dq) {
    FVF_REQUIRE_MSG(dot_dq != 0.0f, "CG breakdown: d'Ad == 0");
    const f32 alpha = rho_ / dot_dq;
    // x += alpha d ; r -= alpha q
    api.fmuls(Dsd::of(scratch_), Dsd::of(d_), alpha);
    api.fadds(Dsd::of(x_), Dsd::of(x_), Dsd::of(scratch_));
    api.fmuls(Dsd::of(scratch_), Dsd::of(q_), alpha);
    api.fsubs(Dsd::of(r_), Dsd::of(r_), Dsd::of(scratch_));
    awaiting_ = Awaiting::Rho;
    return reduce(local_dot(api, r_, r_));
  }

  RoundOutcome beta_step(PeApi& api, f32 rho) {
    ++iterations_;
    rho_last_ = rho;
    const f32 tol2 = options_.relative_tolerance * options_.relative_tolerance;
    const bool stop = rho <= tol2 * static_cast<f32>(rho0_) ||
                      iterations_ >= options_.max_iterations;
    if (stop) {
      converged_ = rho <= tol2 * static_cast<f32>(rho0_);
      return RoundOutcome{RoundAction::Done, 0.0f};
    }
    const f32 beta = rho / rho_;
    rho_ = rho;
    // d = r + beta d
    api.fmuls(Dsd::of(d_), Dsd::of(d_), beta);
    api.fadds(Dsd::of(d_), Dsd::of(d_), Dsd::of(r_));
    return RoundOutcome{RoundAction::Continue, 0.0f};
  }

  i32 nz_;
  CgKernelOptions options_;

  // CG vectors (per-PE columns).
  std::vector<f32> b_;
  std::vector<f32> x_;
  std::vector<f32> r_;
  std::vector<f32> d_;
  std::vector<f32> q_;
  std::vector<f32> scratch_;
  StencilColumns stencil_;

  Awaiting awaiting_ = Awaiting::InitialRho;
  f32 rho_ = 0.0f;
  f64 rho0_ = 0.0;
  f64 rho_last_ = 0.0;
  i32 iterations_ = 0;
  bool converged_ = false;
};

spec::StencilSpec make_cg_spec(const CgKernelOptions&) {
  spec::StencilSpec s;
  s.name = "cg";
  // The search-direction exchange is symmetric every round, so the
  // Figure 6 role alternation of the switch protocol brings nothing.
  s.exchange = spec::ExchangeKind::StaticHalo;
  s.shape = spec::StencilShape::NinePoint;
  s.block_words_per_cell = 1;  // [d]
  s.claims.cardinal = "cg halo exchange";
  s.claims.diagonal = "cg halo diagonal forwards";
  s.claims.allreduce = "cg dot-product all-reduce";
  s.claims.nack = "cg halo retransmit";
  s.reduction = spec::ReductionSpec{wse::ReduceOp::Sum, 1};
  s.fields = {
      {"b/x/r/d/q/scratch", spec::FieldRole::State, 6, 0},
      {"stencil coefficients", spec::FieldRole::State,
       static_cast<i32>(mesh::kFaceCount), 0},
      {"diagonal shift", spec::FieldRole::State, 1, 0},
      {"halo buffers", spec::FieldRole::HaloRecv, 8, 0},
      {"code+runtime", spec::FieldRole::Code, 0, 4096},
  };
  return s;
}

CgLoad load_dataflow_cg(const LinearStencil& stencil, const Array3<f32>& rhs,
                        const DataflowCgOptions& options) {
  const Extents3 ext = stencil.extents;
  FVF_REQUIRE(rhs.extents() == ext);

  return spec::launch<CgLoad>(
      make_cg_spec(options.kernel), ext, options, options.reliability,
      [&](Coord2 coord, Coord2 fabric_size,
          const spec::LaunchBindings& bindings) {
        std::vector<f32> b(static_cast<usize>(ext.nz));
        for (i32 z = 0; z < ext.nz; ++z) {
          b[static_cast<usize>(z)] = rhs(coord.x, coord.y, z);
        }
        return std::make_unique<CgPeProgram>(
            coord, fabric_size, ext.nz, bindings,
            std::make_unique<CgKernel>(ext.nz, options.kernel, std::move(b),
                                       StencilColumns::of(stencil, coord)));
      });
}

DataflowCgResult run_dataflow_cg(const LinearStencil& stencil,
                                 const Array3<f32>& rhs,
                                 const DataflowCgOptions& options) {
  const Extents3 ext = stencil.extents;
  const CgLoad load = load_dataflow_cg(stencil, rhs, options);

  DataflowCgResult result;
  static_cast<dataflow::RunInfo&>(result) = load.harness->run();
  result.solution = Array3<f32>(ext);
  load.grid.gather(result.solution, [](const CgPeProgram& p) {
    return p.physics().solution();
  });
  const CgKernel& probe = load.grid.at(0, 0).physics();
  result.iterations = probe.iterations();
  result.converged = probe.converged();
  result.initial_residual_norm = std::sqrt(probe.initial_residual_norm2());
  result.final_residual_norm = std::sqrt(probe.final_residual_norm2());
  return result;
}

}  // namespace fvf::core
