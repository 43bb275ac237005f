#include "spec/launch.hpp"

#include <mutex>
#include <unordered_set>

namespace fvf::spec {

namespace {

u64 shape_key(const CompiledSpec& compiled, Coord2 extents, i32 nz,
              const dataflow::HarnessOptions& options,
              bool reliability_enabled) {
  // FNV-style mix over everything that changes what the linter sees.
  u64 h = compiled.shape_digest();
  const auto mix = [&h](u64 v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(static_cast<u64>(extents.x));
  mix(static_cast<u64>(extents.y));
  mix(static_cast<u64>(nz));
  mix(options.pe_memory_budget);
  mix(reliability_enabled ? 1u : 0u);
  return h;
}

std::mutex& memo_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_set<u64>& memo() {
  static std::unordered_set<u64> passes;
  return passes;
}

/// `base` with lint raised to Strict unless this exact program shape
/// already passed strict lint in this process (a stricter base level is
/// never lowered).
dataflow::HarnessOptions verified_options(const CompiledSpec& compiled,
                                          Coord2 extents, i32 nz,
                                          const dataflow::HarnessOptions& base,
                                          bool reliability_enabled) {
  dataflow::HarnessOptions options = base;
  if (options.lint == lint::Level::Strict) {
    return options;
  }
  const u64 key =
      shape_key(compiled, extents, nz, base, reliability_enabled);
  const std::lock_guard<std::mutex> lock(memo_mutex());
  if (memo().count(key) == 0) {
    options.lint = lint::Level::Strict;
  }
  return options;
}

/// Records a successful strict-lint pass for the shape.
void record_verified(const CompiledSpec& compiled, Coord2 extents, i32 nz,
                     const dataflow::HarnessOptions& effective,
                     bool reliability_enabled) {
  if (effective.lint != lint::Level::Strict) {
    return;
  }
  const u64 key =
      shape_key(compiled, extents, nz, effective, reliability_enabled);
  const std::lock_guard<std::mutex> lock(memo_mutex());
  memo().insert(key);
}

}  // namespace

std::unique_ptr<dataflow::FabricHarness> launch_harness(
    StencilSpec spec, Extents3 extents, const dataflow::HarnessOptions& options,
    dataflow::HaloReliabilityOptions reliability, const LoadFn& load) {
  if (spec.exchange != ExchangeKind::StaticHalo) {
    reliability.enabled = false;
  } else if (options.execution.fault.bit_flip_rate > 0.0) {
    // Bit flips make the fabric drop corrupted blocks; the implicit-FIFO
    // halo protocol cannot survive a drop, so the ack/retransmit layer
    // is mandatory for such scenarios.
    reliability.enabled = true;
  }

  const auto compiled =
      std::make_shared<const CompiledSpec>(compile(std::move(spec)));
  const Coord2 fabric{extents.nx, extents.ny};
  const dataflow::HarnessOptions effective = verified_options(
      *compiled, fabric, extents.nz, options, reliability.enabled);

  auto harness = std::make_unique<dataflow::FabricHarness>(fabric, effective);
  const CompiledSpec::Claims claims =
      compiled->claim_colors(harness->colors(), reliability.enabled);
  load(*harness, LaunchBindings{compiled, claims.reduce, reliability});
  record_verified(*compiled, fabric, extents.nz, effective,
                  reliability.enabled);
  return harness;
}

}  // namespace fvf::spec
