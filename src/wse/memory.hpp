/// \file memory.hpp
/// \brief Per-PE private memory arena with a hard byte budget.
///
/// Each WSE-2 PE owns 48 KiB of single-level local SRAM holding code,
/// data, and communication buffers. Section 5.3.1 of the paper stresses
/// that minimising per-PE memory is what lets the largest problems fit;
/// this arena enforces the budget and records a tagged breakdown so the
/// memory-reuse ablation can report exactly what was saved.
#pragma once

#include <array>
#include <span>
#include <string_view>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace fvf::wse {

/// One tagged reservation. The tag is borrowed, not copied: it names a
/// field of the program's compiled spec, or is a literal.
struct AllocationRecord {
  std::string_view tag;
  usize bytes = 0;
};

/// Byte budget over a fixed-size private memory. Reservations are
/// permanent for the lifetime of a program (matching the static buffer
/// allocation style of CSL kernels); the *reuse* optimisation is expressed
/// by reserving one buffer and using it for several purposes. The arena
/// only accounts: the data itself lives in the programs' columns.
class PeMemory {
 public:
  /// WSE-2 PEs have 48 KiB of local memory.
  static constexpr usize kDefaultBudget = 48 * 1024;
  /// Tagged reservations one PE can record. The records live inline, so
  /// a PE's arena never allocates; spec::compile rejects a kernel that
  /// declares more fields than this.
  static constexpr usize kMaxRecords = 12;

  explicit PeMemory(usize budget_bytes = kDefaultBudget)
      : budget_(budget_bytes) {}

  /// Reserves bytes for a static buffer or for code/runtime structures.
  /// `tag` must outlive this arena.
  void reserve(usize bytes, std::string_view tag) {
    FVF_REQUIRE_MSG(used_ + bytes <= budget_,
                    "PE memory budget exceeded reserving '"
                        << tag << "': " << used_ + bytes << " > " << budget_);
    FVF_REQUIRE_MSG(record_count_ < kMaxRecords,
                    "more than " << kMaxRecords
                                 << " tagged PE memory reservations ('" << tag
                                 << "')");
    used_ += bytes;
    records_[record_count_++] = AllocationRecord{tag, bytes};
  }

  [[nodiscard]] usize budget() const noexcept { return budget_; }
  [[nodiscard]] usize used() const noexcept { return used_; }
  [[nodiscard]] usize available() const noexcept { return budget_ - used_; }
  [[nodiscard]] std::span<const AllocationRecord> records() const noexcept {
    return {records_.data(), record_count_};
  }

 private:
  usize budget_;
  usize used_ = 0;
  usize record_count_ = 0;
  std::array<AllocationRecord, kMaxRecords> records_{};
};

}  // namespace fvf::wse
