// Reproduces Table 4 of the paper: per-cell instruction and memory-access
// counts on the dataflow implementation. The counts come from the actual
// per-PE instruction counters of the WSE simulator while the real kernel
// executes — not from a hand-written table. An interior PE's totals are
// normalized per interior cell (all ten faces present).
#include "bench/bench_common.hpp"
#include "core/tpfa_program.hpp"
#include "wse/fabric.hpp"

namespace fvf::bench {
namespace {

int run(int argc, const char** argv) {
  const CliParser cli(argc, argv);
  BenchJsonWriter json("table4_instruction_counts", cli);
  const i32 nz = static_cast<i32>(cli.get_int("nz", 16));

  print_header("Table 4 reproduction: instruction & memory counts per cell");
  const Extents3 ext{3, 3, nz};
  const physics::FlowProblem problem = physics::make_benchmark_problem(ext, 42);

  wse::Fabric fabric(3, 3);
  core::TpfaKernelOptions kernel;
  kernel.iterations = 1;
  std::vector<core::TpfaPeProgram*> programs(9, nullptr);
  const auto compiled = std::make_shared<const spec::CompiledSpec>(
      spec::compile(core::make_tpfa_spec(kernel)));
  core::ColumnExtractor columns(problem);
  fabric.load([&](Coord2 coord, Coord2 fabric_size) {
    auto program = std::make_unique<core::TpfaPeProgram>(
        coord, fabric_size, ext, kernel, problem.fluid(),
        columns(coord.x, coord.y), compiled);
    programs[static_cast<usize>(coord.y) * 3 + static_cast<usize>(coord.x)] =
        program.get();
    return program;
  });
  const wse::RunReport report = fabric.run();
  if (!report.ok()) {
    std::cerr << "run failed: " << report.errors[0] << '\n';
    return 1;
  }

  // Interior PE (1,1): XY faces are length-nz vector ops, the two Z faces
  // length nz-1. Normalizing by the per-face element count and scaling by
  // ten faces yields exact per-interior-cell numbers.
  const wse::PeCounters& c = fabric.pe(1, 1).counters();
  const f64 face_elements = 8.0 * nz + 2.0 * (nz - 1);
  const f64 per_face = face_elements / 10.0;

  struct Row {
    const char* op;
    u64 count;
    int flop;
    int loads;
    int stores;
    int fabric;
    int paper_count;
  };
  const Row rows[] = {
      {"FMUL", c.fmul, 1, 2, 1, 0, 60}, {"FSUB", c.fsub, 1, 2, 1, 0, 40},
      {"FNEG", c.fneg, 1, 1, 1, 0, 10}, {"FADD", c.fadd, 1, 2, 1, 0, 10},
      {"FMA", c.fma, 2, 3, 1, 0, 10},   {"FMOV", c.fmov, 0, 0, 1, 1, 16},
  };

  TextTable table({"Operation", "per cell", "FLOP", "Mem. traffic",
                   "Fabric traffic", "paper per cell"});
  f64 total_flops = 0.0;
  f64 total_mem = 0.0;
  f64 total_fabric = 0.0;
  for (const Row& row : rows) {
    // FMOV is per-cell (16 = 8 neighbors x 2 values); FP ops are per face
    // element.
    const f64 per_cell = (row.fabric > 0)
                             ? static_cast<f64>(row.count) / nz
                             : static_cast<f64>(row.count) / per_face;
    total_flops += per_cell * row.flop;
    total_mem += per_cell * (row.loads + row.stores);
    total_fabric += per_cell * row.fabric;
    table.add_row({row.op, format_fixed(per_cell, 0),
                   std::to_string(row.flop),
                   std::to_string(row.loads) + " loads, " +
                       std::to_string(row.stores) + " store",
                   std::to_string(row.fabric) + (row.fabric ? " load" : ""),
                   std::to_string(row.paper_count)});
  }
  std::cout << table.render();

  std::cout << "Totals per interior cell: " << format_fixed(total_flops, 0)
            << " FLOPs (paper: 140), " << format_fixed(total_mem, 0)
            << " memory accesses (paper: 406), "
            << format_fixed(total_fabric, 0)
            << " fabric loads (paper: 16)\n";
  std::cout << "Arithmetic intensity: "
            << format_fixed(total_flops / (4.0 * total_mem), 4)
            << " FLOP/B vs memory (paper: 0.0862), "
            << format_fixed(total_flops / (4.0 * total_fabric), 4)
            << " FLOP/B vs fabric (paper: 2.1875)\n";
  std::cout << "(EOS exponentials and the pressure advance are counted "
               "separately as scalar ops: "
            << c.scalar_misc << " on the probed PE; the paper's table "
            << "omits them.)\n";

  BenchJsonCase& measured = json.add_case("interior_pe_3x3");
  measured.cycles = report.makespan_cycles;
  measured.device_seconds = wse::FabricTimings{}.seconds(report.makespan_cycles);
  measured.counters = c;
  json.add_metric("nz", static_cast<f64>(nz));
  json.add_metric("flops_per_cell", total_flops);
  json.add_metric("mem_accesses_per_cell", total_mem);
  json.add_metric("fabric_loads_per_cell", total_fabric);

  const bool exact =
      static_cast<u64>(total_flops + 0.5) == 140u &&
      static_cast<u64>(total_mem + 0.5) == 406u &&
      static_cast<u64>(total_fabric + 0.5) == 16u;
  std::cout << (exact ? "EXACT match with Table 4.\n"
                      : "MISMATCH with Table 4!\n");
  return exact ? 0 : 1;
}

}  // namespace
}  // namespace fvf::bench

int main(int argc, const char** argv) { return fvf::bench::run(argc, argv); }
