//===- perfbench/src/Workloads.h - The benchmark's seeded workloads -------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload turns a seed into inputs, takes its source through the
/// toolchain layers it uses (recording one span per layer call), injects
/// its inputs into a loaded machine and checks every output word against
/// a host-side reference.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_PERFBENCH_WORKLOADS_H
#define LBP_PERFBENCH_WORKLOADS_H

#include "Spans.h"

#include "asm/Program.h"
#include "sim/Config.h"
#include "sim/Machine.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace sim = lbp::sim;

/// Sizes and lint results recorded next to the set-up timings.
struct SourceStats {
  uint64_t SourceBytes = 0; ///< Det-C source text.
  uint64_t AsmBytes = 0;    ///< Assembly text handed to the assembler.
  uint64_t TextWords = 0;
  uint64_t DataBytes = 0;
  uint64_t Affine = 0; ///< Lint certificate access classes, summed
  uint64_t Banked = 0; ///< over the program's parallel regions.
  uint64_t May = 0;
  uint64_t Diags = 0;
};

/// The paper's published figure a workload is compared with, if the
/// paper gives one (workloads without one are reported as unvalidated),
/// and this repository's recorded result for the program
/// (EXPERIMENTS.md), which every run must reproduce exactly.
struct PaperAnchor {
  bool Validated = false;
  const char *Source = "";
  double Cycles = 0;
  double Ipc = 0;
  uint64_t RecordedCycles = 0; ///< 0: no recorded result.
  uint64_t RecordedRetired = 0;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Configuration of every timed and traced run.
  virtual sim::SimConfig config() const = 0;

  /// Source text to assembly text, through the generator or the Det-C
  /// front end. Returns false with \p Err set when a layer rejects it.
  virtual bool buildAsm(Tracer &T, std::string &Asm, SourceStats &St,
                        std::string &Err) = 0;

  /// Writes the seeded inputs into a freshly loaded machine.
  virtual void inject(sim::Machine &, const lbp::assembler::Program &) {}

  /// Checks every output word; \p Why names the first mismatch.
  virtual bool verify(const sim::Machine &M,
                      const lbp::assembler::Program &P,
                      std::string &Why) const = 0;

  /// Address of one output word (the smoke test corrupts it).
  virtual uint32_t outputWord(const lbp::assembler::Program &P) const = 0;

  /// True when the per-iteration report is the obs layer's report.
  virtual bool obsReport() const { return false; }

  /// True when the workload is there to time the parallel engine.
  virtual bool hostParallel() const { return false; }

  virtual PaperAnchor anchor() const { return {}; }
};

/// CPUs this process may run on (what `nproc` prints).
unsigned nprocCount();

/// The workload names: BENCHMARK.json's, then matmul-tiled-c64, which
/// run.py runs on request but the benchmark does not gate on.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name with inputs drawn from \p Seed; \p Tiny
/// selects the smoke-test size. Null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed, bool Tiny);

} // namespace perfbench

#endif // LBP_PERFBENCH_WORKLOADS_H
