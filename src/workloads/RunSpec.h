//===- workloads/RunSpec.h - The run spec shared by the CLIs --------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What lbp_prof, lbp_triage, lbp_fleet and bench_simspeed agree on about
/// a run, parsed and built in one place:
///
///   - the engine, spelled `reference | fastpath`: the names
///     Machine::engineName() reports;
///   - the program: `--workload NAME` or a positional `file.c | file.s |
///     -` (Det-C unless the name ends in .s or .asm);
///   - the machine size (`--cores`) and the injected-fault counts
///     (`--drops/--delays/--flips`);
///   - the workload table, which returns a program together with the
///     SimConfig it needs, so every tool runs the same program for the
///     same name and size.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_WORKLOADS_RUNSPEC_H
#define LBP_WORKLOADS_RUNSPEC_H

#include "asm/Program.h"
#include "sim/Config.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace lbp {
namespace workloads {

/// Which engine runs a simulation.
struct EngineSpec {
  enum class Kind : uint8_t { Reference, FastPath };
  Kind K = Kind::FastPath;

  /// Parses `reference` or `fastpath`.
  static std::optional<EngineSpec> parse(std::string_view S);

  /// The spelling parse() accepts for this spec.
  std::string name() const;

  /// Sets the SimConfig knob that selects the engine.
  void applyTo(sim::SimConfig &Cfg) const {
    Cfg.FastPath = K != Kind::Reference;
  }

  bool operator==(const EngineSpec &) const = default;
};

/// The workload names --workload accepts, for usage texts.
inline constexpr const char *WorkloadNames = "phases|matmul|pipeline";

/// Builds workload \p Name for a \p Cores-core machine: its program text
/// and the SimConfig it needs. False with \p Err set on an unknown name
/// or a core count the workload cannot use.
bool buildWorkload(std::string_view Name, unsigned Cores, std::string &Asm,
                   sim::SimConfig &Cfg, std::string &Err);

/// Walks a command line. Each value() call consumes the argument after
/// the current flag and fails when it is missing or malformed; numbers
/// are non-negative (decimal, 0x hex or 0b binary).
class ArgReader {
public:
  ArgReader(int Argc, char **Argv) : Argc(Argc), Argv(Argv) {}

  /// Moves to the next argument; false past the end.
  bool next() { return ++I < Argc; }
  std::string_view arg() const { return Argv[I]; }

  bool value(std::string &Out);
  bool value(uint64_t &Out);
  bool value(unsigned &Out); ///< At most 2^20.
  bool value(EngineSpec &Out);

private:
  int Argc;
  char **Argv;
  int I = 0;
};

/// The run flags the CLIs share.
struct RunSpec {
  std::string Workload; ///< --workload NAME
  std::string File;     ///< Positional file.c | file.s | -
  unsigned Cores = 4;   ///< --cores, 1..64
  EngineSpec Engine;    ///< --engine (default fastpath)
  unsigned Drops = 0, Delays = 0, Flips = 0;

  enum class ArgStatus { NotShared, Taken, Bad };

  /// Consumes the current argument of \p R if it is a shared flag or the
  /// positional program file. \p WithEngine false leaves --engine to the
  /// caller (lbp_triage names an engine per side instead).
  ArgStatus parseArg(ArgReader &R, bool WithEngine = true);

  /// The program's name in reports: the workload or the file.
  const std::string &label() const {
    return Workload.empty() ? File : Workload;
  }

  /// Builds the run: exactly one program source, assembled into \p Prog,
  /// and its config in \p Cfg (the workload's, or SimConfig::lbp(Cores)
  /// for a file) with the engine and fault counts applied. False with
  /// \p Err set on any failure.
  bool load(assembler::Program &Prog, sim::SimConfig &Cfg,
            std::string &Err) const;
};

} // namespace workloads
} // namespace lbp

#endif // LBP_WORKLOADS_RUNSPEC_H
