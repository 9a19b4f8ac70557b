//===- obs/TriageMain.cpp - lbp_triage driver ---------------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lbp_triage command-line divergence triager
/// (docs/OBSERVABILITY.md "Divergence triage"): runs one program under
/// two configurations, bisects their interval-digest sequences to the
/// last agreeing boundary, replays both sides from a snapshot anchored
/// there, and reports the first divergent trace event as a canonical
/// lbp-triage-report-v1 JSON document.
///
///   lbp_triage [options] file.c | file.s | -
///     --workload NAME      phases | matmul | pipeline (instead of a file)
///     --cores N            machine size (default 4)
///     --side-a SPEC        engine spec: reference | fastpath |
///     --side-b SPEC        parallel-tN   (workloads/RunSpec.h; defaults:
///                          side-a reference, side-b fastpath)
///     --seed-a N           per-side fault-plan seed (with --drops /
///     --seed-b N           --delays / --flips event counts)
///     --drops N  --delays N  --flips N
///     --perturb N          arm SimConfig::PerturbForTest at cycle N on
///                          both sides (seeded divergence for tests)
///     --digest-interval N  digest stride (default 4096)
///     --context K          events of context around the divergence
///                          (default 8)
///     --max-cycles N       cycle budget (default 20000000)
///     --oversubscribe      don't clamp worker counts to the host
///     --out FILE           write the report there instead of stdout
///
/// Exit status: 0 = no divergence, 1 = divergence reported,
/// 2 = usage/input error, 3 = triage failure (snapshot refused, ...).
///
//===----------------------------------------------------------------------===//

#include "obs/Triage.h"
#include "workloads/RunSpec.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace lbp;
using workloads::EngineSpec;

namespace {

struct Options {
  workloads::RunSpec Run;
  std::string Out;
  EngineSpec SideA{EngineSpec::Kind::Reference};
  EngineSpec SideB{EngineSpec::Kind::FastPath};
  uint64_t SeedA = 0, SeedB = 0;
  uint64_t Perturb = 0;
  uint64_t DigestInterval = 4096;
  unsigned Context = 8;
  uint64_t MaxCycles = 20000000;
  bool Oversubscribe = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: lbp_triage [options] file.c|file.s|-\n"
      "       lbp_triage [options] --workload %s\n"
      "  --cores N  --side-a SPEC  --side-b SPEC   (SPEC = reference | "
      "fastpath | parallel-tN)\n"
      "  --seed-a N  --seed-b N  --drops N  --delays N  --flips N\n"
      "  --perturb N  --digest-interval N  --context K  --max-cycles N\n"
      "  --oversubscribe  --out FILE\n"
      "See docs/OBSERVABILITY.md, \"Divergence triage\".\n",
      workloads::WorkloadNames);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  workloads::ArgReader R(Argc, Argv);
  while (R.next()) {
    std::string_view A = R.arg();
    auto S = Opts.Run.parseArg(R, /*WithEngine=*/false);
    if (S == workloads::RunSpec::ArgStatus::Bad)
      return usage();
    if (S == workloads::RunSpec::ArgStatus::Taken)
      continue;
    bool Ok = true;
    if (A == "--side-a") {
      Ok = R.value(Opts.SideA);
    } else if (A == "--side-b") {
      Ok = R.value(Opts.SideB);
    } else if (A == "--seed-a") {
      Ok = R.value(Opts.SeedA);
    } else if (A == "--seed-b") {
      Ok = R.value(Opts.SeedB);
    } else if (A == "--perturb") {
      Ok = R.value(Opts.Perturb);
    } else if (A == "--digest-interval") {
      Ok = R.value(Opts.DigestInterval) && Opts.DigestInterval != 0;
    } else if (A == "--context") {
      Ok = R.value(Opts.Context);
    } else if (A == "--max-cycles") {
      Ok = R.value(Opts.MaxCycles);
    } else if (A == "--oversubscribe") {
      Opts.Oversubscribe = true;
    } else if (A == "--out") {
      Ok = R.value(Opts.Out);
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "lbp_triage: unknown option '%s'\n",
                   std::string(A).c_str());
      Ok = false;
    }
    if (!Ok)
      return usage();
  }

  assembler::Program Prog;
  sim::SimConfig Base;
  std::string Err;
  if (!Opts.Run.load(Prog, Base, Err)) {
    std::fprintf(stderr, "lbp_triage: %s\n", Err.c_str());
    return 2;
  }
  Base.OversubscribeHost = Opts.Oversubscribe;
  Base.DigestInterval = Opts.DigestInterval;
  Base.PerturbForTest = Opts.Perturb;

  obs::TriageRunSpec A{Opts.SideA.name(), Base}, B{Opts.SideB.name(), Base};
  Opts.SideA.applyTo(A.Cfg);
  Opts.SideB.applyTo(B.Cfg);
  A.Cfg.Faults.Seed = Opts.SeedA;
  B.Cfg.Faults.Seed = Opts.SeedB;

  obs::TriageOptions TOpts;
  TOpts.ContextEvents = Opts.Context;
  TOpts.MaxCycles = Opts.MaxCycles;
  obs::TriageResult TR = obs::triageDivergence(Prog, A, B, TOpts);

  std::string Report =
      obs::triageReportToJson(TR, Opts.Run.label()) + "\n";
  if (!Opts.Out.empty()) {
    std::ofstream OutFile(Opts.Out);
    if (!OutFile) {
      std::fprintf(stderr, "lbp_triage: cannot open '%s'\n",
                   Opts.Out.c_str());
      return 2;
    }
    OutFile << Report;
  } else {
    std::fputs(Report.c_str(), stdout);
  }

  if (!TR.Ran) {
    std::fprintf(stderr, "lbp_triage: %s\n", TR.Error.c_str());
    return 3;
  }
  return TR.Diverged ? 1 : 0;
}
