//===- fleet/FleetMain.cpp - lbp_fleet command-line driver --------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// lbp_fleet: run a campaign of independent simulations across worker
/// processes and emit the canonical aggregate report.
///
///   lbp_fleet [options] [file.c | file.s | -]
///     --workload W         phases | matmul | pipeline (default phases
///                          when no file is given)
///     --cores N            machine size per run (default 4)
///     --runs N             queue length (default 4)
///     --seed-base N        run i uses fault seed N + i (default 1)
///     --drops/--delays/--flips/--stuck N
///                          injected faults per run (default 0)
///     --engine E           reference | fastpath | parallel-tN
///                          (default fastpath; workloads/RunSpec.h)
///     --deadline-cycles N  deterministic per-run deadline
///                          (default 10000000)
///     --workers N          concurrent worker processes (default 4)
///     --max-attempts N     attempts per run before incomplete
///                          (default 2)
///     --checkpoint-interval N
///                          checkpoint every N simulated cycles
///                          (default 0 = off)
///     --checkpoint-dir D   where checkpoints live (default ".")
///     --wall-timeout-ms N  wall-clock watchdog per attempt
///                          (default 0 = off)
///     --inject-crash I     run I's first attempt aborts (CI smoke)
///     --inject-hang I      run I's first attempt hangs (CI smoke)
///     --cross-check LIST   run every queue entry once per engine
///                          (comma list of engine specs, as --engine)
///                          and compare fingerprints within each
///                          group; a mismatch is triaged in-process
///                          (obs/Triage.h) and the report gains a
///                          "divergence_triage" array
///     --perturb N          arm SimConfig::PerturbForTest at cycle N on
///                          every run (seeded divergence for CI)
///     --out FILE           report destination (default stdout)
///     --strict             exit 1 on any non-pass verdict
///
/// Exit status: 0 = campaign complete (and, with --strict, all pass);
/// 1 = degraded report (incomplete verdicts), cross-check divergence,
/// or --strict failure; 2 = usage/input error. The report is written
/// in every case but 2.
///
//===----------------------------------------------------------------------===//

#include "fleet/Fleet.h"

#include "obs/Triage.h"
#include "support/StringUtils.h"
#include "workloads/RunSpec.h"

#include <cstdio>
#include <fstream>

using namespace lbp;
using workloads::EngineSpec;

namespace {

struct Options {
  workloads::RunSpec Run;
  unsigned Runs = 4;
  uint64_t SeedBase = 1;
  unsigned Stuck = 0;
  uint64_t DeadlineCycles = 10000000;
  fleet::FleetConfig FC;
  std::string Out;
  bool Strict = false;
  std::vector<EngineSpec> CrossCheck;
  uint64_t Perturb = 0;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: lbp_fleet [--workload %s] [file.c|file.s|-]\n"
      "  --cores N  --runs N  --seed-base N\n"
      "  --drops N  --delays N  --flips N  --stuck N\n"
      "  --engine reference|fastpath|parallel-tN  --deadline-cycles N\n"
      "  --workers N  --max-attempts N\n"
      "  --checkpoint-interval N  --checkpoint-dir D\n"
      "  --wall-timeout-ms N  --inject-crash I  --inject-hang I\n"
      "  --cross-check ENGINE,ENGINE[,...]  --perturb N\n"
      "  --out FILE  --strict\n"
      "See docs/ROBUSTNESS.md (\"Fleet failure taxonomy\").\n",
      workloads::WorkloadNames);
  return 2;
}

/// Reads a comma list of engine specs; a cross-check needs at least two.
bool crossCheckValue(workloads::ArgReader &R, std::vector<EngineSpec> &Out) {
  std::string List;
  if (!R.value(List))
    return false;
  for (std::string_view Item : split(List, ',')) {
    std::optional<EngineSpec> E = EngineSpec::parse(Item);
    if (!E)
      return false;
    Out.push_back(*E);
  }
  return Out.size() >= 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  workloads::ArgReader R(Argc, Argv);
  while (R.next()) {
    std::string_view A = R.arg();
    auto S = O.Run.parseArg(R);
    if (S != workloads::RunSpec::ArgStatus::NotShared) {
      if (S == workloads::RunSpec::ArgStatus::Bad)
        return false;
      continue;
    }
    unsigned Run = 0;
    bool Ok = true;
    if (A == "--cross-check")
      Ok = crossCheckValue(R, O.CrossCheck);
    else if (A == "--checkpoint-dir")
      Ok = R.value(O.FC.CheckpointDir);
    else if (A == "--out")
      Ok = R.value(O.Out);
    else if (A == "--strict")
      O.Strict = true;
    else if (A == "--runs")
      Ok = R.value(O.Runs);
    else if (A == "--seed-base")
      Ok = R.value(O.SeedBase);
    else if (A == "--stuck")
      Ok = R.value(O.Stuck);
    else if (A == "--deadline-cycles")
      Ok = R.value(O.DeadlineCycles);
    else if (A == "--perturb")
      Ok = R.value(O.Perturb);
    else if (A == "--workers")
      Ok = R.value(O.FC.Workers);
    else if (A == "--max-attempts")
      Ok = R.value(O.FC.MaxAttempts);
    else if (A == "--checkpoint-interval")
      Ok = R.value(O.FC.CheckpointInterval);
    else if (A == "--wall-timeout-ms")
      Ok = R.value(O.FC.WallTimeoutMs);
    else if (A == "--inject-crash") {
      Ok = R.value(Run);
      O.FC.InjectCrashRun = static_cast<int>(Run);
    } else if (A == "--inject-hang") {
      Ok = R.value(Run);
      O.FC.InjectHangRun = static_cast<int>(Run);
    } else
      return false;
    if (!Ok)
      return false;
  }
  if (O.Run.Workload.empty() && O.Run.File.empty())
    O.Run.Workload = "phases";
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage();

  // One shared read-only image; the workers inherit it copy-on-write.
  std::vector<assembler::Program> Images(1);
  sim::SimConfig Cfg;
  std::string Err;
  if (!O.Run.load(Images[0], Cfg, Err)) {
    std::fprintf(stderr, "lbp_fleet: %s\n", Err.c_str());
    return 2;
  }

  // The engine list; a plain campaign is the degenerate single-engine
  // case with the --engine configuration.
  std::vector<EngineSpec> Variants = O.CrossCheck;
  if (Variants.empty())
    Variants.push_back(O.Run.Engine);

  // Queue order is group-major: every variant of seed i before any of
  // seed i+1, so the report reads as consecutive comparable groups.
  std::vector<fleet::RunSpec> Specs;
  for (unsigned I = 0; I != O.Runs; ++I) {
    for (const EngineSpec &V : Variants) {
      fleet::RunSpec S;
      uint64_t Seed = O.SeedBase + I;
      S.Name = O.Run.label() + "-seed" + std::to_string(Seed);
      if (!O.CrossCheck.empty())
        S.Name.append(":").append(V.name());
      S.Cfg = Cfg;
      V.applyTo(S.Cfg);
      S.Cfg.PerturbForTest = O.Perturb;
      S.Cfg.Faults.Seed = Seed;
      S.Cfg.Faults.StuckBanks = O.Stuck;
      S.DeadlineCycles = O.DeadlineCycles;
      Specs.push_back(std::move(S));
    }
  }

  fleet::CampaignResult Result =
      fleet::runCampaign(Images, Specs, O.FC);

  // Cross-check: compare fingerprints within each group and triage
  // every mismatching pair in-process against the group's first
  // completed run. Reports are canonical, so the campaign JSON stays
  // byte-identical across repeat invocations.
  bool Diverged = false;
  std::string Extra;
  if (Variants.size() > 1) {
    std::string Reports;
    size_t G = Variants.size();
    for (size_t Base = 0; Base + G <= Result.Runs.size(); Base += G) {
      size_t Ref = Base;
      while (Ref != Base + G &&
             Result.Runs[Ref].V == fleet::Verdict::Incomplete)
        ++Ref;
      if (Ref == Base + G)
        continue; // nothing in this group completed
      for (size_t I = Ref + 1; I != Base + G; ++I) {
        const fleet::RunResult &A = Result.Runs[Ref];
        const fleet::RunResult &B = Result.Runs[I];
        if (B.V == fleet::Verdict::Incomplete)
          continue;
        if (A.Status == B.Status && A.Cycles == B.Cycles &&
            A.TraceHash == B.TraceHash)
          continue;
        Diverged = true;
        obs::TriageRunSpec SA{A.Name, Specs[Ref].Cfg};
        obs::TriageRunSpec SB{B.Name, Specs[I].Cfg};
        obs::TriageOptions TOpts;
        TOpts.MaxCycles = O.DeadlineCycles;
        obs::TriageResult TR =
            obs::triageDivergence(Images[0], SA, SB, TOpts);
        if (!Reports.empty())
          Reports += ",\n    ";
        Reports += obs::triageReportToJson(TR, O.Run.label());
      }
    }
    Extra = formatString("  \"divergence_triage\": [%s],\n",
                         Reports.empty()
                             ? ""
                             : ("\n    " + Reports + "\n  ").c_str());
  }
  std::string Json = fleet::campaignToJson(Result, Extra);

  if (O.Out.empty()) {
    std::fwrite(Json.data(), 1, Json.size(), stdout);
  } else {
    std::ofstream Out(O.Out, std::ios::trunc);
    if (!Out) {
      std::fprintf(stderr, "lbp_fleet: cannot write '%s'\n",
                   O.Out.c_str());
      return 2;
    }
    Out << Json;
  }

  if (Diverged) {
    std::fprintf(stderr, "lbp_fleet: cross-check divergence; see "
                         "\"divergence_triage\" in the report\n");
    return 1;
  }
  if (!Result.Complete)
    return 1;
  if (O.Strict)
    for (const fleet::RunResult &Run : Result.Runs)
      if (Run.V != fleet::Verdict::Pass)
        return 1;
  return 0;
}
