//===- obs/ProfMain.cpp - lbp_prof driver -------------------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lbp_prof command-line profiler (docs/OBSERVABILITY.md): loads a
/// program (Det-C source, LBP assembly, or a built-in workload), runs it
/// under a chosen engine and configuration with the deterministic
/// counters on, and reports.
///
///   lbp_prof [options] file.c | file.s | -
///     --workload NAME      phases | matmul | pipeline (instead of a file)
///     --cores N            machine size (default 4)
///     --engine E           reference | fastpath
///                          (default fastpath; workloads/RunSpec.h)
///     --max-cycles N       cycle budget (default 100000000)
///     --seed N             fault-plan seed; --drops/--delays/
///     --drops N            --flips add that many injected faults
///     --delays N
///     --flips N
///     --no-stalls          skip the stall-cause classification
///     --top N              rows in the "hottest" tables (default 8)
///     --perfetto OUT.json  write a Chrome/Perfetto timeline
///     --jsonl OUT.jsonl    write the raw event stream as JSON lines
///     --counters OUT.json  write the canonical counter snapshot
///     --digests            print the interval-digest ring (newest
///                          entries of the running trace-hash chain;
///                          docs/OBSERVABILITY.md "Divergence triage")
///     --digest-interval N  override the digest stride (0 disables)
///
/// Exit status: 0 = run exited cleanly, 1 = run failed (fault, livelock,
/// cycle budget), 2 = usage/input error.
///
//===----------------------------------------------------------------------===//

#include "obs/Perfetto.h"
#include "obs/Report.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"
#include "workloads/RunSpec.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

using namespace lbp;

namespace {

struct Options {
  workloads::RunSpec Run;
  std::string PerfettoOut;
  std::string JsonlOut;
  std::string CountersOut;
  bool Stalls = true;
  unsigned TopN = 8;
  uint64_t MaxCycles = 100000000;
  uint64_t Seed = 0;
  bool Digests = false;          ///< Print the interval-digest ring.
  std::optional<uint64_t> DigestInterval; ///< Stride override; 0 = off.
};

int usage() {
  std::fprintf(
      stderr,
      "usage: lbp_prof [options] file.c|file.s|-\n"
      "       lbp_prof [options] --workload %s\n"
      "  --cores N  --engine reference|fastpath\n"
      "  --max-cycles N  --seed N  --drops N  --delays N  --flips N\n"
      "  --no-stalls  --top N\n"
      "  --perfetto OUT.json  --jsonl OUT.jsonl  --counters OUT.json\n"
      "  --digests  --digest-interval N\n"
      "See docs/OBSERVABILITY.md.\n",
      workloads::WorkloadNames);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  workloads::ArgReader R(Argc, Argv);
  while (R.next()) {
    std::string_view A = R.arg();
    auto S = Opts.Run.parseArg(R);
    if (S == workloads::RunSpec::ArgStatus::Bad)
      return usage();
    if (S == workloads::RunSpec::ArgStatus::Taken)
      continue;
    bool Ok = true;
    if (A == "--max-cycles") {
      Ok = R.value(Opts.MaxCycles);
    } else if (A == "--seed") {
      Ok = R.value(Opts.Seed);
    } else if (A == "--no-stalls") {
      Opts.Stalls = false;
    } else if (A == "--top") {
      Ok = R.value(Opts.TopN);
    } else if (A == "--perfetto") {
      Ok = R.value(Opts.PerfettoOut);
    } else if (A == "--jsonl") {
      Ok = R.value(Opts.JsonlOut);
    } else if (A == "--counters") {
      Ok = R.value(Opts.CountersOut);
    } else if (A == "--digests") {
      Opts.Digests = true;
    } else if (A == "--digest-interval") {
      Ok = R.value(Opts.DigestInterval.emplace());
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "lbp_prof: unknown option '%s'\n",
                   std::string(A).c_str());
      Ok = false;
    }
    if (!Ok)
      return usage();
  }

  assembler::Program Prog;
  sim::SimConfig Cfg;
  std::string Err;
  if (!Opts.Run.load(Prog, Cfg, Err)) {
    std::fprintf(stderr, "lbp_prof: %s\n", Err.c_str());
    return 2;
  }
  Cfg.CollectCounters = true;
  Cfg.CollectStallStats = Opts.Stalls;
  if (Opts.DigestInterval)
    Cfg.DigestInterval = *Opts.DigestInterval;
  Cfg.Faults.Seed = Opts.Seed;

  sim::Machine M(Cfg);

  // Sinks must attach before load(): the boot HartStart is an event.
  std::ofstream PerfettoFile, JsonlFile;
  std::unique_ptr<obs::PerfettoSink> Perfetto;
  std::unique_ptr<obs::JsonlSink> Jsonl;
  obs::PhaseProfiler Phases;
  M.addTraceSink(&Phases);
  if (!Opts.PerfettoOut.empty()) {
    PerfettoFile.open(Opts.PerfettoOut);
    if (!PerfettoFile) {
      std::fprintf(stderr, "lbp_prof: cannot open '%s'\n",
                   Opts.PerfettoOut.c_str());
      return 2;
    }
    Perfetto = std::make_unique<obs::PerfettoSink>(PerfettoFile, Cfg);
    M.addTraceSink(Perfetto.get());
  }
  if (!Opts.JsonlOut.empty()) {
    JsonlFile.open(Opts.JsonlOut);
    if (!JsonlFile) {
      std::fprintf(stderr, "lbp_prof: cannot open '%s'\n",
                   Opts.JsonlOut.c_str());
      return 2;
    }
    Jsonl = std::make_unique<obs::JsonlSink>(JsonlFile);
    M.addTraceSink(Jsonl.get());
  }

  M.load(Prog);
  sim::RunStatus St = M.run(Opts.MaxCycles);
  if (Perfetto)
    Perfetto->finish(M.cycles());

  obs::ReportOptions ROpts;
  ROpts.TopN = Opts.TopN;
  std::fputs(obs::buildReport(M, &Phases, ROpts).c_str(), stdout);

  if (Opts.Digests) {
    const sim::Trace &Tr = M.trace();
    std::printf("\ninterval digests (interval %llu, ring cap %u, "
                "%llu recorded):\n",
                static_cast<unsigned long long>(Tr.digestInterval()),
                Tr.digestRingCap(),
                static_cast<unsigned long long>(Tr.digestCount()));
    if (Tr.digestInterval() == 0)
      std::printf("  digesting disabled (interval 0)\n");
    else if (Tr.digestCount() == 0)
      std::printf("  no boundary crossed (run shorter than the "
                  "interval)\n");
    for (const sim::TraceDigest &D : Tr.digestEntries())
      std::printf("  @%-12llu 0x%016llx\n",
                  static_cast<unsigned long long>(D.Boundary),
                  static_cast<unsigned long long>(D.Hash));
  }

  if (!Opts.CountersOut.empty()) {
    std::ofstream Out(Opts.CountersOut);
    if (!Out) {
      std::fprintf(stderr, "lbp_prof: cannot open '%s'\n",
                   Opts.CountersOut.c_str());
      return 2;
    }
    // The counter snapshot, wrapped with run metadata: which engine
    // executed and the terminal message — for a livelock, the per-hart
    // wait report.
    Out << "{\n  \"meta\": {\"engine\": \"" << jsonEscape(M.engineName())
        << "\", \"engine_note\": \"" << jsonEscape(M.engineNote())
        << "\", \"status\": \"" << sim::runStatusName(St)
        << "\", \"message\": \"" << jsonEscape(M.faultMessage())
        << "\",\n           \"digest_interval\": "
        << M.trace().digestInterval()
        << ", \"digest_ring_cap\": " << M.trace().digestRingCap()
        << ", \"digest_count\": " << M.trace().digestCount();
    Out << "},\n  \"counters\": " << obs::countersToJson(M) << "}\n";
  }
  return St == sim::RunStatus::Exited ? 0 : 1;
}
