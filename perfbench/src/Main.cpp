//===- perfbench/src/Main.cpp - End-to-end benchmark ----------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one seeded workload from source text to a verified report for a
/// fixed wall-clock budget and prints two JSON lines: a detailed report
/// (host and build fingerprint, sample statistics, model accuracy,
/// failures) and, last, the result line
/// {"correct", "attempted", "failed", "metrics"}.
///
///   lbp_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                 [--tiny] [--corrupt-output]
///                 [--git-sha SHA]
///
/// --trace 0 measures the end-to-end metrics with tracing off: medians
/// over the run of host times divided by the host's slowdown, which the
/// host probe (HostProbe.h) measures between iterations. --trace 1
/// runs untraced and then traced iterations (their difference is the
/// tracing overhead), derives each layer's self time from the spans,
/// and adds one untimed pass with stall classification and counters for
/// the modelled counts. Every iteration's output is checked against a
/// host reference and its fingerprint against the first iteration's;
/// a mismatch is a failed operation and makes the exit code 1.
///
//===----------------------------------------------------------------------===//

#include "HostProbe.h"
#include "Spans.h"
#include "Workloads.h"

#include "asm/Assembler.h"
#include "obs/PerfCounters.h"
#include "obs/Report.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <thread>

#include <sys/resource.h>

using namespace perfbench;
using namespace lbp;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  bool CorruptOutput = false;
  std::string GitSha = "unknown";
};

/// The run identity every iteration must reproduce.
struct Fingerprint {
  sim::RunStatus Status = sim::RunStatus::MaxCycles;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t Hash = 0;

  bool operator==(const Fingerprint &O) const {
    return Status == O.Status && Cycles == O.Cycles &&
           Retired == O.Retired && Hash == O.Hash;
  }
  std::string json() const {
    return formatString("{\"status\": \"%s\", \"cycles\": %llu, "
                        "\"retired\": %llu, \"trace_hash\": \"%016llx\"}",
                        sim::runStatusName(Status),
                        static_cast<unsigned long long>(Cycles),
                        static_cast<unsigned long long>(Retired),
                        static_cast<unsigned long long>(Hash));
  }
};

/// What one pass from source text to report produced.
struct Iteration {
  uint32_t Id = 0;
  bool Ok = false;
  std::string Why;
  double SetupS = 0, RunS = 0, E2eS = 0;
  /// The host probe's time around this iteration against its reference
  /// (above 1 when the host ran slow).
  double Slowdown = 1;
  Fingerprint Fp;
  double Ipc = 0;
  uint64_t Remote = 0, Local = 0, Contention = 0;
  sim::Machine::EngineStats Engine;
  std::string EngineName, EngineNote;
  uint64_t ReportBytes = 0;
  SourceStats Sizes;
};

/// Source text to a loaded machine at cycle 0.
bool setUp(Workload &W, Tracer &T, const sim::SimConfig &Cfg,
           obs::PhaseProfiler *Phases, SourceStats &St,
           assembler::Program &Prog, std::unique_ptr<sim::Machine> &M,
           std::string &Err) {
  std::string Asm;
  if (!W.buildAsm(T, Asm, St, Err))
    return false;
  St.AsmBytes = Asm.size();
  assembler::AsmResult R;
  {
    Tracer::Scope S(T, Layer::AsmAssemble);
    R = assembler::assemble(Asm);
  }
  if (!R.succeeded()) {
    Err = "assembly failed:\n" + R.errorText();
    return false;
  }
  Prog = std::move(R.Prog);
  St.TextWords = Prog.textSize() / 4;
  St.DataBytes = 0;
  for (const assembler::Segment &Seg : Prog.segments())
    if (!Seg.IsText)
      St.DataBytes += Seg.Bytes.size();
  {
    Tracer::Scope S(T, Layer::SimConstruct);
    M = std::make_unique<sim::Machine>(Cfg);
  }
  if (Phases)
    M->addTraceSink(Phases);
  Tracer::Scope S(T, Layer::SimLoad);
  M->load(Prog);
  W.inject(*M, Prog);
  return true;
}

Iteration iterate(Workload &W, Tracer &T, const sim::SimConfig &Cfg,
                  uint32_t Id, bool Corrupt) {
  Iteration It;
  It.Id = Id;
  T.beginIteration(Id);
  // Declared before the machine: a registered sink must outlive it.
  std::unique_ptr<obs::PhaseProfiler> Phases;
  if (W.obsReport())
    Phases = std::make_unique<obs::PhaseProfiler>();
  std::unique_ptr<sim::Machine> M;
  assembler::Program Prog;
  std::string Report;
  bool SetUp = false;
  uint64_t T0 = nowNanos(), T1 = 0, T2 = 0, T3 = 0;
  {
    Tracer::Scope Outer(T, Layer::Iteration);
    {
      Tracer::Scope S(T, Layer::Setup);
      SetUp = setUp(W, T, Cfg, Phases.get(), It.Sizes, Prog, M, It.Why);
    }
    T1 = nowNanos();
    if (SetUp) {
      {
        Tracer::Scope S(T, Layer::SimRun);
        It.Fp.Status = M->run();
      }
      T2 = nowNanos();
      Tracer::Scope S(T, Layer::ObsReport);
      if (Phases)
        Report = obs::buildReport(*M, Phases.get(), obs::ReportOptions());
      else
        Report = formatString(
            "%s: %s, %llu cycles, %llu retired, IPC %.3f, hash %016llx\n",
            M->engineName(), sim::runStatusName(M->status()),
            static_cast<unsigned long long>(M->cycles()),
            static_cast<unsigned long long>(M->retired()), M->ipc(),
            static_cast<unsigned long long>(M->traceHash()));
    }
    T3 = nowNanos();
  }
  if (!SetUp)
    return It;
  It.SetupS = static_cast<double>(T1 - T0) * 1e-9;
  It.RunS = static_cast<double>(T2 - T1) * 1e-9;
  It.E2eS = static_cast<double>(T3 - T0) * 1e-9;
  It.ReportBytes = Report.size();
  It.Fp.Cycles = M->cycles();
  It.Fp.Retired = M->retired();
  It.Fp.Hash = M->traceHash();
  It.Ipc = M->ipc();
  It.Remote = M->remoteAccesses();
  It.Local = M->localAccesses();
  It.Contention = M->contentionCycles();
  It.Engine = M->engineStats();
  It.EngineName = M->engineName();
  It.EngineNote = M->engineNote();

  // Off the clock: corrupt on request, then check every output word.
  if (Corrupt) {
    uint32_t A = W.outputWord(Prog);
    M->debugWriteWord(A, M->debugReadWord(A) ^ 0x5a5a5a5au);
  }
  if (It.Fp.Status != sim::RunStatus::Exited) {
    It.Why = formatString("run ended %s: %s", sim::runStatusName(It.Fp.Status),
                          M->faultMessage().c_str());
    return It;
  }
  It.Ok = W.verify(*M, Prog, It.Why);
  return It;
}

/// Set-up only, for extra set-up samples; returns seconds or -1.
double setUpOnly(Workload &W, const sim::SimConfig &Cfg) {
  Tracer Off(false);
  SourceStats St;
  assembler::Program Prog;
  std::unique_ptr<sim::Machine> M;
  std::string Err;
  uint64_t T0 = nowNanos();
  bool Ok = setUp(W, Off, Cfg, nullptr, St, Prog, M, Err);
  uint64_t T1 = nowNanos();
  return Ok ? static_cast<double>(T1 - T0) * 1e-9 : -1;
}

/// The modelled counts of one untimed run with stall classification and
/// counters on. CollectStallStats selects the reference loop, so this
/// pass is never timed.
struct ModelPass {
  bool Ok = false;
  std::string Why;
  Fingerprint Fp;
  uint64_t Stall[static_cast<unsigned>(sim::Machine::StallCause::NumCauses)] =
      {};
  uint64_t Issued = 0;
  uint64_t CoreCycles = 0;
  uint64_t Forks = 0, Joins = 0, TokenPasses = 0;
  double TokenLatencyMean = 0;
};

ModelPass modelPass(Workload &W, sim::SimConfig Cfg) {
  Cfg.CollectStallStats = true;
  Cfg.CollectCounters = true;
  ModelPass P;
  Tracer Off(false);
  SourceStats St;
  assembler::Program Prog;
  std::unique_ptr<sim::Machine> M;
  if (!setUp(W, Off, Cfg, nullptr, St, Prog, M, P.Why))
    return P;
  P.Fp.Status = M->run();
  P.Fp.Cycles = M->cycles();
  P.Fp.Retired = M->retired();
  P.Fp.Hash = M->traceHash();
  for (unsigned C = 0; C != static_cast<unsigned>(
                                sim::Machine::StallCause::NumCauses);
       ++C)
    P.Stall[C] = M->stallCycles(static_cast<sim::Machine::StallCause>(C));
  P.Issued = M->issuedCoreCycles();
  P.CoreCycles = M->cycles() * Cfg.NumCores;
  const obs::PerfCounters &Pc = M->counters();
  P.Forks = Pc.Forks;
  P.Joins = Pc.Joins;
  P.TokenPasses = Pc.TokenPasses;
  P.TokenLatencyMean = Pc.TokenLatency.mean();
  P.Ok = P.Fp.Status == sim::RunStatus::Exited && W.verify(*M, Prog, P.Why);
  return P;
}

//===----------------------------------------------------------------------===//
// Statistics and JSON
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Quartile \p I (1 or 3) by the exclusive method Python's
/// statistics.quantiles uses by default.
double quartile(std::vector<double> V, unsigned I) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N < 2)
    return N ? V[0] : 0;
  size_t M = N + 1;
  size_t J = std::clamp<size_t>(I * M / 4, 1, N - 1);
  double Delta = static_cast<double>(I * M) / 4.0 - static_cast<double>(J);
  return V[J - 1] + (V[J] - V[J - 1]) * Delta;
}

std::string num(double V) { return formatString("%.10g", V); }

std::string statsJson(const std::vector<double> &V) {
  if (V.empty())
    return "{\"n\": 0}";
  return formatString(
      "{\"n\": %zu, \"median\": %s, \"q1\": %s, \"q3\": %s, \"min\": %s, "
      "\"max\": %s}",
      V.size(), num(median(V)).c_str(), num(quartile(V, 1)).c_str(),
      num(quartile(V, 3)).c_str(),
      num(*std::min_element(V.begin(), V.end())).c_str(),
      num(*std::max_element(V.begin(), V.end())).c_str());
}

struct MetricList {
  std::vector<std::pair<std::string, std::string>> Items;
  void add(const std::string &Name, double Value, const char *Unit) {
    Items.push_back({Name, formatString("{\"value\": %s, \"unit\": \"%s\"}",
                                        num(Value).c_str(), Unit)});
  }
  std::string json() const {
    std::string S = "{";
    for (size_t I = 0; I != Items.size(); ++I)
      S += (I ? ", \"" : "\"") + Items[I].first + "\": " + Items[I].second;
    return S + "}";
  }
};

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

std::string configJson(const sim::SimConfig &C) {
  return formatString(
      "{\"NumCores\": %u, \"GlobalBankSizeLog2\": %u, \"FastPath\": %s, "
      "\"HostThreads\": %u, \"OversubscribeHost\": %s, "
      "\"CollectCounters\": %s, \"CollectStallStats\": %s, "
      "\"EnableCheckers\": %s, \"DigestInterval\": %llu}",
      C.NumCores, C.GlobalBankSizeLog2, C.FastPath ? "true" : "false",
      C.HostThreads, C.OversubscribeHost ? "true" : "false",
      C.CollectCounters ? "true" : "false",
      C.CollectStallStats ? "true" : "false",
      C.EnableCheckers ? "true" : "false",
      static_cast<unsigned long long>(C.DigestInterval));
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "lbp_perfbench: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    const char *V = nullptr;
    if (A == "--tiny") {
      O.Tiny = true;
    } else if (A == "--corrupt-output") {
      O.CorruptOutput = true;
    } else if (A == "--workload" || A == "--seed" || A == "--seconds" ||
               A == "--trace" || A == "--git-sha") {
      if (!(V = Value(A.c_str())))
        return false;
      if (A == "--workload")
        O.Workload = V;
      else if (A == "--seed")
        O.Seed = std::strtoull(V, nullptr, 10);
      else if (A == "--seconds")
        O.Seconds = std::strtod(V, nullptr);
      else if (A == "--trace")
        O.Trace = std::strcmp(V, "0") != 0;
      else
        O.GitSha = V;
    } else {
      std::fprintf(stderr, "lbp_perfbench: unknown argument '%s'\n",
                   A.c_str());
      return false;
    }
  }
  if (O.Workload.empty() || !(O.Seconds > 0)) {
    std::fprintf(stderr, "usage: lbp_perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--tiny] "
                         "[--corrupt-output]\nworkloads:");
    for (const std::string &N : workloadNames())
      std::fprintf(stderr, " %s", N.c_str());
    std::fprintf(stderr, "\n");
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  std::unique_ptr<Workload> W = makeWorkload(O.Workload, O.Seed, O.Tiny);
  if (!W) {
    std::fprintf(stderr, "lbp_perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  const sim::SimConfig Cfg = W->config();

  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  auto countFailure = [&](const std::string &Why) {
    ++Failed;
    if (Failures.size() < 8)
      Failures.push_back(Why);
  };

  // The host-parallel workload must reproduce the serial engine's run.
  bool HaveSerial = false;
  Fingerprint Serial;
  if (Cfg.HostThreads > 1) {
    sim::SimConfig SerialCfg = Cfg;
    SerialCfg.HostThreads = 1;
    Tracer Off(false);
    Iteration S = iterate(*W, Off, SerialCfg, 0, false);
    ++Attempted;
    if (!S.Ok)
      countFailure("serial reference run: " + S.Why);
    HaveSerial = true;
    Serial = S.Fp;
  }

  // One untimed warm-up pass first: it fills the allocator and the
  // caches, fixes the fingerprint every later iteration must reproduce,
  // and gives the peak resident memory. The high-water mark after one
  // full pass (inputs, set-up, run, report, check) is what one run of
  // the toolchain costs; later iterations only add allocator history
  // (glibc's adaptive mmap threshold moved freed buffers onto the heap
  // and raised the mark by up to 5 MB at random), and the host probe's
  // buffers are allocated after it.
  Tracer T(false);
  bool HaveFirst = false;
  Fingerprint First;
  uint32_t NextId = 0;
  auto check = [&](Iteration &It) {
    ++Attempted;
    if (!It.Ok) {
      countFailure(formatString("iteration %u: ", It.Id) + It.Why);
    } else if (!HaveFirst) {
      HaveFirst = true;
      First = It.Fp;
    }
    if (It.Ok && !(It.Fp == First)) {
      It.Ok = false;
      countFailure(formatString("iteration %u: fingerprint ", It.Id) +
                   It.Fp.json() + " differs from the first " + First.json());
    }
    if (It.Ok && HaveSerial && !(It.Fp == Serial)) {
      It.Ok = false;
      countFailure(formatString("iteration %u: fingerprint ", It.Id) +
                   It.Fp.json() + " differs from the serial engine's " +
                   Serial.json());
    }
  };
  Iteration WarmUp = iterate(*W, T, Cfg, NextId++, O.CorruptOutput);
  check(WarmUp);
  double PeakRssMb = 0;
  {
    struct rusage Ru;
    getrusage(RUSAGE_SELF, &Ru);
    PeakRssMb = static_cast<double>(Ru.ru_maxrss) / 1024.0;
  }

  // Timed iterations: all of --seconds with --trace 0; with --trace 1,
  // half untraced and half traced. A phase runs at least one iteration,
  // and the end-to-end phase at least three. The host probe runs before
  // the first iteration and after each one; an iteration's slowdown is
  // the geometric mean of the two probes around it against the probe's
  // reference time.
  std::vector<Iteration> Untraced, Traced;
  std::vector<double> Probes;
  // Set-up is short next to a run; the end-to-end phase takes at least
  // MinSetupSamples of it. A workload with fewer iterations than that
  // adds set-up-only samples after each iteration, so that they spread
  // over the run instead of bunching at its end, and share the
  // iteration's probes.
  constexpr size_t MinSetupSamples = 41;
  std::vector<std::pair<double, double>> ExtraSetup; // {seconds, slowdown}
  auto runPhase = [&](std::vector<Iteration> &Into, double Seconds,
                      size_t MinIterations, bool SampleSetup) {
    uint64_t End = nowNanos() + static_cast<uint64_t>(Seconds * 1e9);
    size_t SetupsPerIteration = 0;
    double Before = runHostProbe();
    Probes.push_back(Before);
    do {
      Iteration It = iterate(*W, T, Cfg, NextId++, false);
      check(It);
      std::vector<double> Setups;
      if (SampleSetup && It.Ok) {
        if (Into.empty()) {
          size_t Expected = std::max(
              MinIterations, static_cast<size_t>(Seconds / It.E2eS));
          if (Expected < MinSetupSamples)
            SetupsPerIteration =
                (MinSetupSamples - Expected + Expected - 1) / Expected;
        }
        for (size_t K = 0; K != SetupsPerIteration; ++K) {
          double S = setUpOnly(*W, Cfg);
          if (S >= 0)
            Setups.push_back(S);
        }
      }
      double After = runHostProbe();
      Probes.push_back(After);
      It.Slowdown = std::sqrt(Before * After) / ProbeReferenceSeconds;
      for (double S : Setups)
        ExtraSetup.push_back({S, It.Slowdown});
      Before = After;
      Into.push_back(std::move(It));
    } while (nowNanos() < End || Into.size() < MinIterations);
  };
  if (!O.Trace) {
    runPhase(Untraced, O.Seconds, 3, true);
  } else {
    runPhase(Untraced, O.Seconds / 2, 1, false);
    T.setEnabled(true);
    runPhase(Traced, O.Seconds / 2, 1, false);
    T.setEnabled(false);
  }

  auto collect = [](const std::vector<Iteration> &Its, auto Field) {
    std::vector<double> V;
    for (const Iteration &It : Its)
      if (It.Ok)
        V.push_back(Field(It));
    return V;
  };
  while (!O.Trace && !Untraced.empty() &&
         Untraced.size() + ExtraSetup.size() < MinSetupSamples) {
    double S = setUpOnly(*W, Cfg);
    if (S < 0)
      break;
    ExtraSetup.push_back({S, Probes.back() / ProbeReferenceSeconds});
  }
  // Host seconds as measured, and divided by the host's slowdown. The
  // time spent on one thread is divided; a run of the parallel engine
  // is not (HostProbe.h says why).
  auto normalisedRun = [](const Iteration &I) {
    return I.Engine.WorkersUsed > 1 ? I.RunS : I.RunS / I.Slowdown;
  };
  auto normalisedE2e = [&](const Iteration &I) {
    return (I.E2eS - I.RunS) / I.Slowdown + normalisedRun(I);
  };
  std::vector<double> Setup, SetupRaw;
  for (const Iteration &It : Untraced)
    if (It.Ok) {
      SetupRaw.push_back(It.SetupS);
      Setup.push_back(It.SetupS / It.Slowdown);
    }
  for (const auto &[S, Slowdown] : ExtraSetup) {
    SetupRaw.push_back(S);
    Setup.push_back(S / Slowdown);
  }
  std::vector<double> E2eRaw =
      collect(Untraced, [](const Iteration &I) { return I.E2eS; });
  std::vector<double> RunRaw =
      collect(Untraced, [](const Iteration &I) { return I.RunS; });
  std::vector<double> MipsRaw = collect(Untraced, [](const Iteration &I) {
    return static_cast<double>(I.Fp.Retired) / I.RunS * 1e-6;
  });
  std::vector<double> E2e = collect(Untraced, normalisedE2e);
  std::vector<double> Mips = collect(Untraced, [&](const Iteration &I) {
    return static_cast<double>(I.Fp.Retired) / normalisedRun(I) * 1e-6;
  });
  std::vector<double> Slowdowns =
      collect(Untraced, [](const Iteration &I) { return I.Slowdown; });

  ModelPass Model;
  if (O.Trace) {
    Model = modelPass(*W, Cfg);
    ++Attempted;
    if (!Model.Ok)
      countFailure("model pass: " + Model.Why);
    else if (HaveFirst && !(Model.Fp == First))
      countFailure("model pass: fingerprint " + Model.Fp.json() +
                   " differs from the timed runs' " + First.json());
  }

  const Iteration *Last = nullptr;
  for (const std::vector<Iteration> *Its : {&Untraced, &Traced})
    for (const Iteration &It : *Its)
      if (It.Ok)
        Last = &It;
  Iteration Empty;
  const Iteration &L = Last ? *Last : Empty;

  MetricList Metrics;
  if (!O.Trace) {
    // Medians of the host times divided by the host's slowdown.
    Metrics.add("sim_mips", median(Mips), "MIPS");
    Metrics.add("e2e_s", median(E2e), "s");
    Metrics.add("setup_s", median(Setup), "s");
    Metrics.add("peak_rss_mb", PeakRssMb, "MB");
    Metrics.add("sim_cycles", static_cast<double>(L.Fp.Cycles), "cycles");
  } else {
    // Per-layer self times from the traced iterations' spans.
    std::vector<std::vector<double>> Self = T.selfSeconds();
    auto layer = [&](Layer Ly) {
      std::vector<double> V;
      for (const std::vector<double> &Row : Self)
        V.push_back(Row[static_cast<unsigned>(Ly)]);
      return median(V);
    };
    Metrics.add("workloads.build_s", layer(Layer::WorkloadsBuild), "s");
    Metrics.add("frontend.parse_s", layer(Layer::FrontendParse), "s");
    Metrics.add("analysis.lint_s", layer(Layer::AnalysisLint), "s");
    Metrics.add("dsl.codegen_s", layer(Layer::DslCodegen), "s");
    Metrics.add("asm.assemble_s", layer(Layer::AsmAssemble), "s");
    Metrics.add("sim.construct_s", layer(Layer::SimConstruct), "s");
    Metrics.add("sim.load_s", layer(Layer::SimLoad), "s");
    Metrics.add("sim.run_s", layer(Layer::SimRun), "s");
    Metrics.add("obs.report_s", layer(Layer::ObsReport), "s");

    const SourceStats &St = L.Sizes;
    Metrics.add("frontend.source_bytes", St.SourceBytes, "bytes");
    Metrics.add("dsl.asm_bytes", St.AsmBytes, "bytes");
    Metrics.add("asm.text_words", St.TextWords, "count");
    Metrics.add("asm.data_bytes", St.DataBytes, "bytes");
    Metrics.add("analysis.accesses_affine", St.Affine, "count");
    Metrics.add("analysis.accesses_banked", St.Banked, "count");
    Metrics.add("analysis.accesses_may", St.May, "count");
    Metrics.add("analysis.diags", St.Diags, "count");

    auto perTraced = [&](auto Field) {
      return median(collect(Traced, Field));
    };
    Metrics.add("sim.ns_per_retired", perTraced([](const Iteration &I) {
                  return I.RunS * 1e9 / static_cast<double>(I.Fp.Retired);
                }),
                "ns");
    Metrics.add("sim.ns_per_cycle", perTraced([](const Iteration &I) {
                  return I.RunS * 1e9 / static_cast<double>(I.Fp.Cycles);
                }),
                "ns");

    const sim::Machine::EngineStats &Es = L.Engine;
    bool Par = Es.WorkersUsed > 1;
    Metrics.add("sim.par.workers", Par ? Es.WorkersUsed : 1, "count");
    Metrics.add("sim.par.epochs", Es.EpochsMerged, "count");
    Metrics.add("sim.par.window_cycles", Es.WindowCycles, "cycles");
    Metrics.add("sim.par.gated_cycles", Es.GatedCycles, "cycles");
    Metrics.add("sim.par.skipped_cycles", Es.SkippedCycles, "cycles");
    double ShardS = perTraced([](const Iteration &I) {
      return static_cast<double>(I.Engine.ShardNanos) * 1e-9;
    });
    double MergeS = perTraced([](const Iteration &I) {
      return static_cast<double>(I.Engine.MergeNanos) * 1e-9;
    });
    double OtherS = perTraced([](const Iteration &I) {
      return I.RunS - static_cast<double>(I.Engine.ShardNanos +
                                          I.Engine.MergeNanos) *
                          1e-9;
    });
    Metrics.add("sim.par.shard_s", ShardS, "s");
    Metrics.add("sim.par.merge_s", MergeS, "s");
    Metrics.add("sim.par.other_s", Par ? OtherS : 0, "s");
    Metrics.add("obs.report_bytes", static_cast<double>(L.ReportBytes),
                "bytes");

    Metrics.add("sim.retired", static_cast<double>(L.Fp.Retired), "count");
    Metrics.add("sim.ipc", L.Ipc, "1/cycle");
    for (unsigned C = 0;
         C != static_cast<unsigned>(sim::Machine::StallCause::NumCauses); ++C)
      Metrics.add(std::string("sim.stall.") +
                      sim::stallCauseName(
                          static_cast<sim::Machine::StallCause>(C)),
                  static_cast<double>(Model.Stall[C]), "core-cycles");
    Metrics.add("sim.issued_core_cycles", static_cast<double>(Model.Issued),
                "core-cycles");
    Metrics.add("sim.remote_accesses", static_cast<double>(L.Remote),
                "count");
    Metrics.add("sim.local_accesses", static_cast<double>(L.Local), "count");
    Metrics.add("sim.contention_cycles", static_cast<double>(L.Contention),
                "cycles");
    Metrics.add("obs.forks", static_cast<double>(Model.Forks), "count");
    Metrics.add("obs.joins", static_cast<double>(Model.Joins), "count");
    Metrics.add("obs.token_passes", static_cast<double>(Model.TokenPasses),
                "count");
    Metrics.add("obs.token_latency_mean", Model.TokenLatencyMean, "cycles");
    double TracedE2e = perTraced(normalisedE2e);
    double UntracedE2e = median(E2e);
    Metrics.add("trace.overhead_pct",
                UntracedE2e > 0 ? (TracedE2e / UntracedE2e - 1) * 100 : 0,
                "%");
  }

  // A program with a recorded result must reproduce it exactly.
  PaperAnchor A = W->anchor();
  bool Recorded = A.RecordedCycles != 0 && Last;
  bool MatchesRecorded = Recorded && L.Fp.Cycles == A.RecordedCycles &&
                         L.Fp.Retired == A.RecordedRetired;
  if (Recorded && !MatchesRecorded)
    countFailure(formatString("model: %llu cycles and %llu retired differ "
                              "from the recorded %llu and %llu",
                              static_cast<unsigned long long>(L.Fp.Cycles),
                              static_cast<unsigned long long>(L.Fp.Retired),
                              static_cast<unsigned long long>(A.RecordedCycles),
                              static_cast<unsigned long long>(
                                  A.RecordedRetired)));

  // The host-parallel workload is there to time the parallel engine; on
  // a one-CPU host it runs serially and its sim.par.* figures are empty.
  bool ParMeasured = L.Engine.WorkersUsed > 1;
  if (W->hostParallel() && Last && !ParMeasured)
    std::fprintf(stderr,
                 "lbp_perfbench: warning: the parallel engine was not "
                 "measured (HostThreads %u, nproc %u)%s%s\n",
                 Cfg.HostThreads, nprocCount(),
                 L.EngineNote.empty() ? "" : ": ", L.EngineNote.c_str());

  bool Correct = Failed == 0 && Attempted > 0 && Last;
  int ExitCode = Correct ? 0 : 1;

  // The detailed report.
  std::string R = "{\"perfbench_report\": {";
  R += formatString("\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                    "\"size\": \"%s\", \"seconds\": %s, ",
                    O.Workload.c_str(),
                    static_cast<unsigned long long>(O.Seed), O.Trace ? 1 : 0,
                    O.Tiny ? "tiny" : "full", num(O.Seconds).c_str());
  R += formatString("\"status\": \"%s\", \"exit_code\": %d, ",
                    Correct ? "ok" : "failed", ExitCode);
  R += formatString("\"host\": {\"cpu_model\": \"%s\", \"nproc\": %u, "
                    "\"hardware_concurrency\": %u}, ",
                    jsonEscape(cpuModel()).c_str(), nprocCount(),
                    std::thread::hardware_concurrency());
  R += formatString("\"build\": {\"compiler\": \"%s (%s)\", \"build_type\": "
                    "\"%s\", \"lto\": %s, \"git_sha\": \"%s\"}, ",
                    PERFBENCH_COMPILER, jsonEscape(__VERSION__).c_str(),
                    PERFBENCH_BUILD_TYPE, PERFBENCH_LTO ? "true" : "false",
                    jsonEscape(O.GitSha).c_str());
  R += "\"sim_config\": " + configJson(Cfg) + ", ";
  R += formatString("\"engine\": \"%s\", \"engine_note\": \"%s\", ",
                    L.EngineName.c_str(), jsonEscape(L.EngineNote).c_str());
  R += formatString("\"iterations\": {\"warm_up\": 1, \"untraced\": %zu, "
                    "\"traced\": %zu}, ",
                    Untraced.size(), Traced.size());
  R += "\"samples\": {\"e2e_s\": " + statsJson(E2eRaw) +
       ", \"setup_s\": " + statsJson(SetupRaw) +
       ", \"run_s\": " + statsJson(RunRaw) + ", \"sim_mips\": " +
       statsJson(MipsRaw) + "}, ";
  R += "\"host_normalised\": {\"e2e_s\": " + statsJson(E2e) +
       ", \"setup_s\": " + statsJson(Setup) +
       ", \"sim_mips\": " + statsJson(Mips) + "}, ";
  R += formatString("\"host_probe\": {\"reference_s\": %s, \"divides_run\": "
                    "%s, \"probe_s\": ",
                    num(ProbeReferenceSeconds).c_str(),
                    ParMeasured ? "false" : "true") +
       statsJson(Probes) + ", \"slowdown\": " + statsJson(Slowdowns) + "}, ";
  R += "\"fingerprint\": " + L.Fp.json() + ", ";
  if (W->hostParallel())
    R += formatString("\"host_parallel\": {\"host_threads\": %u, "
                      "\"workers_used\": %u, \"measured\": %s}, ",
                      Cfg.HostThreads, L.Engine.WorkersUsed,
                      ParMeasured ? "true" : "false");
  R += formatString("\"model\": {\"validated\": %s",
                    A.Validated && Last ? "true" : "false");
  if (A.Validated && Last)
    R += formatString(
        ", \"anchor\": \"%s\", \"anchor_cycles\": %s, \"cycles_err_pct\": %s, "
        "\"anchor_ipc\": %s, \"ipc_err_pct\": %s",
        A.Source, num(A.Cycles).c_str(),
        num((static_cast<double>(L.Fp.Cycles) / A.Cycles - 1) * 100).c_str(),
        num(A.Ipc).c_str(), num((L.Ipc / A.Ipc - 1) * 100).c_str());
  if (Recorded)
    R += formatString(", \"recorded_cycles\": %llu, \"recorded_retired\": "
                      "%llu, \"matches_recorded\": %s",
                      static_cast<unsigned long long>(A.RecordedCycles),
                      static_cast<unsigned long long>(A.RecordedRetired),
                      MatchesRecorded ? "true" : "false");
  R += "}, ";
  if (O.Trace) {
    uint64_t Stalled = 0;
    for (uint64_t S : Model.Stall)
      Stalled += S;
    R += formatString(
        "\"stall_accounting\": {\"core_cycles\": %llu, \"issued\": %llu, "
        "\"stalled\": %llu, \"unaccounted\": %lld}, ",
        static_cast<unsigned long long>(Model.CoreCycles),
        static_cast<unsigned long long>(Model.Issued),
        static_cast<unsigned long long>(Stalled),
        static_cast<long long>(Model.CoreCycles - Model.Issued - Stalled));
    // The spans themselves, written out now that the run is over:
    // [layer, iteration, parent index, begin ns, end ns], times relative
    // to the first span.
    constexpr size_t MaxListed = 4096;
    const std::vector<Span> &Sp = T.spans();
    std::set<std::string> Layers;
    std::string List;
    uint64_t Base = Sp.empty() ? 0 : Sp.front().Begin;
    for (size_t I = 0; I != Sp.size(); ++I) {
      Layers.insert(layerName(Sp[I].L));
      if (I < MaxListed)
        List += formatString("%s[\"%s\", %u, %d, %llu, %llu]", I ? ", " : "",
                             layerName(Sp[I].L), Sp[I].Iter, Sp[I].Parent,
                             static_cast<unsigned long long>(Sp[I].Begin - Base),
                             static_cast<unsigned long long>(Sp[I].End - Base));
    }
    R += formatString("\"spans\": {\"recorded\": %zu, \"listed\": %zu, "
                      "\"layers\": [",
                      Sp.size(), std::min(Sp.size(), MaxListed));
    for (auto It = Layers.begin(); It != Layers.end(); ++It)
      R += (It == Layers.begin() ? "\"" : ", \"") + *It + "\"";
    R += "], \"list\": [" + List + "]}, ";
  }
  R += "\"failures\": [";
  for (size_t I = 0; I != Failures.size(); ++I)
    R += (I ? ", \"" : "\"") + jsonEscape(Failures[I]) + "\"";
  R += "]}}";
  std::printf("%s\n", R.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              Metrics.json().c_str());
  return ExitCode;
}
