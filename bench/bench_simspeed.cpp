//===- bench/bench_simspeed.cpp - Host simulation-speed benchmark -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Measures how fast the simulator itself runs (simulated cycles per host
// second and host MIPS) across the three engines: the reference loop
// (FastPath off), the fast path, and the sharded parallel engine at a
// sweep of host thread counts. Every run is also a differential check:
// all engines and thread counts must agree bit for bit on traceHash(),
// cycles(), retired() and RunStatus, or the bench exits non-zero — in
// --quick mode too. A speedup that changes the event stream is a bug,
// not a result.
//
// The bench also asserts the serial engines' zero-steady-state
// allocation property: after a warm-up prefix of the periodic barrier
// workload, the rest of the run must perform no heap allocation at all
// (counted by this TU's global operator new). Results are written as
// JSON (default BENCH_simspeed.json; schema in docs/PERFORMANCE.md) so
// CI can record the perf trajectory per PR. The timing gates are all
// evaluated before the JSON is written: each lands in its "gates" array
// with threshold, measured value and verdict, and a failing one sets
// "exit_reason": "gate-failed" as well as the exit status.
//
// With --counters the bench additionally measures the observability
// layer's cost (docs/OBSERVABILITY.md): the barrier workload runs with
// SimConfig::CollectCounters off and on, the trace hashes must match
// (counters are hash-neutral by construction), the steady-state
// allocation property must hold with the counters armed, and the
// enabled-vs-disabled overhead is printed and recorded in the JSON
// (expected within a few percent; the sink is one virtual call per
// event).
//
// Usage: bench_simspeed [--quick] [--out FILE] [--threads LIST]
//                       [--engines LIST] [--counters]
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/Triage.h"
#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "sim/Machine.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"
#include "workloads/RunSpec.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

using namespace lbp;
using workloads::EngineSpec;

//===----------------------------------------------------------------------===//
// Counting allocator: every heap allocation in the process bumps one
// relaxed atomic. The steady-state assertion below snapshots it around
// the post-warm-up half of a run.
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint64_t> GAllocCount{0};

void *countedAlloc(std::size_t Sz) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Sz) { return countedAlloc(Sz); }
void *operator new[](std::size_t Sz) { return countedAlloc(Sz); }
void *operator new(std::size_t Sz, std::align_val_t) {
  return countedAlloc(Sz);
}
void *operator new[](std::size_t Sz, std::align_val_t) {
  return countedAlloc(Sz);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }

namespace {

constexpr uint32_t OutBase = 0x20000200;

/// A barrier-heavy program: `Rounds` back-to-back parallel regions whose
/// workers do almost nothing, so the fork protocol, the in-order p_ret
/// barrier chain and the quiescent waits between team members dominate.
std::string barrierProgram(unsigned NumHarts, unsigned Rounds) {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  // s1 survives the runtime (it only clobbers a*/t*/ra/tp).
  Head.line("li s1, %u", Rounds);
  Head.label("round");
  romp::emitParallelCall(Head, "worker", NumHarts, "0");
  Head.line("addi s1, s1, -1");
  Head.line("bnez s1, round");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  return Head.str() + Tail.str() + R"(
    .equ OUT, 0x20000200
worker:
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    sw a0, 0(a4)
    p_syncm
    p_ret
)";
}

struct Fingerprint {
  sim::RunStatus Status = sim::RunStatus::MaxCycles;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t Hash = 0;

  bool operator==(const Fingerprint &O) const {
    return Status == O.Status && Cycles == O.Cycles &&
           Retired == O.Retired && Hash == O.Hash;
  }
};

/// One (engine, thread-count) cell of the comparison matrix, named by
/// Spec.name(): "reference", "fastpath" or "parallel-tN" (N >= 1 here).
struct EngineResult {
  EngineSpec Spec;
  Fingerprint Fp;
  double HostSeconds = 0.0;
  double CyclesPerSec = 0.0;
  double Mips = 0.0;
  long PeakRssKb = 0;
  bool Identical = true; ///< Fingerprint matches the reference engine.
  std::string EngineUsed; ///< Machine::engineName() after the run.
  std::string EngineNote; ///< Non-empty when a knob changed the engine.
  sim::Machine::EngineStats Stats; ///< Epoch machinery statistics.
};

struct WorkloadResult {
  std::string Name;
  unsigned Cores = 0;
  std::vector<EngineResult> Engines;
  double FastSpeedup = 0.0;     ///< reference time / fastpath time.
  double ParallelSpeedup = 0.0; ///< fastpath time / best parallel time.
};

/// One engine cell that broke bit-identity. Divergences no longer kill
/// the bench before the JSON lands: they are collected here, written
/// into the payload (exit_reason + divergences), and only then turn
/// into the nonzero exit status — so CI artifacts always say *why* the
/// bench failed, not just that it did. Both cells of the mismatched
/// pair are named in full (engine + host threads each side) so a triage
/// run is launchable from the JSON alone — and one is in fact launched
/// right here: TriageJson holds the embedded lbp-triage-report-v1
/// document localizing the first divergent trace event.
struct DivergenceRecord {
  std::string Workload;
  EngineSpec RefSpec, Spec;
  Fingerprint Ref, Got;
  std::string TriageJson;
};
std::vector<DivergenceRecord> Divergences;

long peakRssKb() {
  struct rusage Ru;
  if (getrusage(RUSAGE_SELF, &Ru) != 0)
    return 0;
  return Ru.ru_maxrss; // KiB on Linux
}

/// The exact config of a matrix cell. The bench measures the sharded
/// engine itself, not the host's cpu count: it spawns the requested
/// workers even when oversubscribed. The JSON records the hardware
/// concurrency next to each cell so readers can judge which timings had
/// real cpus behind them.
sim::SimConfig cellConfig(sim::SimConfig Cfg, const EngineSpec &Spec) {
  Spec.applyTo(Cfg);
  Cfg.OversubscribeHost = true;
  return Cfg;
}

/// One timed run. Only Machine::run is on the clock; assembly and image
/// load are setup. Verification is the caller's job (via the hook) —
/// a bench must never report numbers from a broken run.
EngineResult timedRun(const assembler::Program &Prog,
                      const sim::SimConfig &Cfg, const EngineSpec &Spec,
                      const std::function<void(sim::Machine &)> &Verify) {
  sim::Machine M(cellConfig(Cfg, Spec));
  M.load(Prog);
  auto T0 = std::chrono::steady_clock::now();
  sim::RunStatus S = M.run();
  auto T1 = std::chrono::steady_clock::now();
  if (S != sim::RunStatus::Exited) {
    std::fprintf(stderr, "bench_simspeed: %s run did not exit cleanly: %s\n",
                 Spec.name().c_str(), M.faultMessage().c_str());
    std::exit(1);
  }
  Verify(M);
  EngineResult R;
  R.Spec = Spec;
  R.Fp = {S, M.cycles(), M.retired(), M.traceHash()};
  R.HostSeconds = std::chrono::duration<double>(T1 - T0).count();
  if (R.HostSeconds > 0.0) {
    R.CyclesPerSec = static_cast<double>(R.Fp.Cycles) / R.HostSeconds;
    R.Mips = static_cast<double>(R.Fp.Retired) / R.HostSeconds / 1e6;
  }
  R.PeakRssKb = peakRssKb();
  R.EngineUsed = M.engineName();
  R.EngineNote = M.engineNote();
  R.Stats = M.engineStats();
  return R;
}

struct Options {
  bool Quick = false;
  bool Counters = false;
  std::string OutPath = "BENCH_simspeed.json";
  std::vector<unsigned> Threads = {1, 2, 4, 8};
  bool RunReference = true, RunFastPath = true, RunParallel = true;
  /// Nonzero arms SimConfig::PerturbForTest at that cycle on every
  /// workload cell — a seeded divergence that exercises the whole
  /// divergence -> triage -> JSON pipeline (CI smoke).
  uint64_t Perturb = 0;
};

WorkloadResult
runWorkload(const Options &Opt, const std::string &Name,
            const std::string &Source, sim::SimConfig Cfg,
            const std::function<void(sim::Machine &)> &Verify) {
  assembler::AsmResult R = assembler::assemble(Source);
  if (!R.succeeded()) {
    std::fprintf(stderr, "bench_simspeed: assembly of %s failed:\n%s",
                 Name.c_str(), R.errorText().c_str());
    std::exit(1);
  }
  WorkloadResult W;
  W.Name = Name;
  W.Cores = Cfg.NumCores;
  Cfg.PerturbForTest = Opt.Perturb;

  // The reference fingerprint every other cell is compared against.
  // When --engines excludes "reference", the fastpath run seeds it
  // (the thread sweep is still checked against something serial).
  using Kind = EngineSpec::Kind;
  if (Opt.RunReference)
    W.Engines.push_back(timedRun(R.Prog, Cfg, {Kind::Reference}, Verify));
  if (Opt.RunFastPath)
    W.Engines.push_back(timedRun(R.Prog, Cfg, {Kind::FastPath}, Verify));
  if (Opt.RunParallel)
    for (unsigned T : Opt.Threads)
      W.Engines.push_back(timedRun(R.Prog, Cfg, {Kind::Parallel, T}, Verify));
  if (W.Engines.empty())
    return W;

  const EngineSpec &RefSpec = W.Engines.front().Spec;
  const Fingerprint &Ref = W.Engines.front().Fp;
  for (EngineResult &E : W.Engines) {
    E.Identical = E.Fp == Ref;
    if (!E.Identical) {
      // Triage the pair on the spot: bisect the digest sequences, replay
      // from the last agreeing snapshot and embed the first-divergent-
      // event report in the JSON payload instead of a bare exit.
      obs::TriageResult TR = obs::triageDivergence(
          R.Prog, {RefSpec.name(), cellConfig(Cfg, RefSpec)},
          {E.Spec.name(), cellConfig(Cfg, E.Spec)});
      DivergenceRecord D;
      D.Workload = Name;
      D.RefSpec = RefSpec;
      D.Spec = E.Spec;
      D.Ref = Ref;
      D.Got = E.Fp;
      D.TriageJson = obs::triageReportToJson(TR, Name);
      Divergences.push_back(std::move(D));
      std::fprintf(
          stderr,
          "bench_simspeed: ENGINE DIVERGENCE on %s (%s):\n"
          "  %-10s cycles=%llu retired=%llu hash=%016llx\n"
          "  %-10s cycles=%llu retired=%llu hash=%016llx\n",
          Name.c_str(), E.Spec.name().c_str(), RefSpec.name().c_str(),
          static_cast<unsigned long long>(Ref.Cycles),
          static_cast<unsigned long long>(Ref.Retired),
          static_cast<unsigned long long>(Ref.Hash), E.Spec.name().c_str(),
          static_cast<unsigned long long>(E.Fp.Cycles),
          static_cast<unsigned long long>(E.Fp.Retired),
          static_cast<unsigned long long>(E.Fp.Hash));
    }
  }
  // A divergence is still a hard failure in every mode (--quick
  // included), but the exit happens in main, after writeJson.

  const EngineResult *RefE = nullptr, *FastE = nullptr, *BestPar = nullptr;
  for (const EngineResult &E : W.Engines) {
    if (E.Spec.K == Kind::Reference)
      RefE = &E;
    else if (E.Spec.K == Kind::FastPath)
      FastE = &E;
    else if (!BestPar || E.HostSeconds < BestPar->HostSeconds)
      BestPar = &E;
  }
  if (RefE && FastE && FastE->HostSeconds > 0.0)
    W.FastSpeedup = RefE->HostSeconds / FastE->HostSeconds;
  if (FastE && BestPar && BestPar->HostSeconds > 0.0)
    W.ParallelSpeedup = FastE->HostSeconds / BestPar->HostSeconds;

  std::printf("%-24s %3u cores  %10llu cycles", Name.c_str(), W.Cores,
              static_cast<unsigned long long>(Ref.Cycles));
  for (const EngineResult &E : W.Engines)
    std::printf("  %s %.1f kc/s", E.Spec.name().c_str(),
                E.CyclesPerSec / 1e3);
  std::printf("\n");
  std::fflush(stdout);
  return W;
}

void verifyBarrier(sim::Machine &M, unsigned Harts) {
  for (unsigned T = 0; T != Harts; ++T) {
    if (M.debugReadWord(OutBase + 4 * T) != T) {
      std::fprintf(stderr, "bench_simspeed: barrier OUT[%u] wrong\n", T);
      std::exit(1);
    }
  }
}

WorkloadResult benchBarrier(const Options &Opt, unsigned Cores,
                            unsigned Rounds) {
  unsigned Harts = 4 * Cores;
  return runWorkload(
      Opt, "barrier-x" + std::to_string(Rounds),
      barrierProgram(Harts, Rounds), sim::SimConfig::lbp(Cores),
      [Harts](sim::Machine &M) { verifyBarrier(M, Harts); });
}

WorkloadResult benchPhases(const Options &Opt, unsigned Harts) {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = Harts;
  auto Verify = [Spec](sim::Machine &M) {
    for (unsigned T = 0; T != Spec.NumHarts; ++T) {
      uint32_t Got = M.debugReadWord(workloads::phasesOutAddress(Spec, T));
      if (Got != T * Spec.WordsPerChunk) {
        std::fprintf(stderr, "bench_simspeed: phases out[%u] wrong\n", T);
        std::exit(1);
      }
    }
  };
  sim::SimConfig Cfg = sim::SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  return runWorkload(Opt, "phases", workloads::buildPhasesProgram(Spec),
                     Cfg, Verify);
}

WorkloadResult benchMatMul(const Options &Opt, unsigned Harts,
                           workloads::MatMulVersion V) {
  workloads::MatMulSpec Spec = workloads::MatMulSpec::paper(Harts, V);
  auto Verify = [Spec](sim::Machine &M) {
    unsigned H = Spec.h();
    for (unsigned I = 0; I < H; I += H / 8) {
      for (unsigned J = 0; J < H; J += H / 8) {
        if (M.debugReadWord(workloads::zElementAddress(Spec, I, J)) !=
            H / 2) {
          std::fprintf(stderr, "bench_simspeed: matmul Z wrong\n");
          std::exit(1);
        }
      }
    }
  };
  sim::SimConfig Cfg = sim::SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  return runWorkload(Opt,
                     std::string("matmul-") +
                         workloads::matMulVersionName(Spec.Version) + "-c" +
                         std::to_string(Spec.cores()),
                     workloads::buildMatMulProgram(Spec), Cfg, Verify);
}

/// Steady-state allocation check: run the periodic barrier workload to
/// its midpoint (every vector in the machine reaches its plateau
/// capacity during the first rounds), then count heap allocations over
/// the rest of the run. The serial engines promise zero — the delivery
/// wheel, DueBuf, overflow heap and trace are all capacity-reusing flat
/// structures. Returns the post-warm-up allocation count.
uint64_t steadyStateAllocs(bool FastPath) {
  std::string Src = barrierProgram(/*NumHarts=*/16, /*Rounds=*/12);
  assembler::AsmResult R = assembler::assemble(Src);
  if (!R.succeeded()) {
    std::fprintf(stderr, "bench_simspeed: barrier assembly failed\n");
    std::exit(1);
  }
  sim::SimConfig Cfg = sim::SimConfig::lbp(4);
  Cfg.FastPath = FastPath;

  // Full run once to learn the total cycle count.
  sim::Machine Probe(Cfg);
  Probe.load(R.Prog);
  if (Probe.run() != sim::RunStatus::Exited) {
    std::fprintf(stderr, "bench_simspeed: alloc-probe run failed\n");
    std::exit(1);
  }
  uint64_t Total = Probe.cycles();

  // Warm-up to the midpoint, then measure the remainder.
  sim::Machine M(Cfg);
  M.load(R.Prog);
  if (M.run(Total / 2) != sim::RunStatus::MaxCycles) {
    std::fprintf(stderr, "bench_simspeed: alloc warm-up ended early\n");
    std::exit(1);
  }
  uint64_t Before = GAllocCount.load(std::memory_order_relaxed);
  if (M.run() != sim::RunStatus::Exited) {
    std::fprintf(stderr, "bench_simspeed: alloc measured run failed\n");
    std::exit(1);
  }
  uint64_t After = GAllocCount.load(std::memory_order_relaxed);
  verifyBarrier(M, 16);
  return After - Before;
}

/// The --counters measurement: the barrier workload with the counter
/// sink disabled vs enabled on the fast path. Dies on a hash divergence
/// (counters must be hash-neutral) or on steady-state allocation with
/// the counters armed; timing noise only ever changes the reported
/// overhead, never the exit status.
struct CounterCost {
  double DisabledSeconds = 0.0;
  double EnabledSeconds = 0.0;
  double OverheadPct = 0.0;
  uint64_t SteadyAllocs = 0;
};

CounterCost benchCounters(const Options &Opt) {
  unsigned Cores = Opt.Quick ? 4 : 16;
  unsigned Rounds = Opt.Quick ? 8 : 16;
  unsigned Harts = 4 * Cores;
  assembler::AsmResult R = assembler::assemble(barrierProgram(Harts, Rounds));
  if (!R.succeeded()) {
    std::fprintf(stderr, "bench_simspeed: counter-bench assembly failed\n");
    std::exit(1);
  }
  sim::SimConfig Cfg = sim::SimConfig::lbp(Cores);

  std::unique_ptr<sim::Machine> Counted; // last enabled run, for the summary
  auto Timed = [&](bool Collect, uint64_t &HashOut) -> double {
    double Best = 0.0;
    for (int Rep = 0; Rep != 3; ++Rep) { // best-of-3 damps host noise
      sim::SimConfig C = Cfg;
      C.CollectCounters = Collect;
      auto M = std::make_unique<sim::Machine>(C);
      M->load(R.Prog);
      auto T0 = std::chrono::steady_clock::now();
      if (M->run() != sim::RunStatus::Exited) {
        std::fprintf(stderr, "bench_simspeed: counter-bench run failed\n");
        std::exit(1);
      }
      auto T1 = std::chrono::steady_clock::now();
      verifyBarrier(*M, Harts);
      HashOut = M->traceHash();
      double Sec = std::chrono::duration<double>(T1 - T0).count();
      if (Rep == 0 || Sec < Best)
        Best = Sec;
      if (Collect)
        Counted = std::move(M);
    }
    return Best;
  };

  CounterCost Cost;
  uint64_t HashOff = 0, HashOn = 0;
  Cost.DisabledSeconds = Timed(false, HashOff);
  Cost.EnabledSeconds = Timed(true, HashOn);
  if (HashOff != HashOn) {
    std::fprintf(stderr,
                 "bench_simspeed: counters perturbed the trace hash "
                 "(%016llx vs %016llx)\n",
                 static_cast<unsigned long long>(HashOff),
                 static_cast<unsigned long long>(HashOn));
    std::exit(1);
  }
  if (Cost.DisabledSeconds > 0.0)
    Cost.OverheadPct = (Cost.EnabledSeconds - Cost.DisabledSeconds) /
                       Cost.DisabledSeconds * 100.0;

  const obs::PerfCounters &PC = Counted->counters();
  uint64_t Commits = 0;
  for (uint64_t C : PC.CommitsPerCore)
    Commits += C;
  std::printf("counters: overhead %.1f%% (off %.3fs, on %.3fs)  "
              "commits %llu, forks %llu, token-passes %llu, joins %llu, "
              "token-latency mean %.1f cycles\n",
              Cost.OverheadPct, Cost.DisabledSeconds, Cost.EnabledSeconds,
              static_cast<unsigned long long>(Commits),
              static_cast<unsigned long long>(PC.Forks),
              static_cast<unsigned long long>(PC.TokenPasses),
              static_cast<unsigned long long>(PC.Joins),
              PC.TokenLatency.mean());

  // Steady-state allocations with the counters armed: the sink's state
  // is preallocated by init(), so the zero-alloc property must survive.
  {
    sim::SimConfig C = Cfg;
    C.CollectCounters = true;
    sim::Machine Probe(C);
    Probe.load(R.Prog);
    if (Probe.run() != sim::RunStatus::Exited) {
      std::fprintf(stderr, "bench_simspeed: counter alloc probe failed\n");
      std::exit(1);
    }
    sim::Machine M(C);
    M.load(R.Prog);
    if (M.run(Probe.cycles() / 2) != sim::RunStatus::MaxCycles) {
      std::fprintf(stderr, "bench_simspeed: counter warm-up ended early\n");
      std::exit(1);
    }
    uint64_t Before = GAllocCount.load(std::memory_order_relaxed);
    if (M.run() != sim::RunStatus::Exited) {
      std::fprintf(stderr, "bench_simspeed: counter measured run failed\n");
      std::exit(1);
    }
    Cost.SteadyAllocs = GAllocCount.load(std::memory_order_relaxed) - Before;
    if (Cost.SteadyAllocs != 0) {
      std::fprintf(stderr,
                   "bench_simspeed: %llu steady-state allocations with "
                   "counters on (expected zero)\n",
                   static_cast<unsigned long long>(Cost.SteadyAllocs));
      std::exit(1);
    }
  }
  return Cost;
}

/// The interval-digest cost on the same barrier workload: digesting off
/// (DigestInterval = 0) vs on (the default 4096). The final hashes must
/// match bit for bit (digesting only *reads* the hash accumulator) and
/// the steady state must stay allocation-free (the ring is preallocated
/// by configureDigests) — both are hard assertions. The timing gate
/// (<= 1% on top of the baseline) is evaluateGates' job.
struct DigestCost {
  double DisabledSeconds = 0.0;
  double EnabledSeconds = 0.0;
  double OverheadPct = 0.0;
  uint64_t SteadyAllocs = 0;
};

DigestCost benchDigests(const Options &Opt) {
  unsigned Cores = Opt.Quick ? 4 : 16;
  unsigned Rounds = Opt.Quick ? 8 : 16;
  unsigned Harts = 4 * Cores;
  assembler::AsmResult R = assembler::assemble(barrierProgram(Harts, Rounds));
  if (!R.succeeded()) {
    std::fprintf(stderr, "bench_simspeed: digest-bench assembly failed\n");
    std::exit(1);
  }
  sim::SimConfig Cfg = sim::SimConfig::lbp(Cores);

  auto Timed = [&](uint64_t Interval, uint64_t &HashOut) -> double {
    double Best = 0.0;
    for (int Rep = 0; Rep != 3; ++Rep) { // best-of-3 damps host noise
      sim::SimConfig C = Cfg;
      C.DigestInterval = Interval;
      sim::Machine M(C);
      M.load(R.Prog);
      auto T0 = std::chrono::steady_clock::now();
      if (M.run() != sim::RunStatus::Exited) {
        std::fprintf(stderr, "bench_simspeed: digest-bench run failed\n");
        std::exit(1);
      }
      auto T1 = std::chrono::steady_clock::now();
      verifyBarrier(M, Harts);
      HashOut = M.traceHash();
      double Sec = std::chrono::duration<double>(T1 - T0).count();
      if (Rep == 0 || Sec < Best)
        Best = Sec;
    }
    return Best;
  };

  DigestCost Cost;
  uint64_t HashOff = 0, HashOn = 0;
  Cost.DisabledSeconds = Timed(0, HashOff);
  Cost.EnabledSeconds = Timed(4096, HashOn);
  if (HashOff != HashOn) {
    std::fprintf(stderr,
                 "bench_simspeed: interval digests perturbed the trace "
                 "hash (%016llx vs %016llx)\n",
                 static_cast<unsigned long long>(HashOff),
                 static_cast<unsigned long long>(HashOn));
    std::exit(1);
  }
  if (Cost.DisabledSeconds > 0.0)
    Cost.OverheadPct = (Cost.EnabledSeconds - Cost.DisabledSeconds) /
                       Cost.DisabledSeconds * 100.0;
  std::printf("digests: overhead %.1f%% (off %.3fs, on %.3fs)\n",
              Cost.OverheadPct, Cost.DisabledSeconds, Cost.EnabledSeconds);

  // Steady-state allocations with digesting armed: the ring is
  // preallocated, so the zero-alloc property must survive.
  {
    sim::SimConfig C = Cfg;
    C.DigestInterval = 4096;
    sim::Machine Probe(C);
    Probe.load(R.Prog);
    if (Probe.run() != sim::RunStatus::Exited) {
      std::fprintf(stderr, "bench_simspeed: digest alloc probe failed\n");
      std::exit(1);
    }
    sim::Machine M(C);
    M.load(R.Prog);
    if (M.run(Probe.cycles() / 2) != sim::RunStatus::MaxCycles) {
      std::fprintf(stderr, "bench_simspeed: digest warm-up ended early\n");
      std::exit(1);
    }
    uint64_t Before = GAllocCount.load(std::memory_order_relaxed);
    if (M.run() != sim::RunStatus::Exited) {
      std::fprintf(stderr, "bench_simspeed: digest measured run failed\n");
      std::exit(1);
    }
    Cost.SteadyAllocs = GAllocCount.load(std::memory_order_relaxed) - Before;
    if (Cost.SteadyAllocs != 0) {
      std::fprintf(stderr,
                   "bench_simspeed: %llu steady-state allocations with "
                   "digests on (expected zero)\n",
                   static_cast<unsigned long long>(Cost.SteadyAllocs));
      std::exit(1);
    }
  }

  return Cost;
}

/// One threshold check on the measured numbers. Every gate that applies
/// to the run is evaluated before the JSON is written and lands in its
/// "gates" array, pass or fail, so a failing run's payload says which
/// gate failed and by how much; main turns any failure into exit 1
/// only after the JSON is on disk.
struct GateRecord {
  std::string Name;
  bool AtMost; ///< Passes when Measured <= Threshold, else when >=.
  double Threshold;
  double Measured;

  const char *op() const { return AtMost ? "<=" : ">="; }
  bool pass() const {
    return AtMost ? Measured <= Threshold : Measured >= Threshold;
  }
};

void addGate(std::vector<GateRecord> &Gates, GateRecord G) {
  if (!G.pass())
    std::fprintf(stderr,
                 "bench_simspeed: gate %s failed: measured %.3f, "
                 "threshold %s %.3f\n",
                 G.Name.c_str(), G.Measured, G.op(), G.Threshold);
  Gates.push_back(std::move(G));
}

/// Evaluates every gate that applies to this run (thresholds in
/// docs/PERFORMANCE.md).
std::vector<GateRecord>
evaluateGates(const Options &Opt, const std::vector<WorkloadResult> &Results,
              const DigestCost *Digests) {
  std::vector<GateRecord> Gates;
  // Scaling smoke gate (quick and full): on the barrier workload, two
  // shard workers must not regress more than 25% below one. Only
  // meaningful with at least two host cpus behind the threads; on a
  // single-cpu runner the cells still ran (oversubscribed) for the
  // bit-identity matrix, but their timings measure the scheduler.
  if (std::thread::hardware_concurrency() >= 2) {
    for (const WorkloadResult &W : Results) {
      if (W.Name.rfind("barrier", 0) != 0)
        continue;
      const EngineResult *T1 = nullptr, *T2 = nullptr;
      for (const EngineResult &E : W.Engines) {
        if (E.Spec == EngineSpec{EngineSpec::Kind::Parallel, 1})
          T1 = &E;
        else if (E.Spec == EngineSpec{EngineSpec::Kind::Parallel, 2})
          T2 = &E;
      }
      if (T1 && T2 && T1->HostSeconds > 0.0)
        addGate(Gates, {W.Name + " parallel-t2/parallel-t1 host seconds",
                        true, 1.25, T2->HostSeconds / T1->HostSeconds});
    }
  }

  if (!Opt.Quick) {
    // Acceptance gates. The FastPath one is unconditional; the parallel
    // scaling one only makes sense with enough host cpus (single-cpu CI
    // runners cannot speed anything up by threading, but they still ran
    // the full bit-identity matrix above).
    for (const WorkloadResult &W : Results) {
      if (W.Cores == 64 && W.Name.rfind("barrier", 0) == 0 &&
          Opt.RunReference && Opt.RunFastPath)
        addGate(Gates,
                {W.Name + " fastpath speedup", false, 3.0, W.FastSpeedup});
      if (W.Cores == 64 && W.Name.rfind("matmul-tiled", 0) == 0 &&
          Opt.RunFastPath && Opt.RunParallel &&
          std::thread::hardware_concurrency() >= 8)
        addGate(Gates, {W.Name + " parallel speedup", false, 3.0,
                        W.ParallelSpeedup});
    }
    // Interval digests may cost at most 1% on top of the baseline; quick
    // runs record the number without gating on host noise.
    if (Digests)
      addGate(Gates, {"interval-digest overhead pct", true, 1.0,
                      Digests->OverheadPct});
  }
  return Gates;
}

void writeJson(const Options &Opt, const std::vector<WorkloadResult> &Results,
               uint64_t RefAllocs, uint64_t FastAllocs,
               const CounterCost *Counters, const DigestCost *Digests,
               const std::vector<GateRecord> &Gates) {
  std::FILE *F = std::fopen(Opt.OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "bench_simspeed: cannot open %s\n",
                 Opt.OutPath.c_str());
    std::exit(1);
  }
  std::fprintf(F, "{\n  \"bench\": \"simspeed\",\n  \"quick\": %s,\n",
               Opt.Quick ? "true" : "false");
  bool GateFailed = std::any_of(Gates.begin(), Gates.end(),
                                [](const GateRecord &G) { return !G.pass(); });
  std::fprintf(F, "  \"exit_reason\": \"%s\",\n",
               !Divergences.empty() ? "engine-divergence"
               : GateFailed         ? "gate-failed"
                                    : "ok");
  std::fprintf(F, "  \"gates\": [");
  for (size_t I = 0; I != Gates.size(); ++I) {
    const GateRecord &G = Gates[I];
    std::fprintf(F,
                 "%s\n    {\"name\": \"%s\", \"op\": \"%s\", "
                 "\"threshold\": %.3f, \"measured\": %.6f, \"pass\": %s}",
                 I ? "," : "", G.Name.c_str(), G.op(), G.Threshold,
                 G.Measured, G.pass() ? "true" : "false");
  }
  std::fprintf(F, "%s],\n", Gates.empty() ? "" : "\n  ");
  std::fprintf(F, "  \"divergences\": [");
  for (size_t I = 0; I != Divergences.size(); ++I) {
    // Both cells of the mismatched pair are named in full — engine and
    // host threads each side — so a triage run is launchable from the
    // JSON alone; the embedded "triage" object already holds one.
    const DivergenceRecord &D = Divergences[I];
    std::fprintf(F,
                 "%s\n    {\"workload\": \"%s\", \"engine\": \"%s\", "
                 "\"host_threads\": %u,\n"
                 "     \"reference_engine\": \"%s\", "
                 "\"reference_host_threads\": %u,\n"
                 "     \"reference\": {\"cycles\": %llu, \"retired\": %llu, "
                 "\"trace_hash\": \"%016llx\"},\n"
                 "     \"got\": {\"cycles\": %llu, \"retired\": %llu, "
                 "\"trace_hash\": \"%016llx\"},\n"
                 "     \"triage\": %s}",
                 I ? "," : "", D.Workload.c_str(), D.Spec.name().c_str(),
                 D.Spec.Threads, D.RefSpec.name().c_str(), D.RefSpec.Threads,
                 static_cast<unsigned long long>(D.Ref.Cycles),
                 static_cast<unsigned long long>(D.Ref.Retired),
                 static_cast<unsigned long long>(D.Ref.Hash),
                 static_cast<unsigned long long>(D.Got.Cycles),
                 static_cast<unsigned long long>(D.Got.Retired),
                 static_cast<unsigned long long>(D.Got.Hash),
                 D.TriageJson.empty() ? "null" : D.TriageJson.c_str());
  }
  std::fprintf(F, "%s],\n", Divergences.empty() ? "" : "\n  ");
  std::fprintf(F, "  \"host_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(F, "  \"thread_list\": [");
  for (size_t I = 0; I != Opt.Threads.size(); ++I)
    std::fprintf(F, "%s%u", I ? ", " : "", Opt.Threads[I]);
  std::fprintf(F, "],\n");
  std::fprintf(F,
               "  \"steady_state_allocs\": {\"reference\": %llu, "
               "\"fastpath\": %llu},\n",
               static_cast<unsigned long long>(RefAllocs),
               static_cast<unsigned long long>(FastAllocs));
  if (Counters)
    std::fprintf(F,
                 "  \"counters\": {\"disabled_seconds\": %.6f, "
                 "\"enabled_seconds\": %.6f, \"overhead_pct\": %.2f, "
                 "\"steady_state_allocs\": %llu, "
                 "\"hash_identical\": true},\n",
                 Counters->DisabledSeconds, Counters->EnabledSeconds,
                 Counters->OverheadPct,
                 static_cast<unsigned long long>(Counters->SteadyAllocs));
  if (Digests)
    std::fprintf(F,
                 "  \"digests\": {\"disabled_seconds\": %.6f, "
                 "\"enabled_seconds\": %.6f, \"overhead_pct\": %.2f, "
                 "\"steady_state_allocs\": %llu, "
                 "\"hash_identical\": true},\n",
                 Digests->DisabledSeconds, Digests->EnabledSeconds,
                 Digests->OverheadPct,
                 static_cast<unsigned long long>(Digests->SteadyAllocs));
  std::fprintf(F, "  \"workloads\": [\n");
  for (size_t I = 0; I != Results.size(); ++I) {
    const WorkloadResult &W = Results[I];
    const Fingerprint &Fp = W.Engines.front().Fp;
    std::fprintf(F, "    {\n      \"name\": \"%s\",\n"
                    "      \"cores\": %u,\n      \"harts\": %u,\n",
                 W.Name.c_str(), W.Cores, 4 * W.Cores);
    std::fprintf(F,
                 "      \"sim_cycles\": %llu,\n      \"retired\": %llu,\n"
                 "      \"trace_hash\": \"%016llx\",\n",
                 static_cast<unsigned long long>(Fp.Cycles),
                 static_cast<unsigned long long>(Fp.Retired),
                 static_cast<unsigned long long>(Fp.Hash));
    std::fprintf(F, "      \"engines\": [\n");
    for (size_t J = 0; J != W.Engines.size(); ++J) {
      const EngineResult &E = W.Engines[J];
      std::fprintf(F,
                   "        {\"engine\": \"%s\", \"host_threads\": %u, "
                   "\"host_seconds\": %.6f, \"cycles_per_sec\": %.1f, "
                   "\"mips\": %.3f, \"peak_rss_kb\": %ld, "
                   "\"identical\": %s, \"engine_used\": \"%s\"",
                   E.Spec.name().c_str(), E.Spec.Threads, E.HostSeconds,
                   E.CyclesPerSec, E.Mips, E.PeakRssKb,
                   E.Identical ? "true" : "false", E.EngineUsed.c_str());
      if (!E.EngineNote.empty())
        std::fprintf(F, ",\n         \"engine_note\": \"%s\"",
                     E.EngineNote.c_str());
      if (E.EngineUsed == "parallel") {
        const sim::Machine::EngineStats &S = E.Stats;
        std::fprintf(
            F,
            ",\n         \"engine_stats\": {\"workers_used\": %u, "
            "\"epochs_merged\": %llu, \"window_cycles\": %llu, "
            "\"gated_cycles\": %llu, \"skipped_cycles\": %llu, "
            "\"rebalances\": %llu, \"shard_seconds\": %.6f, "
            "\"merge_seconds\": %.6f, \"window_hist\": [",
            S.WorkersUsed, static_cast<unsigned long long>(S.EpochsMerged),
            static_cast<unsigned long long>(S.WindowCycles),
            static_cast<unsigned long long>(S.GatedCycles),
            static_cast<unsigned long long>(S.SkippedCycles),
            static_cast<unsigned long long>(S.Rebalances),
            static_cast<double>(S.ShardNanos) / 1e9,
            static_cast<double>(S.MergeNanos) / 1e9);
        for (size_t K = 0; K != sizeof(S.WindowHist) / sizeof(uint64_t);
             ++K)
          std::fprintf(F, "%s%llu", K ? ", " : "",
                       static_cast<unsigned long long>(S.WindowHist[K]));
        std::fprintf(F, "], \"clips\": {");
        for (unsigned R = 0; R != S.NumClipReasons; ++R)
          std::fprintf(F, "%s\"%s\": %llu", R ? ", " : "", S.clipName(R),
                       static_cast<unsigned long long>(S.Clips[R]));
        std::fprintf(F, "}}");
      }
      std::fprintf(F, "}%s\n", J + 1 == W.Engines.size() ? "" : ",");
    }
    std::fprintf(F, "      ],\n");
    std::fprintf(F,
                 "      \"fastpath_speedup\": %.3f,\n"
                 "      \"parallel_speedup\": %.3f\n    }%s\n",
                 W.FastSpeedup, W.ParallelSpeedup,
                 I + 1 == Results.size() ? "" : ",");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("wrote %s\n", Opt.OutPath.c_str());
}

void printUsage(const char *Argv0) {
  std::printf(
      "usage: %s [options]\n"
      "\n"
      "Host simulation-speed benchmark and three-way engine differential\n"
      "(reference loop / fast path / sharded parallel engine).\n"
      "\n"
      "  --help           this text\n"
      "  --quick          small configs only (CI smoke)\n"
      "  --out FILE       JSON output path (default BENCH_simspeed.json)\n"
      "  --threads LIST   comma-separated HostThreads sweep for the\n"
      "                   parallel engine (default 1,2,4,8)\n"
      "  --engines LIST   comma-separated subset of\n"
      "                   reference,fastpath,parallel (default all)\n"
      "  --counters       also measure the deterministic counter set's\n"
      "                   and the interval-digest ring's overhead\n"
      "                   (hash-neutrality and steady-state allocation\n"
      "                   asserted; docs/OBSERVABILITY.md)\n"
      "  --perturb N      arm SimConfig::PerturbForTest at cycle N so the\n"
      "                   differential matrix diverges on purpose; the\n"
      "                   divergence records then embed triage reports\n"
      "\n"
      "Exit status: 0 ok; 1 divergence, gate failure or bad run;\n"
      "2 bad command line (e.g. unknown engine name).\n",
      Argv0);
}

bool parseThreadList(const char *Arg, std::vector<unsigned> &Out) {
  Out.clear();
  const char *P = Arg;
  while (*P) {
    char *End = nullptr;
    unsigned long V = std::strtoul(P, &End, 10);
    if (End == P || V == 0 || V > 256)
      return false;
    Out.push_back(static_cast<unsigned>(V));
    P = End;
    if (*P == ',')
      ++P;
    else if (*P)
      return false;
  }
  return !Out.empty();
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--help") == 0) {
      printUsage(argv[0]);
      return 0;
    }
    if (std::strcmp(argv[I], "--quick") == 0) {
      Opt.Quick = true;
    } else if (std::strcmp(argv[I], "--counters") == 0) {
      Opt.Counters = true;
    } else if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc) {
      Opt.OutPath = argv[++I];
    } else if (std::strcmp(argv[I], "--perturb") == 0 && I + 1 < argc) {
      char *End = nullptr;
      Opt.Perturb = std::strtoull(argv[++I], &End, 0);
      if (!End || *End || Opt.Perturb == 0) {
        std::fprintf(stderr, "bench_simspeed: bad --perturb cycle '%s'\n",
                     argv[I]);
        return 2;
      }
    } else if (std::strcmp(argv[I], "--threads") == 0 && I + 1 < argc) {
      if (!parseThreadList(argv[++I], Opt.Threads)) {
        std::fprintf(stderr, "bench_simspeed: bad --threads list '%s'\n",
                     argv[I]);
        return 2;
      }
    } else if (std::strcmp(argv[I], "--engines") == 0 && I + 1 < argc) {
      Opt.RunReference = Opt.RunFastPath = Opt.RunParallel = false;
      std::string List = argv[++I];
      size_t Pos = 0;
      while (Pos <= List.size()) {
        size_t Comma = List.find(',', Pos);
        std::string Name = List.substr(
            Pos, Comma == std::string::npos ? Comma : Comma - Pos);
        if (Name == "reference")
          Opt.RunReference = true;
        else if (Name == "fastpath")
          Opt.RunFastPath = true;
        else if (Name == "parallel")
          Opt.RunParallel = true;
        else {
          std::fprintf(stderr,
                       "bench_simspeed: unknown engine '%s' (expected "
                       "reference, fastpath or parallel)\n",
                       Name.c_str());
          return 2;
        }
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
    } else {
      std::fprintf(stderr, "bench_simspeed: unknown option '%s'\n",
                   argv[I]);
      printUsage(argv[0]);
      return 2;
    }
  }

  // The allocation assertion runs first (it is also a correctness run):
  // the serial engines must not allocate in steady state.
  uint64_t RefAllocs = steadyStateAllocs(/*FastPath=*/false);
  uint64_t FastAllocs = steadyStateAllocs(/*FastPath=*/true);
  std::printf("steady-state allocations: reference %llu, fastpath %llu\n",
              static_cast<unsigned long long>(RefAllocs),
              static_cast<unsigned long long>(FastAllocs));
  if (RefAllocs != 0 || FastAllocs != 0) {
    std::fprintf(stderr, "bench_simspeed: serial engines allocated in "
                         "steady state (expected zero)\n");
    return 1;
  }

  std::vector<WorkloadResult> Results;
  if (Opt.Quick) {
    Results.push_back(benchBarrier(Opt, 4, 8));
    Results.push_back(benchPhases(Opt, 16));
  } else {
    Results.push_back(benchBarrier(Opt, 4, 32));
    Results.push_back(benchBarrier(Opt, 16, 16));
    Results.push_back(benchBarrier(Opt, 64, 8));
    Results.push_back(benchPhases(Opt, 16));
    Results.push_back(benchPhases(Opt, 64));
    Results.push_back(benchMatMul(Opt, 16, workloads::MatMulVersion::Base));
    Results.push_back(benchMatMul(Opt, 64, workloads::MatMulVersion::Tiled));
    Results.push_back(
        benchMatMul(Opt, 256, workloads::MatMulVersion::Tiled));
  }

  CounterCost Counters;
  DigestCost Digests;
  if (Opt.Counters) {
    Counters = benchCounters(Opt);
    Digests = benchDigests(Opt);
  }
  std::vector<GateRecord> Gates =
      evaluateGates(Opt, Results, Opt.Counters ? &Digests : nullptr);
  writeJson(Opt, Results, RefAllocs, FastAllocs,
            Opt.Counters ? &Counters : nullptr,
            Opt.Counters ? &Digests : nullptr, Gates);

  if (!Divergences.empty()) {
    std::fprintf(stderr,
                 "bench_simspeed: %zu engine divergence(s); see "
                 "\"divergences\" in %s\n",
                 Divergences.size(), Opt.OutPath.c_str());
    return 1;
  }
  for (const GateRecord &G : Gates)
    if (!G.pass())
      return 1;
  return 0;
}
