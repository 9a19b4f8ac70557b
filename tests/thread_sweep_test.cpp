//===- tests/thread_sweep_test.cpp - Parallel-engine invariance -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Thread-count invariance of the sharded parallel engine
// (sim/ParallelEngine.cpp): for every workload, every fault-injection
// class and mid-epoch MaxCycles truncation, a run with HostThreads in
// {1, 2, 4, 8} must produce the very same observable fingerprint —
// RunStatus, final cycle count, retired count, trace hash, fault
// message, and the full machine-check list — as the serial reference
// engine. This is the contract docs/PERFORMANCE.md ("Parallel engine")
// states; any divergence here is a parallel-engine bug by definition.
//
// The CI ThreadSanitizer job runs this binary under TSan, which turns
// the same sweep into a data-race check on the barrier protocol.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "frontend/Compiler.h"
#include "obs/Perfetto.h"
#include "obs/Report.h"
#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "sim/Device.h"
#include "sim/Machine.h"
#include "sim/ParallelEngine.h"
#include "support/SplitMix64.h"
#include "support/StringUtils.h"
#include "workloads/Dma.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"
#include "workloads/SensorFusion.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>

using namespace lbp;
using namespace lbp::sim;

namespace {

/// Everything a run can tell the outside world. Two engine/thread
/// configurations agree iff their fingerprints compare equal. Counters
/// is the full canonical snapshot (obs::countersToJson), so every cell
/// of the sweep also proves counter bit-identity.
struct Fingerprint {
  RunStatus Status;
  uint64_t Cycles;
  uint64_t Retired;
  uint64_t Hash;
  std::string Message;
  std::vector<MachineCheck> Checks;
  std::string Counters;
};

Fingerprint fingerprintOf(const Machine &M, RunStatus S) {
  return {S,
          M.cycles(),
          M.retired(),
          M.traceHash(),
          M.faultMessage(),
          M.machineChecks(),
          obs::countersToJson(M)};
}

Fingerprint runWith(const assembler::Program &Prog, SimConfig Cfg,
                    unsigned Threads, uint64_t MaxCycles) {
  Cfg.HostThreads = Threads;
  // Spawn real shard workers even on a small CI host — the sweep's
  // whole point is exercising actual cross-thread interleaving.
  Cfg.OversubscribeHost = true;
  Cfg.CollectCounters = true;
  Machine M(Cfg);
  M.load(Prog);
  return fingerprintOf(M, M.run(MaxCycles));
}

void expectSame(const Fingerprint &Ref, const Fingerprint &Got,
                const std::string &What) {
  EXPECT_EQ(static_cast<int>(Ref.Status), static_cast<int>(Got.Status))
      << What;
  EXPECT_EQ(Ref.Cycles, Got.Cycles) << What;
  EXPECT_EQ(Ref.Retired, Got.Retired) << What;
  EXPECT_EQ(Ref.Hash, Got.Hash) << What;
  EXPECT_EQ(Ref.Message, Got.Message) << What;
  EXPECT_EQ(Ref.Counters, Got.Counters) << What;
  ASSERT_EQ(Ref.Checks.size(), Got.Checks.size()) << What;
  for (size_t I = 0; I != Ref.Checks.size(); ++I) {
    EXPECT_EQ(Ref.Checks[I].Cycle, Got.Checks[I].Cycle) << What;
    EXPECT_EQ(static_cast<int>(Ref.Checks[I].Kind),
              static_cast<int>(Got.Checks[I].Kind))
        << What;
    EXPECT_EQ(Ref.Checks[I].Hart, Got.Checks[I].Hart) << What;
    EXPECT_EQ(Ref.Checks[I].Message, Got.Checks[I].Message) << What;
  }
}

/// Assembles \p Src and compares every engine/thread cell against the
/// serial reference, counter snapshots included. Two sub-sweeps because
/// the engines split on CollectStallStats: with it on the fast path
/// yields to the reference loop (it must observe every core-cycle), so
/// covering all three engines needs a stalls-on sweep (reference vs
/// sharded) and a stalls-off sweep (reference vs fast path vs sharded).
void expectThreadInvariant(const std::string &Src, SimConfig Cfg,
                           const std::string &What,
                           uint64_t MaxCycles = 2000000) {
  assembler::AsmResult R = assembler::assemble(Src);
  ASSERT_TRUE(R.succeeded()) << What << ":\n" << R.errorText();

  SimConfig SCfg = Cfg;
  SCfg.CollectStallStats = true;
  Fingerprint Ref = runWith(R.Prog, SCfg, /*Threads=*/1, MaxCycles);
  for (unsigned T : {2u, 4u, 8u}) {
    Fingerprint Par = runWith(R.Prog, SCfg, T, MaxCycles);
    expectSame(Ref, Par, What + formatString(" [stalls threads=%u]", T));
  }

  SimConfig FCfg = Cfg;
  FCfg.CollectStallStats = false;
  FCfg.FastPath = false;
  Fingerprint FRef = runWith(R.Prog, FCfg, /*Threads=*/1, MaxCycles);
  FCfg.FastPath = true;
  expectSame(FRef, runWith(R.Prog, FCfg, /*Threads=*/1, MaxCycles),
             What + " [fastpath]");
  expectSame(FRef, runWith(R.Prog, FCfg, /*Threads=*/4, MaxCycles),
             What + " [fast threads=4]");
}

/// The fault matrix every workload below is swept through: clean, one
/// plan per fault class, and a mixed plan. Window/seed values chosen so
/// each class actually fires on these workloads.
struct FaultCase {
  const char *Name;
  unsigned Drops, Delays, BitFlips, StuckBanks;
};
constexpr FaultCase FaultCases[] = {
    {"clean", 0, 0, 0, 0},       {"drops", 2, 0, 0, 0},
    {"delays", 0, 2, 0, 0},      {"bitflips", 0, 0, 2, 0},
    {"stuckbanks", 0, 0, 0, 2},  {"mixed", 1, 1, 1, 1},
};

SimConfig withFaults(SimConfig Cfg, const FaultCase &F, uint64_t Seed) {
  Cfg.Faults.Seed = Seed;
  Cfg.Faults.Drops = F.Drops;
  Cfg.Faults.Delays = F.Delays;
  Cfg.Faults.BitFlips = F.BitFlips;
  Cfg.Faults.StuckBanks = F.StuckBanks;
  Cfg.Faults.WindowBegin = 50;
  Cfg.Faults.WindowEnd = 4000;
  return Cfg;
}

void sweepFaults(const std::string &Src, SimConfig Cfg,
                 const std::string &What) {
  for (const FaultCase &F : FaultCases)
    expectThreadInvariant(Src, withFaults(Cfg, F, 0xF00Dull), What + "/" +
                                                                  F.Name);
}

/// The barrier-heavy shape from bench_simspeed: back-to-back parallel
/// regions whose workers do almost nothing, so the fork/join protocol
/// and the ending-token chain dominate — the traffic with the most
/// cross-shard deliveries per simulated cycle.
std::string barrierProgram(unsigned NumHarts, unsigned Rounds) {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
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

TEST(ThreadSweep, BarrierWorkload) {
  sweepFaults(barrierProgram(/*NumHarts=*/16, /*Rounds=*/6),
              SimConfig::lbp(4), "barrier");
}

/// Long quiescent stretches: each hart spins in a private ALU loop with
/// no memory traffic at all between the fork and the join, which is
/// exactly the shape the adaptive multi-cycle window planner exists for
/// (no deliveries due, no gate/send ops in flight).
std::string quiescentProgram(unsigned NumHarts, unsigned Rounds,
                             unsigned SpinIters) {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  Head.line("li s1, %u", Rounds);
  Head.label("round");
  romp::emitParallelCall(Head, "worker", NumHarts, "0");
  Head.line("addi s1, s1, -1");
  Head.line("bnez s1, round");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  return Head.str() + Tail.str() +
         formatString(R"(
    .equ OUT, 0x20000200
worker:
    li a2, %u
spin:
    addi a2, a2, -1
    bnez a2, spin
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    sw a0, 0(a4)
    p_syncm
    p_ret
)",
                      SpinIters);
}

TEST(ThreadSweep, QuiescentStretchesWorkload) {
  sweepFaults(quiescentProgram(/*NumHarts=*/16, /*Rounds=*/3,
                               /*SpinIters=*/300),
              SimConfig::lbp(4), "quiescent");
}

TEST(ThreadSweep, QuiescentStretchesUseMultiCycleEpochs) {
  // Beyond fingerprint invariance, prove the window machinery actually
  // engages on this shape: some epochs must span more than one cycle.
  assembler::AsmResult R = assembler::assemble(
      quiescentProgram(/*NumHarts=*/16, /*Rounds=*/3, /*SpinIters=*/300));
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.HostThreads = 4;
  Cfg.OversubscribeHost = true;
  Machine M(Cfg);
  M.load(R.Prog);
  ASSERT_EQ(static_cast<int>(M.run(2000000)),
            static_cast<int>(RunStatus::Exited));

  ASSERT_EQ(static_cast<int>(M.engineUsed()),
            static_cast<int>(Machine::EngineKind::Parallel));
  const Machine::EngineStats &ES = M.engineStats();
  EXPECT_GT(ES.EpochsMerged, 0u);
  EXPECT_GT(ES.WindowCycles, 0u) << "no multi-cycle epoch ever ran";
  uint64_t MultiCycleEpochs = 0;
  for (unsigned W = 2; W <= MaxEpochWindow; ++W)
    MultiCycleEpochs += ES.WindowHist[W];
  EXPECT_GT(MultiCycleEpochs, 0u);
}

/// Dense cross-shard traffic: every hart hammers the *next* core's
/// global bank, so nearly every delivery crosses a shard boundary and
/// the window planner must keep clipping back to one-cycle windows —
/// the adversarial case for the window due-scan.
std::string crossBankProgram(unsigned NumHarts, unsigned Rounds,
                             unsigned Iters) {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  Head.line("li s1, %u", Rounds);
  Head.label("round");
  romp::emitParallelCall(Head, "worker", NumHarts, "0");
  Head.line("addi s1, s1, -1");
  Head.line("bnez s1, round");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  return Head.str() + Tail.str() +
         formatString(R"(
worker:
    srli a4, a0, 2          # core id (4 harts per core)
    addi a4, a4, 1
    andi a4, a4, 3          # (core + 1) %% NumCores: always remote
    slli a4, a4, 16         # << GlobalBankSizeLog2 (64 KiB banks)
    li a5, 0x20000000
    add a4, a4, a5
    slli a6, a0, 2
    add a4, a4, a6          # per-hart word in the remote bank
    li a2, %u
loop:
    sw a0, 0(a4)
    p_syncm
    lw a6, 0(a4)
    p_syncm
    addi a2, a2, -1
    bnez a2, loop
    p_ret
)",
                      Iters);
}

TEST(ThreadSweep, DenseCrossShardTraffic) {
  sweepFaults(crossBankProgram(/*NumHarts=*/16, /*Rounds=*/2,
                               /*Iters=*/25),
              SimConfig::lbp(4), "crossbank");
}

TEST(ThreadSweep, RebalancingIsPlacementInvariant) {
  // The deterministic-rebalancing contract: neither the initial shard
  // partition nor the rebalance cadence may leave any observable mark.
  // Sweep both knobs against the serial reference on workloads with
  // skewed per-core load (quiescent spin) and heavy traffic (barrier).
  struct Cell {
    const char *Name;
    std::string Src;
  } Cells[] = {
      {"quiescent", quiescentProgram(16, 2, 200)},
      {"barrier", barrierProgram(16, 4)},
  };
  for (const Cell &C : Cells) {
    assembler::AsmResult R = assembler::assemble(C.Src);
    ASSERT_TRUE(R.succeeded()) << C.Name << ":\n" << R.errorText();
    SimConfig Cfg = SimConfig::lbp(4);
    Fingerprint Ref = runWith(R.Prog, Cfg, /*Threads=*/1, 2000000);
    for (unsigned Skew : {0u, 1u, 3u})
      for (uint64_t Interval : {0ull, 256ull, 4096ull}) {
        SimConfig PCfg = Cfg;
        PCfg.InitialShardSkew = Skew;
        PCfg.ShardRebalanceInterval = Interval;
        expectSame(Ref, runWith(R.Prog, PCfg, /*Threads=*/4, 2000000),
                   formatString("%s skew=%u interval=%llu", C.Name, Skew,
                                static_cast<unsigned long long>(Interval)));
      }
  }
}

TEST(ThreadSweep, PhasesWorkload) {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  SimConfig Cfg = SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  sweepFaults(workloads::buildPhasesProgram(Spec), Cfg, "phases");
}

TEST(ThreadSweep, MatMulTiled) {
  workloads::MatMulSpec Spec =
      workloads::MatMulSpec::paper(16, workloads::MatMulVersion::Tiled);
  SimConfig Cfg = SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  sweepFaults(workloads::buildMatMulProgram(Spec), Cfg, "matmul-tiled");
}

TEST(ThreadSweep, DetCCorpus) {
  for (const char *Name :
       {"vector_scale", "chunked_sum", "phased_stencil"}) {
    std::string Path =
        std::string(LBP_SOURCE_DIR "/examples/detc/") + Name + ".c";
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << "cannot open " << Path;
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Errors;
    std::string Asm = frontend::compileDetCToAsm(Buf.str(), Errors);
    ASSERT_FALSE(Asm.empty()) << Name << ":\n" << Errors;
    sweepFaults(Asm, SimConfig::lbp(4), std::string("detc-") + Name);
  }
}

/// Random well-formed single-hart programs (same generator family as
/// tests/differential_test.cpp, inlined in reduced form): ALU soup plus
/// global store/load traffic, exercising the memory-intent staging.
std::string randomProgram(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::string S = "main:\n";
  const char *Work[] = {"a0", "a1", "a2", "a3", "s0", "s1", "s2", "s3"};
  auto R = [&] { return Work[Rng.nextBelow(8)]; };
  for (unsigned K = 0; K != 8; ++K)
    S += formatString("  li %s, %d\n", Work[K],
                      static_cast<int32_t>(Rng.next()));
  for (unsigned Step = 0; Step != 60; ++Step) {
    switch (Rng.nextBelow(4)) {
    case 0: {
      static const char *Ops[] = {"add", "sub", "xor", "or", "and", "mul"};
      S += formatString("  %s %s, %s, %s\n", Ops[Rng.nextBelow(6)], R(),
                        R(), R());
      break;
    }
    case 1:
      S += formatString("  addi %s, %s, %d\n", R(), R(),
                        static_cast<int>(Rng.nextBelow(4096)) - 2048);
      break;
    case 2: {
      unsigned Slot = static_cast<unsigned>(Rng.nextBelow(16));
      S += formatString("  li t1, 0x20000%03x\n", Slot * 4);
      S += formatString("  sw %s, 0(t1)\n", R());
      S += "  p_syncm\n";
      S += formatString("  lw %s, 0(t1)\n", R());
      S += "  p_syncm\n";
      break;
    }
    default: {
      std::string Label = formatString("skip_%u", Step);
      S += formatString("  bne %s, %s, %s\n", R(), R(), Label.c_str());
      S += formatString("  add %s, %s, %s\n", R(), R(), R());
      S += Label + ":\n";
      break;
    }
    }
  }
  S += "  li ra, 0\n  li t0, -1\n  p_ret\n";
  return S;
}

TEST(ThreadSweep, RandomPrograms) {
  for (uint64_t Seed : {3ull, 77ull, 0xABCDull})
    expectThreadInvariant(randomProgram(Seed), SimConfig::lbp(4),
                          formatString("random seed %llu",
                                       static_cast<unsigned long long>(
                                           Seed)));
}

TEST(ThreadSweep, MaxCyclesTruncationMidEpoch) {
  // Cutting the budget mid-run must stop every thread count at the same
  // cycle with the same trace — including budgets that end a window
  // early.
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  SimConfig Cfg = SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  std::string Src = workloads::buildPhasesProgram(Spec);
  for (uint64_t MaxCycles : {100ull, 777ull, 2048ull})
    expectThreadInvariant(Src, Cfg,
                          formatString("phases truncated at %llu",
                                       static_cast<unsigned long long>(
                                           MaxCycles)),
                          MaxCycles);
}

TEST(ThreadSweep, TruncationUnderFaults) {
  std::string Src = barrierProgram(/*NumHarts=*/16, /*Rounds=*/6);
  for (const FaultCase &F : FaultCases)
    expectThreadInvariant(Src, withFaults(SimConfig::lbp(4), F, 0xD1CEull),
                          std::string("barrier truncated/") + F.Name, 777);
}

/// Perfetto + JSONL bytes for one run; the sinks observe the canonical
/// stream, so these must be identical for every engine.
struct TimelineCapture {
  std::string Perfetto;
  std::string Jsonl;
};

TimelineCapture captureTimelines(const assembler::Program &Prog,
                                 SimConfig Cfg, unsigned Threads) {
  Cfg.HostThreads = Threads;
  Cfg.OversubscribeHost = true;
  std::ostringstream POut, JOut;
  Machine M(Cfg);
  obs::PerfettoSink Perfetto(POut, Cfg);
  obs::JsonlSink Jsonl(JOut);
  M.addTraceSink(&Perfetto);
  M.addTraceSink(&Jsonl);
  M.load(Prog);
  M.run(2000000);
  Perfetto.finish(M.cycles());
  return {POut.str(), JOut.str()};
}

TEST(ThreadSweep, TimelineExportsAreEngineInvariant) {
  std::string Src = barrierProgram(/*NumHarts=*/16, /*Rounds=*/3);
  assembler::AsmResult R = assembler::assemble(Src);
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  for (const FaultCase &F : {FaultCases[0], FaultCases[5]}) {
    SimConfig Cfg = withFaults(SimConfig::lbp(4), F, 0xBEEFull);
    Cfg.FastPath = false;
    TimelineCapture Ref = captureTimelines(R.Prog, Cfg, 1);
    EXPECT_FALSE(Ref.Perfetto.empty());
    EXPECT_EQ(Ref.Perfetto.substr(Ref.Perfetto.size() - 3), "]}\n");
    Cfg.FastPath = true;
    TimelineCapture Fast = captureTimelines(R.Prog, Cfg, 1);
    EXPECT_EQ(Ref.Perfetto, Fast.Perfetto) << F.Name;
    EXPECT_EQ(Ref.Jsonl, Fast.Jsonl) << F.Name;
    for (unsigned T : {2u, 8u}) {
      TimelineCapture Par = captureTimelines(R.Prog, Cfg, T);
      EXPECT_EQ(Ref.Perfetto, Par.Perfetto) << F.Name << " T=" << T;
      EXPECT_EQ(Ref.Jsonl, Par.Jsonl) << F.Name << " T=" << T;
    }
  }
}

TEST(ThreadSweep, StallStatsNoLongerDowngradeTheEngine) {
  // Stall tallies are staged per shard now, so CollectStallStats plus
  // HostThreads > 1 must select the sharded engine — and say nothing.
  assembler::AsmResult R =
      assembler::assemble(barrierProgram(/*NumHarts=*/16, /*Rounds=*/2));
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.CollectStallStats = true;
  Cfg.HostThreads = 4;
  Cfg.OversubscribeHost = true;
  Machine M(Cfg);
  M.load(R.Prog);
  ASSERT_EQ(static_cast<int>(M.run(2000000)),
            static_cast<int>(RunStatus::Exited));
  EXPECT_EQ(static_cast<int>(M.engineUsed()),
            static_cast<int>(Machine::EngineKind::Parallel));
  EXPECT_TRUE(M.engineNote().empty()) << M.engineNote();
  EXPECT_GT(M.issuedCoreCycles(), 0u);
}

TEST(ThreadSweep, MemLogDowngradeIsDiagnosed) {
  // The one remaining forced downgrade: the mem-log needs the serial
  // reference access order. It must still happen — and now explain
  // itself through engineNote().
  assembler::AsmResult R =
      assembler::assemble(barrierProgram(/*NumHarts=*/16, /*Rounds=*/2));
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.CollectMemLog = true;
  Cfg.HostThreads = 4;
  Cfg.OversubscribeHost = true;
  Machine M(Cfg);
  M.load(R.Prog);
  ASSERT_EQ(static_cast<int>(M.run(2000000)),
            static_cast<int>(RunStatus::Exited));
  EXPECT_NE(static_cast<int>(M.engineUsed()),
            static_cast<int>(Machine::EngineKind::Parallel));
  EXPECT_FALSE(M.engineNote().empty());
  // The note must name the exact knob that forced the downgrade.
  EXPECT_NE(M.engineNote().find("CollectMemLog"), std::string::npos)
      << M.engineNote();

  // With one host thread nothing is downgraded, so nothing is noted.
  Cfg.HostThreads = 1;
  Machine S(Cfg);
  S.load(R.Prog);
  ASSERT_EQ(static_cast<int>(S.run(2000000)),
            static_cast<int>(RunStatus::Exited));
  EXPECT_TRUE(S.engineNote().empty()) << S.engineNote();
}

/// Attaches a workload's devices to a fresh machine and returns a
/// reader of what they recorded once the run is over.
using AttachDevices =
    std::function<std::function<std::vector<uint64_t>()>(Machine &)>;

/// Runs a device workload on reference, fast path and the sharded engine
/// at 2 and 4 workers. Device accesses run on the parallel engine's
/// serial cycles, so this is the sweep that drives them: every cell must
/// match the reference fingerprint and the devices' records.
void expectDeviceInvariant(const std::string &Src, const SimConfig &Cfg,
                           const AttachDevices &Attach,
                           const std::string &What) {
  assembler::AsmResult R = assembler::assemble(Src);
  ASSERT_TRUE(R.succeeded()) << What << ":\n" << R.errorText();
  struct Cell {
    const char *Name;
    bool FastPath;
    unsigned Threads;
  };
  constexpr Cell Cells[] = {{"reference", false, 1},
                            {"fastpath", true, 1},
                            {"parallel-t2", true, 2},
                            {"parallel-t4", true, 4}};
  Fingerprint Ref;
  std::vector<uint64_t> RefOut;
  for (const Cell &C : Cells) {
    SimConfig CCfg = Cfg;
    CCfg.FastPath = C.FastPath;
    CCfg.HostThreads = C.Threads;
    CCfg.OversubscribeHost = true;
    CCfg.CollectCounters = true;
    Machine M(CCfg);
    std::function<std::vector<uint64_t>()> Output = Attach(M);
    M.load(R.Prog);
    Fingerprint Got = fingerprintOf(M, M.run(20000000));
    std::string Where = What + " [" + C.Name + "]";
    if (C.Threads > 1)
      EXPECT_EQ(static_cast<int>(M.engineUsed()),
                static_cast<int>(Machine::EngineKind::Parallel))
          << Where;
    if (&C == &Cells[0]) {
      ASSERT_EQ(static_cast<int>(Got.Status),
                static_cast<int>(RunStatus::Exited))
          << Where << ": " << M.faultMessage();
      Ref = Got;
      RefOut = Output();
      ASSERT_FALSE(RefOut.empty()) << Where;
      continue;
    }
    expectSame(Ref, Got, Where);
    EXPECT_EQ(RefOut, Output()) << Where;
  }
}

TEST(ThreadSweep, DeviceWorkloadsAreThreadInvariant) {
  // DMA streaming: 16 harts on 4 cores, controllers polling the stream
  // devices while workers compute (tests/workloads_misc_test.cpp).
  workloads::DmaSpec Dma;
  Dma.Workers = 14;
  Dma.ItemsPerWorker = 8;
  expectDeviceInvariant(
      workloads::buildDmaStreamProgram(Dma), SimConfig::lbp(Dma.cores()),
      [&Dma](Machine &M) {
        auto Out = std::make_unique<StreamOutDevice>();
        StreamOutDevice *OutPtr = Out.get();
        M.addDevice(workloads::DmaInDeviceBase, 0x100,
                    std::make_unique<StreamInDevice>(
                        workloads::dmaInputStream(Dma)));
        M.addDevice(workloads::DmaOutDeviceBase, 0x100, std::move(Out));
        return [OutPtr] {
          return std::vector<uint64_t>(OutPtr->data().begin(),
                                       OutPtr->data().end());
        };
      },
      "dma");

  // Sensor fusion: four sensors with seeded response latencies and an
  // actuator whose records carry the cycle of every write. The team
  // runs on core 0; the other cores give the shards something to own.
  workloads::SensorFusionSpec Fusion;
  Fusion.Rounds = 4;
  expectDeviceInvariant(
      workloads::buildSensorFusionProgram(Fusion), SimConfig::lbp(4),
      [&Fusion](Machine &M) {
        for (unsigned S = 0; S != 4; ++S) {
          std::vector<uint32_t> Samples;
          for (unsigned K = 0; K != Fusion.Rounds; ++K)
            Samples.push_back(100 * (S + 1) + K);
          M.addDevice(workloads::SensorBase(S), 0x100,
                      std::make_unique<SensorDevice>(Samples, 11 + S, 20,
                                                     400));
        }
        auto Act = std::make_unique<ActuatorDevice>();
        ActuatorDevice *ActPtr = Act.get();
        M.addDevice(workloads::ActuatorBase, 0x100, std::move(Act));
        return [ActPtr] {
          std::vector<uint64_t> Out;
          for (const ActuatorDevice::Record &Rec : ActPtr->records()) {
            Out.push_back(Rec.Cycle);
            Out.push_back(Rec.Value);
          }
          return Out;
        };
      },
      "sensor-fusion");
}

TEST(ThreadSweep, FaultPlansRunOneCycleWindows) {
  // A fault plan keys its triggers on the serial schedule cycle, which
  // only a one-cycle window replays exactly: with a plan armed the
  // engine must run its parallel epochs as one-cycle windows and never
  // as multi-cycle ones.
  assembler::AsmResult R =
      assembler::assemble(barrierProgram(/*NumHarts=*/16, /*Rounds=*/4));
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  SimConfig Cfg = withFaults(SimConfig::lbp(4), FaultCases[5], 0xF00Dull);
  Cfg.HostThreads = 4;
  Cfg.OversubscribeHost = true;
  Machine M(Cfg);
  M.load(R.Prog);
  M.run(2000000);
  ASSERT_EQ(static_cast<int>(M.engineUsed()),
            static_cast<int>(Machine::EngineKind::Parallel));
  const Machine::EngineStats &ES = M.engineStats();
  EXPECT_GT(ES.WindowHist[1], 0u) << "no one-cycle window carried the plan";
  for (unsigned W = 2; W <= MaxEpochWindow; ++W)
    EXPECT_EQ(ES.WindowHist[W], 0u) << "window of " << W << " cycles";
}

} // namespace
