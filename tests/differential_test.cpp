//===- tests/differential_test.cpp - Random differential testing ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Property test of the whole pipeline against a tiny reference ISS:
// random (seeded) programs of ALU work, bounded loops and memory traffic
// must leave exactly the same architectural memory state on the
// out-of-order LBP core as on a plain sequential interpreter. This
// checks operand capture, the wakeup logic, store/load ordering under
// p_syncm, and the in-order commit machinery all at once.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "frontend/Compiler.h"
#include "isa/AddressMap.h"
#include "isa/Encoding.h"
#include "isa/HartRef.h"
#include "isa/Reg.h"
#include "sim/Interp.h"
#include "sim/Machine.h"
#include "support/SplitMix64.h"
#include "support/StringUtils.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"
#include "workloads/Pipeline.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace lbp;
using namespace lbp::isa;
using namespace lbp::sim;

namespace {

/// Generates a random but well-formed program: ALU soup over registers
/// a0-a7/s0-s7, bounded counted loops, global stores/loads separated by
/// p_syncm, finishing with a register dump to memory and the exit.
std::string generateProgram(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::string S = "main:\n";
  const char *Work[] = {"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
                        "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"};
  constexpr unsigned NumWork = 16;
  auto R = [&] { return Work[Rng.nextBelow(NumWork)]; };

  // Seed registers with values.
  for (unsigned K = 0; K != NumWork; ++K)
    S += formatString("  li %s, %d\n", Work[K],
                      static_cast<int32_t>(Rng.next()));

  unsigned NumLoops = 0;
  for (unsigned Step = 0; Step != 120; ++Step) {
    switch (Rng.nextBelow(8)) {
    case 0:
    case 1:
    case 2: { // register-register ALU
      static const char *Ops[] = {"add", "sub", "xor", "or",  "and",
                                  "sll", "srl", "sra", "slt", "sltu",
                                  "mul", "mulh", "div", "rem"};
      S += formatString("  %s %s, %s, %s\n", Ops[Rng.nextBelow(14)], R(),
                        R(), R());
      break;
    }
    case 3: { // immediate ALU
      static const char *Ops[] = {"addi", "xori", "ori", "andi", "slti"};
      S += formatString("  %s %s, %s, %d\n", Ops[Rng.nextBelow(5)], R(),
                        R(), static_cast<int>(Rng.nextBelow(4096)) - 2048);
      break;
    }
    case 4: { // shift immediate
      static const char *Ops[] = {"slli", "srli", "srai"};
      S += formatString("  %s %s, %s, %u\n", Ops[Rng.nextBelow(3)], R(),
                        R(), static_cast<unsigned>(Rng.nextBelow(32)));
      break;
    }
    case 5: { // store + syncm + load through a scratch slot
      unsigned Slot = static_cast<unsigned>(Rng.nextBelow(16));
      S += formatString("  li t1, 0x20000%03x\n", Slot * 4);
      S += formatString("  sw %s, 0(t1)\n", R());
      S += "  p_syncm\n";
      S += formatString("  lw %s, 0(t1)\n", R());
      // LBP loads and stores are unordered within a hart (paper
      // Sec. 4): a conforming program must drain this load before a
      // later store may target the same slot.
      S += "  p_syncm\n";
      break;
    }
    case 6: { // bounded counted loop of small ALU work
      if (NumLoops == 8)
        break; // keep total work bounded
      unsigned Count = 1 + static_cast<unsigned>(Rng.nextBelow(6));
      std::string Label = formatString("loop_%u", NumLoops++);
      S += formatString("  li t2, %u\n", Count);
      S += Label + ":\n";
      S += formatString("  add %s, %s, %s\n", R(), R(), R());
      S += formatString("  addi %s, %s, %d\n", R(), R(),
                        static_cast<int>(Rng.nextBelow(64)));
      S += "  addi t2, t2, -1\n";
      S += formatString("  bnez t2, %s\n", Label.c_str());
      break;
    }
    default: { // conditional skip (forward branch)
      std::string Label = formatString("skip_%u", Step);
      static const char *Br[] = {"beq", "bne", "blt", "bge", "bltu",
                                 "bgeu"};
      S += formatString("  %s %s, %s, %s\n", Br[Rng.nextBelow(6)], R(),
                        R(), Label.c_str());
      S += formatString("  add %s, %s, %s\n", R(), R(), R());
      S += Label + ":\n";
      break;
    }
    }
  }

  // Dump every working register into the result area.
  S += "  li t1, 0x20000400\n";
  for (unsigned K = 0; K != NumWork; ++K)
    S += formatString("  sw %s, %u(t1)\n", Work[K], 4 * K);
  S += "  p_syncm\n  li ra, 0\n  li t0, -1\n  p_ret\n";
  return S;
}

class Differential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Differential, MachineMatchesReferenceIss) {
  for (uint64_t Sub = 0; Sub != 10; ++Sub) {
    uint64_t Seed = GetParam() * 1000 + Sub;
    std::string Src = generateProgram(Seed);
    assembler::AsmResult R = assembler::assemble(Src);
    ASSERT_TRUE(R.succeeded()) << R.errorText() << "\n" << Src;

    Interp Iss(R.Prog);
    ASSERT_EQ(Iss.run(100000), InterpStatus::Exited)
        << "oracle did not finish, seed " << Seed;

    Machine M(SimConfig::lbp(1));
    M.load(R.Prog);
    ASSERT_EQ(M.run(1000000), RunStatus::Exited)
        << M.faultMessage() << " seed " << Seed;

    for (unsigned K = 0; K != 16; ++K) {
      uint32_t Addr = 0x20000400 + 4 * K;
      EXPECT_EQ(M.debugReadWord(Addr), Iss.readWord(Addr))
          << "register dump slot " << K << ", seed " << Seed;
    }
    for (unsigned Slot = 0; Slot != 16; ++Slot) {
      uint32_t Addr = 0x20000000 + 4 * Slot;
      EXPECT_EQ(M.debugReadWord(Addr), Iss.readWord(Addr))
          << "scratch slot " << Slot << ", seed " << Seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           0xC0FFEEull));

//===----------------------------------------------------------------------===//
// FastPath differential: the fast engine (SimConfig::FastPath — cycle
// skipping, active-set scheduling, pre-decoded text) must be an exact
// no-op on the observable run: same RunStatus, same final cycle count,
// same retired count, same cycle-by-cycle trace hash as the reference
// every-core-every-cycle loop. docs/PERFORMANCE.md states the contract;
// these tests enforce it over every paper workload plus the Det-C
// corpus and the random-program generator above.
//===----------------------------------------------------------------------===//

/// The observable fingerprint of a run; any divergence between the two
/// engines is a fast-path bug by definition.
struct RunFingerprint {
  RunStatus Status;
  uint64_t Cycles;
  uint64_t Retired;
  uint64_t Hash;
  std::string Message;
};

RunFingerprint runWith(const assembler::Program &Prog, SimConfig Cfg,
                       bool FastPath, uint64_t MaxCycles) {
  Cfg.FastPath = FastPath;
  Machine M(Cfg);
  M.load(Prog);
  RunStatus S = M.run(MaxCycles);
  return {S, M.cycles(), M.retired(), M.traceHash(), M.faultMessage()};
}

/// Assembles \p Src and runs it twice, FastPath off then on, expecting
/// identical fingerprints. Programs that fault or hit MaxCycles are
/// compared too — truncated and failed runs must also be bit-identical.
void expectFastPathIdentical(const std::string &Src, SimConfig Cfg,
                             const std::string &What,
                             uint64_t MaxCycles = 2000000) {
  assembler::AsmResult R = assembler::assemble(Src);
  ASSERT_TRUE(R.succeeded()) << What << ":\n" << R.errorText();
  RunFingerprint Ref = runWith(R.Prog, Cfg, /*FastPath=*/false, MaxCycles);
  RunFingerprint Fast = runWith(R.Prog, Cfg, /*FastPath=*/true, MaxCycles);
  EXPECT_EQ(static_cast<int>(Ref.Status), static_cast<int>(Fast.Status))
      << What;
  EXPECT_EQ(Ref.Cycles, Fast.Cycles) << What;
  EXPECT_EQ(Ref.Retired, Fast.Retired) << What;
  EXPECT_EQ(Ref.Hash, Fast.Hash) << What;
  EXPECT_EQ(Ref.Message, Fast.Message) << What;
}

TEST(FastPathDifferential, RandomPrograms) {
  for (uint64_t Seed : {11ull, 23ull, 99ull, 4242ull, 0xBEEFull})
    expectFastPathIdentical(generateProgram(Seed), SimConfig::lbp(1),
                            formatString("random program seed %llu",
                                         static_cast<unsigned long long>(
                                             Seed)));
}

TEST(FastPathDifferential, MatMulAllVersions) {
  using workloads::MatMulSpec;
  using workloads::MatMulVersion;
  for (MatMulVersion V :
       {MatMulVersion::Base, MatMulVersion::Copy, MatMulVersion::Distributed,
        MatMulVersion::DistCopy, MatMulVersion::Tiled}) {
    MatMulSpec Spec = MatMulSpec::paper(16, V);
    SimConfig Cfg = SimConfig::lbp(Spec.cores());
    Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
    expectFastPathIdentical(workloads::buildMatMulProgram(Spec), Cfg,
                            std::string("matmul-") +
                                workloads::matMulVersionName(V));
  }
}

TEST(FastPathDifferential, PhasesAndPipeline) {
  workloads::PhasesSpec PSpec;
  PSpec.NumHarts = 16;
  SimConfig PCfg = SimConfig::lbp(PSpec.cores());
  PCfg.GlobalBankSizeLog2 = PSpec.BankSizeLog2;
  expectFastPathIdentical(workloads::buildPhasesProgram(PSpec), PCfg,
                          "phases");

  workloads::PipelineSpec LSpec;
  SimConfig LCfg = SimConfig::lbp(LSpec.cores());
  LCfg.GlobalBankSizeLog2 = LSpec.BankSizeLog2;
  expectFastPathIdentical(workloads::buildPipelineProgram(LSpec), LCfg,
                          "pipeline");

  // 72 cores: the awake set takes two 64-bit words and the second holds
  // only 8 cores, so the walk must cross a word boundary and stop at
  // the partial word's last core.
  workloads::PhasesSpec WSpec;
  WSpec.NumHarts = 288;
  SimConfig WCfg = SimConfig::lbp(WSpec.cores());
  WCfg.GlobalBankSizeLog2 = WSpec.BankSizeLog2;
  ASSERT_EQ(WCfg.NumCores, 72u);
  expectFastPathIdentical(workloads::buildPhasesProgram(WSpec), WCfg,
                          "phases on 72 cores");
}

TEST(FastPathDifferential, DetCCorpus) {
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
    expectFastPathIdentical(Asm, SimConfig::lbp(4),
                            std::string("detc ") + Name);
  }
}

/// One hart dividing in a dependent chain: between divides every core is
/// asleep and the only wake-up is the divide's timer, so the fast path
/// jumps over each wait.
const char *DivideChainSrc = R"(
main:
    li a2, 1000000
    li a3, 3
    li a6, 40
chain:
    div a2, a2, a3
    addi a6, a6, -1
    bnez a6, chain
    li ra, 0
    li t0, -1
    p_ret
)";

/// Cycles the fast path jumped over in a run of \p Prog cut at \p MaxCycles.
uint64_t skippedWithin(const assembler::Program &Prog, SimConfig Cfg,
                       uint64_t MaxCycles) {
  Cfg.FastPath = true;
  Machine M(Cfg);
  M.load(Prog);
  M.run(MaxCycles);
  return M.fastPathStats().SkippedCycles;
}

/// The cycle at which the fast path's \p Nth skipped cycle falls. A cut
/// there lands inside a quiescence jump. Skips clip to the budget, so
/// the count is monotone in the cut and a bisection finds it.
uint64_t nthSkippedCycle(const assembler::Program &Prog, const SimConfig &Cfg,
                         uint64_t N, uint64_t Hi) {
  uint64_t Lo = 0; // skippedWithin(Lo) < N <= skippedWithin(Hi)
  while (Hi - Lo > 1) {
    uint64_t Mid = Lo + (Hi - Lo) / 2;
    (skippedWithin(Prog, Cfg, Mid) >= N ? Hi : Lo) = Mid;
  }
  return Hi;
}

TEST(FastPathDifferential, MaxCyclesTruncation) {
  // A run cut off mid-flight must stop at the same cycle with the same
  // trace whether or not the engine was skipping quiescent spans: the
  // fast path charges every skipped cycle against the budget.
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  SimConfig Cfg = SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  std::string Src = workloads::buildPhasesProgram(Spec);
  for (uint64_t MaxCycles : {100ull, 777ull, 2048ull, 5000ull}) {
    expectFastPathIdentical(
        Src, Cfg,
        formatString("phases truncated at %llu",
                     static_cast<unsigned long long>(MaxCycles)),
        MaxCycles);
  }

  // Cuts inside sleep spans: at the first, the middle and the last cycle
  // the fast path jumps over. Each truncated run then resumes on the
  // same machine (the awake set is rebuilt at every run() start) and
  // must finish exactly like the uninterrupted reference run.
  assembler::AsmResult R = assembler::assemble(DivideChainSrc);
  ASSERT_TRUE(R.succeeded()) << R.errorText();
  SimConfig DCfg = SimConfig::lbp(4);
  Machine Full(DCfg);
  Full.load(R.Prog);
  ASSERT_EQ(Full.run(), RunStatus::Exited);
  uint64_t Skipped = skippedWithin(R.Prog, DCfg, UINT64_MAX);
  ASSERT_GT(Skipped, 100u) << "the chain no longer sleeps";
  RunFingerprint Want = runWith(R.Prog, DCfg, /*FastPath=*/false, UINT64_MAX);
  SimConfig FastCfg = DCfg;
  FastCfg.FastPath = true;
  for (uint64_t N : {uint64_t(1), Skipped / 2, Skipped}) {
    uint64_t Cut = nthSkippedCycle(R.Prog, DCfg, N, Full.cycles());
    ASSERT_EQ(skippedWithin(R.Prog, DCfg, Cut),
              skippedWithin(R.Prog, DCfg, Cut - 1) + 1)
        << "cycle " << Cut << " is not inside a jump";
    std::string What = formatString("divide chain truncated at %llu",
                                     static_cast<unsigned long long>(Cut));
    expectFastPathIdentical(DivideChainSrc, DCfg, What, Cut);

    Machine M(FastCfg);
    M.load(R.Prog);
    EXPECT_EQ(M.run(Cut), RunStatus::MaxCycles) << What;
    EXPECT_EQ(M.cycles(), Cut) << What;
    RunStatus S = M.run();
    EXPECT_EQ(static_cast<int>(S), static_cast<int>(Want.Status)) << What;
    EXPECT_EQ(M.cycles(), Want.Cycles) << What;
    EXPECT_EQ(M.retired(), Want.Retired) << What;
    EXPECT_EQ(M.traceHash(), Want.Hash) << What;
  }
}

TEST(FastPathDifferential, TalliesAreHashNeutral) {
  // The fast-path tallies are host-side counts: reading them between run
  // slices must leave the trace hash of a one-shot run, and they must
  // add up (every cycle is either visited or skipped, and a visit never
  // costs more core passes than the machine has cores).
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  SimConfig Cfg = SimConfig::lbp(Spec.cores());
  Cfg.GlobalBankSizeLog2 = Spec.BankSizeLog2;
  assembler::AsmResult R =
      assembler::assemble(workloads::buildPhasesProgram(Spec));
  ASSERT_TRUE(R.succeeded()) << R.errorText();

  Machine Unread(Cfg);
  Unread.load(R.Prog);
  ASSERT_EQ(Unread.run(), RunStatus::Exited);

  Machine Read(Cfg);
  Read.load(R.Prog);
  uint64_t LastPasses = 0;
  while (Read.run(500) == RunStatus::MaxCycles) {
    const Machine::FastPathStats &S = Read.fastPathStats();
    EXPECT_GE(S.CorePasses, LastPasses);
    LastPasses = S.CorePasses;
  }
  EXPECT_EQ(Read.status(), RunStatus::Exited);
  EXPECT_EQ(Read.traceHash(), Unread.traceHash());
  EXPECT_EQ(Read.cycles(), Unread.cycles());

  const Machine::FastPathStats &S = Unread.fastPathStats();
  EXPECT_EQ(S.VisitedCycles + S.SkippedCycles, Unread.cycles());
  EXPECT_GT(S.Rebuilds, 0u);
  EXPECT_LT(S.CorePasses, S.VisitedCycles * Cfg.NumCores);
  EXPECT_EQ(S.Jumps == 0, S.SkippedCycles == 0);

  Cfg.FastPath = false;
  Machine Ref(Cfg);
  Ref.load(R.Prog);
  Ref.run();
  EXPECT_EQ(Ref.traceHash(), Unread.traceHash());
  EXPECT_EQ(Ref.fastPathStats().CorePasses, 0u);
  EXPECT_EQ(Ref.fastPathStats().VisitedCycles, 0u);
}

} // namespace
