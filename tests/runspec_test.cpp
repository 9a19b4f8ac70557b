//===- tests/runspec_test.cpp - The run spec shared by the CLIs -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// workloads/RunSpec.h: the engine-spec grammar and its inverse, the
// knobs each spec sets (they must match what the per-tool parsers it
// replaced produced), the shared flag parser, and the workload table
// (every tool gets the same program and the SimConfig it needs).
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/PerfCounters.h"
#include "sim/Machine.h"
#include "workloads/Pipeline.h"
#include "workloads/RunSpec.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

using namespace lbp;
using workloads::ArgReader;
using workloads::EngineSpec;
using workloads::RunSpec;

namespace {

TEST(EngineSpec, EverySpellingRoundTrips) {
  for (const char *S : {"reference", "fastpath", "parallel-t2",
                        "parallel-t4", "parallel-t64", "parallel-t1024"}) {
    std::optional<EngineSpec> E = EngineSpec::parse(S);
    ASSERT_TRUE(E) << S;
    EXPECT_EQ(E->name(), S);
    EXPECT_EQ(EngineSpec::parse(E->name()), E) << S;
  }
}

TEST(EngineSpec, RejectsOldAndMalformedSpellings) {
  for (const char *S :
       {"fast", "parallel", "parallel:4", "parallel-t1", "parallel-t0",
        "parallel-t", "parallel-t04", "parallel-t1025", "parallel-t4x",
        "parallel-t+4", "parallel-t0x4", "Reference", "fastpath ", ""})
    EXPECT_FALSE(EngineSpec::parse(S)) << '"' << S << '"';
}

/// What the replaced parsers set: lbp_prof (--engine reference|fast plus
/// --threads N), lbp_triage (reference | fast | parallel[:N]) and
/// lbp_fleet (reference | fast | parallel[-tN]).
TEST(EngineSpec, ApplyToMatchesTheReplacedParsers) {
  struct Case {
    const char *Spec;
    bool FastPath;
    unsigned HostThreads;
  };
  for (Case C : {Case{"reference", false, 1}, Case{"fastpath", true, 1},
                 Case{"parallel-t2", true, 2}, Case{"parallel-t4", true, 4},
                 Case{"parallel-t8", true, 8}}) {
    sim::SimConfig Cfg = sim::SimConfig::lbp(4);
    Cfg.FastPath = !C.FastPath;
    Cfg.HostThreads = 3; // applyTo must overwrite, not keep, the knob
    EngineSpec::parse(C.Spec)->applyTo(Cfg);
    EXPECT_EQ(Cfg.FastPath, C.FastPath) << C.Spec;
    EXPECT_EQ(Cfg.HostThreads, C.HostThreads) << C.Spec;
  }
}

/// Runs RunSpec::parseArg over a command line; false when any argument
/// is refused or not a shared one.
bool parseAll(RunSpec &RS, std::vector<const char *> Args,
              bool WithEngine = true) {
  Args.insert(Args.begin(), "tool");
  ArgReader R(static_cast<int>(Args.size()),
              const_cast<char **>(Args.data()));
  while (R.next())
    if (RS.parseArg(R, WithEngine) != RunSpec::ArgStatus::Taken)
      return false;
  return true;
}

TEST(RunSpec, ParsesTheSharedFlags) {
  RunSpec RS;
  ASSERT_TRUE(parseAll(RS, {"--workload", "phases", "--cores", "16",
                            "--engine", "parallel-t4", "--drops", "1",
                            "--delays", "2", "--flips", "3"}));
  EXPECT_EQ(RS.Workload, "phases");
  EXPECT_EQ(RS.Cores, 16u);
  EXPECT_EQ(RS.Engine, (EngineSpec{EngineSpec::Kind::Parallel, 4}));

  assembler::Program Prog;
  sim::SimConfig Cfg;
  std::string Err;
  ASSERT_TRUE(RS.load(Prog, Cfg, Err)) << Err;
  EXPECT_EQ(Cfg.NumCores, 16u);
  EXPECT_TRUE(Cfg.FastPath);
  EXPECT_EQ(Cfg.HostThreads, 4u);
  EXPECT_EQ(Cfg.Faults.Drops, 1u);
  EXPECT_EQ(Cfg.Faults.Delays, 2u);
  EXPECT_EQ(Cfg.Faults.BitFlips, 3u);
}

TEST(RunSpec, RejectsBadFlags) {
  for (std::vector<const char *> Args :
       {std::vector<const char *>{"--engine", "fast"},
        {"--engine", "parallel:4"},
        {"--engine"},
        {"--cores", "0"},
        {"--cores", "-1"},
        {"--cores", "65"},
        {"--cores", "four"},
        {"--drops", "-2"},
        {"a.s", "b.s"},
        {"--threads", "4"},
        {"--asm", "a.s"}}) {
    RunSpec RS;
    EXPECT_FALSE(parseAll(RS, Args)) << Args[0];
  }
  RunSpec RS; // lbp_triage names its engines per side
  EXPECT_FALSE(
      parseAll(RS, {"--engine", "fastpath"}, /*WithEngine=*/false));
}

TEST(RunSpec, LoadNeedsExactlyOneKnownProgram) {
  assembler::Program Prog;
  sim::SimConfig Cfg;
  std::string Err;
  RunSpec Neither;
  EXPECT_FALSE(Neither.load(Prog, Cfg, Err));
  RunSpec Both;
  Both.Workload = "phases";
  Both.File = "prog.s";
  EXPECT_FALSE(Both.load(Prog, Cfg, Err));
  // The device workloads fault without their devices, so no CLI runs
  // them; lbp_lint --workloads still analyses them.
  for (const char *Name : {"dma", "sensor-fusion", "nope"}) {
    RunSpec RS;
    RS.Workload = Name;
    Err.clear();
    EXPECT_FALSE(RS.load(Prog, Cfg, Err)) << Name;
    EXPECT_NE(Err.find("unknown workload"), std::string::npos) << Err;
  }
  RunSpec Missing;
  Missing.File = "no/such/file.s";
  EXPECT_FALSE(Missing.load(Prog, Cfg, Err));
}

TEST(RunSpec, MatMulRejectsUnsupportedCoreCounts) {
  for (unsigned Cores : {1u, 2u, 3u, 5u, 8u, 32u}) {
    std::string Asm, Err;
    sim::SimConfig Cfg;
    EXPECT_FALSE(workloads::buildWorkload("matmul", Cores, Asm, Cfg, Err))
        << Cores;
    EXPECT_NE(Err.find("4, 16 or 64 cores"), std::string::npos) << Err;
  }
}

TEST(RunSpec, WorkloadTableSizesTheMachine) {
  std::string Asm, Err;
  sim::SimConfig Cfg;
  ASSERT_TRUE(workloads::buildWorkload("matmul", 16, Asm, Cfg, Err));
  EXPECT_EQ(Cfg.NumCores, 16u);
  EXPECT_EQ(Cfg.GlobalBankSizeLog2, 5u + 6u); // 32 bytes per hart row
  ASSERT_TRUE(workloads::buildWorkload("phases", 3, Asm, Cfg, Err));
  EXPECT_EQ(Cfg.NumCores, 3u);
  EXPECT_EQ(Cfg.GlobalBankSizeLog2, 16u);
}

/// The pipeline is as deep as the machine allows, up to eight stages.
TEST(RunSpec, PipelineDepthFollowsTheMachine) {
  std::string Asm, Err;
  sim::SimConfig Cfg;
  ASSERT_TRUE(workloads::buildWorkload("pipeline", 4, Asm, Cfg, Err));
  assembler::AsmResult AR = assembler::assemble(Asm);
  ASSERT_TRUE(AR.succeeded()) << AR.errorText();
  sim::Machine M(Cfg);
  M.load(AR.Prog);
  ASSERT_EQ(M.run(), sim::RunStatus::Exited) << M.faultMessage();
  workloads::PipelineSpec Spec;
  Spec.Stages = 8;
  for (unsigned I = 0; I != Spec.Items; ++I)
    EXPECT_EQ(M.debugReadWord(workloads::pipelineOutAddress(Spec, I)),
              workloads::pipelineExpectedValue(Spec, I))
        << "item " << I;
}

/// The distributed matmul puts each hart's rows in its own core's bank,
/// so on four cores every global bank carries traffic (a 64 KiB-bank
/// machine running the 512-byte-bank layout sent all of it to bank 0).
TEST(RunSpec, MatMulTouchesEveryGlobalBank) {
  RunSpec RS;
  RS.Workload = "matmul";
  RS.Cores = 4;
  assembler::Program Prog;
  sim::SimConfig Cfg;
  std::string Err;
  ASSERT_TRUE(RS.load(Prog, Cfg, Err)) << Err;
  Cfg.CollectCounters = true;
  sim::Machine M(Cfg);
  M.load(Prog);
  ASSERT_EQ(M.run(), sim::RunStatus::Exited) << M.faultMessage();
  const obs::PerfCounters &PC = M.counters();
  ASSERT_EQ(PC.BankReads.size(), 4u);
  for (unsigned B = 0; B != 4; ++B) {
    EXPECT_GT(PC.BankReads[B], 0u) << "bank " << B;
    EXPECT_GT(PC.BankWrites[B], 0u) << "bank " << B;
  }
}

} // namespace
