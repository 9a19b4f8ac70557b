//===- workloads/RunSpec.cpp - The run spec shared by the CLIs ------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "workloads/RunSpec.h"
#include "asm/Assembler.h"
#include "frontend/Compiler.h"
#include "support/StringUtils.h"
#include "workloads/MatMul.h"
#include "workloads/Phases.h"
#include "workloads/Pipeline.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace lbp;
using namespace lbp::workloads;

std::optional<EngineSpec> EngineSpec::parse(std::string_view S) {
  if (S == "reference")
    return EngineSpec{Kind::Reference, 1};
  if (S == "fastpath")
    return EngineSpec{Kind::FastPath, 1};
  constexpr std::string_view Prefix = "parallel-t";
  if (S.substr(0, Prefix.size()) != Prefix)
    return std::nullopt;
  // Plain decimal without a leading zero, so name() gives S back.
  std::string_view N = S.substr(Prefix.size());
  if (N.empty() || N.size() > 4 || N[0] == '0' ||
      !std::all_of(N.begin(), N.end(),
                   [](char C) { return C >= '0' && C <= '9'; }))
    return std::nullopt;
  unsigned T = static_cast<unsigned>(*parseInteger(N));
  if (T < 2 || T > 1024)
    return std::nullopt;
  return EngineSpec{Kind::Parallel, T};
}

std::string EngineSpec::name() const {
  switch (K) {
  case Kind::Reference:
    return "reference";
  case Kind::FastPath:
    return "fastpath";
  case Kind::Parallel:
    break;
  }
  return "parallel-t" + std::to_string(Threads);
}

bool workloads::buildWorkload(std::string_view Name, unsigned Cores,
                              std::string &Asm, sim::SimConfig &Cfg,
                              std::string &Err) {
  Cfg = sim::SimConfig::lbp(Cores);
  unsigned Harts = Cores * sim::HartsPerCore;
  if (Name == "phases") {
    PhasesSpec S;
    S.NumHarts = Harts;
    Asm = buildPhasesProgram(S);
    return true;
  }
  if (Name == "matmul") {
    // The paper's distributed matmul: each bank holds its own rows, so
    // the bank size follows the machine size.
    if (Harts != 16 && Harts != 64 && Harts != 256) {
      Err = "workload 'matmul' runs on 4, 16 or 64 cores, not " +
            std::to_string(Cores);
      return false;
    }
    MatMulSpec S = MatMulSpec::paper(Harts, MatMulVersion::Distributed);
    Cfg.GlobalBankSizeLog2 = S.BankSizeLog2;
    Asm = buildMatMulProgram(S);
    return true;
  }
  if (Name == "pipeline") {
    PipelineSpec S;
    S.Stages = std::min(Harts, 8u);
    Asm = buildPipelineProgram(S);
    return true;
  }
  Err = "unknown workload '" + std::string(Name) + "' (want " +
        WorkloadNames + ")";
  return false;
}

bool ArgReader::value(std::string &Out) {
  if (I + 1 >= Argc)
    return false;
  Out = Argv[++I];
  return true;
}

bool ArgReader::value(uint64_t &Out) {
  std::string S;
  if (!value(S) || S.empty() || S[0] == '-' || S[0] == '+')
    return false;
  std::optional<int64_t> V = parseInteger(S);
  if (!V)
    return false;
  Out = static_cast<uint64_t>(*V);
  return true;
}

bool ArgReader::value(unsigned &Out) {
  uint64_t V = 0;
  if (!value(V) || V > 1u << 20)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

bool ArgReader::value(EngineSpec &Out) {
  std::string S;
  std::optional<EngineSpec> E;
  if (value(S) && (E = EngineSpec::parse(S)))
    Out = *E;
  return E.has_value();
}

RunSpec::ArgStatus RunSpec::parseArg(ArgReader &R, bool WithEngine) {
  auto Status = [](bool Ok) {
    return Ok ? ArgStatus::Taken : ArgStatus::Bad;
  };
  std::string_view A = R.arg();
  if (A == "--workload")
    return Status(R.value(Workload));
  if (A == "--cores")
    return Status(R.value(Cores) && Cores >= 1 && Cores <= 64);
  if (A == "--drops")
    return Status(R.value(Drops));
  if (A == "--delays")
    return Status(R.value(Delays));
  if (A == "--flips")
    return Status(R.value(Flips));
  if (A == "--engine" && WithEngine)
    return Status(R.value(Engine));
  if (A.size() > 1 && A[0] == '-')
    return ArgStatus::NotShared;
  if (!File.empty())
    return ArgStatus::Bad; // one program per run
  File = A;
  return ArgStatus::Taken;
}

static bool readSource(const std::string &File, std::string &Text,
                       std::string &Err) {
  std::ostringstream SS;
  if (File == "-") {
    SS << std::cin.rdbuf();
  } else {
    std::ifstream In(File);
    if (!In) {
      Err = "cannot open '" + File + "'";
      return false;
    }
    SS << In.rdbuf();
  }
  Text = SS.str();
  return true;
}

bool RunSpec::load(assembler::Program &Prog, sim::SimConfig &Cfg,
                   std::string &Err) const {
  if (Workload.empty() == File.empty()) {
    Err = "give exactly one program: --workload NAME or a file";
    return false;
  }
  std::string Asm;
  if (!Workload.empty()) {
    if (!buildWorkload(Workload, Cores, Asm, Cfg, Err))
      return false;
  } else {
    Cfg = sim::SimConfig::lbp(Cores);
    std::string Text;
    if (!readSource(File, Text, Err))
      return false;
    if (File.ends_with(".s") || File.ends_with(".asm")) {
      Asm = std::move(Text);
    } else {
      std::string FrontErr;
      Asm = frontend::compileDetCToAsm(Text, FrontErr);
      if (Asm.empty()) {
        Err = FrontErr.empty() ? "compilation produced no code" : FrontErr;
        return false;
      }
    }
  }
  assembler::AsmResult AR = assembler::assemble(Asm);
  if (!AR.succeeded()) {
    Err = "assembly failed:\n" + AR.errorText();
    return false;
  }
  Prog = std::move(AR.Prog);
  Engine.applyTo(Cfg);
  Cfg.Faults.Drops = Drops;
  Cfg.Faults.Delays = Delays;
  Cfg.Faults.BitFlips = Flips;
  return true;
}
