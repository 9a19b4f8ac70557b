//===- perfbench/src/HostProbe.cpp - Host speed probe ----------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "HostProbe.h"
#include "Spans.h"

#include "support/SplitMix64.h"

#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

constexpr uint32_t DispatchMemWords = 1u << 18; // 1 MiB
constexpr uint32_t DispatchProgWords = 4096;
constexpr uint32_t DispatchSteps = 6000000;
constexpr uint32_t MapInserts = 12000;

/// A register-machine interpreter over a seeded program: the decode and
/// execute dispatch a simulator spends its time in.
uint64_t dispatch() {
  static const std::vector<uint32_t> Prog = [] {
    // Opcode in bits 0-2, registers in 4-15, an immediate in 16-31.
    lbp::SplitMix64 Rng(0x9b0be5);
    std::vector<uint32_t> P;
    for (uint32_t I = 0; I != DispatchProgWords; ++I)
      P.push_back(static_cast<uint32_t>(Rng.next()) & 0xffff0fff);
    return P;
  }();
  static std::vector<uint32_t> Mem(DispatchMemWords);
  uint32_t R[16];
  std::iota(R, R + 16, 1u);
  constexpr uint32_t MemMask = DispatchMemWords - 1;
  uint32_t Pc = 0;
  uint64_t Taken = 0;
  for (uint32_t Step = 0; Step != DispatchSteps; ++Step) {
    uint32_t W = Prog[Pc];
    uint32_t D = (W >> 4) & 15, A = (W >> 8) & 15, B = (W >> 12) & 15;
    uint32_t Imm = W >> 16;
    switch (W & 7) {
    case 0: R[D] = R[A] + R[B]; break;
    case 1: R[D] = R[A] ^ (R[B] << 3); break;
    case 2: R[D] = Mem[(R[A] + Imm) & MemMask]; break;
    case 3: Mem[(R[A] + Imm) & MemMask] = R[B]; break;
    case 4: R[D] = R[A] * R[B] + Imm; break;
    case 5:
      if (R[A] & 1) {
        Pc = (Pc + Imm) % DispatchProgWords;
        ++Taken;
        continue;
      }
      break;
    case 6: R[D] = R[A] >> (R[B] & 31); break;
    default: R[D] = R[A] < R[B] ? Imm : R[A] - R[B]; break;
    }
    Pc = (Pc + 1) % DispatchProgWords;
  }
  return Taken + R[3];
}

/// Formatted keys into an ordered map, then the map formatted out:
/// allocation, pointer-linked nodes and branchy library code, as in the
/// assembler, the Det-C front end and the report writer.
uint64_t formatMap() {
  lbp::SplitMix64 Rng(0x5eed);
  std::map<std::string, double> Map;
  for (uint32_t I = 0; I != MapInserts; ++I) {
    std::ostringstream Key;
    Key << 'k' << Rng.nextBelow(3000) << '_' << I % 7;
    Map[Key.str()] += static_cast<double>(Rng.nextBelow(1000)) / 7.0;
  }
  std::ostringstream Out;
  for (const auto &[K, V] : Map)
    Out << K << '=' << V << ';';
  return Out.str().size();
}

} // namespace

double perfbench::runHostProbe() {
  uint64_t T0 = nowNanos();
  uint64_t Result = dispatch();
  uint64_t T1 = nowNanos();
  Result += formatMap();
  uint64_t T2 = nowNanos();
  // Keeps the work observable, so the compiler cannot drop it.
  static volatile uint64_t Sink;
  Sink = Result;
  return std::sqrt(static_cast<double>(T1 - T0) *
                   static_cast<double>(T2 - T1)) *
         1e-9;
}
