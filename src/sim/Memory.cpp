//===- sim/Memory.cpp - Banks and the hierarchical interconnect -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Memory.h"
#include "isa/AddressMap.h"
#include "support/Compiler.h"
#include <cassert>

using namespace lbp;
using namespace lbp::sim;

//===----------------------------------------------------------------------===//
// MemorySystem
//===----------------------------------------------------------------------===//

MemorySystem::MemorySystem(const SimConfig &Config)
    : BankSize(Config.globalBankSize()) {
  LocalBanks.assign(Config.NumCores,
                    std::vector<uint8_t>(isa::LocalSize, 0));
  GlobalBanks.assign(Config.NumCores, std::vector<uint8_t>(BankSize, 0));
}

void MemorySystem::writeCode(uint32_t Addr, uint8_t Byte) {
  if (Addr >= Code.size())
    Code.resize(Addr + 1, 0);
  Code[Addr] = Byte;
}

uint32_t MemorySystem::fetchWord(uint32_t Addr) const {
  uint32_t Word = 0;
  for (unsigned B = 0; B != 4; ++B) {
    uint32_t A = Addr + B;
    if (A < Code.size())
      Word |= static_cast<uint32_t>(Code[A]) << (8 * B);
  }
  return Word;
}

static uint32_t readBytes(const std::vector<uint8_t> &Bank, uint32_t Offset,
                          unsigned Width) {
  assert(Offset + Width <= Bank.size() && "bank access out of range");
  uint32_t Value = 0;
  for (unsigned B = 0; B != Width; ++B)
    Value |= static_cast<uint32_t>(Bank[Offset + B]) << (8 * B);
  return Value;
}

static void writeBytes(std::vector<uint8_t> &Bank, uint32_t Offset,
                       uint32_t Value, unsigned Width) {
  assert(Offset + Width <= Bank.size() && "bank access out of range");
  for (unsigned B = 0; B != Width; ++B)
    Bank[Offset + B] = static_cast<uint8_t>(Value >> (8 * B));
}

uint32_t MemorySystem::readLocal(unsigned Core, uint32_t Offset,
                                 unsigned Width) const {
  assert(Core < LocalBanks.size() && "no such local bank");
  return readBytes(LocalBanks[Core], Offset, Width);
}

void MemorySystem::writeLocal(unsigned Core, uint32_t Offset, uint32_t Value,
                              unsigned Width) {
  writeBytes(LocalBanks[Core], Offset, Value, Width);
}

uint32_t MemorySystem::readGlobal(unsigned Bank, uint32_t Offset,
                                  unsigned Width) const {
  assert(Bank < GlobalBanks.size() && "no such global bank");
  return readBytes(GlobalBanks[Bank], Offset, Width);
}

void MemorySystem::writeGlobal(unsigned Bank, uint32_t Offset, uint32_t Value,
                               unsigned Width) {
  writeBytes(GlobalBanks[Bank], Offset, Value, Width);
}

//===----------------------------------------------------------------------===//
// Interconnect
//===----------------------------------------------------------------------===//

Interconnect::Interconnect(const SimConfig &Config)
    : Cfg(Config), NumCores(Config.NumCores) {
  unsigned NumR1 = (NumCores + 3) / 4;
  unsigned NumR2 = (NumR1 + 3) / 4;
  CoreUp.assign(NumCores, 0);
  CoreDown.assign(NumCores, 0);
  BankIn.assign(NumCores, 0);
  BankOut.assign(NumCores, 0);
  BankPort.assign(NumCores, 0);
  R1UpReq.assign(NumR1, 0);
  R1UpResp.assign(NumR1, 0);
  R1DownReq.assign(NumR1, 0);
  R1DownResp.assign(NumR1, 0);
  R2UpReq.assign(NumR2, 0);
  R2UpResp.assign(NumR2, 0);
  R2DownReq.assign(NumR2, 0);
  R2DownResp.assign(NumR2, 0);
  Forward.assign(NumCores, 0);
  Backward.assign(NumCores, 0);
  FwdCount.assign(NumCores, 0);
  BwdCount.assign(NumCores, 0);
  BankReqs.assign(NumCores, 0);
  BankWait.assign(NumCores, 0);
}

uint64_t Interconnect::hop(std::vector<uint64_t> &Links, unsigned Slot,
                           uint64_t At, unsigned Latency, LinkClass C) {
  // Reservations are kept in sub-cycle "slots": RouterLinkCapacity
  // transactions share each cycle of the link.
  assert(Slot < Links.size() && "link index out of range");
  uint64_t Cap = Cfg.RouterLinkCapacity;
  uint64_t AtSlot = At * Cap;
  uint64_t DepartSlot = AtSlot < Links[Slot] ? Links[Slot] : AtSlot;
  Links[Slot] = DepartSlot + 1;
  uint64_t DepartCycle = DepartSlot / Cap;
  Contention += DepartCycle - At;
  ContByClass[static_cast<unsigned>(C)] += DepartCycle - At;
  return DepartCycle + Latency;
}

uint64_t Interconnect::serialHop(std::vector<uint64_t> &Links,
                                 unsigned Slot, uint64_t At,
                                 unsigned Latency, LinkClass C) {
  assert(Slot < Links.size() && "link index out of range");
  uint64_t Depart = At;
  if (Links[Slot] > Depart) {
    Contention += Links[Slot] - Depart;
    ContByClass[static_cast<unsigned>(C)] += Links[Slot] - Depart;
    Depart = Links[Slot];
  }
  Links[Slot] = Depart + 1;
  return Depart + Latency;
}

Interconnect::GlobalPath Interconnect::routeGlobal(unsigned Core,
                                                   unsigned Bank,
                                                   uint64_t Now) {
  assert(Core < NumCores && Bank < NumCores && "route out of range");

  // Own bank: dedicated local port, fixed latency, no contention with
  // router traffic (the port is private to the core and only one
  // instruction issues per core per cycle).
  if (Core == Bank) {
    uint64_t Served = Now + Cfg.GlobalLocalPortLatency;
    return {Served, Served};
  }

  unsigned HopLat = Cfg.RouterHopLatency;
  unsigned G1 = Core / 4, G2 = Bank / 4; // r1 groups
  unsigned Q1 = G1 / 4, Q2 = G2 / 4;     // r2 quads

  // Request path up to the bank (request channels).
  uint64_t T = hop(CoreUp, Core, Now, HopLat, LinkClass::CoreUp);
  if (G1 != G2) {
    T = hop(R1UpReq, G1, T, HopLat, LinkClass::R1Up);
    if (Q1 != Q2) {
      T = hop(R2UpReq, Q1, T, HopLat, LinkClass::R2Up);
      T = hop(R2DownReq, Q2, T, HopLat, LinkClass::R2Down);
    }
    T = hop(R1DownReq, G2, T, HopLat, LinkClass::R1Down);
  }
  T = hop(BankIn, Bank, T, HopLat, LinkClass::BankIn);

  // Bank service through the router-side port (one request per cycle).
  ++BankReqs[Bank];
  uint64_t Served = serialHop(BankPort, Bank, T, Cfg.BankServiceLatency, LinkClass::BankPort);
  BankWait[Bank] += Served - Cfg.BankServiceLatency - T;

  // Response path back to the core (result channels).
  T = hop(BankOut, Bank, Served, HopLat, LinkClass::BankOut);
  if (G1 != G2) {
    T = hop(R1UpResp, G2, T, HopLat, LinkClass::R1Up);
    if (Q1 != Q2) {
      T = hop(R2UpResp, Q2, T, HopLat, LinkClass::R2Up);
      T = hop(R2DownResp, Q1, T, HopLat, LinkClass::R2Down);
    }
    T = hop(R1DownResp, G1, T, HopLat, LinkClass::R1Down);
  }
  T = hop(CoreDown, Core, T, HopLat, LinkClass::CoreDown);
  return {Served, T};
}

uint64_t Interconnect::routeForward(unsigned FromCore, unsigned ToCore,
                                    uint64_t Now) {
  if (FromCore == ToCore)
    return Now + 1;
  assert(ToCore == FromCore + 1 && "forward link only reaches the next core");
  ++FwdCount[FromCore];
  return serialHop(Forward, FromCore, Now, Cfg.ForwardLinkLatency, LinkClass::Forward);
}

uint64_t Interconnect::routeBackward(unsigned FromCore, unsigned ToCore,
                                     uint64_t Now) {
  assert(ToCore <= FromCore && "backward line only reaches prior cores");
  if (FromCore == ToCore)
    return Now + 1;
  uint64_t T = Now;
  for (unsigned C = FromCore; C != ToCore; --C) {
    ++BwdCount[C];
    T = serialHop(Backward, C, T, Cfg.BackwardHopLatency, LinkClass::Backward);
  }
  return T;
}

Interconnect::GlobalPath Interconnect::routeIo(uint64_t Now) {
  // Device controllers sit behind a constant-latency path; their single
  // shared port serializes concurrent accesses.
  uint64_t Arrive = Now + Cfg.GlobalLocalPortLatency;
  uint64_t Depart = Arrive;
  if (IoPort > Depart) {
    Contention += IoPort - Depart;
    Depart = IoPort;
  }
  IoPort = Depart + 1;
  uint64_t Served = Depart + 1;
  return {Served, Served + Cfg.GlobalLocalPortLatency};
}
