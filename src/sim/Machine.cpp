//===- sim/Machine.cpp - The LBP manycore machine ----------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"
#include "isa/AddressMap.h"
#include "isa/Disasm.h"
#include "isa/Encoding.h"
#include "isa/HartRef.h"
#include "isa/Reg.h"
#include "sim/Exec.h"
#include "support/Compiler.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <bit>

using namespace lbp;
using namespace lbp::sim;
using namespace lbp::isa;

//===----------------------------------------------------------------------===//
// Construction and loading
//===----------------------------------------------------------------------===//

Machine::Machine(const SimConfig &Config)
    : Cfg(Config), Mem(Config), Net(Config),
      FPlan(Config.Faults, Config.NumCores), Cores(Config.NumCores),
      Wheel(WheelSize) {
  Tr.setRecording(Cfg.RecordTrace);
  Tr.setLineCap(Cfg.TraceLineCap);
  Tr.configureDigests(Cfg.DigestInterval, Cfg.DigestRingCap);
  if (!Cfg.TraceLineFile.empty() && !Tr.setLineFile(Cfg.TraceLineFile))
    fault(formatString("cannot open trace line file '%s'",
                       Cfg.TraceLineFile.c_str()));
  StallByCore.assign(Cfg.NumCores * NumStallSlots, 0);
  CoreWake.assign(Cfg.NumCores, 0);
  AwakeBits.assign((Cfg.NumCores + 63) / 64, 0);
  AwakeWalk.assign(AwakeBits.size(), 0);
  if (Cfg.CollectCounters) {
    Obs = std::make_unique<obs::PerfCounters>();
    Obs->init(Cfg);
    Tr.addSink(Obs.get());
  }
  // Stall-cause classification observes every core-cycle (including the
  // idle ones), so it forces the reference scheduling loop.
  FastRun = Cfg.FastPath && !Cfg.CollectStallStats;
  // Pre-size the delivery plumbing for a typical in-flight count; the
  // pool and DueBuf grow past it only while a run warms up to its peak.
  Pool.reserve(64);
  DueBuf.reserve(64);
}

void Machine::load(const assembler::Program &Prog) {
  for (const assembler::Segment &S : Prog.segments()) {
    for (uint32_t Off = 0; Off != S.Bytes.size(); ++Off) {
      uint32_t Addr = S.Base + Off;
      uint8_t Byte = S.Bytes[Off];
      if (isCodeAddr(Addr)) {
        Mem.writeCode(Addr, Byte);
      } else if (isGlobalAddr(Addr)) {
        uint32_t Rel = Addr - GlobalBase;
        uint32_t Bank = Rel >> Cfg.GlobalBankSizeLog2;
        if (Bank >= Cfg.NumCores) {
          fault(formatString("data segment byte at 0x%08x is beyond the "
                             "last global bank",
                             Addr));
          return;
        }
        Mem.writeGlobal(Bank, Rel & (Cfg.globalBankSize() - 1), Byte, 1);
      } else if (isLocalAddr(Addr)) {
        // Local-bank initialized data replicates into every core's
        // private scratchpad.
        uint32_t Rel = Addr - LocalBase;
        if (Rel >= LocalSize) {
          fault(formatString("local data byte at 0x%08x is out of range",
                             Addr));
          return;
        }
        for (unsigned C = 0; C != Cfg.NumCores; ++C)
          Mem.writeLocal(C, Rel, Byte, 1);
      } else {
        fault(formatString("cannot load bytes into the I/O region "
                           "(0x%08x)",
                           Addr));
        return;
      }
    }
  }

  predecodeText();

  // Hart 0 of core 0 boots at the entry point holding the token, with
  // ra = 0 and t0 = -1 so a bare `p_ret` in main exits (Fig. 6's
  // convention).
  Hart &H0 = Cores[0].Harts[0];
  H0.State = HartState::Running;
  H0.StateSince = Cycle;
  H0.Pc = Prog.entry();
  H0.PcValid = true;
  H0.Regs[RegSP] = hartStackTop(0);
  H0.Regs[RegT0] = HartRefExit;
  H0.Token = true;
  Tr.event(Cycle, EventKind::HartStart, 0, H0.Pc);
}

/// Decodes one code word as the rename stage sees it: p_lwcv addresses
/// the hart's own continuation frame through sp.
static isa::Instr decodeTextWord(uint32_t Word) {
  isa::Instr I = decode(Word);
  if (I.Op == Opcode::P_LWCV)
    I.Rs1 = RegSP;
  return I;
}

void Machine::predecodeText() {
  // The code banks are read-only after load — stores into the code
  // region fault and debugWriteWord asserts — so every engine's
  // per-fetch decode is a table lookup keyed by word address. Built
  // from the same fetchWord the fetch stage uses, so table and live
  // decode agree bit for bit (including the trailing partial word and
  // data words in text, which decode as invalid and fault the same way).
  uint32_t Words = (Mem.codeSize() + 3) / 4;
  DecodedText.resize(Words);
  for (uint32_t W = 0; W != Words; ++W)
    DecodedText[W] = decodeTextWord(Mem.fetchWord(W * 4));
}

void Machine::addDevice(uint32_t Base, uint32_t Size,
                        std::unique_ptr<IoDevice> Device) {
  assert(isIoAddr(Base) && "devices live in the I/O region");
  Devices.push_back({Base, Size, std::move(Device)});
}

IoDevice *Machine::findDevice(uint32_t Addr, uint32_t &Offset) {
  for (DeviceMapping &M : Devices) {
    if (Addr >= M.Base && Addr < M.Base + M.Size) {
      Offset = Addr - M.Base;
      return M.Dev.get();
    }
  }
  return nullptr;
}

void Machine::fault(std::string Msg) {
  if (Status == RunStatus::Fault)
    return; // keep the first message
  Status = RunStatus::Fault;
  Halted = true;
  FaultMsg = std::move(Msg);
}

//===----------------------------------------------------------------------===//
// Delivery machinery
//===----------------------------------------------------------------------===//

/// Fault-plan class bit of a delivery kind (0 = not injectable).
static uint8_t faultClassOf(Delivery::Kind K) {
  switch (K) {
  case Delivery::Kind::Token:
    return FaultClassToken;
  case Delivery::Kind::JoinMsg:
    return FaultClassJoin;
  case Delivery::Kind::StartHart:
    return FaultClassStart;
  case Delivery::Kind::RbFill:
    return FaultClassRbFill;
  case Delivery::Kind::SlotFill:
    return FaultClassSlotFill;
  default:
    return 0;
  }
}

void Machine::schedule(uint64_t At, Delivery D) {
  // The parity seals the delivery as it enters the link; anything the
  // fault plan corrupts below is caught by the checker at arrival.
  D.Parity = deliveryParity(D);

  // Token-latency measurement opens here, at the send cycle. Delay
  // faults below lengthen the measured latency; drops leave the entry
  // open until the retried token closes it — deterministic either way.
  if (D.K == Delivery::Kind::Token && Obs)
    Obs->noteTokenSend(D.HartId, Cycle);

  if (FPlan.enabled()) {
    if (uint8_t Class = faultClassOf(D.K)) {
      if (FaultEvent *E = FPlan.match(Cycle, Class)) {
        Tr.event(Cycle, EventKind::FaultInject,
                 static_cast<uint64_t>(E->Kind), D.HartId);
        switch (E->Kind) {
        case FaultKind::DropDelivery:
          return; // the message vanishes on the link
        case FaultKind::DelayDelivery:
          At += E->Param;
          break;
        case FaultKind::BitFlip:
          D.Value ^= 1u << (E->Param & 31u);
          break;
        case FaultKind::StuckBank:
          break; // applied at the bank port, not here
        }
      }
    }
  }

  if (Cfg.EnableCheckers) {
    Ck.onScheduled(*this, At, D);
    if (Halted)
      return;
  } else {
    assert(At > Cycle && "deliveries must land in the future");
  }

  if (At - Cycle >= WheelSize) {
    // Far future: flat min-heap ordered by (At, Seq). The insertion
    // sequence number makes the pop order of equal-cycle entries match
    // their insertion order, which is what the old ordered-multimap
    // backing guaranteed.
    Overflow.push_back({At, OverflowSeq++, D});
    std::push_heap(Overflow.begin(), Overflow.end(), overflowLater);
    return;
  }
  wheelAppend(At % WheelSize, D);
}

void Machine::wheelAppend(uint64_t Slot, const Delivery &D) {
  uint32_t N = FreeNode;
  if (N != NilNode) {
    FreeNode = Pool[N].Next;
    Pool[N] = {D, NilNode};
  } else {
    assert(Pool.size() < NilNode && "delivery pool index space exhausted");
    N = static_cast<uint32_t>(Pool.size());
    Pool.push_back({D, NilNode});
  }
  WheelSlot &S = Wheel[Slot];
  if (S.Tail == NilNode)
    S.Head = N;
  else
    Pool[S.Tail].Next = N;
  S.Tail = N;
  ++WheelCount;
}

void Machine::collectDue() {
  // The due slot is copied out in FIFO order and its whole list spliced
  // onto the free list; due far-future deliveries append behind it,
  // preserving the wheel-before-overflow arrival order.
  DueBuf.clear();
  WheelSlot &S = Wheel[Cycle % WheelSize];
  if (S.Head != NilNode) {
    for (uint32_t N = S.Head; N != NilNode; N = Pool[N].Next)
      DueBuf.push_back(Pool[N].D);
    WheelCount -= DueBuf.size();
    Pool[S.Tail].Next = FreeNode;
    FreeNode = S.Head;
    S = WheelSlot();
  }
  while (!Overflow.empty() && Overflow.front().At == Cycle) {
    DueBuf.push_back(Overflow.front().D);
    std::pop_heap(Overflow.begin(), Overflow.end(), overflowLater);
    Overflow.pop_back();
  }
}

void Machine::fillSlot(Hart &H, unsigned Slot, uint32_t Value) {
  if (!H.SlotFull[Slot]) {
    H.SlotFull[Slot] = true;
    H.SlotVal[Slot] = Value;
    return;
  }
  H.SlotBacklog.emplace_back(static_cast<uint8_t>(Slot), Value);
}

/// Result-slot values held by \p H right now: occupied slots plus the
/// backlog queued behind them.
static unsigned slotOccupancy(const Hart &H) {
  unsigned N = static_cast<unsigned>(H.SlotBacklog.size());
  for (bool Full : H.SlotFull)
    N += Full;
  return N;
}

void Machine::finishRb(Hart &H, uint32_t Value, uint64_t ReadyCycle) {
  assert(H.RbBusy && "result arrived with no result buffer allocated");
  H.RbReady = true;
  H.RbValue = Value;
  H.RbReadyCycle = ReadyCycle;
}

void Machine::deliver(const Delivery &D) {
  // Whatever this delivery enables, the target core can act on it this
  // very cycle (deliveries precede the stages), so wake it now.
  wakeCore(D.HartId / HartsPerCore, Cycle);
  if (Cfg.EnableCheckers) {
    Ck.onDelivered(*this, D);
    if (Halted)
      return; // a machine check stops the delivery from applying
  }
  LastProgress = Cycle;
  Hart &H = hart(D.HartId);

  switch (D.K) {
  case Delivery::Kind::RbFill:
    finishRb(H, D.Value, Cycle);
    if (D.CountsMem) {
      assert(H.OutstandingMem > 0 && "memory op count underflow");
      --H.OutstandingMem;
    }
    return;

  case Delivery::Kind::MemAck: {
    assert(H.OutstandingMem > 0 && "memory op count underflow");
    --H.OutstandingMem;
    auto It = std::find(H.PendingStoreWords.begin(),
                        H.PendingStoreWords.end(), D.StoreWord);
    if (It != H.PendingStoreWords.end())
      H.PendingStoreWords.erase(It);
    return;
  }

  case Delivery::Kind::BankAccess: {
    uint32_t Addr = D.Addr;
    uint32_t Value = 0;
    // The event stream carries the data values too, so the fingerprint
    // distinguishes runs that differ only in computed data.
    if (isLocalAddr(Addr)) {
      uint32_t Rel = Addr - LocalBase;
      unsigned Core = D.Value; // carries the owning core for local ops
      if (D.IsWrite) {
        Mem.writeLocal(Core, Rel, D.StoreWord, D.Width);
        Tr.event(Cycle, EventKind::BankWrite, Addr, D.StoreWord);
        schedule(D.RespCycle, {Delivery::Kind::MemAck, D.HartId, 0, 0, 0,
                               Addr & ~3u, 4, 0, false, false, false});
      } else {
        Value = Mem.readLocal(Core, Rel, D.Width);
        Tr.event(Cycle, EventKind::BankRead, Addr, Value);
      }
    } else {
      assert(isGlobalAddr(Addr) && "bank access outside banked memory");
      if (Cfg.CollectMemLog)
        MemLog.push_back({Cycle, JoinEpoch, D.HartId, Addr, D.Width,
                          D.IsWrite, D.HartId != 0 || Hart0InTeam});
      uint32_t Rel = Addr - GlobalBase;
      unsigned Bank = Rel >> Cfg.GlobalBankSizeLog2;
      uint32_t Off = Rel & (Cfg.globalBankSize() - 1);
      if (D.IsWrite) {
        Mem.writeGlobal(Bank, Off, D.StoreWord, D.Width);
        Tr.event(Cycle, EventKind::BankWrite, Addr, D.StoreWord);
        schedule(D.RespCycle, {Delivery::Kind::MemAck, D.HartId, 0, 0, 0,
                               Addr & ~3u, 4, 0, false, false, false});
      } else {
        Value = Mem.readGlobal(Bank, Off, D.Width);
        Tr.event(Cycle, EventKind::BankRead, Addr, Value);
      }
    }
    if (!D.IsWrite) {
      if (D.SignExt) {
        unsigned Shift = 32 - 8 * D.Width;
        Value = static_cast<uint32_t>(
            static_cast<int32_t>(Value << Shift) >> Shift);
      }
      schedule(D.RespCycle, {Delivery::Kind::RbFill, D.HartId, Value, 0, 0,
                             0, 4, 0, false, false, true});
    }
    return;
  }

  case Delivery::Kind::IoAccess: {
    uint32_t Offset = 0;
    IoDevice *Dev = findDevice(D.Addr, Offset);
    if (!Dev) {
      fault(formatString("access to unmapped I/O address 0x%08x", D.Addr));
      return;
    }
    if (D.IsWrite) {
      Dev->write(Offset, D.StoreWord, Cycle);
      Tr.event(Cycle, EventKind::IoWrite, D.Addr, D.StoreWord);
      schedule(D.RespCycle, {Delivery::Kind::MemAck, D.HartId, 0, 0, 0,
                             D.Addr & ~3u, 4, 0, false, false, false});
    } else {
      uint32_t Value = Dev->read(Offset, Cycle);
      Tr.event(Cycle, EventKind::IoRead, D.Addr, Value);
      schedule(D.RespCycle, {Delivery::Kind::RbFill, D.HartId, Value, 0, 0,
                             0, 4, 0, false, false, true});
    }
    return;
  }

  case Delivery::Kind::StartHart:
    startHart(D.HartId, D.Value);
    return;

  case Delivery::Kind::Token:
    H.Token = true;
    Tr.event(Cycle, EventKind::TokenPass, D.Value, D.HartId);
    return;

  case Delivery::Kind::JoinMsg:
    if (H.State != HartState::WaitingJoin) {
      fault(formatString("join message reached hart %u which is not "
                         "waiting for a join",
                         D.HartId));
      return;
    }
    H.State = HartState::Running;
    H.StateSince = Cycle;
    H.Pc = D.Value;
    H.PcValid = true;
    H.NoFetchUntil = Cycle + 1;
    H.Token = true;
    Tr.event(Cycle, EventKind::Join, D.HartId, D.Value);
    // A join completes a team barrier: accesses on opposite sides can
    // never race, which is what the mem-log epoch encodes.
    ++JoinEpoch;
    if (D.HartId == 0)
      Hart0InTeam = false;
    return;

  case Delivery::Kind::SlotFill:
    fillSlot(H, D.Slot, D.Value);
    if (Obs)
      Obs->raiseSlotHighWater(D.HartId, slotOccupancy(H));
    return;
  }
  LBP_UNREACHABLE("unknown delivery kind");
}

//===----------------------------------------------------------------------===//
// Hart lifecycle
//===----------------------------------------------------------------------===//

int Machine::allocateHart(unsigned CoreId, unsigned ByHart) {
  Core &C = Cores[CoreId];
  for (unsigned K = 0; K != HartsPerCore; ++K) {
    unsigned H = (C.AllocRR + K) % HartsPerCore;
    if (C.Harts[H].State != HartState::Free)
      continue;
    C.AllocRR = static_cast<uint8_t>((H + 1) % HartsPerCore);
    Hart &Target = C.Harts[H];
    Target.State = HartState::Reserved;
    Target.StateSince = Cycle;
    Target.Regs[RegSP] = hartStackTop(H) - ContFrameSize;
    unsigned Id = hartId(CoreId, H);
    Tr.event(Cycle, EventKind::HartReserve, Id, ByHart);
    // Hart 0 forking means it entered a parallel region (it will run as
    // the team's last member until the join returns to it).
    if (ByHart == 0)
      Hart0InTeam = true;
    return static_cast<int>(Id);
  }
  return -1;
}

void Machine::startHart(unsigned HartId, uint32_t StartPc) {
  Hart &H = hart(HartId);
  if (H.State != HartState::Reserved) {
    fault(formatString("start message reached hart %u which is not "
                       "reserved",
                       HartId));
    return;
  }
  uint32_t Sp = H.Regs[RegSP];
  for (uint32_t &R : H.Regs)
    R = 0;
  H.Regs[RegSP] = Sp;
  H.State = HartState::Running;
  H.StateSince = Cycle;
  H.Pc = StartPc;
  H.PcValid = true;
  H.NoFetchUntil = Cycle + 1;
  LastProgress = Cycle;
  Tr.event(Cycle, EventKind::HartStart, HartId, StartPc);
}

void Machine::freeHart(unsigned HartId) {
  Hart &H = hart(HartId);
  Tr.event(Cycle, EventKind::HartEnd, HartId);
  H.clearForFree();
  // A freed hart un-blocks p_fc retries on this core and p_fn retries
  // on the previous one. This core's own issue stage runs later this
  // same cycle (commit precedes issue), but the previous core's issue
  // already ran, so its retry lands next cycle — exactly when the
  // reference path would succeed.
  unsigned CoreId = HartId / HartsPerCore;
  wakeCore(CoreId, Cycle + 1);
  if (CoreId != 0)
    wakeCore(CoreId - 1, Cycle + 1);
}

void Machine::sendToken(unsigned FromHart, unsigned ToHart) {
  unsigned FromCore = FromHart / HartsPerCore;
  unsigned ToCore = ToHart / HartsPerCore;
  if (ToHart >= Cfg.numHarts()) {
    fault(formatString("ending signal targets nonexistent hart %u",
                       ToHart));
    return;
  }
  if (ToCore != FromCore && ToCore != FromCore + 1) {
    fault(formatString("ending signal from hart %u to hart %u does not "
                       "follow the core line",
                       FromHart, ToHart));
    return;
  }
  schedule(Net.routeForward(FromCore, ToCore, Cycle),
           {Delivery::Kind::Token, static_cast<uint16_t>(ToHart), FromHart,
            0, 0, 0, 4, 0, false, false, false});
}

//===----------------------------------------------------------------------===//
// Commit stage
//===----------------------------------------------------------------------===//

/// The five p_ret ending types (DESIGN.md). Returns true when the entry
/// is allowed to commit this cycle.
static bool retCommittable(const Hart &H, uint32_t Ra, uint32_t T0,
                           unsigned SelfId) {
  if (H.OutstandingMem != 0)
    return false; // p_ret drains the hart's memory accesses
  bool ReturnToSelf = Ra != 0 && hartRefJoin(T0) == SelfId;
  if (ReturnToSelf)
    return true;
  return H.Token;
}

void Machine::commitRet(unsigned CoreId, unsigned HartInCore, Hart &H,
                        RobEntry &E) {
  unsigned SelfId = hartId(CoreId, HartInCore);
  uint32_t Ra = E.SrcVal[0];
  uint32_t T0 = E.SrcVal[1];

  // Type 1: exit the process.
  if (Ra == 0 && T0 == HartRefExit) {
    Halted = true;
    Status = RunStatus::Exited;
    Tr.event(Cycle, EventKind::Exit, SelfId);
    return;
  }

  if (!hartRefIsValid(T0)) {
    fault(formatString("p_ret on hart %u with invalid hart reference "
                       "0x%08x",
                       SelfId, T0));
    return;
  }

  unsigned Join = hartRefJoin(T0);
  unsigned Succ = hartRefSuccessor(T0);

  if (Ra == 0 && Join == SelfId) {
    // Type 2: team head — pass the token on and wait for the join.
    H.Token = false;
    sendToken(SelfId, Succ);
    H.State = HartState::WaitingJoin;
    H.StateSince = Cycle;
    H.PcValid = false;
    return;
  }

  if (Ra == 0) {
    // Type 3: team member — pass the token on and end.
    H.Token = false;
    sendToken(SelfId, Succ);
    freeHart(SelfId);
    return;
  }

  if (Join == SelfId) {
    // Type 4: sequential return-to-self (keeps the token if any).
    H.Pc = Ra;
    H.PcValid = true;
    H.NoFetchUntil = Cycle + 1;
    return;
  }

  // Type 5: last team member — carry the join address and the token back
  // to the team head over the backward line.
  unsigned JoinCore = Join / HartsPerCore;
  if (Join >= Cfg.numHarts() || JoinCore > CoreId) {
    fault(formatString("join from hart %u targets hart %u which does not "
                       "precede it",
                       SelfId, Join));
    return;
  }
  schedule(Net.routeBackward(CoreId, JoinCore, Cycle),
           {Delivery::Kind::JoinMsg, static_cast<uint16_t>(Join), Ra, 0, 0,
            0, 4, 0, false, false, false});
  H.Token = false;
  freeHart(SelfId);
}

bool Machine::stageCommit(unsigned CoreId) {
  Core &C = Cores[CoreId];
  for (unsigned K = 0; K != HartsPerCore; ++K) {
    unsigned HIdx = (C.CommitRR + K) % HartsPerCore;
    Hart &H = C.Harts[HIdx];
    if (H.RobCount == 0)
      continue;
    RobEntry &E = H.Rob[H.RobHead];
    if (E.State != RobEntry::St::Done || E.DoneCycle > Cycle)
      continue;

    bool IsRet = E.I.Op == Opcode::P_JALR && E.I.Rd == 0;
    if (IsRet &&
        !retCommittable(H, E.SrcVal[0], E.SrcVal[1],
                        hartId(CoreId, HIdx)))
      continue;

    C.CommitRR = (HIdx + 1) % HartsPerCore;
    LastProgress = Cycle;
    ++H.Retired;
    ++TotalRetired;
    Tr.event(Cycle, EventKind::Commit, hartId(CoreId, HIdx), E.Pc);

    // Pop before the ret actions: freeing or parking the hart resets or
    // abandons the ROB.
    RobEntry Entry = E;
    H.RobHead = (H.RobHead + 1) % RobEntries;
    --H.RobCount;

    if (IsRet)
      commitRet(CoreId, HIdx, H, Entry);
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Writeback stage
//===----------------------------------------------------------------------===//

bool Machine::stageWriteback(unsigned CoreId) {
  Core &C = Cores[CoreId];
  for (unsigned K = 0; K != HartsPerCore; ++K) {
    unsigned HIdx = (C.WbRR + K) % HartsPerCore;
    Hart &H = C.Harts[HIdx];
    if (!H.RbBusy || !H.RbReady || H.RbReadyCycle > Cycle)
      continue;

    C.WbRR = (HIdx + 1) % HartsPerCore;
    unsigned Idx = static_cast<unsigned>(H.RbEntry);
    RobEntry &E = H.Rob[Idx];
    uint8_t Rd = E.I.Rd;
    if (Rd != 0) {
      // Only the register's newest renamer updates the architectural
      // file; an older writer completing late (e.g. a load that was
      // stalled before issue) must not clobber a younger result.
      if (H.LastRenameSeq[Rd] == E.RenameSeq)
        H.Regs[Rd] = H.RbValue;
      if (H.RegProducer[Rd] == static_cast<int8_t>(Idx))
        H.RegProducer[Rd] = -1;
    }

    // Wake every entry of this hart captured on this producer.
    for (unsigned P = 0; P != H.RobCount; ++P) {
      RobEntry &W = H.Rob[H.robIndex(P)];
      if (W.State != RobEntry::St::Waiting)
        continue;
      for (unsigned S = 0; S != 2; ++S) {
        if (!W.SrcReady[S] &&
            W.SrcProducer[S] == static_cast<int8_t>(Idx)) {
          W.SrcReady[S] = true;
          W.SrcVal[S] = H.RbValue;
          W.SrcProducer[S] = -1;
        }
      }
    }

    E.State = RobEntry::St::Done;
    E.DoneCycle = Cycle;
    H.RbBusy = false;
    H.RbReady = false;
    H.RbEntry = -1;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Issue stage
//===----------------------------------------------------------------------===//

static unsigned latencyFor(const SimConfig &Cfg, ExecClass Class) {
  switch (Class) {
  case ExecClass::Mul:
    return Cfg.MulLatency;
  case ExecClass::Div:
    return Cfg.DivLatency;
  default:
    return Cfg.AluLatency;
  }
}

bool Machine::loadBlockedByStore(const Hart &H, uint32_t Addr) const {
  uint32_t Word = Addr & ~3u;
  return std::find(H.PendingStoreWords.begin(), H.PendingStoreWords.end(),
                   Word) != H.PendingStoreWords.end();
}

/// Checks the conditions that gate issuing \p E beyond source readiness.
static bool extraIssueConditions(const Machine &, const Hart &H,
                                 const RobEntry &E) {
  const isa::Instr &I = E.I;
  // Loads always occupy the result buffer, even toward x0.
  bool NeedsRb =
      I.writesReg() || I.isLoad() || I.Op == Opcode::P_LWRE;
  if (NeedsRb && H.RbBusy)
    return false;
  if (I.Op == Opcode::P_LWRE) {
    uint32_t Slot = static_cast<uint32_t>(I.Imm);
    if (Slot >= ResultSlots)
      return true; // let tryIssue report the fault
    return H.SlotFull[Slot];
  }
  return true;
}

bool Machine::stageIssue(unsigned CoreId) {
  Core &C = Cores[CoreId];
  for (unsigned K = 0; K != HartsPerCore; ++K) {
    unsigned HIdx = (C.IssueRR + K) % HartsPerCore;
    Hart &H = C.Harts[HIdx];
    if (H.RobCount == 0)
      continue;
    for (unsigned P = 0; P != H.RobCount; ++P) {
      unsigned Idx = H.robIndex(P);
      RobEntry &E = H.Rob[Idx];
      if (E.State != RobEntry::St::Waiting || !E.SrcReady[0] ||
          !E.SrcReady[1])
        continue;
      if (!extraIssueConditions(*this, H, E))
        continue;
      if (tryIssue(CoreId, HIdx, Idx)) {
        C.IssueRR = (HIdx + 1) % HartsPerCore;
        if (Cfg.CollectStallStats)
          ++StallByCore[CoreId * NumStallSlots + IssuedSlot];
        return true;
      }
      if (Halted)
        return false;
    }
  }
  if (Cfg.CollectStallStats)
    classifyIssueStall(CoreId);
  return false;
}

void Machine::classifyIssueStall(unsigned CoreId) {
  // Rank causes by how close the work was to issuing.
  Core &C = Cores[CoreId];
  bool SawInFlight = false, SawWaitingOps = false, SawRbBusy = false,
       SawSlotEmpty = false;
  for (Hart &H : C.Harts) {
    for (unsigned P = 0; P != H.RobCount; ++P) {
      RobEntry &E = H.Rob[H.robIndex(P)];
      if (E.State != RobEntry::St::Waiting) {
        SawInFlight = true;
        continue;
      }
      if (!E.SrcReady[0] || !E.SrcReady[1]) {
        SawWaitingOps = true;
        continue;
      }
      // Sources ready but blocked: result buffer or an empty slot.
      if (E.I.Op == Opcode::P_LWRE && !H.RbBusy)
        SawSlotEmpty = true;
      else
        SawRbBusy = true;
    }
  }
  StallCause Cause = StallCause::NoActiveWork;
  if (SawRbBusy)
    Cause = StallCause::RbBusy;
  else if (SawSlotEmpty)
    Cause = StallCause::SlotEmpty;
  else if (SawWaitingOps)
    Cause = StallCause::OperandsNotReady;
  else if (SawInFlight)
    Cause = StallCause::WaitingResponse;
  ++StallByCore[CoreId * NumStallSlots + static_cast<unsigned>(Cause)];
}

bool Machine::tryIssue(unsigned CoreId, unsigned HartInCore,
                       unsigned RobIdx) {
  Hart &H = Cores[CoreId].Harts[HartInCore];
  RobEntry &E = H.Rob[RobIdx];
  const isa::Instr &I = E.I;
  const InstrInfo &Info = instrInfo(I.Op);
  uint32_t A = E.SrcVal[0];
  uint32_t B = E.SrcVal[1];

  auto GrabRb = [&](uint32_t Value, uint64_t ReadyAt) {
    assert(!H.RbBusy && "double result-buffer allocation");
    H.RbBusy = true;
    H.RbReady = true;
    H.RbValue = Value;
    H.RbReadyCycle = ReadyAt;
    H.RbEntry = static_cast<int>(RobIdx);
    E.State = RobEntry::St::Issued;
  };
  auto FinishNoResult = [&](unsigned Lat) {
    E.State = RobEntry::St::Done;
    E.DoneCycle = Cycle + Lat;
  };

  switch (Info.Class) {
  case ExecClass::Alu:
  case ExecClass::Mul:
  case ExecClass::Div: {
    // Counter reads are handled here: they sample machine state the
    // pure evaluator cannot see. Reading at issue keeps them
    // deterministic (issue timing is deterministic).
    if (I.Op == Opcode::RDCYCLE) {
      GrabRb(static_cast<uint32_t>(Cycle), Cycle + Cfg.AluLatency);
      return true;
    }
    if (I.Op == Opcode::RDINSTRET) {
      GrabRb(static_cast<uint32_t>(H.Retired), Cycle + Cfg.AluLatency);
      return true;
    }
    uint32_t Value = evalOp(I, A, B, E.Pc);
    if (I.writesReg())
      GrabRb(Value, Cycle + latencyFor(Cfg, Info.Class));
    else
      FinishNoResult(latencyFor(Cfg, Info.Class));
    return true;
  }

  case ExecClass::Branch: {
    bool Taken = evalBranch(I.Op, A, B);
    H.Pc = E.Pc + (Taken ? static_cast<uint32_t>(I.Imm) : 4u);
    H.PcValid = true;
    H.NoFetchUntil = Cycle + Cfg.AluLatency;
    FinishNoResult(Cfg.AluLatency);
    return true;
  }

  case ExecClass::Jump: {
    if (I.Op == Opcode::JALR) {
      H.Pc = (A + static_cast<uint32_t>(I.Imm)) & ~1u;
      H.PcValid = true;
      H.NoFetchUntil = Cycle + Cfg.AluLatency;
    }
    // JAL resolved its target at decode; both produce the link value.
    if (I.writesReg())
      GrabRb(E.Pc + 4, Cycle + Cfg.AluLatency);
    else
      FinishNoResult(Cfg.AluLatency);
    return true;
  }

  case ExecClass::Load:
  case ExecClass::Store:
    return issueMemOp(CoreId, HartInCore, H, E, RobIdx);

  case ExecClass::XPar:
    if (I.Op == Opcode::P_SWCV || I.Op == Opcode::P_LWCV)
      return issueMemOp(CoreId, HartInCore, H, E, RobIdx);
    return issueXPar(CoreId, HartInCore, H, E, RobIdx);
  }
  LBP_UNREACHABLE("unknown exec class");
}

bool Machine::issueMemOp(unsigned CoreId, unsigned HartInCore, Hart &H,
                         RobEntry &E, unsigned RobIdx) {
  const isa::Instr &I = E.I;
  unsigned SelfId = hartId(CoreId, HartInCore);

  // Decode access shape.
  unsigned Width = 4;
  bool SignExt = false;
  bool IsWrite = false;
  switch (I.Op) {
  case Opcode::LB:
    Width = 1;
    SignExt = true;
    break;
  case Opcode::LH:
    Width = 2;
    SignExt = true;
    break;
  case Opcode::LBU:
    Width = 1;
    break;
  case Opcode::LHU:
    Width = 2;
    break;
  case Opcode::LW:
  case Opcode::P_LWCV:
    break;
  case Opcode::SB:
    Width = 1;
    IsWrite = true;
    break;
  case Opcode::SH:
    Width = 2;
    IsWrite = true;
    break;
  case Opcode::SW:
  case Opcode::P_SWCV:
    IsWrite = true;
    break;
  default:
    LBP_UNREACHABLE("not a memory op");
  }

  // Effective address and (for writes) data.
  uint32_t Addr;
  uint32_t Data = E.SrcVal[1];
  unsigned LocalCore = CoreId; // whose local bank a local address means
  if (I.Op == Opcode::P_SWCV) {
    uint32_t Target = hartRefSuccessor(E.SrcVal[0]);
    if (Target >= Cfg.numHarts()) {
      fault(formatString("p_swcv on hart %u targets nonexistent hart %u",
                         SelfId, Target));
      return false;
    }
    unsigned TargetCore = Target / HartsPerCore;
    if (TargetCore != CoreId && TargetCore != CoreId + 1) {
      fault(formatString("p_swcv on hart %u targets hart %u beyond the "
                         "next core",
                         SelfId, Target));
      return false;
    }
    Hart &T = hart(Target);
    if (T.State == HartState::Free) {
      fault(formatString("p_swcv on hart %u targets free hart %u", SelfId,
                         Target));
      return false;
    }
    Addr = T.Regs[RegSP] + static_cast<uint32_t>(I.Imm);
    LocalCore = TargetCore;
  } else {
    Addr = E.SrcVal[0] + static_cast<uint32_t>(I.Imm);
  }

  if (!IsWrite && loadBlockedByStore(H, Addr))
    return false; // conservative same-word RAW stall

  if (Addr % Width != 0) {
    fault(formatString("misaligned %u-byte access at 0x%08x (hart %u, pc "
                       "0x%x)",
                       Width, Addr, SelfId, E.Pc));
    return false;
  }

  // Classify the destination. Local accesses have a closed-form timing;
  // global and I/O accesses reserve a path through the router tree.
  uint64_t AccessCycle = 0, RespCycle = 0;
  bool IsIo = false;
  bool IsLocal = false;
  unsigned Bank = 0;
  if (isLocalAddr(Addr)) {
    // p_swcv to the next core rides the forward link.
    uint64_t Extra =
        I.Op == Opcode::P_SWCV && LocalCore != CoreId
            ? Net.routeForward(CoreId, LocalCore, Cycle) - Cycle
            : 0;
    AccessCycle = Cycle + Extra + 1;
    RespCycle = Cycle + Extra + Cfg.LocalMemLatency;
    IsLocal = true;
    ++LocalAccesses;
  } else if (isGlobalAddr(Addr)) {
    uint32_t Rel = Addr - GlobalBase;
    Bank = Rel >> Cfg.GlobalBankSizeLog2;
    if (Bank >= Cfg.NumCores) {
      fault(formatString("access at 0x%08x is beyond the last global bank "
                         "(hart %u, pc 0x%x)",
                         Addr, SelfId, E.Pc));
      return false;
    }
    ++(Bank == CoreId ? LocalAccesses : RemoteAccesses);
  } else if (isIoAddr(Addr)) {
    IsIo = true;
  } else if (isCodeAddr(Addr) && !IsWrite) {
    // Constant data in the code bank: served locally, read immediately
    // (the image is immutable).
    uint32_t Value = Mem.fetchWord(Addr & ~3u);
    Value >>= 8 * (Addr & 3u);
    if (Width < 4)
      Value &= (1u << (8 * Width)) - 1u;
    if (SignExt) {
      unsigned Shift = 32 - 8 * Width;
      Value =
          static_cast<uint32_t>(static_cast<int32_t>(Value << Shift) >>
                                Shift);
    }
    H.RbBusy = true;
    H.RbReady = true;
    H.RbValue = Value;
    H.RbReadyCycle = Cycle + Cfg.LocalMemLatency;
    H.RbEntry = static_cast<int>(RobIdx);
    E.State = RobEntry::St::Issued;
    return true;
  } else {
    fault(formatString("store into the code bank at 0x%08x (hart %u, pc "
                       "0x%x)",
                       Addr, SelfId, E.Pc));
    return false;
  }

  // Hart-side effects (identical for every destination class).
  if (IsWrite) {
    ++H.OutstandingMem;
    H.PendingStoreWords.push_back(Addr & ~3u);
    E.State = RobEntry::St::Done;
    E.DoneCycle = Cycle + Cfg.AluLatency;
  } else {
    H.RbBusy = true;
    H.RbReady = false;
    H.RbEntry = static_cast<int>(RobIdx);
    ++H.OutstandingMem;
    E.State = RobEntry::St::Issued;
  }

  if (!IsLocal) {
    Interconnect::GlobalPath Path = IsIo
                                        ? Net.routeIo(Cycle)
                                        : Net.routeGlobal(CoreId, Bank, Cycle);
    AccessCycle = Path.BankCycle;
    RespCycle = Path.ResponseCycle;
    if (!IsIo && FPlan.enabled()) {
      bool NewlyFired = false;
      uint64_t Stall = FPlan.stuckBankStall(Bank, AccessCycle, NewlyFired);
      if (NewlyFired)
        Tr.event(Cycle, EventKind::FaultInject,
                 static_cast<uint64_t>(FaultKind::StuckBank), Bank);
      AccessCycle += Stall;
      RespCycle += Stall;
    }
  }
  RespCycle = std::max(RespCycle, AccessCycle + 1);

  Delivery D;
  D.K = IsIo ? Delivery::Kind::IoAccess : Delivery::Kind::BankAccess;
  D.HartId = static_cast<uint16_t>(SelfId);
  D.Addr = Addr;
  D.Width = static_cast<uint8_t>(Width);
  D.SignExt = SignExt;
  D.IsWrite = IsWrite;
  D.RespCycle = RespCycle;
  // The owning core of a local-bank access (the requesting core for
  // global and I/O accesses, where it is unused).
  D.Value = IsLocal ? LocalCore : CoreId;
  if (IsWrite)
    D.StoreWord = Data;
  schedule(AccessCycle, D);
  return true;
}

bool Machine::issueXPar(unsigned CoreId, unsigned HartInCore, Hart &H,
                        RobEntry &E, unsigned RobIdx) {
  const isa::Instr &I = E.I;
  unsigned SelfId = hartId(CoreId, HartInCore);
  uint32_t A = E.SrcVal[0];
  uint32_t B = E.SrcVal[1];

  auto GrabRb = [&](uint32_t Value, uint64_t ReadyAt) {
    assert(!H.RbBusy && "double result-buffer allocation");
    H.RbBusy = true;
    H.RbReady = true;
    H.RbValue = Value;
    H.RbReadyCycle = ReadyAt;
    H.RbEntry = static_cast<int>(RobIdx);
    E.State = RobEntry::St::Issued;
  };

  switch (I.Op) {
  case Opcode::P_SET:
    GrabRb(hartRefSet(A, SelfId), Cycle + Cfg.AluLatency);
    return true;

  case Opcode::P_MERGE:
    GrabRb(hartRefMerge(A, B), Cycle + Cfg.AluLatency);
    return true;

  case Opcode::P_SYNCM:
    // The fetch block was raised at decode; the instruction itself is a
    // one-cycle no-op in the window.
    E.State = RobEntry::St::Done;
    E.DoneCycle = Cycle + Cfg.AluLatency;
    return true;

  case Opcode::P_FC: {
    int Target = allocateHart(CoreId, SelfId);
    if (Target < 0)
      return false; // retry when a hart frees up
    GrabRb(static_cast<uint32_t>(Target), Cycle + Cfg.AluLatency);
    return true;
  }

  case Opcode::P_FN: {
    if (CoreId + 1 >= Cfg.NumCores) {
      fault(formatString("p_fn on the last core (hart %u): teams cannot "
                         "extend past the end of the line",
                         SelfId));
      return false;
    }
    int Target = allocateHart(CoreId + 1, SelfId);
    if (Target < 0)
      return false;
    GrabRb(static_cast<uint32_t>(Target),
           Cycle + 1 + 2 * Cfg.ForwardLinkLatency);
    return true;
  }

  case Opcode::P_JAL:
  case Opcode::P_JALR: {
    bool IsRet = I.Rd == 0 && I.Op == Opcode::P_JALR;
    if (IsRet) {
      // Ending protocol: values captured, decision at commit.
      E.State = RobEntry::St::Done;
      E.DoneCycle = Cycle + Cfg.AluLatency;
      return true;
    }
    // Fork-calls read the target hart's state (possibly on the next
    // core).
    uint32_t Target = hartRefSuccessor(A);
    if (Target >= Cfg.numHarts()) {
      fault(formatString("fork-call on hart %u targets nonexistent hart "
                         "%u",
                         SelfId, Target));
      return false;
    }
    unsigned TargetCore = Target / HartsPerCore;
    if (TargetCore != CoreId && TargetCore != CoreId + 1) {
      fault(formatString("fork-call on hart %u targets hart %u beyond the "
                         "next core",
                         SelfId, Target));
      return false;
    }
    if (hart(Target).State != HartState::Reserved) {
      fault(formatString("fork-call on hart %u targets hart %u which is "
                         "not reserved",
                         SelfId, Target));
      return false;
    }
    uint64_t Arrive = Net.routeForward(CoreId, TargetCore, Cycle);
    schedule(Arrive,
             {Delivery::Kind::StartHart, static_cast<uint16_t>(Target),
              E.Pc + 4, 0, 0, 0, 4, 0, false, false, false});
    // Local control transfer: p_jal jumped at decode, p_jalr jumps now.
    if (I.Op == Opcode::P_JALR) {
      H.Pc = B;
      H.PcValid = true;
      H.NoFetchUntil = Cycle + Cfg.AluLatency;
    }
    GrabRb(0, Cycle + Cfg.AluLatency); // "clear rd"
    return true;
  }

  case Opcode::P_SWRE: {
    uint32_t Target = A & 0xFFFFu;
    uint32_t Slot = static_cast<uint32_t>(I.Imm);
    if (Target >= Cfg.numHarts() || Slot >= ResultSlots) {
      fault(formatString("p_swre on hart %u with bad target %u or slot "
                         "%u",
                         SelfId, Target, Slot));
      return false;
    }
    unsigned TargetCore = Target / HartsPerCore;
    if (TargetCore > CoreId) {
      fault(formatString("p_swre on hart %u targets hart %u: results may "
                         "only travel to prior harts",
                         SelfId, Target));
      return false;
    }
    Delivery D;
    D.K = Delivery::Kind::SlotFill;
    D.HartId = static_cast<uint16_t>(Target);
    D.Value = B;
    D.Slot = static_cast<uint8_t>(Slot);
    schedule(Net.routeBackward(CoreId, TargetCore, Cycle), D);
    E.State = RobEntry::St::Done;
    E.DoneCycle = Cycle + Cfg.AluLatency;
    return true;
  }

  case Opcode::P_LWRE: {
    uint32_t Slot = static_cast<uint32_t>(I.Imm);
    if (Slot >= ResultSlots) {
      fault(formatString("p_lwre on hart %u with bad slot %u", SelfId,
                         Slot));
      return false;
    }
    assert(H.SlotFull[Slot] && "issue condition checked slot fullness");
    uint32_t Value = H.SlotVal[Slot];
    H.SlotFull[Slot] = false;
    // Refill from the backlog in arrival order.
    for (auto It = H.SlotBacklog.begin(); It != H.SlotBacklog.end(); ++It) {
      if (It->first == Slot) {
        H.SlotFull[Slot] = true;
        H.SlotVal[Slot] = It->second;
        H.SlotBacklog.erase(It);
        break;
      }
    }
    GrabRb(Value, Cycle + Cfg.AluLatency);
    return true;
  }

  default:
    LBP_UNREACHABLE("not an X_PAR opcode");
  }
}

//===----------------------------------------------------------------------===//
// Decode/rename stage
//===----------------------------------------------------------------------===//

bool Machine::stageDecode(unsigned CoreId) {
  Core &C = Cores[CoreId];
  for (unsigned K = 0; K != HartsPerCore; ++K) {
    unsigned HIdx = (C.DecodeRR + K) % HartsPerCore;
    Hart &H = C.Harts[HIdx];
    if (!H.IbFull || H.RobCount == RobEntries)
      continue;

    C.DecodeRR = (HIdx + 1) % HartsPerCore;
    // The text segment was decoded once at load; fall back to live
    // decode for unaligned pcs (register jumps: jalr clears only bit 0,
    // p_jalr and p_ret not even that) and fetches beyond the table.
    uint32_t WordIdx = H.IbPc >> 2;
    const isa::Instr I = (H.IbPc & 3u) == 0 && WordIdx < DecodedText.size()
                             ? DecodedText[WordIdx]
                             : decodeTextWord(H.IbWord);
    if (!I.isValid()) {
      fault(formatString("invalid instruction 0x%08x at pc 0x%x (hart "
                         "%u)",
                         H.IbWord, H.IbPc, hartId(CoreId, HIdx)));
      return true;
    }

    // Fill the slot field by field, in place. Every field is written —
    // the stale ones too (SrcVal of a waiting source, DoneCycle,
    // RenameSeq of a non-writer) — because snapshots serialize every
    // slot, so a slot must read exactly as a freshly constructed one.
    unsigned Idx = H.robIndex(H.RobCount);
    RobEntry &E = H.Rob[Idx];
    E.I = I;
    E.Pc = H.IbPc;
    E.State = RobEntry::St::Waiting;
    E.DoneCycle = 0;

    const InstrInfo &Info = instrInfo(I.Op);
    bool Reads[2] = {Info.ReadsRs1 || I.Op == Opcode::P_LWCV,
                     Info.ReadsRs2};
    uint8_t SrcReg[2] = {I.Rs1, I.Rs2};
    for (unsigned S = 0; S != 2; ++S) {
      int8_t Producer = -1;
      uint32_t Val = 0;
      if (Reads[S] && SrcReg[S] != 0) {
        Producer = H.RegProducer[SrcReg[S]];
        if (Producer < 0)
          Val = H.Regs[SrcReg[S]];
      }
      E.SrcReady[S] = Producer < 0;
      E.SrcVal[S] = Val;
      E.SrcProducer[S] = Producer;
    }

    E.RenameSeq = 0;
    if (I.writesReg()) {
      H.RegProducer[I.Rd] = static_cast<int8_t>(Idx);
      E.RenameSeq = H.NextRenameSeq++;
      H.LastRenameSeq[I.Rd] = E.RenameSeq;
    }

    ++H.RobCount;
    if (Obs)
      Obs->raiseRobHighWater(hartId(CoreId, HIdx), H.RobCount);
    H.IbFull = false;

    // Resolve the next pc when it is known at decode.
    if (I.Op == Opcode::JAL || I.Op == Opcode::P_JAL) {
      H.Pc = E.Pc + static_cast<uint32_t>(I.Imm);
      H.PcValid = true;
    } else if (I.nextPcKnownAtDecode()) {
      H.Pc = E.Pc + 4;
      H.PcValid = true;
    }

    if (I.Op == Opcode::P_SYNCM)
      H.SyncmWait = true;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Fetch stage
//===----------------------------------------------------------------------===//

bool Machine::stageFetch(unsigned CoreId) {
  Core &C = Cores[CoreId];

  // Clear satisfied p_syncm fetch blocks first. Not an "action" for the
  // fast path: the enabling edge (OutstandingMem hitting zero) is a
  // delivery, which woke this core for the same cycle, and the clear
  // runs before the eligibility scan below re-evaluates the hart.
  for (Hart &H : C.Harts)
    if (H.SyncmWait && H.OutstandingMem == 0)
      H.SyncmWait = false;

  for (unsigned K = 0; K != HartsPerCore; ++K) {
    unsigned HIdx = (C.FetchRR + K) % HartsPerCore;
    Hart &H = C.Harts[HIdx];
    if (H.State != HartState::Running || !H.PcValid || H.IbFull ||
        H.SyncmWait || H.NoFetchUntil > Cycle)
      continue;
    if (!isCodeAddr(H.Pc)) {
      fault(formatString("fetch outside the code bank at 0x%08x (hart "
                         "%u)",
                         H.Pc, hartId(CoreId, HIdx)));
      return true;
    }

    C.FetchRR = (HIdx + 1) % HartsPerCore;
    H.IbWord = Mem.fetchWord(H.Pc);
    H.IbPc = H.Pc;
    H.IbFull = true;
    // The hart is suspended after every fetch until decode (or the
    // execute of a control transfer) publishes the next pc.
    H.PcValid = false;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Cycle loop
//===----------------------------------------------------------------------===//

uint64_t Machine::coreWakeCycle(const Core &C, uint64_t Now) const {
  // The only stage conditions that depend on the cycle number are the
  // three timers below; everything else a stage tests is machine state
  // that can only change through a stage action or a delivery. So with
  // no action this cycle, the earliest of these timers is the earliest
  // cycle at which the core could possibly act again on its own.
  uint64_t Wake = UINT64_MAX;
  for (const Hart &H : C.Harts) {
    if (H.State == HartState::Free)
      continue;
    if (H.State == HartState::Running && H.NoFetchUntil > Now &&
        H.NoFetchUntil < Wake)
      Wake = H.NoFetchUntil; // fetch unblocks
    if (H.RbBusy && H.RbReady && H.RbReadyCycle > Now &&
        H.RbReadyCycle < Wake)
      Wake = H.RbReadyCycle; // writeback becomes possible
    for (unsigned P = 0; P != H.RobCount; ++P) {
      const RobEntry &E = H.Rob[H.robIndex(P)];
      if (E.State == RobEntry::St::Done && E.DoneCycle > Now &&
          E.DoneCycle < Wake)
        Wake = E.DoneCycle; // commit becomes possible
    }
  }
  return Wake;
}

uint64_t Machine::nextDeliveryCycle() const {
  uint64_t Next = Overflow.empty() ? UINT64_MAX : Overflow.front().At;
  if (WheelCount != 0) {
    // Every wheel entry lands within WheelSize cycles of now, so the
    // first populated slot on the walk forward is the earliest one.
    for (uint64_t K = 1; K <= WheelSize; ++K) {
      if (Wheel[(Cycle + K) % WheelSize].Head != NilNode) {
        if (Cycle + K < Next)
          Next = Cycle + K;
        break;
      }
    }
  }
  return Next;
}

void Machine::rebuildAwake(uint64_t Now) {
  ++FStats.Rebuilds;
  std::fill(AwakeBits.begin(), AwakeBits.end(), 0);
  WakeBound = UINT64_MAX;
  for (unsigned CoreId = 0; CoreId != Cfg.NumCores; ++CoreId) {
    uint64_t W = CoreWake[CoreId];
    if (W <= Now)
      AwakeBits[CoreId / 64] |= uint64_t(1) << (CoreId % 64);
    else if (W < WakeBound)
      WakeBound = W;
  }
}

bool Machine::coreStages(unsigned CoreId) {
  bool Acted = stageCommit(CoreId);
  if (Halted)
    return Acted;
  Acted |= stageWriteback(CoreId);
  Acted |= stageIssue(CoreId);
  if (Halted)
    return Acted;
  Acted |= stageDecode(CoreId);
  if (Halted)
    return Acted;
  return stageFetch(CoreId) | Acted;
}

bool Machine::cycleStages() {
  if (!FastRun) {
    for (unsigned CoreId = 0; CoreId != Cfg.NumCores; ++CoreId) {
      coreStages(CoreId);
      if (Halted)
        break;
    }
    return false;
  }

  // Active-set scheduling: a sleeping core provably cannot act before
  // its CoreWake entry (deliveries and hart frees pull it forward), and
  // the round-robin pointers only advance on actions, so skipping its
  // stages is invisible to the event stream. The pass walks the awake
  // set in core order, which is the reference loop's order minus the
  // cores that would have no-opped. It walks a copy: a wake during the
  // stages is for Cycle + 1 (wakeCore asserts it), so it must not make
  // a later core run this cycle.
  if (Cycle >= WakeBound)
    rebuildAwake(Cycle); // a sleeping core's timer may be due
  std::copy(AwakeBits.begin(), AwakeBits.end(), AwakeWalk.begin());
  InStages = true;
  bool Acted = false;
  for (size_t Word = 0; Word != AwakeWalk.size(); ++Word) {
    for (uint64_t Bits = AwakeWalk[Word]; Bits != 0; Bits &= Bits - 1) {
      unsigned CoreId =
          static_cast<unsigned>(Word * 64 + std::countr_zero(Bits));
      assert(CoreWake[CoreId] <= Cycle && "awake bit on a sleeping core");
      ++FStats.CorePasses;
      bool CoreActed = coreStages(CoreId);
      if (Halted) {
        InStages = false;
        return Acted;
      }
      if (CoreActed) {
        CoreWake[CoreId] = Cycle; // stay hot: more work next cycle
        Acted = true;
      } else {
        // Later same-cycle wakeCore calls still pull this forward and
        // put the core back in the set.
        uint64_t W = coreWakeCycle(Cores[CoreId], Cycle);
        CoreWake[CoreId] = W;
        AwakeBits[Word] &= ~(uint64_t(1) << (CoreId % 64));
        if (W < WakeBound)
          WakeBound = W;
      }
    }
  }
  InStages = false;
  return Acted;
}

RunStatus Machine::run(uint64_t MaxCycles) {
  if (Status == RunStatus::Fault)
    return Status;
  Engine = FastRun ? EngineKind::FastPath : EngineKind::Reference;
  armPerturb();
  if (Cfg.HostThreads > 1)
    EngineNote = formatString(
        "SimConfig::HostThreads = %u ignored: the sharded parallel engine "
        "was removed, every run uses one host thread",
        Cfg.HostThreads);
  Status = RunStatus::MaxCycles;
  Halted = false;
  uint64_t Budget = MaxCycles;
  const bool Sweeps = Cfg.EnableCheckers && Cfg.CheckInterval != 0;
  const uint64_t Interval = Cfg.CheckInterval;
  // The next sweep boundary strictly after the current cycle; the loop
  // advances it instead of dividing every cycle.
  uint64_t NextSweep = Sweeps ? (Cycle / Interval + 1) * Interval : 0;
  // The awake set is derived state: rebuild it from CoreWake for the
  // first pass (this also covers a snapshot restore and load()).
  const uint64_t StartCycle = Cycle;
  const uint64_t SkippedBefore = FStats.SkippedCycles;
  if (FastRun)
    rebuildAwake(Cycle + 1);

  while (!Halted && Budget-- != 0) {
    ++Cycle;

    // Deliveries first: responses, starts and tokens scheduled for this
    // cycle are visible to the stages below.
    collectDue();
    for (const Delivery &D : DueBuf) {
      deliver(D);
      if (Halted)
        break;
    }
    if (Halted)
      break;

    bool Acted = cycleStages();
    if (Halted)
      break;

    if (Sweeps && Cycle == NextSweep) {
      NextSweep += Interval;
      Ck.sweep(*this);
      if (Halted)
        break;
    }

    if (Cycle - LastProgress > Cfg.ProgressGuard) {
      Status = RunStatus::Livelock;
      FaultMsg = livelockReport();
      break;
    }

    // Quiescence fast-forward: with every core asleep the machine is
    // frozen until the earliest of (a) a core's own timer, (b) the next
    // pending delivery, (c) the cycle the livelock guard would fire,
    // (d) the first checker sweep that could report on the frozen
    // state. Jump to just before that cycle; the skipped cycles are
    // exactly the ones on which the reference loop does nothing
    // observable, so the event stream is bit-identical. WakeBound
    // stands in for (a): it is never above the earliest timer, and a
    // low one only lands the loop on a cycle where nothing happens.
    if (FastRun && !Acted) {
      // Every core that ran went back to sleep, and only an acting
      // commit frees a hart (the one wake for Cycle + 1 a pass makes),
      // so the awake set is empty and WakeBound covers every core.
      assert(std::all_of(AwakeBits.begin(), AwakeBits.end(),
                         [](uint64_t Word) { return Word == 0; }) &&
             "a core is awake after a pass in which none acted");
      uint64_t Target = nextDeliveryCycle();
      if (WakeBound < Target)
        Target = WakeBound;
      uint64_t LivelockAt = Cfg.ProgressGuard >= UINT64_MAX - LastProgress
                                ? UINT64_MAX
                                : LastProgress + Cfg.ProgressGuard + 1;
      if (LivelockAt < Target)
        Target = LivelockAt;
      if (Sweeps && Target > Cycle + 1) {
        uint64_t Concern = Ck.nextSweepConcern(*this);
        if (Concern < Target)
          Target = Concern;
      }
      if (Target > Cycle + 1) {
        // Land on Target itself next iteration; each skipped cycle
        // consumes budget so a MaxCycles exit reports the same cycles()
        // as the reference loop.
        uint64_t Span = Target - Cycle - 1;
        if (Span > Budget)
          Span = Budget;
        if (Span != 0) {
          if (Sweeps) {
            Ck.onSkip(Cycle, Cycle + Span, Interval);
            NextSweep = ((Cycle + Span) / Interval + 1) * Interval;
          }
          Cycle += Span;
          Budget -= Span;
          ++FStats.Jumps;
          FStats.SkippedCycles += Span;
        }
      }
    }
  }
  if (FastRun)
    FStats.VisitedCycles +=
        Cycle - StartCycle - (FStats.SkippedCycles - SkippedBefore);
  Tr.flushDigests(Cycle);
  return Status;
}

/// Arms the PerturbForTest divergence seed for this run. The payload
/// encodes the *host-side* identity of the run — the selected engine —
/// so two runs that the determinism guarantee would make bit-identical
/// diverge at exactly Cfg.PerturbForTest.
void Machine::armPerturb() {
  if (Cfg.PerturbForTest == 0 || Tr.perturbFired())
    return;
  Tr.setPerturb(Cfg.PerturbForTest, static_cast<uint64_t>(Engine) << 16);
}

//===----------------------------------------------------------------------===//
// Livelock diagnosis
//===----------------------------------------------------------------------===//

unsigned Machine::pendingDeliveriesFor(unsigned HartId) const {
  unsigned N = 0;
  for (uint64_t S = 0; S != WheelSize; ++S)
    forEachInSlot(S, [&](const Delivery &D) { N += D.HartId == HartId; });
  for (const OverflowEntry &Entry : Overflow)
    N += Entry.D.HartId == HartId;
  return N;
}

static const char *hartStateName(HartState S) {
  switch (S) {
  case HartState::Free:
    return "free";
  case HartState::Reserved:
    return "reserved";
  case HartState::Running:
    return "running";
  case HartState::WaitingJoin:
    return "waiting-join";
  }
  return "?";
}

/// Best single-line explanation of what a stalled hart is waiting for.
static std::string hartWaitCause(const Hart &H, unsigned Pending) {
  if (H.State == HartState::Reserved)
    return Pending ? "start message still in flight"
                   : "reserved but no start message pending (lost?)";
  if (H.State == HartState::WaitingJoin)
    return Pending ? "join message still in flight"
                   : "waiting for a join that is not in flight";
  if (H.SyncmWait)
    return formatString("p_syncm draining %u outstanding accesses",
                        H.OutstandingMem);
  if (H.RobCount != 0) {
    const RobEntry &E = H.Rob[H.RobHead];
    std::string Head = isa::printInstr(E.I);
    if (E.I.Op == Opcode::P_LWRE && E.State == RobEntry::St::Waiting)
      return formatString("`%s` waiting for result slot %d to fill",
                          Head.c_str(), static_cast<int>(E.I.Imm));
    bool IsRet = E.I.Op == Opcode::P_JALR && E.I.Rd == 0;
    if (IsRet && E.State == RobEntry::St::Done && !H.Token)
      return formatString("`%s` waiting for the ending-signal token",
                          Head.c_str());
    if (H.RbBusy && !H.RbReady)
      return formatString("`%s` awaiting a memory/link response",
                          Head.c_str());
    return formatString("`%s` (%s) at the head of the rob", Head.c_str(),
                        E.State == RobEntry::St::Waiting ? "waiting"
                        : E.State == RobEntry::St::Issued ? "issued"
                                                          : "done");
  }
  if (!H.PcValid && !H.IbFull)
    return "no pc and nothing buffered";
  return "idle front end";
}

std::string Machine::livelockReport() const {
  std::string Report = formatString(
      "livelock: no commit, delivery or hart start since cycle %llu "
      "(guard %llu cycles). Hart wait report:",
      static_cast<unsigned long long>(LastProgress),
      static_cast<unsigned long long>(Cfg.ProgressGuard));
  unsigned Stuck = 0;
  for (unsigned HartId = 0; HartId != Cfg.numHarts(); ++HartId) {
    const Hart &H = hart(HartId);
    if (H.State == HartState::Free)
      continue;
    ++Stuck;
    unsigned Pending = pendingDeliveriesFor(HartId);
    Report += formatString(
        "\n  hart %u (core %u): state=%s pc=0x%x rob=%u outMem=%u "
        "token=%d pending-deliveries=%u — %s",
        HartId, HartId / HartsPerCore, hartStateName(H.State), H.Pc,
        H.RobCount, H.OutstandingMem, static_cast<int>(H.Token), Pending,
        hartWaitCause(H, Pending).c_str());
  }
  if (Stuck == 0)
    Report += "\n  (no hart is live; every delivery has drained)";
  return Report;
}

//===----------------------------------------------------------------------===//
// Observation helpers
//===----------------------------------------------------------------------===//

uint64_t Machine::retiredOnHart(unsigned HartId) const {
  return hart(HartId).Retired;
}

uint64_t Machine::stallCycles(StallCause C) const {
  uint64_t N = 0;
  for (unsigned Core = 0; Core != Cfg.NumCores; ++Core)
    N += stallCycles(C, Core);
  return N;
}

uint64_t Machine::issuedCoreCycles() const {
  uint64_t N = 0;
  for (unsigned Core = 0; Core != Cfg.NumCores; ++Core)
    N += issuedCoreCycles(Core);
  return N;
}

const char *Machine::engineName() const {
  switch (Engine) {
  case EngineKind::Reference:
    return "reference";
  case EngineKind::FastPath:
    return "fastpath";
  }
  return "?";
}

const char *lbp::sim::stallCauseName(Machine::StallCause C) {
  switch (C) {
  case Machine::StallCause::NoActiveWork:
    return "no-active-work";
  case Machine::StallCause::WaitingResponse:
    return "waiting-response";
  case Machine::StallCause::RbBusy:
    return "rb-busy";
  case Machine::StallCause::SlotEmpty:
    return "slot-empty";
  case Machine::StallCause::OperandsNotReady:
    return "operands-not-ready";
  case Machine::StallCause::NumCauses:
    break;
  }
  return "?";
}

uint32_t Machine::debugReadWord(uint32_t Addr, unsigned Core) const {
  if (isCodeAddr(Addr))
    return Mem.fetchWord(Addr);
  if (isLocalAddr(Addr))
    return Mem.readLocal(Core, Addr - LocalBase, 4);
  if (isGlobalAddr(Addr)) {
    uint32_t Rel = Addr - GlobalBase;
    return Mem.readGlobal(Rel >> Cfg.GlobalBankSizeLog2,
                          Rel & (Cfg.globalBankSize() - 1), 4);
  }
  // Mirrors debugWriteWord: silently answering 0 for an unmapped
  // address hides test bugs (I/O registers are only reachable through
  // the simulated timing path).
  assert(false && "debug reads reach only code and data memory");
  return 0;
}

void Machine::debugWriteWord(uint32_t Addr, uint32_t Value, unsigned Core) {
  if (isLocalAddr(Addr)) {
    Mem.writeLocal(Core, Addr - LocalBase, Value, 4);
    return;
  }
  if (isGlobalAddr(Addr)) {
    uint32_t Rel = Addr - GlobalBase;
    Mem.writeGlobal(Rel >> Cfg.GlobalBankSizeLog2,
                    Rel & (Cfg.globalBankSize() - 1), Value, 4);
    return;
  }
  assert(false && "debug writes reach only data memory");
}

uint32_t Machine::debugReadReg(unsigned HartId, unsigned Reg) const {
  assert(Reg < NumRegs && "register index out of range");
  return hart(HartId).Regs[Reg];
}

HartState Machine::hartState(unsigned HartId) const {
  return hart(HartId).State;
}
