//===- sim/Checker.cpp - Machine-check invariant checkers -------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "sim/Checker.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"

using namespace lbp;
using namespace lbp::sim;

const char *lbp::sim::checkKindName(CheckKind K) {
  switch (K) {
  case CheckKind::LinkParity:
    return "link-parity";
  case CheckKind::TokenLost:
    return "token-lost";
  case CheckKind::TokenDuplicated:
    return "token-duplicated";
  case CheckKind::BadDeliveryTarget:
    return "bad-delivery-target";
  case CheckKind::RbFillWithoutBuffer:
    return "rb-fill-without-buffer";
  case CheckKind::MemAckUnderflow:
    return "mem-ack-underflow";
  case CheckKind::SlotBacklogOverflow:
    return "slot-backlog-overflow";
  case CheckKind::HartLeak:
    return "hart-leak";
  case CheckKind::WheelImbalance:
    return "wheel-imbalance";
  case CheckKind::SchedulePast:
    return "schedule-past";
  }
  return "?";
}

std::string MachineCheck::format() const {
  return formatString("machine check [%s] at cycle %llu (core %u, hart "
                      "%u): %s",
                      checkKindName(Kind),
                      static_cast<unsigned long long>(Cycle), Core, Hart,
                      Message.c_str());
}

static const char *deliveryKindName(Delivery::Kind K) {
  switch (K) {
  case Delivery::Kind::RbFill:
    return "rb-fill";
  case Delivery::Kind::MemAck:
    return "mem-ack";
  case Delivery::Kind::BankAccess:
    return "bank-access";
  case Delivery::Kind::IoAccess:
    return "io-access";
  case Delivery::Kind::StartHart:
    return "start-hart";
  case Delivery::Kind::Token:
    return "token";
  case Delivery::Kind::JoinMsg:
    return "join";
  case Delivery::Kind::SlotFill:
    return "slot-fill";
  }
  return "?";
}

uint8_t lbp::sim::deliveryParity(const Delivery &D) {
  // Every field except the parity byte itself, packed into disjoint bit
  // ranges of three words and XOR-folded down to one byte. Each payload
  // bit lands on exactly one bit of the fold, so any single-bit flip
  // changes the result; the fold has no carries and no dependent
  // multiplies.
  uint64_t Small = static_cast<uint64_t>(D.K) |
                   static_cast<uint64_t>(D.HartId) << 8 |
                   static_cast<uint64_t>(D.Width) << 24 |
                   static_cast<uint64_t>(D.Slot) << 32 |
                   static_cast<uint64_t>(D.IsWrite) << 40 |
                   static_cast<uint64_t>(D.SignExt) << 41 |
                   static_cast<uint64_t>(D.CountsMem) << 42;
  uint64_t Words = static_cast<uint64_t>(D.Value) |
                   static_cast<uint64_t>(D.Addr) << 32;
  uint64_t W = Small ^ Words ^ D.RespCycle ^ D.StoreWord;
  W ^= W >> 32;
  W ^= W >> 16;
  W ^= W >> 8;
  return static_cast<uint8_t>(W);
}

void Checker::report(Machine &M, CheckKind Kind, unsigned HartId,
                     std::string Message) {
  MachineCheck C;
  C.Cycle = M.Cycle;
  C.Core = HartId / HartsPerCore;
  C.Hart = HartId;
  C.Kind = Kind;
  C.Message = std::move(Message);
  M.Tr.event(M.Cycle, EventKind::MachineCheck,
             static_cast<uint64_t>(Kind), HartId);
  M.fault(C.format());
  Checks.push_back(std::move(C));
}

void Checker::onScheduled(Machine &M, uint64_t At, const Delivery &D) {
  if (At <= M.Cycle) {
    report(M, CheckKind::SchedulePast, D.HartId,
           formatString("delivery scheduled for cycle %llu which is not "
                        "in the future",
                        static_cast<unsigned long long>(At)));
    return;
  }
  if (D.HartId >= M.Cfg.numHarts()) {
    report(M, CheckKind::BadDeliveryTarget, 0,
           formatString("delivery targets nonexistent hart %u",
                        static_cast<unsigned>(D.HartId)));
    return;
  }
  ++PendingDeliveries;
  if (D.K == Delivery::Kind::Token || D.K == Delivery::Kind::JoinMsg)
    ++TokensInFlight;
}

void Checker::onDelivered(Machine &M, const Delivery &D) {
  // Accounting first: even a faulting delivery left its link.
  if (PendingDeliveries == 0)
    report(M, CheckKind::WheelImbalance, D.HartId,
           "a delivery arrived that was never scheduled");
  else
    --PendingDeliveries;
  if (D.K == Delivery::Kind::Token || D.K == Delivery::Kind::JoinMsg) {
    if (TokensInFlight)
      --TokensInFlight;
  }

  // The link parity computed at injection must survive the flight.
  if (deliveryParity(D) != D.Parity) {
    report(M, CheckKind::LinkParity, D.HartId,
           formatString("payload of a %s delivery (value 0x%08x, addr "
                        "0x%08x) was corrupted in flight",
                        deliveryKindName(D.K), D.Value, D.Addr));
    return;
  }

  const Hart &H = M.hart(D.HartId);
  switch (D.K) {
  case Delivery::Kind::Token:
    if (H.State == HartState::Free)
      report(M, CheckKind::BadDeliveryTarget, D.HartId,
             "ending-signal token reached a free hart");
    else if (H.Token)
      report(M, CheckKind::TokenDuplicated, D.HartId,
             "hart received the ending-signal token twice");
    return;

  case Delivery::Kind::RbFill:
    if (!H.RbBusy)
      report(M, CheckKind::RbFillWithoutBuffer, D.HartId,
             "result arrived with no result buffer allocated");
    else if (D.CountsMem && H.OutstandingMem == 0)
      report(M, CheckKind::MemAckUnderflow, D.HartId,
             "memory result arrived with no outstanding access");
    return;

  case Delivery::Kind::MemAck:
    if (H.OutstandingMem == 0)
      report(M, CheckKind::MemAckUnderflow, D.HartId,
             "store acknowledgement arrived with no outstanding access");
    return;

  case Delivery::Kind::SlotFill:
    if (H.State == HartState::Free)
      report(M, CheckKind::BadDeliveryTarget, D.HartId,
             formatString("remote result for slot %u reached a free hart",
                          static_cast<unsigned>(D.Slot)));
    else if (H.SlotBacklog.size() > 8 * M.Cfg.numHarts())
      report(M, CheckKind::SlotBacklogOverflow, D.HartId,
             formatString("slot backlog reached %zu entries",
                          H.SlotBacklog.size()));
    return;

  default:
    // StartHart/JoinMsg state mismatches and Bank/IoAccess address
    // errors already fault with precise messages in the delivery path.
    return;
  }
}

void Checker::sweep(Machine &M) {
  ++SweepCount;

  // Ending-token conservation: while the machine is live, exactly one
  // token exists — held by a hart or in flight on a link. A dropped
  // token or join message shows up here as a lost token; a protocol bug
  // that forges one shows up as a duplicate.
  uint64_t Held = 0;
  bool Live = TokensInFlight != 0;
  for (const Core &C : M.Cores) {
    for (const Hart &H : C.Harts) {
      Held += H.Token;
      if (H.State != HartState::Free)
        Live = true;
    }
  }
  if (Live) {
    uint64_t Total = Held + TokensInFlight;
    if (Total == 0) {
      report(M, CheckKind::TokenLost, 0,
             "the ending-signal token vanished (no hart holds it and "
             "none is in flight)");
      return;
    }
    if (Total > 1) {
      report(M, CheckKind::TokenDuplicated, 0,
             formatString("%llu ending-signal tokens exist (%llu held, "
                          "%llu in flight)",
                          static_cast<unsigned long long>(Total),
                          static_cast<unsigned long long>(Held),
                          static_cast<unsigned long long>(TokensInFlight)));
      return;
    }
  }

  // Allocation-leak detection: a hart must leave Reserved once its start
  // message arrives; the reserve-to-start gap is bounded by the forking
  // hart's code path, so a Reserved hart older than half the progress
  // guard means the start was lost.
  uint64_t LeakThreshold = M.Cfg.ProgressGuard / 2;
  if (LeakThreshold < M.Cfg.CheckInterval)
    LeakThreshold = M.Cfg.CheckInterval;
  for (unsigned HartId = 0; HartId != M.Cfg.numHarts(); ++HartId) {
    const Hart &H = M.hart(HartId);
    if (H.State == HartState::Reserved &&
        M.Cycle - H.StateSince > LeakThreshold) {
      report(M, CheckKind::HartLeak, HartId,
             formatString("hart reserved at cycle %llu never received "
                          "its start message",
                          static_cast<unsigned long long>(H.StateSince)));
      return;
    }
  }

  // Delivery-wheel audit (amortized: a full wheel recount every 64
  // sweeps): the incremental pending counter must match the wheel plus
  // the far-future overflow map.
  if (SweepCount % 64 == 0) {
    uint64_t OnWheel = M.Overflow.size();
    for (uint64_t S = 0; S != Machine::WheelSize; ++S)
      M.forEachInSlot(S, [&](const Delivery &) { ++OnWheel; });
    if (OnWheel != PendingDeliveries)
      report(M, CheckKind::WheelImbalance, 0,
             formatString("delivery wheel holds %llu entries but %llu "
                          "are accounted",
                          static_cast<unsigned long long>(OnWheel),
                          static_cast<unsigned long long>(
                              PendingDeliveries)));
  }
}

uint64_t Checker::nextSweepConcern(const Machine &M) const {
  const uint64_t I = M.Cfg.CheckInterval;
  // The next sweep boundary strictly after the current cycle.
  const uint64_t Next = (M.Cycle / I + 1) * I;
  uint64_t Concern = UINT64_MAX;

  // Token conservation: Held and TokensInFlight cannot change while the
  // machine is frozen, so an imbalance that exists now is reported by
  // the very next sweep (and nothing can fire earlier than that).
  uint64_t Held = 0;
  bool Live = TokensInFlight != 0;
  for (const Core &C : M.Cores) {
    for (const Hart &H : C.Harts) {
      Held += H.Token;
      if (H.State != HartState::Free)
        Live = true;
    }
  }
  if (Live && Held + TokensInFlight != 1)
    return Next;

  // Reserved-hart leak: a frozen Reserved hart keeps aging across the
  // skip and trips the threshold at a known cycle; the report lands on
  // the first sweep boundary at or past that cycle.
  uint64_t LeakThreshold = M.Cfg.ProgressGuard / 2;
  if (LeakThreshold < I)
    LeakThreshold = I;
  for (const Core &C : M.Cores) {
    for (const Hart &H : C.Harts) {
      if (H.State != HartState::Reserved)
        continue;
      uint64_t Fires = H.StateSince + LeakThreshold + 1;
      uint64_t Boundary = (Fires + I - 1) / I * I;
      if (Boundary < Next)
        Boundary = Next;
      if (Boundary < Concern)
        Concern = Boundary;
    }
  }

  // Wheel audit: the wheel contents and the pending counter are both
  // constant while frozen, so a divergence that exists now surfaces at
  // the next every-64th-sweep recount.
  if (M.WheelCount + M.Overflow.size() != PendingDeliveries) {
    uint64_t SweepsUntilAudit = 64 - SweepCount % 64;
    uint64_t Audit = Next + (SweepsUntilAudit - 1) * I;
    if (Audit < Concern)
      Concern = Audit;
  }
  return Concern;
}

void Checker::onSkip(uint64_t FromCycle, uint64_t ToCycle,
                     uint64_t Interval) {
  SweepCount += ToCycle / Interval - FromCycle / Interval;
}
