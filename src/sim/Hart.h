//===- sim/Hart.h - Per-hart and per-core microarchitectural state ----------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state behind paper Figs. 11-12: per hart a pc, an instruction
/// buffer (ib), a reorder buffer, Tomasulo-style source capture (the
/// renaming table + rrf collapse into value capture since at most one
/// result-producing instruction of a hart is in flight), a single result
/// buffer (rb), the remote-result slots targeted by p_swre, and the
/// ending-signal token that serializes p_ret commits.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_HART_H
#define LBP_SIM_HART_H

#include "isa/Instr.h"
#include "sim/Config.h"

#include <cstdint>
#include <vector>

namespace lbp {
namespace sim {

/// Lifecycle of a hart on the core line.
enum class HartState : uint8_t {
  Free,        ///< Available to p_fc/p_fn.
  Reserved,    ///< Allocated; its continuation frame is being filled.
  Running,     ///< Fetching/executing.
  WaitingJoin, ///< Team head parked by p_ret until the join arrives.
};

/// One reorder-buffer entry.
struct RobEntry {
  isa::Instr I;
  uint32_t Pc = 0;

  enum class St : uint8_t {
    Waiting, ///< Renamed; waiting for sources or issue conditions.
    Issued,  ///< In a functional unit or awaiting a memory response.
    Done,    ///< Result written back / effect performed; committable.
  } State = St::Waiting;

  bool SrcReady[2] = {true, true};
  uint32_t SrcVal[2] = {0, 0};
  int8_t SrcProducer[2] = {-1, -1}; ///< ROB index of the pending writer.

  uint64_t DoneCycle = 0; ///< Cycle at which St::Done takes effect.

  /// Rename stamp of this entry's destination write (see
  /// Hart::LastRenameSeq): the architectural register file is only
  /// updated by the newest renamer, which is what register renaming
  /// guarantees in the real pipeline.
  uint64_t RenameSeq = 0;
};

/// One hardware thread. Cache-line aligned, so each hart's state starts
/// on a line of its own.
struct alignas(64) Hart {
  HartState State = HartState::Free;
  /// Cycle of the last State transition; the machine-check layer uses it
  /// to spot harts stuck in Reserved (a lost start message).
  uint64_t StateSince = 0;

  // Fetch.
  bool PcValid = false;
  uint32_t Pc = 0;
  uint64_t NoFetchUntil = 0;
  bool SyncmWait = false;

  // Instruction buffer between fetch and decode/rename.
  bool IbFull = false;
  uint32_t IbWord = 0;
  uint32_t IbPc = 0;

  // Architectural registers, written at writeback (no speculation, so
  // no rollback is ever needed).
  uint32_t Regs[32] = {0};
  /// ROB index of the youngest pending writer per register, or -1.
  int8_t RegProducer[32];
  /// Monotone rename stamps: NextRenameSeq is assigned to each decoded
  /// writer, LastRenameSeq[r] remembers register r's newest renamer so
  /// an out-of-order older writeback cannot clobber a younger value.
  uint64_t NextRenameSeq = 1;
  uint64_t LastRenameSeq[32] = {0};

  // Reorder buffer (circular).
  RobEntry Rob[RobEntries];
  unsigned RobHead = 0;
  unsigned RobCount = 0;

  // The single write-back result buffer.
  bool RbBusy = false;
  bool RbReady = false;
  uint64_t RbReadyCycle = 0;
  uint32_t RbValue = 0;
  int RbEntry = -1;

  // p_syncm bookkeeping: in-flight memory accesses and the word
  // addresses of in-flight stores (used for the conservative
  // load-after-store stall, see DESIGN.md).
  unsigned OutstandingMem = 0;
  std::vector<uint32_t> PendingStoreWords;

  // Ending-signal token (paper: "ending hart signal").
  bool Token = false;

  // Remote-result buffers (p_swre targets) plus overflow queue.
  bool SlotFull[ResultSlots] = {false};
  uint32_t SlotVal[ResultSlots] = {0};
  std::vector<std::pair<uint8_t, uint32_t>> SlotBacklog;

  uint64_t Retired = 0;

  Hart() {
    for (int8_t &P : RegProducer)
      P = -1;
  }

  unsigned robIndex(unsigned Pos) const {
    return (RobHead + Pos) % RobEntries;
  }

  /// Resets everything except the retired-instruction counter (which is
  /// a statistic of the run, not hart state).
  void clearForFree() {
    State = HartState::Free;
    StateSince = 0;
    PcValid = false;
    IbFull = false;
    SyncmWait = false;
    NoFetchUntil = 0;
    for (uint32_t &R : Regs)
      R = 0;
    for (int8_t &P : RegProducer)
      P = -1;
    NextRenameSeq = 1;
    for (uint64_t &S : LastRenameSeq)
      S = 0;
    RobHead = 0;
    RobCount = 0;
    RbBusy = RbReady = false;
    RbEntry = -1;
    Token = false;
    // A hart only reaches Free through a p_ret commit, which requires
    // OutstandingMem == 0, so no store acknowledgement can be in flight.
    OutstandingMem = 0;
    for (bool &F : SlotFull)
      F = false;
    SlotBacklog.clear();
    PendingStoreWords.clear();
  }
};

/// One core: four harts plus the per-stage round-robin pointers ("each
/// stage selects one active hart at every cycle", paper Sec. 5.2).
/// The per-core sleep cycle lives in Machine::CoreWake.
struct alignas(64) Core {
  Hart Harts[HartsPerCore];
  uint8_t FetchRR = 0;
  uint8_t DecodeRR = 0;
  uint8_t IssueRR = 0;
  uint8_t WbRR = 0;
  uint8_t CommitRR = 0;
  /// p_fc/p_fn allocation pointer: the scan starts after the hart
  /// allocated last, so teams fill a core's harts in order even when an
  /// earlier member has already ended (stable placement, paper Fig. 3).
  uint8_t AllocRR = 0;
};

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_HART_H
