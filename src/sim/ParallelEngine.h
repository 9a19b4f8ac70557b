//===- sim/ParallelEngine.h - Sharded engine staging buffers ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-shard staging for the parallel engine (docs/PERFORMANCE.md,
/// "Parallel engine"). A shard worker simulates a contiguous range of
/// cores; every side effect whose *order* is globally observable — trace
/// events, schedule() calls, interconnect reservations, checker counter
/// updates, faults — is appended to the shard's StagedOp stream instead
/// of being applied, and the epoch merge replays the streams in the
/// serial loop's canonical order (per cycle: delivery slot order, then
/// core id; program order within a unit). Hart/bank state owned by the
/// shard is mutated directly, which is race-free because ownership is
/// disjoint and epochs are separated by barriers.
///
/// Every epoch is a window of one or more cycles between two barriers:
/// a shard runs each cycle of the window (its deliveries, then its
/// cores' stages), tagging each replay unit with its cycle so the merge
/// can walk the window cycle by cycle and replay the exact serial
/// interleaving (see ParEngine::planWindow in ParallelEngine.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_PARALLELENGINE_H
#define LBP_SIM_PARALLELENGINE_H

#include "sim/Checker.h"
#include "sim/Machine.h"
#include "sim/Trace.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace lbp {
namespace sim {

/// Hard cap on the adaptive epoch window, in cycles. The sound bound
/// derived from the latency table (ParEngine::WindowMax) is 3 with the
/// calibrated defaults; the cap only sizes the per-offset vectors.
constexpr unsigned MaxEpochWindow = 8;

/// One deferred side effect, replayed at the epoch merge. Kept small —
/// a payload union plus an index into the shard's string table — since
/// the staging streams are the parallel engine's main memory traffic.
struct StagedOp {
  enum class K : uint8_t {
    Event,    ///< Tr.event(M.Cycle, EvK, EvA, EvB).
    Schedule, ///< schedule(At, D) — arrival precomputed (no routing).
    Mem,      ///< routeAndScheduleMem(MI): reserve path, schedule.
    Forward,  ///< routeForward(A, B) then schedule(arrival, D).
    Backward, ///< routeBackward(A, B) then schedule(arrival, D).
    Account,  ///< Checker::accountDelivered(D); when B != 0 a validation
              ///< violation (CheckK, hart A, Msg) is reported right
              ///< after, mirroring the serial onDelivered.
    Fault,    ///< Machine::fault(Msg).
    Exit,     ///< p_ret exit: Status, Halted, Exit event for hart A.
    Wake,     ///< wakeCore(A, At) — cross-shard wake.
    Retire,   ///< ++TotalRetired (paired with the Commit event).
    Stall,    ///< ++StallByCore[A * NumStallSlots + B] (stall/issued
              ///< tallies; docs/OBSERVABILITY.md).
    RobHigh,  ///< Obs.raiseRobHighWater(hart A, depth B) — max-update,
              ///< so replay order and stale worker reads are harmless.
    SlotHigh, ///< Obs.raiseSlotHighWater(hart A, depth B); same
              ///< max-update semantics as RobHigh.
    LocalSched, ///< A delivery the worker scheduled *and will consume*
                ///< inside the current multi-cycle window (local memory
                ///< response to its own shard). The worker already ran
                ///< the wheel insert locally; the merge replays only the
                ///< checker's onScheduled accounting and records the
                ///< shard in the window's canonical due order at cycle
                ///< At (ParEngine::noteLocalSched).
  };
  K Kind = K::Event;
  /// Replay stops (if Machine::Halted) only after ops carrying this
  /// flag. It marks exactly the serial loop's halt checkpoints — after
  /// onDelivered, after each delivery, after each pipeline stage —
  /// because serial code *continues* past a fault everywhere else
  /// (e.g. commitRet still frees the hart after a faulting sendToken),
  /// and the merge must reproduce that.
  bool Check = false;
  CheckKind CheckK = CheckKind::LinkParity;
  EventKind EvK = EventKind::Commit;
  uint32_t A = 0;
  uint32_t B = 0;
  uint64_t At = 0;
  /// Index into ShardBuf::Msgs for Fault / Account-violation text;
  /// UINT32_MAX when the op carries no message.
  uint32_t MsgIdx = UINT32_MAX;
  /// Payload. All members are trivially copyable; Kind selects.
  union {
    Delivery D;                     ///< Schedule/Forward/Backward/
                                    ///< Account/LocalSched.
    MemIntent MI;                   ///< Mem.
    struct {
      uint64_t A, B;
    } Ev;                           ///< Event operands (cycle is the
                                    ///< unit's merge cycle).
  };
  StagedOp() : Ev{0, 0} {}
};

/// One shard's per-epoch staging state. Reused across epochs (the op
/// and range vectors keep their capacity), so the steady state stages
/// without allocating.
struct alignas(64) ShardBuf {
  unsigned CoreBegin = 0; ///< Owned core range [CoreBegin, CoreEnd).
  unsigned CoreEnd = 0;

  /// The shard-local simulated cycle. It walks the window while
  /// Machine::Cycle still holds the epoch base. Machine::now() reads
  /// it, so every latency/wake/event computation in the machine is
  /// window-correct without the hooks knowing about windows.
  uint64_t Now = 0;

  /// Window bounds: the window covers simulated cycles
  /// (WindowBase, WindowEnd].
  uint64_t WindowBase = 0;
  uint64_t WindowEnd = 0;

  std::vector<StagedOp> Ops;
  /// Message text referenced by StagedOp::MsgIdx.
  std::vector<std::string> Msgs;
  /// Half-open index range into Ops for one replay unit (one delivery
  /// or one core's stages), tagged with the simulated cycle it ran at
  /// so the merge can walk the window cycle by cycle.
  struct Range {
    uint32_t Begin = 0;
    uint32_t End = 0;
    uint64_t Cyc = 0;
  };
  std::vector<Range> DueRanges;  ///< Delivery units, shard-serial order.
  std::vector<Range> CoreRanges; ///< Stage units, cycle-major core order.

  /// Deliveries to apply inside the open window, indexed by offset from
  /// WindowBase (1..window length). Seeded from the global wheel at
  /// window setup; grows during the window when a core's local memory
  /// response lands back inside it (Machine::stageOrSchedule). Within
  /// one offset the order is canonical by construction: wheel-seeded
  /// entries first (their global slot order), then local insertions in
  /// shard-serial order.
  std::vector<std::vector<Delivery>> WinDue;

  // Deltas folded commutatively at the barrier (their exact in-cycle
  // order is unobservable).
  int64_t GateDelta = 0;
  int64_t SendDelta = 0;
  uint64_t JoinEpochDelta = 0;
  uint64_t LocalAcc = 0;
  uint64_t RemoteAcc = 0;
  /// Latest cycle at which this shard advanced progress (0 = none);
  /// folded into Machine::LastProgress with max, which reproduces the
  /// serial loop's "cycle of the last progress event".
  uint64_t ProgressCycle = 0;
  bool Acted = false;  ///< A core of this shard acted (fast path).
  bool Halted = false; ///< A staged fault/exit: stop this shard's work.

  uint32_t UnitBegin = 0;
  void beginUnit() { UnitBegin = static_cast<uint32_t>(Ops.size()); }
  void endDueUnit(uint64_t Cyc) {
    DueRanges.push_back({UnitBegin, static_cast<uint32_t>(Ops.size()), Cyc});
  }
  void endCoreUnit(uint64_t Cyc) {
    CoreRanges.push_back({UnitBegin, static_cast<uint32_t>(Ops.size()), Cyc});
  }
  StagedOp &push() {
    Ops.emplace_back();
    return Ops.back();
  }
  uint32_t internMsg(std::string S) {
    Msgs.push_back(std::move(S));
    return static_cast<uint32_t>(Msgs.size() - 1);
  }
  void clearEpoch() {
    Ops.clear();
    Msgs.clear();
    DueRanges.clear();
    CoreRanges.clear();
    if (WinDue.size() != MaxEpochWindow + 1)
      WinDue.resize(MaxEpochWindow + 1);
    for (std::vector<Delivery> &V : WinDue)
      V.clear();
    GateDelta = 0;
    SendDelta = 0;
    JoinEpochDelta = 0;
    LocalAcc = 0;
    RemoteAcc = 0;
    ProgressCycle = 0;
    Acted = false;
    Halted = false;
  }
};

/// The staging sink of the worker currently running on this thread;
/// null on the serial engines and during merges, which is what turns
/// the Machine's side-effect hooks into direct calls. constinit lets
/// every translation unit access it directly instead of through the
/// dynamic-initialization TLS wrapper.
extern constinit thread_local ShardBuf *TlStage;

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_PARALLELENGINE_H
