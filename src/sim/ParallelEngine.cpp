//===- sim/ParallelEngine.cpp - Sharded host-parallel engine ----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third engine (after the reference loop and the fast path): the
/// core line is split into one contiguous shard per host thread, with
/// all globally ordered side effects staged per shard and replayed at
/// the epoch merge in the serial loop's canonical order (cycle, delivery
/// index / core, program order). The trace hash, cycle count, retired
/// count, RunStatus, machine checks and fault-injection behavior are
/// bit-identical for every thread count and every shard partition. See
/// docs/PERFORMANCE.md ("Parallel engine").
///
/// Every epoch is one window between two barriers (planWindow): each
/// shard applies its own deliveries and runs its cores' stages cycle by
/// cycle, and the merge walks the window cycle by cycle. When the
/// delivery wheel and the per-hart front-end scan show no cross-shard
/// traffic possible inside a lookahead window the window spans several
/// cycles; otherwise it spans one. The cycles a window cannot carry — a
/// pending fork gate, an I/O or far-future arrival due next, a near-idle
/// machine — run on the main thread exactly as the reference loop runs
/// them.
///
/// Shard S is always run by thread S (shard 0 by the main thread), so a
/// core's hart state stays on one host cpu for the whole run. The
/// core->shard partition is adaptive: every
/// SimConfig::ShardRebalanceInterval cycles the engine recomputes the
/// contiguous partition from per-core retire tallies. The tallies are
/// simulated state, so the partition sequence is a pure function of the
/// program — and the staging/replay argument makes every partition
/// produce the same observables anyway (the thread-sweep tests drive
/// InitialShardSkew to prove it).
///
//===----------------------------------------------------------------------===//

#include "sim/ParallelEngine.h"
#include "isa/AddressMap.h"
#include "sim/Machine.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <thread>

using namespace lbp;
using namespace lbp::sim;

namespace {
/// Spin briefly, then yield: the barriers are sub-microsecond when the
/// workers are on their own cpus, but oversubscribed hosts (CI, laptops)
/// need the scheduler's help to make progress.
inline void spinWait(unsigned &Backoff) {
  if (++Backoff > 64) {
    std::this_thread::yield();
    Backoff = 0;
  }
}

inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using ClipReason = Machine::EngineStats::ClipReason;
} // namespace

namespace lbp {
namespace sim {

struct ParEngine {
  Machine &M;
  unsigned NumShards = 1;
  unsigned NumWorkers = 0; // spawned threads; the main thread runs shard 0
  /// Sound multi-cycle window bound from the latency table (see
  /// planWindow); 1 disables multi-cycle windows.
  unsigned WindowMax = 1;

  std::vector<ShardBuf> Bufs;
  std::vector<uint16_t> CoreShard; // core id -> owning shard

  // Window state (valid between runWindow and its merge).
  uint64_t WinBase = 0;
  unsigned WinLen = 0;
  /// Canonical delivery order per window offset: one shard id per
  /// delivery unit, wheel-slot order for the epoch-seeded entries,
  /// appended at replay time for window-local insertions (LocalSched).
  std::vector<std::vector<uint16_t>> DueOrder;
  std::vector<uint32_t> DueCursor;  // per-shard window due-unit cursor
  std::vector<uint32_t> CoreCursor; // per-shard window core-unit cursor

  // Deterministic rebalancing bookkeeping.
  std::vector<uint64_t> LastRetired; // per-core retire tally at last cut
  std::vector<uint64_t> Load;        // scratch: per-core load
  std::vector<unsigned> Bounds;      // scratch: partition boundaries
  uint64_t NextRebalance = UINT64_MAX;

  // Generation barrier. Publishing a new Phase value releases the
  // merged machine state to the workers; their Arrived increments
  // release the shard results back. All cross-thread data rides on
  // these two acquire/release edges, so the engine is race-free by
  // construction (the TSan job in CI holds it to that).
  std::atomic<uint32_t> Phase{0};
  std::atomic<uint32_t> Arrived{0};
  std::atomic<bool> Quit{false};
  std::vector<std::thread> Threads;

  explicit ParEngine(Machine &Mach);
  ~ParEngine();

  void workerLoop(unsigned S);
  void runShards();
  void shardWindow(unsigned S);
  unsigned serverCore(const Delivery &D) const;
  unsigned planWindow(uint64_t Budget, bool Sweeps, ClipReason &Why) const;
  bool runWindow(unsigned W);
  void mergeWindow();
  void applyOp(unsigned S, StagedOp &Op);
  void replayRange(unsigned S, ShardBuf::Range R);
  bool foldDeltas();
  void setPartition();
  void maybeRebalance();
};

} // namespace sim
} // namespace lbp

ParEngine::ParEngine(Machine &Mach) : M(Mach) {
  const unsigned N = M.Cfg.NumCores;
  // One shard per host thread, owned by that thread for the whole run.
  NumShards = std::max(1u, std::min(N, M.effectiveHostThreads()));
  Bufs.resize(NumShards);
  CoreShard.resize(N);

  // Even initial split...
  Bounds.assign(NumShards + 1, 0);
  unsigned Base = N / NumShards, Rem = N % NumShards;
  for (unsigned S = 0; S != NumShards; ++S)
    Bounds[S + 1] = Bounds[S] + Base + (S < Rem ? 1 : 0);
  // ...optionally perturbed: each skew unit nudges one boundary by one
  // core (keeping every shard non-empty). The rebalancing-determinism
  // tests sweep this to prove placement never affects observables.
  for (unsigned U = 1; U <= M.Cfg.InitialShardSkew && NumShards > 1; ++U) {
    unsigned B = 1 + (U - 1) % (NumShards - 1);
    if (Bounds[B] - Bounds[B - 1] >= 2)
      --Bounds[B];
    else if (Bounds[B + 1] - Bounds[B] >= 2)
      ++Bounds[B];
  }
  setPartition();

  for (unsigned S = 0; S != NumShards; ++S) {
    Bufs[S].Ops.reserve(64);
    Bufs[S].DueRanges.reserve(32);
    Bufs[S].CoreRanges.reserve(Bufs[S].CoreEnd - Bufs[S].CoreBegin);
    Bufs[S].WinDue.resize(MaxEpochWindow + 1);
  }
  DueOrder.resize(MaxEpochWindow + 1);
  DueCursor.assign(NumShards, 0);
  CoreCursor.assign(NumShards, 0);

  LastRetired.assign(N, 0);
  for (unsigned C = 0; C != N; ++C)
    for (const Hart &H : M.Cores[C].Harts)
      LastRetired[C] += H.Retired;
  Load.resize(N);
  if (M.Cfg.ShardRebalanceInterval != 0 && NumShards > 1)
    NextRebalance = (M.Cycle / M.Cfg.ShardRebalanceInterval + 1) *
                    M.Cfg.ShardRebalanceInterval;

  // The sound window bound (docs/PERFORMANCE.md "Adaptive multi-cycle
  // epochs"): every cross-shard arrival produced inside a window must
  // land strictly after it. The three binding latencies are the global
  // bank's own-core port (GlobalLocalPortLatency), the shortest router
  // path (2 hops + bank service), and the earliest send a p_ret decoded
  // inside the window can commit (2 + AluLatency; p_swre cannot issue
  // in-window at all — it is hazard-class in WinClass).
  uint64_t Wm = M.Cfg.GlobalLocalPortLatency;
  Wm = std::min<uint64_t>(
      Wm, 2 * M.Cfg.RouterHopLatency + M.Cfg.BankServiceLatency);
  Wm = std::min<uint64_t>(Wm, 2 + M.Cfg.AluLatency);
  WindowMax = static_cast<unsigned>(
      std::max<uint64_t>(1, std::min<uint64_t>(Wm, MaxEpochWindow)));
  if (M.Cfg.EpochOverride != 0)
    WindowMax = 1; // forced one-cycle windows

  NumWorkers = NumShards - 1;
  Threads.reserve(NumWorkers);
  for (unsigned S = 1; S != NumShards; ++S)
    Threads.emplace_back([this, S] { workerLoop(S); });
}

ParEngine::~ParEngine() {
  Quit.store(true, std::memory_order_relaxed);
  Phase.fetch_add(1, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
}

void ParEngine::setPartition() {
  for (unsigned S = 0; S != NumShards; ++S) {
    Bufs[S].CoreBegin = Bounds[S];
    Bufs[S].CoreEnd = Bounds[S + 1];
    for (unsigned C = Bounds[S]; C != Bounds[S + 1]; ++C)
      CoreShard[C] = static_cast<uint16_t>(S);
  }
}

void ParEngine::maybeRebalance() {
  if (M.Cycle < NextRebalance)
    return;
  const uint64_t Interval = M.Cfg.ShardRebalanceInterval;
  NextRebalance = (M.Cycle / Interval + 1) * Interval;

  // Per-core load since the last cut (+1 keeps an all-idle stretch on
  // the even split and every prefix strictly increasing).
  const unsigned N = M.Cfg.NumCores;
  uint64_t Total = 0;
  for (unsigned C = 0; C != N; ++C) {
    uint64_t R = 0;
    for (const Hart &H : M.Cores[C].Harts)
      R += H.Retired;
    Load[C] = R - LastRetired[C] + 1;
    LastRetired[C] = R;
    Total += Load[C];
  }

  // Greedy contiguous partition: cut after the core whose load prefix
  // reaches the next ideal share, forcing a cut early enough that every
  // remaining shard keeps at least one core. Pure function of simulated
  // state (retire tallies), so the partition sequence — and through the
  // staging argument, everything else — is host-timing independent.
  Bounds[0] = 0;
  Bounds[NumShards] = N;
  uint64_t Acc = 0;
  unsigned S = 1;
  for (unsigned C = 0; C != N && S != NumShards; ++C) {
    Acc += Load[C];
    bool Forced = C + 1 == N - (NumShards - S);
    if (Forced || Acc * NumShards >= Total * S)
      Bounds[S++] = C + 1;
  }
  setPartition();
  ++M.EStats.Rebalances;
}

void ParEngine::workerLoop(unsigned S) {
  uint32_t Seen = 0;
  for (;;) {
    uint32_t P;
    unsigned Backoff = 0;
    while ((P = Phase.load(std::memory_order_acquire)) == Seen)
      spinWait(Backoff);
    Seen = P;
    if (Quit.load(std::memory_order_relaxed))
      return;
    shardWindow(S);
    Arrived.fetch_add(1, std::memory_order_release);
  }
}

void ParEngine::runShards() {
  Arrived.store(0, std::memory_order_relaxed);
  Phase.fetch_add(1, std::memory_order_release);
  shardWindow(0); // the main thread owns shard 0
  unsigned Backoff = 0;
  while (Arrived.load(std::memory_order_acquire) != NumWorkers)
    spinWait(Backoff);
}

//===----------------------------------------------------------------------===//
// Window planning
//===----------------------------------------------------------------------===//

unsigned ParEngine::serverCore(const Delivery &D) const {
  // A BankAccess is applied at the serving bank: the core whose local
  // scratchpad (D.Value) or global bank it touches, not the requesting
  // hart (whose state a BankAccess never mutates). Every other kind
  // mutates only the target hart's core.
  if (D.K != Delivery::Kind::BankAccess)
    return D.HartId / HartsPerCore;
  return isa::isLocalAddr(D.Addr)
             ? D.Value
             : (D.Addr - isa::GlobalBase) >> M.Cfg.GlobalBankSizeLog2;
}

unsigned ParEngine::planWindow(uint64_t Budget, bool Sweeps,
                               ClipReason &Why) const {
  // A decoded fork-class gate op reads cross-core state when it issues:
  // the whole cycle runs in reference order. Sound because issue
  // precedes decode, so an op decoded in cycle T issues at T+1 at the
  // earliest — after the window that decoded it has been merged.
  if (M.GateCount != 0) {
    Why = ClipReason::ClipGate;
    return 0;
  }
  const uint64_t C0 = M.Cycle;
  uint64_t W = WindowMax;
  auto Clip = [&W, &Why](uint64_t Bound, ClipReason R) {
    if (Bound < W) {
      W = Bound;
      Why = R;
    }
  };

  // Multi-cycle windows need an empty cross-shard in-flight set: no
  // decoded send ops (a p_swre issuing in-window could land a delivery
  // inside it) and no fault plan (its triggers key on the serial
  // schedule cycle, which only a one-cycle window replays exactly).
  if (M.SendCount != 0 || M.FPlan.enabled())
    Clip(1, ClipReason::ClipGate);
  Clip(Budget, ClipReason::ClipBudget);

  // A checker sweep may only land on the window's last cycle (the main
  // loop runs it right after the merge, exactly where the serial loop
  // would).
  if (Sweeps)
    Clip((C0 / M.Cfg.CheckInterval + 1) * M.Cfg.CheckInterval - C0,
         ClipReason::ClipSweep);

  // The serial loop tests the livelock guard after every cycle; never
  // run past the cycle where it could fire. (The test at C0 already
  // passed, so FireAt > C0.)
  if (M.Cfg.ProgressGuard < UINT64_MAX - M.LastProgress)
    Clip(M.LastProgress + M.Cfg.ProgressGuard + 1 - C0,
         ClipReason::ClipLivelock);

  // The window seeds its deliveries from the wheel only; stop before
  // any far-future (overflow-heap) arrival. One due next cycle makes
  // this a serial cycle.
  if (!M.Overflow.empty()) // front().At > C0: C0's dues already ran
    Clip(M.Overflow.front().At - C0 - 1, ClipReason::ClipOverflow);
  if (W == 0)
    return 0;

  // Per-hart front-end scan: bound the window so no hazard-class
  // instruction (gate op or p_swre, see Machine::buildWindowClass) can
  // reach its issue stage inside it. Ops already decoded are covered by
  // the GateCount/SendCount tests above; this scan covers the ib and
  // the fetch stream. A blocked front end (no pc, empty ib) cannot
  // issue anything new before C0+4 on any resume path. No bound here is
  // below 1, so one-cycle windows skip the scan.
  for (const Core &C : M.Cores) {
    if (W < 2)
      break;
    for (const Hart &H : C.Harts) {
      if (H.State == HartState::Free)
        continue;
      uint64_t Wh;
      if (H.IbFull)
        Wh = 1 + M.windowClassAt(H.IbPc);
      else if (H.PcValid)
        Wh = std::min<uint64_t>(3, 2 + M.windowClassAt(H.Pc));
      else
        Wh = 3;
      Clip(Wh, ClipReason::ClipHazard);
    }
  }

  // Wheel scan: every arrival due inside the window must be consumable
  // by one shard alone. Device accesses need the serial loop: stop
  // before the first one (one due next cycle makes a serial cycle). A
  // BankAccess runs on the serving core's shard; when the requester is
  // on another shard its response must land after the window, where the
  // merge schedules it. (Entries in slot (C0+K) % WheelSize are due
  // exactly at C0+K: the wheel spans WheelSize cycles and K is tiny.)
  size_t DueInWindow = 0;
  for (uint64_t K = 1; K <= W; ++K) {
    const std::vector<Delivery> &Slot =
        M.Wheel[(C0 + K) % Machine::WheelSize];
    for (const Delivery &D : Slot) {
      if (D.K == Delivery::Kind::IoAccess) {
        Clip(K - 1, ClipReason::ClipDue);
        break;
      }
      if (D.K == Delivery::Kind::BankAccess &&
          CoreShard[serverCore(D)] != CoreShard[D.HartId / HartsPerCore])
        Clip(D.RespCycle - C0 - 1, ClipReason::ClipDue); // >= K
    }
    if (K > W)
      break;
    DueInWindow += Slot.size();
  }
  if (W == 0)
    return 0;

  // Worth heuristic (deterministic): a window buys one barrier round
  // trip, but a near-idle machine is better served by the serial loop
  // and its quiescence fast-forward.
  unsigned Awake = M.Cfg.NumCores;
  if (M.FastRun) {
    Awake = 0;
    for (uint64_t Wake : M.CoreWake)
      Awake += Wake <= C0 + W ? 1 : 0;
  }
  constexpr size_t MinParallelDue = 4;
  constexpr unsigned MinParallelCores = 2;
  if (Awake < MinParallelCores && DueInWindow < MinParallelDue) {
    Why = ClipReason::ClipWorth;
    return 0;
  }
  return static_cast<unsigned>(W);
}

//===----------------------------------------------------------------------===//
// Windows
//===----------------------------------------------------------------------===//

bool ParEngine::runWindow(unsigned W) {
  const uint64_t C0 = M.Cycle;
  WinBase = C0;
  WinLen = W;

  // Seed every shard's window state and pull the window's deliveries
  // off the wheel, recording the canonical (slot-order) due sequence.
  for (ShardBuf &B : Bufs) {
    B.clearEpoch();
    B.WindowBase = C0;
    B.WindowEnd = C0 + W;
    B.Now = C0;
  }
  for (std::vector<uint16_t> &V : DueOrder)
    V.clear();
  for (uint64_t K = 1; K <= W; ++K) {
    std::vector<Delivery> &Slot = M.Wheel[(C0 + K) % Machine::WheelSize];
    for (const Delivery &D : Slot) {
      assert(D.K != Delivery::Kind::IoAccess &&
             "window planner admitted a device access");
      uint16_t S = CoreShard[serverCore(D)];
      Bufs[S].WinDue[K].push_back(D);
      DueOrder[K].push_back(S);
    }
    M.WheelCount -= Slot.size();
    Slot.clear();
  }

  uint64_t T0 = nowNanos();
  runShards();
  uint64_t T1 = nowNanos();
  mergeWindow();
  bool Acted = foldDeltas();
  uint64_t T2 = nowNanos();

  M.EStats.ShardNanos += T1 - T0;
  M.EStats.MergeNanos += T2 - T1;
  ++M.EStats.EpochsMerged;
  if (W >= 2)
    M.EStats.WindowCycles += W;
  ++M.EStats.WindowHist[std::min<unsigned>(W, MaxEpochWindow)];
  return Acted;
}

void ParEngine::shardWindow(unsigned S) {
  ShardBuf &B = Bufs[S];
  // Serial halt checkpoints sit after each delivery and after the
  // commit, issue, decode and fetch stages; mark the last op staged by
  // the finishing step so the replay stops exactly where the reference
  // loop would.
  auto FlagCheck = [&B] {
    if (B.Ops.size() > B.UnitBegin)
      B.Ops.back().Check = true;
  };
  TlStage = &B;
  for (uint64_t Now = B.WindowBase + 1; Now <= B.WindowEnd && !B.Halted;
       ++Now) {
    B.Now = Now;
    unsigned K = static_cast<unsigned>(Now - B.WindowBase);
    // Deliveries first, as in the serial loop. Window-local responses
    // land in later offsets only (their arrival is strictly in the
    // future), so indexing stays valid while the vector grows.
    std::vector<Delivery> &Due = B.WinDue[K];
    for (size_t I = 0; I != Due.size(); ++I) {
      B.beginUnit();
      M.deliver(Due[I]);
      FlagCheck();
      B.endDueUnit(Now);
      if (B.Halted)
        break;
    }
    if (B.Halted)
      break;
    for (unsigned CoreId = B.CoreBegin; CoreId != B.CoreEnd; ++CoreId) {
      Core &C = M.Cores[CoreId];
      B.beginUnit();
      if (M.FastRun && Now < M.CoreWake[CoreId]) {
        B.endCoreUnit(Now); // empty unit keeps the merge cursors aligned
        continue;
      }
      bool CoreActed = M.stageCommit(CoreId);
      FlagCheck();
      if (B.Halted) {
        B.endCoreUnit(Now);
        break;
      }
      CoreActed |= M.stageWriteback(CoreId);
      CoreActed |= M.stageIssue(CoreId);
      FlagCheck();
      if (B.Halted) {
        B.endCoreUnit(Now);
        break;
      }
      CoreActed |= M.stageDecode(CoreId);
      FlagCheck();
      if (B.Halted) {
        B.endCoreUnit(Now);
        break;
      }
      CoreActed |= M.stageFetch(CoreId);
      FlagCheck();
      if (B.Halted) {
        B.endCoreUnit(Now);
        break;
      }
      if (M.FastRun) {
        if (CoreActed) {
          M.CoreWake[CoreId] = Now;
          B.Acted = true;
        } else {
          M.CoreWake[CoreId] = M.coreWakeCycle(C, Now);
        }
      }
      B.endCoreUnit(Now);
    }
  }
  TlStage = nullptr;
}

void ParEngine::mergeWindow() {
  std::fill(DueCursor.begin(), DueCursor.end(), 0);
  std::fill(CoreCursor.begin(), CoreCursor.end(), 0);
  const uint64_t C0 = WinBase;
  const unsigned W = WinLen;
  for (unsigned K = 1; K <= W && !M.Halted; ++K) {
    M.Cycle = C0 + K;
    // Delivery units in canonical order. DueOrder[K] may grow while we
    // walk it — LocalSched replays append — but only for offsets
    // strictly beyond the op's creation cycle, never the current one.
    std::vector<uint16_t> &Ord = DueOrder[K];
    for (size_t I = 0; I != Ord.size() && !M.Halted; ++I) {
      unsigned S = Ord[I];
      ShardBuf &B = Bufs[S];
      if (DueCursor[S] >= B.DueRanges.size())
        break; // shard stopped early (its halt already replayed)
      ShardBuf::Range R = B.DueRanges[DueCursor[S]++];
      assert(R.Cyc == C0 + K && "window due replay out of step");
      replayRange(S, R);
    }
    if (M.Halted)
      break;
    for (unsigned C = 0; C != M.Cfg.NumCores && !M.Halted; ++C) {
      unsigned S = CoreShard[C];
      ShardBuf &B = Bufs[S];
      if (CoreCursor[S] >= B.CoreRanges.size())
        break; // shard stopped early (its halt already replayed)
      ShardBuf::Range R = B.CoreRanges[CoreCursor[S]++];
      assert(R.Cyc == C0 + K && "window core replay out of step");
      replayRange(S, R);
    }
  }
  // A halt leaves Cycle at the halting cycle, exactly like the serial
  // loop; otherwise the whole window was merged.
  if (!M.Halted)
    M.Cycle = C0 + W;
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

void ParEngine::applyOp(unsigned S, StagedOp &Op) {
  ShardBuf &B = Bufs[S];
  switch (Op.Kind) {
  case StagedOp::K::Event:
    M.Tr.replay({M.Cycle, Op.Ev.A, Op.Ev.B, Op.EvK});
    return;
  case StagedOp::K::Schedule:
    M.schedule(Op.At, Op.D);
    return;
  case StagedOp::K::Mem:
    M.routeAndScheduleMem(Op.MI);
    return;
  case StagedOp::K::Forward:
    M.schedule(M.Net.routeForward(Op.A, Op.B, M.Cycle), Op.D);
    return;
  case StagedOp::K::Backward:
    M.schedule(M.Net.routeBackward(Op.A, Op.B, M.Cycle), Op.D);
    return;
  case StagedOp::K::Account:
    M.Ck.accountDelivered(M, Op.D);
    if (Op.B != 0)
      M.Ck.reportStaged(M, Op.CheckK, Op.A, std::move(B.Msgs[Op.MsgIdx]));
    return;
  case StagedOp::K::Fault:
    M.fault(std::move(B.Msgs[Op.MsgIdx]));
    return;
  case StagedOp::K::Exit:
    M.Halted = true;
    M.Status = RunStatus::Exited;
    M.Tr.event(M.Cycle, EventKind::Exit, Op.A);
    return;
  case StagedOp::K::Wake:
    M.wakeCore(Op.A, Op.At);
    return;
  case StagedOp::K::Retire:
    ++M.TotalRetired;
    return;
  case StagedOp::K::Stall:
    ++M.StallByCore[Op.A * Machine::NumStallSlots + Op.B];
    return;
  case StagedOp::K::RobHigh:
    M.Obs->raiseRobHighWater(Op.A, Op.B);
    return;
  case StagedOp::K::SlotHigh:
    M.Obs->raiseSlotHighWater(Op.A, Op.B);
    return;
  case StagedOp::K::LocalSched:
    // The worker already ran the wheel insert and consumes the delivery
    // inside the window itself; replay only the checker's schedule
    // accounting and record the shard in the canonical due order at the
    // arrival offset.
    if (M.Cfg.EnableCheckers) {
      M.Ck.onScheduled(M, Op.At, Op.D);
      if (M.Halted)
        return; // like serial schedule(): the delivery never lands
    }
    DueOrder[Op.At - WinBase].push_back(static_cast<uint16_t>(S));
    return;
  }
}

void ParEngine::replayRange(unsigned S, ShardBuf::Range R) {
  ShardBuf &B = Bufs[S];
  for (uint32_t I = R.Begin; I != R.End; ++I) {
    StagedOp &Op = B.Ops[I];
    applyOp(S, Op);
    if (Op.Check && M.Halted)
      return; // a serial halt checkpoint fired
  }
}

bool ParEngine::foldDeltas() {
  bool Acted = false;
  for (ShardBuf &B : Bufs) {
    M.GateCount = static_cast<uint64_t>(
        static_cast<int64_t>(M.GateCount) + B.GateDelta);
    M.SendCount = static_cast<uint64_t>(
        static_cast<int64_t>(M.SendCount) + B.SendDelta);
    M.JoinEpoch += B.JoinEpochDelta;
    M.LocalAccesses += B.LocalAcc;
    M.RemoteAccesses += B.RemoteAcc;
    // Max-fold reproduces the serial "cycle of the last progress".
    if (B.ProgressCycle > M.LastProgress)
      M.LastProgress = B.ProgressCycle;
    Acted |= B.Acted;
  }
  return Acted;
}

//===----------------------------------------------------------------------===//
// The engine loop
//===----------------------------------------------------------------------===//

const char *Machine::EngineStats::clipName(unsigned R) {
  static const char *const Names[NumClipReasons] = {
      "budget", "sweep", "livelock", "overflow", "hazard",
      "due",    "worth", "gate",     "serial"};
  assert(R < NumClipReasons && "clip reason out of range");
  return Names[R];
}

RunStatus Machine::runParallel(uint64_t MaxCycles) {
  assert(parallelEligible() && "parallel engine on an ineligible config");
  Status = RunStatus::MaxCycles;
  Halted = false;
  uint64_t Budget = MaxCycles;
  const bool Sweeps = Cfg.EnableCheckers && Cfg.CheckInterval != 0;

  ParEngine E(*this);
  EStats.WorkersUsed = E.NumWorkers + 1;
  if (EngineNote.empty() && effectiveHostThreads() < Cfg.HostThreads)
    EngineNote = formatString(
        "HostThreads = %u clamped to %u (host hardware concurrency); set "
        "SimConfig::OversubscribeHost to force the full worker count",
        Cfg.HostThreads, effectiveHostThreads());

  while (!Halted && Budget != 0) {
    E.maybeRebalance();

    ClipReason Why = ClipReason::NumClipReasons;
    unsigned W = E.planWindow(Budget, Sweeps, Why);
    if (W < E.WindowMax) {
      ++EStats.Clips[Why];
      if (W == 0)
        ++EStats.Clips[ClipReason::ClipSerial];
    }

    bool Acted;
    if (W != 0) {
      Budget -= W;
      Acted = E.runWindow(W);
    } else {
      // A serial cycle: the reference loop's body on the main thread.
      --Budget;
      ++Cycle;
      ++EStats.WindowHist[0];
      if (GateCount != 0)
        ++EStats.GatedCycles;
      collectDue();
      for (const Delivery &D : DueBuf) {
        deliver(D);
        if (Halted)
          break;
      }
      if (Halted)
        break;
      Acted = cycleStagesSerial();
    }
    if (Halted)
      break;

    if (Sweeps && Cycle % Cfg.CheckInterval == 0) {
      Ck.sweep(*this);
      if (Halted)
        break;
    }

    if (Cycle - LastProgress > Cfg.ProgressGuard) {
      Status = RunStatus::Livelock;
      FaultMsg = livelockReport();
      break;
    }

    // Quiescence fast-forward, identical to run(): with every core
    // asleep the machine is frozen until the earliest timer, delivery,
    // livelock-guard or sweep concern.
    if (FastRun && !Acted) {
      uint64_t Target = nextDeliveryCycle();
      for (uint64_t Wake : CoreWake)
        if (Wake < Target)
          Target = Wake;
      uint64_t LivelockAt = Cfg.ProgressGuard >= UINT64_MAX - LastProgress
                                ? UINT64_MAX
                                : LastProgress + Cfg.ProgressGuard + 1;
      if (LivelockAt < Target)
        Target = LivelockAt;
      if (Sweeps) {
        uint64_t Concern = Ck.nextSweepConcern(*this);
        if (Concern < Target)
          Target = Concern;
      }
      if (Target > Cycle + 1) {
        uint64_t Span = Target - Cycle - 1;
        if (Span > Budget)
          Span = Budget;
        if (Span != 0) {
          if (Sweeps)
            Ck.onSkip(Cycle, Cycle + Span, Cfg.CheckInterval);
          Cycle += Span;
          Budget -= Span;
          EStats.SkippedCycles += Span;
        }
      }
    }
  }
  return Status;
}
