//===- sim/Machine.h - The LBP manycore machine ------------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level simulator: a line of cores (Fig. 9), the banked memory
/// and router tree (Figs. 13-14), the forward/backward inter-core links,
/// memory-mapped devices (Fig. 17) and the global cycle loop. Everything
/// is deterministic: rerunning the same program on the same configuration
/// reproduces the cycle-by-cycle event stream bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_MACHINE_H
#define LBP_SIM_MACHINE_H

#include "asm/Program.h"
#include "obs/PerfCounters.h"
#include "sim/Checker.h"
#include "sim/Config.h"
#include "sim/Device.h"
#include "sim/FaultInjection.h"
#include "sim/Hart.h"
#include "sim/Memory.h"
#include "sim/Trace.h"

#include <cassert>
#include <memory>
#include <string>

namespace lbp {
namespace sim {

/// Why a run() returned.
enum class RunStatus : uint8_t {
  Exited,    ///< p_ret with ra == 0, t0 == -1 committed.
  MaxCycles, ///< The cycle budget ran out first.
  Livelock,  ///< No progress for SimConfig::ProgressGuard cycles; the
             ///< per-hart wait report is in faultMessage().
  Fault,     ///< Invalid instruction, protocol violation or machine
             ///< check; see faultMessage() and machineChecks().
  Deadline,  ///< A caller-imposed cycle deadline expired (the fleet
             ///< runner's deterministic timeout classification,
             ///< src/fleet/). run() itself never returns this: a run
             ///< that exhausts its budget reports MaxCycles, and the
             ///< fleet promotes that to Deadline when the budget was
             ///< the campaign's per-run deadline. Distinct from
             ///< Livelock, which means the machine itself stopped
             ///< making progress.
};

/// Stable kebab-case name of a run status ("exited", "max-cycles",
/// "livelock", "fault", "deadline"), shared by reports and fleet JSON.
const char *runStatusName(RunStatus S);

/// One in-flight message on the machine's links: memory responses,
/// fork/join protocol messages, the ending-signal token. Every field is
/// fixed at injection time, which is what makes link parity and fault
/// injection well-defined (the whole future of a delivery is decided
/// when it enters a link).
struct Delivery {
  enum class Kind : uint8_t {
    RbFill,     ///< Load/remote value lands in the hart's rb.
    MemAck,     ///< Store acknowledged; OutstandingMem--.
    BankAccess, ///< Perform the read/write at the serving bank.
    IoAccess,   ///< Perform the device register access.
    StartHart,  ///< p_jal/p_jalr start message reaches the hart.
    Token,      ///< Ending-hart signal reaches the hart.
    JoinMsg,    ///< Join address (+ token) resumes the team head.
    SlotFill,   ///< p_swre value reaches a remote-result slot.
  } K;
  uint16_t HartId = 0; ///< Requesting/target hart.
  uint32_t Value = 0;
  uint32_t Addr = 0;
  uint64_t RespCycle = 0; ///< For Bank/IoAccess: response arrival.
  uint32_t StoreWord = 0; ///< Word address a MemAck retires.
  uint8_t Width = 4;
  uint8_t Slot = 0;
  bool IsWrite = false;
  bool SignExt = false;
  bool CountsMem = false; ///< RbFill also decrements OutstandingMem.
  uint8_t Parity = 0;     ///< Link parity, set by Machine::schedule().
};

class Machine {
public:
  explicit Machine(const SimConfig &Config);

  /// Loads a program image: text into the code banks, data into the
  /// global (or local) banks they fall into. Hart 0 of core 0 starts at
  /// the program entry holding the ending-signal token.
  void load(const assembler::Program &Prog);

  /// Maps \p Device over [Base, Base + Size) in the I/O region.
  void addDevice(uint32_t Base, uint32_t Size,
                 std::unique_ptr<IoDevice> Device);

  /// Runs until exit, fault, livelock or \p MaxCycles.
  RunStatus run(uint64_t MaxCycles = UINT64_MAX);

  // -- Checkpointing (sim/Snapshot.h; docs/ROBUSTNESS.md) --------------
  /// Serializes the complete mutable run state — memory banks and code
  /// image, every hart and core, interconnect reservations and traffic
  /// counters, the delivery wheel and overflow heap, the fault-plan
  /// cursor, checker accounting, device state, the perf-counter set and
  /// the trace hash chain — into a versioned binary blob. Taking a
  /// snapshot never perturbs the run: save, continue, and the trace
  /// hash is bit-identical to a run that never snapshotted.
  void saveSnapshot(std::vector<uint8_t> &Out) const;

  /// Restores a saveSnapshot() blob into this machine. The machine must
  /// have been constructed with a behaviorally identical SimConfig (a
  /// config digest in the blob is verified; host-only knobs — FastPath,
  /// trace recording — may differ) and the same devices
  /// added in the same order. On success the machine continues exactly
  /// where the snapshot was taken: running it to completion yields the
  /// same trace hash, cycle count and counter snapshot as the
  /// uninterrupted run, on every engine. Returns false and fills \p Err
  /// on a malformed or mismatched blob, leaving no guarantee about the
  /// machine's state (discard it).
  bool restoreSnapshot(const std::vector<uint8_t> &Blob, std::string &Err);

  // Observation.
  /// Outcome of the last run() (MaxCycles before the first run).
  RunStatus status() const { return Status; }
  uint64_t cycles() const { return Cycle; }
  uint64_t retired() const { return TotalRetired; }
  double ipc() const {
    return Cycle == 0 ? 0.0
                      : static_cast<double>(TotalRetired) /
                            static_cast<double>(Cycle);
  }
  uint64_t retiredOnHart(unsigned HartId) const;
  uint64_t traceHash() const { return Tr.hash(); }
  const Trace &trace() const { return Tr; }
  const std::string &faultMessage() const { return FaultMsg; }

  /// Every invariant violation the machine-check layer detected (the
  /// first one also fails the run through RunStatus::Fault).
  const std::vector<MachineCheck> &machineChecks() const {
    return Ck.checks();
  }

  /// The run's fault-injection schedule (empty unless configured).
  const FaultPlan &faultPlan() const { return FPlan; }
  uint64_t contentionCycles() const { return Net.contentionCycles(); }
  const Interconnect &interconnect() const { return Net; }

  /// Why issue slots went unused (filled when CollectStallStats is on).
  /// One count per core-cycle that issued nothing, by dominant cause.
  enum class StallCause : uint8_t {
    NoActiveWork,    ///< No in-flight instructions on the core at all.
    WaitingResponse, ///< Everything issued, awaiting memory/results.
    RbBusy,          ///< Ready work blocked on the single result buffer.
    SlotEmpty,       ///< p_lwre waiting for a producer.
    OperandsNotReady,///< Entries waiting on in-flight producers.
    NumCauses
  };
  /// Machine-wide stall cycles with cause \p C (sum over cores).
  uint64_t stallCycles(StallCause C) const;
  /// Stall cycles with cause \p C attributed to \p Core.
  uint64_t stallCycles(StallCause C, unsigned Core) const {
    return StallByCore[Core * NumStallSlots + static_cast<unsigned>(C)];
  }
  /// Core-cycles in which an instruction issued (sum over cores).
  uint64_t issuedCoreCycles() const;
  uint64_t issuedCoreCycles(unsigned Core) const {
    return StallByCore[Core * NumStallSlots + IssuedSlot];
  }
  uint64_t remoteAccesses() const { return RemoteAccesses; }
  uint64_t localAccesses() const { return LocalAccesses; }
  const SimConfig &config() const { return Cfg; }

  /// Which cycle loop run() selected (set at the start of every run).
  enum class EngineKind : uint8_t { Reference, FastPath };
  EngineKind engineUsed() const { return Engine; }
  /// Stable display name of engineUsed().
  const char *engineName() const;
  /// Non-empty when the configuration asked for something run() does
  /// not do: SimConfig::HostThreads > 1 is noted as ignored.
  const std::string &engineNote() const { return EngineNote; }

  /// Statistics of the removed sharded engine. Every run is serial now,
  /// so all of them stay zero; the type and its fields remain because
  /// the benchmark harness under perfbench/ still reports them.
  struct EngineStats {
    uint64_t EpochsMerged = 0;
    uint64_t WindowCycles = 0;
    uint64_t GatedCycles = 0;
    uint64_t SkippedCycles = 0;
    uint64_t ShardNanos = 0;
    uint64_t MergeNanos = 0;
    unsigned WorkersUsed = 0;
  };
  const EngineStats &engineStats() const { return EStats; }

  /// Host-side tallies of the fast path's scheduling decisions
  /// (docs/PERFORMANCE.md "The two mechanisms"). They count work the
  /// simulator did, not anything the simulated machine did: they are
  /// not part of a snapshot, never touch the trace hash, accumulate
  /// across run() calls and stay zero on the reference loop.
  struct FastPathStats {
    uint64_t CorePasses = 0;    ///< One core's five stages for one cycle.
    uint64_t VisitedCycles = 0; ///< Cycles the loop ran, not jumped over.
    uint64_t Rebuilds = 0;      ///< Awake-set rebuilds from CoreWake.
    uint64_t Jumps = 0;         ///< Quiescence jumps taken.
    uint64_t SkippedCycles = 0; ///< Cycles those jumps skipped.
  };
  const FastPathStats &fastPathStats() const { return FStats; }

  /// The deterministic counter set (SimConfig::CollectCounters;
  /// docs/OBSERVABILITY.md). Disabled and empty unless configured.
  const obs::PerfCounters &counters() const {
    static const obs::PerfCounters Disabled;
    return Obs ? *Obs : Disabled;
  }

  /// Registers an observer of the canonical trace-event stream (timeline
  /// exporters, phase profilers). Must be called before load() to see
  /// the boot events; the sink must outlive the machine's last run.
  void addTraceSink(TraceSink *S) { Tr.addSink(S); }

  /// Host-side memory access for test setup and result checking (not
  /// part of the simulated timing). Local addresses refer to \p Core.
  uint32_t debugReadWord(uint32_t Addr, unsigned Core = 0) const;
  void debugWriteWord(uint32_t Addr, uint32_t Value, unsigned Core = 0);

  /// Host-side register peek for tests.
  uint32_t debugReadReg(unsigned HartId, unsigned Reg) const;
  HartState hartState(unsigned HartId) const;

  /// One logged shared-global access (SimConfig::CollectMemLog). Epoch
  /// counts the join deliveries (team barriers) seen so far, so two
  /// accesses with different epochs are ordered by a barrier and can
  /// never race. InTeam is true when the access ran on a team member:
  /// any hart other than 0, or hart 0 between forking its team (it
  /// becomes the last member) and receiving the join back.
  struct MemAccess {
    uint64_t Cycle = 0;
    uint64_t Epoch = 0;
    uint16_t Hart = 0;
    uint32_t Addr = 0;
    uint8_t Width = 4;
    bool IsWrite = false;
    bool InTeam = false;
  };
  const std::vector<MemAccess> &memLog() const { return MemLog; }

private:
  friend class Checker;   // read-only sweeps over the machine state
  friend struct SnapshotAccess; // checkpoint serializer (Snapshot.cpp)

  // -- Deliveries -----------------------------------------------------
  void schedule(uint64_t At, Delivery D);
  void deliver(const Delivery &D);
  /// Moves every delivery due this cycle from the wheel/overflow heap
  /// into DueBuf, preserving wheel-before-overflow arrival order.
  void collectDue();

  // -- Pipeline stages (per core, one hart each per cycle) -------------
  // Each returns true when the stage acted (selected a hart and changed
  // state); the fast path uses this to decide whether a core may sleep.
  bool stageCommit(unsigned CoreId);
  bool stageWriteback(unsigned CoreId);
  bool stageIssue(unsigned CoreId);
  bool stageDecode(unsigned CoreId);
  bool stageFetch(unsigned CoreId);

  // -- Issue helpers ---------------------------------------------------
  bool tryIssue(unsigned CoreId, unsigned HartInCore, unsigned RobIdx);
  bool issueMemOp(unsigned CoreId, unsigned HartInCore, Hart &H,
                  RobEntry &E, unsigned RobIdx);
  bool issueXPar(unsigned CoreId, unsigned HartInCore, Hart &H, RobEntry &E,
                 unsigned RobIdx);
  void commitRet(unsigned CoreId, unsigned HartInCore, Hart &H,
                 RobEntry &E);

  // -- Plumbing ---------------------------------------------------------
  Hart &hart(unsigned HartId) {
    return Cores[HartId / HartsPerCore].Harts[HartId % HartsPerCore];
  }
  const Hart &hart(unsigned HartId) const {
    return Cores[HartId / HartsPerCore].Harts[HartId % HartsPerCore];
  }
  unsigned hartId(unsigned CoreId, unsigned HartInCore) const {
    return CoreId * HartsPerCore + HartInCore;
  }
  void fault(std::string Msg);
  /// The livelock diagnosis: one wait-state line per non-free hart.
  std::string livelockReport() const;
  /// (Re)builds DecodedText from the loaded code image (load and
  /// snapshot restore).
  void predecodeText();

  /// Arms SimConfig::PerturbForTest on the trace for this run (run()
  /// calls it once the engine is selected — the payload encodes it).
  void armPerturb();
  /// One pass over the stages for the current cycle: every core on the
  /// reference loop, only the awake set on the fast path. Returns true
  /// when any core acted on the fast path; false also on halt.
  bool cycleStages();
  /// One core's five stages for the current cycle; true when any acted.
  /// Stops early on halt (the caller checks Halted).
  bool coreStages(unsigned CoreId);

  // -- Fast path (SimConfig::FastPath; docs/PERFORMANCE.md) -------------
  /// Earliest cycle strictly comparable to \p Now at which any stage of
  /// \p C could act again, assuming no further deliveries: the minimum
  /// over the core's non-free harts of their pending timer expiries
  /// (NoFetchUntil, result-buffer ready, ROB-entry done). UINT64_MAX
  /// when the core is fully event-driven (only a delivery can make it
  /// act).
  uint64_t coreWakeCycle(const Core &C, uint64_t Now) const;
  /// Pulls \p CoreId's wake cycle forward to \p At (never pushes it
  /// back) and puts the core in the awake set. No stage wakes a core for
  /// the current cycle (deliveries run before the stages; hart frees
  /// wake at Cycle + 1), which is what lets the stage walk iterate a
  /// copy of the set.
  void wakeCore(unsigned CoreId, uint64_t At) {
    assert((At > Cycle || !InStages) &&
           "a stage woke a core for the current cycle");
    if (At < CoreWake[CoreId]) {
      CoreWake[CoreId] = At;
      AwakeBits[CoreId / 64] |= uint64_t(1) << (CoreId % 64);
    }
  }
  /// Recomputes the awake set and WakeBound from CoreWake for a stage
  /// pass at cycle \p Now.
  void rebuildAwake(uint64_t Now);
  /// Cycle of the earliest pending delivery strictly after Cycle, or
  /// UINT64_MAX when none is in flight.
  uint64_t nextDeliveryCycle() const;
  /// Deliveries on the wheel/overflow map targeting \p HartId.
  unsigned pendingDeliveriesFor(unsigned HartId) const;
  void startHart(unsigned HartId, uint32_t StartPc);
  void freeHart(unsigned HartId);
  void sendToken(unsigned FromHart, unsigned ToHart);
  int allocateHart(unsigned CoreId, unsigned ByHart);
  void fillSlot(Hart &H, unsigned Slot, uint32_t Value);
  void finishRb(Hart &H, uint32_t Value, uint64_t ReadyCycle);
  bool loadBlockedByStore(const Hart &H, uint32_t Addr) const;
  IoDevice *findDevice(uint32_t Addr, uint32_t &Offset);

  SimConfig Cfg;
  MemorySystem Mem;
  Interconnect Net;
  Trace Tr;
  FaultPlan FPlan;
  Checker Ck;
  std::vector<Core> Cores;
  /// Fast-path sleep state, one entry per core (see wakeCore): the
  /// earliest cycle at which a stage on core i could act again. The
  /// scheduling loops skip a core's stages while the cycle is below its
  /// entry; deliveries and hart frees pull it forward. Spurious wakes
  /// are harmless (the stages no-op and the core re-sleeps); the
  /// reference path ignores it.
  std::vector<uint64_t> CoreWake;
  /// The fast path's awake set, derived from CoreWake and never
  /// serialized: bit CoreId % 64 of word CoreId / 64 is set exactly when
  /// CoreWake[CoreId] <= the cycle of the next stage pass. wakeCore sets
  /// bits; the end of a core's pass clears its bit when it sleeps.
  std::vector<uint64_t> AwakeBits;
  /// The copy of AwakeBits one stage pass walks.
  std::vector<uint64_t> AwakeWalk;
  /// Lower bound on CoreWake over the cores outside the awake set: no
  /// sleeping core's timer fires before it. A pass at or past it
  /// rebuilds the set. Low is safe (a rebuild or a visited cycle that
  /// does nothing); high would skip a timer, so it is only ever lowered
  /// between rebuilds.
  uint64_t WakeBound = 0;
  /// True while the fast path walks the awake set (wakeCore's assert).
  bool InStages = false;
  FastPathStats FStats;

  uint64_t Cycle = 0;
  uint64_t LastProgress = 0;
  RunStatus Status = RunStatus::MaxCycles;
  bool Halted = false;
  std::string FaultMsg;

  uint64_t TotalRetired = 0;
  // Dynamic-oracle memory log (CollectMemLog; see memLog()).
  std::vector<MemAccess> MemLog;
  uint64_t JoinEpoch = 0;
  bool Hart0InTeam = false;
  uint64_t RemoteAccesses = 0;
  uint64_t LocalAccesses = 0;
  /// Per-core stall/issue tallies, laid out [core * NumStallSlots +
  /// slot] with one slot per StallCause plus IssuedSlot at the end.
  static constexpr unsigned NumStallSlots =
      static_cast<unsigned>(StallCause::NumCauses) + 1;
  static constexpr unsigned IssuedSlot =
      static_cast<unsigned>(StallCause::NumCauses);
  std::vector<uint64_t> StallByCore;
  void classifyIssueStall(unsigned CoreId);

  /// Deterministic counters (SimConfig::CollectCounters): allocated and
  /// attached as a trace sink by the constructor when enabled. On the
  /// heap so the registered sink pointer survives Machine moves; null
  /// doubles as the disabled fast-path guard at the hook sites.
  std::unique_ptr<obs::PerfCounters> Obs;
  EngineKind Engine = EngineKind::Reference;
  std::string EngineNote;

  // Delivery wheel: WheelSize slots of absolute-cycle residues, each a
  // FIFO list threaded through one pool of nodes, plus a far-future
  // overflow heap. The pool holds the deliveries in flight, not a vector
  // per slot sized by its worst burst: a node freed at arrival goes on a
  // LIFO free list and is reused by the next schedule, so the pool grows
  // only until it reaches the run's peak in-flight count. Arrival order
  // within a slot is insertion order, which the event stream (and with
  // it the trace hash) depends on.
  static constexpr uint64_t WheelSize = 1 << 14;
  static constexpr uint32_t NilNode = UINT32_MAX;
  struct WheelNode {
    Delivery D;
    uint32_t Next; ///< Next node of the slot list or of the free list.
  };
  struct WheelSlot {
    uint32_t Head = NilNode;
    uint32_t Tail = NilNode;
  };
  std::vector<WheelNode> Pool;
  uint32_t FreeNode = NilNode; ///< Head of the pool's free list.
  std::vector<WheelSlot> Wheel;
  /// Appends \p D to the tail of wheel slot \p Slot.
  void wheelAppend(uint64_t Slot, const Delivery &D);
  /// Calls \p Fn on every delivery of wheel slot \p Slot, oldest first.
  template <typename FnT> void forEachInSlot(uint64_t Slot, FnT Fn) const {
    for (uint32_t N = Wheel[Slot].Head; N != NilNode; N = Pool[N].Next)
      Fn(Pool[N].D);
  }
  struct OverflowEntry {
    uint64_t At;
    uint64_t Seq;
    Delivery D;
  };
  /// Heap comparator ("later than" on (At, Seq)): std::push_heap with
  /// this predicate builds a min-heap on arrival order. Seq preserves
  /// insertion order among equal arrival cycles.
  static bool overflowLater(const OverflowEntry &L, const OverflowEntry &R) {
    return L.At != R.At ? L.At > R.At : L.Seq > R.Seq;
  }
  /// Min-heap on (At, Seq) via std::push_heap/pop_heap.
  std::vector<OverflowEntry> Overflow;
  uint64_t OverflowSeq = 0;
  /// Entries currently on the wheel (excluding Overflow); lets the fast
  /// path and the checker audit skip full wheel scans when it is empty.
  size_t WheelCount = 0;
  /// Per-cycle delivery staging buffer: collectDue copies the due slot
  /// into it and frees the slot's nodes before any delivery applies, so
  /// deliveries that schedule new ones never touch the list being read.
  std::vector<Delivery> DueBuf;

  /// Effective fast-path switch for this run: SimConfig::FastPath minus
  /// the modes that need every core-cycle observed (stall-cause stats).
  bool FastRun = false;
  /// Text segment decoded once at load() (every engine): the
  /// instruction at word address W is DecodedText[W], with the p_lwcv
  /// operand fixup applied. Valid because LBP code banks are read-only
  /// after load — stores into the code region fault.
  std::vector<isa::Instr> DecodedText;

  /// Always zero (see engineStats()).
  EngineStats EStats;

  struct DeviceMapping {
    uint32_t Base;
    uint32_t Size;
    std::unique_ptr<IoDevice> Dev;
  };
  std::vector<DeviceMapping> Devices;
};

/// Stable kebab-case name of a stall cause ("no-active-work", ...),
/// shared by the examples, the profiler report and the counter JSON.
const char *stallCauseName(Machine::StallCause C);

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_MACHINE_H
