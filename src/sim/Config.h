//===- sim/Config.h - LBP machine configuration ----------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and timing parameters of a simulated LBP machine. The
/// paper's three evaluation sizes are 4, 16 and 64 cores (16/64/256
/// harts); the router tree instantiates r1 per 4 cores, r2 per 4 r1 and
/// r3 per 4 r2 exactly as its Figs. 13-14. Latencies are our calibration
/// (the paper does not publish them); every number is a parameter so the
/// ablation benches can sweep them.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_CONFIG_H
#define LBP_SIM_CONFIG_H

#include <cstdint>
#include <string>

namespace lbp {
namespace sim {

/// Harts per core is fixed by the LBP design (Fig. 11/12).
constexpr unsigned HartsPerCore = 4;

/// Per-hart reorder buffer entries (the paper keeps the out-of-order
/// window minimal; 8 entries is enough to expose distant ILP through
/// multithreading without acting like a big OoO core).
constexpr unsigned RobEntries = 8;

/// Remote-result buffer slots per hart (p_swre/p_lwre targets).
constexpr unsigned ResultSlots = 8;

/// Deterministic transient-fault injection (docs/ROBUSTNESS.md). Every
/// fault is drawn from a SplitMix64 stream seeded with \c Seed, so the
/// same seed on the same configuration reproduces the same fault at the
/// same cycle — which is what makes injected failures replayable.
struct FaultPlanConfig {
  uint64_t Seed = 0;

  // How many events of each class the plan draws.
  unsigned Drops = 0;      ///< Deliveries that vanish on a link
                           ///< (token / join / start / rb-fill /
                           ///< slot-fill).
  unsigned Delays = 0;     ///< Deliveries that arrive late (only the
                           ///< classes for which lateness cannot reorder
                           ///< same-target messages; see
                           ///< docs/ROBUSTNESS.md).
  unsigned BitFlips = 0;   ///< Single-bit payload corruptions on a link.
  unsigned StuckBanks = 0; ///< Global-bank ports that stop serving for a
                           ///< window of cycles.

  /// Trigger cycles are drawn uniformly from [WindowBegin, WindowEnd).
  uint64_t WindowBegin = 1;
  uint64_t WindowEnd = 100000;

  /// Delay faults add 1..MaxDelay cycles to the arrival.
  unsigned MaxDelay = 64;

  /// Length of a stuck-bank window in cycles.
  uint64_t StuckDuration = 64;

  bool enabled() const {
    return Drops + Delays + BitFlips + StuckBanks != 0;
  }
};

struct SimConfig {
  /// Number of cores on the line; must be a power of 4 between 1 and 64
  /// for a full router tree (other values are allowed, the tree is then
  /// partially populated).
  unsigned NumCores = 4;

  /// log2 of the per-core shared global bank size in bytes.
  unsigned GlobalBankSizeLog2 = 16; // 64 KiB

  // Functional-unit latencies (issue to result-ready), in cycles.
  unsigned AluLatency = 1;
  unsigned MulLatency = 3;
  unsigned DivLatency = 16;

  /// Local scratchpad access latency (issue to result-ready).
  unsigned LocalMemLatency = 2;

  /// Own-core shared-bank access through the bank's local port.
  unsigned GlobalLocalPortLatency = 3;

  /// Per-hop link traversal latency in the router tree.
  unsigned RouterHopLatency = 1;

  /// Transactions each router-tree link moves per cycle per direction.
  /// The calibration that reproduces the paper's Fig. 21 ratios is 2
  /// (request + response channels per link pair); the ablation bench
  /// sweeps this.
  unsigned RouterLinkCapacity = 2;

  /// Bank service occupancy per router-side request (1 request/cycle).
  unsigned BankServiceLatency = 1;

  /// Direct forward link to the next core (forks, p_swcv, tokens).
  unsigned ForwardLinkLatency = 1;

  /// Per-core-hop latency on the backward line (joins, p_swre).
  unsigned BackwardHopLatency = 1;

  /// Abort threshold: cycles without any commit, delivery or hart start
  /// before the machine reports a livelock.
  uint64_t ProgressGuard = 1000000;

  /// Fast simulation path (docs/PERFORMANCE.md): quiescence
  /// fast-forward over empty cycles, per-core sleep/wake scheduling so
  /// the pipeline stages only run on cores with in-flight work. The
  /// event stream is bit-identical with the flag on or off — same
  /// traceHash(), cycles() and RunStatus — which the differential tests
  /// enforce; the reference path survives as the oracle. Stall-cause
  /// classification (CollectStallStats) needs every core-cycle
  /// observed, so it forces the reference scheduling loop regardless of
  /// this flag.
  bool FastPath = true;

  /// Record formatted trace events (hashing is always on).
  bool RecordTrace = false;

  /// Cap on the formatted trace lines kept in memory when RecordTrace
  /// is on (docs/PERFORMANCE.md "Trace memory"). 0 means unlimited;
  /// lines past the cap are dropped and counted in
  /// Trace::droppedLines(). Hashing is unaffected — the cap bounds
  /// memory, never the fingerprint.
  uint64_t TraceLineCap = 1u << 20;

  /// When non-empty (and RecordTrace is on), formatted lines stream to
  /// this file instead of accumulating in Machine::trace().lines().
  std::string TraceLineFile;

  /// Classify why each core issued nothing in a cycle (adds a per-cycle
  /// scan; off by default).
  bool CollectStallStats = false;

  /// Deterministic performance counters (docs/OBSERVABILITY.md):
  /// attaches the obs::PerfCounters sink to the trace and arms the
  /// ROB/result-slot high-water hooks. Bit-identical across engines,
  /// and provably hash-neutral (sinks run after hashing). Off by
  /// default; the disabled guard is one inlined branch per hook site,
  /// so disabled runs pay nothing.
  bool CollectCounters = false;

  /// Record every shared-global bank access (hart, address, width,
  /// read/write, barrier epoch) in Machine::memLog(). Off by default:
  /// the log grows with every access and exists for the static
  /// analyzer's dynamic race oracle (docs/ANALYSIS.md), not for normal
  /// simulation.
  bool CollectMemLog = false;

  /// Machine-check invariant checkers (docs/ROBUSTNESS.md). They are
  /// read-only observers of the machine state: a fault-free run produces
  /// the same trace hash with them on or off.
  bool EnableCheckers = true;

  /// Cycle stride of the periodic checker sweep (0 disables the sweep
  /// but keeps the per-delivery checks).
  uint64_t CheckInterval = 64;

  /// Inert: the sharded parallel engine was removed and every run uses
  /// one host thread. A value above 1 is ignored, and run() says so in
  /// Machine::engineNote(). Kept so existing callers still compile.
  unsigned HostThreads = 1;

  /// Inert, like HostThreads: nothing reads it.
  bool OversubscribeHost = false;

  /// Interval-digest stride in cycles (docs/OBSERVABILITY.md
  /// "Divergence triage"): every DigestInterval cycles the running
  /// order-sensitive trace hash is recorded into a bounded ring
  /// (Trace::digestEntries()) and offered to sinks. Purely an
  /// observation of the hash accumulator — provably hash-neutral, the
  /// fingerprint and final hash are unchanged with digests on or off.
  /// 0 disables digesting.
  uint64_t DigestInterval = 4096;

  /// Capacity of the interval-digest ring; when more than this many
  /// boundaries are crossed, the ring keeps the most recent entries and
  /// Trace::digestCount() still reports the total (triage attaches a
  /// sink to capture the full sequence when it needs it).
  unsigned DigestRingCap = 64;

  /// Deliberate divergence seed for tests and CI (docs/OBSERVABILITY.md
  /// "Divergence triage"): when nonzero, the first event at or after
  /// this cycle is preceded by a synthetic EventKind::Perturb event
  /// whose payload encodes the engine — so a reference and a fast-path
  /// run produce hash chains that diverge at exactly this cycle. Never
  /// set outside divergence-triage testing: it deliberately breaks the
  /// engine-bit-identity guarantee.
  uint64_t PerturbForTest = 0;

  /// Transient-fault injection plan; inactive by default.
  FaultPlanConfig Faults;

  unsigned numHarts() const { return NumCores * HartsPerCore; }
  uint32_t globalBankSize() const { return 1u << GlobalBankSizeLog2; }

  /// The paper's machine sizes.
  static SimConfig lbp(unsigned NumCores) {
    SimConfig C;
    C.NumCores = NumCores;
    return C;
  }
};

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_CONFIG_H
