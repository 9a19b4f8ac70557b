//===- obs/Triage.h - Divergence triage: bisect to the first bad event -----===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Localizes a determinism violation to its first observable cause
/// (docs/OBSERVABILITY.md "Divergence triage"). Given two run
/// configurations of the same program whose fingerprints diverge —
/// engine, host-thread count or fault plan may differ — the triager:
///
///   1. runs both sides once, capturing the full interval-digest
///      sequence (Trace::configureDigests) through a TraceSink;
///   2. compares the digest sequences to find the last boundary at
///      which the hash chains still agree;
///   3. re-runs each side to one cycle before that boundary, snapshots
///      it (sim/Snapshot), restores the snapshot into a fresh machine
///      with full event capture attached, and replays a window of at
///      most 2 * DigestInterval cycles;
///   4. compares the captured canonical event streams index by index
///      and reports the first divergent trace event — cycle, core,
///      hart, kind, operands — plus a K-event context window from each
///      side.
///
/// The report (triageReportToJson) is canonical: the same two configs
/// on the same program produce a byte-identical document, which is what
/// lets CI diff reports across runs. bench_simspeed and lbp_fleet embed
/// it in their own JSON payloads when a divergence gate trips.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_OBS_TRIAGE_H
#define LBP_OBS_TRIAGE_H

#include "sim/Config.h"
#include "sim/Machine.h"
#include "sim/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lbp {
namespace assembler {
class Program;
}

namespace obs {

/// One side of a divergence: a label plus the full machine config.
/// Host-side knobs (FastPath) are the usual suspects;
/// behavior knobs (fault plan, PerturbForTest) are allowed to differ
/// too — triage then explains what the difference did.
struct TriageRunSpec {
  std::string Name; ///< e.g. "reference", "fastpath".
  sim::SimConfig Cfg;
};

struct TriageOptions {
  /// Events of leading and trailing context captured around the first
  /// divergent event, per side.
  unsigned ContextEvents = 8;

  /// Cycle budget for the phase-1 full runs.
  uint64_t MaxCycles = 20000000;
};

/// One canonical trace event as captured during replay.
struct TriageEvent {
  uint64_t Cycle = 0;
  sim::EventKind Kind = sim::EventKind::Commit;
  uint64_t A = 0;
  uint64_t B = 0;

  bool operator==(const TriageEvent &O) const {
    return Cycle == O.Cycle && Kind == O.Kind && A == O.A && B == O.B;
  }
};

/// Hart an event is attributed to, from the operand conventions in
/// sim/Trace.h; -1 when the kind carries no hart (bank/io traffic).
int triageEventHart(const TriageEvent &E);

/// Core an event is attributed to: the hart's core, the owning bank's
/// core for bank traffic (derived with \p BankSizeLog2), -1 otherwise.
int triageEventCore(const TriageEvent &E, unsigned BankSizeLog2);

/// Phase-1 outcome of one side.
struct TriageSideResult {
  std::string Name;
  std::string EngineName;
  sim::RunStatus Status = sim::RunStatus::MaxCycles;
  uint64_t Cycles = 0;
  uint64_t Retired = 0;
  uint64_t TraceHash = 0;
  uint64_t DigestCount = 0;

  /// Replay capture: events from the restored window, and the slice
  /// around the first divergent index kept for the report.
  std::vector<TriageEvent> Context;
  /// Index (into the replayed stream) of the first context event.
  uint64_t ContextBase = 0;
};

struct TriageResult {
  /// False only on an internal failure (snapshot refused, ...); see
  /// Error. A clean "no divergence" outcome still has Ran == true.
  bool Ran = false;
  std::string Error;

  /// Final fingerprints (hash, cycles, status) differ between sides.
  bool Diverged = false;

  /// The replay isolated a first divergent event (FirstIndex valid).
  bool Found = false;

  uint64_t DigestInterval = 0;

  /// Bank geometry used for core attribution of bank events in the
  /// report (side 0's GlobalBankSizeLog2; the same on both sides of a
  /// comparable pair).
  unsigned BankSizeLog2 = 16;

  /// Last digest boundary at which both hash chains agreed; 0 when the
  /// sides disagree from the very first interval.
  uint64_t LastAgreeBoundary = 0;
  uint64_t LastAgreeHash = 0;

  /// Replay anchoring: machines were snapshotted at SnapshotCycle and
  /// replayed for WindowCycles (<= 2 * DigestInterval).
  uint64_t SnapshotCycle = 0;
  uint64_t WindowCycles = 0;

  /// Index into the replayed event streams of the first divergence.
  uint64_t FirstIndex = 0;

  TriageSideResult Side[2];
};

/// Runs the whole pipeline. \p Prog must already be assembled; both
/// sides load it unmodified. Digesting is forced on for triage: a side
/// whose config has DigestInterval == 0 gets the default interval.
TriageResult triageDivergence(const assembler::Program &Prog,
                              const TriageRunSpec &A,
                              const TriageRunSpec &B,
                              const TriageOptions &Opts = TriageOptions());

/// Canonical lbp-triage-report-v1 JSON document; byte-identical for
/// identical inputs. \p Workload is an arbitrary label echoed into the
/// report.
std::string triageReportToJson(const TriageResult &R,
                               const std::string &Workload);

} // namespace obs
} // namespace lbp

#endif // LBP_OBS_TRIAGE_H
