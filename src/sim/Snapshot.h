//===- sim/Snapshot.h - Deterministic machine checkpointing -----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkpoint format behind Machine::saveSnapshot / restoreSnapshot
/// and Interp::saveSnapshot / restoreSnapshot (docs/ROBUSTNESS.md,
/// "Checkpoint format"). A snapshot captures the *complete mutable run
/// state* of a machine between cycles, so a restored run is
/// observationally indistinguishable from an uninterrupted one: same
/// trace hash chain, same cycle count, same counter snapshot, same
/// RunStatus — on the reference loop and the fast path alike. That property is what lets the fleet runner
/// (src/fleet/) retry a crashed or preempted worker from its last
/// checkpoint without perturbing the campaign's deterministic report.
///
/// Blob layout (all little-endian, support/Serialize.h):
///
///   u32 magic 'LBPS'   u32 format version
///   u64 config digest  — FNV over the behavior-relevant SimConfig
///                        fields (structure, latencies, checkers,
///                        collection modes, fault plan). Host-only
///                        knobs (FastPath, trace recording) are
///                        excluded: they cannot change the simulated
///                        state, so a snapshot moves freely between
///                        engines.
///   sections           — memory, interconnect, cores/harts, delivery
///                        wheel + overflow heap, machine scalars,
///                        fault-plan cursor, checker accounting, trace
///                        hash, perf counters, devices
///   u32 trailer magic  — truncation guard
///
/// Versioning: SnapshotFormatVersion bumps on any layout change;
/// restore rejects a mismatched version or digest outright (no
/// cross-version migration — checkpoints are campaign-lifetime
/// artifacts, not archives).
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_SNAPSHOT_H
#define LBP_SIM_SNAPSHOT_H

#include "sim/Config.h"

#include <cstdint>

namespace lbp {
namespace sim {

/// 'L' 'B' 'P' 'S' in little-endian byte order.
constexpr uint32_t SnapshotMagic = 0x5350424Cu;

/// Bumped on any change to the blob layout.
/// v2: per-hart PendingSendOps, machine SendCount, per-core sleep cycle
/// now sourced from Machine::CoreWake (SoA layout).
/// v3: interval-digest ring + PerturbForTest fired-flag section after
/// the trace hash (docs/OBSERVABILITY.md "Divergence triage").
/// v4: the per-hart PendingGateOps/PendingSendOps and the machine
/// GateCount/SendCount (parallel-engine bookkeeping) are gone.
/// v5: the link parity byte of every in-flight delivery is the XOR fold
/// of deliveryParity (sim/Checker.h); the layout is unchanged, but a v4
/// blob's parity bytes would fail the arrival check. The pooled delivery
/// wheel writes the same wheel section bytes as the vector-per-slot one.
constexpr uint32_t SnapshotFormatVersion = 5;

/// Trailer sentinel appended after the last section.
constexpr uint32_t SnapshotTrailer = 0x50414E53u; // 'S' 'N' 'A' 'P'

/// Digest of the SimConfig fields that determine simulated behavior.
/// Two configs with equal digests evolve a loaded machine through the
/// identical state sequence; restore refuses a digest mismatch.
/// Host-side observation knobs (FastPath, the inert HostThreads and
/// OversubscribeHost, RecordTrace, trace line options) are deliberately
/// not folded in.
uint64_t snapshotConfigDigest(const SimConfig &Cfg);

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_SNAPSHOT_H
