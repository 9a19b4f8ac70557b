//===- sim/Checker.h - Machine-check invariant checkers ---------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Always-available "machine check" logic for the simulator: a set of
/// invariant checkers wired into the machine's delivery path and cycle
/// loop that convert silent protocol divergence — a lost ending-signal
/// token, a corrupted link payload, a hart that was reserved but never
/// started — into a structured MachineCheck record and a
/// RunStatus::Fault with a precise message. The checkers are read-only
/// observers: a fault-free run produces a bit-identical trace hash with
/// them enabled or disabled. docs/ROBUSTNESS.md lists every invariant.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SIM_CHECKER_H
#define LBP_SIM_CHECKER_H

#include <cstdint>
#include <string>
#include <vector>

namespace lbp {
namespace sim {

class Machine;
struct Delivery;

/// The invariants a machine check can report.
enum class CheckKind : uint8_t {
  LinkParity,          ///< Delivery payload does not match its parity.
  TokenLost,           ///< No ending-signal token held or in flight.
  TokenDuplicated,     ///< More than one token exists (or a hart
                       ///< received one it already holds).
  BadDeliveryTarget,   ///< Delivery aimed at a free or nonexistent hart.
  RbFillWithoutBuffer, ///< Result arrived with no result buffer waiting.
  MemAckUnderflow,     ///< Memory acknowledgement with no outstanding op.
  SlotBacklogOverflow, ///< Remote-result backlog grew beyond any legal
                       ///< producer count.
  HartLeak,            ///< Hart stuck in Reserved: its start message was
                       ///< lost.
  WheelImbalance,      ///< Scheduled/delivered accounting diverged from
                       ///< the wheel contents.
  SchedulePast,        ///< Delivery scheduled at or before the current
                       ///< cycle.
};

const char *checkKindName(CheckKind K);

/// One detected invariant violation.
struct MachineCheck {
  uint64_t Cycle = 0;
  unsigned Core = 0;
  unsigned Hart = 0;
  CheckKind Kind = CheckKind::LinkParity;
  std::string Message;

  /// "machine check [kind] at cycle C (core X, hart H): message".
  std::string format() const;
};

/// Link-level parity over every field of a delivery except the parity
/// byte itself. Computed at injection, verified at arrival: a payload
/// bit flipped in flight is detected before the delivery is applied.
uint8_t deliveryParity(const Delivery &D);

/// The checker state machine. The Machine calls the hooks; sweep() runs
/// every SimConfig::CheckInterval cycles. Any violation is recorded and
/// escalated through Machine::fault().
struct SnapshotAccess; // checkpoint serializer (sim/Snapshot.cpp)

class Checker {
  friend struct SnapshotAccess;
  std::vector<MachineCheck> Checks;

  // Conservation counters, maintained by the schedule/deliver hooks.
  uint64_t PendingDeliveries = 0; ///< Scheduled but not yet delivered.
  uint64_t TokensInFlight = 0;    ///< Token + join messages in flight
                                  ///< (a join carries the token back).
  uint64_t SweepCount = 0;

public:
  /// Validates and accounts a delivery at schedule time.
  void onScheduled(Machine &M, uint64_t At, const Delivery &D);

  /// Validates and accounts a delivery just before it is applied.
  void onDelivered(Machine &M, const Delivery &D);

  /// Periodic invariant sweep over the whole machine.
  void sweep(Machine &M);

  /// Fast-path support: the earliest future cycle at which a periodic
  /// sweep could report something, given the machine state frozen as it
  /// is now (no deliveries, no stage actions). Quiescence fast-forward
  /// must not jump past this cycle, so a violation that the reference
  /// path's per-cycle sweeps would catch fires at the identical cycle.
  /// Returns UINT64_MAX when no frozen-state sweep can ever report.
  uint64_t nextSweepConcern(const Machine &M) const;

  /// Fast-path support: account for the sweeps that quiescence
  /// fast-forward skipped over ((FromCycle, ToCycle]; none of them would
  /// have reported, per nextSweepConcern). Keeps SweepCount — and with
  /// it the every-64th-sweep wheel-audit cadence — identical to the
  /// reference path.
  void onSkip(uint64_t FromCycle, uint64_t ToCycle, uint64_t Interval);

  const std::vector<MachineCheck> &checks() const { return Checks; }

private:
  void report(Machine &M, CheckKind Kind, unsigned HartId,
              std::string Message);
};

} // namespace sim
} // namespace lbp

#endif // LBP_SIM_CHECKER_H
