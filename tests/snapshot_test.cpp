//===- tests/snapshot_test.cpp - Checkpoint/restore determinism -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The restore guarantee of sim/Snapshot.h (docs/ROBUSTNESS.md "Restore
// guarantees"): a run that is snapshotted at an arbitrary cycle and
// resumed on a *fresh* machine finishes with the exact observable
// fingerprint — RunStatus, cycle count, retired count, trace hash chain,
// fault message, machine-check list and the canonical counter snapshot —
// of the run that was never interrupted. Swept across both engines
// (reference, fast path), through open fault-injection windows and
// through the X_PAR fork/join handshake, because those are exactly the
// states a fleet worker dies in. Also: save -> restore -> save is byte-identical (the blob is a
// pure function of machine state), and malformed blobs are rejected
// without crashing.
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"
#include "obs/Report.h"
#include "romp/AsmText.h"
#include "romp/Runtime.h"
#include "sim/Interp.h"
#include "sim/Machine.h"
#include "sim/Snapshot.h"
#include "support/StringUtils.h"
#include "workloads/Phases.h"
#include "workloads/Pipeline.h"
#include "workloads/SensorFusion.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lbp;
using namespace lbp::sim;

namespace {

/// One engine cell of the sweep.
struct EngineCell {
  const char *Name;
  bool FastPath;
};
constexpr EngineCell Cells[] = {
    {"reference", false},
    {"fastpath", true},
};

SimConfig cellConfig(SimConfig Cfg, const EngineCell &C) {
  Cfg.FastPath = C.FastPath;
  Cfg.CollectCounters = true;
  return Cfg;
}

/// The full observable outcome of a finished run.
struct Fingerprint {
  RunStatus Status;
  uint64_t Cycles;
  uint64_t Retired;
  uint64_t Hash;
  std::string Message;
  size_t NumChecks;
  std::string Counters;

  bool operator==(const Fingerprint &O) const {
    return Status == O.Status && Cycles == O.Cycles &&
           Retired == O.Retired && Hash == O.Hash && Message == O.Message &&
           NumChecks == O.NumChecks && Counters == O.Counters;
  }
};

Fingerprint fingerprint(const Machine &M, RunStatus S) {
  return {S,
          M.cycles(),
          M.retired(),
          M.traceHash(),
          M.faultMessage(),
          M.machineChecks().size(),
          obs::countersToJson(M)};
}

assembler::Program assembleOrDie(const std::string &Src) {
  assembler::AsmResult R = assembler::assemble(Src);
  EXPECT_TRUE(R.succeeded()) << R.errorText();
  return R.Prog;
}

/// Runs \p Prog uninterrupted under \p Cfg; then re-runs it snapshotting
/// at \p SnapAt cycles, restores the blob into a fresh machine built
/// with \p ResumeCfg (never load()ed — the blob carries the code image),
/// finishes there, and expects the identical fingerprint. Also checks
/// save -> restore -> save byte-identity on the way through.
void expectResumeIdentical(const assembler::Program &Prog, SimConfig Cfg,
                           SimConfig ResumeCfg, uint64_t SnapAt,
                           const std::string &What,
                           uint64_t Budget = 4000000) {
  Machine Full(Cfg);
  Full.load(Prog);
  Fingerprint Want = fingerprint(Full, Full.run(Budget));

  Machine First(Cfg);
  First.load(Prog);
  First.run(SnapAt);
  std::vector<uint8_t> Blob;
  First.saveSnapshot(Blob);

  Machine Second(ResumeCfg);
  std::string Err;
  ASSERT_TRUE(Second.restoreSnapshot(Blob, Err)) << What << ": " << Err;

  // The blob is a pure function of the state it captured.
  std::vector<uint8_t> Blob2;
  Second.saveSnapshot(Blob2);
  EXPECT_EQ(Blob, Blob2) << What << ": save/restore/save not byte-identical";

  Fingerprint Got = fingerprint(Second, Second.run(Budget));
  EXPECT_TRUE(Want == Got)
      << What << formatString(" (snapshot at %llu cycles): resumed run "
                              "diverged from the uninterrupted one",
                              static_cast<unsigned long long>(SnapAt))
      << "\n  status " << runStatusName(Want.Status) << " vs "
      << runStatusName(Got.Status) << "\n  cycles " << Want.Cycles << " vs "
      << Got.Cycles << "\n  hash " << Want.Hash << " vs " << Got.Hash;
}

std::string phasesSrc() {
  workloads::PhasesSpec Spec;
  Spec.NumHarts = 16;
  return workloads::buildPhasesProgram(Spec);
}

std::string pipelineSrc() {
  workloads::PipelineSpec Spec;
  Spec.Stages = 8;
  Spec.Items = 32;
  return workloads::buildPipelineProgram(Spec);
}

//===----------------------------------------------------------------------===//
// Engine sweep at assorted snapshot cycles
//===----------------------------------------------------------------------===//

TEST(Snapshot, ResumeMatchesUninterruptedAcrossEnginesPhases) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(SimConfig::lbp(4), C);
    for (uint64_t SnapAt : {1ull, 37ull, 200ull, 1000ull})
      expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                            std::string("phases/") + C.Name);
  }
}

TEST(Snapshot, ResumeMatchesUninterruptedAcrossEnginesPipeline) {
  assembler::Program Prog = assembleOrDie(pipelineSrc());
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(SimConfig::lbp(4), C);
    for (uint64_t SnapAt : {5ull, 333ull, 2048ull})
      expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                            std::string("pipeline/") + C.Name);
  }
}

/// The fork/join handshake window: the phases team forks within the
/// first couple hundred cycles, so a dense sweep over that range lands
/// snapshots between p_fc allocation, start-message flight, token
/// passes and the join — the protocol states a checkpoint must carry.
TEST(Snapshot, ResumeMidXParHandshake) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(SimConfig::lbp(4), C);
    for (uint64_t SnapAt = 2; SnapAt < 160; SnapAt += 13)
      expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                            std::string("handshake/") + C.Name);
  }
}

//===----------------------------------------------------------------------===//
// Cross-engine restore (host-only knobs may differ between save/resume)
//===----------------------------------------------------------------------===//

TEST(Snapshot, BlobIsPortableAcrossEngines) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  for (const EngineCell &From : Cells) {
    for (const EngineCell &To : Cells) {
      SimConfig FromCfg = cellConfig(SimConfig::lbp(4), From);
      SimConfig ToCfg = cellConfig(SimConfig::lbp(4), To);
      expectResumeIdentical(Prog, FromCfg, ToCfg, /*SnapAt=*/97,
                            std::string("cross/") + From.Name + "->" +
                                To.Name);
    }
  }
}

//===----------------------------------------------------------------------===//
// Mid quiescent stretch
//===----------------------------------------------------------------------===//

/// Harts spinning in private ALU loops between fork and join: long
/// stretches in which cores sleep and the fast path skips cycles.
std::string spinSrc() {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  Head.line("li s1, 3");
  Head.label("round");
  romp::emitParallelCall(Head, "worker", 16, "0");
  Head.line("addi s1, s1, -1");
  Head.line("bnez s1, round");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  return Head.str() + Tail.str() + R"(
    .equ OUT, 0x20000200
worker:
    li a2, 250
spin:
    addi a2, a2, -1
    bnez a2, spin
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    sw a0, 0(a4)
    p_syncm
    p_ret
)";
}

TEST(Snapshot, ResumeMidMultiCycleEpochStretch) {
  // Snapshot budgets landing inside the long quiescent stretches. The
  // fast path clips every skip to the remaining budget, so run(N) always
  // stops on the cycle boundary the reference loop would and the blob
  // is an ordinary between-cycles state — portable to both engines.
  assembler::Program Prog = assembleOrDie(spinSrc());
  SimConfig Fast = cellConfig(SimConfig::lbp(4), Cells[1]); // fastpath
  for (const EngineCell &To : Cells) {
    SimConfig ToCfg = cellConfig(SimConfig::lbp(4), To);
    for (uint64_t SnapAt : {150ull, 731ull, 1500ull})
      expectResumeIdentical(Prog, Fast, ToCfg, SnapAt,
                            std::string("midstretch/fastpath->") + To.Name);
  }
}

//===----------------------------------------------------------------------===//
// Mid run on the 64-core line, cores asleep on timers
//===----------------------------------------------------------------------===//

/// A 256-hart team on 64 cores in which every fourth member (one per
/// core) runs a chain of 1,000 dependent divisions before the barrier
/// and the others go straight to it. While the chains run, a core sleeps
/// between divides with its wake-up on a timer (the divide's done
/// cycle) rather than on a delivery.
std::string divideChainSrc() {
  romp::AsmText Head;
  romp::emitMainPrologue(Head);
  romp::emitParallelCall(Head, "worker", 256, "0");
  romp::AsmText Tail;
  romp::emitMainEpilogue(Tail);
  romp::emitParallelStart(Tail);
  return Head.str() + Tail.str() + R"(
    .equ OUT, 0x20000200
worker:
    andi a6, a0, 3
    bnez a6, store
    li a2, 1000000
    li a3, 3
    li a6, 1000
chain:
    div a2, a2, a3
    addi a6, a6, -1
    bnez a6, chain
store:
    slli a4, a0, 2
    la a5, OUT
    add a4, a4, a5
    sw a0, 0(a4)
    p_syncm
    p_ret
)";
}

TEST(Snapshot, ResumeWhileMostCoresSleepOnTimers) {
  // Around cycle 16,000 every core has a chain running: about 42 of the
  // 64 sleep with a divide timer pending and the rest are awake. The
  // fast path's awake set is not in the blob, so the resumed machine
  // must rebuild it, and its next-timer bound, from the per-core wake
  // cycles alone.
  assembler::Program Prog = assembleOrDie(divideChainSrc());
  SimConfig Fast = cellConfig(SimConfig::lbp(64), Cells[1]); // fastpath
  for (const EngineCell &To : Cells) {
    SimConfig ToCfg = cellConfig(SimConfig::lbp(64), To);
    for (uint64_t SnapAt : {16000ull, 16007ull})
      expectResumeIdentical(Prog, Fast, ToCfg, SnapAt,
                            std::string("timers/fastpath->") + To.Name);
  }

  // Restoring over a machine that has already run leaves its awake set
  // describing the wrong run; the rebuild at run() start replaces it.
  Machine Full(Fast);
  Full.load(Prog);
  Fingerprint Want = fingerprint(Full, Full.run());
  Machine First(Fast);
  First.load(Prog);
  First.run(16000);
  std::vector<uint8_t> Blob;
  First.saveSnapshot(Blob);
  Machine Used(Fast);
  Used.load(Prog);
  Used.run(24000);
  std::string Err;
  ASSERT_TRUE(Used.restoreSnapshot(Blob, Err)) << Err;
  EXPECT_TRUE(fingerprint(Used, Used.run()) == Want)
      << "restore over a used machine diverged";
}

//===----------------------------------------------------------------------===//
// Mid fault-injection window
//===----------------------------------------------------------------------===//

TEST(Snapshot, ResumeInsideOpenFaultWindow) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Base = SimConfig::lbp(4);
  Base.Faults.Seed = 7;
  Base.Faults.Drops = 1;
  Base.Faults.Delays = 2;
  Base.Faults.StuckBanks = 1;
  Base.Faults.WindowBegin = 20;
  Base.Faults.WindowEnd = 600;
  Base.Faults.StuckDuration = 256;
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(Base, C);
    // Snapshots straddle the window: before it opens, inside it (some
    // events fired, some armed, a stuck-bank window possibly mid-flight)
    // and after it closes.
    for (uint64_t SnapAt : {10ull, 64ull, 300ull, 900ull})
      expectResumeIdentical(Prog, Cfg, Cfg, SnapAt,
                            std::string("faults/") + C.Name);
  }
}

TEST(Snapshot, FaultCursorSurvivesRestore) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Cfg = SimConfig::lbp(4);
  Cfg.Faults.Seed = 11;
  Cfg.Faults.Delays = 3;
  Cfg.Faults.WindowBegin = 1;
  Cfg.Faults.WindowEnd = 400;

  Machine M(Cfg);
  M.load(Prog);
  M.run(4000000);
  unsigned WantFired = M.faultPlan().firedCount();
  ASSERT_GT(WantFired, 0u) << "plan never fired; pick another seed";

  Machine First(Cfg);
  First.load(Prog);
  First.run(200);
  std::vector<uint8_t> Blob;
  First.saveSnapshot(Blob);
  Machine Second(Cfg);
  std::string Err;
  ASSERT_TRUE(Second.restoreSnapshot(Blob, Err)) << Err;
  EXPECT_EQ(Second.faultPlan().firedCount(), First.faultPlan().firedCount());
  Second.run(4000000);
  EXPECT_EQ(Second.faultPlan().firedCount(), WantFired);
}

//===----------------------------------------------------------------------===//
// Devices
//===----------------------------------------------------------------------===//

/// Builds the sensor-fusion machine (4 seeded sensors + actuator).
/// Device state — RNG cursors, armed samples, the actuator log — is
/// part of the snapshot, so a mid-round resume must not replay or skip
/// an actuation.
void addFusionDevices(Machine &M, uint64_t Seed, unsigned Rounds) {
  for (unsigned S = 0; S != 4; ++S) {
    std::vector<uint32_t> Samples;
    for (unsigned K = 0; K != Rounds; ++K)
      Samples.push_back(100 * (S + 1) + K);
    M.addDevice(workloads::SensorBase(S), 0x100,
                std::make_unique<SensorDevice>(Samples, Seed + S, 20, 400));
  }
  M.addDevice(workloads::ActuatorBase, 0x100,
              std::make_unique<ActuatorDevice>());
}

TEST(Snapshot, DeviceStateRoundTrips) {
  workloads::SensorFusionSpec Spec;
  Spec.Rounds = 6;
  assembler::Program Prog =
      assembleOrDie(workloads::buildSensorFusionProgram(Spec));
  SimConfig Cfg = SimConfig::lbp(1);
  Cfg.CollectCounters = true;

  Machine Full(Cfg);
  Full.load(Prog);
  addFusionDevices(Full, /*Seed=*/5, Spec.Rounds);
  Fingerprint Want = fingerprint(Full, Full.run(10000000));
  ASSERT_EQ(Want.Status, RunStatus::Exited) << Full.faultMessage();

  for (uint64_t SnapAt : {50ull, 777ull, 3000ull}) {
    Machine First(Cfg);
    First.load(Prog);
    addFusionDevices(First, /*Seed=*/5, Spec.Rounds);
    First.run(SnapAt);
    std::vector<uint8_t> Blob;
    First.saveSnapshot(Blob);

    Machine Second(Cfg);
    addFusionDevices(Second, /*Seed=*/5, Spec.Rounds);
    std::string Err;
    ASSERT_TRUE(Second.restoreSnapshot(Blob, Err)) << Err;
    Fingerprint Got = fingerprint(Second, Second.run(10000000));
    EXPECT_TRUE(Want == Got) << "sensor-fusion resume at " << SnapAt
                             << " diverged (cycles " << Want.Cycles << " vs "
                             << Got.Cycles << ")";
  }
}

TEST(Snapshot, DeviceCountMismatchRejected) {
  workloads::SensorFusionSpec Spec;
  assembler::Program Prog =
      assembleOrDie(workloads::buildSensorFusionProgram(Spec));
  SimConfig Cfg = SimConfig::lbp(1);
  Machine First(Cfg);
  First.load(Prog);
  addFusionDevices(First, /*Seed=*/5, Spec.Rounds);
  First.run(100);
  std::vector<uint8_t> Blob;
  First.saveSnapshot(Blob);

  Machine Second(Cfg); // no devices added
  std::string Err;
  EXPECT_FALSE(Second.restoreSnapshot(Blob, Err));
  EXPECT_NE(Err.find("device count"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Terminal states and rejection paths
//===----------------------------------------------------------------------===//

TEST(Snapshot, FinishedRunStatePersists) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Cfg = SimConfig::lbp(4);
  Machine M(Cfg);
  M.load(Prog);
  ASSERT_EQ(M.run(4000000), RunStatus::Exited) << M.faultMessage();
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);

  Machine R(Cfg);
  std::string Err;
  ASSERT_TRUE(R.restoreSnapshot(Blob, Err)) << Err;
  EXPECT_EQ(R.status(), RunStatus::Exited);
  EXPECT_EQ(R.cycles(), M.cycles());
  EXPECT_EQ(R.traceHash(), M.traceHash());
  EXPECT_EQ(R.retired(), M.retired());
}

TEST(Snapshot, RejectsBadMagicVersionDigestAndTruncation) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Cfg = SimConfig::lbp(4);
  Machine M(Cfg);
  M.load(Prog);
  M.run(100);
  std::vector<uint8_t> Blob;
  M.saveSnapshot(Blob);
  std::string Err;

  { // Bad magic.
    std::vector<uint8_t> B = Blob;
    B[0] ^= 0xff;
    Machine R(Cfg);
    EXPECT_FALSE(R.restoreSnapshot(B, Err));
    EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
  }
  { // Wrong format version.
    std::vector<uint8_t> B = Blob;
    B[4] ^= 0xff;
    Machine R(Cfg);
    EXPECT_FALSE(R.restoreSnapshot(B, Err));
    EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  }
  { // Behaviorally different config: digest must refuse.
    SimConfig Other = Cfg;
    Other.AluLatency += 1;
    Machine R(Other);
    EXPECT_FALSE(R.restoreSnapshot(Blob, Err));
    EXPECT_NE(Err.find("digest"), std::string::npos) << Err;
  }
  { // Host-only knobs do NOT change the digest.
    SimConfig Host = Cfg;
    Host.FastPath = !Host.FastPath;
    Host.HostThreads = 8;
    Host.RecordTrace = true;
    EXPECT_EQ(snapshotConfigDigest(Host), snapshotConfigDigest(Cfg));
  }
  { // Truncation at every prefix length of the tail must fail cleanly.
    for (size_t Cut : {Blob.size() - 1, Blob.size() / 2, size_t(12)}) {
      std::vector<uint8_t> B(Blob.begin(), Blob.begin() + Cut);
      Machine R(Cfg);
      EXPECT_FALSE(R.restoreSnapshot(B, Err)) << "cut=" << Cut;
    }
  }
}

/// A 4-core phases snapshot with the counter set armed, and the offset of
/// its last vector's count: the counters end with TokenSendCycle (one
/// word per hart), followed only by the device count (8 bytes, no
/// devices) and the trailer (4 bytes).
struct CounterBlob {
  SimConfig Cfg = cellConfig(SimConfig::lbp(4), Cells[1]);
  std::vector<uint8_t> Blob;
  size_t TokenSendCountAt = 0;

  CounterBlob() {
    Machine M(Cfg);
    M.load(assembleOrDie(phasesSrc()));
    M.run(100);
    M.saveSnapshot(Blob);
    TokenSendCountAt = Blob.size() - 4 - 8 - 8 * Cfg.numHarts() - 8;
  }
};

TEST(Snapshot, RejectsHugeVectorCount) {
  // 2^61 words: the byte count wraps to zero in a multiplied size check,
  // which used to let vector::reserve throw out of restoreSnapshot.
  CounterBlob C;
  std::vector<uint8_t> B = C.Blob;
  uint64_t Huge = uint64_t(1) << 61;
  for (unsigned I = 0; I != 8; ++I)
    B[C.TokenSendCountAt + I] = static_cast<uint8_t>(Huge >> (8 * I));
  Machine R(C.Cfg);
  std::string Err;
  EXPECT_FALSE(R.restoreSnapshot(B, Err));
  EXPECT_NE(Err.find("counters"), std::string::npos) << Err;
}

TEST(Snapshot, RejectsVectorTruncatedMidway) {
  // The blob ends half-way through TokenSendCycle: the short vector must
  // fail the restore where it is, not parse on from misaligned bytes.
  CounterBlob C;
  std::vector<uint8_t> B(C.Blob.begin(),
                         C.Blob.begin() + C.TokenSendCountAt + 8 +
                             4 * C.Cfg.numHarts());
  Machine R(C.Cfg);
  std::string Err;
  EXPECT_FALSE(R.restoreSnapshot(B, Err));
  EXPECT_NE(Err.find("counters"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Delivery wheel section
//===----------------------------------------------------------------------===//

/// Serialized size of one delivery in the wheel and overflow sections.
constexpr size_t DeliveryBytes = 29;

uint64_t u64At(const std::vector<uint8_t> &B, size_t At) {
  uint64_t V = 0;
  for (unsigned I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(B[At + I]) << (8 * I);
  return V;
}

void putU64(std::vector<uint8_t> &B, size_t At, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    B[At + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Where the delivery wheel section sits in a machine blob, and what it
/// holds. The section is u64 non-empty slot count, then per slot u64
/// index and u64 length and the deliveries, then u64 overflow count,
/// (u64 At, u64 Seq, delivery) per entry, u64 next sequence number,
/// u64 wheel count, and the u64 machine cycle right after it.
struct WheelLayout {
  size_t FirstSlotLenAt = 0; ///< Offset of the first slot's length.
  size_t OverflowCountAt = 0;
  uint64_t MaxSlotLen = 0;
  uint64_t OverflowCount = 0;
};

/// Finds the wheel section by parsing forward from every offset until
/// all of its internal consistency holds: at least one slot, slot
/// indices strictly ascending below the wheel size, the trailing wheel
/// count equal to the sum of the slot lengths and the cycle after it
/// equal to \p Cycle. False when no offset parses.
bool findWheel(const std::vector<uint8_t> &B, uint64_t Cycle,
               WheelLayout &L) {
  const size_t End = B.size();
  for (size_t Start = 0; Start + 8 <= End; ++Start) {
    uint64_t NonEmpty = u64At(B, Start);
    if (NonEmpty == 0 || NonEmpty > (1u << 14))
      continue;
    size_t P = Start + 8;
    uint64_t Total = 0, MaxLen = 0, PrevSlot = 0;
    bool Ok = true;
    for (uint64_t I = 0; I != NonEmpty && Ok; ++I) {
      if (P + 16 > End) {
        Ok = false;
        break;
      }
      uint64_t Slot = u64At(B, P), Len = u64At(B, P + 8);
      Ok = Slot < (1u << 14) && (I == 0 || Slot > PrevSlot) && Len != 0 &&
           Len <= (End - P - 16) / DeliveryBytes;
      if (I == 0)
        L.FirstSlotLenAt = P + 8;
      PrevSlot = Slot;
      Total += Len;
      MaxLen = std::max(MaxLen, Len);
      P += 16 + Len * DeliveryBytes;
    }
    if (!Ok || P + 8 > End)
      continue;
    uint64_t NOverflow = u64At(B, P);
    if (NOverflow > (End - P) / (16 + DeliveryBytes))
      continue;
    size_t Tail = P + 8 + NOverflow * (16 + DeliveryBytes);
    if (Tail + 24 > End || u64At(B, Tail + 8) != Total ||
        u64At(B, Tail + 16) != Cycle)
      continue;
    L.OverflowCountAt = P;
    L.MaxSlotLen = MaxLen;
    L.OverflowCount = NOverflow;
    return true;
  }
  return false;
}

/// A 4-core phases blob saved at cycle 1,500 and its wheel layout.
struct WheelBlob {
  SimConfig Cfg = SimConfig::lbp(4);
  std::vector<uint8_t> Blob;
  WheelLayout L;
  bool Found = false;

  WheelBlob() {
    Machine M(Cfg);
    M.load(assembleOrDie(phasesSrc()));
    M.run(1500);
    M.saveSnapshot(Blob);
    Found = findWheel(Blob, M.cycles(), L);
  }

  /// Restores \p B into a fresh machine; returns the error ("" if the
  /// restore succeeded).
  std::string restore(const std::vector<uint8_t> &B) const {
    Machine R(Cfg);
    std::string Err;
    if (R.restoreSnapshot(B, Err))
      return "";
    return Err.empty() ? "restore failed without an error" : Err;
  }
};

TEST(Snapshot, RejectsHugeWheelSlotLength) {
  // A slot length past the bytes left used to reach Slot.resize and
  // abort the process with bad_alloc or length_error.
  WheelBlob W;
  ASSERT_TRUE(W.Found) << "no wheel section with a pending delivery";
  EXPECT_EQ(W.restore(W.Blob), "");
  for (uint64_t Huge : {uint64_t(1) << 40, uint64_t(1) << 62}) {
    std::vector<uint8_t> B = W.Blob;
    putU64(B, W.L.FirstSlotLenAt, Huge);
    std::string Err = W.restore(B);
    EXPECT_NE(Err.find("wheel slot longer than the blob"), std::string::npos)
        << "length " << Huge << ": " << Err;
  }
}

TEST(Snapshot, RejectsHugeOverflowCount) {
  // Same for the overflow heap's count and its reserve.
  WheelBlob W;
  ASSERT_TRUE(W.Found) << "no wheel section with a pending delivery";
  for (uint64_t Huge : {uint64_t(1) << 40, uint64_t(1) << 62}) {
    std::vector<uint8_t> B = W.Blob;
    putU64(B, W.L.OverflowCountAt, Huge);
    std::string Err = W.restore(B);
    EXPECT_NE(Err.find("overflow heap longer than the blob"),
              std::string::npos)
        << "count " << Huge << ": " << Err;
  }
}

TEST(Snapshot, RejectsOutOfRangeDelivery) {
  // deliver() indexes CoreWake and the harts by HartId, the result
  // slots by Slot, and reads Width bytes from a bank: each out-of-range
  // field of a restored delivery must fail the restore instead.
  WheelBlob W;
  ASSERT_TRUE(W.Found) << "no wheel section with a pending delivery";
  const size_t D = W.L.FirstSlotLenAt + 8; // first delivery
  struct Mutation {
    const char *What;
    size_t Offset;
    std::vector<uint8_t> Bytes;
  };
  const uint16_t Harts = static_cast<uint16_t>(W.Cfg.numHarts());
  const Mutation Mutations[] = {
      {"kind past SlotFill", 0, {8}},
      {"kind 0xff", 0, {0xff}},
      {"hart = numHarts", 1,
       {static_cast<uint8_t>(Harts), static_cast<uint8_t>(Harts >> 8)}},
      {"hart 0xffff", 1, {0xff, 0xff}},
      {"width 3", 23, {3}},
      {"width 0", 23, {0}},
      {"slot = ResultSlots", 24, {static_cast<uint8_t>(ResultSlots)}},
  };
  for (const Mutation &Mu : Mutations) {
    std::vector<uint8_t> B = W.Blob;
    for (size_t I = 0; I != Mu.Bytes.size(); ++I)
      B[D + Mu.Offset + I] = Mu.Bytes[I];
    std::string Err = W.restore(B);
    EXPECT_NE(Err.find("delivery field out of range"), std::string::npos)
        << Mu.What << ": " << Err;
  }
}

/// The wheel pool's node layout is not part of the blob: a blob saved
/// with one slot holding several deliveries and the overflow heap in
/// use restores into a machine that has already run further (its pool
/// has nodes on the free list), saves back byte for byte, and finishes
/// like the run that was never interrupted, on both engines.
TEST(Snapshot, WheelPoolRoundTripIntoUsedMachine) {
  assembler::Program Prog = assembleOrDie(phasesSrc());
  SimConfig Base = SimConfig::lbp(4);
  // Delays of up to 40,000 cycles push a delayed delivery past the
  // wheel's 16,384-cycle horizon into the overflow heap.
  Base.Faults.Seed = 3;
  Base.Faults.Delays = 4;
  Base.Faults.MaxDelay = 40000;
  Base.Faults.WindowBegin = 1;
  Base.Faults.WindowEnd = 400;
  // At cycle 230 one wheel slot holds two deliveries and one delayed
  // delivery waits in the overflow heap (asserted below).
  const uint64_t SnapAt = 230;
  for (const EngineCell &C : Cells) {
    SimConfig Cfg = cellConfig(Base, C);
    Machine Full(Cfg);
    Full.load(Prog);
    Fingerprint Want = fingerprint(Full, Full.run(4000000));
    ASSERT_EQ(Want.Status, RunStatus::Exited) << C.Name << ": " << Want.Message;

    Machine First(Cfg);
    First.load(Prog);
    First.run(SnapAt);
    std::vector<uint8_t> Blob;
    First.saveSnapshot(Blob);
    WheelLayout L;
    ASSERT_TRUE(findWheel(Blob, First.cycles(), L)) << C.Name;
    EXPECT_GE(L.MaxSlotLen, 2u) << C.Name << ": no slot holds two deliveries";
    EXPECT_GE(L.OverflowCount, 1u) << C.Name << ": overflow heap is empty";

    Machine Used(Cfg);
    Used.load(Prog);
    Used.run(SnapAt + 700);
    std::string Err;
    ASSERT_TRUE(Used.restoreSnapshot(Blob, Err)) << C.Name << ": " << Err;
    std::vector<uint8_t> Blob2;
    Used.saveSnapshot(Blob2);
    EXPECT_EQ(Blob, Blob2) << C.Name << ": blob changed through a used pool";

    Fingerprint Got = fingerprint(Used, Used.run(4000000));
    EXPECT_TRUE(Want == Got)
        << C.Name << ": resumed run diverged\n  cycles " << Want.Cycles
        << " vs " << Got.Cycles << "\n  hash " << Want.Hash << " vs "
        << Got.Hash;
  }
}

//===----------------------------------------------------------------------===//
// Interp checkpointing
//===----------------------------------------------------------------------===//

TEST(Snapshot, InterpRoundTrip) {
  // A loop with enough memory traffic to populate the page overlay.
  assembler::Program Prog = assembleOrDie(R"(
      .text
  main:
      li t0, -1
      li sp, 0x00110000
      li a0, 0            # i
      li a1, 200          # n
      li a2, 0x10000000   # base
  loop:
      slli a3, a0, 2
      add a3, a3, a2
      sw a0, 0(a3)
      lw a4, 0(a3)
      add a5, a5, a4
      addi a0, a0, 1
      blt a0, a1, loop
      p_ret
  )");

  Interp Full(Prog);
  InterpStatus WantStatus = Full.run(100000);
  uint64_t WantSteps = Full.steps();

  Interp First(Prog);
  First.run(137);
  std::vector<uint8_t> Blob;
  First.saveSnapshot(Blob);

  Interp Second(Prog);
  std::string Err;
  ASSERT_TRUE(Second.restoreSnapshot(Blob, Err)) << Err;
  EXPECT_EQ(Second.pc(), First.pc());
  EXPECT_EQ(Second.steps(), First.steps());

  InterpStatus GotStatus = Second.run(100000);
  EXPECT_EQ(static_cast<int>(GotStatus), static_cast<int>(WantStatus));
  EXPECT_EQ(Second.steps(), WantSteps);
  for (unsigned R = 0; R != 32; ++R)
    EXPECT_EQ(Second.reg(R), Full.reg(R)) << "x" << R;
  for (unsigned I = 0; I != 200; ++I)
    EXPECT_EQ(Second.readWord(0x10000000 + 4 * I),
              Full.readWord(0x10000000 + 4 * I))
        << "word " << I;

  std::vector<uint8_t> Bad(Blob.begin(), Blob.begin() + Blob.size() / 3);
  Interp Third(Prog);
  EXPECT_FALSE(Third.restoreSnapshot(Bad, Err));
}

} // namespace
