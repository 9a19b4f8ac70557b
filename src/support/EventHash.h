//===- support/EventHash.h - Incremental event-stream hashing ------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FNV-1a based incremental hash used to fingerprint the cycle-by-cycle
/// event stream of a simulation. Two runs are cycle-deterministic exactly
/// when their event hashes match.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SUPPORT_EVENTHASH_H
#define LBP_SUPPORT_EVENTHASH_H

#include <array>
#include <bit>
#include <cstdint>

namespace lbp {

/// Order-sensitive 64-bit FNV-1a accumulator.
class EventHash {
  static constexpr uint64_t Prime = 0x100000001b3ULL;

  /// PrimePow[N] = Prime^N mod 2^64: folding N zero bytes is one
  /// multiply by it, since (h ^ 0) * p == h * p.
  static constexpr std::array<uint64_t, 9> PrimePow = [] {
    std::array<uint64_t, 9> T{};
    T[0] = 1;
    for (unsigned I = 1; I != T.size(); ++I)
      T[I] = T[I - 1] * Prime;
    return T;
  }();

  uint64_t Value = 0xcbf29ce484222325ULL;

public:
  /// Folds a 64-bit word into the hash, low byte first: byte-serial
  /// FNV-1a over all eight bytes. Only the bytes up to the highest
  /// non-zero one go through the serial xor-multiply chain; the zero
  /// bytes above it collapse into one multiply by a power of the prime
  /// (most event fields are small).
  void addWord(uint64_t W) {
    // W | 1: a zero word then folds its (zero) low byte through the
    // chain and seven by the multiply — the same value, no zero test.
    unsigned Significant = (std::bit_width(W | 1) + 7) / 8;
    if (Significant > 4) [[unlikely]] {
      uint64_t H = Value;
      for (unsigned I = 0; I != 8; ++I)
        H = (H ^ static_cast<uint8_t>(W >> (8 * I))) * Prime;
      Value = H;
      return;
    }
    // Fold all four low bytes and keep the state after the significant
    // ones. Branch-free: event fields vary in width from one event to
    // the next, so a loop bounded by the width mispredicts.
    uint64_t Folded[5] = {Value};
    for (unsigned I = 0; I != 4; ++I) {
      uint8_t Byte = static_cast<uint8_t>(W >> (8 * I));
      Folded[I + 1] = (Folded[I] ^ Byte) * Prime;
    }
    Value = Folded[Significant] * PrimePow[8 - Significant];
  }

  /// Folds an event described by up to four fields into the hash.
  void addEvent(uint64_t A, uint64_t B = 0, uint64_t C = 0, uint64_t D = 0) {
    addWord(A);
    addWord(B);
    addWord(C);
    addWord(D);
  }

  uint64_t value() const { return Value; }

  /// Restores a previously captured accumulator value (checkpoint
  /// restore, sim/Snapshot.h). The chain property is preserved: folding
  /// the same future events after a restore reproduces the value an
  /// uninterrupted accumulation would have reached.
  void restore(uint64_t V) { Value = V; }
};

} // namespace lbp

#endif // LBP_SUPPORT_EVENTHASH_H
