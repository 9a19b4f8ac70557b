//===- support/Serialize.h - Flat binary serialization ---------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal little-endian byte-stream writer/reader pair for the
/// simulator's checkpoint blobs (sim/Snapshot.h). The format is
/// deliberately dumb — fixed-width integers, length-prefixed strings
/// and vectors, no alignment, no varints — because the property that
/// matters is byte-exact reproducibility: serializing the same state
/// twice must produce the same bytes, on every host, so checkpoint
/// digests and fleet reports stay deterministic.
///
/// ByteReader never throws and never reads past the end: an underrun
/// flips a sticky failure flag and yields zeros, and the caller checks
/// ok() once at the end of the decode instead of after every field.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_SUPPORT_SERIALIZE_H
#define LBP_SUPPORT_SERIALIZE_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace lbp {

/// Appends little-endian fields to a growing byte buffer.
class ByteWriter {
  std::vector<uint8_t> Buf;

public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) {
    for (unsigned I = 0; I != 2; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u32(uint32_t V) {
    for (unsigned I = 0; I != 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void b(bool V) { u8(V ? 1 : 0); }
  void i8(int8_t V) { u8(static_cast<uint8_t>(V)); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }

  void bytes(const void *P, size_t N) {
    const uint8_t *B = static_cast<const uint8_t *>(P);
    Buf.insert(Buf.end(), B, B + N);
  }

  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }

  void vecU8(const std::vector<uint8_t> &V) {
    u64(V.size());
    bytes(V.data(), V.size());
  }
  void vecU32(const std::vector<uint32_t> &V) {
    u64(V.size());
    for (uint32_t X : V)
      u32(X);
  }
  void vecU64(const std::vector<uint64_t> &V) {
    u64(V.size());
    for (uint64_t X : V)
      u64(X);
  }

  const std::vector<uint8_t> &buffer() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }
};

/// Consumes a byte buffer written by ByteWriter. Underruns set a sticky
/// failure flag and return zeros; check ok() after decoding.
class ByteReader {
  const uint8_t *P;
  const uint8_t *End;
  bool Fail = false;

  bool take(size_t N) {
    if (Fail || static_cast<size_t>(End - P) < N) {
      Fail = true;
      return false;
    }
    return true;
  }

  /// take() for \p N elements of \p Size bytes, without computing
  /// N * Size (which wraps for a hostile N).
  bool takeElems(uint64_t N, size_t Size) {
    if (Fail || N > static_cast<size_t>(End - P) / Size) {
      Fail = true;
      return false;
    }
    return true;
  }

public:
  ByteReader(const uint8_t *Data, size_t Size) : P(Data), End(Data + Size) {}
  explicit ByteReader(const std::vector<uint8_t> &V)
      : P(V.data()), End(V.data() + V.size()) {}

  uint8_t u8() {
    if (!take(1))
      return 0;
    return *P++;
  }
  uint16_t u16() {
    if (!take(2))
      return 0;
    uint16_t V = 0;
    for (unsigned I = 0; I != 2; ++I)
      V |= static_cast<uint16_t>(*P++) << (8 * I);
    return V;
  }
  uint32_t u32() {
    if (!take(4))
      return 0;
    uint32_t V = 0;
    for (unsigned I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(*P++) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!take(8))
      return 0;
    uint64_t V = 0;
    for (unsigned I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(*P++) << (8 * I);
    return V;
  }
  bool b() { return u8() != 0; }
  int8_t i8() { return static_cast<int8_t>(u8()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }

  bool bytes(void *Out, size_t N) {
    if (!take(N))
      return false;
    std::memcpy(Out, P, N);
    P += N;
    return true;
  }

  std::string str() {
    uint64_t N = u64();
    if (!take(N))
      return std::string();
    std::string S(reinterpret_cast<const char *>(P), N);
    P += N;
    return S;
  }

  std::vector<uint8_t> vecU8() {
    uint64_t N = u64();
    std::vector<uint8_t> V;
    if (!take(N))
      return V;
    V.assign(P, P + N);
    P += N;
    return V;
  }
  /// A count-prefixed vector of 32-bit words. A count larger than the
  /// bytes left could hold fails the reader (the division keeps a huge
  /// count from wrapping the size check) and yields an empty vector.
  std::vector<uint32_t> vecU32() {
    uint64_t N = u64();
    std::vector<uint32_t> V;
    if (!takeElems(N, 4))
      return V;
    V.reserve(N);
    for (uint64_t I = 0; I != N; ++I)
      V.push_back(u32());
    return V;
  }
  /// As vecU32, for 64-bit words.
  std::vector<uint64_t> vecU64() {
    uint64_t N = u64();
    std::vector<uint64_t> V;
    if (!takeElems(N, 8))
      return V;
    V.reserve(N);
    for (uint64_t I = 0; I != N; ++I)
      V.push_back(u64());
    return V;
  }

  size_t remaining() const { return static_cast<size_t>(End - P); }
  bool ok() const { return !Fail; }
  void fail() { Fail = true; }
};

} // namespace lbp

#endif // LBP_SUPPORT_SERIALIZE_H
