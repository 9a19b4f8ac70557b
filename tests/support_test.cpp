//===- tests/support_test.cpp - Support utilities tests ------------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/EventHash.h"
#include "support/Serialize.h"
#include "support/SplitMix64.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <vector>

using namespace lbp;

namespace {

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  abc \t"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("a b"), "a b");
  EXPECT_EQ(trim("abc\r"), "abc") << "carriage returns are stripped";
}

TEST(StringUtils, Split) {
  auto P = split("a,b,,c", ',');
  ASSERT_EQ(P.size(), 4u);
  EXPECT_EQ(P[0], "a");
  EXPECT_EQ(P[2], "");
  EXPECT_EQ(split("abc", ',').size(), 1u);
}

TEST(StringUtils, SplitLines) {
  auto L = splitLines("one\ntwo\nthree");
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[2], "three");
  EXPECT_EQ(splitLines("x\n").size(), 1u);
  EXPECT_TRUE(splitLines("").empty());
}

TEST(StringUtils, ParseInteger) {
  EXPECT_EQ(parseInteger("42"), 42);
  EXPECT_EQ(parseInteger("-42"), -42);
  EXPECT_EQ(parseInteger("+7"), 7);
  EXPECT_EQ(parseInteger("0x10"), 16);
  EXPECT_EQ(parseInteger("-0x10"), -16);
  EXPECT_EQ(parseInteger("0b101"), 5);
  EXPECT_EQ(parseInteger(" 9 "), 9);
  EXPECT_FALSE(parseInteger("").has_value());
  EXPECT_FALSE(parseInteger("12x").has_value());
  EXPECT_FALSE(parseInteger("0x").has_value());
  EXPECT_FALSE(parseInteger("-").has_value());
  EXPECT_FALSE(parseInteger("0b2").has_value());
}

TEST(StringUtils, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("%08x", 0x1234), "00001234");
  EXPECT_EQ(formatString("plain"), "plain");
}

TEST(SplitMix64, IsDeterministicAndSeedSensitive) {
  SplitMix64 A(1), B(1), C(2);
  for (unsigned I = 0; I != 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    EXPECT_NE(VA, C.next());
  }
}

TEST(SplitMix64, RangesAreRespected) {
  SplitMix64 R(99);
  for (unsigned I = 0; I != 1000; ++I) {
    uint64_t V = R.nextInRange(10, 20);
    EXPECT_GE(V, 10u);
    EXPECT_LE(V, 20u);
  }
}

TEST(EventHash, OrderSensitive) {
  EventHash A, B;
  A.addEvent(1, 2);
  A.addEvent(3, 4);
  B.addEvent(3, 4);
  B.addEvent(1, 2);
  EXPECT_NE(A.value(), B.value());
}

/// Textbook 64-bit FNV-1a over a word's eight bytes, low byte first:
/// the reference EventHash::addWord must reproduce exactly.
uint64_t fnv1aWords(const std::vector<uint64_t> &Words) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint64_t W : Words) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (W >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  return H;
}

TEST(EventHash, MatchesByteSerialFnv1a) {
  std::vector<uint64_t> Words = {0,
                                 1,
                                 0xff,
                                 0x100,
                                 0x8000000000000000ULL,
                                 UINT64_MAX};
  // Every significant-byte count 0..8, with both a low and a high top
  // byte, plus seeded random words of every width.
  for (unsigned Bytes = 1; Bytes != 8; ++Bytes) {
    Words.push_back(1ULL << (8 * Bytes));
    Words.push_back((1ULL << (8 * Bytes)) - 1);
  }
  SplitMix64 Rng(0x5eed);
  for (unsigned I = 0; I != 1000; ++I) {
    uint64_t W = Rng.next();
    Words.push_back(W >> Rng.nextBelow(64));
  }

  // Each word alone, from the initial state...
  for (uint64_t W : Words) {
    EventHash H;
    H.addWord(W);
    EXPECT_EQ(H.value(), fnv1aWords({W})) << std::hex << W;
  }
  // ...and the whole sequence chained, through addWord and addEvent.
  EventHash ByWord, ByEvent;
  for (uint64_t W : Words)
    ByWord.addWord(W);
  EXPECT_EQ(ByWord.value(), fnv1aWords(Words));
  Words.resize(Words.size() / 4 * 4);
  for (size_t I = 0; I != Words.size(); I += 4)
    ByEvent.addEvent(Words[I], Words[I + 1], Words[I + 2], Words[I + 3]);
  EXPECT_EQ(ByEvent.value(), fnv1aWords(Words));
}

TEST(EventHash, EqualStreamsHashEqual) {
  EventHash A, B;
  for (uint64_t I = 0; I != 100; ++I) {
    A.addEvent(I, I * 3, I * 7);
    B.addEvent(I, I * 3, I * 7);
  }
  EXPECT_EQ(A.value(), B.value());
}

//===----------------------------------------------------------------------===//
// ByteReader: hostile vector counts fail the reader instead of throwing
//===----------------------------------------------------------------------===//

TEST(ByteReader, HugeVectorCountFails) {
  // 2^61 eight-byte elements is 2^64 bytes: a size check that multiplies
  // wraps to zero and lets reserve() throw.
  for (bool Wide : {false, true}) {
    ByteWriter W;
    W.u64(uint64_t(1) << 61);
    W.u64(42);
    ByteReader R(W.buffer());
    size_t Got = Wide ? R.vecU64().size() : R.vecU32().size();
    EXPECT_EQ(Got, 0u);
    EXPECT_FALSE(R.ok()) << (Wide ? "vecU64" : "vecU32");
  }
}

TEST(ByteReader, ShortVectorFails) {
  // A count of four with two elements present: the reader must fail, not
  // hand back an empty vector and read on from the misaligned bytes.
  ByteWriter W;
  W.u64(4);
  W.u64(1);
  W.u64(2);
  ByteReader R(W.buffer());
  EXPECT_TRUE(R.vecU64().empty());
  EXPECT_FALSE(R.ok());

  ByteWriter W32;
  W32.vecU32({1, 2, 3});
  std::vector<uint8_t> Cut = W32.buffer();
  Cut.resize(Cut.size() - 2);
  ByteReader R32(Cut);
  EXPECT_TRUE(R32.vecU32().empty());
  EXPECT_FALSE(R32.ok());

  ByteReader Whole(W32.buffer());
  EXPECT_EQ(Whole.vecU32(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(Whole.ok());
}

} // namespace
