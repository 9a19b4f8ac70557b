//===- workloads/MatMul.h - The paper's five matmul versions ------------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 7 experiment: integer matrix multiplication Z = X * Y
/// with X of h x h/2 and Y of h/2 x h, h = the number of harts, in the
/// paper's five versions:
///
///   base        three contiguous global arrays, direct indexing
///   copy        each thread copies its X row into its local scratchpad
///   distributed rows interleaved across the banks (4 X rows, 2 Y rows,
///               4 Z rows per bank) so each thread's X/Z rows are in its
///               own core's bank
///   d+c         distributed + the X-row local copy
///   tiled       classic five-loop tiling; X/Y tiles are copied to the
///               local scratchpad, the Z tile accumulates locally and is
///               written back once
///
/// X and Y are filled with 1, so every element of Z must equal h/2 —
/// which the harness verifies.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_WORKLOADS_MATMUL_H
#define LBP_WORKLOADS_MATMUL_H

#include <cassert>
#include <cstdint>
#include <string>

namespace lbp {
namespace workloads {

enum class MatMulVersion : uint8_t {
  Base,
  Copy,
  Distributed,
  DistCopy,
  Tiled,
};

/// Short lowercase name ("base", "copy", "distributed", "d+c", "tiled").
const char *matMulVersionName(MatMulVersion V);

struct MatMulSpec {
  unsigned NumHarts;           ///< 16, 64 or 256 (must be 4 * cores).
  MatMulVersion Version = MatMulVersion::Base;
  unsigned BankSizeLog2 = 16;  ///< Must match SimConfig.

  unsigned h() const { return NumHarts; }
  unsigned cores() const { return NumHarts / 4; }

  /// The paper's sizing: each bank holds exactly its distributed share
  /// (4 X rows + 2 Y rows + 4 Z rows = 32h bytes), so the three
  /// matrices exactly fill the h/4 banks and the contiguous (base)
  /// layout naturally spans all of them.
  static MatMulSpec paper(unsigned NumHarts, MatMulVersion V) {
    assert(NumHarts != 0 && (NumHarts & (NumHarts - 1)) == 0 &&
           "NumHarts must be a power of two");
    MatMulSpec S;
    S.NumHarts = NumHarts;
    S.Version = V;
    unsigned Log2H = 0;
    while ((1u << Log2H) != NumHarts)
      ++Log2H;
    S.BankSizeLog2 = 5 + Log2H;
    return S;
  }
};

/// Builds the complete assembly program for \p Spec (kernel + runtime +
/// placed, initialized data).
std::string buildMatMulProgram(const MatMulSpec &Spec);

/// Address of Z[i][j] under \p Spec's data layout (for verification).
uint32_t zElementAddress(const MatMulSpec &Spec, unsigned I, unsigned J);

} // namespace workloads
} // namespace lbp

#endif // LBP_WORKLOADS_MATMUL_H
