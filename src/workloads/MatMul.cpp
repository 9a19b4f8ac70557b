//===- workloads/MatMul.cpp - The paper's five matmul versions -----------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "workloads/MatMul.h"
#include "dsl/Ast.h"
#include "dsl/CodeGen.h"
#include "isa/AddressMap.h"
#include "support/Compiler.h"

#include <cassert>

using namespace lbp;
using namespace lbp::dsl;
using namespace lbp::workloads;

namespace {

unsigned log2Exact(unsigned V) {
  assert(V != 0 && (V & (V - 1)) == 0 && "not a power of two");
  unsigned L = 0;
  while ((1u << L) != V)
    ++L;
  return L;
}

/// All the layout constants derived from a spec.
struct Layout {
  unsigned H;         // harts == LINE_X == COLUMN_Y == LINE_Z == COLUMN_Z
  unsigned HalfH;     // COLUMN_X == LINE_Y
  unsigned Log2H;
  uint32_t BankSize;
  unsigned Log2Bank;

  // Contiguous layout (base / copy / tiled).
  uint32_t XBase, YBase, ZBase;

  // Distributed layout offsets within each bank.
  uint32_t DistYOff, DistZOff;

  explicit Layout(const MatMulSpec &Spec) {
    H = Spec.h();
    HalfH = H / 2;
    Log2H = log2Exact(H);
    BankSize = 1u << Spec.BankSizeLog2;
    Log2Bank = Spec.BankSizeLog2;
    XBase = isa::GlobalBase;
    YBase = XBase + H * HalfH * 4;
    ZBase = YBase + HalfH * H * 4;
    DistYOff = 8 * H;  // after 4 X rows of 2H bytes
    DistZOff = 16 * H; // after 2 Y rows of 4H bytes
    assert(32 * H <= BankSize && "distributed bank layout overflows");
  }
};

/// Shared building blocks for the five kernels.
class MatMulBuilder {
public:
  MatMulBuilder(const MatMulSpec &Spec) : Spec(Spec), L(Spec) {}

  std::string build();

private:
  MatMulSpec Spec;
  Layout L;
  Module M;

  const Expr *c(int32_t V) { return M.c(V); }
  const Expr *v(const Local *X) { return M.v(X); }
  const Expr *addv(const Local *X, int32_t C) {
    return M.add(M.v(X), M.c(C));
  }

  /// buf = LocalBase + (hartid & 3) * HartStackSize: the per-hart
  /// scratch area at the bottom of its stack region.
  const Stmt *computeLocalBuf(const Local *Buf) {
    return M.assign(
        Buf, M.add(M.c(static_cast<int32_t>(isa::LocalBase)),
                   M.shl(M.bin(BinOp::And, M.hartId(), M.c(3)),
                         static_cast<int32_t>(
                             log2Exact(isa::HartStackSize)))));
  }

  /// Appends `do { *dst++ = *src++; } while (src != end)`.
  void emitCopyLoop(Function *F, const Local *Src, const Local *Dst,
                    const Local *End) {
    F->append(M.doWhile({M.store(v(Dst), 0, M.load(v(Src))),
                         M.assign(Src, addv(Src, 4)),
                         M.assign(Dst, addv(Dst, 4))},
                        CmpOp::Ne, v(Src), v(End)));
  }

  void buildBaseThread(bool CopyRow);
  void buildDistributedThread(bool CopyRow);
  void buildTiledThread();
  void emitContiguousGlobals();
  void emitDistributedGlobals();
};

void MatMulBuilder::buildBaseThread(bool CopyRow) {
  Function *F = M.function("thread", FnKind::Thread);
  const Local *T = F->param("t");
  const Local *Px0 = F->local("px0");
  const Local *Pz = F->local("pz");
  const Local *J = F->local("j");
  const Local *Py = F->local("py");
  const Local *Px = F->local("px");
  const Local *PxEnd = F->local("pxend");
  const Local *Acc = F->local("acc");
  const Local *Buf = CopyRow ? F->local("buf") : nullptr;
  const Local *Dst = CopyRow ? F->local("dst") : nullptr;

  int32_t RowXBytes = static_cast<int32_t>(2 * L.H); // h/2 words
  int32_t RowZBytes = static_cast<int32_t>(4 * L.H);

  // px0 = &X[t][0], pz = &Z[t][0].
  F->append(M.assign(Px0, M.add(c(static_cast<int32_t>(L.XBase)),
                                M.shl(v(T), log2Exact(2 * L.H)))));
  F->append(M.assign(Pz, M.add(c(static_cast<int32_t>(L.ZBase)),
                               M.shl(v(T), log2Exact(4 * L.H)))));

  if (CopyRow) {
    // Copy the thread's X row into its local scratchpad (paper "copy").
    F->append(computeLocalBuf(Buf));
    F->append(M.assign(Px, v(Px0)));
    F->append(M.assign(Dst, v(Buf)));
    F->append(M.assign(PxEnd, addv(Px0, RowXBytes)));
    emitCopyLoop(F, Px, Dst, PxEnd);
    F->append(M.syncm());
    F->append(M.assign(Px0, v(Buf)));
  }

  F->append(M.assign(J, c(0)));
  F->append(M.doWhile(
      {M.assign(Py, M.add(c(static_cast<int32_t>(L.YBase)),
                          M.shl(v(J), 2))),
       M.assign(Px, v(Px0)),
       M.assign(PxEnd, addv(Px0, RowXBytes)),
       M.assign(Acc, c(0)),
       // The paper's 7-instruction inner loop.
       M.doWhile({M.assign(Acc, M.add(v(Acc), M.mul(M.load(v(Px)),
                                                    M.load(v(Py))))),
                  M.assign(Px, addv(Px, 4)),
                  M.assign(Py, addv(Py, RowZBytes))},
                 CmpOp::Ne, v(Px), v(PxEnd)),
       M.store(v(Pz), 0, v(Acc)),
       M.assign(Pz, addv(Pz, 4)),
       M.assign(J, addv(J, 1))},
      CmpOp::Ne, v(J), c(static_cast<int32_t>(L.H))));
}

void MatMulBuilder::buildDistributedThread(bool CopyRow) {
  Function *F = M.function("thread", FnKind::Thread);
  const Local *T = F->param("t");
  const Local *Px0 = F->local("px0");
  const Local *Pz = F->local("pz");
  const Local *J = F->local("j");
  const Local *Py = F->local("py");
  const Local *Pyb = F->local("pyb"); // in-bank row walker
  const Local *Px = F->local("px");
  const Local *PxEnd = F->local("pxend");
  const Local *Acc = F->local("acc");
  const Local *Bs = F->local("bs"); // hoisted bank stride
  const Local *Buf = CopyRow ? F->local("buf") : nullptr;
  const Local *Dst = CopyRow ? F->local("dst") : nullptr;

  int32_t RowXBytes = static_cast<int32_t>(2 * L.H);
  int32_t RowZBytes = static_cast<int32_t>(4 * L.H);

  // bank(t/4) base + (t%4) * row bytes; the thread's X and Z rows live
  // in its own core's bank.
  const Expr *BankBase =
      M.add(c(static_cast<int32_t>(isa::GlobalBase)),
            M.shl(M.bin(BinOp::Shr, v(T), c(2)),
                  static_cast<int32_t>(L.Log2Bank)));
  F->append(M.assign(Px0, M.add(BankBase,
                                M.shl(M.bin(BinOp::And, v(T), c(3)),
                                      log2Exact(2 * L.H)))));
  const Expr *BankBase2 =
      M.add(c(static_cast<int32_t>(isa::GlobalBase +
                                   L.DistZOff)),
            M.shl(M.bin(BinOp::Shr, v(T), c(2)),
                  static_cast<int32_t>(L.Log2Bank)));
  F->append(M.assign(Pz, M.add(BankBase2,
                               M.shl(M.bin(BinOp::And, v(T), c(3)),
                                     log2Exact(4 * L.H)))));
  F->append(M.assign(Bs, c(static_cast<int32_t>(L.BankSize))));

  if (CopyRow) {
    F->append(computeLocalBuf(Buf));
    F->append(M.assign(Px, v(Px0)));
    F->append(M.assign(Dst, v(Buf)));
    F->append(M.assign(PxEnd, addv(Px0, RowXBytes)));
    emitCopyLoop(F, Px, Dst, PxEnd);
    F->append(M.syncm());
    F->append(M.assign(Px0, v(Buf)));
  }

  F->append(M.assign(J, c(0)));
  F->append(M.doWhile(
      {// py = &Y[0][j] in bank 0 (Y rows 0/1); stride: two rows per
       // bank, then jump to the next bank.
       M.assign(Py, M.add(c(static_cast<int32_t>(isa::GlobalBase +
                                                 L.DistYOff)),
                          M.shl(v(J), 2))),
       M.assign(Px, v(Px0)),
       M.assign(PxEnd, addv(Px0, RowXBytes)),
       M.assign(Acc, c(0)),
       // Two Y rows per bank, walked with an explicit in-bank pointer:
       // the same 7 instructions per multiply-accumulate as the
       // contiguous walk, plus the bank bookkeeping.
       M.doWhile({M.assign(Pyb, v(Py)),
                  M.assign(Acc, M.add(v(Acc), M.mul(M.load(v(Px)),
                                                    M.load(v(Pyb))))),
                  M.assign(Px, addv(Px, 4)),
                  M.assign(Pyb, addv(Pyb, RowZBytes)),
                  M.assign(Acc, M.add(v(Acc), M.mul(M.load(v(Px)),
                                                    M.load(v(Pyb))))),
                  M.assign(Px, addv(Px, 4)),
                  M.assign(Py, M.add(v(Py), v(Bs)))},
                 CmpOp::Ne, v(Px), v(PxEnd)),
       M.store(v(Pz), 0, v(Acc)),
       M.assign(Pz, addv(Pz, 4)),
       M.assign(J, addv(J, 1))},
      CmpOp::Ne, v(J), c(static_cast<int32_t>(L.H))));
}

void MatMulBuilder::buildTiledThread() {
  unsigned Sq = 1u << (L.Log2H / 2); // sqrt(h): 4, 8, 16
  unsigned Tk = Sq / 2;              // k-extent of X/Y tiles
  unsigned Log2Sq = log2Exact(Sq);

  Function *F = M.function("thread", FnKind::Thread);
  const Local *T = F->param("t");
  const Local *XBuf = F->local("xbuf");
  const Local *YBuf = F->local("ybuf");
  const Local *ZBuf = F->local("zbuf");
  const Local *XSrc = F->local("xsrc");
  const Local *YSrc = F->local("ysrc");
  const Local *ZDst = F->local("zdst");
  const Local *Kt = F->local("kt");
  const Local *Src = F->local("src");
  const Local *Dst = F->local("dst");
  const Local *Ce = F->local("ce");
  const Local *Pz = F->local("pz");
  const Local *PxRow = F->local("pxrow");
  const Local *PyJ = F->local("pyj");
  const Local *Px = F->local("px");
  const Local *PxE = F->local("pxe");
  const Local *Py = F->local("py");
  const Local *Acc = F->local("acc");
  const Local *R = F->local("r");

  int32_t H = static_cast<int32_t>(L.H);
  int32_t XTileBytes = static_cast<int32_t>(Sq * Tk * 4); // = 2h
  int32_t YTileBytes = XTileBytes;
  int32_t ZTileBytes = static_cast<int32_t>(Sq * Sq * 4); // = 4h
  int32_t XRowBytes = 2 * H;
  int32_t YRowBytes = 4 * H;
  int32_t ZRowBytes = 4 * H;

  // Local tile buffers: [X tile][Y tile][Z tile].
  F->append(computeLocalBuf(XBuf));
  F->append(M.assign(YBuf, addv(XBuf, XTileBytes)));
  F->append(M.assign(ZBuf, addv(YBuf, YTileBytes)));

  // Tile coordinates: ti = t / sq (row of tiles), tj = t % sq.
  // xsrc = &X[ti*sq][0], ysrc = &Y[0][tj*sq], zdst = &Z[ti*sq][tj*sq].
  F->append(M.assign(
      XSrc, M.add(c(static_cast<int32_t>(L.XBase)),
                  M.shl(M.bin(BinOp::Shr, v(T), c((int)Log2Sq)),
                        static_cast<int32_t>(Log2Sq +
                                             log2Exact(2 * L.H))))));
  F->append(M.assign(
      YSrc,
      M.add(c(static_cast<int32_t>(L.YBase)),
            M.shl(M.bin(BinOp::And, v(T), c((int)Sq - 1)),
                  static_cast<int32_t>(2 + Log2Sq)))));
  F->append(M.assign(
      ZDst,
      M.add(M.add(c(static_cast<int32_t>(L.ZBase)),
                  M.shl(M.bin(BinOp::Shr, v(T), c((int)Log2Sq)),
                        static_cast<int32_t>(Log2Sq +
                                             log2Exact(4 * L.H)))),
            M.shl(M.bin(BinOp::And, v(T), c((int)Sq - 1)),
                  static_cast<int32_t>(2 + Log2Sq)))));

  // Zero the Z tile.
  F->append(M.assign(Pz, v(ZBuf)));
  F->append(M.assign(Ce, addv(ZBuf, ZTileBytes)));
  F->append(M.doWhile({M.store(v(Pz), 0, c(0)),
                       M.assign(Pz, addv(Pz, 4))},
                      CmpOp::Ne, v(Pz), v(Ce)));

  // Loop over the sq k-tiles.
  std::vector<const Stmt *> KtBody;

  // Copy the X tile (sq rows of tk words): dst walks xbuf..ybuf.
  KtBody.push_back(M.assign(Src, v(XSrc)));
  KtBody.push_back(M.assign(Dst, v(XBuf)));
  KtBody.push_back(M.doWhile(
      {M.assign(Ce, addv(Src, static_cast<int32_t>(Tk * 4))),
       M.doWhile({M.store(v(Dst), 0, M.load(v(Src))),
                  M.assign(Src, addv(Src, 4)),
                  M.assign(Dst, addv(Dst, 4))},
                 CmpOp::Ne, v(Src), v(Ce)),
       M.assign(Src, addv(Src, XRowBytes - static_cast<int32_t>(Tk * 4)))},
      CmpOp::Ne, v(Dst), v(YBuf)));

  // Copy the Y tile (tk rows of sq words): dst walks ybuf..zbuf.
  KtBody.push_back(M.assign(Src, v(YSrc)));
  KtBody.push_back(M.assign(Dst, v(YBuf)));
  KtBody.push_back(M.doWhile(
      {M.assign(Ce, addv(Src, static_cast<int32_t>(Sq * 4))),
       M.doWhile({M.store(v(Dst), 0, M.load(v(Src))),
                  M.assign(Src, addv(Src, 4)),
                  M.assign(Dst, addv(Dst, 4))},
                 CmpOp::Ne, v(Src), v(Ce)),
       M.assign(Src, addv(Src, YRowBytes - static_cast<int32_t>(Sq * 4)))},
      CmpOp::Ne, v(Dst), v(ZBuf)));

  KtBody.push_back(M.syncm());

  // Multiply-accumulate the tiles: pz walks the Z tile flat. Ce is free
  // during this phase and marks where the pyj column walk stops.
  KtBody.push_back(M.assign(Pz, v(ZBuf)));
  KtBody.push_back(M.assign(PxRow, v(XBuf)));
  KtBody.push_back(M.assign(Ce, addv(YBuf, static_cast<int32_t>(Sq * 4))));
  KtBody.push_back(M.doWhile(
      {M.assign(PyJ, v(YBuf)),
       M.doWhile(
           {M.assign(Px, v(PxRow)),
            M.assign(PxE, addv(PxRow, static_cast<int32_t>(Tk * 4))),
            M.assign(Py, v(PyJ)),
            M.assign(Acc, M.load(v(Pz))),
            M.doWhile({M.assign(Acc, M.add(v(Acc),
                                           M.mul(M.load(v(Px)),
                                                 M.load(v(Py))))),
                       M.assign(Px, addv(Px, 4)),
                       M.assign(Py, addv(Py,
                                         static_cast<int32_t>(Sq * 4)))},
                      CmpOp::Ne, v(Px), v(PxE)),
            M.store(v(Pz), 0, v(Acc)),
            M.assign(Pz, addv(Pz, 4)),
            M.assign(PyJ, addv(PyJ, 4))},
           CmpOp::Ne, v(PyJ), v(Ce)),
       M.assign(PxRow, addv(PxRow, static_cast<int32_t>(Tk * 4)))},
      CmpOp::Ne, v(PxRow), v(YBuf)));

  // Advance the tile sources.
  KtBody.push_back(M.assign(XSrc, addv(XSrc, static_cast<int32_t>(Tk * 4))));
  KtBody.push_back(M.assign(
      YSrc, addv(YSrc, static_cast<int32_t>(Tk) * YRowBytes)));
  KtBody.push_back(M.assign(Kt, addv(Kt, 1)));

  F->append(M.assign(Kt, c(0)));
  F->append(M.doWhile(std::move(KtBody), CmpOp::Ne, v(Kt),
                      c(static_cast<int32_t>(Sq))));

  // Write the Z tile back (sq rows of sq words).
  F->append(M.assign(Src, v(ZBuf)));
  F->append(M.assign(Dst, v(ZDst)));
  F->append(M.assign(R, c(0)));
  F->append(M.doWhile(
      {M.assign(Ce, addv(Src, static_cast<int32_t>(Sq * 4))),
       M.doWhile({M.store(v(Dst), 0, M.load(v(Src))),
                  M.assign(Src, addv(Src, 4)),
                  M.assign(Dst, addv(Dst, 4))},
                 CmpOp::Ne, v(Src), v(Ce)),
       M.assign(Dst, addv(Dst, ZRowBytes - static_cast<int32_t>(Sq * 4))),
       M.assign(R, addv(R, 1))},
      CmpOp::Ne, v(R), c(static_cast<int32_t>(Sq))));
}

void MatMulBuilder::emitContiguousGlobals() {
  M.globalFilled("X", L.XBase, L.H * L.HalfH, 1);
  M.globalFilled("Y", L.YBase, L.HalfH * L.H, 1);
  M.global("Z", L.ZBase, L.H * L.H);
}

void MatMulBuilder::emitDistributedGlobals() {
  unsigned Banks = Spec.cores();
  for (unsigned B = 0; B != Banks; ++B) {
    uint32_t Bank = isa::GlobalBase + B * L.BankSize;
    M.globalFilled("X_b" + std::to_string(B), Bank, 4 * L.HalfH, 1);
    M.globalFilled("Y_b" + std::to_string(B), Bank + L.DistYOff,
                   2 * L.H, 1);
    M.global("Z_b" + std::to_string(B), Bank + L.DistZOff, 4 * L.H);
  }
}

std::string MatMulBuilder::build() {
  switch (Spec.Version) {
  case MatMulVersion::Base:
    buildBaseThread(/*CopyRow=*/false);
    emitContiguousGlobals();
    break;
  case MatMulVersion::Copy:
    buildBaseThread(/*CopyRow=*/true);
    emitContiguousGlobals();
    break;
  case MatMulVersion::Distributed:
    buildDistributedThread(/*CopyRow=*/false);
    emitDistributedGlobals();
    break;
  case MatMulVersion::DistCopy:
    buildDistributedThread(/*CopyRow=*/true);
    emitDistributedGlobals();
    break;
  case MatMulVersion::Tiled:
    buildTiledThread();
    emitContiguousGlobals();
    break;
  }

  Function *Main = M.function("main", FnKind::Main);
  Main->append(M.parallelFor("thread", Spec.NumHarts));
  return compileModule(M);
}

} // namespace

const char *workloads::matMulVersionName(MatMulVersion V) {
  switch (V) {
  case MatMulVersion::Base:
    return "base";
  case MatMulVersion::Copy:
    return "copy";
  case MatMulVersion::Distributed:
    return "distributed";
  case MatMulVersion::DistCopy:
    return "d+c";
  case MatMulVersion::Tiled:
    return "tiled";
  }
  LBP_UNREACHABLE("unknown matmul version");
}

std::string workloads::buildMatMulProgram(const MatMulSpec &Spec) {
  return MatMulBuilder(Spec).build();
}

uint32_t workloads::zElementAddress(const MatMulSpec &Spec, unsigned I,
                                    unsigned J) {
  Layout L(Spec);
  bool Distributed = Spec.Version == MatMulVersion::Distributed ||
                     Spec.Version == MatMulVersion::DistCopy;
  if (!Distributed)
    return L.ZBase + (I * L.H + J) * 4;
  uint32_t Bank = isa::GlobalBase + (I / 4) * L.BankSize;
  return Bank + L.DistZOff + (I % 4) * 4 * L.H + 4 * J;
}
