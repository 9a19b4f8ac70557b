//===- isa/Instr.h - RV32IM + X_PAR instruction definitions ---------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set executed by LBP cores: the RV32IM base plus the
/// paper's PISC extension X_PAR (Fig. 5) — twelve instructions that fork,
/// join and send/receive values directly in hardware.
///
//===----------------------------------------------------------------------===//

#ifndef LBP_ISA_INSTR_H
#define LBP_ISA_INSTR_H

#include <array>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string_view>

namespace lbp {
namespace isa {

/// Every instruction an LBP core can execute.
enum class Opcode : uint8_t {
  Invalid = 0,

  // RV32I upper-immediate and control transfer.
  LUI,
  AUIPC,
  JAL,
  JALR,
  BEQ,
  BNE,
  BLT,
  BGE,
  BLTU,
  BGEU,

  // RV32I loads and stores.
  LB,
  LH,
  LW,
  LBU,
  LHU,
  SB,
  SH,
  SW,

  // RV32I register-immediate ALU.
  ADDI,
  SLTI,
  SLTIU,
  XORI,
  ORI,
  ANDI,
  SLLI,
  SRLI,
  SRAI,

  // RV32I register-register ALU.
  ADD,
  SUB,
  SLL,
  SLT,
  SLTU,
  XOR,
  SRL,
  SRA,
  OR,
  AND,

  // RV32M multiply/divide.
  MUL,
  MULH,
  MULHSU,
  MULHU,
  DIV,
  DIVU,
  REM,
  REMU,

  // Counter reads (Zicntr subset): the paper's "internal timers".
  RDCYCLE,   ///< rd = current cycle (csrrs rd, cycle, x0).
  RDINSTRET, ///< rd = instructions retired by this hart.

  // X_PAR (PISC) extension, Fig. 5 of the paper.
  P_FC,    ///< Allocate a free hart on the current core; rd = hart id.
  P_FN,    ///< Allocate a free hart on the next core; rd = hart id.
  P_SET,   ///< rd = hart-reference word naming the current hart as join.
  P_MERGE, ///< rd = join field of rs1 | successor field of rs2.
  P_SYNCM, ///< Block fetch until the hart's in-flight memory ops drain.
  P_JAL,   ///< Fork-call: start rs1 hart at pc+4; rd = 0; pc += imm.
  P_JALR,  ///< Fork-call/return: see the five ending types in DESIGN.md.
  P_SWCV,  ///< Store rs2 to the allocated hart rs1's frame at offset imm.
  P_LWCV,  ///< Load rd from the hart's own continuation frame at imm.
  P_SWRE,  ///< Send rs2 to prior hart rs1's result buffer number imm.
  P_LWRE,  ///< Receive rd from the hart's own result buffer number imm.

  NumOpcodes
};

/// Binary encoding shape of an instruction.
enum class Format : uint8_t {
  R,     ///< rd, rs1, rs2 (funct7/funct3 select the operation)
  I,     ///< rd, rs1, imm12
  S,     ///< rs1, rs2, imm12 (stores)
  B,     ///< rs1, rs2, imm13 branch offset
  U,     ///< rd, imm20 upper
  J,     ///< rd, imm21 jump offset
  XParR, ///< X_PAR register form (funct7 selects among P_FC..P_JALR)
  XParI, ///< X_PAR immediate form (P_LWCV, P_LWRE, P_JAL)
  XParS, ///< X_PAR store form (P_SWCV, P_SWRE)
};

/// Functional unit class; the simulator assigns latencies per class.
enum class ExecClass : uint8_t {
  Alu,    ///< Single-cycle integer operation.
  Mul,    ///< Multi-cycle multiply.
  Div,    ///< Multi-cycle divide/remainder.
  Load,   ///< Memory read (latency depends on the bank reached).
  Store,  ///< Memory write (fire-and-forget, acknowledged for p_syncm).
  Branch, ///< Conditional branch (resolves the suspended fetch).
  Jump,   ///< Unconditional control transfer.
  XPar,   ///< X_PAR fork/join/communication instruction.
};

/// Static properties of one opcode.
struct InstrInfo {
  std::string_view Mnemonic;
  Format Form;
  ExecClass Class;
  bool WritesRd;  ///< The instruction has a destination register field.
  bool ReadsRs1;
  bool ReadsRs2;
};

namespace detail {
/// The static properties of every opcode, indexed by opcode (Instr.cpp).
extern const std::array<InstrInfo, static_cast<unsigned>(Opcode::NumOpcodes)>
    InfoTable;
} // namespace detail

/// Returns the static properties of \p Op. Inline: the simulator's
/// decode, issue and writeback stages query it per instruction.
inline const InstrInfo &instrInfo(Opcode Op) {
  unsigned Index = static_cast<unsigned>(Op);
  assert(Index < detail::InfoTable.size() && "opcode out of range");
  return detail::InfoTable[Index];
}

/// Looks an opcode up by mnemonic ("addi", "p_fc", ...).
std::optional<Opcode> opcodeByMnemonic(std::string_view Mnemonic);

/// A decoded (or not yet encoded) instruction.
struct Instr {
  Opcode Op = Opcode::Invalid;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;
  int32_t Imm = 0;

  bool isValid() const { return Op != Opcode::Invalid; }

  /// True when the instruction architecturally writes a register (has a
  /// destination field and it is not x0).
  bool writesReg() const { return instrInfo(Op).WritesRd && Rd != 0; }

  /// True for memory reads, including the continuation-value load.
  bool isLoad() const {
    ExecClass C = instrInfo(Op).Class;
    return C == ExecClass::Load || Op == Opcode::P_LWCV;
  }

  /// True for memory writes, including the continuation-value store.
  bool isStore() const {
    ExecClass C = instrInfo(Op).Class;
    return C == ExecClass::Store || Op == Opcode::P_SWCV;
  }

  /// True when the next pc is already known at decode: anything that is
  /// not a control transfer, plus direct jumps (jal, p_jal).
  bool nextPcKnownAtDecode() const {
    ExecClass C = instrInfo(Op).Class;
    if (C == ExecClass::Branch)
      return false;
    if (Op == Opcode::JALR || Op == Opcode::P_JALR)
      return false;
    return true;
  }
};

} // namespace isa
} // namespace lbp

#endif // LBP_ISA_INSTR_H
