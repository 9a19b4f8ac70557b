//===- isa/Instr.cpp - RV32IM + X_PAR instruction definitions -------------===//
//
// Part of the LBP reproduction project.
//
//===----------------------------------------------------------------------===//

#include "isa/Instr.h"

#include <array>

using namespace lbp;
using namespace lbp::isa;

namespace {

constexpr unsigned NumOps = static_cast<unsigned>(Opcode::NumOpcodes);

constexpr InstrInfo makeInfo(std::string_view Mnemonic, Format Form,
                             ExecClass Class, bool WritesRd, bool ReadsRs1,
                             bool ReadsRs2) {
  return InstrInfo{Mnemonic, Form, Class, WritesRd, ReadsRs1, ReadsRs2};
}

constexpr std::array<InstrInfo, NumOps> buildTable() {
  std::array<InstrInfo, NumOps> T{};
  auto Set = [&T](Opcode Op, InstrInfo Info) {
    T[static_cast<unsigned>(Op)] = Info;
  };

  Set(Opcode::Invalid,
      makeInfo("<invalid>", Format::R, ExecClass::Alu, false, false, false));

  Set(Opcode::LUI, makeInfo("lui", Format::U, ExecClass::Alu, true, false,
                            false));
  Set(Opcode::AUIPC, makeInfo("auipc", Format::U, ExecClass::Alu, true, false,
                              false));
  Set(Opcode::JAL, makeInfo("jal", Format::J, ExecClass::Jump, true, false,
                            false));
  Set(Opcode::JALR, makeInfo("jalr", Format::I, ExecClass::Jump, true, true,
                             false));

  Set(Opcode::BEQ, makeInfo("beq", Format::B, ExecClass::Branch, false, true,
                            true));
  Set(Opcode::BNE, makeInfo("bne", Format::B, ExecClass::Branch, false, true,
                            true));
  Set(Opcode::BLT, makeInfo("blt", Format::B, ExecClass::Branch, false, true,
                            true));
  Set(Opcode::BGE, makeInfo("bge", Format::B, ExecClass::Branch, false, true,
                            true));
  Set(Opcode::BLTU, makeInfo("bltu", Format::B, ExecClass::Branch, false, true,
                             true));
  Set(Opcode::BGEU, makeInfo("bgeu", Format::B, ExecClass::Branch, false, true,
                             true));

  Set(Opcode::LB, makeInfo("lb", Format::I, ExecClass::Load, true, true,
                           false));
  Set(Opcode::LH, makeInfo("lh", Format::I, ExecClass::Load, true, true,
                           false));
  Set(Opcode::LW, makeInfo("lw", Format::I, ExecClass::Load, true, true,
                           false));
  Set(Opcode::LBU, makeInfo("lbu", Format::I, ExecClass::Load, true, true,
                            false));
  Set(Opcode::LHU, makeInfo("lhu", Format::I, ExecClass::Load, true, true,
                            false));
  Set(Opcode::SB, makeInfo("sb", Format::S, ExecClass::Store, false, true,
                           true));
  Set(Opcode::SH, makeInfo("sh", Format::S, ExecClass::Store, false, true,
                           true));
  Set(Opcode::SW, makeInfo("sw", Format::S, ExecClass::Store, false, true,
                           true));

  Set(Opcode::ADDI, makeInfo("addi", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SLTI, makeInfo("slti", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SLTIU, makeInfo("sltiu", Format::I, ExecClass::Alu, true, true,
                              false));
  Set(Opcode::XORI, makeInfo("xori", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::ORI, makeInfo("ori", Format::I, ExecClass::Alu, true, true,
                            false));
  Set(Opcode::ANDI, makeInfo("andi", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SLLI, makeInfo("slli", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SRLI, makeInfo("srli", Format::I, ExecClass::Alu, true, true,
                             false));
  Set(Opcode::SRAI, makeInfo("srai", Format::I, ExecClass::Alu, true, true,
                             false));

  Set(Opcode::ADD, makeInfo("add", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SUB, makeInfo("sub", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SLL, makeInfo("sll", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SLT, makeInfo("slt", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SLTU, makeInfo("sltu", Format::R, ExecClass::Alu, true, true,
                             true));
  Set(Opcode::XOR, makeInfo("xor", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SRL, makeInfo("srl", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::SRA, makeInfo("sra", Format::R, ExecClass::Alu, true, true,
                            true));
  Set(Opcode::OR, makeInfo("or", Format::R, ExecClass::Alu, true, true,
                           true));
  Set(Opcode::AND, makeInfo("and", Format::R, ExecClass::Alu, true, true,
                            true));

  Set(Opcode::MUL, makeInfo("mul", Format::R, ExecClass::Mul, true, true,
                            true));
  Set(Opcode::MULH, makeInfo("mulh", Format::R, ExecClass::Mul, true, true,
                             true));
  Set(Opcode::MULHSU, makeInfo("mulhsu", Format::R, ExecClass::Mul, true, true,
                               true));
  Set(Opcode::MULHU, makeInfo("mulhu", Format::R, ExecClass::Mul, true, true,
                              true));
  Set(Opcode::DIV, makeInfo("div", Format::R, ExecClass::Div, true, true,
                            true));
  Set(Opcode::DIVU, makeInfo("divu", Format::R, ExecClass::Div, true, true,
                             true));
  Set(Opcode::REM, makeInfo("rem", Format::R, ExecClass::Div, true, true,
                            true));
  Set(Opcode::REMU, makeInfo("remu", Format::R, ExecClass::Div, true, true,
                             true));

  Set(Opcode::RDCYCLE, makeInfo("rdcycle", Format::I, ExecClass::Alu,
                                true, false, false));
  Set(Opcode::RDINSTRET, makeInfo("rdinstret", Format::I, ExecClass::Alu,
                                  true, false, false));

  Set(Opcode::P_FC, makeInfo("p_fc", Format::XParR, ExecClass::XPar, true,
                             false, false));
  Set(Opcode::P_FN, makeInfo("p_fn", Format::XParR, ExecClass::XPar, true,
                             false, false));
  Set(Opcode::P_SET, makeInfo("p_set", Format::XParR, ExecClass::XPar, true,
                              true, false));
  Set(Opcode::P_MERGE, makeInfo("p_merge", Format::XParR, ExecClass::XPar,
                                true, true, true));
  Set(Opcode::P_SYNCM, makeInfo("p_syncm", Format::XParR, ExecClass::XPar,
                                false, false, false));
  Set(Opcode::P_JAL, makeInfo("p_jal", Format::XParI, ExecClass::XPar, true,
                              true, false));
  Set(Opcode::P_JALR, makeInfo("p_jalr", Format::XParR, ExecClass::XPar, true,
                               true, true));
  Set(Opcode::P_SWCV, makeInfo("p_swcv", Format::XParS, ExecClass::XPar, false,
                               true, true));
  Set(Opcode::P_LWCV, makeInfo("p_lwcv", Format::XParI, ExecClass::XPar, true,
                               false, false));
  Set(Opcode::P_SWRE, makeInfo("p_swre", Format::XParS, ExecClass::XPar, false,
                               true, true));
  Set(Opcode::P_LWRE, makeInfo("p_lwre", Format::XParI, ExecClass::XPar, true,
                               false, false));
  return T;
}

} // namespace

constexpr std::array<InstrInfo, NumOps> isa::detail::InfoTable = buildTable();

std::optional<Opcode> isa::opcodeByMnemonic(std::string_view Mnemonic) {
  for (unsigned I = 1; I != NumOps; ++I)
    if (detail::InfoTable[I].Mnemonic == Mnemonic)
      return static_cast<Opcode>(I);
  return std::nullopt;
}
