// CKVM: the guest instruction set.
//
// User-level programs in this reproduction execute as real instruction
// streams through the simulated MMU, so traps, page faults and the
// memory-based-messaging fast path are driven by actual loads, stores and
// trap instructions -- not by host function calls. The ISA is a minimal
// 32-bit load/store machine (32 registers, fixed 32-bit encoding), small
// enough to interpret quickly but rich enough to write the benchmark guests
// (getpid loops, page touchers, message senders) and example programs.
//
// Encoding (fields from the high bits down):
//   R-type:  op[31:26] rd[25:21] rs1[20:16] rs2[15:11] zeros
//   I-type:  op[31:26] rd[25:21] rs1[20:16] imm16[15:0]   (imm sign-extended)
//   B-type:  op[31:26] r1[25:21] r2[20:16]  off16[15:0]   (word offset from
//                                                          the next pc)

#ifndef SRC_ISA_ISA_H_
#define SRC_ISA_ISA_H_

#include <cstdint>

namespace ckisa {

// Signed divide and remainder as CKVM hardware defines them: they never
// fault. x / 0 = 0 and x % 0 = 0; INT32_MIN / -1 wraps to INT32_MIN (and
// its remainder is 0) instead of raising the host's divide trap.
inline uint32_t SignedDiv(uint32_t a, uint32_t b) {
  int32_t divisor = static_cast<int32_t>(b);
  if (divisor == 0) {
    return 0;
  }
  if (divisor == -1) {
    return 0u - a;
  }
  return static_cast<uint32_t>(static_cast<int32_t>(a) / divisor);
}

inline uint32_t SignedRem(uint32_t a, uint32_t b) {
  int32_t divisor = static_cast<int32_t>(b);
  if (divisor == 0 || divisor == -1) {
    return 0;
  }
  return static_cast<uint32_t>(static_cast<int32_t>(a) % divisor);
}

// Assembler operand syntax of an opcode.
enum class OpFormat : uint8_t {
  kBare,    // mnemonic only
  kR3,      // rd, rs1, rs2
  kI2,      // rd, rs1, imm16
  kLui,     // rd, imm16
  kMem,     // rd, imm(rs1)        (sw/sb: rd is the source register)
  kBranch,  // r1, r2, target      (target = pc + 4 + off*4)
  kJal,     // rd, target          (rd = pc + 4)
  kJalr,    // rd, rs1[, imm]      (rd = pc + 4; pc = rs1 + imm)
  kTrap,    // imm                 (trap number)
};

// How the interpreter executes an opcode.
enum class OpClass : uint8_t {
  kNop,
  kHalt,
  kAlu,     // rd = the row's expression
  kLoad,    // rd = mem[rs1 + imm]
  kStore,   // mem[rs1 + imm] = rd
  kBranch,  // taken when the row's expression holds
  kJal,
  kJalr,
  // Supervisor entry: imm = trap number. Traps to the Cache Kernel, which
  // forwards to the owning application kernel (section 2.3).
  kTrap,
  kUndefined,  // no table row: executing it faults (kBadInstruction)
};

// The CKVM op table: the one place an opcode is defined. Each row is
//
//   (Name, value, mnemonic, format, class, expr)
//
// Name is the Op::k<Name> enumerator, value the 6-bit opcode (rows are in
// value order with no gaps), format an OpFormat and class an OpClass
// enumerator. expr is written over the register file `r` and the decoded
// instruction `d`: for an ALU row it is the value written to rd, for a
// branch row the taken condition; every other row leaves it empty.
//
// CKVM_OP_TABLE takes one row macro per kind so a user can expand a single
// kind; CKVM_OPS, CKVM_ALU_OPS and CKVM_BRANCH_OPS are the views in use.
#define CKVM_OP_TABLE(ALU, BRANCH, OTHER)                                                        \
  OTHER(Nop, 0, "nop", kBare, kNop, )                                                            \
  OTHER(Halt, 1, "halt", kBare, kHalt, )                                                         \
  ALU(Add, 2, "add", kR3, kAlu, r[d.rs1] + r[d.rs2])                                             \
  ALU(Sub, 3, "sub", kR3, kAlu, r[d.rs1] - r[d.rs2])                                             \
  ALU(And, 4, "and", kR3, kAlu, r[d.rs1] & r[d.rs2])                                             \
  ALU(Or, 5, "or", kR3, kAlu, r[d.rs1] | r[d.rs2])                                               \
  ALU(Xor, 6, "xor", kR3, kAlu, r[d.rs1] ^ r[d.rs2])                                             \
  ALU(Sll, 7, "sll", kR3, kAlu, r[d.rs1] << (r[d.rs2] & 31u))                                    \
  ALU(Srl, 8, "srl", kR3, kAlu, r[d.rs1] >> (r[d.rs2] & 31u))                                    \
  ALU(Sra, 9, "sra", kR3, kAlu,                                                                  \
      static_cast<uint32_t>(static_cast<int32_t>(r[d.rs1]) >> (r[d.rs2] & 31u)))                 \
  ALU(Mul, 10, "mul", kR3, kAlu, r[d.rs1] * r[d.rs2])                                            \
  ALU(Slt, 11, "slt", kR3, kAlu,                                                                 \
      static_cast<int32_t>(r[d.rs1]) < static_cast<int32_t>(r[d.rs2]))                           \
  ALU(Sltu, 12, "sltu", kR3, kAlu, r[d.rs1] < r[d.rs2])                                          \
  ALU(Addi, 13, "addi", kI2, kAlu, Rs1PlusImm(r, d))                                             \
  ALU(Andi, 14, "andi", kI2, kAlu, r[d.rs1] & static_cast<uint32_t>(d.imm & 0xffff))             \
  ALU(Ori, 15, "ori", kI2, kAlu, r[d.rs1] | static_cast<uint32_t>(d.imm & 0xffff))               \
  ALU(Xori, 16, "xori", kI2, kAlu, r[d.rs1] ^ static_cast<uint32_t>(d.imm & 0xffff))             \
  ALU(Lui, 17, "lui", kLui, kAlu, static_cast<uint32_t>(d.imm & 0xffff) << 16)                   \
  ALU(Slti, 18, "slti", kI2, kAlu, static_cast<int32_t>(r[d.rs1]) < d.imm)                       \
  OTHER(Lw, 19, "lw", kMem, kLoad, )                                                             \
  OTHER(Sw, 20, "sw", kMem, kStore, )                                                            \
  OTHER(Lb, 21, "lb", kMem, kLoad, )                                                             \
  OTHER(Sb, 22, "sb", kMem, kStore, )                                                            \
  BRANCH(Beq, 23, "beq", kBranch, kBranch, r[d.rd] == r[d.rs1])                                  \
  BRANCH(Bne, 24, "bne", kBranch, kBranch, r[d.rd] != r[d.rs1])                                  \
  BRANCH(Blt, 25, "blt", kBranch, kBranch,                                                       \
         static_cast<int32_t>(r[d.rd]) < static_cast<int32_t>(r[d.rs1]))                         \
  BRANCH(Bge, 26, "bge", kBranch, kBranch,                                                       \
         static_cast<int32_t>(r[d.rd]) >= static_cast<int32_t>(r[d.rs1]))                        \
  OTHER(Jal, 27, "jal", kJal, kJal, )                                                            \
  OTHER(Jalr, 28, "jalr", kJalr, kJalr, )                                                        \
  OTHER(Trap, 29, "trap", kTrap, kTrap, )                                                        \
  ALU(Div, 30, "div", kR3, kAlu, SignedDiv(r[d.rs1], r[d.rs2]))                                  \
  ALU(Rem, 31, "rem", kR3, kAlu, SignedRem(r[d.rs1], r[d.rs2]))

#define CKVM_SKIP(...)
#define CKVM_OPS(X) CKVM_OP_TABLE(X, X, X)
#define CKVM_ALU_OPS(X) CKVM_OP_TABLE(X, CKVM_SKIP, CKVM_SKIP)
#define CKVM_BRANCH_OPS(X) CKVM_OP_TABLE(CKVM_SKIP, X, CKVM_SKIP)

enum class Op : uint8_t {
#define CKVM_ENUMERATOR(Name, ...) k##Name,
  CKVM_OPS(CKVM_ENUMERATOR)
#undef CKVM_ENUMERATOR
};
// Rows are in opcode order with no gaps, so each row's enumerator (and its
// kOps index below) is its listed value.
#define CKVM_CHECK_VALUE(Name, value, ...) static_assert(static_cast<int>(Op::k##Name) == (value));
CKVM_OPS(CKVM_CHECK_VALUE)
#undef CKVM_CHECK_VALUE

struct OpInfo {
  Op op;
  const char* mnemonic;
  OpFormat format;
  OpClass cls;
};

inline constexpr OpInfo kOps[] = {
#define CKVM_OP_INFO(Name, value, mnemonic, format, cls, expr) \
  {Op::k##Name, mnemonic, OpFormat::format, OpClass::cls},
    CKVM_OPS(CKVM_OP_INFO)
#undef CKVM_OP_INFO
};
inline constexpr uint32_t kOpCount = sizeof(kOps) / sizeof(kOps[0]);

// The table row of `op`, or nullptr for an undefined opcode.
inline const OpInfo* FindOp(Op op) {
  uint32_t value = static_cast<uint8_t>(op);
  return value < kOpCount ? &kOps[value] : nullptr;
}

inline OpClass ClassOf(Op op) {
  const OpInfo* info = FindOp(op);
  return info != nullptr ? info->cls : OpClass::kUndefined;
}

inline constexpr uint32_t Encode(Op op, uint32_t a, uint32_t b, uint32_t c_or_imm16) {
  return (static_cast<uint32_t>(op) << 26) | ((a & 31u) << 21) | ((b & 31u) << 16) |
         (c_or_imm16 & 0xffffu);
}

inline constexpr uint32_t EncodeR(Op op, uint32_t rd, uint32_t rs1, uint32_t rs2) {
  return (static_cast<uint32_t>(op) << 26) | ((rd & 31u) << 21) | ((rs1 & 31u) << 16) |
         ((rs2 & 31u) << 11);
}

struct Decoded {
  Op op;
  uint8_t rd;   // or r1 for branches
  uint8_t rs1;  // or r2 for branches
  uint8_t rs2;
  int32_t imm;  // sign-extended 16-bit immediate
};

inline Decoded Decode(uint32_t word) {
  Decoded d;
  d.op = static_cast<Op>(word >> 26);
  d.rd = static_cast<uint8_t>((word >> 21) & 31u);
  d.rs1 = static_cast<uint8_t>((word >> 16) & 31u);
  d.rs2 = static_cast<uint8_t>((word >> 11) & 31u);
  d.imm = static_cast<int16_t>(word & 0xffffu);
  return d;
}

// rs1 + the sign-extended immediate: addi's result, the address of a load
// or store, and the jalr target.
inline uint32_t Rs1PlusImm(const uint32_t* r, const Decoded& d) {
  return r[d.rs1] + static_cast<uint32_t>(d.imm);
}

// Where a taken branch or jal at `pc` goes: the word offset is from pc + 4.
inline uint32_t BranchTarget(uint32_t pc, const Decoded& d) {
  return pc + 4 + static_cast<uint32_t>(d.imm) * 4;
}

// Conventional register roles used by the assembler and the application
// kernels' syscall ABI:
//   r0  zero    hardwired zero
//   r1  ra      return address
//   r2  sp      stack pointer / syscall return value register
//   r3  gp      global pointer
//   r4..r9   a0..a5   arguments (a0 also = syscall number result space)
//   r10..r17 t0..t7   temporaries
//   r18..r25 s0..s7   saved
//   r26..r31 k0..k5   reserved for handler glue
inline constexpr uint8_t kRegZero = 0;
inline constexpr uint8_t kRegRa = 1;
inline constexpr uint8_t kRegSp = 2;
inline constexpr uint8_t kRegGp = 3;
inline constexpr uint8_t kRegA0 = 4;
inline constexpr uint8_t kRegT0 = 10;
inline constexpr uint8_t kRegS0 = 18;
inline constexpr uint8_t kRegK0 = 26;

}  // namespace ckisa

#endif  // SRC_ISA_ISA_H_
