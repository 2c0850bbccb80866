#include "src/isa/assembler.h"

#include <cctype>
#include <cstdio>
#include <optional>

#include "src/isa/isa.h"

namespace ckisa {
namespace {

// Strip comments, split a line into a label (optional) and operands.
std::string StripComment(std::string_view line) {
  size_t pos = line.find_first_of(";#");
  std::string s(pos == std::string_view::npos ? line : line.substr(0, pos));
  return s;
}

std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',' || c == '(' || c == ')') {
      if (!cur.empty()) {
        tokens.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) {
    tokens.push_back(cur);
  }
  return tokens;
}

std::optional<uint8_t> ParseRegister(const std::string& name) {
  static const std::map<std::string, uint8_t> kAliases = [] {
    std::map<std::string, uint8_t> m;
    m["zero"] = 0;
    m["ra"] = 1;
    m["sp"] = 2;
    m["gp"] = 3;
    for (int i = 0; i < 6; ++i) {
      m["a" + std::to_string(i)] = static_cast<uint8_t>(4 + i);
    }
    for (int i = 0; i < 8; ++i) {
      m["t" + std::to_string(i)] = static_cast<uint8_t>(10 + i);
    }
    for (int i = 0; i < 8; ++i) {
      m["s" + std::to_string(i)] = static_cast<uint8_t>(18 + i);
    }
    for (int i = 0; i < 6; ++i) {
      m["k" + std::to_string(i)] = static_cast<uint8_t>(26 + i);
    }
    return m;
  }();

  auto it = kAliases.find(name);
  if (it != kAliases.end()) {
    return it->second;
  }
  if (name.size() >= 2 && name[0] == 'r') {
    int n = 0;
    for (size_t i = 1; i < name.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
        return std::nullopt;
      }
      n = n * 10 + (name[i] - '0');
    }
    if (n < 32) {
      return std::optional<uint8_t>(static_cast<uint8_t>(n));
    }
  }
  return std::nullopt;
}

std::optional<int64_t> ParseNumber(const std::string& text) {
  if (text.empty()) {
    return std::nullopt;
  }
  size_t i = 0;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    i = 1;
  }
  if (i >= text.size()) {
    return std::nullopt;
  }
  int base = 10;
  if (text.size() > i + 2 && text[i] == '0' && (text[i + 1] == 'x' || text[i + 1] == 'X')) {
    base = 16;
    i += 2;
  }
  int64_t value = 0;
  for (; i < text.size(); ++i) {
    char c = static_cast<char>(std::tolower(static_cast<unsigned char>(text[i])));
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = 10 + (c - 'a');
    } else {
      return std::nullopt;
    }
    value = value * base + digit;
  }
  return negative ? -value : value;
}

struct LineStatement {
  std::vector<std::string> labels;
  std::vector<std::string> tokens;  // [0] = mnemonic
  int line_number = 0;
};

// Number of words a statement expands to (pass 1 needs exact sizes).
int WordCount(const std::vector<std::string>& tokens) {
  const std::string& m = tokens[0];
  if (m == ".org" || m == ".space" || m == ".word") {
    return 0;  // handled specially
  }
  if (m == "li" || m == "la") {
    return 2;
  }
  return 1;
}

// The table row spelled `mnemonic`, or nullptr.
const OpInfo* FindMnemonic(const std::string& mnemonic) {
  for (const OpInfo& info : kOps) {
    if (mnemonic == info.mnemonic) {
      return &info;
    }
  }
  return nullptr;
}

}  // namespace

AssembleResult Assemble(std::string_view source, uint32_t base) {
  AssembleResult result;
  Program& prog = result.program;
  prog.base = base;

  auto fail = [&](int line, const std::string& message) {
    result.ok = false;
    result.error = "line " + std::to_string(line) + ": " + message;
    return result;
  };

  // Split lines, collect statements.
  std::vector<LineStatement> statements;
  {
    int line_number = 0;
    size_t start = 0;
    while (start <= source.size()) {
      size_t end = source.find('\n', start);
      std::string_view raw =
          source.substr(start, end == std::string_view::npos ? std::string_view::npos : end - start);
      start = (end == std::string_view::npos) ? source.size() + 1 : end + 1;
      ++line_number;

      std::string line = StripComment(raw);
      LineStatement st;
      st.line_number = line_number;

      // Peel leading labels ("name:").
      for (;;) {
        size_t nonspace = line.find_first_not_of(" \t");
        if (nonspace == std::string::npos) {
          break;
        }
        size_t colon = line.find(':');
        size_t first_space = line.find_first_of(" \t", nonspace);
        if (colon != std::string::npos && (first_space == std::string::npos || colon < first_space)) {
          st.labels.push_back(line.substr(nonspace, colon - nonspace));
          line = line.substr(colon + 1);
        } else {
          break;
        }
      }

      st.tokens = Tokenize(line);
      if (!st.labels.empty() || !st.tokens.empty()) {
        statements.push_back(std::move(st));
      }
    }
  }

  // Pass 1: assign addresses to labels.
  {
    uint32_t loc = base;
    for (const LineStatement& st : statements) {
      for (const std::string& label : st.labels) {
        if (prog.labels.count(label) != 0) {
          return fail(st.line_number, "duplicate label '" + label + "'");
        }
        prog.labels[label] = loc;
      }
      if (st.tokens.empty()) {
        continue;
      }
      const std::string& m = st.tokens[0];
      if (m == ".org") {
        if (st.tokens.size() != 2) {
          return fail(st.line_number, ".org needs an address");
        }
        auto addr = ParseNumber(st.tokens[1]);
        if (!addr || *addr < base) {
          return fail(st.line_number, ".org address invalid or before base");
        }
        loc = static_cast<uint32_t>(*addr);
        // Re-bind labels on this line to the new location.
        for (const std::string& label : st.labels) {
          prog.labels[label] = loc;
        }
      } else if (m == ".word") {
        loc += 4;
      } else if (m == ".space") {
        auto n = ParseNumber(st.tokens.size() == 2 ? st.tokens[1] : "");
        if (!n || *n < 0) {
          return fail(st.line_number, ".space needs a byte count");
        }
        loc += static_cast<uint32_t>((*n + 3) & ~int64_t{3});
      } else {
        if (FindMnemonic(m) == nullptr && m != "li" && m != "la" && m != "mv" && m != "j" &&
            m != "call" && m != "ret") {
          return fail(st.line_number, "unknown mnemonic '" + m + "'");
        }
        loc += static_cast<uint32_t>(WordCount(st.tokens)) * 4;
      }
    }
  }

  // Pass 2: encode.
  auto resolve = [&](const std::string& text, int line, bool& ok) -> int64_t {
    auto num = ParseNumber(text);
    if (num) {
      ok = true;
      return *num;
    }
    auto it = prog.labels.find(text);
    if (it != prog.labels.end()) {
      ok = true;
      return it->second;
    }
    ok = false;
    (void)line;
    return 0;
  };

  auto emit_at = [&](uint32_t loc, uint32_t word) {
    uint32_t index = (loc - base) / 4;
    if (index >= prog.words.size()) {
      prog.words.resize(index + 1, 0);
    }
    prog.words[index] = word;
  };

  uint32_t loc = base;
  for (const LineStatement& st : statements) {
    if (st.tokens.empty()) {
      continue;
    }
    const std::string& m = st.tokens[0];
    const int line = st.line_number;
    const auto& toks = st.tokens;

    auto reg = [&](size_t i, bool& ok) -> uint8_t {
      if (i >= toks.size()) {
        ok = false;
        return 0;
      }
      auto r = ParseRegister(toks[i]);
      ok = r.has_value();
      return r.value_or(0);
    };

    if (m == ".org") {
      loc = static_cast<uint32_t>(*ParseNumber(toks[1]));
      continue;
    }
    if (m == ".word") {
      bool ok = false;
      int64_t v = resolve(toks.size() == 2 ? toks[1] : "", line, ok);
      if (!ok) {
        return fail(line, ".word operand invalid");
      }
      emit_at(loc, static_cast<uint32_t>(v));
      loc += 4;
      continue;
    }
    if (m == ".space") {
      int64_t n = *ParseNumber(toks[1]);
      uint32_t padded = static_cast<uint32_t>((n + 3) & ~int64_t{3});
      for (uint32_t i = 0; i < padded; i += 4) {
        emit_at(loc + i, 0);
      }
      loc += padded;
      continue;
    }

    // Pseudo-instructions.
    if (m == "li" || m == "la") {
      bool rok = false, vok = false;
      uint8_t rd = reg(1, rok);
      int64_t value = resolve(toks.size() >= 3 ? toks[2] : "", line, vok);
      if (!rok || !vok) {
        return fail(line, m + " needs register, value");
      }
      uint32_t v = static_cast<uint32_t>(value);
      emit_at(loc, Encode(Op::kLui, rd, 0, v >> 16));
      emit_at(loc + 4, Encode(Op::kOri, rd, rd, v & 0xffff));
      loc += 8;
      continue;
    }
    if (m == "mv") {
      bool aok = false, bok = false;
      uint8_t rd = reg(1, aok), rs = reg(2, bok);
      if (!aok || !bok) {
        return fail(line, "mv needs two registers");
      }
      emit_at(loc, Encode(Op::kAddi, rd, rs, 0));
      loc += 4;
      continue;
    }
    if (m == "j" || m == "call") {
      bool ok = false;
      int64_t target = resolve(toks.size() >= 2 ? toks[1] : "", line, ok);
      if (!ok) {
        return fail(line, m + " needs a target");
      }
      int64_t off = (target - (static_cast<int64_t>(loc) + 4)) / 4;
      if (off < -32768 || off > 32767) {
        return fail(line, "jump target out of range");
      }
      emit_at(loc, Encode(Op::kJal, m == "call" ? kRegRa : kRegZero, 0,
                          static_cast<uint32_t>(off) & 0xffff));
      loc += 4;
      continue;
    }
    if (m == "ret") {
      emit_at(loc, Encode(Op::kJalr, kRegZero, kRegRa, 0));
      loc += 4;
      continue;
    }

    const OpInfo* info = FindMnemonic(m);
    if (info == nullptr) {
      return fail(line, "unknown mnemonic '" + m + "'");
    }
    uint32_t word = 0;
    bool ok1 = true, ok2 = true, ok3 = true;

    switch (info->format) {
      case OpFormat::kBare:
        word = Encode(info->op, 0, 0, 0);
        break;
      case OpFormat::kR3: {
        uint8_t rd = reg(1, ok1), rs1 = reg(2, ok2), rs2 = reg(3, ok3);
        if (!ok1 || !ok2 || !ok3) {
          return fail(line, m + " needs three registers");
        }
        word = EncodeR(info->op, rd, rs1, rs2);
        break;
      }
      case OpFormat::kI2: {
        uint8_t rd = reg(1, ok1), rs1 = reg(2, ok2);
        bool vok = false;
        int64_t imm = resolve(toks.size() >= 4 ? toks[3] : "", line, vok);
        if (!ok1 || !ok2 || !vok || imm < -32768 || imm > 65535) {
          return fail(line, m + " needs rd, rs, imm16");
        }
        word = Encode(info->op, rd, rs1, static_cast<uint32_t>(imm) & 0xffff);
        break;
      }
      case OpFormat::kLui: {
        uint8_t rd = reg(1, ok1);
        bool vok = false;
        int64_t imm = resolve(toks.size() >= 3 ? toks[2] : "", line, vok);
        if (!ok1 || !vok) {
          return fail(line, "lui needs rd, imm16");
        }
        word = Encode(info->op, rd, 0, static_cast<uint32_t>(imm) & 0xffff);
        break;
      }
      case OpFormat::kMem: {
        // "lw rd, imm(rs1)" tokenizes to [lw, rd, imm, rs1].
        uint8_t rd = reg(1, ok1);
        bool vok = false;
        int64_t imm = resolve(toks.size() >= 3 ? toks[2] : "", line, vok);
        uint8_t rs1 = reg(3, ok2);
        if (!ok1 || !ok2 || !vok || imm < -32768 || imm > 32767) {
          return fail(line, m + " needs rd, imm(rs)");
        }
        word = Encode(info->op, rd, rs1, static_cast<uint32_t>(imm) & 0xffff);
        break;
      }
      case OpFormat::kBranch: {
        uint8_t r1 = reg(1, ok1), r2 = reg(2, ok2);
        bool vok = false;
        int64_t target = resolve(toks.size() >= 4 ? toks[3] : "", line, vok);
        if (!ok1 || !ok2 || !vok) {
          return fail(line, m + " needs r1, r2, target");
        }
        int64_t off = (target - (static_cast<int64_t>(loc) + 4)) / 4;
        if (off < -32768 || off > 32767) {
          return fail(line, "branch target out of range");
        }
        word = Encode(info->op, r1, r2, static_cast<uint32_t>(off) & 0xffff);
        break;
      }
      case OpFormat::kJal: {
        uint8_t rd = reg(1, ok1);
        bool vok = false;
        int64_t target = resolve(toks.size() >= 3 ? toks[2] : "", line, vok);
        if (!ok1 || !vok) {
          return fail(line, "jal needs rd, target");
        }
        int64_t off = (target - (static_cast<int64_t>(loc) + 4)) / 4;
        if (off < -32768 || off > 32767) {
          return fail(line, "jump target out of range");
        }
        word = Encode(info->op, rd, 0, static_cast<uint32_t>(off) & 0xffff);
        break;
      }
      case OpFormat::kJalr: {
        uint8_t rd = reg(1, ok1), rs1 = reg(2, ok2);
        bool vok = false;
        int64_t imm = toks.size() >= 4 ? resolve(toks[3], line, vok) : (vok = true, 0);
        if (!ok1 || !ok2 || !vok) {
          return fail(line, "jalr needs rd, rs[, imm]");
        }
        word = Encode(info->op, rd, rs1, static_cast<uint32_t>(imm) & 0xffff);
        break;
      }
      case OpFormat::kTrap: {
        bool vok = false;
        int64_t imm = resolve(toks.size() >= 2 ? toks[1] : "", line, vok);
        if (!vok) {
          return fail(line, "trap needs a number");
        }
        word = Encode(info->op, 0, 0, static_cast<uint32_t>(imm) & 0xffff);
        break;
      }
    }

    emit_at(loc, word);
    loc += 4;
  }

  result.ok = true;
  return result;
}

std::string Disassemble(uint32_t word, uint32_t pc) {
  Decoded d = Decode(word);
  const OpInfo* info = FindOp(d.op);
  char buf[96];
  if (info == nullptr) {
    std::snprintf(buf, sizeof(buf), ".word 0x%08x", word);
    return buf;
  }
  const char* m = info->mnemonic;
  const uint32_t target = BranchTarget(pc, d);
  switch (info->format) {
    case OpFormat::kBare:
      return m;
    case OpFormat::kR3:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, r%d", m, d.rd, d.rs1, d.rs2);
      break;
    case OpFormat::kI2:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, %d", m, d.rd, d.rs1, d.imm);
      break;
    case OpFormat::kLui:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d", m, d.rd, d.imm & 0xffff);
      break;
    case OpFormat::kMem:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d(r%d)", m, d.rd, d.imm, d.rs1);
      break;
    case OpFormat::kBranch:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, 0x%x", m, d.rd, d.rs1, target);
      break;
    case OpFormat::kJal:
      std::snprintf(buf, sizeof(buf), "%s r%d, 0x%x", m, d.rd, target);
      break;
    case OpFormat::kJalr:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, %d", m, d.rd, d.rs1, d.imm);
      break;
    case OpFormat::kTrap:
      std::snprintf(buf, sizeof(buf), "%s %d", m, d.imm & 0xffff);
      break;
  }
  return buf;
}

}  // namespace ckisa
