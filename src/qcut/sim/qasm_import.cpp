#include "qcut/sim/qasm_import.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "qcut/sim/gates.hpp"

namespace qcut {

namespace {

// ---- tokens ----------------------------------------------------------------

enum class Tok {
  kId,      // identifier / keyword
  kInt,     // nonnegative integer literal
  kReal,    // real literal
  kString,  // "..."
  kSym,     // single-char symbol or -> or ==
  kEof,
};

struct Token {
  Tok kind = Tok::kEof;
  std::string_view text;  // spelling, a view into the source (symbol text for kSym)
  Real value = 0.0;       // numeric value for kInt / kReal
  int line = 0;
  int col = 0;
};

[[noreturn]] void fail_at(const std::string& src_name, int line, int col, const std::string& msg) {
  std::ostringstream os;
  os << src_name << ":" << line << ":" << col << ": " << msg;
  throw Error(os.str());
}

[[noreturn]] void fail_at(const std::string& src_name, const Token& t, const std::string& msg) {
  fail_at(src_name, t.line, t.col, msg);
}

std::string quoted(std::string_view text) { return "'" + std::string(text) + "'"; }

std::string describe(const Token& t) {
  switch (t.kind) {
    case Tok::kEof:
      return "end of input";
    case Tok::kString:
      return "string \"" + std::string(t.text) + "\"";
    default:
      return quoted(t.text);
  }
}

/// strtod over exactly a numeric token's spelling. strtod never fails on it
/// and is exact for what it can represent (the spelling always uses '.', so
/// the locale does not matter); the copy stops strtod from reading past the
/// token (a hex float or an exponent the lexer split off).
Real parse_number(std::string_view spelling) {
  char buf[64];
  if (spelling.size() < sizeof buf) {
    spelling.copy(buf, spelling.size());
    buf[spelling.size()] = '\0';
    return std::strtod(buf, nullptr);
  }
  return std::strtod(std::string(spelling).c_str(), nullptr);
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// Splits the whole source into tokens up front; the parser then walks the
// vector (one-token lookahead suffices for this grammar, but the register
// pre-scan is simpler on a materialized stream).
std::vector<Token> tokenize(std::string_view src, const std::string& src_name) {
  std::vector<Token> out;
  out.reserve(src.size() / 3 + 1);
  int line = 1;
  int col = 1;
  // Externally authored files may lead with a UTF-8 BOM; it is whitespace as
  // far as the grammar is concerned.
  std::size_t i = src.substr(0, 3) == "\xEF\xBB\xBF" ? 3 : 0;
  const std::size_t n = src.size();
  // Appends the token of spelling src[i, j) and moves past it: no token
  // spans a newline (strings end at one), so only the column advances.
  const auto emit = [&](Tok kind, std::size_t j, Real value = 0.0) {
    out.push_back(Token{kind, src.substr(i, j - i), value, line, col});
    col += static_cast<int>(j - i);
    i = j;
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++col;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t eol = std::min(src.find('\n', i), n);
      col += static_cast<int>(eol - i);
      i = eol;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) || src[j] == '_')) {
        ++j;
      }
      emit(Tok::kId, j);
      continue;
    }
    if (is_digit(c) || (c == '.' && i + 1 < n && is_digit(src[i + 1]))) {
      std::size_t j = i;
      bool is_real = false;
      while (j < n && is_digit(src[j])) {
        ++j;
      }
      if (j < n && src[j] == '.') {
        is_real = true;
        ++j;
        while (j < n && is_digit(src[j])) {
          ++j;
        }
      }
      if (j < n && (src[j] == 'e' || src[j] == 'E')) {
        std::size_t k = j + 1;
        if (k < n && (src[k] == '+' || src[k] == '-')) {
          ++k;
        }
        if (k < n && is_digit(src[k])) {
          is_real = true;
          j = k;
          while (j < n && is_digit(src[j])) {
            ++j;
          }
        }
      }
      emit(is_real ? Tok::kReal : Tok::kInt, j, parse_number(src.substr(i, j - i)));
      continue;
    }
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '"' && src[j] != '\n') {
        ++j;
      }
      if (j >= n || src[j] != '"') {
        fail_at(src_name, line, col, "unterminated string literal");
      }
      out.push_back(Token{Tok::kString, src.substr(i + 1, j - i - 1), 0.0, line, col});
      col += static_cast<int>(j + 1 - i);
      i = j + 1;
      continue;
    }
    if ((c == '-' && i + 1 < n && src[i + 1] == '>') ||
        (c == '=' && i + 1 < n && src[i + 1] == '=')) {
      emit(Tok::kSym, i + 2);
      continue;
    }
    if (c != '\0' && std::strchr(";,()[]{}+-*/^", c) != nullptr) {
      emit(Tok::kSym, i + 1);
      continue;
    }
    fail_at(src_name, line, col, std::string("unexpected character '") + c + "'");
  }
  out.push_back(Token{Tok::kEof, "<eof>", 0.0, line, col});
  return out;
}

// ---- constant expressions --------------------------------------------------

enum class Fn : std::uint8_t { kSin, kCos, kTan, kExp, kLn, kSqrt, kUnknown };

Fn function_named(std::string_view name) {
  static constexpr std::string_view kNames[] = {"sin", "cos", "tan", "exp", "ln", "sqrt"};
  for (std::size_t i = 0; i < std::size(kNames); ++i) {
    if (name == kNames[i]) {
      return static_cast<Fn>(i);
    }
  }
  return Fn::kUnknown;
}

/// One instruction of a parameter expression compiled to postfix order, so
/// evaluation visits operands before their operator exactly as a recursive
/// walk of the expression tree would: the same operations in the same order,
/// hence the same bits, and the same first diagnostic.
struct ExprOp {
  enum class Kind : std::uint8_t { kNum, kPi, kParam, kNeg, kBinary, kCall } kind = Kind::kNum;
  char op = 0;            // kBinary: + - * / ^
  Fn fn = Fn::kUnknown;   // kCall
  int param = -1;         // kParam: index into the enclosing gate's parameters
  Real num = 0.0;         // kNum
  std::string_view name;  // kParam / kCall spelling, for diagnostics
  int line = 0, col = 0;
};
using ExprCode = std::vector<ExprOp>;

Real apply_fn(Fn fn, Real x) {
  switch (fn) {
    case Fn::kSin: return std::sin(x);
    case Fn::kCos: return std::cos(x);
    case Fn::kTan: return std::tan(x);
    case Fn::kExp: return std::exp(x);
    case Fn::kLn: return std::log(x);
    case Fn::kSqrt: return std::sqrt(x);
    case Fn::kUnknown: break;
  }
  return 0.0;
}

/// Evaluates `code` against the gate parameter values `env` (`n_env` of
/// them; none outside a gate body), then checks finiteness: a divide-by-zero
/// or overflowed angle must not become a NaN gate matrix. `stack` is scratch.
Real eval_param(const ExprCode& code, const Real* env, std::size_t n_env,
                std::vector<Real>& stack, const std::string& src_name) {
  stack.clear();
  for (const ExprOp& e : code) {
    switch (e.kind) {
      case ExprOp::Kind::kNum:
        stack.push_back(e.num);
        break;
      case ExprOp::Kind::kPi:
        stack.push_back(kPi);
        break;
      case ExprOp::Kind::kParam:
        if (e.param < 0 || static_cast<std::size_t>(e.param) >= n_env) {
          fail_at(src_name, e.line, e.col,
                  "unknown identifier " + quoted(e.name) + " in expression");
        }
        stack.push_back(env[e.param]);
        break;
      case ExprOp::Kind::kNeg:
        stack.back() = -stack.back();
        break;
      case ExprOp::Kind::kCall:
        if (e.fn == Fn::kUnknown) {
          fail_at(src_name, e.line, e.col, "unknown function " + quoted(e.name));
        }
        stack.back() = apply_fn(e.fn, stack.back());
        break;
      case ExprOp::Kind::kBinary: {
        const Real b = stack.back();
        stack.pop_back();
        Real& a = stack.back();
        switch (e.op) {
          case '+': a = a + b; break;
          case '-': a = a - b; break;
          case '*': a = a * b; break;
          case '/': a = a / b; break;
          default: a = std::pow(a, b); break;
        }
        break;
      }
    }
  }
  if (!std::isfinite(stack.back())) {
    fail_at(src_name, code.back().line, code.back().col, "parameter expression is not finite");
  }
  return stack.back();
}

// ---- gate set --------------------------------------------------------------

/// A qelib1 gate the importer knows without a definition.
struct Builtin {
  enum class Kind : std::uint8_t { kId, kFixed, kRx, kRy, kRz, kU1, kU2, kU3 } kind;
  FixedGate fixed;     ///< kFixed only
  std::size_t qubits;  ///< arity
  std::size_t params;
  const char* label;   ///< the parameterized gates' op label
  /// ccx / cswap: predefined composites, deliberately NOT builtins — a
  /// program's own `gate ccx ...` definition shadows the prelude (apply_named
  /// checks macros first, and define_macro does not reject the name).
  bool prelude;
};

/// The builtin or prelude gate spelled `name`, or nullptr.
const Builtin* builtin_gate(std::string_view name) {
  using K = Builtin::Kind;
  static const std::unordered_map<std::string_view, Builtin> kGates = {
      {"h", {K::kFixed, FixedGate::kH, 1, 0, "", false}},
      {"x", {K::kFixed, FixedGate::kX, 1, 0, "", false}},
      {"y", {K::kFixed, FixedGate::kY, 1, 0, "", false}},
      {"z", {K::kFixed, FixedGate::kZ, 1, 0, "", false}},
      {"s", {K::kFixed, FixedGate::kS, 1, 0, "", false}},
      {"sdg", {K::kFixed, FixedGate::kSdg, 1, 0, "", false}},
      {"t", {K::kFixed, FixedGate::kT, 1, 0, "", false}},
      {"tdg", {K::kFixed, FixedGate::kTdg, 1, 0, "", false}},
      {"id", {K::kId, FixedGate::kH, 1, 0, "", false}},
      {"cx", {K::kFixed, FixedGate::kCx, 2, 0, "", false}},
      {"CX", {K::kFixed, FixedGate::kCx, 2, 0, "", false}},
      {"cz", {K::kFixed, FixedGate::kCz, 2, 0, "", false}},
      {"swap", {K::kFixed, FixedGate::kSwap, 2, 0, "", false}},
      {"rx", {K::kRx, FixedGate::kH, 1, 1, "Rx", false}},
      {"ry", {K::kRy, FixedGate::kH, 1, 1, "Ry", false}},
      {"rz", {K::kRz, FixedGate::kH, 1, 1, "Rz", false}},
      {"u1", {K::kU1, FixedGate::kH, 1, 1, "U1", false}},
      {"u2", {K::kU2, FixedGate::kH, 1, 2, "U2", false}},
      {"u3", {K::kU3, FixedGate::kH, 1, 3, "U3", false}},
      {"U", {K::kU3, FixedGate::kH, 1, 3, "U3", false}},
      {"ccx", {K::kFixed, FixedGate::kCcx, 3, 0, "", true}},
      {"cswap", {K::kFixed, FixedGate::kCswap, 3, 0, "", true}},
  };
  const auto it = kGates.find(name);
  return it == kGates.end() ? nullptr : &it->second;
}

// ---- program structure -----------------------------------------------------

struct Reg {
  bool quantum = true;
  int base = 0;  // flat wire / cbit offset
  int size = 0;
};

/// One op inside a `gate` macro body, kept symbolic until expansion.
struct MacroOp {
  std::string_view name;        // builtin or earlier macro ("barrier" bodies are dropped at parse)
  std::vector<ExprCode> params;
  std::vector<int> args;        // indices into the macro's formal arguments
};

struct Macro {
  std::vector<std::string_view> params;
  std::vector<std::string_view> args;
  std::vector<MacroOp> body;
};

/// A gate operand after register resolution: either one qubit or a whole
/// register to broadcast over.
struct Operand {
  int base = 0;
  int size = 1;       // 1 for an indexed operand
  bool whole = false; // true when the operand names the full register
};

class Parser {
 public:
  /// `src` must outlive the parser: tokens and tables are views into it.
  Parser(std::string_view src, std::string src_name)
      : src_name_(std::move(src_name)), toks_(tokenize(src, src_name_)) {
    prescan_registers();
    circ_ = Circuit(n_qubits_ == 0 ? 1 : n_qubits_, n_cbits_);
  }

  Circuit parse() {
    expect_header();
    while (peek().kind != Tok::kEof) {
      statement();
    }
    if (n_qubits_ == 0 && circ_.size() > 0) {
      // Unreachable in practice (ops need operands, operands need qregs);
      // belt and braces for the placeholder 1-wire circuit.
      throw Error(src_name_ + ": program has operations but no qreg");
    }
    return std::move(circ_);
  }

 private:
  // -- token helpers ---------------------------------------------------------
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& next() {
    const Token& t = peek();
    if (t.kind != Tok::kEof) {
      ++pos_;
    }
    return t;
  }
  bool at_sym(std::string_view s) const { return peek().kind == Tok::kSym && peek().text == s; }
  const Token& expect_sym(const char* s) {
    if (!at_sym(s)) {
      fail_at(src_name_, peek(), std::string("expected '") + s + "', got " + describe(peek()));
    }
    return next();
  }
  Token expect_id(const char* what) {
    if (peek().kind != Tok::kId) {
      fail_at(src_name_, peek(), std::string("expected ") + what + ", got " + describe(peek()));
    }
    return next();
  }
  int expect_int(const char* what) {
    if (peek().kind != Tok::kInt) {
      fail_at(src_name_, peek(), std::string("expected ") + what + ", got " + describe(peek()));
    }
    // The lexed value is a double; casting beyond int range would be UB, so
    // range-check first (no register/index/condition meaningfully exceeds it).
    if (peek().value > 2147483647.0) {
      fail_at(src_name_, peek(), std::string("integer literal out of range for ") + what);
    }
    return static_cast<int>(next().value);
  }

  // -- pre-scan: register sizes must be known before the Circuit exists ------
  void prescan_registers() {
    for (std::size_t i = 0; i + 3 < toks_.size(); ++i) {
      const Token& kw = toks_[i];
      if (kw.kind != Tok::kId || (kw.text != "qreg" && kw.text != "creg")) {
        continue;
      }
      // qreg id [ int ] ;  — malformed declarations are diagnosed during the
      // real parse; here we only need the sizes of the well-formed ones.
      if (toks_[i + 1].kind != Tok::kId || !(toks_[i + 2].kind == Tok::kSym &&
                                             toks_[i + 2].text == "[") ||
          toks_[i + 3].kind != Tok::kInt) {
        continue;
      }
      const std::string kw_text(kw.text);
      if (toks_[i + 3].value > 2147483647.0) {
        fail_at(src_name_, toks_[i + 3], kw_text + " size out of range");
      }
      const int size = static_cast<int>(toks_[i + 3].value);
      if (size <= 0) {
        fail_at(src_name_, toks_[i + 3], kw_text + " size must be positive");
      }
      // Guard the accumulation itself: `+=` first and compare after would be
      // signed overflow (UB) for sizes near INT_MAX.
      if (kw.text == "qreg") {
        if (size > Circuit::kMaxQubits - n_qubits_) {
          fail_at(src_name_, kw, "total qreg width exceeds the IR cap of " +
                                     std::to_string(Circuit::kMaxQubits) + " qubits");
        }
        n_qubits_ += size;
      } else {
        constexpr int kMaxCbits = 1 << 20;
        if (size > kMaxCbits - n_cbits_) {
          fail_at(src_name_, kw, "total creg width exceeds " + std::to_string(kMaxCbits) +
                                     " bits");
        }
        n_cbits_ += size;
      }
    }
  }

  void expect_header() {
    const Token& kw = peek();
    if (!(kw.kind == Tok::kId && kw.text == "OPENQASM")) {
      fail_at(src_name_, kw, "expected 'OPENQASM 2.0;' header, got " + describe(kw));
    }
    next();
    const Token& ver = peek();
    if (ver.kind != Tok::kReal || ver.text != "2.0") {
      fail_at(src_name_, ver, "unsupported OPENQASM version " + quoted(ver.text) + " (only 2.0)");
    }
    next();
    expect_sym(";");
  }

  // -- statements ------------------------------------------------------------
  void statement() {
    const Token& t = peek();
    if (t.kind != Tok::kId) {
      fail_at(src_name_, t, "expected a statement, got " + describe(t));
    }
    if (t.text == "include") {
      next();
      if (peek().kind != Tok::kString) {
        fail_at(src_name_, peek(), "expected a string after 'include'");
      }
      next();  // the qelib1 gate set is built in; other includes are inert
      expect_sym(";");
      return;
    }
    if (t.text == "qreg" || t.text == "creg") {
      declare_register();
      return;
    }
    if (t.text == "gate") {
      define_macro();
      return;
    }
    if (t.text == "opaque") {
      fail_at(src_name_, t, "'opaque' gates have no body to import");
    }
    qop(/*cond_cbit=*/-1);
  }

  void declare_register() {
    const Token kw = next();  // qreg | creg
    const Token name = expect_id("a register name");
    expect_sym("[");
    const Token& size_tok = peek();
    const int size = expect_int("a register size");
    expect_sym("]");
    expect_sym(";");
    if (size <= 0) {
      fail_at(src_name_, size_tok, std::string(kw.text) + " size must be positive");
    }
    if (regs_.count(name.text) || macros_.count(name.text)) {
      fail_at(src_name_, name, "redefinition of " + quoted(name.text));
    }
    Reg r;
    r.quantum = (kw.text == "qreg");
    r.size = size;
    r.base = r.quantum ? next_qubit_ : next_cbit_;
    (r.quantum ? next_qubit_ : next_cbit_) += size;
    regs_.emplace(name.text, r);
  }

  // gate name(params)? args { body }
  void define_macro() {
    next();  // gate
    const Token name = expect_id("a gate name");
    const Builtin* shadowed = builtin_gate(name.text);
    if (regs_.count(name.text) || macros_.count(name.text) ||
        (shadowed != nullptr && !shadowed->prelude)) {
      fail_at(src_name_, name, "redefinition of " + quoted(name.text));
    }
    Macro m;
    if (at_sym("(")) {
      next();
      if (!at_sym(")")) {
        for (;;) {
          const Token p = expect_id("a parameter name");
          // 'pi' and the function names resolve to themselves inside
          // expressions; a parameter spelled that way would be silently
          // shadowed by the constant and import the wrong angle.
          if (p.text == "pi" || function_named(p.text) != Fn::kUnknown) {
            fail_at(src_name_, p, quoted(p.text) + " is reserved and cannot name a parameter");
          }
          if (std::find(m.params.begin(), m.params.end(), p.text) != m.params.end()) {
            fail_at(src_name_, p, "duplicate parameter name " + quoted(p.text));
          }
          m.params.push_back(p.text);
          if (!at_sym(",")) {
            break;
          }
          next();
        }
      }
      expect_sym(")");
    }
    for (;;) {
      const Token a = expect_id("a qubit argument name");
      // A duplicate formal would bind one name to two call-site qubits.
      if (std::find(m.args.begin(), m.args.end(), a.text) != m.args.end()) {
        fail_at(src_name_, a, "duplicate argument name " + quoted(a.text));
      }
      m.args.push_back(a.text);
      if (!at_sym(",")) {
        break;
      }
      next();
    }
    expect_sym("{");
    expr_params_ = &m.params;
    while (!at_sym("}")) {
      const Token& op_tok = peek();
      if (op_tok.kind != Tok::kId) {
        fail_at(src_name_, op_tok, "expected a gate operation in body, got " + describe(op_tok));
      }
      if (op_tok.text == "barrier") {
        // Dropped, but parsed strictly: a blind token-skip here would let
        // arbitrary garbage (including text the register prescan counts,
        // like "qreg x[2]") hide inside a body instead of being diagnosed.
        next();
        for (;;) {
          expect_id("a qubit argument");
          if (!at_sym(",")) {
            break;
          }
          next();
        }
        expect_sym(";");
        continue;
      }
      MacroOp mo;
      mo.name = op_tok.text;
      next();
      if (builtin_gate(mo.name) == nullptr && !macros_.count(mo.name)) {
        fail_at(src_name_, op_tok, "unknown gate " + quoted(mo.name) + " in body of " +
                                       quoted(name.text) +
                                       " (only builtins and earlier definitions)");
      }
      if (at_sym("(")) {
        next();
        if (!at_sym(")")) {
          for (;;) {
            mo.params.emplace_back();
            parse_expr(mo.params.back());
            if (!at_sym(",")) {
              break;
            }
            next();
          }
        }
        expect_sym(")");
      }
      for (;;) {
        const Token arg = expect_id("a qubit argument");
        const auto formal = std::find(m.args.begin(), m.args.end(), arg.text);
        if (formal == m.args.end()) {
          fail_at(src_name_, arg, quoted(arg.text) + " is not an argument of gate " +
                                      quoted(name.text));
        }
        mo.args.push_back(static_cast<int>(formal - m.args.begin()));
        if (!at_sym(",")) {
          break;
        }
        next();
      }
      expect_sym(";");
      m.body.push_back(std::move(mo));
    }
    expr_params_ = nullptr;
    next();  // }
    macros_.emplace(name.text, std::move(m));
  }

  // qop: uop | measure | reset | barrier | if (...) qop
  void qop(int cond_cbit) {
    const Token& t = peek();
    if (t.text == "if") {
      if (cond_cbit >= 0) {
        fail_at(src_name_, t, "nested 'if' conditions are not supported");
      }
      next();
      expect_sym("(");
      const Token reg = expect_id("a classical register name");
      expect_sym("==");
      const Token& val_tok = peek();
      const int val = expect_int("an integer condition value");
      expect_sym(")");
      const auto it = regs_.find(reg.text);
      if (it == regs_.end() || it->second.quantum) {
        fail_at(src_name_, reg, quoted(reg.text) + " is not a classical register");
      }
      if (it->second.size != 1) {
        fail_at(src_name_, reg,
                "conditions on multi-bit registers are not representable in the IR "
                "(got " + std::string(reg.text) + "[" + std::to_string(it->second.size) +
                    "]); use size-1 registers");
      }
      if (val != 1) {
        fail_at(src_name_, val_tok,
                "only '== 1' conditions are representable in the IR (got == " +
                    std::to_string(val) + ")");
      }
      const Token& inner = peek();
      if (inner.kind == Tok::kId &&
          (inner.text == "measure" || inner.text == "reset" || inner.text == "barrier" ||
           inner.text == "if")) {
        fail_at(src_name_, inner, quoted(inner.text) + " cannot be classically conditioned");
      }
      qop(it->second.base);
      return;
    }
    if (t.text == "measure") {
      next();
      const Operand q = operand(/*quantum=*/true);
      expect_sym("->");
      const Operand c = operand(/*quantum=*/false);
      expect_sym(";");
      if (q.size != c.size) {
        fail_at(src_name_, t, "measure operand widths differ (" + std::to_string(q.size) +
                                  " qubits -> " + std::to_string(c.size) + " bits)");
      }
      for (int j = 0; j < q.size; ++j) {
        circ_.measure(q.base + j, c.base + j);
      }
      return;
    }
    if (t.text == "reset") {
      next();
      const Operand q = operand(/*quantum=*/true);
      expect_sym(";");
      for (int j = 0; j < q.size; ++j) {
        circ_.reset(q.base + j);
      }
      return;
    }
    if (t.text == "barrier") {
      next();
      for (;;) {
        operand(/*quantum=*/true);
        if (!at_sym(",")) {
          break;
        }
        next();
      }
      expect_sym(";");
      return;
    }
    gate_application(cond_cbit);
  }

  // name (exprlist)? operand (, operand)* ;
  void gate_application(int cond_cbit) {
    const Token name = expect_id("a gate name");
    params_.clear();
    if (at_sym("(")) {
      next();
      if (!at_sym(")")) {
        for (;;) {
          parse_expr(code_);
          params_.push_back(eval_param(code_, nullptr, 0, stack_, src_name_));
          if (!at_sym(",")) {
            break;
          }
          next();
        }
      }
      expect_sym(")");
    }
    operands_.clear();
    for (;;) {
      operands_.push_back(operand(/*quantum=*/true));
      if (!at_sym(",")) {
        break;
      }
      next();
    }
    expect_sym(";");

    // Broadcast: every whole-register operand must share one size; indexed
    // operands are replicated across the broadcast.
    int bsize = 1;
    for (const auto& o : operands_) {
      if (!o.whole) {
        continue;
      }
      if (bsize != 1 && o.size != bsize) {
        fail_at(src_name_, name.line, name.col,
                "broadcast register sizes differ (" + std::to_string(bsize) + " vs " +
                    std::to_string(o.size) + ")");
      }
      bsize = o.size;
    }
    for (int j = 0; j < bsize; ++j) {
      QubitList qubits;
      for (const auto& o : operands_) {
        qubits.push_back(o.base + (o.whole ? j : 0));
      }
      apply_named(name, params_.data(), params_.size(), qubits, cond_cbit);
    }
  }

  // Resolves `id` or `id[idx]` against the declared registers.
  Operand operand(bool quantum) {
    const Token name = expect_id(quantum ? "a qubit operand" : "a classical operand");
    const auto it = regs_.find(name.text);
    if (it == regs_.end()) {
      fail_at(src_name_, name, "unknown register " + quoted(name.text));
    }
    const Reg& r = it->second;
    if (r.quantum != quantum) {
      fail_at(src_name_, name, quoted(name.text) + " is a " +
                                   (r.quantum ? "quantum" : "classical") +
                                   " register; expected the other kind here");
    }
    Operand o;
    if (at_sym("[")) {
      next();
      const Token& idx_tok = peek();
      const int idx = expect_int("a register index");
      expect_sym("]");
      if (idx < 0 || idx >= r.size) {
        fail_at(src_name_, idx_tok, "index " + std::to_string(idx) + " out of range for '" +
                                        std::string(name.text) + "[" + std::to_string(r.size) +
                                        "]'");
      }
      o.base = r.base + idx;
      o.size = 1;
      o.whole = false;
    } else {
      o.base = r.base;
      o.size = r.size;
      o.whole = r.size > 1;
    }
    return o;
  }

  // -- gate semantics --------------------------------------------------------
  void check_arity(const Token& name, std::size_t n_qubits_got, std::size_t n_qubits,
                   std::size_t n_params_got, std::size_t n_params) {
    if (n_qubits_got != n_qubits) {
      fail_at(src_name_, name, quoted(name.text) + " expects " + std::to_string(n_qubits) +
                                   " qubit(s), got " + std::to_string(n_qubits_got));
    }
    if (n_params_got != n_params) {
      fail_at(src_name_, name, quoted(name.text) + " expects " + std::to_string(n_params) +
                                   " parameter(s), got " + std::to_string(n_params_got));
    }
  }

  /// Appends the gate through `append`, re-branding the builder's operand
  /// diagnostics (ranges, duplicate qubits) with the source position.
  template <class Append>
  void emit(const Token& name, Append&& append) {
    try {
      append();
    } catch (const Error& e) {
      fail_at(src_name_, name, std::string("invalid operands: ") + e.what());
    }
  }

  void apply_named(const Token& name, const Real* p, std::size_t n_params,
                   const QubitList& qubits, int cond_cbit) {
    if (const auto it = macros_.find(name.text); it != macros_.end()) {
      expand_macro(name, it->second, p, n_params, qubits, cond_cbit);
      return;
    }
    const Builtin* b = builtin_gate(name.text);
    if (b == nullptr) {
      fail_at(src_name_, name, "unknown gate " + quoted(name.text) +
                                   " (not a builtin or defined macro)");
    }
    check_arity(name, qubits.size(), b->qubits, n_params, b->params);
    using K = Builtin::Kind;
    if (b->kind == K::kId) {
      return;  // explicit identity: semantically empty, dropped
    }
    if (b->kind == K::kFixed) {
      emit(name, [&] {
        cond_cbit >= 0 ? circ_.fixed_gate_if(cond_cbit, b->fixed, qubits)
                       : circ_.fixed_gate(b->fixed, qubits);
      });
      return;
    }
    const Matrix u = b->kind == K::kRx   ? gates::rx(p[0])
                     : b->kind == K::kRy ? gates::ry(p[0])
                     : b->kind == K::kRz ? gates::rz(p[0])
                     : b->kind == K::kU1 ? gates::phase(p[0])
                     : b->kind == K::kU2 ? gates::u3(kPi / 2.0, p[0], p[1])
                                         : gates::u3(p[0], p[1], p[2]);
    emit(name, [&] {
      cond_cbit >= 0 ? circ_.gate_if(cond_cbit, u, qubits, std::string(b->label) + "?")
                     : circ_.gate(u, qubits, b->label);
    });
  }

  void expand_macro(const Token& site, const Macro& m, const Real* params, std::size_t n_params,
                    const QubitList& qubits, int cond_cbit) {
    if (n_params != m.params.size() || qubits.size() != m.args.size()) {
      fail_at(src_name_, site, quoted(site.text) + " expects " + std::to_string(m.params.size()) +
                                   " parameter(s) and " + std::to_string(m.args.size()) +
                                   " qubit(s), got " + std::to_string(n_params) + " and " +
                                   std::to_string(qubits.size()));
    }
    // A body may name a prelude gate that a later definition shadows, so
    // `gate ccx a,b,c { ccx a,b,c; }` would otherwise expand forever.
    if (std::find(expanding_.begin(), expanding_.end(), &m) != expanding_.end()) {
      fail_at(src_name_, site, quoted(site.text) + " expands into itself");
    }
    expanding_.push_back(&m);
    for (const MacroOp& mo : m.body) {
      SmallVector<Real, 4> sub_params;
      for (const ExprCode& e : mo.params) {
        sub_params.push_back(eval_param(e, params, n_params, stack_, src_name_));
      }
      QubitList sub_qubits;
      for (const int a : mo.args) {
        sub_qubits.push_back(qubits[static_cast<std::size_t>(a)]);
      }
      Token inner = site;  // report errors at the call site
      inner.text = mo.name;
      // A conditioned macro call conditions every expanded op: bodies are
      // unitary-only, so the classical bit cannot change mid-expansion.
      apply_named(inner, sub_params.data(), sub_params.size(), sub_qubits, cond_cbit);
    }
    expanding_.pop_back();
  }

  // -- expressions (precedence climbing, emitted in postfix order) -----------
  void parse_expr(ExprCode& code) {
    code.clear();
    parse_additive(code);
  }

  void parse_additive(ExprCode& code) {
    parse_multiplicative(code);
    while (at_sym("+") || at_sym("-")) {
      const Token op = next();
      parse_multiplicative(code);
      push_binary(code, op);
    }
  }

  void parse_multiplicative(ExprCode& code) {
    parse_unary(code);
    while (at_sym("*") || at_sym("/")) {
      const Token op = next();
      parse_unary(code);
      push_binary(code, op);
    }
  }

  void parse_unary(ExprCode& code) {
    if (at_sym("-")) {
      const Token op = next();
      parse_unary(code);
      ExprOp e;
      e.kind = ExprOp::Kind::kNeg;
      e.line = op.line;
      e.col = op.col;
      code.push_back(e);
      return;
    }
    parse_power(code);
  }

  void parse_power(ExprCode& code) {
    parse_atom(code);
    if (at_sym("^")) {  // right-associative
      const Token op = next();
      parse_unary(code);
      push_binary(code, op);
    }
  }

  void parse_atom(ExprCode& code) {
    const Token& t = peek();
    ExprOp e;
    e.line = t.line;
    e.col = t.col;
    if (t.kind == Tok::kInt || t.kind == Tok::kReal) {
      next();
      e.kind = ExprOp::Kind::kNum;
      e.num = t.value;
      code.push_back(e);
      return;
    }
    if (t.kind == Tok::kId) {
      const Token id = next();
      e.name = id.text;
      if (id.text == "pi") {
        e.kind = ExprOp::Kind::kPi;
      } else if (at_sym("(")) {
        next();
        parse_additive(code);
        expect_sym(")");
        e.kind = ExprOp::Kind::kCall;
        e.fn = function_named(id.text);
      } else {
        e.kind = ExprOp::Kind::kParam;
        if (expr_params_ != nullptr) {
          const auto it = std::find(expr_params_->begin(), expr_params_->end(), id.text);
          e.param = it == expr_params_->end() ? -1 : static_cast<int>(it - expr_params_->begin());
        }
      }
      code.push_back(e);
      return;
    }
    if (t.kind == Tok::kSym && t.text == "(") {
      next();
      parse_additive(code);
      expect_sym(")");
      return;
    }
    fail_at(src_name_, t, "expected an expression, got " + describe(t));
  }

  static void push_binary(ExprCode& code, const Token& op) {
    ExprOp e;
    e.kind = ExprOp::Kind::kBinary;
    e.op = op.text[0];
    e.line = op.line;
    e.col = op.col;
    code.push_back(e);
  }

  std::string src_name_;
  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  int n_qubits_ = 0;
  int n_cbits_ = 0;
  int next_qubit_ = 0;
  int next_cbit_ = 0;
  std::unordered_map<std::string_view, Reg> regs_;
  std::unordered_map<std::string_view, Macro> macros_;
  /// Parameter names of the gate body being parsed; null at top level.
  const std::vector<std::string_view>* expr_params_ = nullptr;
  /// The macros whose expansion is in progress, outermost first.
  std::vector<const Macro*> expanding_;
  // Scratch reused across statements.
  ExprCode code_;
  std::vector<Real> params_;
  std::vector<Real> stack_;
  std::vector<Operand> operands_;
  Circuit circ_;
};

bool vector_equal_up_to_phase(const Vector& a, const Vector& b, Real tol) {
  if (a.size() != b.size()) {
    return false;
  }
  std::size_t am = 0;
  Real best = -1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i]) > best) {
      best = std::abs(a[i]);
      am = i;
    }
  }
  if (best <= tol) {
    return approx_equal(a, b, tol);
  }
  const Cplx phase = b[am] / a[am];
  if (std::abs(std::abs(phase) - 1.0) > tol) {
    return false;
  }
  return approx_equal(phase * a, b, tol);
}

}  // namespace

bool matrix_equal_up_to_phase(const Matrix& a, const Matrix& b, Real tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return false;
  }
  // Anchor the phase at A's largest entry (unitaries always have one with
  // magnitude >= 1/sqrt(dim), far above tol).
  Index ar = 0, ac = 0;
  Real best = -1.0;
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index c = 0; c < a.cols(); ++c) {
      if (std::abs(a(r, c)) > best) {
        best = std::abs(a(r, c));
        ar = r;
        ac = c;
      }
    }
  }
  if (best <= tol) {
    return a.approx_equal(b, tol);
  }
  const Cplx phase = b(ar, ac) / a(ar, ac);
  if (std::abs(std::abs(phase) - 1.0) > tol) {
    return false;
  }
  return (phase * a).approx_equal(b, tol);
}

Circuit import_qasm(const std::string& source, const std::string& source_name) {
  return Parser(source, source_name).parse();
}

Circuit import_qasm_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("import_qasm_file: cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return import_qasm(buf.str(), path);
}

Circuit strip_trailing_measurements(const Circuit& c, int* n_stripped) {
  std::size_t keep = c.size();
  while (keep > 0 && c.ops()[keep - 1].kind == OpKind::kMeasure) {
    --keep;
  }
  // The classical register survives only while a kept op still writes or
  // reads it; a circuit whose every measure was stripped is purely quantum.
  bool uses_cbits = false;
  for (std::size_t i = 0; i < keep; ++i) {
    const OpKind kind = c.ops()[i].kind;
    uses_cbits = uses_cbits || kind == OpKind::kMeasure || kind == OpKind::kCondUnitary;
  }
  Circuit out(c.n_qubits(), uses_cbits ? c.n_cbits() : 0);
  out.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    out.push_op(c.ops()[i]);  // shares the op's payload and its classification
  }
  if (n_stripped != nullptr) {
    *n_stripped = static_cast<int>(c.size() - keep);
  }
  return out;
}

bool circuits_equivalent(const Circuit& a, const Circuit& b, Real tol, std::string* why) {
  const auto mismatch = [&](const std::string& reason) {
    if (why != nullptr) {
      *why = reason;
    }
    return false;
  };
  if (a.n_qubits() != b.n_qubits()) {
    return mismatch("qubit counts differ: " + std::to_string(a.n_qubits()) + " vs " +
                    std::to_string(b.n_qubits()));
  }
  if (a.n_cbits() != b.n_cbits()) {
    return mismatch("cbit counts differ: " + std::to_string(a.n_cbits()) + " vs " +
                    std::to_string(b.n_cbits()));
  }
  if (a.size() != b.size()) {
    return mismatch("op counts differ: " + std::to_string(a.size()) + " vs " +
                    std::to_string(b.size()));
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Operation& oa = a.ops()[i];
    const Operation& ob = b.ops()[i];
    const std::string at = "op " + std::to_string(i) + " ('" + oa.label + "' vs '" + ob.label +
                           "'): ";
    if (oa.kind != ob.kind) {
      return mismatch(at + "kinds differ");
    }
    if (oa.qubits != ob.qubits) {
      return mismatch(at + "qubit lists differ");
    }
    if (oa.cbit != ob.cbit) {
      return mismatch(at + "classical bits differ");
    }
    switch (oa.kind) {
      case OpKind::kUnitary:
      case OpKind::kCondUnitary:
        if (!matrix_equal_up_to_phase(oa.matrix(), ob.matrix(), tol)) {
          return mismatch(at + "unitaries differ beyond a global phase");
        }
        break;
      case OpKind::kInitialize:
        if (!vector_equal_up_to_phase(oa.init_state(), ob.init_state(), tol)) {
          return mismatch(at + "initialize states differ beyond a global phase");
        }
        break;
      case OpKind::kMeasure:
      case OpKind::kReset:
        break;
    }
  }
  return true;
}

}  // namespace qcut
