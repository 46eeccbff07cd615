#include "qcut/sim/qasm_import.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
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
  std::string text;  // spelling (symbol text for kSym)
  Real value = 0.0;  // numeric value for kInt / kReal
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

std::string describe(const Token& t) {
  switch (t.kind) {
    case Tok::kEof:
      return "end of input";
    case Tok::kString:
      return "string \"" + t.text + "\"";
    default:
      return "'" + t.text + "'";
  }
}

// Splits the whole source into tokens up front; the parser then walks the
// vector (one-token lookahead suffices for this grammar, but the macro
// pre-scan is simpler on a materialized stream).
std::vector<Token> tokenize(const std::string& src, const std::string& src_name) {
  std::vector<Token> out;
  int line = 1;
  int col = 1;
  // Externally authored files may lead with a UTF-8 BOM; it is whitespace as
  // far as the grammar is concerned.
  std::size_t i = (src.size() >= 3 && src[0] == '\xEF' && src[1] == '\xBB' && src[2] == '\xBF')
                      ? 3
                      : 0;
  const std::size_t n = src.size();
  auto advance = [&](std::size_t k) {
    for (std::size_t j = 0; j < k; ++j) {
      if (src[i + j] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    i += k;
  };
  while (i < n) {
    const char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') {
        advance(1);
      }
      continue;
    }
    Token t;
    t.line = line;
    t.col = col;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(src[j])) || src[j] == '_')) {
        ++j;
      }
      t.kind = Tok::kId;
      t.text = src.substr(i, j - i);
      advance(j - i);
      out.push_back(std::move(t));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t j = i;
      bool is_real = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) {
        ++j;
      }
      if (j < n && src[j] == '.') {
        is_real = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) {
          ++j;
        }
      }
      if (j < n && (src[j] == 'e' || src[j] == 'E')) {
        std::size_t k = j + 1;
        if (k < n && (src[k] == '+' || src[k] == '-')) {
          ++k;
        }
        if (k < n && std::isdigit(static_cast<unsigned char>(src[k]))) {
          is_real = true;
          j = k;
          while (j < n && std::isdigit(static_cast<unsigned char>(src[j]))) {
            ++j;
          }
        }
      }
      t.kind = is_real ? Tok::kReal : Tok::kInt;
      t.text = src.substr(i, j - i);
      // strtod never fails on this spelling and is exact for what it can
      // represent; the C locale-independence concern does not arise because
      // the spelling always uses '.'.
      t.value = std::strtod(t.text.c_str(), nullptr);
      advance(j - i);
      out.push_back(std::move(t));
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
      t.kind = Tok::kString;
      t.text = src.substr(i + 1, j - i - 1);
      advance(j - i + 1);
      out.push_back(std::move(t));
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      t.kind = Tok::kSym;
      t.text = "->";
      advance(2);
      out.push_back(std::move(t));
      continue;
    }
    if (c == '=' && i + 1 < n && src[i + 1] == '=') {
      t.kind = Tok::kSym;
      t.text = "==";
      advance(2);
      out.push_back(std::move(t));
      continue;
    }
    if (std::string(";,()[]{}+-*/^").find(c) != std::string::npos) {
      t.kind = Tok::kSym;
      t.text = std::string(1, c);
      advance(1);
      out.push_back(std::move(t));
      continue;
    }
    fail_at(src_name, line, col, std::string("unexpected character '") + c + "'");
  }
  Token eof;
  eof.kind = Tok::kEof;
  eof.text = "<eof>";
  eof.line = line;
  eof.col = col;
  out.push_back(std::move(eof));
  return out;
}

// ---- constant-expression AST ----------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind { kNum, kPi, kParam, kNeg, kBinary, kCall } kind = Kind::kNum;
  Real num = 0.0;       // kNum
  std::string name;     // kParam (parameter reference) / kCall (function name)
  char op = 0;          // kBinary: + - * / ^
  ExprPtr lhs, rhs;     // kBinary (lhs,rhs) / kNeg,kCall (lhs)
  int line = 0, col = 0;
};

Real eval_expr(const Expr& e, const std::map<std::string, Real>& env,
               const std::string& src_name);

/// eval_expr + finiteness check: a divide-by-zero or overflowed angle must
/// not become a NaN gate matrix.
Real eval_param(const Expr& e, const std::map<std::string, Real>& env,
                const std::string& src_name) {
  const Real v = eval_expr(e, env, src_name);
  if (!std::isfinite(v)) {
    fail_at(src_name, e.line, e.col, "parameter expression is not finite");
  }
  return v;
}

Real eval_expr(const Expr& e, const std::map<std::string, Real>& env,
               const std::string& src_name) {
  switch (e.kind) {
    case Expr::Kind::kNum:
      return e.num;
    case Expr::Kind::kPi:
      return kPi;
    case Expr::Kind::kParam: {
      const auto it = env.find(e.name);
      if (it == env.end()) {
        fail_at(src_name, e.line, e.col, "unknown identifier '" + e.name + "' in expression");
      }
      return it->second;
    }
    case Expr::Kind::kNeg:
      return -eval_expr(*e.lhs, env, src_name);
    case Expr::Kind::kCall: {
      const Real x = eval_expr(*e.lhs, env, src_name);
      if (e.name == "sin") return std::sin(x);
      if (e.name == "cos") return std::cos(x);
      if (e.name == "tan") return std::tan(x);
      if (e.name == "exp") return std::exp(x);
      if (e.name == "ln") return std::log(x);
      if (e.name == "sqrt") return std::sqrt(x);
      fail_at(src_name, e.line, e.col, "unknown function '" + e.name + "'");
    }
    case Expr::Kind::kBinary: {
      const Real a = eval_expr(*e.lhs, env, src_name);
      const Real b = eval_expr(*e.rhs, env, src_name);
      switch (e.op) {
        case '+': return a + b;
        case '-': return a - b;
        case '*': return a * b;
        case '/': return a / b;
        case '^': return std::pow(a, b);
      }
      break;
    }
  }
  fail_at(src_name, e.line, e.col, "malformed expression");
}

// ---- program structure -----------------------------------------------------

struct Reg {
  bool quantum = true;
  int base = 0;  // flat wire / cbit offset
  int size = 0;
};

/// One op inside a `gate` macro body, kept symbolic until expansion.
struct MacroOp {
  std::string name;  // builtin or earlier macro ("barrier" bodies are dropped at parse)
  std::vector<ExprPtr> params;
  std::vector<std::string> args;  // formal argument names
  int line = 0, col = 0;
};

struct Macro {
  std::vector<std::string> params;
  std::vector<std::string> args;
  std::vector<MacroOp> body;
};

/// A gate operand after register resolution: either one qubit or a whole
/// register to broadcast over.
struct Operand {
  int base = 0;
  int size = 1;       // 1 for an indexed operand
  bool whole = false; // true when the operand names the full register
  int line = 0, col = 0;
};

class Parser {
 public:
  Parser(const std::string& src, std::string src_name)
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
    return circ_;
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
  bool at_sym(const char* s) const { return peek().kind == Tok::kSym && peek().text == s; }
  bool at_id(const char* s) const { return peek().kind == Tok::kId && peek().text == s; }
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
      if (toks_[i + 3].value > 2147483647.0) {
        fail_at(src_name_, toks_[i + 3], kw.text + " size out of range");
      }
      const int size = static_cast<int>(toks_[i + 3].value);
      if (size <= 0) {
        fail_at(src_name_, toks_[i + 3], kw.text + " size must be positive");
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
      fail_at(src_name_, ver, "unsupported OPENQASM version '" + ver.text + "' (only 2.0)");
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
      fail_at(src_name_, size_tok, kw.text + " size must be positive");
    }
    if (regs_.count(name.text) || macros_.count(name.text)) {
      fail_at(src_name_, name, "redefinition of '" + name.text + "'");
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
    if (regs_.count(name.text) || macros_.count(name.text) || is_builtin(name.text)) {
      fail_at(src_name_, name, "redefinition of '" + name.text + "'");
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
          for (const char* reserved : {"pi", "sin", "cos", "tan", "exp", "ln", "sqrt"}) {
            if (p.text == reserved) {
              fail_at(src_name_, p, "'" + p.text + "' is reserved and cannot name a parameter");
            }
          }
          for (const auto& seen : m.params) {
            if (seen == p.text) {
              fail_at(src_name_, p, "duplicate parameter name '" + p.text + "'");
            }
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
      // A duplicate formal would make qmap silently drop all but the last
      // call-site qubit bound to it.
      for (const auto& seen : m.args) {
        if (seen == a.text) {
          fail_at(src_name_, a, "duplicate argument name '" + a.text + "'");
        }
      }
      m.args.push_back(a.text);
      if (!at_sym(",")) {
        break;
      }
      next();
    }
    expect_sym("{");
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
      mo.line = op_tok.line;
      mo.col = op_tok.col;
      next();
      if (!is_builtin(mo.name) && !is_prelude(mo.name) && !macros_.count(mo.name)) {
        fail_at(src_name_, op_tok, "unknown gate '" + mo.name + "' in body of '" + name.text +
                                       "' (only builtins and earlier definitions)");
      }
      if (at_sym("(")) {
        next();
        if (!at_sym(")")) {
          for (;;) {
            mo.params.push_back(parse_expr());
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
        bool known = false;
        for (const auto& a : m.args) {
          known = known || (a == arg.text);
        }
        if (!known) {
          fail_at(src_name_, arg, "'" + arg.text + "' is not an argument of gate '" +
                                      name.text + "'");
        }
        mo.args.push_back(arg.text);
        if (!at_sym(",")) {
          break;
        }
        next();
      }
      expect_sym(";");
      m.body.push_back(std::move(mo));
    }
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
        fail_at(src_name_, reg, "'" + reg.text + "' is not a classical register");
      }
      if (it->second.size != 1) {
        fail_at(src_name_, reg,
                "conditions on multi-bit registers are not representable in the IR "
                "(got " + reg.text + "[" + std::to_string(it->second.size) + "]); "
                "use size-1 registers");
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
        fail_at(src_name_, inner, "'" + inner.text + "' cannot be classically conditioned");
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
    std::vector<Real> params;
    if (at_sym("(")) {
      next();
      if (!at_sym(")")) {
        for (;;) {
          const ExprPtr e = parse_expr();
          params.push_back(eval_param(*e, {}, src_name_));
          if (!at_sym(",")) {
            break;
          }
          next();
        }
      }
      expect_sym(")");
    }
    std::vector<Operand> ops;
    for (;;) {
      ops.push_back(operand(/*quantum=*/true));
      if (!at_sym(",")) {
        break;
      }
      next();
    }
    expect_sym(";");

    // Broadcast: every whole-register operand must share one size; indexed
    // operands are replicated across the broadcast.
    int bsize = 1;
    for (const auto& o : ops) {
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
      std::vector<int> qubits;
      qubits.reserve(ops.size());
      for (const auto& o : ops) {
        qubits.push_back(o.base + (o.whole ? j : 0));
      }
      apply_named(name, params, qubits, cond_cbit);
    }
  }

  // Resolves `id` or `id[idx]` against the declared registers.
  Operand operand(bool quantum) {
    const Token name = expect_id(quantum ? "a qubit operand" : "a classical operand");
    const auto it = regs_.find(name.text);
    if (it == regs_.end()) {
      fail_at(src_name_, name, "unknown register '" + name.text + "'");
    }
    const Reg& r = it->second;
    if (r.quantum != quantum) {
      fail_at(src_name_, name, "'" + name.text + "' is a " +
                                   (r.quantum ? "quantum" : "classical") +
                                   " register; expected the other kind here");
    }
    Operand o;
    o.line = name.line;
    o.col = name.col;
    if (at_sym("[")) {
      next();
      const Token& idx_tok = peek();
      const int idx = expect_int("a register index");
      expect_sym("]");
      if (idx < 0 || idx >= r.size) {
        fail_at(src_name_, idx_tok, "index " + std::to_string(idx) + " out of range for '" +
                                        name.text + "[" + std::to_string(r.size) + "]'");
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
  static bool is_builtin(const std::string& name) {
    static const char* kNames[] = {"h",  "x",  "y",  "z",    "s",  "sdg", "t",  "tdg", "id",
                                   "cx", "CX", "cz", "swap", "rx", "ry",  "rz", "u1",  "u2",
                                   "u3", "U"};
    for (const char* n : kNames) {
      if (name == n) {
        return true;
      }
    }
    return false;
  }

  /// qelib1 composites the importer predefines so corpus circuits need no
  /// in-file macro bodies for them. Deliberately NOT builtins: a program's
  /// own `gate ccx ...` definition shadows the prelude (apply_named checks
  /// macros first, and define_macro does not reject the name).
  static bool is_prelude(const std::string& name) {
    return name == "ccx" || name == "cswap";
  }

  void check_arity(const Token& name, const std::vector<int>& qubits, std::size_t n_qubits,
                   const std::vector<Real>& params, std::size_t n_params) {
    if (qubits.size() != n_qubits) {
      fail_at(src_name_, name, "'" + name.text + "' expects " + std::to_string(n_qubits) +
                                   " qubit(s), got " + std::to_string(qubits.size()));
    }
    if (params.size() != n_params) {
      fail_at(src_name_, name, "'" + name.text + "' expects " + std::to_string(n_params) +
                                   " parameter(s), got " + std::to_string(params.size()));
    }
  }

  void emit(const Token& name, const Matrix& u, const std::vector<int>& qubits,
            std::string label, int cond_cbit) {
    // The builder validates ranges and duplicate qubits; re-brand its
    // diagnostics with the source position.
    try {
      if (cond_cbit >= 0) {
        circ_.gate_if(cond_cbit, u, qubits, std::move(label) + "?");
      } else {
        circ_.gate(u, qubits, std::move(label));
      }
    } catch (const Error& e) {
      fail_at(src_name_, name, std::string("invalid operands: ") + e.what());
    }
  }

  void apply_named(const Token& name, const std::vector<Real>& p, const std::vector<int>& qubits,
                   int cond_cbit) {
    const std::string& g = name.text;
    if (const auto it = macros_.find(g); it != macros_.end()) {
      expand_macro(name, it->second, p, qubits, cond_cbit);
      return;
    }
    if (g == "id") {
      check_arity(name, qubits, 1, p, 0);
      return;  // explicit identity: semantically empty, dropped
    }
    if (g == "ccx") {
      check_arity(name, qubits, 3, p, 0);
      emit(name, gates::ccx(), qubits, "CCX", cond_cbit);
      return;
    }
    if (g == "cswap") {
      check_arity(name, qubits, 3, p, 0);
      emit(name, gates::cswap(), qubits, "CSWAP", cond_cbit);
      return;
    }
    struct Named {
      const char* name;
      const Matrix& (*fn)();
      const char* label;
      std::size_t arity;
    };
    static const Named kFixed[] = {
        {"h", gates::h, "H", 1},        {"x", gates::x, "X", 1},
        {"y", gates::y, "Y", 1},        {"z", gates::z, "Z", 1},
        {"s", gates::s, "S", 1},        {"sdg", gates::sdg, "Sdg", 1},
        {"t", gates::t, "T", 1},        {"tdg", gates::tdg, "Tdg", 1},
        {"cx", gates::cx, "CX", 2},     {"CX", gates::cx, "CX", 2},
        {"cz", gates::cz, "CZ", 2},     {"swap", gates::swap, "SWAP", 2},
    };
    for (const auto& f : kFixed) {
      if (g == f.name) {
        check_arity(name, qubits, f.arity, p, 0);
        emit(name, f.fn(), qubits, f.label, cond_cbit);
        return;
      }
    }
    if (g == "rx" || g == "ry" || g == "rz" || g == "u1") {
      check_arity(name, qubits, 1, p, 1);
      if (g == "rx") emit(name, gates::rx(p[0]), qubits, "Rx", cond_cbit);
      if (g == "ry") emit(name, gates::ry(p[0]), qubits, "Ry", cond_cbit);
      if (g == "rz") emit(name, gates::rz(p[0]), qubits, "Rz", cond_cbit);
      if (g == "u1") emit(name, gates::phase(p[0]), qubits, "U1", cond_cbit);
      return;
    }
    if (g == "u2") {
      check_arity(name, qubits, 1, p, 2);
      emit(name, gates::u3(kPi / 2.0, p[0], p[1]), qubits, "U2", cond_cbit);
      return;
    }
    if (g == "u3" || g == "U") {
      check_arity(name, qubits, 1, p, 3);
      emit(name, gates::u3(p[0], p[1], p[2]), qubits, "U3", cond_cbit);
      return;
    }
    fail_at(src_name_, name, "unknown gate '" + g + "' (not a builtin or defined macro)");
  }

  void expand_macro(const Token& site, const Macro& m, const std::vector<Real>& params,
                    const std::vector<int>& qubits, int cond_cbit) {
    if (params.size() != m.params.size() || qubits.size() != m.args.size()) {
      fail_at(src_name_, site, "'" + site.text + "' expects " + std::to_string(m.params.size()) +
                                   " parameter(s) and " + std::to_string(m.args.size()) +
                                   " qubit(s), got " + std::to_string(params.size()) + " and " +
                                   std::to_string(qubits.size()));
    }
    std::map<std::string, Real> env;
    std::map<std::string, int> qmap;
    for (std::size_t i = 0; i < m.params.size(); ++i) {
      env[m.params[i]] = params[i];
    }
    for (std::size_t i = 0; i < m.args.size(); ++i) {
      qmap[m.args[i]] = qubits[i];
    }
    for (const auto& mo : m.body) {
      std::vector<Real> sub_params;
      sub_params.reserve(mo.params.size());
      for (const auto& e : mo.params) {
        sub_params.push_back(eval_param(*e, env, src_name_));
      }
      std::vector<int> sub_qubits;
      sub_qubits.reserve(mo.args.size());
      for (const auto& a : mo.args) {
        sub_qubits.push_back(qmap.at(a));
      }
      Token inner = site;  // report errors at the call site
      inner.text = mo.name;
      // A conditioned macro call conditions every expanded op: bodies are
      // unitary-only, so the classical bit cannot change mid-expansion.
      apply_named(inner, sub_params, sub_qubits, cond_cbit);
    }
  }

  // -- expressions (precedence climbing) ------------------------------------
  ExprPtr parse_expr() { return parse_additive(); }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (at_sym("+") || at_sym("-")) {
      const Token op = next();
      ExprPtr rhs = parse_multiplicative();
      lhs = make_binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (at_sym("*") || at_sym("/")) {
      const Token op = next();
      ExprPtr rhs = parse_unary();
      lhs = make_binary(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    if (at_sym("-")) {
      const Token op = next();
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kNeg;
      e->lhs = parse_unary();
      e->line = op.line;
      e->col = op.col;
      return e;
    }
    return parse_power();
  }

  ExprPtr parse_power() {
    ExprPtr base = parse_atom();
    if (at_sym("^")) {  // right-associative
      const Token op = next();
      ExprPtr exp = parse_unary();
      base = make_binary(op, std::move(base), std::move(exp));
    }
    return base;
  }

  ExprPtr parse_atom() {
    const Token& t = peek();
    auto e = std::make_unique<Expr>();
    e->line = t.line;
    e->col = t.col;
    if (t.kind == Tok::kInt || t.kind == Tok::kReal) {
      next();
      e->kind = Expr::Kind::kNum;
      e->num = t.value;
      return e;
    }
    if (t.kind == Tok::kId) {
      const Token id = next();
      if (id.text == "pi") {
        e->kind = Expr::Kind::kPi;
        return e;
      }
      if (at_sym("(")) {
        next();
        e->kind = Expr::Kind::kCall;
        e->name = id.text;
        e->lhs = parse_expr();
        expect_sym(")");
        return e;
      }
      e->kind = Expr::Kind::kParam;
      e->name = id.text;
      return e;
    }
    if (t.kind == Tok::kSym && t.text == "(") {
      next();
      ExprPtr inner = parse_expr();
      expect_sym(")");
      return inner;
    }
    fail_at(src_name_, t, "expected an expression, got " + describe(t));
  }

  static ExprPtr make_binary(const Token& op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kBinary;
    e->op = op.text[0];
    e->lhs = std::move(lhs);
    e->rhs = std::move(rhs);
    e->line = op.line;
    e->col = op.col;
    return e;
  }

  std::string src_name_;
  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  int n_qubits_ = 0;
  int n_cbits_ = 0;
  int next_qubit_ = 0;
  int next_cbit_ = 0;
  std::map<std::string, Reg> regs_;
  std::map<std::string, Macro> macros_;
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
  for (std::size_t i = 0; i < keep; ++i) {
    const Operation& op = c.ops()[i];
    switch (op.kind) {
      case OpKind::kUnitary:
        out.gate(op.matrix(), op.qubits, op.label);
        break;
      case OpKind::kCondUnitary:
        out.gate_if(op.cbit, op.matrix(), op.qubits, op.label);
        break;
      case OpKind::kMeasure:
        out.measure(op.qubits[0], op.cbit);
        break;
      case OpKind::kReset:
        out.reset(op.qubits[0]);
        break;
      case OpKind::kInitialize:
        out.initialize(op.qubits, op.init_state(), op.label);
        break;
    }
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
