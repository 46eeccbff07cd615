// OpenQASM 2.0 import: parser subset, diagnostics, and the round-trip
// properties gating the corpus — import(export(C)) ≡ C per op, and
// export(import(P)) re-imports stably for every corpus program.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "qcut/common/error.hpp"
#include "qcut/linalg/random.hpp"
#include "qcut/sim/executor.hpp"
#include "qcut/sim/gates.hpp"
#include "qcut/sim/qasm.hpp"
#include "qcut/sim/qasm_import.hpp"
#include "qcut/svc/cache.hpp"
#include "test_helpers.hpp"

#ifndef QCUT_QASM_CORPUS_DIR
#define QCUT_QASM_CORPUS_DIR "tests/qasm_corpus"
#endif

namespace qcut {
namespace {

using testing::expect_matrix_near;

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(QCUT_QASM_CORPUS_DIR)) {
    if (e.path().extension() == ".qasm") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Random builder circuit over the full importable op set: named gates,
/// measure, reset, and classically controlled single-qubit gates.
Circuit random_importable_circuit(int n_qubits, int n_cbits, int depth, Rng& rng) {
  Circuit c(n_qubits, n_cbits);
  int measured = 0;
  for (int d = 0; d < depth; ++d) {
    const int q = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n_qubits)));
    switch (rng.uniform_u64(10)) {
      case 0:
        c.h(q);
        break;
      case 1:
        c.rz(q, rng.uniform() * 4.0 - 2.0);
        break;
      case 2:
        c.ry(q, rng.uniform() * 4.0 - 2.0);
        break;
      case 3:
        c.gate(haar_unitary(2, rng), {q}, "U1q");
        break;
      case 4:
        if (n_qubits >= 2) {
          const int p = (q + 1) % n_qubits;
          rng.bernoulli(0.5) ? c.cx(q, p) : c.cz(q, p);
        }
        break;
      case 5:
        if (n_qubits >= 2) {
          c.swap_gate(q, (q + 1) % n_qubits);
        }
        break;
      case 6:
        if (measured < n_cbits) {
          c.measure(q, measured++);
        }
        break;
      case 7:
        if (measured > 0) {
          rng.bernoulli(0.5) ? c.x_if(measured - 1, q) : c.z_if(measured - 1, q);
        }
        break;
      case 8:
        c.reset(q);
        break;
      default:
        c.t(q);
        break;
    }
  }
  return c;
}

// ---- parser basics ---------------------------------------------------------

TEST(QasmImport, ParsesRegistersAndNamedGates) {
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "qreg q[3];\n"
      "creg c[2];\n"
      "h q[0];\n"
      "cx q[0],q[1];\n"
      "rz(pi/2) q[2];\n"
      "measure q[0] -> c[1];\n");
  EXPECT_EQ(c.n_qubits(), 3);
  EXPECT_EQ(c.n_cbits(), 2);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c.ops()[0].label, "H");
  expect_matrix_near(c.ops()[0].matrix(), gates::h(), 1e-15);
  EXPECT_EQ(c.ops()[1].label, "CX");
  EXPECT_EQ(c.ops()[1].qubits, (std::vector<int>{0, 1}));
  expect_matrix_near(c.ops()[2].matrix(), gates::rz(kPi / 2.0), 1e-15);
  EXPECT_EQ(c.ops()[3].kind, OpKind::kMeasure);
  EXPECT_EQ(c.ops()[3].qubits, (std::vector<int>{0}));
  EXPECT_EQ(c.ops()[3].cbit, 1);
}

TEST(QasmImport, MultipleRegistersMapToFlatOffsets) {
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\n"
      "qreg a[2];\nqreg b[2];\ncreg m[1];\ncreg n[2];\n"
      "x b[1];\ncx a[1],b[0];\nmeasure b[0] -> n[1];\n");
  EXPECT_EQ(c.n_qubits(), 4);
  EXPECT_EQ(c.n_cbits(), 3);
  EXPECT_EQ(c.ops()[0].qubits, (std::vector<int>{3}));
  EXPECT_EQ(c.ops()[1].qubits, (std::vector<int>{1, 2}));
  EXPECT_EQ(c.ops()[2].cbit, 2);
}

TEST(QasmImport, BroadcastsWholeRegisterOperands) {
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\n"
      "qreg q[3];\nqreg r[3];\ncreg c[3];\n"
      "h q;\n"          // 3 ops
      "cx q,r;\n"       // 3 ops, pairwise
      "cx q[0],r;\n"    // 3 ops, fixed control
      "measure q -> c;\n");
  ASSERT_EQ(c.size(), 12u);
  EXPECT_EQ(c.ops()[4].qubits, (std::vector<int>{1, 4}));
  EXPECT_EQ(c.ops()[7].qubits, (std::vector<int>{0, 4}));
  EXPECT_EQ(c.ops()[10].kind, OpKind::kMeasure);
  EXPECT_EQ(c.ops()[10].qubits, (std::vector<int>{1}));
  EXPECT_EQ(c.ops()[10].cbit, 1);
}

TEST(QasmImport, PreludeCompositesNeedNoInFileDefinitions) {
  // ccx / cswap are predefined qelib1 composites: each imports as ONE 3q
  // permutation op, with no `gate ...` body in the program.
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\n"
      "include \"qelib1.inc\";\n"
      "qreg q[3];\n"
      "ccx q[0],q[1],q[2];\n"
      "cswap q[2],q[0],q[1];\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ops()[0].label, "CCX");
  expect_matrix_near(c.ops()[0].matrix(), gates::ccx(), 1e-15);
  EXPECT_EQ(c.ops()[0].qubits, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(c.ops()[0].gclass().structure, GateStructure::kPermutation);
  EXPECT_EQ(c.ops()[1].label, "CSWAP");
  expect_matrix_near(c.ops()[1].matrix(), gates::cswap(), 1e-15);

  // Semantics: |110⟩ --ccx--> |111⟩; Toffoli arity is enforced.
  Statevector sv(3);
  sv.apply(gates::x(), {0}, classify_gate(gates::x()));
  sv.apply(gates::x(), {1}, classify_gate(gates::x()));
  sv.apply(c.ops()[0].matrix(), c.ops()[0].qubits, c.ops()[0].gclass());
  EXPECT_NEAR(std::abs(sv.amplitudes()[7]), 1.0, 1e-12);
  EXPECT_THROW(import_qasm("OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1];\n"), Error);

  // And they round-trip through the exporter by name.
  const Circuit back = import_qasm(to_qasm(c));
  std::string why;
  EXPECT_TRUE(circuits_equivalent(c, back, 1e-12, &why)) << why;
}

TEST(QasmImport, InFileDefinitionsShadowThePrelude) {
  // A program's own `gate ccx ...` wins over the prelude: the application
  // expands the macro body instead of emitting the 3q composite. ccx_adder
  // in the corpus relies on exactly this.
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\n"
      "gate ccx a,b,c { h c; cx a,b; }\n"
      "qreg q[3];\n"
      "ccx q[0],q[1],q[2];\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ops()[0].label, "H");
  EXPECT_EQ(c.ops()[1].label, "CX");
}

TEST(QasmImport, PreludeShadowThatExpandsIntoItselfIsDiagnosed) {
  // A body may name the prelude ccx/cswap, and a definition may shadow
  // them, so a definition can reach itself: diagnosed, not a stack overflow.
  for (const char* src : {"OPENQASM 2.0;\ngate ccx a,b,c { ccx a,b,c; }\nqreg q[3];\n"
                          "ccx q[0],q[1],q[2];\n",
                          "OPENQASM 2.0;\ngate ccx a,b,c { cswap a,b,c; }\n"
                          "gate cswap a,b,c { ccx a,b,c; }\nqreg q[3];\ncswap q[0],q[1],q[2];\n"}) {
    try {
      import_qasm(src, "<loop>");
      ADD_FAILURE() << "imported a self-expanding gate";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("expands into itself"), std::string::npos) << e.what();
    }
  }
}

TEST(QasmImport, PreludeCompositesWorkInsideMacroBodies) {
  // qelib1's majority gate, written against the prelude Toffoli.
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\n"
      "gate majority a,b,c { cx c,b; cx c,a; ccx a,b,c; }\n"
      "qreg q[3];\n"
      "majority q[0],q[1],q[2];\n");
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.ops()[2].label, "CCX");
  EXPECT_EQ(c.ops()[2].qubits, (std::vector<int>{0, 1, 2}));
}

TEST(QasmImport, GateMacrosExpandWithParameterSubstitution) {
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\n"
      "gate foo(t) a,b { ry(t) a; cx a,b; ry(-t/2) b; }\n"
      "qreg q[2];\n"
      "foo(pi/3) q[1],q[0];\n");
  ASSERT_EQ(c.size(), 3u);
  expect_matrix_near(c.ops()[0].matrix(), gates::ry(kPi / 3.0), 1e-15);
  EXPECT_EQ(c.ops()[0].qubits, (std::vector<int>{1}));
  EXPECT_EQ(c.ops()[1].qubits, (std::vector<int>{1, 0}));
  expect_matrix_near(c.ops()[2].matrix(), gates::ry(-kPi / 6.0), 1e-15);
}

TEST(QasmImport, ConditionalTwoQubitGatesRoundTrip) {
  // Regression: conditioned named two-qubit gates import with a '?' label
  // suffix and must still export through the named-gate branch.
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\nqreg q[3];\ncreg t[1];\n"
      "measure q[0] -> t[0];\n"
      "if (t == 1) cx q[1],q[2];\nif (t == 1) swap q[0],q[2];\n");
  std::string exported;
  ASSERT_NO_THROW(exported = to_qasm(c));
  EXPECT_NE(exported.find("if (c0 == 1) cx q[1],q[2];"), std::string::npos) << exported;
  EXPECT_NE(exported.find("if (c0 == 1) swap q[0],q[2];"), std::string::npos) << exported;
  std::string why;
  EXPECT_TRUE(circuits_equivalent(c, import_qasm(exported), 1e-12, &why)) << why;
}

TEST(QasmImport, ConditionalGatesMapToCondUnitary) {
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\n"
      "qreg q[2];\ncreg c0[1];\ncreg c1[1];\n"
      "measure q[0] -> c1[0];\n"
      "if (c1 == 1) x q[1];\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ops()[1].kind, OpKind::kCondUnitary);
  EXPECT_EQ(c.ops()[1].cbit, 1);
  expect_matrix_near(c.ops()[1].matrix(), gates::x(), 1e-15);
}

TEST(QasmImport, BarrierAndIdAreDropped) {
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\n"
      "qreg q[2];\n"
      "h q[0];\nbarrier q;\nid q[1];\nbarrier q[0],q[1];\ncx q[0],q[1];\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ops()[0].label, "H");
  EXPECT_EQ(c.ops()[1].label, "CX");
}

TEST(QasmImport, ConstantExpressionsEvaluate) {
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\nqreg q[1];\n"
      "rx(3*pi/4) q[0];\n"
      "ry(-pi/8+pi/16) q[0];\n"
      "rz(pi^2/10) q[0];\n"
      "rx(sqrt(2)/2) q[0];\n"
      "ry(sin(pi/6)) q[0];\n");
  expect_matrix_near(c.ops()[0].matrix(), gates::rx(3.0 * kPi / 4.0), 1e-15);
  expect_matrix_near(c.ops()[1].matrix(), gates::ry(-kPi / 8.0 + kPi / 16.0), 1e-15);
  expect_matrix_near(c.ops()[2].matrix(), gates::rz(kPi * kPi / 10.0), 1e-15);
  expect_matrix_near(c.ops()[3].matrix(), gates::rx(std::sqrt(2.0) / 2.0), 1e-15);
  expect_matrix_near(c.ops()[4].matrix(), gates::ry(std::sin(kPi / 6.0)), 1e-15);
}

TEST(QasmImport, SkipsUtf8ByteOrderMark) {
  const Circuit c = import_qasm("\xEF\xBB\xBFOPENQASM 2.0;\nqreg q[1];\nh q[0];\n");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.ops()[0].label, "H");
}

TEST(QasmImport, SemanticsMatchExecutor) {
  // The imported GHZ-3 must have the GHZ correlations, not just the op list.
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n");
  EXPECT_NEAR(exact_expectation_pauli(c, "XXX"), 1.0, 1e-12);
  EXPECT_NEAR(exact_expectation_pauli(c, "ZZI"), 1.0, 1e-12);
  EXPECT_NEAR(exact_expectation_pauli(c, "ZII"), 0.0, 1e-12);
}

// ---- diagnostics -----------------------------------------------------------

void expect_rejects(const std::string& src, const std::string& needle) {
  try {
    import_qasm(src);
    FAIL() << "expected rejection containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST(QasmImport, DiagnosticsCarryLineAndColumn) {
  try {
    import_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[5];\n");
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    // The bad index sits at line 3, column 5.
    EXPECT_NE(std::string(e.what()).find("<qasm>:3:5"), std::string::npos) << e.what();
  }
}

TEST(QasmImport, RejectsOutsideTheSubset) {
  expect_rejects("OPENQASM 3.0;\nqreg q[1];\n", "version");
  expect_rejects("qreg q[1];\n", "OPENQASM");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n", "unknown gate");
  expect_rejects("OPENQASM 2.0;\nqreg q[2];\nh q[3];\n", "out of range");
  expect_rejects("OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];\n", "invalid operands");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\nrx() q[0];\n", "1 parameter");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\nrx(0.5,0.5) q[0];\n", "1 parameter");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\ncx q[0];\n", "2 qubit");
  expect_rejects("OPENQASM 2.0;\nopaque magic a;\n", "opaque");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\nh r[0];\n", "unknown register");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\nqreg q[2];\n", "redefinition");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\nh q[0]\n", "expected ';'");
  expect_rejects("OPENQASM 2.0;\nqreg q[63];\n", "exceeds the IR cap");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\ncreg c[2];\nif (c == 1) x q[0];\n",
                 "multi-bit");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 0) x q[0];\n",
                 "only '== 1'");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif (c == 1) measure q[0] -> c[0];\n",
                 "cannot be classically conditioned");
  expect_rejects("OPENQASM 2.0;\nqreg q[2];\nqreg r[3];\ncx q,r;\n", "sizes differ");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\nrx(1/0) q[0];\n", "not finite");
  // Truncated input must diagnose, never loop (regression: the barrier skip
  // inside a gate body used to spin at EOF).
  expect_rejects("OPENQASM 2.0;\nqreg q[2];\ngate g a { barrier a", "expected ';'");
  // Reserved expression names cannot be shadowed by macro parameters — that
  // would silently import the wrong angle.
  expect_rejects("OPENQASM 2.0;\ngate g(pi) a { rx(pi) a; }\nqreg q[1];\ng(0.5) q[0];\n",
                 "reserved");
  // Out-of-int-range literals are rejected, not cast (UB).
  expect_rejects("OPENQASM 2.0;\nqreg q[9999999999];\n", "out of range");
  expect_rejects("OPENQASM 2.0;\nqreg q[2];\nh q[9999999999];\n", "out of range");
  // Duplicate macro formals would silently drop call-site qubits/params.
  expect_rejects("OPENQASM 2.0;\ngate g a,a { h a; }\nqreg q[2];\ng q[0],q[1];\n",
                 "duplicate argument");
  expect_rejects("OPENQASM 2.0;\ngate g(t,t) a { rx(t) a; }\nqreg q[1];\ng(1,2) q[0];\n",
                 "duplicate parameter");
  // Barrier operand lists are comma-separated like everything else, and a
  // body barrier must not blind-skip tokens the register prescan counts.
  expect_rejects("OPENQASM 2.0;\nqreg q[2];\nbarrier q[0] q[1];\n", "expected ';'");
  expect_rejects("OPENQASM 2.0;\nqreg q[2];\ngate g a { barrier qreg x[2]; h a; }\ng q[0];\n",
                 "expected");
  // Register widths near INT_MAX must diagnose, not overflow the accumulator.
  expect_rejects("OPENQASM 2.0;\nqreg a[62];\nqreg b[2147483647];\n", "exceeds the IR cap");
  expect_rejects("OPENQASM 2.0;\nqreg q[1];\ncreg c[2147483647];\n", "exceeds");
  expect_rejects("OPENQASM 2.0;\ninclude \"qelib1.inc\nqreg q[1];\n", "unterminated");
  expect_rejects("OPENQASM 2.0;\ngate g a { h b; }\nqreg q[1];\n", "not an argument");
}

// ---- round-trip properties -------------------------------------------------

TEST(QasmImport, ExportedFloatsReimportBitIdentically) {
  // The exporter's angle formatting is the substrate of every round-trip
  // guarantee: strtod(qasm_format_real(x)) must be exactly x.
  Rng rng(11);
  std::vector<Real> xs = {0.0,        1.0,       -1.0,    kPi,     -kPi / 3.0, 1.0 / 3.0,
                          1e-17,      -2.5e-13,  1e17,    0.1,     2.0 / 7.0,  std::sqrt(2.0),
                          6.02214e23, 5e-324,    1.5e308};
  for (int i = 0; i < 1000; ++i) {
    xs.push_back((rng.uniform() * 2.0 - 1.0) * std::pow(10.0, rng.uniform() * 40.0 - 20.0));
  }
  for (const Real x : xs) {
    const std::string s = qasm_format_real(x);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), x) << "spelling: " << s;
  }
}

TEST(QasmImport, ImportOfExportIsEquivalentForRandomCircuits) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 1 + static_cast<int>(rng.uniform_u64(4));
    const Circuit c = random_importable_circuit(n, 3, 12, rng);
    const Circuit back = import_qasm(to_qasm(c));
    std::string why;
    EXPECT_TRUE(circuits_equivalent(c, back, 1e-9, &why))
        << "trial " << trial << ": " << why << "\n" << to_qasm(c);
  }
}

TEST(QasmImport, ImportOfExportPreservesTotalUnitary) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_u64(2));
    Circuit c(n, 0);
    for (int d = 0; d < 8; ++d) {
      if (rng.bernoulli(0.5)) {
        c.gate(haar_unitary(2, rng),
               {static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n)))}, "U1q");
      } else {
        const int q = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n - 1)));
        c.cx(q, q + 1);
      }
    }
    const Circuit back = import_qasm(to_qasm(c));
    // The u3 serialization drops global phase by construction.
    EXPECT_TRUE(matrix_equal_up_to_phase(c.to_unitary(), back.to_unitary(), 1e-8))
        << "total unitary changed across the round trip (trial " << trial << ")";
  }
}

TEST(QasmImport, CorpusImportsAndRoundTrips) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 20u) << "corpus went missing from " << QCUT_QASM_CORPUS_DIR;
  for (const auto& f : files) {
    SCOPED_TRACE(f.string());
    Circuit c1;
    ASSERT_NO_THROW(c1 = import_qasm_file(f.string()));
    EXPECT_GT(c1.size(), 0u);
    // export(import(P)) must re-import to an equivalent circuit...
    const std::string exported = to_qasm(c1);
    Circuit c2;
    ASSERT_NO_THROW(c2 = import_qasm(exported, f.filename().string() + ":reimport"));
    std::string why;
    EXPECT_TRUE(circuits_equivalent(c1, c2, 1e-9, &why)) << why;
    // ...and the export itself is deterministic.
    EXPECT_EQ(exported, to_qasm(c1));
  }
}

TEST(QasmImport, MutatedCorpusFilesParseOrThrowTypedErrors) {
  // Byte-mutated corpus programs either import or fail with qcut::Error —
  // never a crash, a hang, or an untyped exception.
  Rng rng(20261017);
  int parsed = 0;
  int rejected = 0;
  for (const auto& path : corpus_files()) {
    std::ifstream in(path);
    const std::string src((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    ASSERT_FALSE(src.empty()) << path;
    for (const testing::Mutation kind : testing::kAllMutations) {
      for (int i = 0; i < 100; ++i) {
        const std::string mutant = testing::mutate_bytes(src, kind, rng);
        try {
          (void)strip_trailing_measurements(import_qasm(mutant, path.filename().string()));
          ++parsed;
        } catch (const Error&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << path.filename() << " " << testing::mutation_name(kind) << " #" << i
                        << ": untyped exception: " << e.what();
        }
      }
    }
  }
  // Both outcomes occur, so the mutants reach past the first token.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(QasmImport, CorpusCoversTheAdvertisedScenarios) {
  const auto files = corpus_files();
  std::size_t wide = 0, conditional = 0, macros = 0;
  for (const auto& f : files) {
    const Circuit c = import_qasm_file(f.string());
    wide += (c.n_qubits() >= 30) ? 1 : 0;
    for (const auto& op : c.ops()) {
      if (op.kind == OpKind::kCondUnitary) {
        ++conditional;
        break;
      }
    }
  }
  for (const auto& f : files) {
    std::ifstream in(f);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    macros += (text.find("\ngate ") != std::string::npos) ? 1 : 0;
  }
  EXPECT_GE(wide, 2u) << "corpus must keep 30-qubit cases";
  EXPECT_GE(conditional, 2u) << "corpus must keep classically controlled cases";
  EXPECT_GE(macros, 4u) << "corpus must keep gate-macro cases";
}

// ---- plumbing helpers ------------------------------------------------------

TEST(QasmImport, StripTrailingMeasurementsKeepsMidCircuitOnes) {
  Circuit c(2, 2);
  c.h(0).measure(0, 0).x_if(0, 1).cx(0, 1).measure(0, 0).measure(1, 1);
  int stripped = 0;
  const Circuit s = strip_trailing_measurements(c, &stripped);
  EXPECT_EQ(stripped, 2);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.ops()[1].kind, OpKind::kMeasure);  // the mid-circuit one survives
  EXPECT_EQ(s.n_cbits(), 2);  // ...and so does the register it writes

  const Circuit none = strip_trailing_measurements(s, &stripped);
  EXPECT_EQ(stripped, 0);
  EXPECT_EQ(none.size(), s.size());
}

TEST(QasmImport, StripTrailingMeasurementsDropsAnUnusedRegister) {
  // `creg c[3]; measure q -> c;` after a unitary body: once every measure
  // is stripped nothing touches the register, so the copy is purely quantum.
  const Circuit c = import_qasm(
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\n"
      "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q -> c;\n");
  ASSERT_EQ(c.n_cbits(), 3);
  int stripped = 0;
  const Circuit s = strip_trailing_measurements(c, &stripped);
  EXPECT_EQ(stripped, 3);
  EXPECT_EQ(s.n_cbits(), 0);
  EXPECT_EQ(s.size(), 3u);

  // A conditioned gate reads the register, so it stays.
  Circuit f(2, 1);
  f.h(0).x_if(0, 1).measure(1, 0);
  const Circuit kept = strip_trailing_measurements(f, &stripped);
  EXPECT_EQ(stripped, 1);
  EXPECT_EQ(kept.n_cbits(), 1);
}

TEST(QasmImport, CircuitsEquivalentDetectsMismatches) {
  Circuit a(2, 0);
  a.h(0).cx(0, 1);
  Circuit b(2, 0);
  b.h(0).cx(1, 0);
  std::string why;
  EXPECT_FALSE(circuits_equivalent(a, b, 1e-9, &why));
  EXPECT_NE(why.find("qubit lists"), std::string::npos);

  Circuit c(2, 0);
  c.h(0).cz(0, 1);
  EXPECT_FALSE(circuits_equivalent(a, c, 1e-9, &why));
  EXPECT_NE(why.find("unitaries"), std::string::npos);

  // Global phase alone is not a difference.
  Circuit d(2, 0);
  d.gate(Cplx{0.0, 1.0} * gates::h(), {0}, "H'").cx(0, 1);
  EXPECT_TRUE(circuits_equivalent(a, d, 1e-9, &why)) << why;
}

// ---- pinned outputs ---------------------------------------------------------
// The importer's output bit for bit: svc::circuit_hash (every matrix entry,
// qubit, cbit and initialize amplitude) of the import and of its
// strip_trailing_measurements copy, the op count, a digest of the label
// sequence, and every gate op's class equal to classify_gate of its matrix.

struct ImportPin {
  const char* name;
  std::uint64_t hash;
  std::uint64_t stripped_hash;
  std::size_t ops;
  std::uint64_t labels;
};

std::uint64_t label_digest(const Circuit& c) {
  std::string all;
  for (const Operation& op : c.ops()) {
    all += op.label;
    all += '\n';
  }
  return testing::fnv64(all);
}

bool same_class(const GateClass& a, const GateClass& b) {
  return a.structure == b.structure && a.dim == b.dim && a.diag == b.diag &&
         a.phase_index == b.phase_index && a.cycles == b.cycles;
}

void expect_pinned(const Circuit& c, const ImportPin& pin) {
  const Circuit stripped = strip_trailing_measurements(c);
  char row[160];
  std::snprintf(row, sizeof row,
                "{\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, %zu, 0x%016" PRIx64 "ull},",
                pin.name, svc::circuit_hash(c), svc::circuit_hash(stripped), c.size(),
                label_digest(c));
  EXPECT_EQ(svc::circuit_hash(c), pin.hash) << row;
  EXPECT_EQ(svc::circuit_hash(stripped), pin.stripped_hash) << row;
  EXPECT_EQ(c.size(), pin.ops) << row;
  EXPECT_EQ(label_digest(c), pin.labels) << row;
  for (const Circuit* circ : {&c, &stripped}) {
    for (std::size_t i = 0; i < circ->size(); ++i) {
      const Operation& op = circ->ops()[i];
      if (op.kind == OpKind::kUnitary || op.kind == OpKind::kCondUnitary) {
        EXPECT_TRUE(same_class(op.gclass(), classify_gate(op.matrix())))
            << pin.name << ": op " << i << " ('" << op.label << "') is misclassified";
      }
    }
  }
}

TEST(QasmImportPins, CorpusImportsToPinnedCircuits) {
  static const ImportPin kPins[] = {
      {"barrier_reset.qasm", 0xd2464f9a70c52027ull, 0xcb9f2b7fc5103f24ull,
       11, 0x6caefb12a106a5bdull},
      {"bell_pair.qasm", 0x621451eaca30d46bull, 0xeb36c1285cd1aa4full,
       4, 0x653758de56923a08ull},
      {"ccx_adder.qasm", 0xd96f62d89e5643e7ull, 0x3bafe6091dc662e3ull,
       37, 0x49295fb7171ab426ull},
      {"comment_heavy.qasm", 0x34ea48248b80c38aull, 0x565ba721cde5a43eull,
       5, 0x76226b4b4ac0f102ull},
      {"cond_two_qubit.qasm", 0x4acf976d62c03b14ull, 0x4acf976d62c03b14ull,
       7, 0x8a7951a392e3886bull},
      {"expr_angles.qasm", 0x3c0e3ea9ed96a1d3ull, 0x3c0e3ea9ed96a1d3ull,
       14, 0xebfd432c58312214ull},
      {"ghz_3.qasm", 0x40994fb400df35c6ull, 0x40994fb400df35c6ull,
       3, 0x15de91a85ccdf08bull},
      {"ghz_30_wide.qasm", 0x6dd42c2001103b53ull, 0x6dd42c2001103b53ull,
       30, 0x3da3e24a4901b754ull},
      {"ghz_5_broadcast.qasm", 0xd4d60b199e4cc7a9ull, 0x485c19ddd6ef8b50ull,
       10, 0x37ad9589a47022cfull},
      {"ghz_8.qasm", 0x357a3a9bd8cc33f9ull, 0x357a3a9bd8cc33f9ull,
       8, 0xeb9c1fdf79f1d18aull},
      {"hwe_ansatz_8.qasm", 0x7d0a1ddd82052082ull, 0x7d0a1ddd82052082ull,
       21, 0x96c3d9410992b2a6ull},
      {"macro_bell.qasm", 0x324ed278b2595033ull, 0x324ed278b2595033ull,
       8, 0x936e8acd56740564ull},
      {"macro_nested.qasm", 0x5dd6c842d43b735bull, 0x5dd6c842d43b735bull,
       23, 0xdd335d825ca3e056ull},
      {"named_gates_tour.qasm", 0x6d00fdf0d673e687ull, 0x6d00fdf0d673e687ull,
       19, 0xd21de1da0f413d00ull},
      {"prelude_toffoli_fredkin.qasm", 0xfa2046896af77a22ull, 0x8a1510267ab6a5feull,
       8, 0x6b8fbbc36e183436ull},
      {"qft_3.qasm", 0x452424809635500bull, 0x452424809635500bull,
       19, 0x1b89f34b4645477eull},
      {"qft_4.qasm", 0xd4a84cb9ad0b643full, 0xd4a84cb9ad0b643full,
       36, 0xd4b7cbd9c71c6ef9ull},
      {"qft_5_measured.qasm", 0xc963909077a5ee24ull, 0xdc2e1c07a3e8d5a1ull,
       62, 0xcc6fabfab4b088a5ull},
      {"random_u3_4.qasm", 0x322783abd2cf7c9dull, 0x322783abd2cf7c9dull,
       11, 0x7d281852b4bf7c48ull},
      {"teleport.qasm", 0x9332753f91a64291ull, 0x9332753f91a64291ull,
       10, 0x50a6f509ae290b21ull},
      {"teleport_rotated.qasm", 0x998761b72a59c82full, 0xf693fdd8da80eccdull,
       11, 0x6b40549039979a85ull},
      {"two_qreg.qasm", 0x82f35857ada14cc0ull, 0x648ee610a80ea71dull,
       12, 0x8ac62ee2c6d1e428ull},
      {"vqe_ansatz_4.qasm", 0xe01e07ba3c4c4a17ull, 0xe01e07ba3c4c4a17ull,
       11, 0x290c254f0ff1ac7cull},
      {"vqe_ansatz_6.qasm", 0xc5cb743f742f8922ull, 0xea0c0792ae7d9806ull,
       29, 0x7d2c8cd89ece2348ull},
      {"w_state_3.qasm", 0x60ea819e1bf40f94ull, 0x60ea819e1bf40f94ull,
       8, 0x790930c796f8f904ull},
      {"wide_30_brickwork.qasm", 0xe417138047c89869ull, 0xe417138047c89869ull,
       89, 0xff7e3a73be8d75eeull},
  };
  const std::vector<std::filesystem::path> files = corpus_files();
  ASSERT_EQ(files.size(), std::size(kPins));
  for (std::size_t i = 0; i < files.size(); ++i) {
    ASSERT_EQ(files[i].filename().string(), kPins[i].name);
    expect_pinned(import_qasm_file(files[i].string()), kPins[i]);
  }
}

TEST(QasmImportPins, BenchShapesImportToPinnedCircuits) {
  static const ImportPin kPins[] = {
      {"ghz_30_wide+ry", 0x0eaa4aad7be108a3ull, 0x0eaa4aad7be108a3ull,
       31, 0x99c475eb8f2fb511ull},
      {"wide_30_brickwork", 0x335a4290e14507e5ull, 0x335a4290e14507e5ull,
       89, 0xff7e3a73be8d75eeull},
      {"ghz_8+ry", 0x7c05f2117b1f9245ull, 0x7c05f2117b1f9245ull,
       9, 0x9f82bf995e1be653ull},
      {"hwe_ansatz_8", 0xab1b22b2c27ad556ull, 0xab1b22b2c27ad556ull,
       21, 0x96c3d9410992b2a6ull},
  };
  const testing::BenchShape shapes[] = {testing::BenchShape::kGhz30,
                                        testing::BenchShape::kBrick30,
                                        testing::BenchShape::kGhz8, testing::BenchShape::kHwe8};
  ASSERT_EQ(std::size(shapes), std::size(kPins));
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    expect_pinned(import_qasm(testing::bench_shape_qasm(shapes[i]), "<request>"), kPins[i]);
  }
}

}  // namespace
}  // namespace qcut
