// The four request shapes of the end-to-end benchmark's generator
// (qbench/src/workloads.cpp), spelled the same way but with fixed angles.
// Shared by the pinned-output tests and bench_planner's front-door rows;
// header-only and free of test-framework dependencies.
#pragma once

#include <cstdio>
#include <string>

namespace qcut::testing {

enum class BenchShape { kGhz30, kBrick30, kGhz8, kHwe8 };

/// Fixed angle `i` of a shape, printed with 17 significant digits like the
/// generator's draws.
inline std::string bench_angle(int i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", -2.9 + 0.3711 * i);
  return buf;
}

inline std::string bench_shape_qasm(BenchShape shape) {
  std::string s = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
  const auto q = [](int i) { return "q[" + std::to_string(i) + "]"; };
  switch (shape) {
    case BenchShape::kGhz30:
    case BenchShape::kGhz8: {
      const int n = shape == BenchShape::kGhz30 ? 30 : 8;
      s += "qreg q[" + std::to_string(n) + "];\nh q[0];\nry(" + bench_angle(n) + ") q[0];\n";
      for (int i = 0; i + 1 < n; ++i) {
        s += "cx " + q(i) + "," + q(i + 1) + ";\n";
      }
      break;
    }
    case BenchShape::kBrick30:
      s += "qreg q[30];\n";
      for (int i = 0; i < 30; ++i) {
        s += "ry(" + bench_angle(i) + ") " + q(i) + ";\n";
      }
      for (int i = 0; i + 1 < 30; i += 2) {
        s += "cz " + q(i) + "," + q(i + 1) + ";\n";
      }
      for (int i = 0; i < 30; ++i) {
        s += "rz(" + bench_angle(30 - i) + ") " + q(i) + ";\n";
      }
      for (int i = 1; i + 1 < 30; i += 2) {
        s += "cz " + q(i) + "," + q(i + 1) + ";\n";
      }
      break;
    case BenchShape::kHwe8: {
      static const int kPairs[7][2] = {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 2}, {3, 4}, {5, 6}};
      s += "gate layer(a,b) x0,x1 {\n  ry(a) x0;\n  ry(b) x1;\n  cx x0,x1;\n}\nqreg q[8];\n";
      for (int k = 0; k < 7; ++k) {
        s += "layer(" + bench_angle(2 * k) + "," + bench_angle(2 * k + 1) + ") " +
             q(kPairs[k][0]) + "," + q(kPairs[k][1]) + ";\n";
      }
      break;
    }
  }
  return s;
}
}  // namespace qcut::testing
