// Generic circuit cutting: splice wire-cut protocol gadgets into an
// arbitrary unitary circuit, producing the executable QPD for a Pauli
// observable on the cut circuit's output.
//
// This is the API a downstream user calls to distribute a real circuit:
//   Circuit big(4);
//   big.h(0).cx(0,1).cx(1,2).cx(2,3);          // too wide for one device
//   Qpd qpd = cut_circuit(big, {/*after_op=*/2, /*qubit=*/1},
//                         NmeCut{0.6}, "ZZZZ");
// After the cut, everything the original circuit did on the cut wire happens
// on a fresh receiver wire (a different device); the sender-side wire is
// consumed by the gadget.
//
// cut_circuit_sites is the n-cut generalization: each wire cut consumes the
// current carrier of its wire and delivers onto a fresh receiver, so cuts may
// chain along one wire, and gate cuts replace their host op in place. The
// joint QPD is the product decomposition — Π m_i terms, coefficient products,
// κ = Π κ_i — exactly product_qpd's semantics realized inside one host
// circuit. This is what the automatic planner (qcut/plan/) executes.
//
// The cutter works in two parts. cut_layout validates the sites and computes
// everything the Π m_i terms share: each branch's ops, recorded once on
// canonical wires, and each term's receiver, helper and classical-bit
// layout. emit_term_ops then writes one term's ops, in splice order, through
// a sink. Splicing a term (cut_qpd with splice = true) sends every op into
// the term circuit; the exact backend sends only one fragment's ops into a
// fragment variant (cut/fragment.hpp), so a fragment that only some cuts
// touch is built and evaluated once, not once per term. Both use the one
// emission routine, so a variant is op for op the fragment split_term cuts
// from the spliced term. Every Qpd the cutter returns carries its layout.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qcut/cut/gate_cut.hpp"
#include "qcut/cut/wire_cut.hpp"

namespace qcut {

struct CutPoint {
  std::size_t after_op = 0;  ///< gadget is inserted after this many ops
  int qubit = 0;             ///< the wire being cut
};

inline bool operator==(const CutPoint& a, const CutPoint& b) {
  return a.after_op == b.after_op && a.qubit == b.qubit;
}

/// One cut location under the unified candidate model: a wire cut at a
/// CutPoint, or a gate cut replacing the host op at `op_index`.
struct CutSite {
  CutKind kind = CutKind::kWire;
  CutPoint point{};          ///< wire cuts only
  std::size_t op_index = 0;  ///< gate cuts only

  static CutSite wire(CutPoint p) {
    CutSite s;
    s.kind = CutKind::kWire;
    s.point = p;
    return s;
  }
  static CutSite gate(std::size_t op_index) {
    CutSite s;
    s.kind = CutKind::kGate;
    s.op_index = op_index;
    return s;
  }
  /// The splice position on the host op timeline.
  std::size_t position() const noexcept {
    return kind == CutKind::kWire ? point.after_op : op_index;
  }
};

inline bool operator==(const CutSite& a, const CutSite& b) {
  return a.kind == b.kind &&
         (a.kind == CutKind::kWire ? a.point == b.point : a.op_index == b.op_index);
}

/// Everything the terms of an n-cut product QPD share, computed once per cut
/// plan before any op is emitted. Terms enumerate the branch tuples, last
/// cut fastest.
struct CutLayout {
  /// One branch of one cut: a wire gadget or a gate-cut term.
  struct Branch {
    Real coefficient = 0.0;
    int extra_qubits = 0;  ///< helper wires beyond the cut's two
    int cbits = 0;
    int pairs = 0;
    int sign_cbit = -1;  ///< gate cuts: the signed-measurement bit, relative
    std::string label;
    /// The branch's ops on canonical wires: 0 = the cut wire (or the gate's
    /// first qubit), 1 = its receiver (or second qubit), 2.. = helpers; bits
    /// from 0. A gate branch starts with the cut's branch-independent locals.
    Circuit ops;
    /// Equal ids (within one cut) ⇔ equal split structure: helper and bit
    /// counts, sign bit, multi-qubit interactions and classical events. Terms
    /// whose branches agree here share one fragment skeleton.
    std::size_t structure = 0;
  };
  struct Cut {
    CutSite site;
    int wire_a = 0;  ///< host wire of canonical wire 0: the cut's carrier (or gate qubit a)
    int wire_b = 0;  ///< host wire of canonical wire 1: its receiver (or gate qubit b)
    std::vector<Branch> branches;
  };

  Circuit circuit;                      ///< the host circuit
  std::vector<Cut> cuts;                ///< input order
  std::vector<std::size_t> wire_order;  ///< wire cuts in splice order (position, then input)
  std::vector<std::size_t> gate_order;  ///< gate cuts by host op index
  std::vector<std::size_t> gate_at;     ///< host op index -> gate cut, cuts.size() = none
  /// Per measured original qubit: its final carrier wire and its basis
  /// change plus measurement, recorded on wire 0 and bit 0.
  std::vector<std::pair<int, Circuit>> measures;

  std::size_t n_terms = 1;
  // Per term t and cut j, at [t * cuts.size() + j]: the branch taken, the
  // first helper wire and the first classical bit.
  std::vector<std::uint32_t> branch;
  std::vector<int> helper_base;
  std::vector<int> cbit_base;
  // Per term: the spliced registers (observable bits last).
  std::vector<int> term_qubits;
  std::vector<int> term_cbits;

  const Branch& branch_of(std::size_t term, std::size_t cut) const {
    return cuts[cut].branches[branch[term * cuts.size() + cut]];
  }
};

/// Validates the sites by cut_circuit_sites' rules and computes their
/// layout. Zero sites give uncut_qpd's single term.
std::shared_ptr<const CutLayout> cut_layout(const Circuit& circ, const std::vector<CutSite>& sites,
                                            const std::vector<const CutProtocol*>& protocols,
                                            const std::string& observable);

/// Receives each emitted op: `op` as recorded, the host wire of each of its
/// qubit indices (`wires[op.qubits[i]]`), and the offset of its classical
/// bit (when it has one).
using OpSink = std::function<void(const Operation& op, const int* wires, int cbit0)>;

/// Writes term `term`'s ops in splice order through `sink`: the host ops on
/// their current carriers, each cut's branch ops where the cut fires, then
/// the observable's measurements.
void emit_term_ops(const CutLayout& layout, std::size_t term, const OpSink& sink);

/// The QPD of `layout`'s terms, carrying the layout. With `splice`, every
/// term circuit is spliced whole; without it the QPD is factored: its terms
/// carry coefficients, estimate bits and registers but no ops, and only the
/// exact backend can run it (SerialShotBackend and split_term throw).
Qpd cut_qpd(std::shared_ptr<const CutLayout> layout, bool splice);

/// Cuts `circ` (unitary ops only, no classical bits) at `point` with
/// `protocol`, measuring the n-qubit Pauli string `observable` (indexed by
/// the original circuit's qubits) on the final state. Each QPD term's
/// estimate is the parity of the per-site measurement bits.
///
/// Rejects (qcut::Error) out-of-range positions/wires and dead cuts: a cut
/// on a wire that no later op touches and the observable does not measure
/// would silently burn a κ² shot-cost factor on a state nobody looks at.
Qpd cut_circuit(const Circuit& circ, const CutPoint& point, const WireCutProtocol& protocol,
                const std::string& observable);

/// The unified n-cut splicer: cuts `circ` at every `sites[i]` with
/// `protocols[i]` (whose kind() must match the site's kind), producing the
/// product QPD of the n independent decompositions spliced into one host
/// circuit.
///
/// Wire cuts consume the current carrier of their wire and deliver onto a
/// fresh receiver wire (receiver i = circ.n_qubits() + the site's rank among
/// the wire sites, input order); gadget helper qubits follow the receivers.
/// Gate cuts replace the two-qubit host op at their `op_index` with the
/// protocol's branch-independent locals plus the branch ops; a branch's
/// signed-measurement bit joins the term's estimate parity. Sites are spliced
/// in time order (ties: input order), so cuts may chain along one wire.
/// Validation is cut_circuit's, applied per site; gate sites additionally
/// require a two-qubit unitary host op cut by at most one site.
Qpd cut_circuit_sites(const Circuit& circ, const std::vector<CutSite>& sites,
                      const std::vector<const CutProtocol*>& protocols,
                      const std::string& observable);

/// The single-term "QPD" of the uncut circuit: coefficient 1, κ = 1, the
/// observable's parity measured directly. What planned execution runs when
/// the circuit already fits on one device; shares cut_circuit's observable
/// validation.
Qpd uncut_qpd(const Circuit& circ, const std::string& observable);

/// The reference value ⟨observable⟩ on the uncut circuit, computed exactly.
Real uncut_circuit_expectation(const Circuit& circ, const std::string& observable);

}  // namespace qcut
