// The unified cut-candidate model: one abstraction for every cut the system
// can make.
//
// A cut replaces a non-local element of the host circuit — the identity
// channel on a *wire* (wire cut) or a two-qubit *gate* (gate cut) — by a
// quasiprobability mixture of local subcircuits. Every protocol, regardless
// of kind, is characterized by the same three quantities the planner needs:
//   * κ            — the sampling overhead Σ|c_i| of its QPD,
//   * pairs/sample — expected NME resource pairs consumed per QPD sample
//                    (0 for entanglement-free protocols and all gate cuts),
//   * merge semantics — whether some branch splices a quantum operation
//     across the two sides of the cut. Entangled-resource wire cuts do (the
//     pre-shared |Φk⟩ initialize spans the sender helper and the receiver
//     wire), so at run time the two fragments execute as ONE statevector;
//     entanglement-free wire cuts and every gate cut split fully.
//
// Merge semantics are not hand-maintained constants: merge_profile() derives
// them by splicing the protocol into a tiny probe circuit and splitting every
// QPD term — the numbers the planner's feasibility model uses are, by
// construction, the numbers the fragment evaluator will see.
//
// ProtocolSpec is the typed descriptor that travels through a CutPlan in
// place of the old "nme"/"harada" string field: planner, executor, and
// make_protocol all speak it.
#pragma once

#include <string>

#include "qcut/common/error.hpp"
#include "qcut/common/types.hpp"

namespace qcut {

/// What a cut removes from the host circuit.
enum class CutKind {
  kWire,  ///< the identity channel on one wire (state transfer)
  kGate,  ///< one two-qubit gate (Mitarai–Fujii style decomposition)
};

/// Every concrete protocol the system can instantiate.
enum class ProtocolId {
  kHarada,    ///< entanglement-free optimum, κ = 3
  kPeng,      ///< Pauli measure-and-prepare, κ = 4 (historical baseline)
  kTeleport,  ///< physical |Φ⟩ teleportation, κ = 1
  kNme,       ///< Theorem-2 cut over pure |Φk⟩, κ = 2/f − 1
  kDistill,   ///< virtually distilled teleport, same κ as kNme, +2 qubits
  kMixedNme,  ///< twirled teleport over a mixed resource, κ = (7−4qI)/(4qI−1)
  kZzGate,    ///< gate cut of e^{iθ Z⊗Z}, κ = 1 + 2|sin 2θ|
};

const char* to_string(ProtocolId id);

/// Typed protocol descriptor: everything needed to re-instantiate a planned
/// cut's protocol. `param` is the family parameter — Schmidt k for
/// kNme/kDistill, Bell-identity weight q_I for kMixedNme, the ZZ angle θ for
/// kZzGate; unused otherwise.
struct ProtocolSpec {
  ProtocolId id = ProtocolId::kHarada;
  Real param = 0.0;
};

inline bool operator==(const ProtocolSpec& a, const ProtocolSpec& b) {
  return a.id == b.id && a.param == b.param;
}

/// κ of the described protocol, by the closed forms of the paper.
Real spec_kappa(const ProtocolSpec& spec);

/// Which kind of cut the described protocol performs.
CutKind spec_kind(const ProtocolSpec& spec);

/// Human-readable form, e.g. "nme(k=0.5)" or "zz(theta=0.785)".
std::string to_string(const ProtocolSpec& spec);

/// The common interface of every cut protocol. WireCutProtocol (wire_cut.hpp)
/// and GateCutProtocol (gate_cut.hpp) specialize it; the generic splicer
/// (circuit_cutter.hpp) and the planner (plan/) work against this base.
class CutProtocol {
 public:
  virtual ~CutProtocol() = default;

  virtual CutKind kind() const = 0;
  virtual std::string name() const = 0;

  /// Theoretical sampling overhead κ = Σ|c_i| of this protocol's QPD.
  virtual Real kappa() const = 0;

  /// Expected entangled resource pairs consumed per QPD sample; 0 means the
  /// protocol is entanglement-free.
  virtual Real pairs_per_sample() const = 0;
};

/// Fragment-merge semantics of one cut, as the fragment evaluator will see
/// them. All widths are *extra* wires beyond the host circuit's own segments.
struct MergeProfile {
  /// Some branch unites the sender- and receiver-side fragments (shared
  /// entanglement cannot be simulated by classical message passing).
  bool merges = false;
  /// Max helper wires a merging branch adds to the merged component.
  int merged_extra = 0;
  /// Max helper wires a non-merging branch attaches to the sender fragment.
  int sender_extra = 0;
  /// Max helper wires a non-merging branch attaches to the receiver fragment.
  int receiver_extra = 0;

  /// Worst extra width any single branch can add to the component(s) this
  /// cut touches — sound per-cut bound for the all-merge width scenario.
  int max_extra() const {
    const int split = sender_extra + receiver_extra;
    return merged_extra > split ? merged_extra : split;
  }
};

/// Derives `protocol`'s merge semantics empirically: splices it into a
/// two-qubit probe circuit, splits every QPD term into fragments, and records
/// which branches merge the two sides and how many helper wires each branch
/// adds. Gate cuts never splice quantum ops across the partition, so their
/// profile is all-zero by construction.
MergeProfile merge_profile(const CutProtocol& protocol);

}  // namespace qcut
