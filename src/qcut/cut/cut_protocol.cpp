#include "qcut/cut/cut_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "qcut/cut/circuit_cutter.hpp"
#include "qcut/cut/fragment.hpp"
#include "qcut/cut/gate_cut.hpp"
#include "qcut/cut/mixed_cut.hpp"
#include "qcut/cut/nme_cut.hpp"
#include "qcut/cut/wire_cut.hpp"

namespace qcut {

const char* to_string(ProtocolId id) {
  switch (id) {
    case ProtocolId::kHarada:
      return "harada";
    case ProtocolId::kPeng:
      return "peng";
    case ProtocolId::kTeleport:
      return "teleport";
    case ProtocolId::kNme:
      return "nme";
    case ProtocolId::kDistill:
      return "distill";
    case ProtocolId::kMixedNme:
      return "mixed";
    case ProtocolId::kZzGate:
      return "zz-gate";
  }
  return "?";
}

Real spec_kappa(const ProtocolSpec& spec) {
  switch (spec.id) {
    case ProtocolId::kHarada:
      return 3.0;
    case ProtocolId::kPeng:
      return 4.0;
    case ProtocolId::kTeleport:
      return 1.0;
    case ProtocolId::kNme:
    case ProtocolId::kDistill:
      return nme_cut_overhead(spec.param);
    case ProtocolId::kMixedNme:
      return mixed_cut_overhead(spec.param);
    case ProtocolId::kZzGate:
      return zz_gate_cut_overhead(spec.param);
  }
  throw Error("spec_kappa: unknown protocol id");
}

CutKind spec_kind(const ProtocolSpec& spec) {
  return spec.id == ProtocolId::kZzGate ? CutKind::kGate : CutKind::kWire;
}

std::string to_string(const ProtocolSpec& spec) {
  std::ostringstream os;
  os << to_string(spec.id);
  switch (spec.id) {
    case ProtocolId::kNme:
    case ProtocolId::kDistill:
      os << "(k=" << spec.param << ")";
      break;
    case ProtocolId::kMixedNme:
      os << "(qI=" << spec.param << ")";
      break;
    case ProtocolId::kZzGate:
      os << "(theta=" << spec.param << ")";
      break;
    default:
      break;
  }
  return os.str();
}

MergeProfile merge_profile(const CutProtocol& protocol) {
  MergeProfile mp;
  if (protocol.kind() == CutKind::kGate) {
    // Gate-cut branches act locally on each side (the signed measurement is
    // classical post-processing); nothing to probe.
    return mp;
  }
  const auto* wire = dynamic_cast<const WireCutProtocol*>(&protocol);
  QCUT_CHECK(wire != nullptr, "merge_profile: wire-kind protocol must be a WireCutProtocol");

  // Probe: cx ties wires 0 and 1 into the sender fragment; the trailing h
  // keeps the cut wire alive past the cut. Base partition of the spliced
  // term: sender fragment {wire 0, wire 1 pre-cut} (2 segments), receiver
  // fragment {wire 2} (1 segment); everything beyond that is gadget helpers.
  Circuit probe(2, 0);
  probe.cx(0, 1);
  probe.h(1);
  const Qpd qpd = cut_circuit(probe, CutPoint{1, 1}, *wire, "ZZ");
  for (const QpdTerm& term : qpd.terms()) {
    const SplitSkeleton skel = build_split_skeleton(term.circuit);
    const int sender = skel.frag_of_wire[0];
    const int receiver = skel.frag_of_wire[2];
    const auto width = [&skel](int frag) {
      return static_cast<int>(skel.wires_of[static_cast<std::size_t>(frag)].size());
    };
    if (sender == receiver) {
      mp.merges = true;
      mp.merged_extra = std::max(mp.merged_extra, width(sender) - 3);
    } else {
      mp.sender_extra = std::max(mp.sender_extra, width(sender) - 2);
      mp.receiver_extra = std::max(mp.receiver_extra, width(receiver) - 1);
    }
  }
  return mp;
}

// WireCutProtocol's generic resource accounting lives here next to the other
// protocol-level derivations: Σ (|c_i|/κ)·pairs_i over the QPD branches.
Real WireCutProtocol::pairs_per_sample() const {
  const Real k = kappa();
  Real acc = 0.0;
  for (const CutGadget& g : gadgets()) {
    acc += std::abs(g.coefficient) / k * static_cast<Real>(g.entangled_pairs);
  }
  return acc;
}

}  // namespace qcut
