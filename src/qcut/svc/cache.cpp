#include "qcut/svc/cache.hpp"

#include <cstring>
#include <sstream>

namespace qcut {
namespace svc {

namespace {

/// Incremental FNV-1a 64.
class Fnv64 {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void real(Real v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(Real) == sizeof bits, "Real must be 64-bit");
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void cplx(Cplx v) {
    real(v.real());
    real(v.imag());
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Doubles keyed by bit pattern: two configs get equal keys iff every field
/// is bit-equal — no formatting round-trip ambiguity.
std::string real_bits(Real v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  std::ostringstream os;
  os << std::hex << bits;
  return os.str();
}

}  // namespace

std::uint64_t circuit_hash(const Circuit& circ) {
  Fnv64 h;
  h.i64(circ.n_qubits());
  h.i64(circ.n_cbits());
  h.u64(circ.size());
  for (const Operation& op : circ.ops()) {
    h.i64(static_cast<std::int64_t>(op.kind));
    h.u64(op.qubits.size());
    for (int q : op.qubits) {
      h.i64(q);
    }
    h.i64(op.cbit);
    h.i64(op.matrix().rows());
    h.i64(op.matrix().cols());
    const std::size_t mn = static_cast<std::size_t>(op.matrix().rows() * op.matrix().cols());
    for (std::size_t i = 0; i < mn; ++i) {
      h.cplx(op.matrix().data()[i]);
    }
    h.u64(op.init_state().size());
    for (Cplx a : op.init_state()) {
      h.cplx(a);
    }
    // op.label and op.gclass() are derived/presentation — excluded.
  }
  return h.value();
}

std::string planner_config_key(const PlannerConfig& cfg) {
  std::ostringstream os;
  os << "w" << cfg.max_fragment_width << ";f" << real_bits(cfg.resource_overlap) << ";p"
     << cfg.pair_budget << ";g" << (cfg.allow_gate_cuts ? 1 : 0) << ";e"
     << real_bits(cfg.target_accuracy) << ";c" << cfg.max_cuts << ";x" << cfg.exhaustive_limit
     << ";n" << cfg.max_nodes << ";dev[";
  for (const DeviceSpec& d : cfg.device_model.devices) {
    os << d.width_cap << ",";
  }
  os << "];lnk[";
  for (const LinkSpec& l : cfg.device_model.links) {
    os << real_bits(l.overlap) << "," << l.pair_budget << ","
       << static_cast<int>(l.family) << ";";
  }
  os << "]";
  return os.str();
}

std::string plan_key(std::uint64_t circuit_hash, const PlannerConfig& cfg) {
  std::ostringstream os;
  os << std::hex << circuit_hash;
  return os.str() + "|" + planner_config_key(cfg);
}

std::string eval_key(const std::string& plan_key, const Observable& observable,
                     BackendKind kind) {
  std::ostringstream os;
  os << plan_key << "|" << observable.to_string() << "|b" << static_cast<int>(kind);
  return os.str();
}

std::shared_ptr<EvalEntry> EvalEntry::build(PlannedExecutor executor, const Observable& observable,
                                            BackendKind kind) {
  Qpd qpd = executor.qpd_for(observable, kind);
  const std::optional<Real> exact = executor.exact_reference(observable);
  auto entry = std::make_shared<EvalEntry>(std::move(executor), std::move(qpd), exact);
  // Bound to entry->qpd, whose address is stable for the entry's lifetime
  // (the entry is heap-allocated and the Qpd never reassigned).
  entry->backend = make_backend(kind, entry->qpd);
  return entry;
}

}  // namespace svc
}  // namespace qcut
