#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <thread>

namespace qbench {

namespace {

constexpr double kPi = 3.14159265358979323846;

// Stream tags keep the timed, warm-up, hot-set and schedule draws disjoint.
constexpr std::uint64_t kTimedStream = 1;
constexpr std::uint64_t kWarmupStream = 2;
constexpr std::uint64_t kHotStream = 3;
constexpr std::uint64_t kScheduleStream = 4;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Counter-based draws: a small generator seeded from (seed, stream, index).
class Draw {
 public:
  Draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
      : state_(splitmix64(splitmix64(splitmix64(seed) ^ stream) ^ index)) {}
  std::uint64_t next() { return state_ = splitmix64(state_); }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

std::string angle(double a) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", a);
  return buf;
}

const char* kHeader = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

std::string ghz_qasm(int n, double theta) {
  std::string s = kHeader;
  s += "qreg q[" + std::to_string(n) + "];\nh q[0];\nry(" + angle(theta) + ") q[0];\n";
  for (int i = 0; i + 1 < n; ++i) {
    s += "cx q[" + std::to_string(i) + "],q[" + std::to_string(i + 1) + "];\n";
  }
  return s;
}

/// wide_30_brickwork: an ry layer, cz on even pairs, an rz layer, cz on odd
/// pairs. Everything after the ry layer is diagonal, so
/// ⟨Z^⊗30⟩ = Π cos θ_i exactly.
std::string brick30_qasm(Draw& d, double* reference) {
  constexpr int n = 30;
  std::string s = kHeader;
  s += "qreg q[30];\n";
  double prod = 1.0;
  for (int i = 0; i < n; ++i) {
    const double t = d.uniform(-kPi / 3, kPi / 3);
    prod *= std::cos(t);
    s += "ry(" + angle(t) + ") q[" + std::to_string(i) + "];\n";
  }
  for (int i = 0; i + 1 < n; i += 2) {
    s += "cz q[" + std::to_string(i) + "],q[" + std::to_string(i + 1) + "];\n";
  }
  for (int i = 0; i < n; ++i) {
    s += "rz(" + angle(d.uniform(-kPi, kPi)) + ") q[" + std::to_string(i) + "];\n";
  }
  for (int i = 1; i + 1 < n; i += 2) {
    s += "cz q[" + std::to_string(i) + "],q[" + std::to_string(i + 1) + "];\n";
  }
  *reference = prod;
  return s;
}

/// hwe_ansatz_8: seven applications of a two-qubit layer macro.
std::string hwe8_qasm(Draw& d) {
  static const int kPairs[7][2] = {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {1, 2}, {3, 4}, {5, 6}};
  std::string s = kHeader;
  s += "gate layer(a,b) x0,x1 {\n  ry(a) x0;\n  ry(b) x1;\n  cx x0,x1;\n}\nqreg q[8];\n";
  for (const auto& p : kPairs) {
    const double a = d.uniform(-kPi, kPi);
    const double b = d.uniform(-kPi, kPi);
    s += "layer(" + angle(a) + "," + angle(b) + ") q[" + std::to_string(p[0]) + "],q[" +
         std::to_string(p[1]) + "];\n";
  }
  return s;
}

int template_qubits(Template t) {
  return t == Template::kGhz30 || t == Template::kBrick30 ? 30 : 8;
}

std::vector<WorkloadSpec> build_workloads() {
  std::vector<WorkloadSpec> w(4);

  w[0].name = "wide_fragment";
  w[0].why = "30-qubit circuits at cap 16: cut/fragment enumeration and the sim kernels do the "
             "work; the planner is under 3% and batched-branch never runs";
  w[0].classes = {{"ghz30", Template::kGhz30, 7, 16, 0, 0.5, false},
                  {"brick30", Template::kBrick30, 3, 16, 0, 0.5, false}};

  w[1].name = "narrow_branch";
  w[1].why = "8-qubit circuits at caps 3/4: BatchedBranchBackend branch enumeration is over 95% "
             "of the time; cut/fragment never runs";
  w[1].classes = {{"ghz8_cap3", Template::kGhz8, 7, 3, 0, 0.5, false},
                  {"hwe8_cap4", Template::kHwe8, 3, 4, 0, 0.5, false}};

  w[2].name = "nme_plan";
  w[2].why = "the paper's setting: NME wire cuts (pair budget 2, overlap 0.9, kappa 1.22); plan "
             "search dominates and runs on one thread";
  w[2].classes = {{"hwe8_cap6_nme", Template::kHwe8, 1, 6, 2, 0.9, false}};

  w[3].name = "server_mixed";
  w[3].why = "qcut-server over loopback: cache hits set p50 and throughput, cold misses through "
             "the daemon's execution path set p90";
  w[3].classes = {{"hot", Template::kHwe8, 3, 5, 0, 0.5, true},
                  {"cold", Template::kHwe8, 1, 5, 0, 0.5, false}};
  w[3].daemon = true;
  w[3].hot_set = 16;
  return w;
}

}  // namespace

const char* template_name(Template t) {
  switch (t) {
    case Template::kGhz30: return "ghz_30_wide+ry";
    case Template::kBrick30: return "wide_30_brickwork";
    case Template::kGhz8: return "ghz_8+ry";
    case Template::kHwe8: return "hwe_ansatz_8";
  }
  return "?";
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> w = build_workloads();
  return w;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

int block_size(const WorkloadSpec& w) {
  int n = 0;
  for (const ClassSpec& c : w.classes) {
    n += c.share;
  }
  return n;
}

std::string generator_json(const WorkloadSpec& w, std::uint64_t seed) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::ostringstream os;
  os << "{\"workload\": \"" << w.name << "\", \"why\": \"" << w.why << "\", \"seed\": " << seed
     << ", \"shots\": " << w.shots << ", \"observable\": \"all-Z\", ";
  if (w.daemon) {
    os << "\"loop\": \"closed\", \"connections\": " << nproc
       << ", \"workers\": " << nproc << ", \"hot_set\": " << w.hot_set << ", ";
  } else {
    os << "\"loop\": \"closed\", \"callers\": 1, \"pool_threads\": " << nproc << ", ";
  }
  os << "\"classes\": [";
  const int block = block_size(w);
  for (std::size_t i = 0; i < w.classes.size(); ++i) {
    const ClassSpec& c = w.classes[i];
    os << (i ? ", " : "") << "{\"name\": \"" << c.name << "\", \"template\": \""
       << template_name(c.tmpl) << "\", \"share\": " << static_cast<double>(c.share) / block
       << ", \"cap\": " << c.cap << ", \"pair_budget\": " << c.pair_budget
       << ", \"resource_overlap\": " << c.overlap << ", \"hot\": " << (c.hot ? "true" : "false")
       << "}";
  }
  os << "]}";
  return os.str();
}

RequestStream::RequestStream(const WorkloadSpec& w, std::uint64_t seed) : spec_(&w), seed_(seed) {
  for (std::size_t c = 0; c < w.classes.size(); ++c) {
    block_classes_.insert(block_classes_.end(), w.classes[c].share, static_cast<int>(c));
  }
}

int RequestStream::class_at(std::uint64_t i) const {
  const std::uint64_t block = block_classes_.size();
  std::vector<int> order = block_classes_;
  Draw d(seed_, kScheduleStream, i / block);
  for (std::size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[d.next() % k]);
  }
  return order[i % block];
}

BenchRequest RequestStream::make(int cls, std::uint64_t stream, std::uint64_t i) const {
  const ClassSpec& c = spec_->classes[static_cast<std::size_t>(cls)];
  BenchRequest r;
  r.index = i;
  r.cls = cls;
  r.reference = std::numeric_limits<double>::quiet_NaN();
  Draw d(seed_, stream, i);
  r.wire.seed = d.next();
  if (c.hot && stream != kHotStream) {
    // A hot request re-sends one of the fixed hot circuits with a fresh seed.
    const int k = static_cast<int>(d.next() % static_cast<std::uint64_t>(spec_->hot_set));
    BenchRequest h = hot(k, r.wire.seed);
    h.index = i;
    h.cls = cls;
    return h;
  }
  switch (c.tmpl) {
    case Template::kGhz30:
      r.wire.circuit_qasm = ghz_qasm(30, d.uniform(-kPi, kPi));
      r.reference = 1.0;  // even-weight Z string on a|0…0⟩ + b|1…1⟩
      break;
    case Template::kBrick30:
      r.wire.circuit_qasm = brick30_qasm(d, &r.reference);
      break;
    case Template::kGhz8:
      r.wire.circuit_qasm = ghz_qasm(8, d.uniform(-kPi, kPi));
      break;
    case Template::kHwe8:
      r.wire.circuit_qasm = hwe8_qasm(d);
      break;
  }
  r.wire.observable = std::string(static_cast<std::size_t>(template_qubits(c.tmpl)), 'Z');
  r.wire.shots = spec_->shots;
  r.wire.max_fragment_width = c.cap;
  r.wire.pair_budget = c.pair_budget;
  r.wire.resource_overlap = c.overlap;
  r.wire.request_id = spec_->name + "-" + std::to_string(seed_) + "-" + std::to_string(stream) +
                      "-" + std::to_string(i);
  return r;
}

BenchRequest RequestStream::at(std::uint64_t i) const { return make(class_at(i), kTimedStream, i); }

BenchRequest RequestStream::warmup(int cls, int rep) const {
  return make(cls, kWarmupStream,
              static_cast<std::uint64_t>(rep) * spec_->classes.size() +
                  static_cast<std::uint64_t>(cls));
}

BenchRequest RequestStream::hot(int k, std::uint64_t sampling_seed) const {
  int cls = 0;
  while (!spec_->classes[static_cast<std::size_t>(cls)].hot) {
    ++cls;
  }
  BenchRequest r = make(cls, kHotStream, static_cast<std::uint64_t>(k));
  r.wire.seed = sampling_seed;
  r.wire.request_id += "-s" + std::to_string(sampling_seed);
  return r;
}

qcut::svc::EstimateRequest to_estimate_request(const qcut::svc::WireEstimateRequest& w) {
  qcut::svc::EstimateRequest req;
  req.circuit_qasm = w.circuit_qasm;
  req.observable = qcut::Observable::parse(w.observable);
  req.epsilon = w.epsilon;
  req.shot_cap = w.shot_cap;
  req.request_id = w.request_id;
  req.deadline_ms = w.deadline_ms;
  req.planner.max_fragment_width = w.max_fragment_width;
  req.planner.resource_overlap = w.resource_overlap;
  req.planner.pair_budget = w.pair_budget;
  req.planner.allow_gate_cuts = w.allow_gate_cuts != 0;
  req.planner.target_accuracy = w.target_accuracy;
  req.planner.max_cuts = w.max_cuts;
  req.planner.exhaustive_limit = w.exhaustive_limit;
  req.planner.max_nodes = w.max_nodes;
  req.run_cfg.shots = w.shots;
  req.run_cfg.seed = w.seed;
  req.run_cfg.backend = static_cast<qcut::BackendKind>(w.backend);
  return req;
}

bool answer_ok(const BenchRequest& req, double estimate, double ci_halfwidth, bool has_exact,
               double exact) {
  double ref = req.reference;
  if (std::isnan(ref)) {
    if (!has_exact) {
      return std::isfinite(estimate);
    }
    ref = exact;
  }
  return std::isfinite(estimate) && std::abs(estimate - ref) <= 5.0 * ci_halfwidth + 1e-12;
}

}  // namespace qbench
