// Workload definitions and deterministic request generation.
//
// Every request is built from a fixed structural template (GHZ line,
// hardware-efficient ansatz, brickwork) whose angles and sampling seed are
// drawn from the workload seed and the request's position in the stream, so
// the structure repeats across requests (as in variational traffic) but no
// two requests are identical. Generation is counter-based: request i depends
// only on (workload, seed, i), never on how many requests came before or on
// which thread asks for it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qcut/svc/api.hpp"
#include "qcut/svc/wire.hpp"

namespace qbench {

enum class Template {
  kGhz30,    ///< ghz_30_wide with ry(θ) on q0; ⟨Z^⊗30⟩ = 1 analytically
  kBrick30,  ///< wide_30_brickwork with drawn ry/rz angles; ⟨Z^⊗30⟩ = Π cos θ_i
  kGhz8,     ///< ghz_8 with ry(θ) on q0
  kHwe8,     ///< hwe_ansatz_8 (layer macro) with 14 drawn angles
};

const char* template_name(Template t);

/// One request class of a workload: a template plus the planner settings
/// its requests carry.
struct ClassSpec {
  std::string name;
  Template tmpl;
  int share = 1;        ///< requests of this class per schedule block
  int cap = 0;          ///< PlannerConfig::max_fragment_width
  int pair_budget = 0;  ///< NME pairs the planner may spend
  double overlap = 0.5; ///< resource_overlap of those pairs
  bool hot = false;     ///< drawn from the workload's fixed hot set
};

struct WorkloadSpec {
  std::string name;
  std::string why;
  /// Ordered from the cheapest class to the most expensive one, so the
  /// cumulative shares are the latency-order class boundaries.
  std::vector<ClassSpec> classes;
  std::uint64_t shots = 100000;
  bool daemon = false;   ///< drive qcut-server instead of svc::estimate
  int hot_set = 0;       ///< fixed circuits the hot class draws from
};

const std::vector<WorkloadSpec>& workloads();
/// Null when no workload has that name.
const WorkloadSpec* find_workload(const std::string& name);

/// Sum of the class shares: the length of one schedule block.
int block_size(const WorkloadSpec& w);

/// The workload's generator parameters as one JSON object.
std::string generator_json(const WorkloadSpec& w, std::uint64_t seed);

struct BenchRequest {
  std::uint64_t index = 0;
  int cls = 0;
  qcut::svc::WireEstimateRequest wire;
  /// Analytic ⟨O⟩ where the template has one; NaN otherwise (the answer
  /// check then uses the result's own exact reference, when it has one).
  double reference = 0.0;
};

class RequestStream {
 public:
  RequestStream(const WorkloadSpec& w, std::uint64_t seed);

  /// The i-th request of the timed stream.
  BenchRequest at(std::uint64_t i) const;
  /// Warm-up requests: one per class and repetition, drawn from a stream
  /// disjoint from the timed one.
  BenchRequest warmup(int cls, int rep) const;
  /// The hot set's k-th circuit, warmed into the daemon's caches.
  BenchRequest hot(int k, std::uint64_t sampling_seed) const;
  /// Class of request i: each block of block_size() requests holds exactly
  /// `share` requests of every class, in a seeded order.
  int class_at(std::uint64_t i) const;

  const WorkloadSpec& spec() const noexcept { return *spec_; }

 private:
  BenchRequest make(int cls, std::uint64_t stream, std::uint64_t i) const;

  const WorkloadSpec* spec_;
  std::uint64_t seed_;
  std::vector<int> block_classes_;  ///< class of each slot before shuffling
};

/// The request the daemon builds from a wire request (same field mapping as
/// qcut-server), for in-process runs of the identical request.
qcut::svc::EstimateRequest to_estimate_request(const qcut::svc::WireEstimateRequest& w);

/// The answer check: |estimate − reference| <= 5·ci_halfwidth, against the
/// analytic reference when there is one, else the run's exact reference.
/// Requests with neither pass.
bool answer_ok(const BenchRequest& req, double estimate, double ci_halfwidth, bool has_exact,
               double exact);

}  // namespace qbench
