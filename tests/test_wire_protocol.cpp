// Property tests for the service wire protocol: encode∘decode ≡ identity on
// randomized messages (doubles compared by bit pattern, NaN included), and
// strict rejection — with usable diagnostics — of truncated, oversized,
// corrupted, and trailing-byte inputs. Three fixed frames pin the layout
// by digest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "qcut/common/error.hpp"
#include "qcut/common/rng.hpp"
#include "qcut/svc/wire.hpp"
#include "test_helpers.hpp"

namespace qcut {
namespace svc {
namespace {

std::uint64_t bits_of(Real v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

Real real_from_bits(std::uint64_t b) {
  Real v = 0.0;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

std::string random_string(Rng& rng, std::size_t max_len) {
  const std::size_t len = rng.uniform_u64(max_len + 1);
  std::string s(len, '\0');
  for (std::size_t i = 0; i < len; ++i) {
    s[i] = static_cast<char>(rng.uniform_u64(256));  // all byte values, incl. NUL
  }
  return s;
}

/// Any 64-bit pattern is a legal f64 on the wire (the codec never interprets
/// the value) — exercise NaNs, infinities, and denormals alike.
Real random_real(Rng& rng) { return real_from_bits(rng.uniform_u64(~0ULL)); }

WireEstimateRequest random_request(Rng& rng) {
  WireEstimateRequest req;
  req.circuit_qasm = random_string(rng, 200);
  req.observable = random_string(rng, 16);
  req.epsilon = random_real(rng);
  req.shots = rng.uniform_u64(~0ULL);
  req.shot_cap = rng.uniform_u64(~0ULL);
  req.seed = rng.uniform_u64(~0ULL);
  req.max_fragment_width = static_cast<std::int32_t>(rng.uniform_u64(1u << 31));
  req.resource_overlap = random_real(rng);
  req.pair_budget = static_cast<std::int32_t>(rng.uniform_u64(1u << 31));
  req.allow_gate_cuts = static_cast<std::uint8_t>(rng.uniform_u64(256));
  req.target_accuracy = random_real(rng);
  req.max_cuts = rng.uniform_u64(~0ULL);
  req.exhaustive_limit = rng.uniform_u64(~0ULL);
  req.max_nodes = rng.uniform_u64(~0ULL);
  req.backend = static_cast<std::uint8_t>(rng.uniform_u64(256));
  req.request_id = random_string(rng, 40);
  req.deadline_ms = rng.uniform_u64(~0ULL);
  return req;
}

WireEstimateResponse random_response(Rng& rng) {
  WireEstimateResponse res;
  res.status = static_cast<std::uint8_t>(rng.uniform_u64(256));
  res.retry_after_ms = rng.uniform_u64(~0ULL);
  res.error = random_string(rng, 100);
  res.estimate = random_real(rng);
  res.ci_halfwidth = random_real(rng);
  res.has_exact = static_cast<std::uint8_t>(rng.uniform_u64(256));
  res.exact = random_real(rng);
  res.shots_used = rng.uniform_u64(~0ULL);
  res.kappa = random_real(rng);
  res.plan_cuts = rng.uniform_u64(~0ULL);
  res.plan_gate_cuts = rng.uniform_u64(~0ULL);
  res.plan_total_kappa = random_real(rng);
  res.plan_predicted_shots = random_real(rng);
  res.plan_max_width = static_cast<std::int32_t>(rng.uniform_u64(1u << 31));
  res.plan_max_sim_width = static_cast<std::int32_t>(rng.uniform_u64(1u << 31));
  res.plan_cache_hit = static_cast<std::uint8_t>(rng.uniform_u64(256));
  res.eval_cache_hit = static_cast<std::uint8_t>(rng.uniform_u64(256));
  res.coalesced = static_cast<std::uint8_t>(rng.uniform_u64(256));
  res.report_json = random_string(rng, 300);
  res.code = static_cast<std::uint8_t>(rng.uniform_u64(256));
  return res;
}

TEST(WireProtocol, RequestRoundTripIsIdentity) {
  Rng rng(2024, 1);
  for (int trial = 0; trial < 200; ++trial) {
    const WireEstimateRequest req = random_request(rng);
    const WireEstimateRequest back = decode_estimate_request(encode_estimate_request(req));
    EXPECT_EQ(back.circuit_qasm, req.circuit_qasm);
    EXPECT_EQ(back.observable, req.observable);
    EXPECT_EQ(bits_of(back.epsilon), bits_of(req.epsilon));
    EXPECT_EQ(back.shots, req.shots);
    EXPECT_EQ(back.shot_cap, req.shot_cap);
    EXPECT_EQ(back.seed, req.seed);
    EXPECT_EQ(back.max_fragment_width, req.max_fragment_width);
    EXPECT_EQ(bits_of(back.resource_overlap), bits_of(req.resource_overlap));
    EXPECT_EQ(back.pair_budget, req.pair_budget);
    EXPECT_EQ(back.allow_gate_cuts, req.allow_gate_cuts);
    EXPECT_EQ(bits_of(back.target_accuracy), bits_of(req.target_accuracy));
    EXPECT_EQ(back.max_cuts, req.max_cuts);
    EXPECT_EQ(back.exhaustive_limit, req.exhaustive_limit);
    EXPECT_EQ(back.max_nodes, req.max_nodes);
    EXPECT_EQ(back.backend, req.backend);
    EXPECT_EQ(back.request_id, req.request_id);
    EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  }
}

TEST(WireProtocol, MutatedRequestsDecodeOrThrowTypedErrors) {
  // Byte-mutated request payloads either decode or fail with qcut::Error —
  // never a crash or an untyped exception.
  Rng rng(2024, 7);
  int decoded = 0;
  int rejected = 0;
  for (const testing::Mutation kind : testing::kAllMutations) {
    for (int i = 0; i < 2000; ++i) {
      const std::vector<std::uint8_t> payload = encode_estimate_request(random_request(rng));
      const std::vector<std::uint8_t> mutant = testing::mutate_bytes(payload, kind, rng);
      try {
        (void)decode_estimate_request(mutant);
        ++decoded;
      } catch (const Error&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << testing::mutation_name(kind) << " #" << i
                      << ": untyped exception: " << e.what();
      }
    }
  }
  // Flips inside a field still decode; the other mutations shift the layout.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(WireProtocol, ResponseRoundTripIsIdentity) {
  Rng rng(2024, 2);
  for (int trial = 0; trial < 200; ++trial) {
    const WireEstimateResponse res = random_response(rng);
    const std::vector<std::uint8_t> payload = encode_estimate_response(res);
    const WireEstimateResponse back = decode_estimate_response(payload);
    EXPECT_EQ(encode_estimate_response(back), payload);  // canonical form is a fixpoint
    EXPECT_EQ(bits_of(back.estimate), bits_of(res.estimate));
    EXPECT_EQ(bits_of(back.exact), bits_of(res.exact));
    EXPECT_EQ(back.report_json, res.report_json);
    EXPECT_EQ(back.status, res.status);
    EXPECT_EQ(back.code, res.code);
  }
}

TEST(WireProtocol, NanAndInfinitySurviveTheWire) {
  WireEstimateResponse res;
  res.exact = std::nan("");
  res.estimate = std::numeric_limits<Real>::infinity();
  res.kappa = -0.0;
  const WireEstimateResponse back = decode_estimate_response(encode_estimate_response(res));
  EXPECT_TRUE(std::isnan(back.exact));
  EXPECT_EQ(bits_of(back.exact), bits_of(res.exact));
  EXPECT_EQ(back.estimate, std::numeric_limits<Real>::infinity());
  EXPECT_EQ(bits_of(back.kappa), bits_of(res.kappa));
}

TEST(WireProtocol, FrameRoundTripIsIdentity) {
  Rng rng(2024, 3);
  for (int trial = 0; trial < 100; ++trial) {
    Frame f;
    f.type = static_cast<MsgType>(1 + rng.uniform_u64(5));
    const std::size_t len = rng.uniform_u64(2000);
    f.payload.resize(len);
    for (auto& b : f.payload) {
      b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    }
    const Frame back = decode_frame(encode_frame(f));
    EXPECT_EQ(back.type, f.type);
    EXPECT_EQ(back.payload, f.payload);
  }
}

TEST(WireProtocol, EveryTruncationOfAValidFrameIsRejected) {
  Frame f;
  f.type = MsgType::kEstimateRequest;
  f.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<std::uint8_t> full = encode_frame(f);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(full.begin(),
                                           full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_frame(prefix), Error) << "prefix length " << cut;
  }
  EXPECT_NO_THROW(decode_frame(full));
}

TEST(WireProtocol, TrailingBytesAfterAFrameAreRejected) {
  Frame f;
  f.type = MsgType::kMetricsRequest;
  std::vector<std::uint8_t> bytes = encode_frame(f);
  bytes.push_back(0xab);
  try {
    decode_frame(bytes);
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos) << e.what();
  }
}

TEST(WireProtocol, BadMagicVersionTypeAndOversizeAreRejectedWithDiagnostics) {
  Frame f;
  f.type = MsgType::kEstimateRequest;
  const std::vector<std::uint8_t> good = encode_frame(f);

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xff;
  try {
    decode_frame(bad_magic);
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = 99;
  try {
    decode_frame(bad_version);
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }

  std::vector<std::uint8_t> bad_type = good;
  bad_type[6] = 42;
  EXPECT_THROW(decode_frame(bad_type), Error);

  // Oversized declared payload: header claims > kMaxPayload bytes.
  std::vector<std::uint8_t> oversize = good;
  oversize[8] = 0xff;
  oversize[9] = 0xff;
  oversize[10] = 0xff;
  oversize[11] = 0xff;
  try {
    decode_frame(oversize);
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos) << e.what();
  }

  // And the encoder refuses to build such a frame in the first place.
  Frame huge;
  huge.type = MsgType::kError;
  huge.payload.resize(kMaxPayload + 1);
  EXPECT_THROW(encode_frame(huge), Error);
}

TEST(WireProtocol, TruncatedPayloadFieldsReportOffsets) {
  // Chop a valid message payload at every byte: the decoder must throw (or,
  // where the prefix happens to parse as shorter strings, never crash).
  WireEstimateRequest req;
  req.circuit_qasm = "OPENQASM 2.0;";
  req.observable = "ZZ";
  req.request_id = "r1";
  const std::vector<std::uint8_t> payload = encode_estimate_request(req);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(payload.begin(),
                                           payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_estimate_request(prefix), Error) << "prefix length " << cut;
  }
  EXPECT_NO_THROW(decode_estimate_request(payload));

  try {
    decode_estimate_request({});
    FAIL() << "expected rejection";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
  }
}

/// Fixed messages whose encoded frames are pinned below.
WireEstimateRequest pinned_request() {
  WireEstimateRequest req;
  req.circuit_qasm =
      "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\n"
      "cx q[0],q[1];\nry(0.375) q[2];\ncx q[1],q[2];\n";
  req.observable = "ZXZ";
  req.epsilon = 0.05;
  req.shots = 100000;
  req.shot_cap = 2000000;
  req.seed = 3102;
  req.max_fragment_width = -6;
  req.resource_overlap = 0.9;
  req.pair_budget = 2;
  req.allow_gate_cuts = 0;
  req.target_accuracy = 0.025;
  req.max_cuts = 8;
  req.exhaustive_limit = 12;
  req.max_nodes = 1000000;
  req.backend = 1;
  req.request_id = "pin-1";
  req.deadline_ms = 250;
  return req;
}

WireEstimateResponse pinned_response() {
  WireEstimateResponse res;
  res.status = 0;
  res.retry_after_ms = 17;
  res.estimate = -0.123456789;
  res.ci_halfwidth = 0.0078125;
  res.has_exact = 0;
  res.exact = std::nan("");
  res.shots_used = 99999;
  res.kappa = 2.2360679774997896;
  res.plan_cuts = 2;
  res.plan_gate_cuts = 1;
  res.plan_total_kappa = 5.0;
  res.plan_predicted_shots = 8000.5;
  res.plan_max_width = 6;
  res.plan_max_sim_width = -1;
  res.plan_cache_hit = 1;
  res.eval_cache_hit = 0;
  res.coalesced = 1;
  res.report_json =
      "{\"backend\": \"batched-branch\", \"shots\": {\"sampled\": 99999}, "
      "\"pool\": {\"threads\": 4, \"tasks\": 3}, \"stages\": [\"plan.search\", "
      "\"engine.run\", \"fragment.eval\"]}";
  res.code = 0;
  return res;
}

std::uint64_t frame_digest(const std::vector<std::uint8_t>& frame) {
  return testing::fnv64(std::string(frame.begin(), frame.end()));
}

TEST(WireProtocol, EncodedFramesMatchTheirPinnedDigests) {
  // The wire layout is fixed: these FNV-64 digests were recorded from an
  // encoder that built each payload and its header in separate buffers, and
  // the one-buffer frame encoders must reproduce them byte for byte.
  const WireEstimateRequest req = pinned_request();
  const WireEstimateResponse res = pinned_response();
  const std::string error = "server: unexpected message type 9";
  EXPECT_EQ(frame_digest(encode_frame(req)), 0xe5ed4b5c8a47ea8bull);
  EXPECT_EQ(frame_digest(encode_frame(res)), 0x06e29e1b79ebcc4eull);
  EXPECT_EQ(frame_digest(encode_text_frame(MsgType::kError, error)), 0x39afbf50ab19b333ull);
  EXPECT_EQ(encode_frame(req),
            encode_frame(Frame{MsgType::kEstimateRequest, encode_estimate_request(req)}));
  EXPECT_EQ(encode_frame(res),
            encode_frame(Frame{MsgType::kEstimateResponse, encode_estimate_response(res)}));
  EXPECT_EQ(encode_text_frame(MsgType::kError, error),
            encode_frame(Frame{MsgType::kError, encode_error(error)}));
  EXPECT_EQ(encode_frame(req).size(), 232u);
  EXPECT_EQ(encode_frame(res).size(), 266u);
}

TEST(WireProtocol, ReaderRejectsTrailingBytesInPayloads) {
  WireEstimateRequest req;
  std::vector<std::uint8_t> payload = encode_estimate_request(req);
  payload.push_back(0);
  EXPECT_THROW(decode_estimate_request(payload), Error);

  std::vector<std::uint8_t> err_payload = encode_error("boom");
  EXPECT_EQ(decode_error(err_payload), "boom");
  err_payload.push_back(7);
  EXPECT_THROW(decode_error(err_payload), Error);
}

}  // namespace
}  // namespace svc
}  // namespace qcut
