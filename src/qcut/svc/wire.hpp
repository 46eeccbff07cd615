// The qcut-server wire protocol: length-prefixed binary frames over TCP.
//
// Frame layout (all integers little-endian):
//
//   u32 magic   = 0x54554351 ("QCUT" as bytes Q,C,U,T)
//   u16 version = 2
//   u16 type    (MsgType)
//   u32 payload_len   (<= kMaxPayload = 16 MiB)
//   u8  payload[payload_len]
//
// Payloads are flat field sequences (wire.cpp's WireWriter and WireReader):
// fixed-width little-endian integers, doubles shipped as their
// IEEE-754 bit pattern (bit-exact round trip, NaN-safe — the "exact" field
// of a wide run is NaN on purpose), strings as u32 length + raw bytes.
// Decoding is strict: truncated fields, oversized frames, bad magic/version
// and trailing bytes all throw qcut::Error with offset diagnostics
// (property-tested in test_wire_protocol.cpp).
//
// Version policy: v1 carried the circuit as QASM text plus the planner's
// scalar configuration (an empty device model is synthesized server-side
// from the scalars, exactly as PlannerConfig documents). v2 (this build)
// appends `deadline_ms` to the request and the numeric ErrorCode `code` to
// the response — the request-lifecycle fields. Structured DeviceModel
// shipping remains a future version. Unknown versions and types are
// rejected, never skipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qcut/common/types.hpp"

namespace qcut {
namespace svc {

inline constexpr std::uint32_t kWireMagic = 0x54554351u;  // "QCUT"
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::uint32_t kMaxPayload = 16u * 1024u * 1024u;
inline constexpr std::size_t kFrameHeaderSize = 12;

enum class MsgType : std::uint16_t {
  kEstimateRequest = 1,
  kEstimateResponse = 2,
  kMetricsRequest = 3,
  kMetricsResponse = 4,
  kError = 5,  ///< payload: string diagnostic (malformed request, etc.)
};

struct Frame {
  MsgType type = MsgType::kError;
  std::vector<std::uint8_t> payload;
};

/// Serializes header + payload. Throws if the payload exceeds kMaxPayload.
/// The overloads below build a message's frame the same way, header and
/// payload in one buffer sized up front: encode_frame(req) is
/// encode_frame(Frame{MsgType::kEstimateRequest, encode_estimate_request(req)})
/// byte for byte.
std::vector<std::uint8_t> encode_frame(const Frame& frame);

struct FrameHeader {
  MsgType type = MsgType::kError;
  std::uint32_t payload_len = 0;
};

/// Decodes and validates the 12-byte header (magic, version, type, length).
/// Throws qcut::Error on short input, bad magic, unsupported version,
/// unknown type, or an oversized declared payload.
FrameHeader decode_frame_header(const std::uint8_t* data, std::size_t size);

/// Whole-buffer decode: header + exactly payload_len bytes. Throws on
/// truncated payloads and on trailing bytes after the frame.
Frame decode_frame(const std::vector<std::uint8_t>& bytes);

// ---- message payloads ------------------------------------------------------

/// v2 estimate request: QASM circuit + observable + policy + planner scalars
/// + deadline.
struct WireEstimateRequest {
  std::string circuit_qasm;
  std::string observable;
  Real epsilon = 0.0;
  std::uint64_t shots = 0;
  std::uint64_t shot_cap = 0;
  std::uint64_t seed = 1234;
  std::int32_t max_fragment_width = 0;
  Real resource_overlap = 0.5;
  std::int32_t pair_budget = 0;
  std::uint8_t allow_gate_cuts = 1;
  Real target_accuracy = 0.05;
  std::uint64_t max_cuts = 8;
  std::uint64_t exhaustive_limit = 12;
  std::uint64_t max_nodes = 1000000;
  /// BackendKind as integer: 0 serial-shot, 1 batched-branch (the
  /// default). 2, the retired fragment kind, is still accepted and runs as 1.
  std::uint8_t backend = 1;
  std::string request_id;
  /// Client deadline in milliseconds, measured from server admission; the
  /// server clamps it to --max-deadline-ms. 0 → none (v2).
  std::uint64_t deadline_ms = 0;
};

enum class WireStatus : std::uint8_t {
  kOk = 0,
  kRetryAfter = 1,  ///< admission control rejected; retry_after_ms is set
  kError = 2,       ///< request failed; `error` carries the diagnostic
};

struct WireEstimateResponse {
  std::uint8_t status = 0;  ///< WireStatus
  std::uint64_t retry_after_ms = 0;
  std::string error;
  Real estimate = 0.0;
  Real ci_halfwidth = 0.0;
  std::uint8_t has_exact = 0;
  Real exact = 0.0;
  std::uint64_t shots_used = 0;
  Real kappa = 1.0;
  std::uint64_t plan_cuts = 0;
  std::uint64_t plan_gate_cuts = 0;
  Real plan_total_kappa = 1.0;
  Real plan_predicted_shots = 0.0;
  std::int32_t plan_max_width = 0;
  std::int32_t plan_max_sim_width = 0;
  std::uint8_t plan_cache_hit = 0;
  std::uint8_t eval_cache_hit = 0;
  std::uint8_t coalesced = 0;
  std::string report_json;  ///< the run's RunReport document
  /// qcut::ErrorCode as its wire-stable numeric value (v2): kOk on success,
  /// the failure taxonomy code otherwise. Lets clients classify retryable
  /// (overloaded) vs permanent (invalid_request) without parsing `error`.
  std::uint8_t code = 0;
};

std::vector<std::uint8_t> encode_estimate_request(const WireEstimateRequest& req);
std::vector<std::uint8_t> encode_frame(const WireEstimateRequest& req);
WireEstimateRequest decode_estimate_request(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_estimate_response(const WireEstimateResponse& res);
std::vector<std::uint8_t> encode_frame(const WireEstimateResponse& res);
WireEstimateResponse decode_estimate_response(const std::vector<std::uint8_t>& payload);

/// Metrics request payload is empty; the response is the plaintext dump
/// (one "qcut_<counter> <value>" line per counter, plus service gauges),
/// framed by encode_text_frame.
std::string decode_metrics_response(const std::vector<std::uint8_t>& payload);

std::vector<std::uint8_t> encode_error(const std::string& message);
std::string decode_error(const std::vector<std::uint8_t>& payload);

/// An error or metrics-response frame: its payload is the one string.
std::vector<std::uint8_t> encode_text_frame(MsgType type, const std::string& text);

}  // namespace svc
}  // namespace qcut
