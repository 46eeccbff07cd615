#include "qcut/svc/wire.hpp"

#include <cstdio>
#include <cstring>
#include <optional>

#include "qcut/common/error.hpp"
#include "qcut/common/fault.hpp"

namespace qcut {
namespace svc {

namespace {

/// Appends little-endian fields to a buffer reserved up front, each integer
/// as one block.
class WireWriter {
 public:
  explicit WireWriter(std::size_t bytes) { buf_.reserve(bytes); }

  /// Starts the buffer with a frame header for `type`; take() fills in its
  /// payload length and checks it against kMaxPayload.
  void frame_header(MsgType type) {
    put(kWireMagic);
    put(kWireVersion);
    put(static_cast<std::uint16_t>(type));
    put(std::uint32_t{0});
    framed_ = true;
  }
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void f64(Real v) {  // IEEE-754 bit pattern via u64
    std::uint64_t bits = 0;
    static_assert(sizeof(Real) == sizeof bits, "Real must be 64-bit");
    std::memcpy(&bits, &v, sizeof bits);
    put(bits);
  }
  void str(const std::string& s) {
    QCUT_CHECK(s.size() <= kMaxPayload, "wire: string exceeds the payload cap");
    put(static_cast<std::uint32_t>(s.size()));
    raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void raw(const std::uint8_t* data, std::size_t size) {
    buf_.insert(buf_.end(), data, data + size);
  }

  std::vector<std::uint8_t> take() {
    if (framed_) {
      const std::size_t payload = buf_.size() - kFrameHeaderSize;
      QCUT_CHECK(payload <= kMaxPayload, "wire: payload of " + std::to_string(payload) +
                                             " bytes exceeds the " +
                                             std::to_string(kMaxPayload) + "-byte frame cap");
      for (std::size_t i = 0; i < 4; ++i) {
        buf_[kFrameHeaderSize - 4 + i] = static_cast<std::uint8_t>(payload >> (8 * i));
      }
    }
    return std::move(buf_);
  }

 private:
  template <class T>
  void put(T v) {
    std::uint8_t le[sizeof v];
    for (std::size_t i = 0; i < sizeof v; ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    raw(le, sizeof v);
  }

  std::vector<std::uint8_t> buf_;
  bool framed_ = false;
};

/// Reads the fields back, throwing qcut::Error("wire: ...") with byte
/// offsets on truncation. expect_done() rejects trailing bytes: a frame
/// must decode to exactly its payload.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : p_(data), n_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  Real f64() {
    const std::uint64_t bits = u64();
    Real v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return s;
  }

  void expect_done() const {
    QCUT_CHECK(off_ == n_, "wire: " + std::to_string(n_ - off_) +
                               " trailing bytes after a complete message (offset " +
                               std::to_string(off_) + ")");
  }

 private:
  void need(std::size_t bytes) const {
    QCUT_CHECK(n_ - off_ >= bytes,
               "wire: truncated field — need " + std::to_string(bytes) + " bytes at offset " +
                   std::to_string(off_) + " of " + std::to_string(n_));
  }

  template <class T>
  T get() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(p_[off_ + i]) << (8 * i));
    }
    off_ += sizeof(T);
    return v;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

bool known_type(std::uint16_t t) {
  return t >= static_cast<std::uint16_t>(MsgType::kEstimateRequest) &&
         t <= static_cast<std::uint16_t>(MsgType::kError);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  WireWriter w(kFrameHeaderSize + frame.payload.size());
  w.frame_header(frame.type);
  w.raw(frame.payload.data(), frame.payload.size());
  return w.take();
}

FrameHeader decode_frame_header(const std::uint8_t* data, std::size_t size) {
  QCUT_CHECK(size >= kFrameHeaderSize, "wire: truncated frame header — got " +
                                           std::to_string(size) + " of " +
                                           std::to_string(kFrameHeaderSize) + " bytes");
  WireReader r(data, size);
  const std::uint32_t magic = r.u32();
  QCUT_CHECK(magic == kWireMagic, "wire: bad magic 0x" + [&] {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", magic);
    return std::string(buf);
  }() + " (not a qcut frame)");
  const std::uint16_t version = r.u16();
  QCUT_CHECK(version == kWireVersion, "wire: unsupported protocol version " +
                                          std::to_string(version) + " (this build speaks v" +
                                          std::to_string(kWireVersion) + ")");
  const std::uint16_t type = r.u16();
  QCUT_CHECK(known_type(type), "wire: unknown message type " + std::to_string(type));
  FrameHeader h;
  h.type = static_cast<MsgType>(type);
  h.payload_len = r.u32();
  QCUT_CHECK(h.payload_len <= kMaxPayload,
             "wire: declared payload of " + std::to_string(h.payload_len) +
                 " bytes exceeds the " + std::to_string(kMaxPayload) + "-byte frame cap");
  return h;
}

Frame decode_frame(const std::vector<std::uint8_t>& bytes) {
  const FrameHeader h = decode_frame_header(bytes.data(), bytes.size());
  QCUT_CHECK(bytes.size() - kFrameHeaderSize >= h.payload_len,
             "wire: truncated payload — header declares " + std::to_string(h.payload_len) +
                 " bytes, " + std::to_string(bytes.size() - kFrameHeaderSize) + " present");
  QCUT_CHECK(bytes.size() - kFrameHeaderSize == h.payload_len,
             "wire: " + std::to_string(bytes.size() - kFrameHeaderSize - h.payload_len) +
                 " trailing bytes after the frame");
  Frame f;
  f.type = h.type;
  f.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderSize), bytes.end());
  return f;
}

namespace {

void write(WireWriter& w, const WireEstimateRequest& req) {
  w.str(req.circuit_qasm);
  w.str(req.observable);
  w.f64(req.epsilon);
  w.u64(req.shots);
  w.u64(req.shot_cap);
  w.u64(req.seed);
  w.u32(static_cast<std::uint32_t>(req.max_fragment_width));
  w.f64(req.resource_overlap);
  w.u32(static_cast<std::uint32_t>(req.pair_budget));
  w.u8(req.allow_gate_cuts);
  w.f64(req.target_accuracy);
  w.u64(req.max_cuts);
  w.u64(req.exhaustive_limit);
  w.u64(req.max_nodes);
  w.u8(req.backend);
  w.str(req.request_id);
  w.u64(req.deadline_ms);
}

void write(WireWriter& w, const WireEstimateResponse& res) {
  w.u8(res.status);
  w.u64(res.retry_after_ms);
  w.str(res.error);
  w.f64(res.estimate);
  w.f64(res.ci_halfwidth);
  w.u8(res.has_exact);
  w.f64(res.exact);
  w.u64(res.shots_used);
  w.f64(res.kappa);
  w.u64(res.plan_cuts);
  w.u64(res.plan_gate_cuts);
  w.f64(res.plan_total_kappa);
  w.f64(res.plan_predicted_shots);
  w.u32(static_cast<std::uint32_t>(res.plan_max_width));
  w.u32(static_cast<std::uint32_t>(res.plan_max_sim_width));
  w.u8(res.plan_cache_hit);
  w.u8(res.eval_cache_hit);
  w.u8(res.coalesced);
  w.str(res.report_json);
  w.u8(res.code);
}

void write(WireWriter& w, const std::string& text) { w.str(text); }

std::size_t text_bytes(const WireEstimateRequest& req) {
  return req.circuit_qasm.size() + req.observable.size() + req.request_id.size();
}
std::size_t text_bytes(const WireEstimateResponse& res) {
  return res.error.size() + res.report_json.size();
}
std::size_t text_bytes(const std::string& text) { return text.size(); }

/// `msg`'s payload, or given a frame type its whole frame, in one buffer
/// reserved up front: every message's fixed-width fields and string
/// lengths fit in 128 bytes.
template <class Msg>
std::vector<std::uint8_t> encode(const Msg& msg, std::optional<MsgType> frame = std::nullopt) {
  WireWriter w(kFrameHeaderSize + 128 + text_bytes(msg));
  if (frame) {
    w.frame_header(*frame);
  }
  write(w, msg);
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> encode_estimate_request(const WireEstimateRequest& req) {
  return encode(req);
}

std::vector<std::uint8_t> encode_frame(const WireEstimateRequest& req) {
  return encode(req, MsgType::kEstimateRequest);
}

WireEstimateRequest decode_estimate_request(const std::vector<std::uint8_t>& payload) {
  fault::maybe_inject(fault::Site::kWireDecode);
  WireReader r(payload);
  WireEstimateRequest req;
  req.circuit_qasm = r.str();
  req.observable = r.str();
  req.epsilon = r.f64();
  req.shots = r.u64();
  req.shot_cap = r.u64();
  req.seed = r.u64();
  req.max_fragment_width = static_cast<std::int32_t>(r.u32());
  req.resource_overlap = r.f64();
  req.pair_budget = static_cast<std::int32_t>(r.u32());
  req.allow_gate_cuts = r.u8();
  req.target_accuracy = r.f64();
  req.max_cuts = r.u64();
  req.exhaustive_limit = r.u64();
  req.max_nodes = r.u64();
  req.backend = r.u8();
  req.request_id = r.str();
  req.deadline_ms = r.u64();
  r.expect_done();
  return req;
}

std::vector<std::uint8_t> encode_estimate_response(const WireEstimateResponse& res) {
  return encode(res);
}

std::vector<std::uint8_t> encode_frame(const WireEstimateResponse& res) {
  return encode(res, MsgType::kEstimateResponse);
}

WireEstimateResponse decode_estimate_response(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  WireEstimateResponse res;
  res.status = r.u8();
  res.retry_after_ms = r.u64();
  res.error = r.str();
  res.estimate = r.f64();
  res.ci_halfwidth = r.f64();
  res.has_exact = r.u8();
  res.exact = r.f64();
  res.shots_used = r.u64();
  res.kappa = r.f64();
  res.plan_cuts = r.u64();
  res.plan_gate_cuts = r.u64();
  res.plan_total_kappa = r.f64();
  res.plan_predicted_shots = r.f64();
  res.plan_max_width = static_cast<std::int32_t>(r.u32());
  res.plan_max_sim_width = static_cast<std::int32_t>(r.u32());
  res.plan_cache_hit = r.u8();
  res.eval_cache_hit = r.u8();
  res.coalesced = r.u8();
  res.report_json = r.str();
  res.code = r.u8();
  r.expect_done();
  return res;
}

std::string decode_metrics_response(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  std::string text = r.str();
  r.expect_done();
  return text;
}

std::vector<std::uint8_t> encode_error(const std::string& message) {
  return encode(message);
}

std::string decode_error(const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  std::string message = r.str();
  r.expect_done();
  return message;
}

std::vector<std::uint8_t> encode_text_frame(MsgType type, const std::string& text) {
  return encode(text, type);
}

}  // namespace svc
}  // namespace qcut
