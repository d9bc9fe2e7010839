#include "serve/binary_protocol.hpp"

#include <cstring>

#include "common/crc32.hpp"
#include "common/record_log.hpp"
#include "common/strings.hpp"

namespace gpuperf::serve::binary {

namespace {

constexpr std::uint8_t kMinVerb = static_cast<std::uint8_t>(Verb::kPredict);
constexpr std::uint8_t kMaxVerb =
    static_cast<std::uint8_t>(Verb::kReady);

std::string encode_frame(Verb verb, std::uint8_t flags,
                         std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.push_back(static_cast<char>(kMagic));
  out.push_back(static_cast<char>(kVersion));
  out.push_back(static_cast<char>(verb));
  out.push_back(static_cast<char>(flags));
  put_u32_le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32_le(out, crc32(payload));
  out.append(payload);
  return out;
}

}  // namespace

std::string_view verb_name(Verb verb) {
  switch (verb) {
    case Verb::kPredict: return "predict";
    case Verb::kRank: return "rank";
    case Verb::kDse: return "dse";
    case Verb::kAnalyze: return "analyze";
    case Verb::kReload: return "reload";
    case Verb::kModelInfo: return "model_info";
    case Verb::kStats: return "stats";
    case Verb::kPing: return "ping";
    case Verb::kShutdown: return "shutdown";
    case Verb::kHealth: return "health";
    case Verb::kReady: return "ready";
  }
  return "";
}

bool verb_from_name(std::string_view name, Verb& out) {
  for (std::uint8_t v = kMinVerb; v <= kMaxVerb; ++v) {
    if (verb_name(static_cast<Verb>(v)) == name) {
      out = static_cast<Verb>(v);
      return true;
    }
  }
  return false;
}

std::string_view decode_status_name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kNeedMore: return "need_more";
    case DecodeStatus::kFrame: return "frame";
    case DecodeStatus::kBadMagic: return "bad_magic";
    case DecodeStatus::kBadVersion: return "bad_version";
    case DecodeStatus::kBadVerb: return "bad_verb";
    case DecodeStatus::kBadCrc: return "bad_crc";
    case DecodeStatus::kTooLarge: return "too_large";
  }
  return "";
}

DecodeResult decode_frame(std::string_view bytes,
                          const InputLimits& limits) {
  DecodeResult r;
  if (bytes.empty()) return r;  // kNeedMore
  if (static_cast<unsigned char>(bytes[0]) != kMagic) {
    r.status = DecodeStatus::kBadMagic;
    r.error = "bad frame magic";
    return r;
  }
  if (bytes.size() >= 2 &&
      static_cast<std::uint8_t>(bytes[1]) != kVersion) {
    r.status = DecodeStatus::kBadVersion;
    r.error = "unsupported frame version " +
              std::to_string(static_cast<unsigned>(
                  static_cast<std::uint8_t>(bytes[1])));
    return r;
  }
  if (bytes.size() >= 3) {
    const std::uint8_t verb = static_cast<std::uint8_t>(bytes[2]);
    if (verb < kMinVerb || verb > kMaxVerb) {
      r.status = DecodeStatus::kBadVerb;
      r.error =
          "unknown frame verb " + std::to_string(unsigned{verb});
      return r;
    }
  }
  if (bytes.size() < kHeaderBytes) return r;  // kNeedMore
  const std::uint32_t length = get_u32_le(bytes.data() + 4);
  // Enforced from the header alone: an adversarial length never makes
  // the connection buffer grow past the budget.
  if (length > limits.max_frame_payload_bytes) {
    r.status = DecodeStatus::kTooLarge;
    r.error = "frame payload of " + std::to_string(length) +
              " bytes exceeds the " +
              std::to_string(limits.max_frame_payload_bytes) +
              "-byte limit";
    return r;
  }
  if (bytes.size() < kHeaderBytes + length) return r;  // kNeedMore
  const std::string_view payload = bytes.substr(kHeaderBytes, length);
  if (crc32(payload) != get_u32_le(bytes.data() + 8)) {
    r.status = DecodeStatus::kBadCrc;
    r.error = "frame payload fails its CRC-32 check";
    return r;
  }
  r.status = DecodeStatus::kFrame;
  r.frame.version = static_cast<std::uint8_t>(bytes[1]);
  r.frame.verb = static_cast<Verb>(static_cast<std::uint8_t>(bytes[2]));
  r.frame.flags = static_cast<std::uint8_t>(bytes[3]);
  r.frame.payload = payload;
  r.consumed = kHeaderBytes + length;
  return r;
}

std::string encode_request(Verb verb, std::string_view args) {
  return encode_frame(verb, 0, args);
}

std::string encode_response(Verb verb, bool ok, std::string_view body) {
  return encode_frame(verb, ok ? 0 : kFlagError, body);
}

Request to_request(const FrameView& frame) {
  // The verb already arrived as a wire id, so only the payload goes
  // through the line grammar (same tokenizer, same flag rules) — a
  // binary request never re-tokenizes its verb, and a bare verb skips
  // the tokenizer entirely.
  Request request;
  request.verb = verb_name(frame.verb);
  const std::string_view args = trim(frame.payload);
  if (args.empty()) {
    request.raw = request.verb;
    return request;
  }
  request.raw = request.verb;
  request.raw += ' ';
  request.raw.append(args);
  request.cmd = parse_command(split_ws(args));
  return request;
}

}  // namespace gpuperf::serve::binary
