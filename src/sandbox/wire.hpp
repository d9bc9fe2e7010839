// Pipe protocol between the serving parent and its sandboxed DCA
// workers (docs/ROBUSTNESS.md "Crash isolation").  One "GPWK" record
// per message, framed by common/record_log.hpp like the journals
// (docs/FILE_FORMATS.md "CRC-framed records").
//
// The payload is line-oriented text — a header block terminated by a
// blank line, then an optional free-form body (serialized features, or
// raw PTX for the corpus-replay verb).  A worker is a crash domain, so
// the parent treats *any* framing violation (bad magic, CRC mismatch,
// truncated payload, oversized length) as evidence the worker died
// mid-write and recycles it; nothing here trusts the peer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "core/features.hpp"

namespace gpuperf::sandbox {

/// Frames past this payload size are a protocol violation (a healthy
/// worker never sends more than a few KiB of features text).
constexpr std::size_t kMaxFramePayload = 1u << 20;

enum class Verb : std::uint8_t {
  kPing = 0,     // liveness probe; response carries rss only
  kCompute = 1,  // DCA feature extraction for a zoo model
  kPtx = 2,      // parse raw PTX bytes (fuzz-corpus replay surface)
  kExit = 3,     // graceful recycle: respond, then _exit(0)
};

enum class Status : std::uint8_t {
  kOk = 0,
  kTimeout = 1,  // cooperative Deadline expired inside the worker
  kFailed = 2,   // typed analysis failure (bad kernel, injected fault,
                 // allocation refusal under RLIMIT_AS)
  kInvalid = 3,  // malformed request (a parent bug, not a worker crash)
};

struct WorkerRequest {
  Verb verb = Verb::kPing;
  std::string model;           // kCompute: zoo model name
  std::int64_t deadline_ms = 0;   // remaining wall budget; 0 = unlimited
  std::uint64_t step_budget = 0;  // 0 = unlimited
  std::string fault_spec;      // armed dca.* sites, grammar of fault.hpp
  std::string body;            // kPtx: raw PTX source
};

struct WorkerResponse {
  Status status = Status::kFailed;
  std::string error;          // non-ok: one-line message
  std::size_t rss_kb = 0;     // worker RSS after the request
  std::uint64_t served = 0;   // requests this worker has handled
  core::ModelFeatures features;  // kCompute + kOk only
};

std::string encode_request(const WorkerRequest& request);
std::string encode_response(const WorkerResponse& response);

/// nullopt on any malformed payload — never throws, never trusts.
std::optional<WorkerRequest> parse_request(const std::string& payload);
std::optional<WorkerResponse> parse_response(const std::string& payload);

/// Wrap a payload in the GPWK frame.
std::string encode_frame(const std::string& payload);

/// Blocking frame read from `fd` (EINTR-safe): reads the header, then
/// the payload, validates magic/length/CRC.  Returns nullopt on EOF or
/// any violation.  Used by both sides; the parent bounds the wait with
/// poll_readable() *before* calling.
std::optional<std::string> read_frame(int fd);

std::string_view status_name(Status status);

}  // namespace gpuperf::sandbox
