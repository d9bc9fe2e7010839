#include "sandbox/wire.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/record_log.hpp"
#include "common/strings.hpp"
#include "common/subprocess.hpp"

namespace gpuperf::sandbox {

namespace {

constexpr std::string_view kFrameMagic = "GPWK";

std::string_view verb_name(Verb verb) {
  switch (verb) {
    case Verb::kPing: return "ping";
    case Verb::kCompute: return "compute";
    case Verb::kPtx: return "ptx";
    case Verb::kExit: return "exit";
  }
  return "ping";
}

std::optional<Verb> parse_verb(std::string_view name) {
  if (name == "ping") return Verb::kPing;
  if (name == "compute") return Verb::kCompute;
  if (name == "ptx") return Verb::kPtx;
  if (name == "exit") return Verb::kExit;
  return std::nullopt;
}

std::optional<Status> parse_status(std::string_view name) {
  if (name == "ok") return Status::kOk;
  if (name == "timeout") return Status::kTimeout;
  if (name == "failed") return Status::kFailed;
  if (name == "invalid") return Status::kInvalid;
  return std::nullopt;
}

/// Split the payload at the first blank line into (header, body).  The
/// header block never contains an empty line; the body is verbatim.
std::pair<std::string, std::string> split_header(
    const std::string& payload) {
  const auto pos = payload.find("\n\n");
  if (pos == std::string::npos) return {payload, std::string()};
  return {payload.substr(0, pos + 1), payload.substr(pos + 2)};
}

/// `rest` of a header line after "key " — preserves internal spaces.
std::string line_rest(const std::string& line, std::size_t key_len) {
  if (line.size() <= key_len + 1) return std::string();
  return line.substr(key_len + 1);
}

}  // namespace

std::string_view status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kTimeout: return "timeout";
    case Status::kFailed: return "failed";
    case Status::kInvalid: return "invalid";
  }
  return "failed";
}

std::string encode_request(const WorkerRequest& request) {
  std::ostringstream os;
  os << "gpuperf-worker-req v1\n";
  os << "verb " << verb_name(request.verb) << "\n";
  if (!request.model.empty()) os << "model " << request.model << "\n";
  if (request.deadline_ms > 0)
    os << "deadline_ms " << request.deadline_ms << "\n";
  if (request.step_budget > 0)
    os << "step_budget " << request.step_budget << "\n";
  // The fault-spec grammar is space-free (site=action[:p][*n];...), so
  // a single header line round-trips it exactly.
  if (!request.fault_spec.empty())
    os << "fault " << request.fault_spec << "\n";
  os << "\n";
  os << request.body;
  return os.str();
}

std::optional<WorkerRequest> parse_request(const std::string& payload) {
  const auto [header, body] = split_header(payload);
  WorkerRequest out;
  out.body = body;
  bool have_verb = false;
  try {
    std::istringstream is(header);
    std::string line;
    if (!std::getline(is, line) ||
        trim(line) != "gpuperf-worker-req v1")
      return std::nullopt;
    while (std::getline(is, line)) {
      if (trim(line).empty()) continue;
      const auto kv = split_ws(line);
      if (kv.empty()) continue;
      if (kv[0] == "verb" && kv.size() == 2) {
        const auto verb = parse_verb(kv[1]);
        if (!verb) return std::nullopt;
        out.verb = *verb;
        have_verb = true;
      } else if (kv[0] == "model" && kv.size() == 2) {
        out.model = kv[1];
      } else if (kv[0] == "deadline_ms" && kv.size() == 2) {
        out.deadline_ms = parse_int(kv[1]);
      } else if (kv[0] == "step_budget" && kv.size() == 2) {
        out.step_budget = static_cast<std::uint64_t>(parse_int(kv[1]));
      } else if (kv[0] == "fault" && kv.size() == 2) {
        out.fault_spec = kv[1];
      } else {
        return std::nullopt;
      }
    }
  } catch (const CheckError&) {
    return std::nullopt;
  }
  if (!have_verb) return std::nullopt;
  return out;
}

std::string encode_response(const WorkerResponse& response) {
  std::ostringstream os;
  os << "gpuperf-worker-resp v1\n";
  os << "status " << status_name(response.status) << "\n";
  os << "rss_kb " << response.rss_kb << "\n";
  os << "served " << response.served << "\n";
  if (!response.error.empty()) os << "error " << response.error << "\n";
  os << "\n";
  if (response.status == Status::kOk) {
    const core::ModelFeatures& f = response.features;
    // A ptx-verb success carries default features: the name is empty,
    // and an empty value would make the line unparsable — omit it.
    if (!f.model_name.empty()) os << "model " << f.model_name << "\n";
    os << "executed_instructions " << f.executed_instructions << "\n";
    os << "trainable_params " << f.trainable_params << "\n";
    os << "macs " << f.macs << "\n";
    os << "neurons " << f.neurons << "\n";
    os << "weighted_layers " << f.weighted_layers << "\n";
    os << "dca_seconds " << full_precision(f.dca_seconds) << "\n";
  }
  return os.str();
}

std::optional<WorkerResponse> parse_response(
    const std::string& payload) {
  const auto [header, body] = split_header(payload);
  WorkerResponse out;
  bool have_status = false;
  try {
    std::istringstream is(header);
    std::string line;
    if (!std::getline(is, line) ||
        trim(line) != "gpuperf-worker-resp v1")
      return std::nullopt;
    while (std::getline(is, line)) {
      if (trim(line).empty()) continue;
      const auto kv = split_ws(line);
      if (kv.empty()) continue;
      if (kv[0] == "status" && kv.size() == 2) {
        const auto status = parse_status(kv[1]);
        if (!status) return std::nullopt;
        out.status = *status;
        have_status = true;
      } else if (kv[0] == "rss_kb" && kv.size() == 2) {
        out.rss_kb = static_cast<std::size_t>(parse_int(kv[1]));
      } else if (kv[0] == "served" && kv.size() == 2) {
        out.served = static_cast<std::uint64_t>(parse_int(kv[1]));
      } else if (kv[0] == "error") {
        out.error = line_rest(line, 5);
      } else {
        return std::nullopt;
      }
    }
    if (!have_status) return std::nullopt;
    if (out.status == Status::kOk && !body.empty()) {
      std::istringstream bs(body);
      while (std::getline(bs, line)) {
        if (trim(line).empty()) continue;
        const auto kv = split_ws(line);
        if (kv.size() != 2) return std::nullopt;
        core::ModelFeatures& f = out.features;
        if (kv[0] == "model") f.model_name = kv[1];
        else if (kv[0] == "executed_instructions")
          f.executed_instructions = parse_int(kv[1]);
        else if (kv[0] == "trainable_params")
          f.trainable_params = parse_int(kv[1]);
        else if (kv[0] == "macs") f.macs = parse_int(kv[1]);
        else if (kv[0] == "neurons") f.neurons = parse_int(kv[1]);
        else if (kv[0] == "weighted_layers")
          f.weighted_layers = parse_int(kv[1]);
        else if (kv[0] == "dca_seconds")
          f.dca_seconds = parse_double(kv[1]);
        else return std::nullopt;
      }
    }
  } catch (const CheckError&) {
    return std::nullopt;
  }
  return out;
}

std::string encode_frame(const std::string& payload) {
  GP_CHECK_MSG(payload.size() <= kMaxFramePayload,
               "sandbox frame payload too large: " << payload.size());
  return encode_record(kFrameMagic, payload);
}

std::optional<std::string> read_frame(int fd) {
  char header[kRecordHeaderBytes];
  if (read_full(fd, header, sizeof(header)) != sizeof(header))
    return std::nullopt;
  const auto frame =
      decode_record_header(kFrameMagic, header, kMaxFramePayload);
  if (!frame) return std::nullopt;
  std::string payload(frame->length, '\0');
  if (frame->length > 0 &&
      read_full(fd, payload.data(), frame->length) != frame->length)
    return std::nullopt;
  if (!frame->matches(payload)) return std::nullopt;
  return payload;
}

}  // namespace gpuperf::sandbox
