#include "serve/errors.hpp"

namespace gpuperf::serve {

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidRequest: return "invalid_request";
    case ErrorCode::kAnalysisTimeout: return "analysis_timeout";
    case ErrorCode::kAnalysisFailed: return "analysis_failed";
    case ErrorCode::kAnalysisCrashed: return "analysis_crashed";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kModelUnavailable: return "model_unavailable";
    case ErrorCode::kDegraded: return "degraded";
    case ErrorCode::kConstraintInfeasible: return "constraint_infeasible";
    case ErrorCode::kInputTooLarge: return "input_too_large";
  }
  return "analysis_failed";
}

Response error_response(ErrorCode code, const std::string& message,
                        std::int64_t retry_after_ms) {
  JsonWriter json;
  json.begin_object()
      .field("ok", false)
      .field("code", error_code_name(code))
      .field("error", std::string_view(message));
  if (retry_after_ms > 0) json.field("retry_after_ms", retry_after_ms);
  json.end_object();
  return Response{false, json.take(), false};
}

}  // namespace gpuperf::serve
