// Fuzz target for the serve wire protocol: the request-line parser
// (which is also the CLI argv parser) and the JSON writer's string
// escaping.  Contract: any line parses or raises CheckError; the writer
// takes any line as a key and as a value, never crashes and never
// emits a newline.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "serve/protocol.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  try {
    const gpuperf::serve::Request request =
        gpuperf::serve::parse_request(line);
    (void)request.cmd.flag_or("deadline-ms", "");
  } catch (const gpuperf::CheckError&) {
    // Malformed lines are the caller's fault; a typed throw is fine.
  }
  gpuperf::serve::JsonWriter json;
  json.begin_object().field(line, std::string_view(line)).end_object();
  if (json.str().find('\n') != std::string::npos)
    std::abort();  // one response must stay one line
  return 0;
}
