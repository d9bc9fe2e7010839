// Fuzz target for journal replay (common/record_log.hpp), the recovery
// path of the feature-store and sweep-cache journals.  Contract: any
// bytes replayed as a journal never crash and never throw; what
// survives is a prefix of the input made of whole valid records, and a
// second replay of the truncated file recovers the same records with 0
// torn bytes.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/record_log.hpp"

namespace {

namespace fs = std::filesystem;

/// The journal file every input is replayed from; one per process.
struct ScratchJournal {
  ScratchJournal() = default;
  ScratchJournal(const ScratchJournal&) = delete;
  ScratchJournal& operator=(const ScratchJournal&) = delete;
  ~ScratchJournal() {
    std::error_code ec;
    fs::remove(path, ec);
  }

  const std::string path =
      (fs::temp_directory_path() /
       ("gpuperf_fuzz_record_log." + std::to_string(::getpid())))
          .string();
};

struct Replayed {
  std::vector<std::string> payloads;
  gpuperf::RecordLog::Replay stats;
};

Replayed replay(gpuperf::RecordLog& log) {
  Replayed out;
  try {
    out.stats = log.replay([&](const std::string& payload) {
      // Stands in for a payload the store's text parser refuses.
      if (payload.starts_with('!')) return false;
      out.payloads.push_back(payload);
      return true;
    });
  } catch (...) {
    std::abort();  // replay must never throw
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  static const ScratchJournal journal;
  const std::string input(reinterpret_cast<const char*>(data), size);
  {
    std::ofstream out(journal.path, std::ios::binary | std::ios::trunc);
    out.write(input.data(), static_cast<std::streamsize>(input.size()));
  }

  // A small payload budget keeps the length check on the hot path.
  gpuperf::RecordLog log(journal.path, "GPFR", 4096, "fuzz record bytes");
  const Replayed first = replay(log);

  std::string kept;
  for (const std::string& payload : first.payloads)
    kept += gpuperf::encode_record("GPFR", payload);
  if (first.stats.records != first.payloads.size() ||
      kept.size() + first.stats.torn_tail_bytes != input.size() ||
      input.compare(0, kept.size(), kept) != 0 ||
      read_file(journal.path) != kept)
    std::abort();

  const Replayed second = replay(log);
  if (second.payloads != first.payloads ||
      second.stats.torn_tail_bytes != 0)
    std::abort();
  return 0;
}
