#include "common/record_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/limits.hpp"
#include "common/subprocess.hpp"

namespace fs = std::filesystem;

namespace gpuperf {

namespace {

void put_u32_le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFFu));
  out.push_back(static_cast<char>((v >> 8) & 0xFFu));
  out.push_back(static_cast<char>((v >> 16) & 0xFFu));
  out.push_back(static_cast<char>((v >> 24) & 0xFFu));
}

std::uint32_t get_u32_le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 |
         static_cast<std::uint32_t>(b[3]) << 24;
}

}  // namespace

std::string encode_record(std::string_view magic, std::string_view payload) {
  GP_DCHECK(magic.size() == 4);
  std::string out;
  out.reserve(kRecordHeaderBytes + payload.size());
  out.append(magic);
  put_u32_le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32_le(out, crc32(payload));
  out.append(payload);
  return out;
}

bool RecordHeader::matches(std::string_view payload) const {
  return crc32(payload) == crc;
}

std::optional<RecordHeader> decode_record_header(
    std::string_view magic, const char* header,
    std::size_t max_payload_bytes) {
  if (std::string_view(header, magic.size()) != magic) return std::nullopt;
  RecordHeader out;
  out.length = get_u32_le(header + 4);
  out.crc = get_u32_le(header + 8);
  if (out.length > max_payload_bytes) return std::nullopt;
  return out;
}

RecordLog::RecordLog(std::string path, std::string_view magic,
                     std::size_t max_payload_bytes, const char* what)
    : path_(std::move(path)),
      magic_(magic),
      max_payload_bytes_(max_payload_bytes),
      what_(what) {
  GP_CHECK_MSG(magic_.size() == 4, "record magic must be 4 bytes");
}

RecordLog::Replay RecordLog::replay(
    const std::function<bool(const std::string&)>& accept) {
  Replay out;
  std::ifstream in(path_, std::ios::binary);
  if (!in.good()) return out;  // no journal yet

  std::size_t valid_end = 0;  // end of the last accepted record
  char header[kRecordHeaderBytes];
  std::string payload;
  while (in.read(header, kRecordHeaderBytes)) {
    const auto record =
        decode_record_header(magic_, header, max_payload_bytes_);
    // Appends never write an empty payload, so a zero length is damage.
    if (!record || record->length == 0) break;
    payload.resize(record->length);
    if (!in.read(payload.data(), record->length)) break;  // torn tail
    if (!record->matches(payload) || !accept(payload)) break;
    ++out.records;
    valid_end += kRecordHeaderBytes + record->length;
  }
  in.close();

  // Everything before the damage is intact because the file is
  // append-only.  What follows it goes: the next append must not land
  // behind bytes that would stop every later replay.
  std::error_code ec;
  const auto file_size = fs::file_size(path_, ec);
  if (!ec && file_size > valid_end) {
    out.torn_tail_bytes = static_cast<std::size_t>(file_size) - valid_end;
    fs::resize_file(path_, valid_end, ec);
  }
  return out;
}

void RecordLog::append(std::string_view payload) {
  enforce_limit(payload.size(), max_payload_bytes_, what_);
  const std::string record = encode_record(magic_, payload);
  const int fd = ::open(path_.c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  GP_CHECK_MSG(fd >= 0, "cannot open journal '" << path_ << "'");
  // A failed append truncates back to `start`.  Partial bytes left in
  // place would end every later replay there, taking the acknowledged
  // records appended after them along.
  const off_t start = ::lseek(fd, 0, SEEK_END);
  // fsync before acknowledging: an append that returned survives a
  // crash.
  const bool ok = start >= 0 &&
                  write_full(fd, record.data(), record.size()) &&
                  ::fsync(fd) == 0;
  const int error = errno;
  const bool rolled_back = ok || start < 0 || ::ftruncate(fd, start) == 0;
  ::close(fd);
  GP_CHECK_MSG(ok, "journal append to '"
                       << path_ << "' failed: " << std::strerror(error)
                       << (rolled_back ? "" : "; the rollback failed too"));
}

void RecordLog::rewrite(const std::vector<std::string>& payloads) {
  std::string contents;
  for (const std::string& payload : payloads)
    contents += encode_record(magic_, payload);
  const std::string tmp = path_ + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_TRUNC | O_CREAT | O_CLOEXEC, 0644);
  GP_CHECK_MSG(fd >= 0, "cannot open '" << tmp << "' for a rewrite");
  const bool ok = write_full(fd, contents.data(), contents.size()) &&
                  ::fsync(fd) == 0;
  ::close(fd);
  GP_CHECK_MSG(ok, "rewrite of '" << tmp << "' failed");
  fs::rename(tmp, path_);
}

}  // namespace gpuperf
