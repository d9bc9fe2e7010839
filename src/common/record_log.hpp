// CRC-framed records (docs/FILE_FORMATS.md "CRC-framed records"): the
// one byte layout behind the feature-store journal ("GPFR") and the
// sandbox worker pipe frames ("GPWK"):
//
//   magic (4 bytes) | u32 LE payload length | u32 LE crc32(payload) | payload
//
// encode_record() / decode_record_header() frame and check records on
// any byte stream.  RecordLog keeps them in an append-only journal
// file: replay that truncates whatever follows the last valid record,
// fsynced appends that a failure rolls back, and the atomic rewrite
// that compaction uses.  Payload formats belong to the callers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gpuperf {

/// Magic + length + CRC.
constexpr std::size_t kRecordHeaderBytes = 12;

/// One framed record.  `magic` must be exactly 4 bytes.
std::string encode_record(std::string_view magic, std::string_view payload);

struct RecordHeader {
  std::uint32_t length = 0;
  std::uint32_t crc = 0;

  /// True when `payload` has the CRC this header promises.
  bool matches(std::string_view payload) const;
};

/// Decodes the kRecordHeaderBytes at `header`; nullopt when the magic
/// differs or the length exceeds `max_payload_bytes`, so an adversarial
/// length is refused before anything is allocated for it.
std::optional<RecordHeader> decode_record_header(
    std::string_view magic, const char* header,
    std::size_t max_payload_bytes);

/// An append-only journal of records with one magic.  Not thread-safe:
/// the owning store serializes calls under its own lock.
class RecordLog {
 public:
  /// `what`, a string literal, names the payload budget in
  /// LimitExceeded messages ("feature-store record bytes").
  RecordLog(std::string path, std::string_view magic,
            std::size_t max_payload_bytes, const char* what);

  const std::string& path() const { return path_; }

  struct Replay {
    std::size_t records = 0;          ///< payloads `accept` took
    std::size_t torn_tail_bytes = 0;  ///< bytes truncated after them
  };

  /// Feeds every record's payload to `accept`, front to back.  Replay
  /// stops at the first record that is short, has a bad magic, a zero
  /// or oversized length, a CRC mismatch, or a payload `accept`
  /// returns false for, and the file is truncated back to the end of
  /// the last accepted record.  A missing file replays as empty.
  Replay replay(const std::function<bool(const std::string&)>& accept);

  /// Appends one record and fsyncs before returning, so an append that
  /// returned survives a crash.  Throws LimitExceeded for an oversized
  /// payload and CheckError on an I/O failure; an append that throws
  /// has truncated the file back to where it was before the append
  /// (its message says so if even that truncation failed).
  void append(std::string_view payload);

  /// Replaces the file with one record per payload, atomically: the
  /// records go to "<path>.tmp", which is fsynced and renamed over it.
  void rewrite(const std::vector<std::string>& payloads);

 private:
  std::string path_;
  std::string magic_;
  std::size_t max_payload_bytes_;
  const char* what_;
};

}  // namespace gpuperf
