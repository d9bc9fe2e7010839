#include "common/record_log.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/limits.hpp"
#include "common/subprocess.hpp"

namespace fs = std::filesystem;

namespace gpuperf {
namespace {

constexpr std::size_t kMaxPayload = 256;

std::string fresh_path(const std::string& name) {
  const std::string path =
      ::testing::TempDir() + "/gpuperf_record_log_" + name;
  fs::remove(path);
  fs::remove(path + ".tmp");
  return path;
}

RecordLog open_log(const std::string& path) {
  return RecordLog(path, "GPFR", kMaxPayload, "test record bytes");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The record layout spelled out byte by byte, independent of the
/// encoder: journals written by earlier builds hold exactly this.
std::string hand_built(const std::string& magic, const std::string& payload) {
  std::string out = magic;
  for (const std::uint32_t field :
       {static_cast<std::uint32_t>(payload.size()), crc32(payload)})
    for (int shift = 0; shift < 32; shift += 8)
      out += static_cast<char>((field >> shift) & 0xFFu);
  return out + payload;
}

struct Replayed {
  std::vector<std::string> payloads;
  RecordLog::Replay stats;
};

Replayed replay_all(RecordLog& log) {
  Replayed out;
  out.stats = log.replay([&](const std::string& payload) {
    out.payloads.push_back(payload);
    return true;
  });
  return out;
}

TEST(RecordLog, GoldenBytes) {
  // crc32("hello") == 0x3610a686, little-endian after the length.
  EXPECT_EQ(encode_record("GPFR", "hello"),
            std::string("GPFR\x05\x00\x00\x00\x86\xa6\x10\x36hello", 17));
  // A frame may be empty (the journals never write one).
  const std::string empty = encode_record("GPWK", "");
  EXPECT_EQ(empty, std::string("GPWK\0\0\0\0\0\0\0\0", 12));
  const auto header = decode_record_header("GPWK", empty.data(), 16);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->length, 0u);
  EXPECT_TRUE(header->matches(""));
  EXPECT_FALSE(decode_record_header("GPFR", empty.data(), 16));
}

TEST(RecordLog, AppendWritesTheHandBuiltLayoutAndReplayReadsIt) {
  const std::string path = fresh_path("layout");
  RecordLog log = open_log(path);
  log.append("gpuperf-features v1\ntopology 1\n");
  log.append("second");
  EXPECT_EQ(read_file(path),
            hand_built("GPFR", "gpuperf-features v1\ntopology 1\n") +
                hand_built("GPFR", "second"));

  const std::string other = fresh_path("layout_by_hand");
  write_file(other, hand_built("GPFR", "written by hand"));
  RecordLog reader = open_log(other);
  const Replayed got = replay_all(reader);
  ASSERT_EQ(got.payloads.size(), 1u);
  EXPECT_EQ(got.payloads[0], "written by hand");
  EXPECT_EQ(got.stats.records, 1u);
  EXPECT_EQ(got.stats.torn_tail_bytes, 0u);
}

TEST(RecordLog, MissingFileReplaysEmpty) {
  const std::string path = fresh_path("missing");
  RecordLog log = open_log(path);
  const Replayed got = replay_all(log);
  EXPECT_TRUE(got.payloads.empty());
  EXPECT_EQ(got.stats.torn_tail_bytes, 0u);
  EXPECT_FALSE(fs::exists(path));
}

TEST(RecordLog, TornTailIsTruncated) {
  const std::string path = fresh_path("torn");
  const std::string first = hand_built("GPFR", "first");
  write_file(path, first + hand_built("GPFR", "second record").substr(0, 17));
  RecordLog log = open_log(path);
  Replayed got = replay_all(log);
  EXPECT_EQ(got.payloads, std::vector<std::string>{"first"});
  EXPECT_EQ(got.stats.torn_tail_bytes, 17u);
  EXPECT_EQ(read_file(path), first);
  // The truncation made the file whole: a second replay drops nothing.
  got = replay_all(log);
  EXPECT_EQ(got.stats.records, 1u);
  EXPECT_EQ(got.stats.torn_tail_bytes, 0u);
}

TEST(RecordLog, DamagedRecordEndsReplayWithEverythingAfterIt) {
  const std::string first = hand_built("GPFR", "first");
  const std::string second = hand_built("GPFR", "second");
  const std::string third = hand_built("GPFR", "third");
  const auto damage = [&](std::size_t offset, char byte) {
    std::string bytes = first + second + third;
    bytes[first.size() + offset] = byte;
    return bytes;
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"bit_flip", damage(12, static_cast<char>(second[12] ^ 0x01))},
      {"bad_magic", damage(0, 'X')},
      {"zero_length", damage(4, '\0')},
      {"oversized_length", damage(6, '\x01')},  // 65542 > kMaxPayload
      {"short_header", first + second.substr(0, 7)},
  };
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    const std::string path = fresh_path(name);
    write_file(path, bytes);
    RecordLog log = open_log(path);
    const Replayed got = replay_all(log);
    EXPECT_EQ(got.payloads, std::vector<std::string>{"first"});
    EXPECT_EQ(got.stats.torn_tail_bytes, bytes.size() - first.size());
    EXPECT_EQ(read_file(path), first);
  }
}

TEST(RecordLog, RejectedPayloadEndsReplay) {
  const std::string path = fresh_path("rejected");
  write_file(path, hand_built("GPFR", "good") + hand_built("GPFR", "bad") +
                       hand_built("GPFR", "good again"));
  RecordLog log = open_log(path);
  const RecordLog::Replay stats = log.replay(
      [](const std::string& payload) { return payload != "bad"; });
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(read_file(path), hand_built("GPFR", "good"));
}

TEST(RecordLog, OversizedAppendIsRefusedTyped) {
  const std::string path = fresh_path("oversized");
  RecordLog log = open_log(path);
  log.append("kept");
  EXPECT_THROW(log.append(std::string(kMaxPayload + 1, 'x')), LimitExceeded);
  EXPECT_EQ(read_file(path), hand_built("GPFR", "kept"));
}

TEST(RecordLog, RewriteReplacesTheFile) {
  const std::string path = fresh_path("rewrite");
  RecordLog log = open_log(path);
  for (const char* payload : {"a", "b", "c"}) log.append(payload);
  log.rewrite({"x", "y"});
  EXPECT_EQ(read_file(path), hand_built("GPFR", "x") + hand_built("GPFR", "y"));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const Replayed got = replay_all(log);
  EXPECT_EQ(got.payloads, (std::vector<std::string>{"x", "y"}));
}

TEST(RecordLog, FailedAppendLeavesTheFileAsItWas) {
  const std::string path = fresh_path("failed_append");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // In a child, so the file-size cap never reaches this process.
    RecordLog log = open_log(path);
    log.append("first");
    const std::string before = read_file(path);
    ::signal(SIGXFSZ, SIG_IGN);
    rlimit saved{};
    ::getrlimit(RLIMIT_FSIZE, &saved);
    rlimit cap = saved;
    cap.rlim_cur = before.size() + 20;  // the next record dies 20 bytes in
    ::setrlimit(RLIMIT_FSIZE, &cap);
    bool threw = false;
    try {
      log.append(std::string(100, 'x'));
    } catch (const CheckError&) {
      threw = true;
    }
    ::setrlimit(RLIMIT_FSIZE, &saved);
    const bool unchanged = read_file(path) == before;
    log.append("third");
    ::_exit(threw && unchanged ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid_retry(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << describe_wait_status(status);
  RecordLog log = open_log(path);
  const Replayed got = replay_all(log);
  EXPECT_EQ(got.payloads, (std::vector<std::string>{"first", "third"}));
  EXPECT_EQ(got.stats.torn_tail_bytes, 0u);
}

}  // namespace
}  // namespace gpuperf
