#include "registry/feature_store.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cnn/model_io.hpp"
#include "cnn/zoo.hpp"
#include "common/fault.hpp"
#include "common/subprocess.hpp"
#include "registry/hash.hpp"

namespace fs = std::filesystem;

namespace gpuperf::registry {
namespace {

std::string fresh_root(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/gpuperf_fs_" + name;
  fs::remove_all(root);
  return root;
}

core::ModelFeatures sample_features() {
  core::ModelFeatures f;
  f.model_name = "alexnet";
  f.executed_instructions = 123456789;
  f.trainable_params = 62378344;
  f.macs = 714188480;
  f.neurons = 650000;
  f.weighted_layers = 8;
  f.dca_seconds = 0.125;
  return f;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(FeatureStore, MissOnUnknownTopology) {
  FeatureStore store(fresh_root("miss"));
  EXPECT_EQ(store.get(0x1234), nullptr);
  EXPECT_EQ(store.size(), 0u);
}

TEST(FeatureStore, PutGetRoundTrip) {
  FeatureStore store(fresh_root("roundtrip"));
  const core::ModelFeatures f = sample_features();
  store.put(0xabcd, f);
  EXPECT_EQ(store.size(), 1u);

  const auto back = store.get(0xabcd);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->model_name, f.model_name);
  EXPECT_EQ(back->executed_instructions, f.executed_instructions);
  EXPECT_EQ(back->trainable_params, f.trainable_params);
  EXPECT_EQ(back->macs, f.macs);
  EXPECT_EQ(back->neurons, f.neurons);
  EXPECT_EQ(back->weighted_layers, f.weighted_layers);
  EXPECT_DOUBLE_EQ(back->dca_seconds, f.dca_seconds);
}

TEST(FeatureStore, OverwriteReplacesEntry) {
  FeatureStore store(fresh_root("overwrite"));
  core::ModelFeatures f = sample_features();
  store.put(0xabcd, f);
  f.executed_instructions = 42;
  store.put(0xabcd, f);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.get(0xabcd)->executed_instructions, 42);
}

TEST(FeatureStore, GetOrComputeReadsThroughAndFillsTheStore) {
  FeatureStore store(fresh_root("read_through"));
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return sample_features();
  };
  const FeatureStore::Lookup miss = store.get_or_compute(0xabcd, compute);
  EXPECT_FALSE(miss.hit);
  EXPECT_FALSE(miss.read_failed);
  EXPECT_FALSE(miss.write_failed);
  ASSERT_NE(miss.features, nullptr);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(store.size(), 1u);

  const FeatureStore::Lookup hit = store.get_or_compute(0xabcd, compute);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(computes, 1);
  ASSERT_NE(hit.features, nullptr);
  EXPECT_EQ(hit.features->executed_instructions,
            sample_features().executed_instructions);
}

TEST(FeatureStore, GetOrComputePutsNothingWhenTheComputeThrows) {
  FeatureStore store(fresh_root("compute_throws"));
  EXPECT_THROW(store.get_or_compute(0xabcd,
                                    []() -> core::ModelFeatures {
                                      throw std::runtime_error("no DCA");
                                    }),
               std::runtime_error);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.get(0xabcd), nullptr);
}

#ifdef GPUPERF_FAULT_INJECTION
TEST(FeatureStore, GetOrComputeReportsStoreFaultsWithoutFailing) {
  FeatureStore store(fresh_root("read_through_faults"));
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return sample_features();
  };
  {
    fault::ScopedFault read("store.get", {fault::Action::kThrow, 0, 1});
    const FeatureStore::Lookup lookup = store.get_or_compute(0xa, compute);
    EXPECT_TRUE(lookup.read_failed);
    EXPECT_FALSE(lookup.hit);
    EXPECT_FALSE(lookup.write_failed);
    EXPECT_NE(lookup.features, nullptr);
  }
  EXPECT_EQ(computes, 1);
  EXPECT_NE(store.get(0xa), nullptr);  // the put after a failed read lands
  {
    fault::ScopedFault write("store.put", {fault::Action::kThrow, 0, 1});
    const FeatureStore::Lookup lookup = store.get_or_compute(0xb, compute);
    EXPECT_FALSE(lookup.read_failed);
    EXPECT_TRUE(lookup.write_failed);
    EXPECT_NE(lookup.features, nullptr);
  }
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(store.get(0xb), nullptr);
}
#endif  // GPUPERF_FAULT_INJECTION

TEST(FeatureStore, EntriesSurviveReopen) {
  const std::string root = fresh_root("reopen");
  {
    FeatureStore store(root);
    store.put(0x1111, sample_features());
    store.put(0x2222, sample_features());
  }
  FeatureStore reopened(root);
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.recovered_records(), 2u);
  EXPECT_EQ(reopened.torn_tail_bytes(), 0u);
  EXPECT_NE(reopened.get(0x1111), nullptr);
  EXPECT_NE(reopened.get(0x2222), nullptr);
}

TEST(FeatureStore, TornTailIsTruncatedOnOpen) {
  const std::string root = fresh_root("torn");
  std::string intact;
  {
    FeatureStore store(root);
    store.put(0x1111, sample_features());
    intact = read_file(store.journal_path());
    store.put(0x2222, sample_features());
  }
  const fs::path journal = fs::path(root) / "store.journal";
  // Simulate a crash mid-append: keep the first record whole, cut the
  // second off partway through its payload.
  std::string bytes = read_file(journal);
  ASSERT_GT(bytes.size(), intact.size() + 12);
  write_file(journal, bytes.substr(0, intact.size() + 12 + 5));

  FeatureStore store(root);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.recovered_records(), 1u);
  EXPECT_EQ(store.torn_tail_bytes(), 17u);
  EXPECT_NE(store.get(0x1111), nullptr);
  EXPECT_EQ(store.get(0x2222), nullptr);
  // The torn bytes are gone from disk; the next put appends cleanly
  // and survives another reopen.
  EXPECT_EQ(fs::file_size(journal), intact.size());
  store.put(0x2222, sample_features());
  FeatureStore again(root);
  EXPECT_EQ(again.size(), 2u);
  EXPECT_EQ(again.torn_tail_bytes(), 0u);
}

TEST(FeatureStore, BitFlippedRecordIsDroppedWithEverythingAfterIt) {
  const std::string root = fresh_root("bitflip");
  std::string first;
  {
    FeatureStore store(root);
    store.put(0x1111, sample_features());
    first = read_file(store.journal_path());
    store.put(0x2222, sample_features());
  }
  const fs::path journal = fs::path(root) / "store.journal";
  std::string bytes = read_file(journal);
  // Flip one payload byte inside the second record: its CRC breaks, so
  // replay stops at the end of the first record.
  bytes[first.size() + 20] =
      static_cast<char>(bytes[first.size() + 20] ^ 0x01);
  write_file(journal, bytes);

  FeatureStore store(root);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.get(0x1111), nullptr);
  EXPECT_EQ(store.get(0x2222), nullptr);  // a miss, never an error
  EXPECT_GT(store.torn_tail_bytes(), 0u);
}

TEST(FeatureStore, GarbageJournalRecoversToEmpty) {
  const std::string root = fresh_root("garbage");
  fs::create_directories(root);
  write_file(fs::path(root) / "store.journal",
             "this is not a journal at all");
  FeatureStore store(root);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.recovered_records(), 0u);
  EXPECT_GT(store.torn_tail_bytes(), 0u);
  // Self-heals: the store is writable again after recovery.
  store.put(0xabcd, sample_features());
  FeatureStore again(root);
  EXPECT_EQ(again.size(), 1u);
}

TEST(FeatureStore, FailedPutDoesNotBuryLaterPuts) {
  const std::string root = fresh_root("failed_put");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // In a child, so the file-size cap never reaches this process.
    FeatureStore store(root);
    store.put(0xa, sample_features());
    ::signal(SIGXFSZ, SIG_IGN);
    rlimit saved{};
    ::getrlimit(RLIMIT_FSIZE, &saved);
    rlimit cap = saved;
    cap.rlim_cur = fs::file_size(store.journal_path()) + 40;
    ::setrlimit(RLIMIT_FSIZE, &cap);  // put B dies 40 bytes in
    bool threw = false;
    try {
      store.put(0xb, sample_features());
    } catch (const CheckError&) {
      threw = true;
    }
    ::setrlimit(RLIMIT_FSIZE, &saved);
    store.put(0xc, sample_features());  // acknowledged
    ::_exit(threw ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid_retry(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << describe_wait_status(status);

  FeatureStore store(root);
  EXPECT_EQ(store.recovered_records(), 2u);
  EXPECT_EQ(store.torn_tail_bytes(), 0u);
  EXPECT_NE(store.get(0xa), nullptr);
  EXPECT_EQ(store.get(0xb), nullptr);
  EXPECT_NE(store.get(0xc), nullptr);
}

TEST(FeatureStore, CompactDropsOverwrittenRecords) {
  const std::string root = fresh_root("compact");
  FeatureStore store(root);
  core::ModelFeatures f = sample_features();
  for (int i = 0; i < 8; ++i) {
    f.executed_instructions = i;
    store.put(0xabcd, f);
  }
  store.put(0x9999, f);
  const auto before = fs::file_size(store.journal_path());
  store.compact();
  const auto after = fs::file_size(store.journal_path());
  EXPECT_LT(after, before);
  EXPECT_EQ(store.get(0xabcd)->executed_instructions, 7);

  FeatureStore again(root);
  EXPECT_EQ(again.size(), 2u);
  EXPECT_EQ(again.recovered_records(), 2u);
  EXPECT_EQ(again.get(0xabcd)->executed_instructions, 7);
}

TEST(FeatureStore, OversizedRecordIsRejectedTyped) {
  InputLimits limits = InputLimits::defaults();
  limits.max_store_record_bytes = 64;
  FeatureStore store(fresh_root("oversized"), limits);
  core::ModelFeatures f = sample_features();
  f.model_name = std::string(256, 'x');
  EXPECT_THROW(store.put(0xabcd, f), LimitExceeded);
  EXPECT_EQ(store.size(), 0u);
}

TEST(FeatureStore, TopologyHashSeparatesModels) {
  const auto h1 = FeatureStore::topology_hash(cnn::zoo::build("alexnet"));
  const auto h2 = FeatureStore::topology_hash(cnn::zoo::build("vgg16"));
  const auto h1_again =
      FeatureStore::topology_hash(cnn::zoo::build("alexnet"));
  EXPECT_NE(h1, h2);
  EXPECT_EQ(h1, h1_again);
  // Golden values: these hashes key the GPFR journal, so a change here
  // orphans every feature store on disk.
  EXPECT_EQ(hex64(h1), "7ef8b1a725dc997f");
  EXPECT_EQ(hex64(h2), "def4a789047253bf");

  // The serialized text carries the model name, so the same DAG under
  // another name gets another address.
  std::string text = cnn::serialize_model(cnn::zoo::build("alexnet"));
  EXPECT_EQ(FeatureStore::topology_hash(cnn::deserialize_model(text)), h1);
  const std::string name_line = "name alexnet\n";
  const std::size_t at = text.find(name_line);
  ASSERT_NE(at, std::string::npos) << text.substr(0, 200);
  text.replace(at, name_line.size(), "name alexnet_copy\n");
  EXPECT_NE(FeatureStore::topology_hash(cnn::deserialize_model(text)), h1);
}

TEST(FeatureStore, NasnetTopologyHashesArePinned) {
  // The NASNet builders infer each node's shape once instead of
  // re-inferring the partial model per cell; the models they build
  // (hence their journal keys) must not change.
  EXPECT_EQ(hex64(FeatureStore::topology_hash(
                cnn::zoo::build("nasnetmobile"))),
            "be51d862ed7bba42");
  EXPECT_EQ(hex64(FeatureStore::topology_hash(
                cnn::zoo::build("nasnetlarge"))),
            "59bc443012c0b069");
}

}  // namespace
}  // namespace gpuperf::registry
