// Crash-safety of the disk tier (docs/PERSISTENCE.md): spill-format
// round-trips, recovery scans that rebuild the index from surviving files,
// quarantine of corrupt files at scan time and on the hot path, and
// wall-clock TTLs that keep expiring across restarts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "../test_dir.h"
#include "cache/disk_store.h"
#include "cache/gps_cache.h"
#include "cache/spill_format.h"

namespace qc::cache {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

CacheValuePtr Str(const std::string& s) { return std::make_shared<StringValue>(s); }

std::string Data(const CacheValuePtr& v) {
  return std::static_pointer_cast<const StringValue>(v)->data();
}

std::vector<fs::path> SpillFiles(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".obj") files.push_back(entry.path());
  }
  return files;
}

size_t QuarantineCount(const fs::path& dir) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".quarantine") ++n;
  }
  return n;
}

void WriteFile(const fs::path& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- Spill format ------------------------------------------------------------

TEST(SpillFormat, RoundTripsAllFields) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload += static_cast<char>(i);
  const std::string bytes = EncodeSpillRecord("the key", "tag\nwith newline", 123456789, payload);
  EXPECT_EQ(bytes.size(), SpillRecordBytes(7, 16, payload.size()));

  SpillRecord record;
  ASSERT_TRUE(DecodeSpillRecord(bytes, &record));
  EXPECT_EQ(record.key, "the key");
  EXPECT_EQ(record.durable_tag, "tag\nwith newline");
  EXPECT_EQ(record.expires_at_micros, 123456789);
  EXPECT_EQ(record.payload, payload);
}

TEST(SpillFormat, EmptyTagAndNoExpiry) {
  const std::string bytes = EncodeSpillRecord("k", "", kNoExpiry, "v");
  SpillRecord record;
  ASSERT_TRUE(DecodeSpillRecord(bytes, &record));
  EXPECT_EQ(record.durable_tag, "");
  EXPECT_EQ(record.expires_at_micros, kNoExpiry);
}

TEST(SpillFormat, DecodeRejectsCorruptionWithoutThrowing) {
  const std::string good = EncodeSpillRecord("key", "tag", 42, "payload");
  SpillRecord record;

  std::string bad = good;
  bad[0] = 'X';  // magic
  EXPECT_FALSE(DecodeSpillRecord(bad, &record));

  bad = good;
  bad[4] = 99;  // unknown version
  EXPECT_FALSE(DecodeSpillRecord(bad, &record));

  EXPECT_FALSE(DecodeSpillRecord(good.substr(0, good.size() - 1), &record));  // short
  EXPECT_FALSE(DecodeSpillRecord(good + "x", &record));                       // trailing bytes
  EXPECT_FALSE(DecodeSpillRecord(good.substr(0, 10), &record));               // torn header
  EXPECT_FALSE(DecodeSpillRecord("", &record));

  bad = good;
  bad.back() ^= 0x40;  // payload bit rot -> CRC mismatch
  EXPECT_FALSE(DecodeSpillRecord(bad, &record));
}

// --- DiskStore recovery ------------------------------------------------------

class DiskRecoveryTest : public ::testing::Test {
 protected:
  TestDir tmp_;
  fs::path dir_ = tmp_.path() / "spool";
};

TEST_F(DiskRecoveryTest, PersistentStoreSurvivesReopen) {
  {
    DiskStore store(dir_, 1 << 20, /*recover=*/true);
    DiskStore::SpillMeta meta;
    meta.durable_tag = "tag-a";
    meta.expires_at_micros = 777;
    ASSERT_TRUE(store.Put("a", "payload-a", meta, nullptr));
    ASSERT_TRUE(store.Put("b", "payload-b", nullptr));
    // No Clear, destructor keeps the files: simulated orderly restart.
  }
  ASSERT_EQ(SpillFiles(dir_).size(), 2u);

  DiskStore store(dir_, 1 << 20, /*recover=*/true);
  EXPECT_EQ(store.entry_count(), 2u);
  EXPECT_EQ(*store.Get("a"), "payload-a");
  EXPECT_EQ(*store.Get("b"), "payload-b");
  EXPECT_EQ(store.io_errors(), 0u);

  ASSERT_EQ(store.recovered().size(), 2u);
  const auto& by_key = [&](const std::string& key) -> const DiskStore::Recovered& {
    for (const auto& r : store.recovered()) {
      if (r.key == key) return r;
    }
    ADD_FAILURE() << "key not recovered: " << key;
    return store.recovered().front();
  };
  EXPECT_EQ(by_key("a").durable_tag, "tag-a");
  EXPECT_EQ(by_key("a").expires_at_micros, 777);
  EXPECT_EQ(by_key("b").durable_tag, "");
  EXPECT_EQ(by_key("b").expires_at_micros, kNoExpiry);
}

TEST_F(DiskRecoveryTest, EphemeralModeStillWipes) {
  {
    DiskStore store(dir_, 1 << 20, /*recover=*/true);
    store.Put("a", "v", nullptr);
  }
  DiskStore store(dir_, 1 << 20, /*recover=*/false);
  EXPECT_EQ(store.entry_count(), 0u);
  EXPECT_TRUE(SpillFiles(dir_).empty());
}

TEST_F(DiskRecoveryTest, DuplicateKeyKeepsNewestRecord) {
  // A crash between writing a replacement and erasing the old file leaves
  // two records for one key; recovery must keep the highest sequence only.
  fs::create_directories(dir_);
  WriteFile(dir_ / "abc-3.obj", EncodeSpillRecord("k", "", kNoExpiry, "old"));
  WriteFile(dir_ / "abc-7.obj", EncodeSpillRecord("k", "", kNoExpiry, "new"));

  DiskStore store(dir_, 1 << 20, /*recover=*/true);
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(*store.Get("k"), "new");
  ASSERT_EQ(store.recovered().size(), 1u);

  // New writes must not collide with recovered sequence numbers.
  ASSERT_TRUE(store.Put("fresh", "v", nullptr));
  EXPECT_EQ(*store.Get("fresh"), "v");
  EXPECT_EQ(*store.Get("k"), "new");
}

TEST_F(DiskRecoveryTest, CorruptFilesQuarantinedAtScan) {
  fs::create_directories(dir_);
  WriteFile(dir_ / "good-1.obj", EncodeSpillRecord("good", "", kNoExpiry, "v"));
  const std::string torn = EncodeSpillRecord("torn", "", kNoExpiry, std::string(500, 'x'));
  WriteFile(dir_ / "torn-2.obj", torn.substr(0, torn.size() / 2));  // torn write
  std::string rot = EncodeSpillRecord("rot", "", kNoExpiry, "vvvv");
  rot[rot.size() - 2] ^= 1;
  WriteFile(dir_ / "rot-3.obj", rot);  // bit rot

  DiskStore store(dir_, 1 << 20, /*recover=*/true);
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(*store.Get("good"), "v");
  EXPECT_EQ(store.io_errors(), 2u);
  EXPECT_EQ(store.quarantined(), 2u);
  EXPECT_EQ(QuarantineCount(dir_), 2u);

  // Quarantined files are not rediscovered by the next scan.
  DiskStore again(dir_, 1 << 20, /*recover=*/true);
  EXPECT_EQ(again.entry_count(), 1u);
  EXPECT_EQ(again.quarantined(), 0u);
}

TEST_F(DiskRecoveryTest, ForeignFilesIgnoredByScan) {
  fs::create_directories(dir_);
  WriteFile(dir_ / "notes.txt", "not a spill file");
  WriteFile(dir_ / "a-1.obj", EncodeSpillRecord("a", "", kNoExpiry, "v"));
  DiskStore store(dir_, 1 << 20, /*recover=*/true);
  EXPECT_EQ(store.entry_count(), 1u);
  EXPECT_EQ(store.quarantined(), 0u);
  EXPECT_TRUE(fs::exists(dir_ / "notes.txt"));
}

TEST_F(DiskRecoveryTest, RecoveryTrimsToShrunkenBudget) {
  {
    DiskStore store(dir_, 1 << 20, /*recover=*/true);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(store.Put("k" + std::to_string(i), std::string(1000, 'a' + i), nullptr));
    }
  }
  DiskStore store(dir_, 2500, /*recover=*/true);
  EXPECT_LE(store.byte_count(), 2500u);
  EXPECT_LT(store.entry_count(), 6u);
  // recovered() only reports entries that survived the trim.
  EXPECT_EQ(store.recovered().size(), store.entry_count());
  for (const auto& r : store.recovered()) {
    EXPECT_TRUE(store.Get(r.key).has_value()) << r.key;
  }
}

// Satellite regression: a truncated spill file on the *hot path* (written
// whole, damaged later) must degrade to a counted miss, never an exception.
TEST_F(DiskRecoveryTest, HotPathTruncationIsCountedMissNotThrow) {
  DiskStore store(dir_, 1 << 20, /*recover=*/true);
  ASSERT_TRUE(store.Put("k", std::string(2000, 'z'), nullptr));
  auto files = SpillFiles(dir_);
  ASSERT_EQ(files.size(), 1u);
  fs::resize_file(files[0], 17);  // short read on next access

  std::string payload;
  DiskStore::ReadStatus status{};
  EXPECT_NO_THROW(status = store.Read("k", &payload));
  EXPECT_EQ(status, DiskStore::ReadStatus::kCorrupt);
  EXPECT_EQ(store.io_errors(), 1u);
  EXPECT_EQ(store.quarantined(), 1u);
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_EQ(store.Read("k", &payload), DiskStore::ReadStatus::kMiss);  // now a plain miss
  EXPECT_EQ(QuarantineCount(dir_), 1u);
}

TEST_F(DiskRecoveryTest, WrongKeyInFileIsQuarantinedOnRead) {
  // Read() cross-checks the decoded key against the requested one; a file
  // swap (or hash-name collision gone wrong) must not serve foreign data.
  DiskStore store(dir_, 1 << 20, /*recover=*/true);
  ASSERT_TRUE(store.Put("k", "mine", nullptr));
  auto files = SpillFiles(dir_);
  ASSERT_EQ(files.size(), 1u);
  WriteFile(files[0], EncodeSpillRecord("other", "", kNoExpiry, "theirs"));

  EXPECT_EQ(store.Get("k"), std::nullopt);
  EXPECT_EQ(store.io_errors(), 1u);
  EXPECT_EQ(store.quarantined(), 1u);
}

// --- GpsCache recovery -------------------------------------------------------

class GpsRecoveryTest : public ::testing::Test {
 protected:
  GpsCacheConfig DiskConfig() {
    GpsCacheConfig config;
    config.mode = CacheMode::kDisk;
    config.disk_directory = dir_.string();
    config.deserializer = &StringValue::Deserialize;
    config.recover_on_open = true;
    return config;
  }

  TestDir tmp_;
  fs::path dir_ = tmp_.path() / "spool";
};

TEST_F(GpsRecoveryTest, DiskCacheSurvivesReopen) {
  {
    GpsCache cache(DiskConfig());
    cache.Put("q1", Str("r1"));
    cache.Put("q2", Str("r2"), std::nullopt, GpsCache::AdmitGuard{}, "tag-2");
    // Dropped without Clear(): the files stay behind.
  }
  GpsCache cache(DiskConfig());
  EXPECT_EQ(cache.stats().recovered, 2u);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(Data(cache.Get("q1")), "r1");
  EXPECT_EQ(Data(cache.Get("q2")), "r2");
  EXPECT_EQ(cache.stats().disk_hits, 2u);

  ASSERT_EQ(cache.recovered_entries().size(), 2u);
  for (const auto& entry : cache.recovered_entries()) {
    if (entry.key == "q2") {
      EXPECT_EQ(entry.durable_tag, "tag-2");
    }
  }

  // Recovered entries behave like any other: invalidation works.
  EXPECT_TRUE(cache.Invalidate("q1"));
  EXPECT_EQ(cache.Get("q1"), nullptr);
}

TEST_F(GpsRecoveryTest, TtlKeepsCountingAcrossRestart) {
  TimePoint now{};
  int64_t wall = 1'000'000'000;  // arbitrary epoch offset, micros
  auto configure = [&] {
    GpsCacheConfig config = DiskConfig();
    config.now = [&now] { return now; };
    config.wall_now_micros = [&wall] { return wall; };
    return config;
  };
  {
    GpsCache cache(configure());
    cache.Put("short", Str("s"), 100s);
    cache.Put("long", Str("l"), 1000s);
    cache.Put("forever", Str("f"));
  }
  // The process is down for 150 wall-clock seconds: "short" expires while
  // nobody is running.
  wall += 150'000'000;
  now += 150s;

  GpsCache cache(configure());
  EXPECT_EQ(cache.stats().recovered, 2u);
  EXPECT_EQ(cache.stats().expirations, 1u);  // "short", dropped at scan
  EXPECT_EQ(cache.Get("short"), nullptr);
  EXPECT_EQ(Data(cache.Get("long")), "l");
  EXPECT_EQ(Data(cache.Get("forever")), "f");

  // The survivor's remaining TTL was re-armed, not reset: 850s left.
  now += 851s;
  wall += 851'000'000;
  EXPECT_EQ(cache.Get("long"), nullptr);
  EXPECT_NE(cache.Get("forever"), nullptr);
}

TEST_F(GpsRecoveryTest, CorruptSpillIsCountedMissNeverThrow) {
  {
    GpsCache cache(DiskConfig());
    cache.Put("ok", Str("fine"));
    cache.Put("bad", Str(std::string(1000, 'b')));
  }
  // Damage "bad"'s file after the fact (simulated torn write / bit rot).
  for (const auto& file : SpillFiles(dir_)) {
    if (fs::file_size(file) > 500) fs::resize_file(file, 40);
  }

  GpsCache cache(DiskConfig());
  // The scan already caught it: quarantined, not recovered, not thrown.
  EXPECT_EQ(cache.stats().recovered, 1u);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  CacheValuePtr result;
  EXPECT_NO_THROW(result = cache.Get("bad"));
  EXPECT_EQ(result, nullptr);
  EXPECT_EQ(Data(cache.Get("ok")), "fine");
}

TEST_F(GpsRecoveryTest, HotPathCorruptionAfterRecoveryIsCountedMiss) {
  {
    GpsCache cache(DiskConfig());
    cache.Put("k", Str(std::string(1000, 'k')));
  }
  GpsCache cache(DiskConfig());
  ASSERT_EQ(cache.stats().recovered, 1u);
  for (const auto& file : SpillFiles(dir_)) fs::resize_file(file, 10);

  int evicted_notifications = 0;
  cache.SetRemovalListener([&](const std::string&, RemovalCause cause, uint64_t) {
    if (cause == RemovalCause::kEvicted) ++evicted_notifications;
  });
  CacheValuePtr result;
  EXPECT_NO_THROW(result = cache.Get("k"));
  EXPECT_EQ(result, nullptr);
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The metadata was cleaned up and the removal listener told, so higher
  // layers (the DUP engine) can drop their registration.
  EXPECT_EQ(evicted_notifications, 1);
  EXPECT_FALSE(cache.Contains("k"));
}

TEST_F(GpsRecoveryTest, HybridModeRecoversSpilledEntries) {
  auto configure = [&] {
    GpsCacheConfig config = DiskConfig();
    config.mode = CacheMode::kHybrid;
    config.memory_max_entries = 2;
    return config;
  };
  {
    GpsCache cache(configure());
    cache.Put("a", Str("A"));
    cache.Put("b", Str("B"));
    cache.Put("c", Str("C"));  // spills a
    cache.Put("d", Str("D"));  // spills b
    ASSERT_EQ(cache.stats().spills, 2u);
  }
  // Only the spilled entries are durable: c and d lived in memory alone.
  GpsCache cache(configure());
  EXPECT_EQ(cache.stats().recovered, 2u);
  EXPECT_EQ(Data(cache.Get("a")), "A");
  EXPECT_EQ(Data(cache.Get("b")), "B");
  EXPECT_EQ(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.Get("d"), nullptr);
}

TEST_F(GpsRecoveryTest, ShardedSpoolRecoversWithSameShardCount) {
  auto configure = [&] {
    GpsCacheConfig config = DiskConfig();
    config.shards = 4;
    return config;
  };
  {
    GpsCache cache(configure());
    for (int i = 0; i < 20; ++i) cache.Put("key" + std::to_string(i), Str(std::to_string(i)));
  }
  GpsCache cache(configure());
  EXPECT_EQ(cache.stats().recovered, 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(Data(cache.Get("key" + std::to_string(i))), std::to_string(i)) << i;
  }
}

TEST_F(GpsRecoveryTest, RecoveryLogsRestoredCount) {
  const std::string log_path = tmp_.Path("gps.log");
  {
    GpsCache cache(DiskConfig());
    cache.Put("q", Str("v"));
  }
  GpsCacheConfig config = DiskConfig();
  config.log_path = log_path;
  config.log_policy = LogFlushPolicy::kEveryRecord;
  GpsCache cache(config);
  cache.FlushLog();
  std::ifstream in(log_path);
  const std::string contents{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  EXPECT_NE(contents.find("recover * restored=1"), std::string::npos) << contents;
}

// --- Transaction log: wall-clock stamps + session boundaries -----------------

class TxLogRecoveryTest : public ::testing::Test {
 protected:
  std::string ReadAll() {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
  TestDir tmp_;
  std::string path_ = tmp_.Path("txlog.log");
};

TEST_F(TxLogRecoveryTest, RecordsStampWallClockEpochMicros) {
  const auto before = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  {
    TransactionLog log(path_, LogFlushPolicy::kManual);
    log.Append("hit", "q1");
  }
  const auto after = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  const std::string contents = ReadAll();
  const size_t pos = contents.find("hit q1");
  ASSERT_NE(pos, std::string::npos) << contents;
  const size_t line_start = contents.rfind('\n', pos);
  const int64_t stamp =
      std::stoll(contents.substr(line_start == std::string::npos ? 0 : line_start + 1));
  // Epoch micros, not micros-since-open: the stamp lands in [before, after],
  // so records from successive sessions share one timeline.
  EXPECT_GE(stamp, before);
  EXPECT_LE(stamp, after);
}

TEST_F(TxLogRecoveryTest, SessionHeaderAndFooterMarkProcessBoundaries) {
  {
    TransactionLog log(path_, LogFlushPolicy::kManual);
    log.Append("put", "k");
    EXPECT_EQ(log.records_written(), 1u);  // header not counted
  }
  {
    TransactionLog log(path_, LogFlushPolicy::kEveryRecord);
    log.Append("hit", "k");
  }
  const std::string contents = ReadAll();
  size_t opens = 0, closes = 0;
  for (size_t pos = 0; (pos = contents.find("session open", pos)) != std::string::npos; ++pos)
    ++opens;
  for (size_t pos = 0; (pos = contents.find("session close", pos)) != std::string::npos; ++pos)
    ++closes;
  EXPECT_EQ(opens, 2u) << contents;
  EXPECT_EQ(closes, 2u) << contents;
  EXPECT_NE(contents.find("policy=manual"), std::string::npos);
  EXPECT_NE(contents.find("policy=every-record"), std::string::npos);
  // Appends from both sessions landed after their headers.
  EXPECT_LT(contents.find("session open"), contents.find("put k"));
  EXPECT_LT(contents.find("put k"), contents.find("hit k"));
}

}  // namespace
}  // namespace qc::cache
