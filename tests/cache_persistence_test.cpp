// Copyright 2026 the knnshap authors. Apache-2.0 license.
//
// Crash-safety tests for the result-cache snapshot format: atomic save
// (a failed or interrupted save leaves the previous snapshot readable),
// per-entry checksums, prefix salvage of torn files, and a table of
// hand-corrupted files covering every untrusted header/length field —
// each must yield a specific structured Status, never UB (this test runs
// in CI's ASan/UBSan matrix), plus a seeded mutation suite over the
// whole file.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/result_cache.h"
#include "util/fault.h"
#include "util/random.h"

namespace knnshap {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

ResultCacheKey Key(uint64_t train, uint64_t test, const std::string& method) {
  ResultCacheKey key;
  key.train_fingerprint = train;
  key.test_fingerprint = test;
  key.method = method;
  key.params_fingerprint = train ^ test;
  return key;
}

void Fill(ResultCache* cache, int entries, int values_per_entry) {
  for (int i = 1; i <= entries; ++i) {
    auto values = std::make_shared<std::vector<double>>();
    for (int v = 0; v < values_per_entry; ++v) {
      values->push_back(static_cast<double>(i) + 0.25 * v);
    }
    cache->Put(Key(100 + i, 200 + i, "exact"), std::move(values));
  }
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(CachePersistenceTest, RoundTripPreservesEntriesAndRecency) {
  const std::string path = TempPath("roundtrip.cache");
  ResultCache cache(8);
  Fill(&cache, 3, 4);
  StatusOr<size_t> saved = cache.SaveTo(path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  EXPECT_EQ(saved.value(), 3u);

  ResultCache restored(8);
  StatusOr<CacheLoadResult> loaded = restored.LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().entries, 3u);
  EXPECT_FALSE(loaded.value().salvaged);
  EXPECT_TRUE(loaded.value().warning.empty());
  for (int i = 1; i <= 3; ++i) {
    auto values = restored.Get(Key(100 + i, 200 + i, "exact"));
    ASSERT_NE(values, nullptr) << "entry " << i;
    EXPECT_EQ(values->size(), 4u);
    EXPECT_EQ((*values)[0], static_cast<double>(i));
  }
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, SaveNeverTouchesDestinationBeforeDurable) {
  // The satellite pin: an interrupted save (injected mid-write kill) must
  // leave the previous snapshot byte-identical and loadable — SaveTo may
  // never open the destination with trunc before the new bytes are safe.
  const std::string path = TempPath("atomic.cache");
  ResultCache cache(8);
  Fill(&cache, 2, 3);
  ASSERT_TRUE(cache.SaveTo(path).ok());
  const std::string before = ReadAll(path);

  ResultCache bigger(8);
  Fill(&bigger, 5, 3);
  ASSERT_TRUE(FaultRegistry::Global().Configure("cache_write:after=1"));
  StatusOr<size_t> crashed = bigger.SaveTo(path);
  FaultRegistry::Global().Reset();
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kDataLoss);

  // Old file: untouched, still loads cleanly.
  EXPECT_EQ(ReadAll(path), before);
  ResultCache restored(8);
  StatusOr<CacheLoadResult> loaded = restored.LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().entries, 2u);
  EXPECT_FALSE(loaded.value().salvaged);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(CachePersistenceTest, FailedRenameLeavesOldFileReadable) {
  const std::string path = TempPath("rename.cache");
  ResultCache cache(8);
  Fill(&cache, 2, 3);
  ASSERT_TRUE(cache.SaveTo(path).ok());
  const std::string before = ReadAll(path);

  ASSERT_TRUE(FaultRegistry::Global().Configure("cache_rename:after=0"));
  StatusOr<size_t> failed = cache.SaveTo(path);
  FaultRegistry::Global().Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(ReadAll(path), before);
  // The torn tmp is cleaned up on the rename path.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, TornSaveSalvagesValidPrefixAfterRestart) {
  // The acceptance-criteria flow: kill mid-save via fault injection, then
  // "restart" (a fresh cache) and load the torn tmp file — the valid
  // prefix is salvaged, never a crash or a corrupt merge.
  const std::string path = TempPath("torn.cache");
  ResultCache cache(8);
  Fill(&cache, 4, 3);
  ASSERT_TRUE(FaultRegistry::Global().Configure("cache_write:after=2"));
  StatusOr<size_t> crashed = cache.SaveTo(path);
  FaultRegistry::Global().Reset();
  ASSERT_FALSE(crashed.ok());

  // The interrupted writer left `path + ".tmp"` torn: a count promising 4
  // entries but bytes for 2. Loading it salvages exactly those 2.
  ResultCache restored(8);
  StatusOr<CacheLoadResult> loaded = restored.LoadFrom(path + ".tmp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().salvaged);
  EXPECT_EQ(loaded.value().entries, 2u);
  EXPECT_NE(loaded.value().warning.find("salvaged 2 of 4"), std::string::npos)
      << loaded.value().warning;
  EXPECT_EQ(restored.Size(), 2u);
  std::remove((path + ".tmp").c_str());
}

TEST(CachePersistenceTest, MissingFileIsNotFound) {
  ResultCache cache(8);
  StatusOr<CacheLoadResult> loaded =
      cache.LoadFrom(TempPath("does-not-exist.cache"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Fuzz-ish corruption table: every untrusted field, hand-corrupted.
// ---------------------------------------------------------------------------

class CacheCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.cache");
    ResultCache cache(8);
    Fill(&cache, 3, 4);
    ASSERT_TRUE(cache.SaveTo(path_).ok());
    bytes_ = ReadAll(path_);
    // Layout: 8B magic + 4B version + 8B count, then per entry:
    // 3x8B fingerprints + 4B method_len + method + 8B num_values +
    // values + 8B checksum.
    entry_size_ = 3 * 8 + 4 + 5 /* "exact" */ + 8 + 4 * 8 + 8;
    ASSERT_EQ(bytes_.size(), 20 + 3 * entry_size_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Writes a mutated copy and loads it into a fresh cache.
  StatusOr<CacheLoadResult> LoadMutated(const std::string& bytes) {
    WriteAll(path_, bytes);
    ResultCache cache(8);
    return cache.LoadFrom(path_);
  }

  std::string path_;
  std::string bytes_;
  size_t entry_size_ = 0;
};

TEST_F(CacheCorruptionTest, BadMagicIsDataLossNothingLoaded) {
  std::string bad = bytes_;
  bad[0] = 'X';
  StatusOr<CacheLoadResult> loaded = LoadMutated(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("not a knnshap cache file"),
            std::string::npos);
}

TEST_F(CacheCorruptionTest, BadVersionIsDataLoss) {
  std::string bad = bytes_;
  bad[8] = 99;  // version lives right after the 8-byte magic
  StatusOr<CacheLoadResult> loaded = LoadMutated(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST_F(CacheCorruptionTest, TruncatedBeforeCountIsDataLoss) {
  StatusOr<CacheLoadResult> loaded = LoadMutated(bytes_.substr(0, 14));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(CacheCorruptionTest, TruncationAtEveryByteNeverCrashes) {
  // The strongest torn-file guarantee: cut the file at EVERY byte
  // boundary. Header cuts are data_loss; past the header each cut either
  // loads a clean prefix or salvages one — and never reads out of bounds
  // (ASan/UBSan enforce the "never" in CI).
  for (size_t cut = 0; cut < bytes_.size(); ++cut) {
    StatusOr<CacheLoadResult> loaded = LoadMutated(bytes_.substr(0, cut));
    if (cut < 20) {
      ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << "cut at " << cut;
      continue;
    }
    ASSERT_TRUE(loaded.ok()) << "cut at " << cut << ": "
                             << loaded.status().ToString();
    const size_t whole_entries = (cut - 20) / entry_size_;
    EXPECT_EQ(loaded.value().entries, whole_entries) << "cut at " << cut;
    // Anything short of the full file means damage was noticed.
    EXPECT_TRUE(loaded.value().salvaged) << "cut at " << cut;
  }
}

TEST_F(CacheCorruptionTest, OversizedMethodLengthSalvagesPriorEntries) {
  std::string bad = bytes_;
  // Entry 1's method_len field (after the 20-byte header + entry 0 and
  // entry 1's three fingerprints).
  const size_t offset = 20 + entry_size_ + 3 * 8;
  const uint32_t huge = 1u << 30;
  std::memcpy(&bad[offset], &huge, sizeof(huge));
  StatusOr<CacheLoadResult> loaded = LoadMutated(bad);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().entries, 1u);
  EXPECT_TRUE(loaded.value().salvaged);
  EXPECT_NE(loaded.value().warning.find("method length out of bounds"),
            std::string::npos)
      << loaded.value().warning;
}

TEST_F(CacheCorruptionTest, OversizedValueCountSalvagesPriorEntries) {
  std::string bad = bytes_;
  // Entry 1's num_values field: header + entry 0 + fingerprints +
  // method_len + "exact".
  const size_t offset = 20 + entry_size_ + 3 * 8 + 4 + 5;
  const uint64_t huge = 1ull << 40;  // would be an 8 TiB allocation
  std::memcpy(&bad[offset], &huge, sizeof(huge));
  StatusOr<CacheLoadResult> loaded = LoadMutated(bad);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().entries, 1u);
  EXPECT_TRUE(loaded.value().salvaged);
  EXPECT_NE(loaded.value().warning.find("value count out of bounds"),
            std::string::npos)
      << loaded.value().warning;
}

TEST_F(CacheCorruptionTest, OversizedHeaderCountSalvagesWholeFile) {
  std::string bad = bytes_;
  const uint64_t huge = ~0ull;  // claims 2^64-1 entries
  std::memcpy(&bad[12], &huge, sizeof(huge));
  StatusOr<CacheLoadResult> loaded = LoadMutated(bad);
  ASSERT_TRUE(loaded.ok());
  // All three real entries load; the lie is detected right after them.
  EXPECT_EQ(loaded.value().entries, 3u);
  EXPECT_TRUE(loaded.value().salvaged);
}

TEST_F(CacheCorruptionTest, FlippedPayloadBitFailsItsChecksumOnly) {
  std::string bad = bytes_;
  // Flip one bit inside entry 1's first double.
  const size_t offset = 20 + entry_size_ + 3 * 8 + 4 + 5 + 8 + 3;
  bad[offset] = static_cast<char>(bad[offset] ^ 0x10);
  StatusOr<CacheLoadResult> loaded = LoadMutated(bad);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().entries, 1u);  // entry 0 survives
  EXPECT_TRUE(loaded.value().salvaged);
  EXPECT_NE(loaded.value().warning.find("checksum mismatch"),
            std::string::npos)
      << loaded.value().warning;
}

// Seeded mutants of the saved three-entry file: every truncation, 4000
// byte flips, and the count and length fields overwritten with 0, 2^48
// and 2^64-1. Each load must fail with not_found or data_loss, or merge
// only a prefix of the file's own entries, each with its saved values.
TEST_F(CacheCorruptionTest, SeededMutantsFailOrSalvageAValidPrefix) {
  // SaveTo writes most recent first; Fill made entry 3 the most recent.
  std::vector<ResultCacheKey> file_order;
  for (int i = 3; i >= 1; --i) file_order.push_back(Key(100 + i, 200 + i, "exact"));
  ResultCache original(8);
  Fill(&original, 3, 4);

  size_t mutants = 0;
  const auto check = [&](const std::string& bytes, const std::string& what) {
    ++mutants;
    WriteAll(path_, bytes);
    ResultCache cache(8);
    const StatusOr<CacheLoadResult> loaded = cache.LoadFrom(path_);
    if (!loaded.ok()) {
      const StatusCode code = loaded.status().code();
      ASSERT_TRUE(code == StatusCode::kNotFound || code == StatusCode::kDataLoss)
          << what << ": " << loaded.status().ToString();
      ASSERT_EQ(cache.Size(), 0u) << what;
      return;
    }
    const size_t entries = loaded.value().entries;
    ASSERT_LE(entries, file_order.size()) << what;
    ASSERT_EQ(cache.Size(), entries) << what;
    for (size_t e = 0; e < entries; ++e) {
      const auto values = cache.Get(file_order[e]);
      ASSERT_NE(values, nullptr) << what << ": entry " << e;
      ASSERT_EQ(*values, *original.Get(file_order[e])) << what << ": entry " << e;
    }
  };

  for (size_t cut = 0; cut < bytes_.size(); ++cut) {
    ASSERT_NO_FATAL_FAILURE(check(bytes_.substr(0, cut), "cut at " + std::to_string(cut)));
  }
  Rng rng(20261018);
  for (int trial = 0; trial < 4000; ++trial) {
    std::string mutated = bytes_;
    const int flips = 1 + static_cast<int>(rng.NextIndex(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextIndex(mutated.size())] = static_cast<char>(rng.NextIndex(256));
    }
    ASSERT_NO_FATAL_FAILURE(check(mutated, "flip trial " + std::to_string(trial)));
  }
  // (offset, width) of the header count and of each entry's method length
  // (4 bytes; the values saturate) and value count.
  std::vector<std::pair<size_t, size_t>> fields = {{12, 8}};
  for (size_t e = 0; e < 3; ++e) {
    fields.push_back({20 + e * entry_size_ + 3 * 8, 4});
    fields.push_back({20 + e * entry_size_ + 3 * 8 + 4 + 5, 8});
  }
  for (const auto& [offset, width] : fields) {
    for (uint64_t value : {uint64_t{0}, uint64_t{1} << 48, ~uint64_t{0}}) {
      std::string mutated = bytes_;
      if (width == 4) {
        const uint32_t narrow = static_cast<uint32_t>(std::min<uint64_t>(value, UINT32_MAX));
        std::memcpy(&mutated[offset], &narrow, sizeof narrow);
      } else {
        std::memcpy(&mutated[offset], &value, sizeof value);
      }
      ASSERT_NO_FATAL_FAILURE(check(
          mutated, "field at " + std::to_string(offset) + " = " + std::to_string(value)));
    }
  }
  EXPECT_EQ(mutants, bytes_.size() + 4000 + 7 * 3);
}

TEST_F(CacheCorruptionTest, V1FilesAreRejectedNotGuessed) {
  // A version-1 header (no checksums) must be rejected at the header, not
  // mis-parsed: the operator regenerates with save_cache.
  std::string v1 = bytes_.substr(0, 20);
  v1[8] = 1;
  StatusOr<CacheLoadResult> loaded = LoadMutated(v1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace knnshap
