#include "sim/manifest.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.hpp"

namespace tbi::sim {
namespace {

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "manifest_test_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".manifest";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

Json record(std::uint64_t i) {
  Json r;
  r["value"] = i * 10;
  return r;
}

TEST(SweepFingerprint, SensitiveToEveryInput) {
  Json job;
  job["frames"] = 40;
  const std::string base = sweep_fingerprint("fer", job, 36, 1);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, sweep_fingerprint("fer", job, 36, 1));  // deterministic

  EXPECT_NE(base, sweep_fingerprint("bandwidth", job, 36, 1));
  EXPECT_NE(base, sweep_fingerprint("fer", job, 37, 1));
  EXPECT_NE(base, sweep_fingerprint("fer", job, 36, 2));
  Json other = job;
  other["frames"] = 41;
  EXPECT_NE(base, sweep_fingerprint("fer", other, 36, 1));
}

TEST_F(ManifestTest, RoundTripsEntries) {
  ManifestWriter w;
  ASSERT_TRUE(w.open(path_, "fp1", /*fresh=*/true));
  ASSERT_TRUE(w.append(3, record(3)));
  ASSERT_TRUE(w.append(0, record(0)));
  w.close();

  const auto load = load_manifest(path_, "fp1");
  ASSERT_TRUE(load.found);
  ASSERT_TRUE(load.fingerprint_ok);
  ASSERT_EQ(load.entries.size(), 2u);
  EXPECT_EQ(load.entries[0].cell, 3u);
  EXPECT_EQ(load.entries[0].record.at("value").as_double(), 30);
  EXPECT_EQ(load.entries[1].cell, 0u);
}

TEST_F(ManifestTest, MissingFileIsNotFound) {
  const auto load = load_manifest(path_, "fp1");
  EXPECT_FALSE(load.found);
  EXPECT_TRUE(load.entries.empty());
}

TEST_F(ManifestTest, FingerprintMismatchLoadsNothing) {
  ManifestWriter w;
  ASSERT_TRUE(w.open(path_, "fp1", /*fresh=*/true));
  ASSERT_TRUE(w.append(1, record(1)));
  w.close();

  const auto load = load_manifest(path_, "fp2");
  EXPECT_TRUE(load.found);
  EXPECT_FALSE(load.fingerprint_ok);
  EXPECT_TRUE(load.entries.empty());
}

TEST_F(ManifestTest, TornTailIsDroppedNotFatal) {
  ManifestWriter w;
  ASSERT_TRUE(w.open(path_, "fp1", /*fresh=*/true));
  ASSERT_TRUE(w.append(0, record(0)));
  ASSERT_TRUE(w.append(1, record(1)));
  w.close();
  // Simulate a crash mid-append: a half-written last line.
  {
    std::ofstream out(path_, std::ios::app);
    out << "{\"cell\":2,\"record\":{\"val";
  }

  const auto load = load_manifest(path_, "fp1");
  ASSERT_TRUE(load.found);
  ASSERT_TRUE(load.fingerprint_ok);
  ASSERT_EQ(load.entries.size(), 2u);  // the torn entry is recomputed, not trusted
  EXPECT_EQ(load.entries[1].cell, 1u);
}

TEST_F(ManifestTest, AppendModeKeepsExistingEntries) {
  {
    ManifestWriter w;
    ASSERT_TRUE(w.open(path_, "fp1", /*fresh=*/true));
    ASSERT_TRUE(w.append(0, record(0)));
    w.close();
  }
  {
    ManifestWriter w;
    ASSERT_TRUE(w.open(path_, "fp1", /*fresh=*/false));  // resume: append only
    ASSERT_TRUE(w.append(1, record(1)));
    w.close();
  }
  const auto load = load_manifest(path_, "fp1");
  ASSERT_EQ(load.entries.size(), 2u);
  EXPECT_EQ(load.entries[0].cell, 0u);
  EXPECT_EQ(load.entries[1].cell, 1u);
}

TEST_F(ManifestTest, CellThatIsNotAnExactIndexEndsTheValidPrefix) {
  // Json numbers are doubles. A cell of 2.5 or 1e300 must not truncate
  // to a real index (2, or whatever the cast yields) and hand its record
  // to that cell on resume: like a torn line, it ends the trusted prefix,
  // for the loader and for the resume truncation alike.
  for (const char* bad : {"2.5", "1e300", "-1", "9007199254740992", "\"3\"", "null"}) {
    {
      ManifestWriter w;
      ASSERT_TRUE(w.open(path_, "fp1", /*fresh=*/true));
      ASSERT_TRUE(w.append(0, record(0)));
      w.close();
      std::ofstream out(path_, std::ios::app);
      out << "{\"cell\":" << bad << ",\"record\":{\"value\":99}}\n";
      out << "{\"cell\":1,\"record\":{\"value\":10}}\n";
    }
    auto load = load_manifest(path_, "fp1");
    ASSERT_TRUE(load.fingerprint_ok) << bad;
    ASSERT_EQ(load.entries.size(), 1u) << bad;
    EXPECT_EQ(load.entries[0].cell, 0u) << bad;

    // Resuming truncates the journal by the same rule, so a cell appended
    // now is not hidden behind the rejected line.
    {
      ManifestWriter w;
      ASSERT_TRUE(w.open(path_, "fp1", /*fresh=*/false));
      ASSERT_TRUE(w.append(5, record(5)));
      w.close();
    }
    load = load_manifest(path_, "fp1");
    ASSERT_EQ(load.entries.size(), 2u) << bad;
    EXPECT_EQ(load.entries[0].cell, 0u) << bad;
    EXPECT_EQ(load.entries[1].cell, 5u) << bad;
  }

  // The largest exact index is still a cell.
  {
    ManifestWriter w;
    ASSERT_TRUE(w.open(path_, "fp1", /*fresh=*/true));
    ASSERT_TRUE(w.append(9007199254740991ull, record(1)));
    w.close();
  }
  const auto load = load_manifest(path_, "fp1");
  ASSERT_EQ(load.entries.size(), 1u);
  EXPECT_EQ(load.entries[0].cell, 9007199254740991ull);
}

}  // namespace
}  // namespace tbi::sim
