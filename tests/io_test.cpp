// Copyright 2026 the knnshap authors. Apache-2.0 license.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "dataset/io.h"
#include "test_util.h"

namespace knnshap {
namespace {

using testing_util::RandomClassDataset;
using testing_util::RandomRegDataset;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

TEST(CsvIoTest, RoundTripClassification) {
  Dataset data = RandomClassDataset(25, 3, 4, 1);
  std::string path = TempPath("roundtrip_class.csv");
  ASSERT_TRUE(SaveCsvDataset(data, path));
  auto loaded = LoadCsvDataset(path, CsvTarget::kLabel);
  ASSERT_TRUE(loaded.ok()) << loaded.status.ToString();
  EXPECT_EQ(loaded.rows_parsed, 25u);
  EXPECT_EQ(loaded.rows_skipped, 0u);
  ASSERT_EQ(loaded.data.Size(), data.Size());
  ASSERT_EQ(loaded.data.Dim(), data.Dim());
  for (size_t i = 0; i < data.Size(); ++i) {
    EXPECT_EQ(loaded.data.labels[i], data.labels[i]);
    for (size_t d = 0; d < data.Dim(); ++d) {
      EXPECT_NEAR(loaded.data.features.Row(i)[d], data.features.Row(i)[d], 1e-5);
    }
  }
  std::remove(path.c_str());
}

TEST(CsvIoTest, RoundTripRegression) {
  Dataset data = RandomRegDataset(15, 3, 2);
  std::string path = TempPath("roundtrip_reg.csv");
  ASSERT_TRUE(SaveCsvDataset(data, path));
  auto loaded = LoadCsvDataset(path, CsvTarget::kTarget);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.data.Size(), 15u);
  for (size_t i = 0; i < data.Size(); ++i) {
    EXPECT_NEAR(loaded.data.targets[i], data.targets[i], 1e-5);
  }
  std::remove(path.c_str());
}

TEST(CsvIoTest, HeaderDetectedAndSkipped) {
  std::string path = TempPath("header.csv");
  WriteFile(path, "f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n");
  auto loaded = LoadCsvDataset(path, CsvTarget::kLabel);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.had_header);
  EXPECT_EQ(loaded.rows_parsed, 2u);
  EXPECT_EQ(loaded.data.Dim(), 2u);
  EXPECT_EQ(loaded.data.labels[1], 1);
  std::remove(path.c_str());
}

TEST(CsvIoTest, MalformedRowsSkippedNotFatal) {
  std::string path = TempPath("malformed.csv");
  WriteFile(path, "1.0,2.0,0\n1.0,oops,1\n1.0,2.0\n5.0,6.0,1\n");
  auto loaded = LoadCsvDataset(path, CsvTarget::kLabel);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.rows_parsed, 2u);
  EXPECT_EQ(loaded.rows_skipped, 2u);
  std::remove(path.c_str());
}

TEST(CsvIoTest, LabelsOutsideIntRangeAreSkippedRows) {
  std::string path = TempPath("label_range.csv");
  WriteFile(path,
            "1.0,2.0,0\n1.0,2.0,1e300\n1.0,2.0,nan\n1.0,2.0,-inf\n"
            "1.0,2.0,2147483648\n1.0,2.0,-2147483649\n3.0,4.0,1.7\n"
            "5.0,6.0,-2147483648\n");
  auto loaded = LoadCsvDataset(path, CsvTarget::kLabel);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.rows_parsed, 3u);
  EXPECT_EQ(loaded.rows_skipped, 5u);
  // In-range labels truncate toward zero, as they always have.
  EXPECT_EQ(loaded.data.labels, (std::vector<int>{0, 1, -2147483647 - 1}));
  std::remove(path.c_str());
}

TEST(CsvIoTest, NonFiniteFeaturesAreSkippedRows) {
  // A NaN distance leaves the (distance, index) order undefined, so a
  // feature that is nan, inf, or overflows to an inf float (1e999 reads
  // as inf, 1e39 rounds to it) makes its row malformed.
  std::string path = TempPath("feature_range.csv");
  WriteFile(path,
            "1.0,2.0,0\nnan,2.0,1\n1.0,inf,1\n1e999,2.0,0\n1.0,-inf,0\n"
            "1.0,-nan,1\n1e39,2.0,1\n3.0,-3.4e38,1\n");
  auto loaded = LoadCsvDataset(path, CsvTarget::kLabel);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.rows_parsed, 2u);
  EXPECT_EQ(loaded.rows_skipped, 6u);
  EXPECT_EQ(loaded.data.labels, (std::vector<int>{0, 1}));
  auto features_only = LoadCsvDataset(path, CsvTarget::kNone);
  ASSERT_TRUE(features_only.ok());
  EXPECT_EQ(features_only.rows_parsed, 2u);
  std::remove(path.c_str());
}

TEST(CsvIoTest, MissingFileIsFatal) {
  auto loaded = LoadCsvDataset(TempPath("does_not_exist.csv"), CsvTarget::kLabel);
  EXPECT_FALSE(loaded.ok());
}

TEST(CsvIoTest, AllHeaderNoDataIsFatal) {
  std::string path = TempPath("only_header.csv");
  WriteFile(path, "a,b,c\n");
  auto loaded = LoadCsvDataset(path, CsvTarget::kLabel);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CsvIoTest, NoTargetModeReadsAllColumnsAsFeatures) {
  std::string path = TempPath("features_only.csv");
  WriteFile(path, "1,2,3\n4,5,6\n");
  auto loaded = LoadCsvDataset(path, CsvTarget::kNone);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.data.Dim(), 3u);
  EXPECT_FALSE(loaded.data.HasLabels());
  std::remove(path.c_str());
}

TEST(CsvIoTest, SaveValuesIncludesLabels) {
  Dataset data = RandomClassDataset(3, 2, 2, 3);
  std::vector<double> values = {0.5, -0.25, 0.125};
  std::string path = TempPath("values.csv");
  ASSERT_TRUE(SaveValuesCsv(values, data, path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "index,value,label");
  std::getline(in, line);
  EXPECT_EQ(line.rfind("0,0.5,", 0), 0u);
  std::remove(path.c_str());
}

TEST(CsvIoTest, WindowsLineEndingsTolerated) {
  std::string path = TempPath("crlf.csv");
  WriteFile(path, "1.0,2.0,1\r\n3.0,4.0,0\r\n");
  auto loaded = LoadCsvDataset(path, CsvTarget::kLabel);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.rows_parsed, 2u);
  EXPECT_EQ(loaded.data.labels[0], 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace knnshap
