#include <gtest/gtest.h>

#include <cmath>

#include "util/csv.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"
#include "util/timer.h"

namespace mc3 {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::Infeasible("no cover");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
  EXPECT_EQ(s.message(), "no cover");
  EXPECT_EQ(s.ToString(), "Infeasible: no cover");
}

TEST(StatusTest, AllCodesNamed) {
  EXPECT_EQ(Status::InvalidArgument("x").ToString(), "InvalidArgument: x");
  EXPECT_EQ(Status::NotFound("x").ToString(), "NotFound: x");
  EXPECT_EQ(Status::IOError("x").ToString(), "IOError: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "Internal: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("abc"));
  const std::string s = std::move(r).value();
  EXPECT_EQ(s, "abc");
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(5, 5), 5u);
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng rng(11);
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.UniformInt(0, 3)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(double(i));
  ::testing::Test::RecordProperty("sink", static_cast<int>(sink));
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), t.Seconds());  // millis numerically larger
}

/// A row handler that appends each row it is handed to `rows`.
CsvRowHandler AppendTo(std::vector<std::vector<std::string>>* rows) {
  return [rows](const std::vector<std::string>& row) {
    rows->push_back(row);
    return Status::OK();
  };
}

/// The rows ParseCsv hands to its callback, in order.
Result<std::vector<std::vector<std::string>>> CsvRows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  MC3_RETURN_IF_ERROR(ParseCsv(text, AppendTo(&rows)));
  return rows;
}

TEST(CsvTest, ParsesSimpleRows) {
  auto rows = CsvRows("a,b,c\n1,2,3\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  auto rows = CsvRows("# header\n\na,b\n\n# tail\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
}

TEST(CsvTest, QuotedFields) {
  auto rows = CsvRows("\"a,b\",\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "a,b");
  EXPECT_EQ((*rows)[0][1], "say \"hi\"");
}

TEST(CsvTest, CrLfTolerated) {
  auto rows = CsvRows("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(CsvTest, MissingTrailingNewline) {
  auto rows = CsvRows("a,b");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].size(), 2u);
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  auto rows = CsvRows("\"abc\n");
  EXPECT_FALSE(rows.ok());
}

TEST(CsvTest, HandlerErrorStopsTheParse) {
  size_t seen = 0;
  const Status status =
      ParseCsv("a\nb\nc\n", [&seen](const std::vector<std::string>& row) {
        ++seen;
        return row[0] == "b" ? Status::InvalidArgument("no b")
                             : Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "no b");
  EXPECT_EQ(seen, 2u);
}

TEST(CsvTest, FormatRoundTrips) {
  const std::vector<std::vector<std::string>> rows{
      {"plain", "with,comma", "with\"quote"},
      {"", "x", "multi\nline"},
  };
  auto parsed = CsvRows(FormatCsv(rows));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], rows[0]);
  EXPECT_EQ((*parsed)[1], rows[1]);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mc3_csv_test.csv";
  const std::vector<std::vector<std::string>> rows{{"a", "b"}, {"c", "d"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  std::vector<std::vector<std::string>> parsed;
  ASSERT_TRUE(ReadCsvFile(path, AppendTo(&parsed)).ok());
  EXPECT_EQ(parsed, rows);
}

TEST(CsvTest, MissingFileIsNotFound) {
  std::vector<std::vector<std::string>> rows;
  const Status status =
      ReadCsvFile("/nonexistent/road/file.csv", AppendTo(&rows));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(rows.empty());
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "cost"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "23"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| name   | cost |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 23   |"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(5, 0), "5");
  EXPECT_EQ(TablePrinter::Num(std::numeric_limits<double>::infinity()),
            "inf");
}

TEST(TablePrinterTest, CsvExport) {
  TablePrinter t({"h1", "h2"});
  t.AddRow({"a", "b"});
  EXPECT_EQ(t.ToCsv(), "h1,h2\na,b\n");
}

}  // namespace
}  // namespace mc3
