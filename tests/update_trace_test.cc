// Update-trace parser tests: line-number tracking on parsed operations and
// the diagnostic quality of malformed-line errors (line number, offending
// token, printable masking) — the contract `mc3 serve` error messages and
// the cli_serve_malformed_trace smoke test build on.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "online/update_trace.h"

namespace mc3::online {
namespace {

TEST(UpdateTraceTest, RecordsOneBasedSourceLines) {
  auto trace = ParseUpdateTrace(
      {
          "# header comment",   // line 1
          "+ red shirt",        // line 2
          "",                   // line 3
          "- red shirt",        // line 4
          "add,blue,tv",        // line 5
      },
      {});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->ops.size(), 3u);
  EXPECT_EQ(trace->ops[0].line, 2u);
  EXPECT_EQ(trace->ops[1].line, 4u);
  EXPECT_EQ(trace->ops[2].line, 5u);
  EXPECT_EQ(trace->skipped_lines, 2u);
}

TEST(UpdateTraceTest, EmptyOperationNamesLineAndMarker) {
  auto trace = ParseUpdateTrace({"+ red", "-"}, {});
  ASSERT_FALSE(trace.ok());
  const std::string message = trace.status().message();
  EXPECT_NE(message.find("trace line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("'-'"), std::string::npos) << message;
  EXPECT_NE(message.find("without a query"), std::string::npos) << message;
}

TEST(UpdateTraceTest, OverLongQueryNamesItsLine) {
  std::string line = "+";
  for (int p = 0; p < 26; ++p) line += " p" + std::to_string(p);
  auto trace = ParseUpdateTrace({"+ red shirt", line}, {});
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument);
  const std::string message = trace.status().message();
  EXPECT_NE(message.find("trace line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("has 26 properties; at most 25"), std::string::npos)
      << message;
}

TEST(UpdateTraceTest, StrayMarkerMidLineIsRejected) {
  // Two operations joined on one line: the classic corrupted-trace shape.
  auto trace = ParseUpdateTrace({"+ red shirt + blue"}, {});
  ASSERT_FALSE(trace.ok());
  const std::string message = trace.status().message();
  EXPECT_NE(message.find("trace line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("stray operation marker '+'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("two lines joined"), std::string::npos) << message;
}

TEST(UpdateTraceTest, ControlCharacterInNameIsMaskedInError) {
  auto trace = ParseUpdateTrace({"+ red shi\x01rt"}, {});
  ASSERT_FALSE(trace.ok());
  const std::string message = trace.status().message();
  EXPECT_NE(message.find("control character"), std::string::npos) << message;
  // The raw byte never reaches the message; it is masked as '?'.
  EXPECT_EQ(message.find('\x01'), std::string::npos) << message;
  EXPECT_NE(message.find("shi?rt"), std::string::npos) << message;
  EXPECT_NE(message.find("token 2"), std::string::npos) << message;
}

TEST(UpdateTraceTest, LoadPrefixesErrorsWithPath) {
  const std::string path =
      ::testing::TempDir() + "/update_trace_test_malformed.txt";
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  std::fputs("+ ok_line\n+ bad +\n", out);
  std::fclose(out);

  auto trace = LoadUpdateTrace(path, {});
  ASSERT_FALSE(trace.ok());
  const std::string message = trace.status().message();
  EXPECT_EQ(message.find(path), 0u) << message;  // path leads the message
  EXPECT_NE(message.find("trace line 2"), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(UpdateTraceTest, BaseNamesAreReusedNewNamesInterned) {
  auto trace = ParseUpdateTrace({"+ red novel"}, {"red", "shirt"});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->property_names.size(), 3u);
  EXPECT_EQ(trace->property_names[2], "novel");
  EXPECT_TRUE(trace->ops[0].query.Contains(0));  // "red" kept its base id
  EXPECT_TRUE(trace->ops[0].query.Contains(2));
}

TEST(UpdateTraceTest, OneInternerAcrossRecordsMatchesTheJoinedParse) {
  const std::vector<std::string> base = {"red", "shirt", "tv"};
  // A WAL tail, one record per entry; "blue" and "sofa" are first seen in
  // the second record and "lamp" in the third.
  const std::vector<std::vector<std::string>> records = {
      {"+ red shirt", "- tv"},
      {"+ blue sofa", "- red shirt"},
      {"# comment", "+ tv blue", "- sofa lamp"},
      {"+ red"},
  };
  PropertyInterner interner;
  ASSERT_TRUE(
      interner.Load(std::make_shared<const std::vector<std::string>>(base))
          .ok());
  std::vector<TraceOp> streamed;
  std::vector<std::string> joined;
  for (const std::vector<std::string>& record : records) {
    const PropertyNames before = interner.names();
    const size_t known = interner.size();
    auto trace = ParseUpdateTrace(record, interner);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    EXPECT_TRUE(trace->property_names.empty());
    // Only a record that brings a new name re-makes the table.
    EXPECT_EQ(interner.names() != before, interner.size() != known);
    for (TraceOp& op : trace->ops) streamed.push_back(std::move(op));
    joined.insert(joined.end(), record.begin(), record.end());
  }
  auto whole = ParseUpdateTrace(joined, base);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(streamed.size(), whole->ops.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].kind, whole->ops[i].kind) << i;
    EXPECT_EQ(streamed[i].query, whole->ops[i].query) << i;
  }
  EXPECT_EQ(*interner.names(), whole->property_names);
  EXPECT_EQ(whole->property_names,
            (std::vector<std::string>{"red", "shirt", "tv", "blue", "sofa",
                                      "lamp"}));
}

TEST(UpdateTraceTest, RepeatedBaseNameIsRejected) {
  auto trace =
      ParseUpdateTrace({"+ a"}, std::vector<std::string>{"a", "b", "a"});
  EXPECT_EQ(trace.status().code(), StatusCode::kInvalidArgument);
}

TEST(UpdateTraceRenderTest, RenderTraceOpIsTheParserInverse) {
  const std::vector<std::string> names = {"red", "shirt", "tv"};
  auto line = RenderTraceOp(TraceOp::Kind::kAdd, PropertySet::Of({0, 2}),
                            names);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  EXPECT_EQ(*line, "+ red tv");
  auto removed =
      RenderTraceOp(TraceOp::Kind::kRemove, PropertySet::Of({1}), names);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, "- shirt");

  auto parsed = ParseUpdateTrace({*line, *removed}, names);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_EQ(parsed->ops[0].kind, TraceOp::Kind::kAdd);
  EXPECT_EQ(parsed->ops[0].query, PropertySet::Of({0, 2}));
  EXPECT_EQ(parsed->ops[1].kind, TraceOp::Kind::kRemove);
  EXPECT_EQ(parsed->ops[1].query, PropertySet::Of({1}));
  // No new names were interned: rendering stayed inside the table.
  EXPECT_EQ(parsed->property_names, names);
}

TEST(UpdateTraceRenderTest, RenderUpdateBatchOrdersRemovesBeforeAdds) {
  const std::vector<std::string> names = {"a", "b", "c"};
  auto text = RenderUpdateBatch({PropertySet::Of({0, 1})},
                                {PropertySet::Of({2}), PropertySet::Of({1})},
                                names);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // Removes first — the order ApplyUpdate applies them — then adds, one
  // newline-terminated line each.
  EXPECT_EQ(*text, "- c\n- b\n+ a b\n");
}

TEST(UpdateTraceRenderTest, WalRecordShapedBatchRoundTrips) {
  const std::vector<std::string> names = {"red", "shirt", "sony", "tv"};
  const std::vector<PropertySet> add = {PropertySet::Of({0, 1})};
  const std::vector<PropertySet> remove = {PropertySet::Of({2, 3})};
  auto text = RenderUpdateBatch(add, remove, names);
  ASSERT_TRUE(text.ok()) << text.status().ToString();

  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl = text->find('\n'); nl != std::string::npos;
       nl = text->find('\n', start)) {
    lines.push_back(text->substr(start, nl - start));
    start = nl + 1;
  }
  auto parsed = ParseUpdateTrace(lines, names);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->ops.size(), 2u);
  EXPECT_EQ(parsed->ops[0].kind, TraceOp::Kind::kRemove);
  EXPECT_EQ(parsed->ops[0].query, remove[0]);
  EXPECT_EQ(parsed->ops[1].kind, TraceOp::Kind::kAdd);
  EXPECT_EQ(parsed->ops[1].query, add[0]);
}

TEST(UpdateTraceRenderTest, UnserializableNamesAreRejected) {
  // A name with whitespace would parse back as two properties.
  auto spaced = RenderTraceOp(TraceOp::Kind::kAdd, PropertySet::Of({0}),
                              {"red shirt"});
  EXPECT_FALSE(spaced.ok());
  // A bare marker token would parse back as an operation sign.
  auto marker =
      RenderTraceOp(TraceOp::Kind::kAdd, PropertySet::Of({0, 1}), {"+", "x"});
  EXPECT_FALSE(marker.ok());
  // An id beyond the name table cannot be rendered at all.
  auto unnamed =
      RenderTraceOp(TraceOp::Kind::kAdd, PropertySet::Of({5}), {"only"});
  EXPECT_FALSE(unnamed.ok());
  // Empty names never round-trip.
  auto empty =
      RenderTraceOp(TraceOp::Kind::kRemove, PropertySet::Of({0}), {""});
  EXPECT_FALSE(empty.ok());
}

}  // namespace
}  // namespace mc3::online
