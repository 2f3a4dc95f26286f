// Tests of the observability layer: metrics registry (including
// concurrency), span tracing, JSON writer/parser round trips and report
// schema validation.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mc3.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "util/parallel.h"

namespace mc3 {
namespace {

using obs::JsonValue;
using obs::JsonWriter;
using obs::ParseJson;

TEST(JsonWriterTest, RendersNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("a \"quoted\" \n value");
  w.Key("count").Int(42);
  w.Key("pi").Number(3.5);
  w.Key("bad").Number(std::nan(""));
  w.Key("flag").Bool(true);
  w.Key("nothing").Null();
  w.Key("list").BeginArray();
  w.Int(1);
  w.BeginObject();
  w.Key("x").Int(2);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  const std::string json = w.Take();

  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->Find("name")->string, "a \"quoted\" \n value");
  EXPECT_EQ(parsed->Find("count")->number, 42);
  EXPECT_EQ(parsed->Find("pi")->number, 3.5);
  EXPECT_EQ(parsed->Find("bad")->kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(parsed->Find("flag")->boolean);
  EXPECT_EQ(parsed->Find("nothing")->kind, JsonValue::Kind::kNull);
  ASSERT_TRUE(parsed->Find("list")->is_array());
  ASSERT_EQ(parsed->Find("list")->array.size(), 2u);
  EXPECT_EQ(parsed->Find("list")->array[1].Find("x")->number, 2);
}

TEST(JsonParserTest, AcceptsScalarsAndRejectsGarbage) {
  EXPECT_TRUE(ParseJson("true").ok());
  EXPECT_TRUE(ParseJson("-12.5e2").ok());
  EXPECT_TRUE(ParseJson("\"\\u0041\\t\"").ok());
  EXPECT_TRUE(ParseJson("[]").ok());
  EXPECT_TRUE(ParseJson("{}").ok());
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
}

TEST(JsonParserTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonParserTest, RoundTripsEscapes) {
  std::string out;
  obs::AppendJsonEscaped("tab\t nl\n quote\" back\\ bell\x07", &out);
  auto parsed = ParseJson("\"" + out + "\"");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string, "tab\t nl\n quote\" back\\ bell\x07");
}

TEST(MetricsTest, CountersGaugesHistograms) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  obs::Counter& counter = registry.GetCounter("test.counter");
  obs::Gauge& gauge = registry.GetGauge("test.gauge");
  obs::Histogram& histogram = registry.GetHistogram("test.histogram");
  counter.Add();
  counter.Add(4);
  gauge.Set(2.5);
  histogram.Record(0.001);
  histogram.Record(0.004);

  const obs::MetricsSnapshot snap = registry.Snap();
  EXPECT_EQ(snap.counters.at("test.counter"), 5u);
  EXPECT_EQ(snap.gauges.at("test.gauge"), 2.5);
  const obs::HistogramSnapshot& h = snap.histograms.at("test.histogram");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 0.005);
  EXPECT_EQ(h.min, 0.001);
  EXPECT_EQ(h.max, 0.004);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0025);

  // Handles survive ResetAll; values restart from zero.
  registry.ResetAll();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(registry.Snap().histograms.at("test.histogram").count, 0u);
}

TEST(MetricsTest, HistogramBucketsAreMonotonic) {
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0);
  EXPECT_EQ(obs::Histogram::BucketLowerBound(0), 0);
  int last = 0;
  for (double v = 1e-8; v < 1e4; v *= 3) {
    const int b = obs::Histogram::BucketOf(v);
    EXPECT_GE(b, last);
    EXPECT_LT(b, obs::Histogram::kNumBuckets);
    if (b > 0) {
      EXPECT_LE(obs::Histogram::BucketLowerBound(b), v);
    }
    last = b;
  }
}

TEST(MetricsTest, ConcurrentRecordingLosesNothing) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  obs::Counter& counter = registry.GetCounter("test.concurrent.counter");
  obs::Histogram& histogram =
      registry.GetHistogram("test.concurrent.histogram");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
        histogram.Record(1e-6 * (1 + ((t + i) % 7)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const obs::HistogramSnapshot h =
      registry.Snap().histograms.at("test.concurrent.histogram");
  EXPECT_EQ(h.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.min, 1e-6);
  EXPECT_EQ(h.max, 7e-6);
  uint64_t bucketed = 0;
  for (uint64_t b : h.buckets) bucketed += b;
  EXPECT_EQ(bucketed, h.count);
}

TEST(TraceTest, BuildsSpanTreeWithStats) {
  obs::Trace trace("root");
  {
    obs::ScopedTraceActivation activate(&trace);
    obs::ScopedSpan outer("outer");
    outer.AddStat("n", 3);
    {
      obs::ScopedSpan inner("inner");
      inner.AddStat("m", 1);
    }
    { obs::ScopedSpan inner("inner"); }
  }
  const obs::SpanNode& root = *trace.root();
  EXPECT_EQ(root.name, "root");
  ASSERT_EQ(root.children.size(), 1u);
  const obs::SpanNode& outer = *root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(outer.seconds, 0);
  ASSERT_EQ(outer.stats.size(), 1u);
  EXPECT_EQ(outer.stats[0].first, "n");
  EXPECT_EQ(outer.stats[0].second, 3);
  EXPECT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(root.CountSpans("inner"), 2u);
  EXPECT_NE(root.FindSpan("inner"), nullptr);
  EXPECT_GE(root.TotalSeconds("outer"), root.TotalSeconds("inner"));
}

TEST(TraceTest, InactiveSpansAreNoOps) {
  // No activation: spans must not crash and must record nothing.
  obs::ScopedSpan span("orphan");
  EXPECT_FALSE(span.active());
  span.AddStat("ignored", 1);
}

TEST(TraceTest, ActivationRestoresPreviousContext) {
  obs::Trace a("a");
  obs::Trace b("b");
  {
    obs::ScopedTraceActivation activate_a(&a);
    {
      obs::ScopedTraceActivation activate_b(&b);
      obs::ScopedSpan span("in_b");
    }
    obs::ScopedSpan span("in_a");
  }
  EXPECT_EQ(a.root()->CountSpans("in_a"), 1u);
  EXPECT_EQ(a.root()->CountSpans("in_b"), 0u);
  EXPECT_EQ(b.root()->CountSpans("in_b"), 1u);
  EXPECT_EQ(obs::CurrentTraceContext().trace, nullptr);
}

TEST(TraceTest, ParallelWorkersAdoptTheParentSpan) {
  obs::Trace trace("root");
  {
    obs::ScopedTraceActivation activate(&trace);
    obs::ScopedSpan parent("parent");
    const obs::TraceContext context = obs::CurrentTraceContext();
    ParallelFor(32, 4, [&](size_t) {
      obs::ScopedSpanAdoption adopt(context);
      obs::ScopedSpan child("worker");
    });
  }
  const obs::SpanNode* parent = trace.root()->FindSpan("parent");
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->CountSpans("worker"), 32u);
}

TEST(TraceTest, SolverSolvePopulatesPhases) {
  obs::Trace trace("solve");
  {
    obs::ScopedTraceActivation activate(&trace);
    GeneralSolver solver{SolverOptions{}};
    auto result = solver.Solve(mc3::testing::PaperExample());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->cost, 7);
  }
  const obs::SpanNode& root = *trace.root();
  EXPECT_NE(root.FindSpan("general_solver"), nullptr);
  EXPECT_NE(root.FindSpan("preprocess"), nullptr);
  EXPECT_NE(root.FindSpan("step1"), nullptr);
  EXPECT_NE(root.FindSpan("step3"), nullptr);
  EXPECT_NE(root.FindSpan("partition"), nullptr);
}

TEST(TraceTest, ActivationTimesTheRoot) {
  obs::Trace trace("solve");
  {
    obs::ScopedTraceActivation activate(&trace);
    GeneralSolver solver{SolverOptions{}};
    ASSERT_TRUE(solver.Solve(mc3::testing::PaperExample()).ok());
  }
  const obs::SpanNode& root = *trace.root();
  ASSERT_FALSE(root.children.empty());
  double children = 0;
  for (const auto& child : root.children) children += child->seconds;
  EXPECT_GT(root.seconds, 0);
  EXPECT_GE(root.seconds, children);
}

obs::SolveReportMeta TestMeta() {
  obs::SolveReportMeta meta;
  meta.tool = "bench";
  meta.solver = "mc3g";
  meta.workload = "unit";
  meta.num_queries = 2;
  meta.num_classifiers = 9;
  meta.num_properties = 5;
  meta.max_query_length = 3;
  meta.cost = 7;
  meta.solution_size = 3;
  meta.num_components = 1;
  meta.total_seconds = 0.001;
  return meta;
}

TEST(ReportTest, SolveReportValidates) {
  obs::Trace trace("solve");
  {
    obs::ScopedTraceActivation activate(&trace);
    obs::ScopedSpan span("preprocess");
    span.AddStat("queries_covered", 2);
  }
  const std::string json = obs::RenderSolveReport(
      TestMeta(), trace, obs::MetricsRegistry::Global().Snap());
  EXPECT_TRUE(obs::ValidateSolveReportJson(json).ok())
      << obs::ValidateSolveReportJson(json).ToString();
  // A bench document it is not.
  EXPECT_FALSE(obs::ValidateBenchReportJson(json).ok());
}

TEST(ReportTest, ValidationCatchesCorruption) {
  obs::Trace trace("solve");
  const std::string json = obs::RenderSolveReport(
      TestMeta(), trace, obs::MetricsRegistry::Global().Snap());
  ASSERT_TRUE(obs::ValidateSolveReportJson(json).ok());

  // Strip the result section: must fail validation.
  std::string corrupted = json;
  const size_t at = corrupted.find("\"result\"");
  ASSERT_NE(at, std::string::npos);
  corrupted.replace(at, 8, "\"broken\"");
  EXPECT_FALSE(obs::ValidateSolveReportJson(corrupted).ok());
  EXPECT_FALSE(obs::ValidateSolveReportJson("{}").ok());
  EXPECT_FALSE(obs::ValidateSolveReportJson("not json").ok());
}

obs::BenchRunInfo QuickRunInfo() {
  obs::BenchRunInfo run;
  run.quick = true;
  run.scale = 0.05;
  return run;
}

TEST(ReportTest, BenchReportRequiresPhasesWhenEnabled) {
  obs::Trace trace("bench");
  std::vector<obs::BenchCase> cases;
  obs::BenchCase bench_case;
  bench_case.meta = TestMeta();
  bench_case.trace = &trace;
  bench_case.counters["bench.test_counter"] = 7;
  bench_case.wall_seconds = {0.001};
  cases.push_back(std::move(bench_case));
  const std::string json = obs::RenderBenchReport(
      cases, obs::MetricsRegistry::Global().Snap(), QuickRunInfo());
  // An empty span tree cannot carry the required phases.
  EXPECT_FALSE(obs::ValidateBenchReportJson(json).ok());
}

TEST(ReportTest, BenchReportV2RequiresCountersAndWallTimes) {
  obs::Trace trace("bench");
  std::vector<obs::BenchCase> cases;
  obs::BenchCase bench_case;
  bench_case.meta = TestMeta();
  bench_case.trace = &trace;
  bench_case.counters["bench.test_counter"] = 7;
  bench_case.wall_seconds = {0.001, 0.002};
  cases.push_back(std::move(bench_case));
  const std::string json = obs::RenderBenchReport(
      cases, obs::MetricsRegistry::Global().Snap(), QuickRunInfo());

  // The rendered document carries the v2 header fields verbatim.
  EXPECT_NE(json.find("\"schema\": \"mc3.bench_report/2\""),
            std::string::npos);
  EXPECT_NE(json.find("\"machine\""), std::string::npos);
  EXPECT_NE(json.find("\"bench.test_counter\": 7"), std::string::npos);

  // Dropping the per-case wall times must fail v2 validation.
  std::string no_walls = json;
  const size_t at = no_walls.find("\"wall_seconds\"");
  ASSERT_NE(at, std::string::npos);
  no_walls.replace(at, std::strlen("\"wall_seconds\""), "\"renamed\"");
  EXPECT_FALSE(obs::ValidateBenchReportJson(no_walls).ok());

  // A /1 document is rejected on its schema, even with every /2 field.
  std::string v1 = json;
  const size_t schema_at = v1.find("mc3.bench_report/2");
  ASSERT_NE(schema_at, std::string::npos);
  v1.replace(schema_at, std::strlen("mc3.bench_report/2"),
             "mc3.bench_report/1");
  const Status v1_status = obs::ValidateBenchReportJson(v1);
  EXPECT_FALSE(v1_status.ok());
  EXPECT_NE(v1_status.message().find("$.schema"), std::string::npos)
      << v1_status.ToString();
}

// ---------------------------------------------------------------------------
// HistogramSnapshot quantile edge cases.

TEST(HistogramQuantileTest, EmptyHistogramReportsZeroEverywhere) {
  const obs::HistogramSnapshot empty;
  EXPECT_EQ(empty.Percentile(0), 0);
  EXPECT_EQ(empty.P50(), 0);
  EXPECT_EQ(empty.P95(), 0);
  EXPECT_EQ(empty.P99(), 0);
  EXPECT_EQ(empty.Percentile(1), 0);
  EXPECT_EQ(empty.Mean(), 0);
}

TEST(HistogramQuantileTest, SingleSampleIsEveryQuantile) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  registry.GetHistogram("test.quantile.single").Record(0.0042);
  const obs::HistogramSnapshot h =
      registry.Snap().histograms.at("test.quantile.single");
  ASSERT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.0042);
  EXPECT_DOUBLE_EQ(h.P50(), 0.0042);
  EXPECT_DOUBLE_EQ(h.P95(), 0.0042);
  EXPECT_DOUBLE_EQ(h.P99(), 0.0042);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 0.0042);
  registry.ResetAll();
}

TEST(HistogramQuantileTest, OpenEndedFirstBucketClampsToObservedRange) {
  // Samples far below the first finite bucket bound land in the open-ended
  // first bucket; interpolation must clamp to [min, max], not to the bucket
  // bound.
  auto& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  obs::Histogram& histogram = registry.GetHistogram("test.quantile.tiny");
  histogram.Record(1e-9);
  histogram.Record(3e-9);
  const obs::HistogramSnapshot h =
      registry.Snap().histograms.at("test.quantile.tiny");
  ASSERT_EQ(h.count, 2u);
  for (const double q : {0.01, 0.5, 0.95, 0.99}) {
    const double v = h.Percentile(q);
    EXPECT_GE(v, h.min) << "q=" << q;
    EXPECT_LE(v, h.max) << "q=" << q;
  }
  registry.ResetAll();
}

TEST(HistogramQuantileTest, OpenEndedLastBucketClampsToObservedMax) {
  // A sample beyond the last finite bound lands in the open-ended last
  // bucket, whose upper edge is +inf; the observed max must bound the
  // estimate.
  auto& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  obs::Histogram& histogram = registry.GetHistogram("test.quantile.huge");
  histogram.Record(1e9);
  histogram.Record(2e9);
  const obs::HistogramSnapshot h =
      registry.Snap().histograms.at("test.quantile.huge");
  ASSERT_EQ(h.count, 2u);
  const double p99 = h.P99();
  EXPECT_TRUE(std::isfinite(p99));
  EXPECT_GE(p99, h.min);
  EXPECT_LE(p99, h.max);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 2e9);
  registry.ResetAll();
}

// ---------------------------------------------------------------------------
// Chrome trace-event sink.

namespace {

// Collects every event object in the rendered document that satisfies
// `pred`.
std::vector<const JsonValue*> EventsWhere(
    const JsonValue& doc, bool (*pred)(const JsonValue&)) {
  std::vector<const JsonValue*> out;
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;
  for (const JsonValue& e : events->array) {
    if (pred(e)) out.push_back(&e);
  }
  return out;
}

std::string PhaseOf(const JsonValue& event) {
  const JsonValue* ph = event.Find("ph");
  return (ph != nullptr && ph->is_string()) ? ph->string : "";
}

}  // namespace

TEST(TraceTest, StitchesFlowEventsAcrossThreads) {
  obs::Trace trace("serve");
  const obs::Trace::Clock::time_point t0 = obs::Trace::Clock::now();
  const auto at = [t0](int us) { return t0 + std::chrono::microseconds(us); };
  trace.NameCurrentThread("conn-0");
  trace.RecordSpan(trace.root(), "parse", at(0), at(10), {7});
  std::thread worker([&] {
    trace.NameCurrentThread("engine-worker");
    trace.RecordSpan(trace.root(), "shard_apply", at(100), at(125), {7});
    trace.RecordSpan(trace.root(), "unrelated", at(200), at(205), {});
  });
  worker.join();
  trace.RecordSpan(trace.root(), "serialize", at(400), at(403), {7});

  auto doc = ParseJson(trace.RenderChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  // Three 'X' spans plus the un-sampled one.
  auto complete = EventsWhere(*doc, [](const JsonValue& e) {
    return PhaseOf(e) == "X";
  });
  EXPECT_EQ(complete.size(), 4u);

  // Both threads announce display names.
  auto meta = EventsWhere(*doc, [](const JsonValue& e) {
    return PhaseOf(e) == "M";
  });
  ASSERT_EQ(meta.size(), 2u);
  std::vector<std::string> names;
  std::vector<int> tids;
  for (const JsonValue* e : meta) {
    const JsonValue* args = e->Find("args");
    ASSERT_NE(args, nullptr);
    const JsonValue* name = args->Find("name");
    ASSERT_NE(name, nullptr);
    names.push_back(name->string);
    const JsonValue* tid = e->Find("tid");
    ASSERT_NE(tid, nullptr);
    tids.push_back(static_cast<int>(tid->number));
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "conn-0"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "engine-worker"),
            names.end());
  EXPECT_NE(tids[0], tids[1]);

  // Flow chain for id 7: exactly one start, one finish, one step, in
  // timestamp order, and the finish binds to the enclosing slice ("bp":"e").
  auto starts = EventsWhere(*doc, [](const JsonValue& e) {
    return PhaseOf(e) == "s";
  });
  auto steps = EventsWhere(*doc, [](const JsonValue& e) {
    return PhaseOf(e) == "t";
  });
  auto finishes = EventsWhere(*doc, [](const JsonValue& e) {
    return PhaseOf(e) == "f";
  });
  ASSERT_EQ(starts.size(), 1u);
  ASSERT_EQ(steps.size(), 1u);
  ASSERT_EQ(finishes.size(), 1u);
  const JsonValue* bp = finishes[0]->Find("bp");
  ASSERT_NE(bp, nullptr);
  EXPECT_EQ(bp->string, "e");
  const double ts_s = starts[0]->Find("ts")->number;
  const double ts_t = steps[0]->Find("ts")->number;
  const double ts_f = finishes[0]->Find("ts")->number;
  EXPECT_LE(ts_s, ts_t);
  EXPECT_LE(ts_t, ts_f);
  for (const JsonValue* e : {starts[0], steps[0], finishes[0]}) {
    const JsonValue* id = e->Find("id");
    ASSERT_NE(id, nullptr);
    EXPECT_EQ(id->number, 7);
  }
}

TEST(TraceTest, SingleSpanFlowsNothing) {
  obs::Trace trace("serve");
  const obs::Trace::Clock::time_point now = obs::Trace::Clock::now();
  trace.RecordSpan(trace.root(), "lonely", now, now, {42});
  auto doc = ParseJson(trace.RenderChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto flows = EventsWhere(*doc, [](const JsonValue& e) {
    const std::string ph = PhaseOf(e);
    return ph == "s" || ph == "t" || ph == "f";
  });
  EXPECT_TRUE(flows.empty());
}

TEST(TraceTest, CapsRecordsAndCountsDrops) {
  obs::Trace trace("serve", /*max_spans=*/4);
  const obs::Trace::Clock::time_point now = obs::Trace::Clock::now();
  for (int i = 0; i < 10; ++i) {
    trace.RecordSpan(trace.root(), "s", now, now, {});
  }
  EXPECT_EQ(trace.recorded(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  auto doc = ParseJson(trace.RenderChromeJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto complete = EventsWhere(*doc, [](const JsonValue& e) {
    return PhaseOf(e) == "X";
  });
  EXPECT_EQ(complete.size(), 4u);
}

// A span refused at the cap is inactive and the code under it runs
// untraced: its spans are neither kept nor counted, and a sibling opened
// after it is refused (and counted) again.
TEST(TraceTest, SpansPastTheCapRunUntracedUnderAdoption) {
  obs::Trace trace("solve", /*max_spans=*/3);
  {
    obs::ScopedTraceActivation activate(&trace);
    obs::ScopedSpan outer("outer");
    const obs::TraceContext context = obs::CurrentTraceContext();
    std::thread worker([&] {
      obs::ScopedSpanAdoption adopt(context);
      obs::ScopedSpan middle("middle");
      obs::ScopedSpan inner("inner");
      EXPECT_TRUE(inner.active());
      {
        obs::ScopedSpan refused("refused");
        EXPECT_FALSE(refused.active());
        refused.AddStat("ignored", 1);
        EXPECT_EQ(obs::CurrentTraceContext().trace, nullptr);
        obs::ScopedSpan under("under_refused");
        EXPECT_FALSE(under.active());
        obs::ScopedSpan deeper("deeper");
        EXPECT_FALSE(deeper.active());
      }
      // Back under `inner`, which is recorded.
      EXPECT_EQ(obs::CurrentTraceContext().trace, &trace);
      obs::ScopedSpan sibling("sibling");
      EXPECT_FALSE(sibling.active());
    });
    worker.join();
    obs::ScopedSpan late("late");
    EXPECT_FALSE(late.active());
  }
  EXPECT_EQ(trace.recorded(), 3u);
  EXPECT_EQ(trace.dropped(), 3u);  // refused, sibling, late
  const obs::SpanNode& root = *trace.root();
  ASSERT_EQ(root.children.size(), 1u);
  const obs::SpanNode* inner = root.FindSpan("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_TRUE(inner->children.empty());
  EXPECT_EQ(root.FindSpan("middle")->children.size(), 1u);
  EXPECT_NE(root.children[0]->thread, inner->thread);
  for (const char* name : {"refused", "under_refused", "deeper", "sibling",
                           "late"}) {
    EXPECT_EQ(root.FindSpan(name), nullptr) << name;
  }
}

// ---------------------------------------------------------------------------
// Prometheus exposition rendering and parsing.

TEST(ExpositionTest, PrometheusNameSanitizes) {
  EXPECT_EQ(obs::PrometheusName("server.requests"), "mc3_server_requests");
  EXPECT_EQ(obs::PrometheusName("a-b.c/d"), "mc3_a_b_c_d");
  EXPECT_EQ(obs::PrometheusName("ok_name9"), "mc3_ok_name9");
}

TEST(ExpositionTest, ExtraSamplesRoundTripThroughParser) {
  // Extra samples render beside an empty registry snapshot: the `metrics`
  // verb's server-side counters and build info.
  obs::MetricsSnapshot snap;
  std::vector<obs::ExpositionSample> extra;
  extra.push_back({"server.requests", "counter", {}, 42});
  extra.push_back({"server.queue_depth", "gauge", {}, 3});
  extra.push_back({"shard.ops", "counter", {{"shard", "0"}}, 10});
  extra.push_back({"shard.ops", "counter", {{"shard", "1"}}, 12});
  extra.push_back(
      {"build_info", "gauge", {{"compiler", "g++ \"x\"\nv1\\2"}}, 1});
  const std::string text = obs::RenderPrometheus(snap, extra);

  // Counters carry _total; HELP/TYPE lines are emitted once per name run.
  EXPECT_NE(text.find("# TYPE mc3_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mc3_server_queue_depth 3"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE mc3_shard_ops_total counter"),
            text.rfind("# TYPE mc3_shard_ops_total counter"));

  auto parsed = obs::ParseExposition(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::ParsedSample* requests =
      obs::FindSample(*parsed, "mc3_server_requests_total");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->value, 42);
  const obs::ParsedSample* shard1 =
      obs::FindSample(*parsed, "mc3_shard_ops_total", {{"shard", "1"}});
  ASSERT_NE(shard1, nullptr);
  EXPECT_EQ(shard1->value, 12);
  EXPECT_EQ(obs::FindSample(*parsed, "mc3_shard_ops_total", {{"shard", "9"}}),
            nullptr);
  // Escaped label value survives the round trip.
  const obs::ParsedSample* build = obs::FindSample(*parsed, "mc3_build_info");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->labels.at("compiler"), "g++ \"x\"\nv1\\2");
}

TEST(ExpositionTest, RegistryHistogramRendersCumulativeBuckets) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  obs::Histogram& histogram = registry.GetHistogram("test.expo.latency");
  histogram.Record(0.001);
  histogram.Record(0.002);
  histogram.Record(5.0);
  registry.GetCounter("test.expo.hits").Add(3);
  const std::string text = obs::RenderPrometheus(registry.Snap(), {});
  registry.ResetAll();

  auto parsed = obs::ParseExposition(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::ParsedSample* count =
      obs::FindSample(*parsed, "mc3_test_expo_latency_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->value, 3);
  const obs::ParsedSample* inf =
      obs::FindSample(*parsed, "mc3_test_expo_latency_bucket", {{"le", "+Inf"}});
  ASSERT_NE(inf, nullptr);
  EXPECT_EQ(inf->value, 3);  // the +Inf bucket is cumulative == count
  const obs::ParsedSample* sum =
      obs::FindSample(*parsed, "mc3_test_expo_latency_sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_NEAR(sum->value, 5.003, 1e-9);
  const obs::ParsedSample* hits =
      obs::FindSample(*parsed, "mc3_test_expo_hits_total");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->value, 3);

  // Bucket series is monotonically non-decreasing in le order.
  double prev = -1;
  for (const obs::ParsedSample& s : *parsed) {
    if (s.name != "mc3_test_expo_latency_bucket") continue;
    EXPECT_GE(s.value, prev);
    prev = s.value;
  }
}

TEST(ExpositionTest, ParserRejectsMalformedLines) {
  EXPECT_FALSE(obs::ParseExposition("metric_without_value\n").ok());
  EXPECT_FALSE(obs::ParseExposition("name{unclosed=\"x\" 1\n").ok());
  EXPECT_FALSE(obs::ParseExposition("name notanumber\n").ok());
  auto ok = obs::ParseExposition("# just a comment\n\nm 1\n");
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ((*ok)[0].name, "m");
}

TEST(HistogramQuantileTest, QuantilesAreMonotonicAcrossSpreadSamples) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();
  obs::Histogram& histogram = registry.GetHistogram("test.quantile.spread");
  for (int i = 1; i <= 1000; ++i) histogram.Record(1e-6 * i);
  const obs::HistogramSnapshot h =
      registry.Snap().histograms.at("test.quantile.spread");
  ASSERT_EQ(h.count, 1000u);
  const double p50 = h.P50();
  const double p95 = h.P95();
  const double p99 = h.P99();
  EXPECT_LE(h.min, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max);
  registry.ResetAll();
}

}  // namespace
}  // namespace mc3
