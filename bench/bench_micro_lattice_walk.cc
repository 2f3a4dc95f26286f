// Micro-benchmark (google-benchmark): the classifier store's lattice walk.
// A ClassifierTable build walks its whole query list once and numbers the
// hits; it is timed over three seeded shapes, those of the benchmark's
// workloads: the length <= 2 queries of a 100,000-query Section 6.1
// synthetic instance (solve_short), a 20,000-query k <= 10 instance
// (solve_general), and one 15-query component over a 1,000-domain sharded
// catalog's store (serve_churn's re-solves). The walk alone is timed over
// the first shape both as one list walk and as one one-query walk per
// query, which is how `OnlineEngine::Coverable` and `PriceUnpricedSubsets`
// call it.
//
// Each loop repeats the same build over the same store, which stays hot in
// cache, so these figures read faster than the same build inside a solve.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/classifier_table.h"
#include "core/instance_util.h"
#include "data/synthetic.h"
#include "online/churn.h"

namespace {

using namespace mc3;

/// A query list and the store it is walked over.
struct Shape {
  Instance instance;  ///< owns the store
  /// The instance's queries, or for a component those of one component.
  std::vector<PropertySet> queries;
};

Shape MakeShort() {
  data::SyntheticConfig config;
  config.num_queries = 100000;
  config.seed = 6;
  const Instance full = data::GenerateSynthetic(config);
  std::vector<size_t> short_queries;
  for (size_t qi = 0; qi < full.NumQueries(); ++qi) {
    if (full.queries()[qi].size() <= 2) short_queries.push_back(qi);
  }
  Shape shape{SubInstance(full, short_queries), {}};
  shape.queries = shape.instance.queries();
  return shape;
}

Shape MakeGeneral() {
  data::SyntheticConfig config;
  config.num_queries = 20000;
  config.seed = 6;
  Shape shape{data::GenerateSynthetic(config), {}};
  shape.queries = shape.instance.queries();
  return shape;
}

Shape MakeComponent() {
  online::ShardedSyntheticConfig config;
  config.num_domains = 1000;
  config.domain.num_queries = 15;
  config.domain.seed = 4000;
  Shape shape{online::GenerateShardedSynthetic(config), {}};
  const ComponentPartition partition =
      PartitionQueries(shape.instance.queries());
  for (size_t qi = 0; qi < shape.instance.NumQueries(); ++qi) {
    if (partition.component_of[qi] == 0) {
      shape.queries.push_back(shape.instance.queries()[qi]);
    }
  }
  return shape;
}

const Shape& ShapeOf(int64_t index) {
  static const Shape shapes[] = {MakeShort(), MakeGeneral(), MakeComponent()};
  return shapes[index];
}

const char* NameOf(int64_t index) {
  static const char* const kNames[] = {"solve_short", "solve_general",
                                       "component"};
  return kNames[index];
}

void BM_TableBuild(benchmark::State& state) {
  const Shape& shape = ShapeOf(state.range(0));
  state.SetLabel(NameOf(state.range(0)));
  size_t subsets = 0;
  for (auto _ : state) {
    const ClassifierTable table(shape.queries, shape.instance.costs());
    subsets = table.num_subsets();
    benchmark::DoNotOptimize(subsets);
  }
  state.counters["queries"] = static_cast<double>(shape.queries.size());
  state.counters["subsets"] = static_cast<double>(subsets);
}

void BM_ListWalk(benchmark::State& state) {
  const Shape& shape = ShapeOf(0);
  state.SetLabel(NameOf(0));
  std::vector<QuerySubset> out;
  std::vector<size_t> row_ends;
  for (auto _ : state) {
    out.clear();
    row_ends.clear();
    shape.instance.costs().AppendSubsets(shape.queries, &out, &row_ends);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

void BM_OneQueryWalks(benchmark::State& state) {
  const Shape& shape = ShapeOf(0);
  state.SetLabel(NameOf(0));
  std::vector<QuerySubset> out;
  for (auto _ : state) {
    out.clear();
    for (const PropertySet& q : shape.queries) {
      benchmark::DoNotOptimize(
          shape.instance.costs().AppendSubsets(q.ids(), &out));
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

}  // namespace

BENCHMARK(BM_TableBuild)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ListWalk)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_OneQueryWalks)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
