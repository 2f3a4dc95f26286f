#include "online/read_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "online/churn.h"
#include "online/online_engine.h"

namespace mc3 {
namespace {

using online::BuildReadView;
using online::EngineReadView;
using online::OnlineEngine;
using online::SolutionPiece;

/// Every entry of every piece of `view`, sorted by classifier (duplicates
/// kept, so a classifier in two pieces shows up as a mismatch).
SolutionPiece Flatten(const EngineReadView& view) {
  SolutionPiece entries;
  for (const auto& piece : view.pieces) {
    entries.insert(entries.end(), piece->begin(), piece->end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const SolutionPiece::value_type& a,
               const SolutionPiece::value_type& b) {
              return a.first < b.first;
            });
  return entries;
}

/// The engine's solution in canonical order at its table prices: what a
/// view of the engine must hold.
SolutionPiece Expected(const OnlineEngine& engine) {
  SolutionPiece entries;
  for (const PropertySet& classifier : engine.CurrentSolution().Sorted()) {
    entries.emplace_back(classifier, engine.CostOf(classifier));
  }
  return entries;
}

void ExpectViewMatches(const EngineReadView& view, const OnlineEngine& engine) {
  EXPECT_EQ(view.total_cost, engine.TotalCost());
  EXPECT_EQ(view.num_queries, engine.NumQueries());
  EXPECT_EQ(view.num_components, engine.NumComponents());
  EXPECT_EQ(view.pieces.size(), engine.NumComponents());
  const SolutionPiece expected = Expected(engine);
  EXPECT_EQ(view.num_classifiers, expected.size());
  EXPECT_EQ(Flatten(view), expected);
}

TEST(ReadViewTest, BatchRebuildsOnlyThePiecesItResolved) {
  online::ShardedSyntheticConfig config;
  config.num_domains = 50;
  config.domain.num_queries = 20;
  config.domain.max_query_length = 4;
  config.domain.seed = 5;
  const Instance base = online::GenerateShardedSynthetic(config);

  OnlineEngine engine;
  ASSERT_TRUE(engine.Initialize(base).ok());
  ASSERT_TRUE(engine.CheckInvariants().ok());
  ASSERT_GE(engine.NumComponents(), config.num_domains);

  const EngineReadView v1 = BuildReadView(engine, 1);
  EXPECT_EQ(v1.version, 1u);
  ExpectViewMatches(v1, engine);
  const SolutionPiece v1_contents = Flatten(v1);

  // Domain 0 holds the base's first queries; two of them leave.
  auto stats = engine.RemoveQueries({base.queries()[0], base.queries()[1]});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GE(stats->components_resolved, 1u);
  ASSERT_TRUE(engine.CheckInvariants().ok());

  const EngineReadView v2 = BuildReadView(engine, 2);
  ExpectViewMatches(v2, engine);

  // Pieces come in component-id order and re-solved components take the
  // newest ids, so v2 is v1's untouched pieces, verbatim, followed by one
  // new piece per re-solved component.
  std::set<const SolutionPiece*> v1_pieces;
  for (const auto& piece : v1.pieces) v1_pieces.insert(piece.get());
  ASSERT_GE(v2.pieces.size(), stats->components_resolved);
  const size_t kept = v2.pieces.size() - stats->components_resolved;
  EXPECT_GE(kept, config.num_domains - 1);
  for (size_t i = 0; i < v2.pieces.size(); ++i) {
    EXPECT_EQ(v1_pieces.count(v2.pieces[i].get()), i < kept ? 1u : 0u)
        << "piece " << i << " of " << v2.pieces.size();
  }

  // The update did not touch what v1 shows.
  EXPECT_EQ(Flatten(v1), v1_contents);
}

}  // namespace
}  // namespace mc3
