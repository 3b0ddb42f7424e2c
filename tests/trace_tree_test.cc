// Causal trace propagation, end to end: one CellFleet::PutBatch must leave
// behind a single connected span tree that crosses the fleet, cell,
// storage and cloud layers — across the worker-pool thread hop — and the
// Chrome trace_event export of that tree must carry the same structure.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tc/cloud/infrastructure.h"
#include "tc/obs/exporter.h"
#include "tc/obs/trace.h"
#include "tc/testing/cell_fleet.h"

namespace tc {
namespace {

// ------------------------------------------------- context unit semantics

TEST(TraceContextTest, PlainSpanMintsATraceAndNestedSpansJoinIt) {
  obs::TraceRing::Global().Clear();
  uint64_t outer_trace = 0, outer_span = 0;
  uint64_t inner_trace = 0, inner_parent = 0;
  {
    obs::TraceSpan outer("test", "outer");
    outer_trace = outer.context().trace_id;
    outer_span = outer.context().span_id;
    EXPECT_NE(outer_trace, 0u);
    EXPECT_EQ(outer.context().parent_id, 0u);
    {
      obs::TraceSpan inner("test", "inner");
      inner_trace = inner.context().trace_id;
      inner_parent = inner.context().parent_id;
    }
  }
  // Nested span joined the outer trace instead of minting its own.
  EXPECT_EQ(inner_trace, outer_trace);
  EXPECT_EQ(inner_parent, outer_span);
  // After both spans closed, the thread is un-traced again.
  EXPECT_FALSE(obs::CurrentContext().active());
}

TEST(TraceContextTest, ChildOnlySpansAreInertWithoutAContext) {
  obs::TraceRing::Global().Clear();
  {
    // Hot-path guard: a child-only span outside any operation emits
    // nothing and installs no context.
    obs::TraceSpan span(obs::kChildOnly, "storage", "put");
    EXPECT_FALSE(obs::CurrentContext().active());
  }
  EXPECT_EQ(obs::TraceRing::Global().Snapshot().size(), 0u);
  {
    obs::TraceSpan root("test", "op");
    obs::TraceSpan child(obs::kChildOnly, "storage", "put");
    EXPECT_EQ(child.context().trace_id, root.context().trace_id);
    EXPECT_EQ(child.context().parent_id, root.context().span_id);
  }
}

// --------------------------------------------------- the four-layer tree

TEST(TraceTreeTest, PutBatchYieldsOneConnectedTreeAcrossAllFourLayers) {
  obs::TraceRing::Global().Clear();
  cloud::CloudInfrastructure cloud;
  tc::testing::CellFleetOptions options;
  options.cells = 3;
  options.threads = 2;
  options.docs_per_cell = 2;
  tc::testing::CellFleet driver(&cloud, options);
  auto report = driver.PutBatch();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->cells_ok, options.cells);
  EXPECT_EQ(report->docs_stored, options.cells * options.docs_per_cell);
  EXPECT_EQ(report->docs_fetched, options.cells * options.docs_per_cell);
  ASSERT_NE(report->trace_id, 0u);

  std::vector<obs::TraceEvent> events = obs::TraceRing::Global().Snapshot();
  std::vector<obs::SpanTree> trees = obs::Exporter::AssembleSpanTrees(events);
  const obs::SpanTree* batch_tree = nullptr;
  for (const obs::SpanTree& tree : trees) {
    if (tree.trace_id == report->trace_id) batch_tree = &tree;
  }
  ASSERT_NE(batch_tree, nullptr) << "batch trace not found in the ring";

  // One connected component: a single root, no span whose parent is
  // missing — i.e. the cross-thread handoff through the worker pool kept
  // every layer's spans attached to the batch.
  EXPECT_TRUE(batch_tree->connected())
      << batch_tree->roots.size() << " roots, " << batch_tree->orphans.size()
      << " orphans";
  ASSERT_EQ(batch_tree->roots.size(), 1u);
  const obs::AssembledSpan& root =
      batch_tree->spans.at(batch_tree->roots[0]);
  EXPECT_EQ(root.component, "fleet");
  EXPECT_EQ(root.name, "put_batch");
  EXPECT_TRUE(root.complete);

  // The one operation crossed every layer of the stack.
  for (const char* layer : {"fleet", "cell", "storage", "cloud"}) {
    EXPECT_TRUE(batch_tree->components.count(layer))
        << "no '" << layer << "' span in the batch tree";
  }

  // Every worker task span parents directly under the batch root, and
  // every cell span parents under a task span.
  size_t task_spans = 0;
  for (const auto& [span_id, span] : batch_tree->spans) {
    if (span.component == "fleet" && span.name == "task") {
      ++task_spans;
      EXPECT_EQ(span.parent_id, root.span_id);
    }
    if (span.component == "cell") {
      const obs::AssembledSpan& parent =
          batch_tree->spans.at(span.parent_id);
      EXPECT_EQ(parent.component, "fleet");
      EXPECT_EQ(parent.name, "task");
    }
    EXPECT_TRUE(span.complete) << span.component << "/" << span.name;
  }
  EXPECT_EQ(task_spans, options.cells);
}

TEST(TraceTreeTest, ChromeTraceExportCarriesTheBatch) {
  obs::TraceRing::Global().Clear();
  cloud::CloudInfrastructure cloud;
  tc::testing::CellFleetOptions options;
  options.cells = 2;
  options.threads = 2;
  options.docs_per_cell = 1;
  tc::testing::CellFleet driver(&cloud, options);
  auto report = driver.PutBatch();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::vector<obs::TraceEvent> events = obs::TraceRing::Global().Snapshot();
  std::string json = obs::Exporter::ToChromeTraceJson(events);
  // Wrapper shape + the root span as a complete ("X") event; full JSON
  // validation (parse + nesting) is scripts/validate_obs_export.sh's job.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"put_batch\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":" + std::to_string(report->trace_id)),
            std::string::npos);

  std::string jsonl = obs::Exporter::ToJsonLines(events);
  EXPECT_NE(jsonl.find("\"name\":\"put_batch\""), std::string::npos);
}

}  // namespace
}  // namespace tc
