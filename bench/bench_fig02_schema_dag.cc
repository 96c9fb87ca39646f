// Figure 2: the class-relationship (schema) window — the inheritance
// DAG drawn with a placement algorithm that minimizes crossovers.
//
// Measures end-to-end layout time and quality as the schema grows, the
// zoom/re-render path of the schema window, and the cost of parsing a
// schema and resolving its class layouts.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "dag/layout.h"
#include "odb/ddl_parser.h"
#include "odeview/dag_view.h"

namespace ode::bench {
namespace {

dag::Digraph GraphForClasses(int num_classes, uint64_t seed) {
  odb::Schema schema = ValueOrDie(
      odb::ParseSchema(odb::SyntheticSchemaDdl(num_classes, 2, seed)),
      "parse synthetic schema");
  dag::Digraph graph;
  for (const odb::ClassDef& def : schema.classes()) {
    (void)graph.EnsureNode(def.name);
  }
  for (const auto& [base, derived] : schema.InheritanceEdges()) {
    (void)graph.AddEdge(*graph.FindNode(base), *graph.FindNode(derived));
  }
  return graph;
}

void BM_SchemaDagLayout(benchmark::State& state) {
  int classes = static_cast<int>(state.range(0));
  dag::Digraph graph = GraphForClasses(classes, 1990);
  uint64_t crossings = 0;
  for (auto _ : state) {
    dag::DagLayout layout = ValueOrDie(dag::LayoutDag(graph), "layout");
    crossings = layout.crossings;
    benchmark::DoNotOptimize(layout);
  }
  state.counters["classes"] = classes;
  state.counters["edges"] = graph.edge_count();
  state.counters["crossings"] = static_cast<double>(crossings);
  state.SetItemsProcessed(state.iterations() * classes);
}
BENCHMARK(BM_SchemaDagLayout)
    ->Arg(10)
    ->Arg(50)
    ->Arg(200)
    ->Arg(1000)
    ->Arg(2000);

void BM_ParseSchema(benchmark::State& state) {
  // The cost of a schema change: parse the DDL and resolve every
  // class's inheritance (members, ancestors, effective lists).
  int classes = static_cast<int>(state.range(0));
  std::string ddl = odb::SyntheticSchemaDdl(classes, 2, 1990);
  for (auto _ : state) {
    odb::Schema schema = ValueOrDie(odb::ParseSchema(ddl), "parse");
    benchmark::DoNotOptimize(schema);
  }
  state.counters["classes"] = classes;
  state.SetItemsProcessed(state.iterations() * classes);
}
BENCHMARK(BM_ParseSchema)
    ->Arg(100)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void BM_LabSchemaWindowOpen(benchmark::State& state) {
  // The whole Fig. 2 interaction: schema window with laid-out DAG.
  LabSession session = LabSession::Create();
  for (auto _ : state) {
    CheckOk(session.interactor->OnClassChanged("employee"),
            "reset windows");
    state.PauseTiming();
    // Destroy and reopen the schema window each round.
    CheckOk(session.app->CloseDatabase("lab"), "close");
    state.ResumeTiming();
    session.interactor =
        ValueOrDie(session.app->OpenDatabase("lab"), "open");
  }
}
BENCHMARK(BM_LabSchemaWindowOpen);

void BM_SchemaDagRender(benchmark::State& state) {
  int classes = static_cast<int>(state.range(0));
  view::DagView view("dag", GraphForClasses(classes, 7));
  view.set_rect(owl::Rect{0, 0, 100, 40});
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.RenderLines());
  }
  state.counters["classes"] = classes;
}
BENCHMARK(BM_SchemaDagRender)->Arg(10)->Arg(100)->Arg(500);

void BM_SchemaZoomCycle(benchmark::State& state) {
  view::DagView view("dag", GraphForClasses(300, 13));
  view.set_rect(owl::Rect{0, 0, 100, 40});
  for (auto _ : state) {
    CheckOk(view.ZoomOut(), "out");
    CheckOk(view.ZoomOut(), "out");
    CheckOk(view.ZoomIn(), "in");
    CheckOk(view.ZoomIn(), "in");
  }
}
BENCHMARK(BM_SchemaZoomCycle);

}  // namespace
}  // namespace ode::bench

ODE_BENCH_MAIN();
