// Section 5.1 (extension): projection — displaylist retrieval, bit
// vector construction, and masked display rendering as the number of
// attributes grows.

#include <benchmark/benchmark.h>

#include <sstream>

#include "bench/bench_util.h"
#include "dynlink/synthesized.h"
#include "odeview/display_state.h"

namespace ode::bench {
namespace {

/// A class with `n` public int attributes a0..a{n-1}, all displayable.
std::unique_ptr<odb::Database> WideDb(int attrs) {
  auto db = ValueOrDie(odb::Database::CreateInMemory("wide"), "db");
  std::ostringstream ddl;
  ddl << "persistent class wide {\npublic:\n";
  for (int i = 0; i < attrs; ++i) ddl << "  int a" << i << ";\n";
  ddl << "};\n";
  CheckOk(db->DefineSchema(ddl.str()), "schema");
  std::vector<odb::Value::Field> fields;
  for (int i = 0; i < attrs; ++i) {
    fields.push_back({"a" + std::to_string(i), odb::Value::Int(i)});
  }
  (void)ValueOrDie(
      db->CreateObject("wide", odb::Value::Struct(std::move(fields))),
      "object");
  return db;
}

void BM_ProjectionMaskBuild(benchmark::State& state) {
  int attrs = static_cast<int>(state.range(0));
  std::vector<std::string> displaylist;
  std::vector<std::string> chosen;
  for (int i = 0; i < attrs; ++i) {
    displaylist.push_back("a" + std::to_string(i));
    if (i % 2 == 0) chosen.push_back(displaylist.back());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        view::BuildProjectionMask(displaylist, chosen));
  }
  state.counters["attrs"] = attrs;
}
BENCHMARK(BM_ProjectionMaskBuild)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_MaskedDisplayRender(benchmark::State& state) {
  int attrs = static_cast<int>(state.range(0));
  bool projected = state.range(1) == 1;
  auto db = WideDb(attrs);
  odb::ObjectBuffer obj = ValueOrDie(
      db->GetObject(ValueOrDie(db->ScanCluster("wide"), "scan").front()),
      "get");
  std::vector<std::string> displaylist =
      ValueOrDie(dynlink::SynthesizeDisplayList(db->schema(), "wide"),
                 "list");
  std::vector<bool> mask;
  if (projected) {
    mask.assign(displaylist.size(), false);
    mask[0] = true;  // project onto a single attribute
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueOrDie(
        dynlink::FormatObjectText(db->schema(), obj, displaylist, mask,
                                  false),
        "format"));
  }
  state.SetLabel(projected ? "projected to 1 attr" : "all attrs");
  state.counters["attrs"] = attrs;
}
BENCHMARK(BM_MaskedDisplayRender)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_ProjectionApplyInteraction(benchmark::State& state) {
  // The full §5.1 flow on the lab db: set a projection and re-render.
  LabSession session = LabSession::Create();
  view::BrowseNode* node =
      ValueOrDie(session.interactor->OpenObjectSet("employee"), "set");
  CheckOk(node->Next(), "next");
  CheckOk(node->ToggleFormat("text"), "text");
  for (auto _ : state) {
    CheckOk(node->SetProjection({"name", "age"}), "project");
    CheckOk(node->ClearProjection(), "clear");
  }
}
BENCHMARK(BM_ProjectionApplyInteraction);

}  // namespace
}  // namespace ode::bench

ODE_BENCH_MAIN();
