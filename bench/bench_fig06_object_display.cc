// Figure 6: displaying an employee object in text and picture form —
// the display-function protocol, dynamic linking (cold vs. warm), and
// bitmap scaling.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "dynlink/linker.h"
#include "owl/bitmap.h"

namespace ode::bench {
namespace {

void BM_DynamicLinkCold(benchmark::State& state) {
  LabSession session = LabSession::Create();
  dynlink::DynamicLinker* linker = session.interactor->linker();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(linker->Load("lab", "employee", "text"), "load"));
    state.PauseTiming();
    linker->Invalidate("lab", "employee");
    state.ResumeTiming();
  }
  state.SetLabel("every display load pays the dynamic-link cost");
}
BENCHMARK(BM_DynamicLinkCold);

void BM_DynamicLinkWarm(benchmark::State& state) {
  LabSession session = LabSession::Create();
  dynlink::DynamicLinker* linker = session.interactor->linker();
  (void)ValueOrDie(linker->Load("lab", "employee", "text"), "preload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(linker->Load("lab", "employee", "text"), "load"));
  }
  state.SetLabel("cache hit after the first load (the paper's design)");
}
BENCHMARK(BM_DynamicLinkWarm);

void BM_DisplayFunctionText(benchmark::State& state) {
  LabSession session = LabSession::Create();
  dynlink::DynamicLinker* linker = session.interactor->linker();
  const dynlink::DisplayFunction* fn =
      ValueOrDie(linker->Load("lab", "employee", "text"), "load");
  odb::ObjectBuffer emp = ValueOrDie(
      session.db->GetObject(
          ValueOrDie(session.db->ScanCluster("employee"), "scan").front()),
      "get");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueOrDie((*fn)(emp, {}, {}), "display"));
  }
}
BENCHMARK(BM_DisplayFunctionText);

void BM_DisplayFunctionPicture(benchmark::State& state) {
  LabSession session = LabSession::Create();
  dynlink::DynamicLinker* linker = session.interactor->linker();
  const dynlink::DisplayFunction* fn =
      ValueOrDie(linker->Load("lab", "employee", "picture"), "load");
  odb::ObjectBuffer emp = ValueOrDie(
      session.db->GetObject(
          ValueOrDie(session.db->ScanCluster("employee"), "scan").front()),
      "get");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueOrDie((*fn)(emp, {}, {}), "display"));
  }
}
BENCHMARK(BM_DisplayFunctionPicture);

void BM_ToggleBothFormats(benchmark::State& state) {
  // The full Fig. 6 interaction: click text, click picture — windows
  // created, contents rendered.
  LabSession session = LabSession::Create();
  view::BrowseNode* node =
      ValueOrDie(session.interactor->OpenObjectSet("employee"), "set");
  CheckOk(node->Next(), "next");
  for (auto _ : state) {
    CheckOk(node->ToggleFormat("text"), "text on");
    CheckOk(node->ToggleFormat("picture"), "picture on");
    CheckOk(node->ToggleFormat("text"), "text off");
    CheckOk(node->ToggleFormat("picture"), "picture off");
  }
}
BENCHMARK(BM_ToggleBothFormats);

void BM_BitmapScaling(benchmark::State& state) {
  int target = static_cast<int>(state.range(0));
  owl::Bitmap source(16, 16);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) source.Set(x, y, (x * 31 + y * 17) % 3 == 0);
  }
  bool box = state.range(1) == 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(box ? source.ScaledBox(target, target)
                                 : source.ScaledNearest(target, target));
  }
  state.SetLabel(box ? "box filter" : "nearest");
  state.counters["target_px"] = target;
}
BENCHMARK(BM_BitmapScaling)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

}  // namespace
}  // namespace ode::bench

ODE_BENCH_MAIN();
