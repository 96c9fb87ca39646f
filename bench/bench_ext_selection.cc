// Section 5.2 (extension): selection — predicate parsing, evaluation,
// and object-manager filtering across cluster sizes and selectivities.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "odb/predicate.h"

namespace ode::bench {
namespace {

LabSession BigLab(int employees) {
  odb::LabDbConfig config;
  config.employees = employees;
  config.managers = 8;
  config.departments = 8;
  return LabSession::Create(config);
}

void BM_PredicateParse(benchmark::State& state) {
  const char* text =
      "age > 30 && (salary >= 60000 || name contains \"ra\") && "
      "title != \"manager\"";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(odb::ParsePredicate(text), "parse"));
  }
}
BENCHMARK(BM_PredicateParse);

void BM_PredicateEvaluate(benchmark::State& state) {
  LabSession session = LabSession::Create();
  odb::Predicate p = ValueOrDie(
      odb::ParsePredicate("age > 30 && salary >= 60000"), "parse");
  odb::ObjectBuffer emp = ValueOrDie(
      session.db->GetObject(
          ValueOrDie(session.db->ScanCluster("employee"), "scan").front()),
      "get");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueOrDie(p.Evaluate(emp.value), "eval"));
  }
}
BENCHMARK(BM_PredicateEvaluate);

void BM_SelectBySelectivity(benchmark::State& state) {
  // Ages are uniform in [25, 65): the cutoff controls selectivity.
  int cutoff = static_cast<int>(state.range(0));
  LabSession session = BigLab(2000);
  odb::Predicate p = ValueOrDie(
      odb::ParsePredicate("age >= " + std::to_string(cutoff)), "parse");
  size_t selected = 0;
  for (auto _ : state) {
    std::vector<odb::Oid> result =
        ValueOrDie(session.db->Select("employee", p), "select");
    selected = result.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["cluster"] = 2000;
  state.counters["selected"] = static_cast<double>(selected);
}
BENCHMARK(BM_SelectBySelectivity)->Arg(25)->Arg(45)->Arg(60)->Arg(65);

void BM_SelectByClusterSize(benchmark::State& state) {
  int employees = static_cast<int>(state.range(0));
  LabSession session = BigLab(employees);
  odb::Predicate p =
      ValueOrDie(odb::ParsePredicate("age >= 45"), "parse");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(session.db->Select("employee", p), "select"));
  }
  state.SetItemsProcessed(state.iterations() * employees);
  state.counters["cluster"] = employees;
}
BENCHMARK(BM_SelectByClusterSize)->Arg(100)->Arg(1000)->Arg(10000);


void BM_FilteredSequencing(benchmark::State& state) {
  // The user-visible behaviour: `next` skips non-matching objects.
  LabSession session = BigLab(2000);
  CheckOk(session.interactor->ApplyConditionBox("employee", "age >= 60"),
          "apply");
  view::BrowseNode* node = session.interactor->FindObjectSet("employee");
  for (auto _ : state) {
    if (!node->Next().ok()) CheckOk(node->Reset(), "reset");
  }
}
BENCHMARK(BM_FilteredSequencing);

void BM_MenuBuiltVersusTypedPredicate(benchmark::State& state) {
  // Both §5.2 schemes produce the same predicate; verify equal cost.
  bool menu_built = state.range(0) == 1;
  LabSession session = LabSession::Create();
  odb::Predicate typed = ValueOrDie(
      odb::ParsePredicate("age >= 40 && salary < 120000"), "parse");
  odb::Predicate built = odb::Predicate::And(
      odb::Predicate::Compare(odb::Operand::Attribute("age"),
                              odb::CompareOp::kGe,
                              odb::Operand::Literal(odb::Value::Int(40))),
      odb::Predicate::Compare(
          odb::Operand::Attribute("salary"), odb::CompareOp::kLt,
          odb::Operand::Literal(odb::Value::Int(120000))));
  const odb::Predicate& p = menu_built ? built : typed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(session.db->Select("employee", p), "select"));
  }
  state.SetLabel(menu_built ? "menu-built" : "condition-box");
}
BENCHMARK(BM_MenuBuiltVersusTypedPredicate)->Arg(0)->Arg(1);

}  // namespace
}  // namespace ode::bench

ODE_BENCH_MAIN();
