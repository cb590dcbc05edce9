#include "greedy/sort.h"

#include <algorithm>

namespace gdlog {

const char kSortProgram[] = R"(
  sp(nil, 0, 0).
  sp(X, C, I) <- next(I), p(X, C), least(C, I).
)";

Result<DeclarativeSortResult> SortRelation(
    const std::vector<std::pair<int64_t, int64_t>>& tuples,
    const EngineOptions& options) {
  auto engine = std::make_unique<Engine>(options);
  GDLOG_RETURN_IF_ERROR(engine->LoadProgram(kSortProgram));
  std::vector<Value> facts;
  facts.reserve(2 * tuples.size());
  for (const auto& [id, cost] : tuples) {
    facts.insert(facts.end(), {Value::Int(id), Value::Int(cost)});
  }
  GDLOG_RETURN_IF_ERROR(engine->AddFacts("p", 2, facts));
  GDLOG_RETURN_IF_ERROR(engine->Run());

  DeclarativeSortResult out;
  struct Row {
    int64_t id, cost, stage;
  };
  std::vector<Row> rows;
  for (const auto& row : engine->Query("sp", 3)) {
    if (row[0].is_nil()) continue;  // seed
    rows.push_back({row[0].AsInt(), row[1].AsInt(), row[2].AsInt()});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.stage < b.stage; });
  for (const Row& r : rows) out.sorted.emplace_back(r.id, r.cost);
  out.engine = std::move(engine);
  return out;
}

}  // namespace gdlog
