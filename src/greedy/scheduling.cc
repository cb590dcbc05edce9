#include "greedy/scheduling.h"

#include <algorithm>

namespace gdlog {

const char kSchedulingProgram[] = R"(
  sched(nil, 0, 0).
  sched(S, F, I) <- next(I), job(S, F), least(F, I),
                    not (sched(_, F2, J), J < I, F2 > S).
)";

Result<DeclarativeSchedule> SelectActivities(
    const std::vector<std::pair<int64_t, int64_t>>& jobs,
    const EngineOptions& options) {
  auto engine = std::make_unique<Engine>(options);
  GDLOG_RETURN_IF_ERROR(engine->LoadProgram(kSchedulingProgram));
  std::vector<Value> rows;
  rows.reserve(2 * jobs.size());
  for (const auto& [start, finish] : jobs) {
    rows.insert(rows.end(), {Value::Int(start), Value::Int(finish)});
  }
  GDLOG_RETURN_IF_ERROR(engine->AddFacts("job", 2, rows));
  GDLOG_RETURN_IF_ERROR(engine->Run());

  DeclarativeSchedule out;
  for (const auto& row : engine->Query("sched", 3)) {
    if (row[0].is_nil()) continue;  // seed
    out.jobs.push_back({row[0].AsInt(), row[1].AsInt(), row[2].AsInt()});
  }
  std::sort(out.jobs.begin(), out.jobs.end(),
            [](const ScheduledJob& a, const ScheduledJob& b) {
              return a.stage < b.stage;
            });
  out.engine = std::move(engine);
  return out;
}

}  // namespace gdlog
