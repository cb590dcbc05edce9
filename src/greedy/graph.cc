#include "greedy/graph.h"

namespace gdlog {

Status LoadGraphEdges(Engine* engine, const Graph& graph,
                      const GraphLoadOptions& options) {
  std::vector<Value> rows;
  rows.reserve(graph.edges.size() * (options.both_directions ? 6 : 3));
  for (const GraphEdge& e : graph.edges) {
    const Value u = Value::Int(e.u);
    const Value v = Value::Int(e.v);
    const Value w = Value::Int(e.w);
    if (!options.exclude_target || *options.exclude_target != e.v) {
      rows.insert(rows.end(), {u, v, w});
    }
    if (options.both_directions &&
        (!options.exclude_target || *options.exclude_target != e.u)) {
      rows.insert(rows.end(), {v, u, w});
    }
  }
  return engine->AddFacts("g", 3, rows);
}

Status LoadGraphNodes(Engine* engine, const Graph& graph) {
  std::vector<Value> rows;
  rows.reserve(graph.num_nodes);
  for (uint32_t i = 0; i < graph.num_nodes; ++i) {
    rows.push_back(Value::Int(i));
  }
  return engine->AddFacts("node", 1, rows);
}

}  // namespace gdlog
