// Helpers for loading Graph workloads into an Engine as EDB facts.
// Nodes are Int values; edges become g(U, V, W) facts.
#ifndef GDLOG_GREEDY_GRAPH_H_
#define GDLOG_GREEDY_GRAPH_H_

#include <optional>

#include "api/engine.h"
#include "workload/graph.h"

namespace gdlog {

struct GraphLoadOptions {
  // Insert both g(u,v,w) and g(v,u,w) (undirected reading).
  bool both_directions = true;
  // Skip edges whose target equals this node. Rooted algorithms (Prim,
  // spanning tree) use this for the root: the root enters the tree via
  // its seed fact, not via a chosen edge, so edges into it would
  // otherwise admit a second entry (the choice FD only constrains rule
  // firings, not seed facts).
  std::optional<uint32_t> exclude_target;
};

/// Loads g/3 edge facts, in edge order, with one AddFacts call.
Status LoadGraphEdges(Engine* engine, const Graph& graph,
                      const GraphLoadOptions& options = {});

/// Loads node/1 facts for every node id, with one AddFacts call.
Status LoadGraphNodes(Engine* engine, const Graph& graph);

}  // namespace gdlog

#endif  // GDLOG_GREEDY_GRAPH_H_
