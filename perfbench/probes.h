// Replay probes: storage and queue operations timed in isolation, from
// outside the engine, on the rows a pass produced. They give per-
// operation costs of one layer, not its share of an engine pass.
#ifndef GDLOG_PERFBENCH_PROBES_H_
#define GDLOG_PERFBENCH_PROBES_H_

#include <cstdint>

#include "report.h"
#include "workloads.h"

namespace perfbench {

/// Per-operation nanoseconds (medians over repetitions) and the
/// operation counts of one repetition.
struct ReplayCosts {
  double insert_ns = 0;       // Relation::Insert of a new row (miss)
  double dedup_ns = 0;        // Relation::Insert of a present row (hit)
  double index_build_ns = 0;  // EnsureIndex backfill, per indexed row
  double probe_ns = 0;        // Index::Probe plus its match walk, per key
  double push_ns = 0;         // CandidateQueue::Push
  double pop_ns = 0;          // CandidateQueue::Pop until drained
  uint64_t inserts = 0, hits = 0, indexed = 0, probes = 0, matches = 0,
           pushes = 0, pops = 0;
};

ReplayCosts RunReplay(const ReplaySpec& spec, const ReplayRows& rows,
                      int repetitions, SpanLog* log);

}  // namespace perfbench

#endif  // GDLOG_PERFBENCH_PROBES_H_
